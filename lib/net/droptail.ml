let create ~capacity ?(on_drop = fun _ -> ()) () =
  if capacity < 1 then invalid_arg "Droptail.create: capacity < 1";
  let fifo = Queue_disc.fifo ~capacity in
  let bytes = ref 0 in
  let stats = Queue_disc.fresh_stats () in
  let enqueue packet =
    if Sim.Ring.is_full fifo then begin
      stats.dropped <- stats.dropped + 1;
      stats.bytes_dropped <- stats.bytes_dropped + packet.Packet.size_bytes;
      on_drop packet;
      false
    end
    else begin
      Sim.Ring.push fifo packet;
      bytes := !bytes + packet.Packet.size_bytes;
      stats.enqueued <- stats.enqueued + 1;
      true
    end
  in
  let dequeue () =
    if Sim.Ring.is_empty fifo then None
    else begin
      let packet = Sim.Ring.pop fifo in
      bytes := !bytes - packet.Packet.size_bytes;
      stats.dequeued <- stats.dequeued + 1;
      Some packet
    end
  in
  Queue_disc.make ~name:"droptail" ~enqueue ~dequeue
    ~length:(fun () -> Sim.Ring.length fifo)
    ~byte_length:(fun () -> !bytes)
    ~stats ()
