(* Drop-tail and RED queue-discipline tests. *)

let packet ?(flow = 0) ?(size = 1000) seq =
  Net.Packet.data ~uid:seq ~flow ~seq ~size_bytes:size ~born:0.0

let test_droptail_fifo () =
  let q = Net.Droptail.create ~capacity:10 () in
  List.iter (fun s -> ignore (q.Net.Queue_disc.enqueue (packet s) : bool)) [ 1; 2; 3 ];
  let seqs =
    List.init 3 (fun _ ->
        match q.Net.Queue_disc.dequeue () with
        | Some p -> Net.Packet.seq_exn p
        | None -> -1)
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] seqs;
  Alcotest.(check bool) "drained" true (q.Net.Queue_disc.dequeue () = None)

let test_droptail_capacity () =
  let dropped = ref [] in
  let q =
    Net.Droptail.create ~capacity:2
      ~on_drop:(fun p -> dropped := Net.Packet.seq_exn p :: !dropped)
      ()
  in
  let accepted =
    List.map (fun s -> q.Net.Queue_disc.enqueue (packet s)) [ 1; 2; 3; 4 ]
  in
  Alcotest.(check (list bool)) "two accepted" [ true; true; false; false ] accepted;
  Alcotest.(check (list int)) "drop callback" [ 4; 3 ] !dropped;
  Alcotest.(check int) "stats enq" 2 q.Net.Queue_disc.stats.Net.Queue_disc.enqueued;
  Alcotest.(check int) "stats drop" 2 q.Net.Queue_disc.stats.Net.Queue_disc.dropped;
  (* Draining makes room again. *)
  ignore (q.Net.Queue_disc.dequeue ());
  Alcotest.(check bool) "room again" true (q.Net.Queue_disc.enqueue (packet 5))

let test_droptail_byte_length () =
  let q = Net.Droptail.create ~capacity:5 () in
  ignore (q.Net.Queue_disc.enqueue (packet ~size:700 1) : bool);
  ignore (q.Net.Queue_disc.enqueue (packet ~size:300 2) : bool);
  Alcotest.(check int) "bytes" 1000 (q.Net.Queue_disc.byte_length ());
  ignore (q.Net.Queue_disc.dequeue ());
  Alcotest.(check int) "bytes after deq" 300 (q.Net.Queue_disc.byte_length ())

let test_droptail_invalid () =
  Alcotest.check_raises "capacity" (Invalid_argument "Droptail.create: capacity < 1")
    (fun () -> ignore (Net.Droptail.create ~capacity:0 ()))

let make_red ?(capacity = 25) ?(params = Net.Red.paper_params) () =
  let engine = Sim.Engine.create () in
  let disc, stats, probe =
    Net.Red.create_with_probe ~engine ~capacity ~params
      ~rng:(Sim.Rng.create 9L) ~bandwidth_bps:(Sim.Units.mbps 0.8) ()
  in
  (engine, disc, stats, probe)

let test_red_no_drops_below_min () =
  let _, q, stats, _ = make_red () in
  (* Keep the instantaneous queue at <= 2: the average stays below
     min_th = 5, so nothing may drop. *)
  for i = 1 to 200 do
    ignore (q.Net.Queue_disc.enqueue (packet i) : bool);
    while q.Net.Queue_disc.length () > 2 do
      ignore (q.Net.Queue_disc.dequeue ())
    done
  done;
  Alcotest.(check int) "no early" 0 stats.Net.Red.early;
  Alcotest.(check int) "no forced" 0 stats.Net.Red.forced;
  Alcotest.(check int) "no overflow" 0 stats.Net.Red.buffer_full

let test_red_average_tracks_queue () =
  let _, q, _, probe = make_red () in
  for i = 1 to 2000 do
    ignore (q.Net.Queue_disc.enqueue (packet i) : bool);
    if q.Net.Queue_disc.length () > 10 then ignore (q.Net.Queue_disc.dequeue ())
  done;
  let avg = probe () in
  Alcotest.(check bool)
    (Printf.sprintf "avg %.2f approaches queue ~10" avg)
    true
    (avg > 6.0 && avg < 12.0)

let test_red_forced_drops_above_max () =
  let _, q, stats, probe = make_red ~capacity:100 () in
  (* Fill without draining: the average eventually crosses max_th = 20
     and every arrival is dropped. *)
  for i = 1 to 4000 do
    ignore (q.Net.Queue_disc.enqueue (packet i) : bool)
  done;
  Alcotest.(check bool) "avg above max_th" true (probe () >= 20.0);
  Alcotest.(check bool) "forced drops happened" true (stats.Net.Red.forced > 0)

let test_red_early_drops_in_band () =
  let _, q, stats, _ = make_red ~capacity:100 () in
  (* Hold the queue around 12 — inside [min_th, max_th): early drops
     must appear with probability ~max_p. *)
  for i = 1 to 5000 do
    ignore (q.Net.Queue_disc.enqueue (packet i) : bool);
    if q.Net.Queue_disc.length () > 12 then ignore (q.Net.Queue_disc.dequeue ())
  done;
  Alcotest.(check bool)
    (Printf.sprintf "early drops %d > 0" stats.Net.Red.early)
    true (stats.Net.Red.early > 0);
  Alcotest.(check int) "no forced" 0 stats.Net.Red.forced

let test_red_idle_decay () =
  let engine, q, _, probe = make_red () in
  for i = 1 to 40 do
    ignore (q.Net.Queue_disc.enqueue (packet i) : bool);
    if q.Net.Queue_disc.length () > 8 then ignore (q.Net.Queue_disc.dequeue ())
  done;
  (* Drain completely, idle for a long time, then enqueue once: the
     average must have decayed toward zero. *)
  while q.Net.Queue_disc.dequeue () <> None do () done;
  let before = probe () in
  Sim.Engine.run_until engine ~time:60.0;
  ignore (q.Net.Queue_disc.enqueue (packet 999) : bool);
  let after = probe () in
  Alcotest.(check bool)
    (Printf.sprintf "decayed %.3f -> %.3f" before after)
    true
    (after < before /. 2.0)

let test_red_validation () =
  let engine = Sim.Engine.create () in
  let bad params =
    Alcotest.check_raises "invalid params"
      (Invalid_argument "Red.create: need 0 < min_th < max_th") (fun () ->
        ignore
          (Net.Red.create ~engine ~capacity:10 ~params ~rng:(Sim.Rng.create 1L)
             ~bandwidth_bps:1e6 ()))
  in
  bad { Net.Red.paper_params with min_th = 10.0; max_th = 5.0 }

(* The ring FIFO behind both disciplines, against [Stdlib.Queue] as the
   model: random enqueue/dequeue interleavings whose enqueue share
   varies per case, so runs fill past the ring's initial 8 slots
   (growth), cycle around its end (wrap-around) and hit [capacity]
   (drops). Length, byte length, stats and the dequeued packet itself
   are compared after every step. *)
let prop_droptail_ring_model =
  QCheck2.Test.make ~name:"droptail ring matches a Stdlib.Queue model"
    ~count:300
    QCheck2.Gen.(
      triple (int_range 1 40) (int_range 20 80)
        (list_size (int_range 0 400)
           (pair (int_range 0 99) (int_range 40 1500))))
    (fun (capacity, enqueue_share, steps) ->
      let q = Net.Droptail.create ~capacity () in
      let model = Queue.create () in
      let model_stats = Net.Queue_disc.fresh_stats () in
      let bytes = ref 0 and uid = ref 0 in
      List.for_all
        (fun (coin, size) ->
          let same_outcome =
            if coin < enqueue_share then begin
              incr uid;
              let p = packet ~size !uid in
              let fits = Queue.length model < capacity in
              if fits then begin
                Queue.push p model;
                bytes := !bytes + size;
                model_stats.enqueued <- model_stats.enqueued + 1
              end
              else begin
                model_stats.dropped <- model_stats.dropped + 1;
                model_stats.bytes_dropped <- model_stats.bytes_dropped + size
              end;
              q.Net.Queue_disc.enqueue p = fits
            end
            else
              match (q.Net.Queue_disc.dequeue (), Queue.take_opt model) with
              | None, None -> true
              | Some got, Some want ->
                bytes := !bytes - want.Net.Packet.size_bytes;
                model_stats.dequeued <- model_stats.dequeued + 1;
                got == want
              | Some _, None | None, Some _ -> false
          in
          same_outcome
          && q.Net.Queue_disc.length () = Queue.length model
          && q.Net.Queue_disc.byte_length () = !bytes
          && q.Net.Queue_disc.stats = model_stats)
        steps)

(* Storage follows occupancy, not the bound: a 65 536-packet queue that
   never holds more than 10 packets keeps 16 slots. *)
let test_ring_grows_on_demand () =
  let ring = Sim.Ring.create ~dummy:0 ~limit:65_536 in
  Alcotest.(check int) "starts small" 8 (Sim.Ring.slots ring);
  for round = 1 to 1_000 do
    for i = 1 to 10 do
      Sim.Ring.push ring ((round * 10) + i)
    done;
    for i = 1 to 10 do
      Alcotest.(check int) "fifo order" ((round * 10) + i) (Sim.Ring.pop ring)
    done
  done;
  Alcotest.(check int) "one doubling" 16 (Sim.Ring.slots ring);
  let small = Sim.Ring.create ~dummy:0 ~limit:5 in
  for i = 1 to 5 do
    Sim.Ring.push small i
  done;
  Alcotest.(check int) "capped at the limit" 5 (Sim.Ring.slots small);
  Alcotest.(check bool) "full" true (Sim.Ring.is_full small);
  Alcotest.check_raises "push past the limit"
    (Invalid_argument "Ring.push: full") (fun () -> Sim.Ring.push small 6);
  Alcotest.check_raises "pop when empty" (Invalid_argument "Ring.pop: empty")
    (fun () -> ignore (Sim.Ring.pop (Sim.Ring.create ~dummy:0 ~limit:1) : int))

let suite =
  [
    ( "droptail",
      [
        Alcotest.test_case "fifo" `Quick test_droptail_fifo;
        Alcotest.test_case "capacity" `Quick test_droptail_capacity;
        Alcotest.test_case "byte length" `Quick test_droptail_byte_length;
        Alcotest.test_case "invalid" `Quick test_droptail_invalid;
        Alcotest.test_case "ring grows on demand" `Quick
          test_ring_grows_on_demand;
        QCheck_alcotest.to_alcotest prop_droptail_ring_model;
      ] );
    ( "red",
      [
        Alcotest.test_case "no drops below min_th" `Quick test_red_no_drops_below_min;
        Alcotest.test_case "average tracks queue" `Quick test_red_average_tracks_queue;
        Alcotest.test_case "forced above max_th" `Quick test_red_forced_drops_above_max;
        Alcotest.test_case "early drops in band" `Quick test_red_early_drops_in_band;
        Alcotest.test_case "idle decay" `Quick test_red_idle_decay;
        Alcotest.test_case "parameter validation" `Quick test_red_validation;
      ] );
  ]
