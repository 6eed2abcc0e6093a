(* Allocation budgets of the per-packet path, in minor-heap words per
   operation, measured with [Gc.minor_words] after a warm-up.

   These run in the build the tests are built in: dune's dev profile,
   which compiles with [-opaque] and so inlines nothing across modules.
   A float or int64 passed to or returned from another module is then
   a 2- or 3-word box. Each budget below is the count that profile
   reaches; a release build can only allocate less. A failure means
   the path allocates more than it did: find the new allocation rather
   than raising the budget. *)

let warmup = 2_000

let iterations = 20_000

(* Words per call of [op] over [iterations] calls, after [warmup]
   calls have grown every lazily sized buffer to its steady state. The
   two boxed floats [Gc.minor_words] returns add well under 0.01 per
   call. *)
let words_per_op op =
  for _ = 1 to warmup do
    op ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to iterations do
    op ()
  done;
  (Gc.minor_words () -. before) /. float_of_int iterations

let check_budget name ~budget words =
  if words > budget +. 0.01 then
    Alcotest.failf "%s: %.3f words per operation, budget %.0f" name words
      budget

(* 64 self-rescheduling event chains, each fire pushing its successor
   at one of two constant delays (a literal float is a static constant,
   so the call boxes nothing): a steady population of 64 events that
   exercises the calendar's push, find-min and pop. Only the final
   drain resizes the calendar, a few words over 200 000 events. *)
let test_engine_event () =
  let engine = Sim.Engine.create () in
  let remaining = ref 0 in
  let rec tick () =
    if !remaining > 0 then begin
      decr remaining;
      if !remaining land 1 = 0 then
        Sim.Engine.schedule_unit engine ~delay:0.25 tick
      else Sim.Engine.schedule_unit engine ~delay:0.0625 tick
    end
  in
  let run events =
    for _ = 1 to 64 do
      Sim.Engine.schedule_unit engine ~delay:0.0 tick
    done;
    remaining := events;
    let before = Gc.minor_words () in
    Sim.Engine.run engine;
    (Gc.minor_words () -. before) /. float_of_int events
  in
  ignore (run warmup : float);
  check_budget "schedule_unit + fire" ~budget:0.0 (run (10 * iterations))

(* The three draws the simulator makes. [bernoulli] consumes its draw
   inside [Rng] and allocates nothing; [bits64] and [float] return an
   int64 / a float to another module, which boxes the result (3 / 2
   words) and nothing else — the state update itself is unboxed. *)
let test_rng_draws () =
  let rng = Sim.Rng.create 42L in
  check_budget "Rng.bits64" ~budget:3.0
    (words_per_op (fun () -> ignore (Sim.Rng.bits64 rng : int64)));
  check_budget "Rng.float" ~budget:2.0
    (words_per_op (fun () -> ignore (Sim.Rng.float rng : float)));
  check_budget "Rng.bernoulli" ~budget:0.0
    (words_per_op (fun () -> ignore (Sim.Rng.bernoulli rng 0.3 : bool)))

(* Two nodes, one drop-tail link each way: a hop is [inject_data] at
   [a] (forward: next-hop lookup, [Link.send], enqueue), the
   serialization event (dequeue, wire entry) and the propagation event
   (delivery, [arrive] at [b], data dispatch). The packet is reused, so
   only the path itself is counted. The 8 words are float boxes at
   module boundaries: the serialization delay and the wire-exit time
   passed to [Sim.Engine], the [Sim.Engine.now] result the link reads,
   and the one option [dequeue] returns. *)
let hop_topology () =
  let engine = Sim.Engine.create () in
  let link from_node to_node =
    {
      Net.Topology.from_node;
      to_node;
      bandwidth_bps = 1e7;
      delay = 0.001;
      queue = Net.Topology.Droptail { capacity = 64 };
    }
  in
  let spec =
    {
      Net.Topology.nodes =
        [
          { Net.Topology.node = "a"; routes = []; default_route = Some "ab" };
          { node = "b"; routes = []; default_route = Some "ba" };
        ];
      links = [ ("ab", link "a" "b"); ("ba", link "b" "a") ];
    }
  in
  let topology =
    Net.Topology.create ~engine ~spec ~rng:(Sim.Rng.create 1L)
      ~flows:[| { Net.Topology.src = "a"; dst = "b" } |]
      ()
  in
  (engine, topology)

let test_topology_hop () =
  let engine, topology = hop_topology () in
  let delivered = ref 0 in
  Net.Topology.on_data topology ~flow:0 (fun _ -> incr delivered);
  let packet =
    Net.Packet.data ~uid:0 ~flow:0 ~seq:0 ~size_bytes:1000 ~born:0.0
  in
  let words =
    words_per_op (fun () ->
        Net.Topology.inject_data topology ~flow:0 packet;
        Sim.Engine.run engine)
  in
  Alcotest.(check int) "every hop delivered" (warmup + iterations) !delivered;
  check_budget "inject_data hop" ~budget:8.0 words

(* A drop-tail queue under the full auditor (every check, the per-flow
   FIFO shadow on): one enqueue and one dequeue, i.e. two audited queue
   events. The 2 words are the option [dequeue] returns; the events,
   the observer fan-out and the auditor's shadow allocate nothing. *)
let test_audited_queue_event () =
  let engine = Sim.Engine.create () in
  let auditor = Audit.Auditor.create ~engine () in
  let queue = Net.Droptail.create ~capacity:8 () in
  Audit.Auditor.attach_queue auditor ~name:"q" queue;
  let packet =
    Net.Packet.data ~uid:0 ~flow:3 ~seq:0 ~size_bytes:1000 ~born:0.0
  in
  let checks_before = Audit.Auditor.checks_run auditor in
  let words =
    words_per_op (fun () ->
        ignore (queue.Net.Queue_disc.enqueue packet : bool);
        ignore (queue.Net.Queue_disc.dequeue () : Net.Packet.t option))
  in
  Alcotest.(check bool) "no violation" true (Audit.Auditor.ok auditor);
  Alcotest.(check bool) "checks ran" true
    (Audit.Auditor.checks_run auditor > checks_before);
  check_budget "audited enqueue + dequeue" ~budget:2.0 words

(* A binary tracer on the same queue pair: each event is one record
   stored straight into the tracer's staging area, stamped with the
   engine clock's own encoding, its queue name's id cached by the
   subscription. The pair allocates no more than untraced: the 2-word
   option [dequeue] returns. *)
let test_binary_traced_queue_event () =
  let engine = Sim.Engine.create () in
  let queue = Net.Droptail.create ~capacity:8 () in
  Out_channel.with_open_bin "/dev/null" (fun out ->
      let tracer = Audit.Trace.create ~format:`Binary ~out () in
      Audit.Trace.attach_queue tracer ~engine ~name:"q" queue;
      let packet =
        Net.Packet.data ~uid:0 ~flow:3 ~seq:0 ~size_bytes:1000 ~born:0.0
      in
      check_budget "binary-traced enqueue + dequeue" ~budget:2.0
        (words_per_op (fun () ->
             ignore (queue.Net.Queue_disc.enqueue packet : bool);
             ignore (queue.Net.Queue_disc.dequeue () : Net.Packet.t option))))

let quiet_sender () =
  Tcp.Sender_common.create ~engine:(Sim.Engine.create ())
    ~params:Tcp.Params.default ~flow:0 ~emit:ignore ~timeout_action:ignore ()

(* Three observers is the count whenever a tracer is attached (the
   auditor, the flow trace and the tracer). The fan-out is a top-level
   loop, so it builds no closure per event. The time is a literal, a
   static constant, so the call boxes nothing either. *)
let test_sender_fan_out () =
  let sender = quiet_sender () in
  let seen = ref 0 in
  for _ = 1 to 3 do
    Tcp.Sender_common.on_send sender (fun ~time:_ ~seq:_ ~retx:_ -> incr seen);
    Tcp.Sender_common.on_ack sender (fun ~time:_ ~ackno:_ -> incr seen)
  done;
  check_budget "fire_send, three observers" ~budget:0.0
    (words_per_op (fun () ->
         Tcp.Sender_common.fire_send sender ~time:1.5 ~seq:7 ~retx:false));
  check_budget "fire_ack, three observers" ~budget:0.0
    (words_per_op (fun () ->
         Tcp.Sender_common.fire_ack sender ~time:1.5 ~ackno:7));
  Alcotest.(check int) "every observer saw every event"
    (2 * 3 * (warmup + iterations))
    !seen

(* A send and an ACK through a binary tracer's [attach_sender]
   subscription: two records stored into the staging area. *)
let test_binary_traced_sender () =
  let sender = quiet_sender () in
  let agent =
    {
      Tcp.Agent.name = "probe";
      flow = 0;
      deliver_ack = ignore;
      base = sender;
      wants_sack = false;
    }
  in
  Out_channel.with_open_bin "/dev/null" (fun out ->
      let tracer = Audit.Trace.create ~format:`Binary ~out () in
      Audit.Trace.attach_sender tracer agent;
      check_budget "binary-traced send + ack" ~budget:0.0
        (words_per_op (fun () ->
             Tcp.Sender_common.fire_send sender ~time:1.5 ~seq:7 ~retx:false;
             Tcp.Sender_common.fire_ack sender ~time:1.5 ~ackno:7)))

(* [Loss.drop_list] keeps state only for segments a rule names: every
   other data segment passes without a counter, a key or a table
   entry, so the table no longer grows with the run. *)
let test_drop_list_unruled () =
  let passed = ref 0 in
  let next =
    Net.Loss.drop_list
      ~rules:[ { Net.Loss.flow = 0; seq = 3; occurrence = 1 } ]
      (fun _ -> incr passed)
  in
  let packets =
    Array.init 64 (fun i ->
        Net.Packet.data ~uid:i ~flow:0 ~seq:(10 + i) ~size_bytes:1000 ~born:0.0)
  in
  let i = ref 0 in
  check_budget "drop_list, unruled segment" ~budget:0.0
    (words_per_op (fun () ->
         incr i;
         next packets.(!i land 63)));
  Alcotest.(check int) "all forwarded" (warmup + iterations) !passed

let suite =
  [
    ( "alloc",
      [
        Alcotest.test_case "engine schedule_unit + fire: 0 words" `Quick
          test_engine_event;
        Alcotest.test_case "rng draws" `Quick test_rng_draws;
        Alcotest.test_case "topology inject_data hop" `Quick test_topology_hop;
        Alcotest.test_case "audited queue event" `Quick
          test_audited_queue_event;
        Alcotest.test_case "drop_list unruled segment" `Quick
          test_drop_list_unruled;
        Alcotest.test_case "binary-traced queue event" `Quick
          test_binary_traced_queue_event;
        Alcotest.test_case "sender fan-out, three observers" `Quick
          test_sender_fan_out;
        Alcotest.test_case "binary-traced send + ack" `Quick
          test_binary_traced_sender;
      ] );
  ]
