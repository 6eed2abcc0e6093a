(* Loss-injection wrappers: uniform random loss and deterministic drop
   lists. *)

let data ?(flow = 0) seq =
  Net.Packet.data ~uid:seq ~flow ~seq ~size_bytes:1000 ~born:0.0

let ack ackno = Net.Packet.ack ~uid:ackno ~flow:0 ~ackno ~size_bytes:40 ~born:0.0 ()

let test_uniform_rate () =
  let rng = Sim.Rng.create 21L in
  let passed = ref 0 and dropped = ref 0 in
  let next = Net.Loss.uniform ~rng ~rate:0.2 ~on_drop:(fun _ -> incr dropped)
      (fun _ -> incr passed) in
  for i = 1 to 10_000 do
    next (data i)
  done;
  let rate = float_of_int !dropped /. 10_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f near 0.2" rate)
    true
    (rate > 0.17 && rate < 0.23);
  Alcotest.(check int) "conservation" 10_000 (!passed + !dropped)

let test_uniform_zero_and_one () =
  let rng = Sim.Rng.create 5L in
  let count = ref 0 in
  let all_pass = Net.Loss.uniform ~rng ~rate:0.0 (fun _ -> incr count) in
  for i = 1 to 100 do
    all_pass (data i)
  done;
  Alcotest.(check int) "rate 0 passes all" 100 !count;
  let none = Net.Loss.uniform ~rng ~rate:1.0 (fun _ -> Alcotest.fail "leak") in
  for i = 1 to 100 do
    none (data i)
  done

let test_uniform_data_only () =
  let rng = Sim.Rng.create 5L in
  let acks = ref 0 in
  let next = Net.Loss.uniform ~rng ~rate:1.0 (fun _ -> incr acks) in
  for i = 1 to 50 do
    next (ack i)
  done;
  Alcotest.(check int) "acks immune by default" 50 !acks;
  let dropped = ref 0 in
  let next =
    Net.Loss.uniform ~rng ~rate:1.0 ~data_only:false
      ~on_drop:(fun _ -> incr dropped)
      (fun _ -> Alcotest.fail "leak")
  in
  next (ack 1);
  Alcotest.(check int) "acks droppable when asked" 1 !dropped

let test_uniform_invalid_rate () =
  let rng = Sim.Rng.create 5L in
  Alcotest.check_raises "rate" (Invalid_argument "Loss.uniform: bad rate")
    (fun () -> ignore (Net.Loss.uniform ~rng ~rate:1.5 (fun _ -> ()) (data 1)))

let test_drop_list_first_occurrence () =
  let passed = ref [] and dropped = ref [] in
  let next =
    Net.Loss.drop_list
      ~rules:[ { Net.Loss.flow = 0; seq = 5; occurrence = 1 } ]
      ~on_drop:(fun p -> dropped := Net.Packet.seq_exn p :: !dropped)
      (fun p -> passed := Net.Packet.seq_exn p :: !passed)
  in
  List.iter next [ data 4; data 5; data 6; data 5 (* retransmission *) ];
  Alcotest.(check (list int)) "dropped first tx only" [ 5 ] !dropped;
  Alcotest.(check (list int)) "retx passes" [ 5; 6; 4 ] !passed

let test_drop_list_nth_occurrence () =
  let dropped = ref 0 and passed = ref 0 in
  let next =
    Net.Loss.drop_list
      ~rules:[ { Net.Loss.flow = 0; seq = 9; occurrence = 2 } ]
      ~on_drop:(fun _ -> incr dropped)
      (fun _ -> incr passed)
  in
  next (data 9);
  Alcotest.(check int) "first passes" 1 !passed;
  next (data 9);
  Alcotest.(check int) "second dropped" 1 !dropped;
  next (data 9);
  Alcotest.(check int) "third passes" 2 !passed

let test_drop_list_flow_scoped () =
  let dropped = ref [] in
  let next =
    Net.Loss.drop_list
      ~rules:[ { Net.Loss.flow = 1; seq = 3; occurrence = 1 } ]
      ~on_drop:(fun p -> dropped := p.Net.Packet.flow :: !dropped)
      (fun _ -> ())
  in
  next (data ~flow:0 3);
  next (data ~flow:1 3);
  Alcotest.(check (list int)) "only flow 1" [ 1 ] !dropped

(* Rules of two flows on one sequence number fire independently, and a
   later rule for the same (flow, seq) replaces an earlier one. *)
let test_drop_list_shared_seq () =
  let dropped = ref [] in
  let next =
    Net.Loss.drop_list
      ~rules:
        [
          { Net.Loss.flow = 0; seq = 3; occurrence = 1 };
          { Net.Loss.flow = 1; seq = 3; occurrence = 1 };
          { Net.Loss.flow = 1; seq = 3; occurrence = 2 };
        ]
      ~on_drop:(fun p -> dropped := p.Net.Packet.flow :: !dropped)
      (fun _ -> ())
  in
  List.iter next
    [
      data ~flow:0 3; data ~flow:1 3; data ~flow:1 3; data ~flow:0 3;
      data ~flow:1 3;
    ];
  Alcotest.(check (list int))
    "flow 0 first, flow 1 second pass" [ 1; 0 ] !dropped

let test_drop_list_ignores_acks () =
  let passed = ref 0 in
  let next =
    Net.Loss.drop_list
      ~rules:[ { Net.Loss.flow = 0; seq = 1; occurrence = 1 } ]
      (fun _ -> incr passed)
  in
  next (ack 1);
  Alcotest.(check int) "ack passes" 1 !passed

let suite =
  [
    ( "loss",
      [
        Alcotest.test_case "uniform rate" `Quick test_uniform_rate;
        Alcotest.test_case "uniform edges" `Quick test_uniform_zero_and_one;
        Alcotest.test_case "uniform data-only" `Quick test_uniform_data_only;
        Alcotest.test_case "uniform invalid" `Quick test_uniform_invalid_rate;
        Alcotest.test_case "drop list first tx" `Quick test_drop_list_first_occurrence;
        Alcotest.test_case "drop list nth tx" `Quick test_drop_list_nth_occurrence;
        Alcotest.test_case "drop list flow scope" `Quick test_drop_list_flow_scoped;
        Alcotest.test_case "drop list shared seq" `Quick test_drop_list_shared_seq;
        Alcotest.test_case "drop list ignores acks" `Quick test_drop_list_ignores_acks;
      ] );
  ]
