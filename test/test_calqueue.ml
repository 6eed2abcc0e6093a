(* Calendar-queue tests, driven through the engine that owns the queue:
   the ordering contract (min first, FIFO ties, a drained engine reused
   like a fresh one) plus resize/width-adaptation stress and a
   randomized check against the generic [Heap] as reference model,
   push for push and pop for pop. *)

let check = Alcotest.(check int)

(* Schedule [(time, value)] pairs, run the engine dry and return what
   fired, in firing order, as [(time, value)]. *)
let fire_all ?(engine = Sim.Engine.create ()) events =
  let fired = ref [] in
  List.iter
    (fun (time, value) ->
      Sim.Engine.schedule_unit_at engine ~time (fun () ->
          fired := (Sim.Engine.now engine, value) :: !fired))
    events;
  Sim.Engine.run engine;
  List.rev !fired

let test_empty () =
  let engine = Sim.Engine.create () in
  check "pending" 0 (Sim.Engine.pending engine);
  Sim.Engine.run engine;
  Alcotest.(check (float 0.0)) "clock untouched" 0.0 (Sim.Engine.now engine)

let test_ordering () =
  let order =
    List.map snd
      (fire_all
         (List.map
            (fun time -> (time, int_of_float time))
            [ 5.0; 1.0; 4.0; 2.0; 3.0 ]))
  in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] order

let test_stability () =
  Alcotest.(check (list int))
    "fifo on ties" [ 10; 20; 30; 40 ]
    (List.map snd (fire_all (List.map (fun v -> (1.0, v)) [ 10; 20; 30; 40 ])))

let test_mixed_stability () =
  Alcotest.(check (list int))
    "ties stay fifo among equals" [ 2; 4; 1; 3 ]
    (List.map snd (fire_all [ (2.0, 1); (1.0, 2); (2.0, 3); (1.0, 4) ]))

(* Looking at the minimum without taking it: [run_until] short of the
   earliest event must leave it queued. *)
let test_peek_does_not_remove () =
  let engine = Sim.Engine.create () in
  let fired = ref false in
  Sim.Engine.schedule_unit_at engine ~time:1.0 (fun () -> fired := true);
  Sim.Engine.run_until engine ~time:0.5;
  Alcotest.(check bool) "not fired" false !fired;
  check "still there" 1 (Sim.Engine.pending engine);
  Sim.Engine.run engine;
  Alcotest.(check bool) "fires later" true !fired

let test_clear_resets_tie_state () =
  (* Running dry is the engine's clear: a drained engine must order
     ties exactly like a fresh one. *)
  let reused = Sim.Engine.create () in
  ignore (fire_all ~engine:reused [ (3.0, 1); (3.0, 2); (3.0, 3) ]);
  check "drained" 0 (Sim.Engine.pending reused);
  let events = [ (4.0, 10); (4.0, 20); (3.5, 30) ] in
  Alcotest.(check (list (pair (float 1e-9) int)))
    "same as fresh" (fire_all events)
    (fire_all ~engine:reused events)

(* Schedule enough to force several grow resizes (and width
   re-estimation), then drain through the shrink path. *)
let test_resize_stress () =
  let engine = Sim.Engine.create () in
  let n = 2000 in
  let fired = ref [] in
  List.iter
    (fun time ->
      Sim.Engine.schedule_unit_at engine ~time (fun () ->
          fired := Sim.Engine.now engine :: !fired))
    (List.init n (fun i -> float_of_int ((i * 7919) mod n) /. 100.0));
  check "all stored" n (Sim.Engine.pending engine);
  Sim.Engine.run engine;
  let out = List.rev !fired in
  check "all fired" n (List.length out);
  Alcotest.(check bool) "sorted drain" true (out = List.sort compare out);
  check "drained" 0 (Sim.Engine.pending engine)

(* A dense cluster plus far-future outliers exercises the direct-search
   fallback (a full calendar round finds no event in the current year). *)
let test_sparse_far_future () =
  let out =
    fire_all
      ([ (1e6, 1); (2e6, 2) ]
      @ List.init 64 (fun i -> (float_of_int i *. 0.001, 100 + i)))
  in
  Alcotest.(check int) "count" 66 (List.length out);
  let times = List.map fst out in
  Alcotest.(check bool) "sorted" true (times = List.sort compare times);
  Alcotest.(check (list int))
    "outliers last" [ 1; 2 ]
    (List.filteri (fun i _ -> i >= 64) (List.map snd out))

(* Oracle property: an arbitrary interleaving of pushes and pops gives
   exactly the Heap's answers, ties included (offsets quantized to force
   plenty of collisions). A push is an event [k/8] s past the current
   clock; a pop is a [run] that the popped event itself stops. *)
let prop_matches_heap =
  QCheck2.Test.make ~name:"calqueue matches heap on random workloads" ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 400)
        (oneof
           [
             map (fun k -> `Push (float_of_int k /. 8.0)) (int_range 0 200);
             return `Pop;
           ]))
    (fun ops ->
      let heap = Sim.Heap.create () in
      let engine = Sim.Engine.create () in
      let popped = ref None in
      let pop_engine () =
        popped := None;
        Sim.Engine.run engine;
        !popped
      in
      let i = ref 0 in
      let heap_now = ref 0.0 in
      let pop_heap () =
        let entry = Sim.Heap.pop heap in
        Option.iter (fun (time, _) -> heap_now := time) entry;
        entry
      in
      List.for_all
        (fun op ->
          match op with
          | `Push delay ->
            let id = !i in
            Sim.Heap.push heap ~priority:(!heap_now +. delay) id;
            Sim.Engine.schedule_unit engine ~delay (fun () ->
                popped := Some (Sim.Engine.now engine, id);
                Sim.Engine.stop engine);
            incr i;
            Sim.Heap.length heap = Sim.Engine.pending engine
          | `Pop -> pop_heap () = pop_engine ())
        ops
      &&
      let rec drain () =
        match (pop_heap (), pop_engine ()) with
        | None, None -> true
        | a, b -> a = b && drain ()
      in
      drain ())

let suite =
  [
    ( "calqueue",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "ordering" `Quick test_ordering;
        Alcotest.test_case "stability" `Quick test_stability;
        Alcotest.test_case "mixed stability" `Quick test_mixed_stability;
        Alcotest.test_case "peek" `Quick test_peek_does_not_remove;
        Alcotest.test_case "clear resets tie state" `Quick
          test_clear_resets_tie_state;
        Alcotest.test_case "resize stress" `Quick test_resize_stress;
        Alcotest.test_case "sparse far future" `Quick test_sparse_far_future;
        QCheck_alcotest.to_alcotest prop_matches_heap;
      ] );
  ]
