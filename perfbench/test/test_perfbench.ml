(* The benchmark's own arithmetic — span self time, order statistics,
   the metric-name charset — and a tiny-size smoke run of every
   workload in both modes. *)

open Perfbench

let self_time_cases () =
  let self children = Spans.self_time ~start:0 ~stop:100 children in
  Alcotest.(check int) "no children" 100 (self []);
  Alcotest.(check int) "nested, disjoint" 70 (self [ (10, 20); (50, 70) ]);
  Alcotest.(check int) "overlapping counted once" 60 (self [ (10, 30); (20, 50) ]);
  Alcotest.(check int) "contained child" 70 (self [ (10, 40); (15, 25) ]);
  Alcotest.(check int) "clipped at the parent" 80 (self [ (-20, 10); (90, 130) ]);
  Alcotest.(check int) "outside entirely" 100 (self [ (100, 120); (-5, 0) ]);
  Alcotest.(check int) "covering child" 0 (self [ (-1, 101) ])

(* Totals over a recorded tree whose times are then set by hand:
   root [0, 100] with children a [10, 40] and b [30, 60], and a
   grandchild c [12, 20] under a. *)
let totals_case () =
  let spans = Spans.create [ "root"; "a"; "b"; "c" ] in
  let id = Spans.id spans in
  Spans.enter spans ~name:(id "root") ~flow:0 ~uid:0;
  Spans.enter spans ~name:(id "a") ~flow:0 ~uid:1;
  Spans.enter spans ~name:(id "c") ~flow:0 ~uid:2;
  Spans.leave spans;
  Spans.leave spans;
  Spans.enter spans ~name:(id "b") ~flow:1 ~uid:3;
  Spans.leave spans;
  Spans.leave spans;
  Alcotest.(check (array int)) "parents" [| -1; 0; 1; 0 |]
    (Array.sub spans.Spans.parent 0 4);
  List.iteri
    (fun i (a, b) ->
      spans.Spans.start.(i) <- a;
      spans.Spans.stop.(i) <- b)
    [ (0, 100); (10, 40); (12, 20); (30, 60) ];
  let t = Spans.totals spans in
  Alcotest.(check (array int)) "calls" [| 1; 1; 1; 1 |] t.Spans.calls;
  Alcotest.(check (array int)) "total" [| 100; 30; 30; 8 |] t.Spans.total_ns;
  Alcotest.(check (array int)) "self" [| 50; 22; 30; 8 |] t.Spans.self_ns;
  Alcotest.(check (list int)) "durations of a" [ 30 ] (Spans.durations spans ~name:(id "a"))

let feq = Alcotest.float 1e-9

let median_cases () =
  Alcotest.check feq "odd" 3.0 (Stat.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check feq "even" 2.5 (Stat.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check feq "single" 7.0 (Stat.median [ 7.0 ]);
  Alcotest.check feq "q90 interpolates" 9.1
    (Stat.quantile (List.init 11 float_of_int) 0.91);
  Alcotest.check feq "fastest three" (7.0 /. 3.0)
    (Stat.fastest_mean 3 [ 5.0; 1.0; 4.0; 2.0 ]);
  Alcotest.check feq "fastest of fewer" 3.0 (Stat.fastest_mean 3 [ 4.0; 2.0 ])

let top_percentile_cases () =
  let summary n = Stat.summarize (List.init n float_of_int) in
  let check n ~q ~value =
    let s = summary n in
    Alcotest.(check int) (Printf.sprintf "count %d" n) n s.Stat.count;
    Alcotest.check feq (Printf.sprintf "top q at %d" n) q s.Stat.top_q;
    Alcotest.check feq (Printf.sprintf "top value at %d" n) value s.Stat.top
  in
  (* fewer than ten samples beyond p90: the median is the top *)
  check 50 ~q:0.5 ~value:24.5;
  (* exactly ten beyond p90 *)
  check 100 ~q:0.9 ~value:89.1;
  check 500 ~q:0.9 ~value:449.1;
  check 999 ~q:0.99 ~value:988.02;
  check 1000 ~q:0.99 ~value:989.01;
  Alcotest.check feq "median of 100" 49.5 (summary 100).Stat.p50

let charset_cases () =
  List.iter
    (fun name -> Alcotest.(check bool) name true (Report.valid_name name))
    [ "pkts_per_s"; "campaign.job_run_s.p90"; "sim.self_share"; "9lives"; "a-b" ];
  List.iter
    (fun name -> Alcotest.(check bool) ("rejects " ^ name) false (Report.valid_name name))
    [ ""; ".hidden"; "_x"; "has space"; "slash/name"; String.make 65 'a' ];
  List.iter
    (fun u -> Alcotest.(check bool) u true (Report.valid_unit u))
    [ "ms"; "s"; "1/s"; "segments/s"; "%"; "count"; "MiB" ];
  List.iter
    (fun u -> Alcotest.(check bool) ("rejects unit " ^ u) false (Report.valid_unit u))
    [ ""; "m s"; String.make 17 'x' ];
  Alcotest.check_raises "bad name raises"
    (Invalid_argument "Report.metric: bad name bad name") (fun () ->
      ignore (Report.metric "bad name" "s" 1.0));
  Alcotest.(check string) "json line"
    {|{"correct": true, "attempted": 3, "failed": 0, "metrics": {"x": {"value": 1.5, "unit": "s"}}}|}
    (Report.to_json ~correct:true ~attempted:3 ~failed:0 [ Report.metric "x" "s" 1.5 ])

let end_to_end_names =
  [ "pkts_per_s"; "jobs_per_s"; "minor_words_per_pkt"; "peak_heap_mb"; "setup_s" ]

let smoke workload ~trace () =
  let r =
    Bench.run ~size:Workloads.tiny ~workload ~seed:Workloads.default_seed
      ~seconds:0.1 ~trace
  in
  Alcotest.(check bool) "correct" true r.Bench.correct;
  Alcotest.(check int) "failed" 0 r.Bench.failed;
  Alcotest.(check bool) "attempted" true (r.Bench.attempted >= 2);
  let names = List.map (fun (m : Report.metric) -> m.name) r.Bench.metrics in
  let expected =
    if trace then List.map (fun (n, _, _) -> n) Bench.per_layer_units
    else end_to_end_names
  in
  Alcotest.(check (list string)) "metric names" expected names;
  if not trace then
    List.iter
      (fun (m : Report.metric) ->
        Alcotest.(check bool) (m.name ^ " > 0") true (m.value > 0.0))
      r.Bench.metrics

let () =
  Alcotest.run "perfbench"
    [
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick self_time_cases;
          Alcotest.test_case "totals over a tree" `Quick totals_case;
        ] );
      ( "stat",
        [
          Alcotest.test_case "median" `Quick median_cases;
          Alcotest.test_case "top percentile" `Quick top_percentile_cases;
        ] );
      ("report", [ Alcotest.test_case "metric charset" `Quick charset_cases ]);
      ( "smoke",
        List.concat_map
          (fun w ->
            [
              Alcotest.test_case (w ^ " timed") `Quick (smoke w ~trace:false);
              Alcotest.test_case (w ^ " traced") `Quick (smoke w ~trace:true);
            ])
          Workloads.names );
    ]
