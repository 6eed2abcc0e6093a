(* Timed and traced runs of each workload, reduced to named metrics.

   A timed run ([trace = false]) repeats the workload's operation until
   the time budget is spent and reports the end-to-end metrics; a traced
   run alternates untraced, span-wrapped and layer-detached operations
   on the same inputs and reports the per-layer metrics. Both check
   every operation's output. *)

open Workloads

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  digest : string option;  (* of the first operation's output *)
  metrics : Report.metric list;
}

let median = Stat.median

let ratio a b = if b = 0.0 then 0.0 else a /. b

let iratio a b = ratio (float_of_int a) (float_of_int b)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Set-up is timed [setup_reps] times and reported as the median. The
   count is fixed, not time-budgeted, so the heap the operations start
   from does not depend on the host's speed. *)
let setup_reps = 201

let timed_setup f =
  let samples =
    List.init setup_reps (fun _ ->
        let t0 = now_s () in
        ignore (Sys.opaque_identity (f ()));
        now_s () -. t0)
  in
  (median samples, f ())

(* Operations until [seconds] have passed, at least one. *)
let repeat ~seconds op =
  let deadline = now_s () +. seconds in
  let rec go acc =
    let acc = op () :: acc in
    if now_s () >= deadline then List.rev acc else go acc
  in
  go []

(* Wall-clock throughput is taken over the [fast_ops] fastest
   operations of the run and calibrated by the run's [slowdown] (see
   [Host]). Within a run, operation times are bimodal — quiet stretches
   and stretches where neighbours contend for the memory system — and
   the median follows the neighbours' load while the fast tail follows
   the program; across runs, the calibration removes what load remains
   (README.md has the measurements). The traced run reports the raw
   distribution. *)
let fast_ops = 3

(* A timed run: [warm_ups] operations after a full collection, then
   operations until [seconds] have passed since the first began. Only
   the latter are timing samples. [peak_heap_mb] is the major-heap
   high-water mark after the warm-ups. The reference kernel runs before
   a timed operation whenever [reference_every] seconds have passed
   since it last ran; [slowdown] is the host's speed relative to
   [Host.nominal_s] (above 1 when slower). *)
type 'a timed_run = { peak_heap_mb : float; slowdown : float; ops : 'a list }

let reference_every = 0.25

let timed ?(warm_ups = 1) ~seconds op =
  let deadline = now_s () +. seconds in
  Gc.compact ();
  for _ = 1 to warm_ups do
    ignore (op ())
  done;
  let peak_heap_mb = peak_heap_mb () in
  let references = ref [] and last = ref neg_infinity in
  let ops =
    repeat ~seconds:(deadline -. now_s ()) (fun () ->
        if now_s () -. !last >= reference_every then begin
          references := Host.reference_s () :: !references;
          last := now_s ()
        end;
        op ())
  in
  {
    peak_heap_mb;
    slowdown = Stat.fastest_mean fast_ops !references /. Host.nominal_s;
    ops;
  }

let finish (ledger : ledger) metrics =
  {
    correct = ledger.failed = 0 && ledger.attempted > 0;
    attempted = ledger.attempted;
    failed = ledger.failed;
    digest = ledger.seen;
    metrics;
  }

let end_to_end ~pkts_per_s ~jobs_per_s ~minor_words_per_pkt ~peak_heap_mb ~setup_s =
  [
    Report.metric "pkts_per_s" "segments/s" pkts_per_s;
    Report.metric "jobs_per_s" "jobs/s" jobs_per_s;
    Report.metric "minor_words_per_pkt" "words" minor_words_per_pkt;
    Report.metric "peak_heap_mb" "MiB" peak_heap_mb;
    Report.metric "setup_s" "s" setup_s;
  ]

let fast_time seconds run =
  Stat.fastest_mean fast_ops (List.map seconds run.ops) /. run.slowdown

(* A simulation run is one job; its segments are the receivers'. Every
   run of a seed repeats the same inputs, so [delivered] is the same for
   all of them. *)
let sim_end_to_end (run : sim_op timed_run) ~setup_s =
  let t = fast_time (fun (op : sim_op) -> op.seconds) run in
  let delivered = float_of_int (List.hd run.ops).delivered in
  end_to_end ~pkts_per_s:(delivered /. t) ~jobs_per_s:(1.0 /. t)
    ~minor_words_per_pkt:
      (median
         (List.map (fun op -> op.minor_words /. float_of_int op.delivered) run.ops))
    ~peak_heap_mb:run.peak_heap_mb ~setup_s

(* The untraced operation times of a traced run: the median, the
   highest standard percentile with at least ten samples beyond it
   ([top_q] says which), and the sample count. *)
let op_time_layers times =
  let s = Stat.summarize times in
  [
    ("bench.op_s.p50", s.Stat.p50);
    ("bench.op_s.top", s.Stat.top);
    ("bench.op_s.top_q", s.Stat.top_q);
    ("bench.op_s.n", float_of_int s.Stat.count);
  ]

let record_sim ledger (op : sim_op) =
  record ledger ~ops:1 ~failed:(if op.violations > 0 then 1 else 0) ~digest:op.digest

(* -- per-layer metrics ----------------------------------------------------- *)

(* Every per-layer metric, in BENCHMARK.json order. A layer a workload
   never reaches reports its neutral value: 0 for counts, times and
   shares, 1 for overhead ratios. *)
let per_layer_units =
  [
    ("sim.pending_peak", "events", 0.0);
    ("sim.schedule_fire_ns", "ns", 0.0);
    ("sim.self_share", "share", 0.0);
    ("net.inject_ns", "ns", 0.0);
    ("net.injects_per_pkt", "count", 0.0);
    ("tcp.sender.ack_ns", "ns", 0.0);
    ("tcp.sender.acks_per_pkt", "count", 0.0);
    ("tcp.flock.ack_ns", "ns", 0.0);
    ("tcp.flock.data_ns", "ns", 0.0);
    ("core.rr.ack_ns", "ns", 0.0);
    ("core.rr.recovery_ack_share", "share", 0.0);
    ("audit.overhead_x", "x", 1.0);
    ("audit.checks_per_pkt", "count", 0.0);
    ("audit.trace.overhead_x", "x", 1.0);
    ("audit.trace.bytes_per_pkt", "count", 0.0);
    ("faults.events_per_pkt", "count", 0.0);
    ("campaign.job_run_s.p50", "s", 0.0);
    ("campaign.job_run_s.p90", "s", 0.0);
    ("campaign.job_run_s.n", "count", 0.0);
    ("campaign.dispatch_share", "share", 0.0);
    ("campaign.cache_store_ms", "ms", 0.0);
    ("campaign.cache_find_ms", "ms", 0.0);
    ("campaign.warm_rerun_s", "s", 0.0);
    ("campaign.supervisor_minor_words_per_job", "words", 0.0);
    ("experiments.build_s", "s", 0.0);
    ("bench.trace_overhead_x", "x", 1.0);
    ("bench.op_s.p50", "s", 0.0);
    ("bench.op_s.top", "s", 0.0);
    ("bench.op_s.top_q", "quantile", 0.0);
    ("bench.op_s.n", "count", 0.0);
  ]

let per_layer values =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (n, _, _) -> n = name) per_layer_units) then
        invalid_arg ("Bench.per_layer: unknown metric " ^ name))
    values;
  List.map
    (fun (name, unit_, neutral) ->
      Report.metric name unit_
        (Option.value (List.assoc_opt name values) ~default:neutral))
    per_layer_units

let write_spans tr ~workload =
  let path = Filename.concat work_dir ("spans-" ^ workload ^ ".tsv") in
  let oc = open_out path in
  Spans.write tr.spans oc;
  close_out oc

(* Counters summed over the traced operations of a run. *)
type traced_sums = {
  mutable totals : Spans.totals;
  mutable delivered : int;
  mutable unwrapped : int;
  mutable checks : int;
  mutable faults : int;
  mutable trace_bytes : int;
  mutable build : float list;
}

let sums tr =
  {
    totals = Spans.empty_totals tr.spans;
    delivered = 0;
    unwrapped = 0;
    checks = 0;
    faults = 0;
    trace_bytes = 0;
    build = [];
  }

let add_traced s tr (op : sim_op) =
  s.totals <- Spans.add_totals s.totals (Spans.totals tr.spans);
  s.delivered <- s.delivered + op.delivered;
  s.unwrapped <- s.unwrapped + op.unwrapped_injects;
  s.checks <- s.checks + op.checks;
  s.faults <- s.faults + op.fault_events;
  s.trace_bytes <- s.trace_bytes + op.trace_bytes;
  s.build <- (float_of_int (tr.first_event - tr.build_start) *. 1e-9) :: s.build

let self_ns_per_call (t : Spans.totals) ids =
  let sum f = List.fold_left (fun acc i -> acc + f i) 0 ids in
  iratio (sum (fun i -> t.self_ns.(i))) (sum (fun i -> t.calls.(i)))

(* The simulation-layer metrics shared by every Scenario and many-flow
   run: spans, deterministic counts and the hold-model timing at the
   observed pending population. *)
let sim_layers tr s ~seed ~untraced ~traced =
  let t = s.totals in
  let acks = t.calls.(tr.sender_ack) + t.calls.(tr.rr_ack) in
  let population = tr.pending_peak in
  [
    ("sim.pending_peak", float_of_int population);
    ( "sim.schedule_fire_ns",
      hold_ns ~population ~events:(max 500_000 (10 * population)) ~seed );
    ("sim.self_share", iratio t.self_ns.(tr.root) t.total_ns.(tr.root));
    ("net.inject_ns", self_ns_per_call t [ tr.inject ]);
    ("net.injects_per_pkt", iratio (t.calls.(tr.inject) + s.unwrapped) s.delivered);
    ("tcp.sender.ack_ns", self_ns_per_call t [ tr.sender_ack; tr.rr_ack ]);
    ("tcp.sender.acks_per_pkt", iratio acks s.delivered);
    ("tcp.flock.ack_ns", self_ns_per_call t [ tr.flock_ack ]);
    ("tcp.flock.data_ns", self_ns_per_call t [ tr.flock_data ]);
    ("core.rr.ack_ns", self_ns_per_call t [ tr.rr_ack ]);
    ("core.rr.recovery_ack_share", iratio tr.rr_recovery_acks tr.rr_acks);
    ("audit.checks_per_pkt", iratio s.checks s.delivered);
    ("audit.trace.bytes_per_pkt", iratio s.trace_bytes s.delivered);
    ("faults.events_per_pkt", iratio s.faults s.delivered);
    ("experiments.build_s", median s.build);
    ("bench.trace_overhead_x", ratio (median traced) (median untraced));
  ]
  @ op_time_layers untraced

let seconds_of ops = List.map (fun (op : sim_op) -> op.seconds) ops

(* -- paper-dumbbell and hostile-traced ------------------------------------ *)

let dumbbell ~size ~workload ~seed ~seconds ~trace =
  let hostile = workload = "hostile-traced" in
  let mode = { hostile; audit = true; trace_file = true } in
  let ledger = ledger ~size ~workload ~seed in
  let setup_s, inputs =
    timed_setup (fun () ->
        let inputs = dumbbell_inputs size ~seed in
        ignore (dumbbell_spec mode inputs);
        inputs)
  in
  let run mode =
    let op = dumbbell_op mode inputs in
    record_sim ledger op;
    op
  in
  if not trace then begin
    finish ledger (sim_end_to_end (timed ~seconds (fun () -> run mode)) ~setup_s)
  end
  else begin
    let tr = tracer () in
    let s = sums tr in
    let cycle () =
      let untraced = run mode in
      let traced = traced_dumbbell_op tr mode inputs in
      record_sim ledger traced;
      add_traced s tr traced;
      let unaudited = run { mode with audit = false } in
      let untraced_file = if hostile then Some (run { mode with trace_file = false }) else None in
      (untraced, traced, unaudited, untraced_file)
    in
    let cycles = repeat ~seconds cycle in
    let untraced = seconds_of (List.map (fun (u, _, _, _) -> u) cycles) in
    let traced = seconds_of (List.map (fun (_, t, _, _) -> t) cycles) in
    let unaudited = seconds_of (List.map (fun (_, _, a, _) -> a) cycles) in
    let trace_overhead =
      if hostile then
        [
          ( "audit.trace.overhead_x",
            ratio (median untraced)
              (median
                 (seconds_of (List.filter_map (fun (_, _, _, n) -> n) cycles))) );
        ]
      else []
    in
    write_spans tr ~workload;
    finish ledger
      (per_layer
         ((("audit.overhead_x", ratio (median untraced) (median unaudited))
          :: trace_overhead)
         @ sim_layers tr s ~seed ~untraced ~traced))
  end

(* -- manyflow-50k --------------------------------------------------------- *)

let manyflow ~size ~seed ~seconds ~trace =
  let workload = "manyflow-50k" in
  let ledger = ledger ~size ~workload ~seed in
  let setup_s, inputs = timed_setup (fun () -> manyflow_inputs size ~seed) in
  let run () =
    let op = manyflow_op inputs in
    record_sim ledger op;
    op
  in
  if not trace then begin
    finish ledger (sim_end_to_end (timed ~seconds run) ~setup_s)
  end
  else begin
    let tr = tracer () in
    let s = sums tr in
    let cycle () =
      let untraced = run () in
      let traced = traced_manyflow_op tr inputs in
      record_sim ledger traced;
      add_traced s tr traced;
      (untraced, traced)
    in
    let cycles = repeat ~seconds cycle in
    write_spans tr ~workload;
    finish ledger
      (per_layer
         (sim_layers tr s ~seed
            ~untraced:(seconds_of (List.map fst cycles))
            ~traced:(seconds_of (List.map snd cycles))))
  end

(* -- seed-sweep ------------------------------------------------------------- *)

let sweep ~size ~seed ~seconds ~trace =
  let workload = "seed-sweep" in
  let ledger = ledger ~size ~workload ~seed in
  let workers = sweep_workers () in
  (* The cache directory is prepared before every cold sweep, outside
     the timed set-up: its file-system latency moved by 40% between
     batches of runs on the same host. *)
  let setup_s, grid =
    timed_setup (fun () ->
        let grid = sweep_grid size ~seed in
        ignore (Campaign.Sweep.jobs_of_grid grid);
        grid)
  in
  let run () =
    let op = sweep_op ~workers grid in
    record ledger ~ops:(2 * op.jobs) ~failed:(op.cold_failed + op.warm_failed)
      ~digest:op.sweep_digest;
    op
  in
  if not trace then begin
    (* The supervisor's heap after one sweep depends on how often it
       polled its workers; after three it has settled. *)
    let sweeps = timed ~warm_ups:3 ~seconds run in
    let t = fast_time (fun op -> op.cold_s) sweeps in
    let first = List.hd sweeps.ops in
    finish ledger
      (end_to_end
         ~pkts_per_s:(float_of_int first.segments /. t)
         ~jobs_per_s:(float_of_int first.jobs /. t)
         ~minor_words_per_pkt:
           (median
              (List.map (fun op -> op.cold_words /. float_of_int op.segments) sweeps.ops))
         ~peak_heap_mb:sweeps.peak_heap_mb ~setup_s)
  end
  else begin
    let tr = tracer () in
    let spans = tr.spans in
    Spans.clear spans;
    let jobs = Campaign.Sweep.jobs_of_grid grid in
    let untraced_s = ref 0.0 and traced_s = ref 0.0 in
    (* Every job serially, untraced and then span-wrapped, its result
       stored into a fresh cache and read back. *)
    let serial () =
      let cache = fresh_cache "trace-cache" in
      let results =
        List.map
          (fun job ->
            let t0 = now_s () in
            let plain = Campaign.Job.run job in
            let t1 = now_s () in
            Spans.enter spans ~name:tr.job_run ~flow:(-1) ~uid:(-1);
            let result = Campaign.Job.run job in
            Spans.leave spans;
            let t2 = now_s () in
            untraced_s := !untraced_s +. (t1 -. t0);
            traced_s := !traced_s +. (t2 -. t1);
            let same = results_string [ plain ] = results_string [ result ] in
            Spans.enter spans ~name:tr.cache_store ~flow:(-1) ~uid:(-1);
            Campaign.Cache.store cache result;
            Spans.leave spans;
            (result, same))
          jobs
      in
      let found =
        List.map
          (fun job ->
            Spans.enter spans ~name:tr.cache_find ~flow:(-1) ~uid:(-1);
            let r = Campaign.Cache.find cache job in
            Spans.leave spans;
            r)
          jobs
      in
      let results_only = List.map fst results in
      let failed =
        List.length
          (List.filter
             (fun (r, same) -> (not same) || r.Campaign.Job.audit_violations > 0)
             results)
      in
      let found_ok =
        List.for_all Option.is_some found
        && results_string (List.filter_map Fun.id found) = results_string results_only
      in
      record ledger ~ops:(List.length jobs)
        ~failed:(if found_ok then failed else List.length jobs)
        ~digest:(md5 (results_string results_only))
    in
    let pass () =
      serial ();
      run ()
    in
    let ops = repeat ~seconds pass in
    let job_s = List.map (fun ns -> float_of_int ns *. 1e-9) (Spans.durations spans ~name:tr.job_run) in
    let ms name = List.map (fun ns -> float_of_int ns *. 1e-6) (Spans.durations spans ~name) in
    let serial_per_pass = !untraced_s /. float_of_int (List.length ops) in
    write_spans tr ~workload;
    finish ledger
      (per_layer
         ([
           ("campaign.job_run_s.p50", median job_s);
           ("campaign.job_run_s.p90", Stat.quantile job_s 0.9);
           ("campaign.job_run_s.n", float_of_int (List.length job_s));
           ( "campaign.dispatch_share",
             median
               (List.map
                  (fun op -> 1.0 -. (serial_per_pass /. (op.cold_s *. float_of_int workers)))
                  ops) );
           ("campaign.cache_store_ms", median (ms tr.cache_store));
           ("campaign.cache_find_ms", median (ms tr.cache_find));
           ("campaign.warm_rerun_s", median (List.map (fun op -> op.warm_s) ops));
           ( "campaign.supervisor_minor_words_per_job",
             median (List.map (fun op -> op.cold_words /. float_of_int op.jobs) ops) );
           ("bench.trace_overhead_x", ratio !traced_s !untraced_s);
         ]
         @ op_time_layers (List.map (fun op -> op.cold_s) ops)))
  end

let run ~size ~workload ~seed ~seconds ~trace =
  ensure_work_dir ();
  match workload with
  | "paper-dumbbell" | "hostile-traced" -> dumbbell ~size ~workload ~seed ~seconds ~trace
  | "manyflow-50k" -> manyflow ~size ~seed ~seconds ~trace
  | "seed-sweep" -> sweep ~size ~seed ~seconds ~trace
  | other -> invalid_arg ("unknown workload " ^ other)
