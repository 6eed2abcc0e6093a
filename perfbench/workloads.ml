(* The four workloads: inputs generated from the benchmark's seed, the
   operations the timed runs repeat, and the span-wrapped variants the
   traced run uses. The simulator only ever receives finished
   [Scenario]/[Many_flow]/[Sweep] inputs. *)

module Scenario = Experiments.Scenario

let names = [ "paper-dumbbell"; "manyflow-50k"; "seed-sweep"; "hostile-traced" ]

let default_seed = 7

let held_out_seed = 42

(* Scale knobs. [full] is the benchmark; [tiny] is the smoke-test size. *)
type size = {
  dumbbell_duration : float;  (* simulated seconds, paper-dumbbell and hostile *)
  manyflow_flows : int;
  manyflow_duration : float;
  sweep_seed_count : int;
  sweep_duration : float;
}

let full =
  {
    dumbbell_duration = 150.0;
    manyflow_flows = 50_000;
    manyflow_duration = 5.0;
    sweep_seed_count = 3;
    sweep_duration = 150.0;
  }

let tiny =
  {
    dumbbell_duration = 20.0;
    manyflow_flows = 200;
    manyflow_duration = 2.0;
    sweep_seed_count = 1;
    sweep_duration = 10.0;
  }

(* md5 of each workload's simulated statistics at the full size, for
   the default and the held-out seed. Any other seed is checked for
   run-to-run agreement only. *)
let pinned =
  [
    (("paper-dumbbell", default_seed), "b5c37ceba52a0e78402b25a89170f358");
    (("paper-dumbbell", held_out_seed), "fab0e3551f1dc421929c367659db59f5");
    (("manyflow-50k", default_seed), "b93070554ba06e026d9fd0beee8a6e77");
    (("manyflow-50k", held_out_seed), "b0d2cd59ad3c6aa0cd586ac7fde62ccf");
    (("seed-sweep", default_seed), "d0220afb949228a701ea8a6136bbfbc3");
    (("seed-sweep", held_out_seed), "490dba5ec5d9bc6564a0809197e266d1");
    (("hostile-traced", default_seed), "87f2e48b43cf7d92b1b5a0f99bd39b24");
    (("hostile-traced", held_out_seed), "cb2881d673d4e984d835917fee148524");
  ]

let work_dir = "_perfbench"

let now_s () = float_of_int (Spans.now_ns ()) *. 1e-9

let md5 s = Digest.to_hex (Digest.string s)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755

(* -- correctness ledger ------------------------------------------------ *)

(* Operations attempted and failed. An operation fails when the run
   reports an auditor violation, a job is quarantined or skipped, or its
   digest differs from the pinned one (or, unpinned, from the first
   digest this process saw). *)
type ledger = {
  expected : string option;
  mutable seen : string option;
  mutable attempted : int;
  mutable failed : int;
}

let ledger ~size ~workload ~seed =
  let expected =
    if size == full then List.assoc_opt (workload, seed) pinned else None
  in
  { expected; seen = None; attempted = 0; failed = 0 }

let digest_ok l digest =
  if l.seen = None then l.seen <- Some digest;
  digest = Option.value l.expected ~default:(Option.get l.seen)

(* [record l ~ops ~failed ~digest]: [ops] operations whose common
   simulated-statistics digest is [digest], [failed] of them failed on
   their own account; a digest mismatch fails all of them. *)
let record l ~ops ~failed ~digest =
  l.attempted <- l.attempted + ops;
  l.failed <- l.failed + if digest_ok l digest then failed else ops

(* -- paper-dumbbell and hostile-traced --------------------------------- *)

let dumbbell_variants =
  Core.Variant.[ Rr; Rr; Newreno; Newreno; Sack; Sack; Reno; Relentless ]

let dumbbell_loss = 0.01

let hostile_faults = "handover:5+0.4,reorder:0.02,jitter:0.005,reverse"

let hostile_audit_sample = 16

type dumbbell_inputs = {
  starts : float array;  (* per-flow start, staggered over [0, 2) s *)
  sim_seed : int64;
  duration : float;
}

let dumbbell_inputs size ~seed =
  let st = Random.State.make [| seed; 1 |] in
  let starts =
    Array.init (List.length dumbbell_variants) (fun _ ->
        Random.State.float st 2.0)
  in
  {
    starts;
    sim_seed = Int64.of_int (Random.State.bits st);
    duration = size.dumbbell_duration;
  }

let parse_faults s =
  match Faults.Spec.of_string s with
  | Ok spec -> spec
  | Error e -> invalid_arg ("perfbench: bad fault spec: " ^ e)

(* How one dumbbell run is configured beyond its inputs. *)
type dumbbell_mode = {
  hostile : bool;
  audit : bool;  (* false: auditor detached ([audit_sample = 0]) *)
  trace_file : bool;  (* hostile only: write the binary trace *)
}

let trace_path = Filename.concat work_dir "hostile.trace"

let dumbbell_spec ?make ?trace_out mode inputs =
  let flows =
    List.mapi
      (fun i variant ->
        let flow = Scenario.flow ~start:inputs.starts.(i) variant in
        match make with
        | None -> flow
        | Some make -> { flow with Scenario.make = make variant })
      dumbbell_variants
  in
  let faults = if mode.hostile then parse_faults hostile_faults else Faults.Spec.none in
  let audit_sample =
    if not mode.audit then 0 else if mode.hostile then hostile_audit_sample else 1
  in
  Scenario.make
    ~topology:
      (Scenario.dumbbell
         (Net.Dumbbell.paper_config ~flows:(List.length dumbbell_variants)))
    ~flows ~seed:inputs.sim_seed ~duration:inputs.duration
    ~uniform_loss:dumbbell_loss ?trace_out ~trace_format:`Binary ~faults
    ~audit_sample ()

type sim_op = {
  seconds : float;  (* host time of the run *)
  minor_words : float;  (* allocated during the run *)
  delivered : int;  (* distinct data segments received *)
  digest : string;
  violations : int;
  checks : int;  (* auditor invariant evaluations *)
  unwrapped_injects : int;
      (* packets put on the network outside the net.inject wrapper: the
         receivers' ACKs in a Scenario run *)
  fault_events : int;  (* sum of the injector's counters *)
  trace_bytes : int;
}

let scenario_digest (t : Scenario.t) =
  let b = Buffer.create 512 in
  Array.iteri
    (fun flow (r : Scenario.flow_result) ->
      let c = r.agent.Tcp.Agent.base.Tcp.Sender_common.counters in
      Printf.bprintf b "%d %s delivered=%d retransmits=%d timeouts=%d drops=%d\n"
        flow r.spec.Scenario.label
        (Tcp.Receiver.segments_received r.receiver)
        c.Tcp.Counters.retransmits c.Tcp.Counters.timeouts
        (Scenario.drops t ~flow))
    t.results;
  md5 (Buffer.contents b)

let fault_events = function
  | None -> 0
  | Some inj ->
    Faults.Injector.(
      downs inj + fault_drops inj + reordered inj + jittered inj
      + rate_changes inj + delay_changes inj)

let sum_results f (t : Scenario.t) =
  Array.fold_left (fun acc r -> acc + f r) 0 t.results

(* Runs [spec]; [after_run] is called the moment [Scenario.run]
   returns, inside the timed interval. *)
let run_scenario ?(after_run = ignore) ~trace_out spec =
  let w0 = Gc.minor_words () in
  let t0 = now_s () in
  let t = Scenario.run spec in
  after_run ();
  let seconds = now_s () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  let trace_bytes =
    match trace_out with
    | Some oc ->
      let n = pos_out oc in
      close_out oc;
      n
    | None -> 0
  in
  {
    seconds;
    minor_words;
    delivered =
      sum_results (fun r -> Tcp.Receiver.segments_received r.Scenario.receiver) t;
    digest = scenario_digest t;
    violations = Audit.Auditor.violation_count t.auditor;
    checks = Audit.Auditor.checks_run t.auditor;
    unwrapped_injects =
      sum_results (fun r -> Tcp.Receiver.acks_sent r.Scenario.receiver) t;
    fault_events = fault_events t.injector;
    trace_bytes;
  }

let open_trace mode =
  if mode.hostile && mode.trace_file then Some (open_out_bin trace_path) else None

let dumbbell_op mode inputs =
  let trace_out = open_trace mode in
  run_scenario ~trace_out (dumbbell_spec ?trace_out mode inputs)

(* -- the span tracer ---------------------------------------------------- *)

let span_names =
  [
    "sim.run";
    "net.inject";
    "tcp.sender.ack";
    "core.rr.ack";
    "tcp.flock.ack";
    "tcp.flock.data";
    "campaign.job.run";
    "campaign.cache.store";
    "campaign.cache.find";
  ]

type tracer = {
  spans : Spans.t;
  root : int;
  inject : int;
  sender_ack : int;
  rr_ack : int;
  flock_ack : int;
  flock_data : int;
  job_run : int;
  cache_store : int;
  cache_find : int;
  mutable armed : bool;
  mutable build_start : int;  (* ns *)
  mutable first_event : int;  (* ns *)
  mutable pending_peak : int;
  mutable rr_acks : int;
  mutable rr_recovery_acks : int;
}

let tracer () =
  let spans = Spans.create span_names in
  let id = Spans.id spans in
  {
    spans;
    root = id "sim.run";
    inject = id "net.inject";
    sender_ack = id "tcp.sender.ack";
    rr_ack = id "core.rr.ack";
    flock_ack = id "tcp.flock.ack";
    flock_data = id "tcp.flock.data";
    job_run = id "campaign.job.run";
    cache_store = id "campaign.cache.store";
    cache_find = id "campaign.cache.find";
    armed = false;
    build_start = 0;
    first_event = 0;
    pending_peak = 0;
    rr_acks = 0;
    rr_recovery_acks = 0;
  }

let start_op tr =
  Spans.clear tr.spans;
  tr.armed <- false;
  tr.build_start <- Spans.now_ns ();
  tr.first_event <- tr.build_start

(* On the first engine a traced run builds: a t = 0 event that marks
   the first fired event and opens the root span, and a sampler of
   [Engine.pending] once per simulated second. Neither touches
   simulated state, so the run's digest is unchanged. *)
let arm tr engine ~duration =
  if not tr.armed then begin
    tr.armed <- true;
    Sim.Engine.schedule_unit engine ~delay:0.0 (fun () ->
        tr.first_event <- Spans.now_ns ();
        Spans.enter tr.spans ~name:tr.root ~flow:(-1) ~uid:(-1));
    let rec sample () =
      tr.pending_peak <- max tr.pending_peak (Sim.Engine.pending engine);
      if Sim.Engine.now engine +. 1.0 <= duration then
        Sim.Engine.schedule_unit engine ~delay:1.0 sample
    in
    Sim.Engine.schedule_unit engine ~delay:1.0 sample
  end

(* Closes the root span if the run fired any event. *)
let close_root tr = if Spans.length tr.spans > 0 then Spans.leave tr.spans

(* A Scenario agent maker that records [emit] (net.inject) and
   [deliver_ack] (tcp.sender.ack, or core.rr.ack for RR senders). *)
let traced_maker tr ~duration variant : Scenario.agent_maker =
 fun ~engine ~params ~flow ~emit () ->
  arm tr engine ~duration;
  let spans = tr.spans in
  let emit packet =
    Spans.enter spans ~name:tr.inject ~flow ~uid:packet.Net.Packet.uid;
    emit packet;
    Spans.leave spans
  in
  let agent, rr =
    Core.Variant.create_inspected variant ~engine ~params ~flow ~emit ()
  in
  let deliver = agent.Tcp.Agent.deliver_ack in
  let deliver_ack =
    match rr with
    | None ->
      fun packet ->
        Spans.enter spans ~name:tr.sender_ack ~flow ~uid:packet.Net.Packet.uid;
        deliver packet;
        Spans.leave spans
    | Some handle ->
      fun packet ->
        tr.rr_acks <- tr.rr_acks + 1;
        if Core.Rr.inspect handle <> None then
          tr.rr_recovery_acks <- tr.rr_recovery_acks + 1;
        Spans.enter spans ~name:tr.rr_ack ~flow ~uid:packet.Net.Packet.uid;
        deliver packet;
        Spans.leave spans
  in
  Scenario.build ?rr { agent with Tcp.Agent.deliver_ack }

let traced_dumbbell_op tr mode inputs =
  start_op tr;
  let trace_out = open_trace mode in
  let spec =
    dumbbell_spec ~make:(traced_maker tr ~duration:inputs.duration) ?trace_out
      mode inputs
  in
  run_scenario ~after_run:(fun () -> close_root tr) ~trace_out spec

(* -- manyflow-50k --------------------------------------------------------- *)

(* Many_flow.run's network and TCP defaults, which the traced assembly
   below repeats; the digest check proves the two agree. *)
let manyflow_bottleneck_bps = Sim.Units.mbps 100.0

let manyflow_buffer = 1024

let manyflow_params = { Tcp.Params.default with rwnd = 20 }

type manyflow_inputs = {
  flows : int;
  mf_duration : float;
  mf_seed : int64;
  stagger : float;  (* flow starts spread over [0, stagger) s *)
}

let manyflow_inputs size ~seed =
  let st = Random.State.make [| seed; 2 |] in
  let mf_seed = Int64.of_int (Random.State.bits st) in
  {
    flows = size.manyflow_flows;
    mf_duration = size.manyflow_duration;
    mf_seed;
    stagger = 0.5 +. Random.State.float st 1.0;
  }

let manyflow_digest ~flows ~delivered ~retransmits ~timeouts ~drops ~goodput =
  md5
    (Printf.sprintf
       "flows=%d delivered=%d retransmits=%d timeouts=%d drops=%d goodput=%.6f"
       flows delivered retransmits timeouts drops goodput)

let manyflow_op inputs =
  let w0 = Gc.minor_words () in
  let t0 = now_s () in
  let o =
    Experiments.Many_flow.run ~flows:inputs.flows ~duration:inputs.mf_duration
      ~seed:inputs.mf_seed ~bottleneck_bps:manyflow_bottleneck_bps
      ~buffer:manyflow_buffer ~stagger:inputs.stagger ~params:manyflow_params ()
  in
  let seconds = now_s () -. t0 in
  {
    seconds;
    minor_words = Gc.minor_words () -. w0;
    delivered = o.delivered_segments;
    digest =
      manyflow_digest ~flows:o.flows ~delivered:o.delivered_segments
        ~retransmits:o.retransmits ~timeouts:o.timeouts ~drops:o.drops
        ~goodput:o.aggregate_goodput_bps;
    violations = 0;
    checks = 0;
    unwrapped_injects = 0;
    fault_events = 0;
    trace_bytes = 0;
  }

(* Many_flow.run rebuilt from its public parts, with the topology's
   inject calls (net.inject) and the flock's dispatch entry points
   (tcp.flock.data / tcp.flock.ack) recorded. *)
let traced_manyflow_op tr inputs =
  start_op tr;
  let spans = tr.spans in
  let w0 = Gc.minor_words () in
  let t0 = now_s () in
  let flows = inputs.flows and duration = inputs.mf_duration in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create inputs.mf_seed in
  let topo =
    Net.Topology.create ~engine
      ~spec:
        (Experiments.Many_flow.spec ~bottleneck_bps:manyflow_bottleneck_bps
           ~buffer:manyflow_buffer)
      ~rng
      ~flows:(Array.make flows { Net.Topology.src = "src"; dst = "dst" })
      ()
  in
  let flock =
    Tcp.Flock.create ~engine ~params:manyflow_params ~flows
      ~inject_data:(fun ~flow packet ->
        Spans.enter spans ~name:tr.inject ~flow ~uid:packet.Net.Packet.uid;
        Net.Topology.inject_data topo ~flow packet;
        Spans.leave spans)
      ~inject_ack:(fun ~flow packet ->
        Spans.enter spans ~name:tr.inject ~flow ~uid:packet.Net.Packet.uid;
        Net.Topology.inject_ack topo ~flow packet;
        Spans.leave spans)
      ()
  in
  Net.Topology.set_data_dispatch topo (fun packet ->
      Spans.enter spans ~name:tr.flock_data ~flow:packet.Net.Packet.flow
        ~uid:packet.Net.Packet.uid;
      Tcp.Flock.deliver_data flock packet;
      Spans.leave spans);
  Net.Topology.set_ack_dispatch topo (fun packet ->
      Spans.enter spans ~name:tr.flock_ack ~flow:packet.Net.Packet.flow
        ~uid:packet.Net.Packet.uid;
      Tcp.Flock.deliver_ack flock packet;
      Spans.leave spans);
  arm tr engine ~duration;
  Tcp.Flock.start flock ~stagger:inputs.stagger ();
  Sim.Engine.run_until engine ~time:duration;
  let goodput = ref 0.0 in
  for flow = 0 to flows - 1 do
    goodput := !goodput +. Tcp.Flock.goodput_bps flock flow ~duration
  done;
  close_root tr;
  let seconds = now_s () -. t0 in
  let delivered = Tcp.Flock.total_acked_segments flock in
  {
    seconds;
    minor_words = Gc.minor_words () -. w0;
    delivered;
    digest =
      manyflow_digest ~flows ~delivered
        ~retransmits:(Tcp.Flock.total_retransmits flock)
        ~timeouts:(Tcp.Flock.total_timeouts flock)
        ~drops:(Net.Topology.total_drops topo) ~goodput:!goodput;
    violations = 0;
    checks = 0;
    unwrapped_injects = 0;
    fault_events = 0;
    trace_bytes = 0;
  }

(* -- seed-sweep ------------------------------------------------------------ *)

let sweep_variants = Core.Variant.[ Reno; Newreno; Sack; Rr ]

let sweep_losses = [ 0.01; 0.03 ]

let sweep_flows = 8

let sweep_workers () = Campaign.Pool.default_jobs ()

let sweep_grid size ~seed =
  let st = Random.State.make [| seed; 3 |] in
  let seeds =
    List.init size.sweep_seed_count (fun _ ->
        Int64.of_int (Random.State.int st 1_000_000))
  in
  Campaign.Sweep.grid ~variants:sweep_variants ~uniform_losses:sweep_losses
    ~seeds ~duration:size.sweep_duration ~flows:sweep_flows ()

let fresh_cache name =
  let dir = Filename.concat work_dir name in
  remove_tree dir;
  Campaign.Cache.create ~dir ()

(* Segments cumulatively acknowledged in a job, from its goodput. *)
let job_segments (r : Campaign.Job.result) =
  let bits_per_segment = float_of_int (8 * Tcp.Params.default.Tcp.Params.mss) in
  List.fold_left
    (fun acc (m : Campaign.Job.flow_metrics) ->
      acc
      + int_of_float
          (Float.round (m.goodput_bps *. r.job.Campaign.Job.duration /. bits_per_segment)))
    0 r.flow_metrics

let results_string results =
  Campaign.Json.to_string
    (Campaign.Json.List (List.map Campaign.Job.result_to_json results))

type sweep_op = {
  jobs : int;
  cold_s : float;
  warm_s : float;
  cold_words : float;  (* minor words allocated by the supervisor, cold *)
  segments : int;
  sweep_digest : string;
  cold_failed : int;
  warm_failed : int;
}

let sweep_failures (o : Campaign.Sweep.outcome) =
  List.length o.quarantined + o.skipped
  + List.length
      (List.filter (fun (r : Campaign.Job.result) -> r.audit_violations > 0) o.results)

(* One cold sweep into a fresh cache, then the same grid again warm.
   The warm re-run fails unless every job hits the cache and its
   results are byte-identical to the cold ones. *)
let sweep_op ~workers grid =
  let cache = fresh_cache "sweep-cache" in
  flush stdout;
  flush stderr;
  let w0 = Gc.minor_words () in
  let t0 = now_s () in
  let cold = Campaign.Sweep.run ~cache ~jobs:workers grid in
  let cold_s = now_s () -. t0 in
  let cold_words = Gc.minor_words () -. w0 in
  let t1 = now_s () in
  let warm = Campaign.Sweep.run ~cache ~jobs:workers grid in
  let warm_s = now_s () -. t1 in
  let jobs = List.length (Campaign.Sweep.jobs_of_grid grid) in
  let cold_json = results_string cold.results in
  let warm_identical =
    results_string warm.results = cold_json && warm.cache_hits = jobs
  in
  {
    jobs;
    cold_s;
    warm_s;
    cold_words;
    segments = List.fold_left (fun acc r -> acc + job_segments r) 0 cold.results;
    sweep_digest = md5 cold_json;
    cold_failed = sweep_failures cold;
    warm_failed = (if warm_identical then sweep_failures warm else jobs);
  }

(* -- sim.schedule_fire_ns ---------------------------------------------- *)

(* The classic hold model: [population] events pending, and every fired
   event schedules one successor a uniform [0, 1) s later, so the
   population stays constant. Returns ns per schedule-plus-fire. *)
let hold_ns ~population ~events ~seed =
  let engine = Sim.Engine.create () in
  let st = Random.State.make [| seed; 4 |] in
  let delays = Float.Array.init 4096 (fun _ -> Random.State.float st 1.0) in
  let fired = ref 0 in
  let rec fire () =
    incr fired;
    if !fired >= events then Sim.Engine.stop engine
    else
      Sim.Engine.schedule_unit engine
        ~delay:(Float.Array.get delays (!fired land 4095))
        fire
  in
  for i = 1 to max 1 population do
    Sim.Engine.schedule_unit engine ~delay:(Float.Array.get delays (i land 4095)) fire
  done;
  let t0 = Spans.now_ns () in
  Sim.Engine.run engine;
  float_of_int (Spans.now_ns () - t0) /. float_of_int !fired
