type gateway = Droptail of int | Red of int

type topology = Dumbbell | Parking_lot of int

type t = {
  variant : Core.Variant.t;
  gateway : gateway;
  topology : topology;
  uniform_loss : float;
  ack_loss : float;
  reorder : float;
  flap_period : float;
  cbr_share : float;
  estimator : Tcp.Rto.estimator;
  rrr_level : float;
  asym_ratio : float;  (* forward:reverse trunk rate ratio; 0 = off *)
  handover_period : float;  (* seconds between handovers; 0 = off *)
  seed : int64;
  duration : float;
  flows : int;
  rwnd : int;
}

let flap_down_for = 0.3

let handover_gap = 0.4

let gateway_name = function
  | Droptail capacity -> Printf.sprintf "droptail:%d" capacity
  | Red capacity -> Printf.sprintf "red:%d" capacity

let topology_name = function
  | Dumbbell -> "dumbbell"
  | Parking_lot hops -> Printf.sprintf "parking-lot:%d" hops

(* NAME or NAME:N with N a positive int, case and surrounding blanks
   ignored: the grammar both axis spellings share. *)
let split_spelling s =
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ name ] -> Some (name, None)
  | [ name; n ] -> (
    match int_of_string_opt n with
    | Some n when n > 0 -> Some (name, Some n)
    | _ -> None)
  | _ -> None

let gateway_of_string s =
  match split_spelling s with
  | Some ("droptail", buffer) -> Ok (Droptail (Option.value buffer ~default:8))
  | Some ("red", buffer) -> Ok (Red (Option.value buffer ~default:25))
  | _ ->
    Error
      (Printf.sprintf
         "invalid gateway %S (expected droptail[:BUFFER] or red[:BUFFER])" s)

let topology_of_string s =
  match split_spelling s with
  | Some ("dumbbell", None) -> Ok Dumbbell
  | Some ("parking-lot", hops) -> Ok (Parking_lot (Option.value hops ~default:2))
  | _ ->
    Error
      (Printf.sprintf
         "invalid topology %S (expected dumbbell or parking-lot[:HOPS])" s)

let point_label job =
  let base =
    Printf.sprintf "%s/%s/loss %g%%/ack %g%%"
      (Core.Variant.name job.variant)
      (gateway_name job.gateway)
      (100.0 *. job.uniform_loss)
      (100.0 *. job.ack_loss)
  in
  (* Fault/workload axes appear only when active, so labels (and the
     reports built from them) look unchanged for classic grids. *)
  let base =
    if job.topology <> Dumbbell then base ^ "/" ^ topology_name job.topology
    else base
  in
  let base =
    if job.reorder > 0.0 then
      base ^ Printf.sprintf "/reorder %g%%" (100.0 *. job.reorder)
    else base
  in
  let base =
    if job.flap_period > 0.0 then
      base ^ Printf.sprintf "/flap %gs" job.flap_period
    else base
  in
  let base =
    if job.cbr_share > 0.0 then
      base ^ Printf.sprintf "/cbr %g%%" (100.0 *. job.cbr_share)
    else base
  in
  let base =
    if job.estimator <> Tcp.Rto.Jacobson then
      base ^ Printf.sprintf "/rto %s" (Tcp.Rto.estimator_name job.estimator)
    else base
  in
  let base =
    if job.asym_ratio > 0.0 then
      base ^ Printf.sprintf "/asym %g" job.asym_ratio
    else base
  in
  let base =
    if job.handover_period > 0.0 then
      base ^ Printf.sprintf "/handover %gs" job.handover_period
    else base
  in
  (* The level only matters to (and only labels) the RRR sender. *)
  if job.variant = Core.Variant.Rrr && job.rrr_level <> 0.5 then
    base ^ Printf.sprintf "/rrr %g" job.rrr_level
  else base

(* Bump whenever the job layout or the semantics of a run change, so
   stale cache entries can never be mistaken for current ones. *)
let schema = "rr-sim-campaign/7"

let to_json job =
  Json.Obj
    [
      ("variant", Json.Str (Core.Variant.name job.variant));
      ("gateway", Json.Str (gateway_name job.gateway));
      ("topology", Json.Str (topology_name job.topology));
      ("uniform_loss", Json.Num job.uniform_loss);
      ("ack_loss", Json.Num job.ack_loss);
      ("reorder", Json.Num job.reorder);
      ("flap_period", Json.Num job.flap_period);
      ("cbr_share", Json.Num job.cbr_share);
      ("rto", Json.Str (Tcp.Rto.estimator_name job.estimator));
      ("rrr_level", Json.Num job.rrr_level);
      ("asym_ratio", Json.Num job.asym_ratio);
      ("handover_period", Json.Num job.handover_period);
      ("seed", Json.Str (Int64.to_string job.seed));
      ("duration", Json.Num job.duration);
      ("flows", Json.Num (float_of_int job.flows));
      ("rwnd", Json.Num (float_of_int job.rwnd));
    ]

let digest job =
  Digest.to_hex (Digest.string (schema ^ "\n" ^ Json.to_string (to_json job)))

type flow_metrics = {
  flow : int;
  goodput_bps : float;
  drops : int;
  timeouts : int;
  retransmits : int;
  fast_retransmits : int;
}

type result = {
  job : t;
  flow_metrics : flow_metrics list;
  aggregate_goodput_bps : float;
  jain : float;
  audit_checks : int;
  audit_violations : int;
}

let run job =
  let gateway =
    match job.gateway with
    | Droptail capacity -> Net.Dumbbell.Droptail { capacity }
    | Red capacity -> Net.Dumbbell.Red { capacity; params = Net.Red.paper_params }
  in
  let cross_slots = if job.cbr_share > 0.0 then 1 else 0 in
  let config =
    {
      (Net.Dumbbell.paper_config ~flows:(job.flows + cross_slots)) with
      gateway;
    }
  in
  (* On a parking lot every job flow (and the CBR competitor, when the
     share axis is active) runs end to end across all [hops]
     bottlenecks; the runner's loss/fault knobs attach to the first
     bottleneck pair, as they do to the dumbbell trunks. *)
  let topology =
    match job.topology with
    | Dumbbell -> Experiments.Scenario.dumbbell config
    | Parking_lot hops ->
      Experiments.Scenario.parking_lot ~hops
        ~long_flows:(job.flows + cross_slots)
        ~cross_per_hop:0 ~config ()
  in
  let params =
    {
      Tcp.Params.default with
      rwnd = job.rwnd;
      rto_estimator = job.estimator;
      rrr_level = job.rrr_level;
    }
  in
  let faults =
    let spec = Faults.Spec.none in
    let spec =
      if job.reorder > 0.0 then
        {
          spec with
          Faults.Spec.reorder =
            Some
              {
                Faults.Spec.prob = job.reorder;
                max_extra = Faults.Spec.default_reorder_extra;
              };
        }
      else spec
    in
    let spec =
      if job.flap_period > 0.0 then
        {
          spec with
          Faults.Spec.flaps =
            Some
              (Faults.Spec.Periodic
                 { period = job.flap_period; down_for = flap_down_for });
        }
      else spec
    in
    let spec =
      if job.handover_period > 0.0 then
        {
          spec with
          Faults.Spec.handover =
            Some
              {
                Faults.Spec.ho_period = job.handover_period;
                ho_gap = handover_gap;
                ho_levels = Faults.Spec.default_handover_levels;
              };
        }
      else spec
    in
    if job.asym_ratio > 0.0 then
      { spec with Faults.Spec.asym = Some job.asym_ratio }
    else spec
  in
  let cross =
    if job.cbr_share > 0.0 then
      [
        Experiments.Scenario.cbr
          ~rate_bps:
            (job.cbr_share *. config.Net.Dumbbell.bottleneck_bandwidth_bps)
          ();
      ]
    else []
  in
  let spec =
    Experiments.Scenario.make ~topology
      ~flows:(List.init job.flows (fun _ -> Experiments.Scenario.flow job.variant))
      ~params ~seed:job.seed ~duration:job.duration
      ~uniform_loss:job.uniform_loss ~ack_loss:job.ack_loss ~faults ~cross ()
  in
  let t = Experiments.Scenario.run spec in
  let mss = params.Tcp.Params.mss in
  let flow_metrics =
    List.init job.flows (fun flow ->
        let result = t.Experiments.Scenario.results.(flow) in
        let counters =
          result.Experiments.Scenario.agent.Tcp.Agent.base
            .Tcp.Sender_common.counters
        in
        {
          flow;
          goodput_bps =
            Stats.Metrics.effective_throughput_bps
              result.Experiments.Scenario.trace ~mss ~t0:0.0 ~t1:job.duration;
          drops = Experiments.Scenario.drops t ~flow;
          timeouts = counters.Tcp.Counters.timeouts;
          retransmits = counters.Tcp.Counters.retransmits;
          fast_retransmits = counters.Tcp.Counters.fast_retransmits;
        })
  in
  let goodputs = List.map (fun m -> m.goodput_bps) flow_metrics in
  let auditor = t.Experiments.Scenario.auditor in
  {
    job;
    flow_metrics;
    aggregate_goodput_bps = List.fold_left ( +. ) 0.0 goodputs;
    jain = Stats.Metrics.jain_index goodputs;
    audit_checks = Audit.Auditor.checks_run auditor;
    audit_violations = Audit.Auditor.violation_count auditor;
  }

let flow_metrics_to_json m =
  Json.Obj
    [
      ("flow", Json.Num (float_of_int m.flow));
      ("goodput_bps", Json.Num m.goodput_bps);
      ("drops", Json.Num (float_of_int m.drops));
      ("timeouts", Json.Num (float_of_int m.timeouts));
      ("retransmits", Json.Num (float_of_int m.retransmits));
      ("fast_retransmits", Json.Num (float_of_int m.fast_retransmits));
    ]

let result_to_json result =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("job", to_json result.job);
      ("flows", Json.List (List.map flow_metrics_to_json result.flow_metrics));
      ("aggregate_goodput_bps", Json.Num result.aggregate_goodput_bps);
      ("jain", Json.Num result.jain);
      ("audit_checks", Json.Num (float_of_int result.audit_checks));
      ("audit_violations", Json.Num (float_of_int result.audit_violations));
    ]

let ( let* ) = Result.bind

let field name coerce json =
  match Option.bind (Json.member name json) coerce with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped field %S" name)

let flow_metrics_of_json json =
  let* flow = field "flow" Json.to_int json in
  let* goodput_bps = field "goodput_bps" Json.to_float json in
  let* drops = field "drops" Json.to_int json in
  let* timeouts = field "timeouts" Json.to_int json in
  let* retransmits = field "retransmits" Json.to_int json in
  let* fast_retransmits = field "fast_retransmits" Json.to_int json in
  Ok { flow; goodput_bps; drops; timeouts; retransmits; fast_retransmits }

let result_of_json job json =
  let* stored_schema = field "schema" Json.to_str json in
  if stored_schema <> schema then
    Error (Printf.sprintf "schema mismatch: %S" stored_schema)
  else
    let* flows = field "flows" Json.to_list json in
    let* flow_metrics =
      List.fold_left
        (fun acc flow_json ->
          let* acc = acc in
          let* m = flow_metrics_of_json flow_json in
          Ok (m :: acc))
        (Ok []) flows
    in
    let* aggregate_goodput_bps = field "aggregate_goodput_bps" Json.to_float json in
    let* jain = field "jain" Json.to_float json in
    let* audit_checks = field "audit_checks" Json.to_int json in
    let* audit_violations = field "audit_violations" Json.to_int json in
    Ok
      {
        job;
        flow_metrics = List.rev flow_metrics;
        aggregate_goodput_bps;
        jain;
        audit_checks;
        audit_violations;
      }
