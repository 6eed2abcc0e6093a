(** One fully-resolved point of a sweep grid.

    A job is everything needed to run one deterministic
    {!Experiments.Scenario}: the TCP variant, the gateway discipline,
    the injected data/ACK loss rates, the seed, the horizon and the
    flow count. Being a plain value with a canonical JSON form, a job
    can be hashed (the cache key), shipped to a forked worker, and
    stored next to its result. *)

type gateway = Droptail of int | Red of int  (** payload = buffer, packets *)

(** The network the job's flows cross: the paper's dumbbell, or a
    parking lot of k chained bottlenecks ({!Net.Topology.parking_lot})
    with every flow running end to end. *)
type topology = Dumbbell | Parking_lot of int  (** payload = hops *)

type t = {
  variant : Core.Variant.t;
  gateway : gateway;
  topology : topology;
  uniform_loss : float;  (** data-drop rate at R1 *)
  ack_loss : float;  (** ACK-drop rate on the reverse path *)
  reorder : float;
      (** packet-reordering probability at the bottleneck, 0 = off
          (hold-back bound {!Faults.Spec.default_reorder_extra}) *)
  flap_period : float;
      (** trunk-outage period in seconds, 0 = off; each outage lasts
          {!flap_down_for} with the buffer held *)
  cbr_share : float;
      (** CBR cross-traffic load as a fraction of the bottleneck
          capacity, 0 = off (occupies one extra topology slot) *)
  estimator : Tcp.Rto.estimator;
      (** the senders' RTO prediction algorithm
          ({!Tcp.Rto.Jacobson} = classic default) *)
  rrr_level : float;
      (** {!Tcp.Params.t.rrr_level} for {!Core.Variant.Rrr} senders;
          [0.5] = the Reno-equivalent default; other variants ignore
          it (and it never appears in their point labels) *)
  asym_ratio : float;
      (** forward:reverse trunk rate ratio ([asym:R] spec clause),
          0 = off; dumbbell only *)
  handover_period : float;
      (** seconds between cellular handovers ([handover:] spec
          clause), 0 = off; each handover darkens the trunk for
          {!handover_gap} and resumes at the next
          {!Faults.Spec.default_handover_levels} cell rate *)
  seed : int64;
  duration : float;  (** seconds *)
  flows : int;  (** same-variant flows sharing the bottleneck *)
  rwnd : int;  (** receiver advertised window, segments *)
}

(** [flap_down_for] is the fixed outage length of the [flap_period]
    axis: 300 ms. *)
val flap_down_for : float

(** [handover_gap] is the fixed dark-gap length of the
    [handover_period] axis: 400 ms. *)
val handover_gap : float

(** [gateway_name g] is the sweep-axis spelling: ["droptail:<buffer>"]
    or ["red:<buffer>"]. *)
val gateway_name : gateway -> string

(** [gateway_of_string s] parses [droptail[:BUFFER]] or [red[:BUFFER]]
    (case-insensitive; BUFFER a positive int, default 8 for drop-tail
    and 25 for RED), the inverse of {!gateway_name}. Never raises. *)
val gateway_of_string : string -> (gateway, string) result

(** [topology_name t] is the sweep-axis spelling: ["dumbbell"] or
    ["parking-lot:<hops>"]. *)
val topology_name : topology -> string

(** [topology_of_string s] parses [dumbbell] or [parking-lot[:HOPS]]
    (case-insensitive; HOPS a positive int, default 2), the inverse of
    {!topology_name}. Never raises. *)
val topology_of_string : string -> (topology, string) result

(** [point_label job] names the grid point the job belongs to —
    everything but the seed — e.g. ["rr/droptail:8/loss 2%/ack 0%"].
    Jobs of one point differing only in seed aggregate together. *)
val point_label : t -> string

(** [digest job] is the content-addressed cache key: the hex MD5 of
    the job's canonical JSON (plus a schema tag, so incompatible cache
    entries from older layouts never alias). *)
val digest : t -> string

val to_json : t -> Json.t

(** {1 Execution} *)

type flow_metrics = {
  flow : int;
  goodput_bps : float;  (** cumulative-ACK goodput over the whole run *)
  drops : int;
  timeouts : int;
  retransmits : int;
  fast_retransmits : int;
}

type result = {
  job : t;
  flow_metrics : flow_metrics list;  (** one per flow, in flow order *)
  aggregate_goodput_bps : float;  (** sum over flows *)
  jain : float;  (** fairness index over per-flow goodputs *)
  audit_checks : int;  (** invariant evaluations during the run *)
  audit_violations : int;  (** failed invariant checks (0 = healthy) *)
}

(** [run job] executes the scenario under the runtime auditor and
    reduces it to metrics. Deterministic: equal jobs yield equal
    results, whichever process runs them. *)
val run : t -> result

val result_to_json : result -> Json.t

(** [result_of_json job json] decodes a cached result. The stored
    job is ignored in favour of [job] (the cache key already proved
    they match). *)
val result_of_json : t -> Json.t -> (result, string) Stdlib.result
