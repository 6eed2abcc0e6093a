(** The paper's experimental topology (Figure 4): [n] senders S_i and
    receivers K_i joined by two gateways R1, R2. Every flow crosses its
    own side links and the shared bottleneck between the gateways; ACKs
    return over a symmetric reverse path. Congestion is engineered at
    R1's outbound (forward bottleneck) queue, which is the gateway
    discipline under test; all other queues are generously provisioned
    drop-tails.

    The dumbbell is a {!Topology} graph ({!Topology.dumbbell}); this
    module keeps only what is specific to it: its parameters, the names
    of its two trunk links and the order its queues are reported in.
    Traffic, delivery handlers, the drop ledger and link/queue lookup
    are {!Topology}'s API on the value {!create} returns. *)

type gateway = Dumbbell_config.gateway =
  | Droptail of { capacity : int }
  | Red of { capacity : int; params : Red.params }

(** Which way a flow's data travels. [Forward] is the paper's S→K
    direction; [Backward] flows send data K→S over the reverse trunk,
    their ACKs returning on the forward trunk — the two-way traffic of
    the paper's reference [22], whose data packets queue behind (and
    compress) the forward flows' ACKs. *)
type direction = Dumbbell_config.direction = Forward | Backward

type config = Dumbbell_config.t = {
  flows : int;
  side_bandwidth_bps : float;
  side_delay : float;
  bottleneck_bandwidth_bps : float;
  bottleneck_delay : float;  (** one-way *)
  gateway : gateway;
  access_capacity : int;  (** per-flow access-link buffers *)
  reverse_capacity : int;  (** reverse-trunk buffer (ACKs, and data of
                               [Backward] flows) *)
}

(** Table 3 parameters: 10 Mbps / 1 ms side links, 0.8 Mbps bottleneck,
    96 ms one-way bottleneck delay (giving the ~200 ms RTT of §4),
    8-packet drop-tail gateway. *)
val paper_config : flows:int -> config

(** The forward trunk R1→R2, link ["gateway"]: its queue is the gateway
    discipline under test, and its entry the paper's loss-injection
    point. *)
val bottleneck_link : string

(** The reverse trunk R2→R1, link ["reverse_gateway"], carrying ACKs
    (and [Backward] flows' data); its entry is the ACK-loss tap point of
    the §2.3 experiments. An outage of the physical trunk cuts both
    this and {!bottleneck_link}. *)
val reverse_trunk_link : string

(** [queue_names ~flows] names every queue of a [flows]-wide dumbbell in
    reporting order — the gateway under test first, then the reverse
    gateway and the per-flow access/exit buffers — so auditors and
    tracers subscribe to them in a stable order. *)
val queue_names : flows:int -> string list

(** [create ~engine ~config ~rng ?taps ?on_drop ?side_delays
    ?directions ()] realizes the dumbbell. [taps] interposes
    {!Topology.wrap} functions on the named links (compose wraps from
    {!Loss}); any link name from {!Topology.dumbbell} works. [rng] seeds
    the RED gateway when one is configured. [on_drop] observes every
    queue drop in addition to the per-flow ledger. [side_delays]
    overrides [config.side_delay] per flow (applied to all four of that
    flow's access links), giving flows heterogeneous RTTs; its length
    must be [config.flows]. [directions] assigns each flow a
    {!direction} (default all [Forward]); a [Backward] flow's data rides
    the reverse trunk and its ACKs the forward trunk, so two-way
    experiments share queues exactly as in the paper's [22].

    @raise Invalid_argument on array-length mismatches or
    [flows < 1]. *)
val create :
  engine:Sim.Engine.t ->
  config:config ->
  rng:Sim.Rng.t ->
  ?taps:(string * Topology.wrap) list ->
  ?on_drop:(Packet.t -> unit) ->
  ?side_delays:float array ->
  ?directions:direction array ->
  unit ->
  Topology.t
