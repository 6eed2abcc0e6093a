(** Common interface for queueing disciplines attached to links.

    A discipline decides, per arriving packet, whether to accept or drop
    it, and hands packets back to the link in its service order. Concrete
    disciplines ({!Droptail}, {!Red}) construct values of this closure
    record via {!make}; the record style keeps links independent of the
    discipline's internal state type.

    Every discipline built with {!make} carries a multicast observer
    list: auditors and tracers {!subscribe} to see each accept, drop and
    departure as it happens, without wrapping the queue. An event is a
    constant constructor passed alongside the packet, so notifying
    observers allocates nothing, and a queue nobody observes skips the
    fan-out entirely. *)

type stats = {
  mutable enqueued : int;  (** packets accepted *)
  mutable dropped : int;  (** packets refused (all causes) *)
  mutable dequeued : int;  (** packets handed to the link *)
  mutable bytes_dropped : int;
}

(** One queue transition, delivered with the packet it concerns.
    [Dropped] packets were refused at enqueue and never entered the
    queue. *)
type event = Enqueued | Dropped | Dequeued

type t = {
  name : string;
  enqueue : Packet.t -> bool;
      (** [enqueue p] accepts [p] into the queue, returning [false] when
          the discipline drops it instead. *)
  dequeue : unit -> Packet.t option;
      (** next packet to transmit, [None] when empty *)
  length : unit -> int;  (** packets currently queued *)
  byte_length : unit -> int;  (** bytes currently queued *)
  stats : stats;
  observers : (event -> Packet.t -> unit) list ref;
      (** managed via {!subscribe} *)
}

(** [fresh_stats ()] is an all-zero counter record. *)
val fresh_stats : unit -> stats

(** [fifo ~capacity] is the empty packet buffer a discipline serves
    from: a {!Sim.Ring} holding at most [capacity] packets that grows on
    demand.

    @raise Invalid_argument if [capacity < 1]. *)
val fifo : capacity:int -> Packet.t Sim.Ring.t

(** [make ~name ~enqueue ~dequeue ~length ~byte_length ~stats ()] wraps
    a discipline implementation so every enqueue outcome and dequeue is
    broadcast to subscribers. Concrete disciplines must build their
    record through this. The wrapped [dequeue] returns the
    discipline's own result unchanged. *)
val make :
  name:string ->
  enqueue:(Packet.t -> bool) ->
  dequeue:(unit -> Packet.t option) ->
  length:(unit -> int) ->
  byte_length:(unit -> int) ->
  stats:stats ->
  unit ->
  t

(** [subscribe t f] adds [f] to the observer list; [f event packet] is
    called in subscription order, after the discipline's own state and
    [stats] are updated. Subscriptions cannot be removed. *)
val subscribe : t -> (event -> Packet.t -> unit) -> unit
