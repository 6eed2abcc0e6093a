(** Growable bounded ring FIFO.

    The packet buffer behind [Net.Droptail] and [Net.Red], and the
    per-flow shadow FIFO of the runtime auditor. A ring starts with a
    few slots and doubles, up to its [limit], only when a push finds it
    full, so a queue sized for a worst case it never reaches costs what
    it actually holds. Steady-state push and pop allocate nothing: no
    cell per element as in [Stdlib.Queue], no option per pop. *)

type 'a t

(** [create ~dummy ~limit] is an empty ring holding at most [limit]
    elements. [dummy] fills unused slots, so a popped element is not
    kept alive by the ring.

    @raise Invalid_argument if [limit < 1]. *)
val create : dummy:'a -> limit:int -> 'a t

(** [length t] is the number of elements held. *)
val length : 'a t -> int

(** [is_empty t] is [length t = 0]. *)
val is_empty : 'a t -> bool

(** [is_full t] is [length t >= limit]. *)
val is_full : 'a t -> bool

(** [slots t] is the current storage size: the most elements [t] has
    room for before it next grows. Never above the limit. *)
val slots : 'a t -> int

(** [push t x] appends [x] at the back.

    @raise Invalid_argument if [t] is full. *)
val push : 'a t -> 'a -> unit

(** [pop t] removes and returns the front element.

    @raise Invalid_argument if [t] is empty. *)
val pop : 'a t -> 'a
