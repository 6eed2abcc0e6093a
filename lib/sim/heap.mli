(** Growable binary min-heap: the simple reference priority queue that
    the engine's calendar queue is tested against.

    Elements are ordered by a user-supplied priority of type [float] and,
    within equal priorities, by insertion order (stable), which is what a
    deterministic discrete-event simulator needs: two events scheduled for
    the same instant fire in the order they were scheduled. *)

type 'a t

(** [create ()] returns an empty heap. *)
val create : unit -> 'a t

(** [length t] is the number of elements currently stored. *)
val length : 'a t -> int

(** [is_empty t] is [length t = 0]. *)
val is_empty : 'a t -> bool

(** [push t ~priority v] inserts [v]. *)
val push : 'a t -> priority:float -> 'a -> unit

(** [peek t] returns the minimum element without removing it, or [None]
    if the heap is empty. *)
val peek : 'a t -> (float * 'a) option

(** [pop t] removes and returns the minimum element, or [None] if the
    heap is empty. *)
val pop : 'a t -> (float * 'a) option

(** [pop_if_before t ~limit ~default] removes and returns the minimum
    element if its priority is [<= limit]; otherwise leaves the heap
    untouched and returns [default]. Allocation-free: the hot path of
    the event loop, where per-event [option] and tuple cells would be
    pure garbage. *)
val pop_if_before : 'a t -> limit:float -> default:'a -> 'a

(** [clear t] removes all elements and resets the insertion-order
    state, so a reused heap behaves like a fresh one. *)
val clear : 'a t -> unit
