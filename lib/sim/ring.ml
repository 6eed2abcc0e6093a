(* [slots.(head)] is the front; the [length] elements occupy
   [head, head + length) modulo the storage size, which need not be a
   power of two: growth stops at [limit]. *)
type 'a t = {
  dummy : 'a;
  limit : int;
  mutable slots : 'a array;
  mutable head : int;
  mutable length : int;
}

let initial_slots = 8

let create ~dummy ~limit =
  if limit < 1 then invalid_arg "Ring.create: limit < 1";
  {
    dummy;
    limit;
    slots = Array.make (min limit initial_slots) dummy;
    head = 0;
    length = 0;
  }

let length t = t.length

let is_empty t = t.length = 0

let is_full t = t.length >= t.limit

let slots t = Array.length t.slots

(* Only called on a full ring: unroll the wrapped contents to the
   front of storage twice the size (capped at [limit]). *)
let grow t =
  let old = t.slots in
  let n = Array.length old in
  let slots = Array.make (min t.limit (2 * n)) t.dummy in
  Array.blit old t.head slots 0 (n - t.head);
  Array.blit old 0 slots (n - t.head) t.head;
  t.slots <- slots;
  t.head <- 0

let push t x =
  if t.length >= t.limit then invalid_arg "Ring.push: full";
  if t.length = Array.length t.slots then grow t;
  let n = Array.length t.slots in
  let i = t.head + t.length in
  Array.unsafe_set t.slots (if i >= n then i - n else i) x;
  t.length <- t.length + 1

let pop t =
  if t.length = 0 then invalid_arg "Ring.pop: empty";
  let slots = t.slots in
  let head = t.head in
  let x = Array.unsafe_get slots head in
  Array.unsafe_set slots head t.dummy;
  t.head <- (if head + 1 = Array.length slots then 0 else head + 1);
  t.length <- t.length - 1;
  x
