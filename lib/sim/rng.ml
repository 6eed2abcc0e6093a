(* The 64-bit state lives unboxed in an 8-byte buffer, read and written
   with the [Bytes] int64 primitives, which compile to plain loads and
   stores. A [mutable state : int64] record field holds a pointer to a
   boxed int64, so every draw would allocate a fresh box for the
   advanced state. [bernoulli], [bool] and [int] return immediates and
   allocate nothing per draw; an int64 or float result ([bits64],
   [float], the distributions) is boxed at the call boundary, as any
   non-inlined int64 or float result is. test/test_alloc.ml pins
   [bits64], [float] and [bernoulli]. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

(* SplitMix64 output mixing (Steele, Lea & Flood 2014). *)
let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] bits64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state

let split t =
  (* Mix once more so parent and child sequences do not overlap. *)
  create (mix (bits64 t))

(* 53 high-quality bits mapped to [0, 1). *)
let[@inline] float t =
  Int64.to_float (Int64.shift_right_logical (bits64 t) 11)
  *. (1.0 /. 9007199254740992.0)

let float_range t ~lo ~hi =
  assert (lo < hi);
  lo +. ((hi -. lo) *. float t)

let int t n =
  assert (n > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let limit = Int64.(sub (sub max_int n64) 1L) in
  let value = ref (-1) in
  while !value < 0 do
    let bits = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem bits n64 in
    if Int64.sub bits v <= limit then value := Int64.to_int v
  done;
  !value

let bool t = Int64.(logand (bits64 t) 1L) = 1L

let bernoulli t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t < p

let exponential t ~mean =
  assert (mean > 0.0);
  let u = float t in
  (* u = 0 would give infinity; 1 - u is in (0, 1]. *)
  -.mean *. log (1.0 -. u)

let pareto t ~shape ~scale =
  assert (shape > 0.0);
  assert (scale > 0.0);
  let u = float t in
  (* u = 0 would give infinity; 1 - u is in (0, 1]. *)
  scale /. ((1.0 -. u) ** (1.0 /. shape))
