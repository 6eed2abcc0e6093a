(* For a non-negative IEEE-754 double, the bit pattern read as an
   unsigned 64-bit integer is a monotone function of the value (sign
   bit clear, biased exponent then mantissa in descending
   significance). Subtracting 2^62 recentres the unsigned range
   [0, 2^63) onto the signed native-int range [-2^62, 2^62), which
   [Int64.to_int]'s 63-bit truncation then preserves exactly — without
   the recentring, any time >= 2.0 sets bit 62 and truncation flips
   the sign, breaking the ordering. The [Int64] chains below compile
   allocation-free (unboxed externals) once inlined. Called from
   another module they are not inlined in dune's dev profile, which
   compiles with [-opaque]: [of_time] then takes its float boxed and
   [to_time] returns a fresh 2-word box. [Engine] therefore keeps its
   own copy of both on its per-event paths. *)

let bias = 0x4000_0000_0000_0000L

let[@inline always] of_time (t : float) =
  Int64.to_int (Int64.sub (Int64.bits_of_float t) bias)

let[@inline always] to_time (bits : int) =
  Int64.float_of_bits (Int64.add (Int64.of_int bits) bias)
