(* Order statistics over measured samples. Quantiles interpolate
   linearly between order statistics (the "type 7" rule), so the median
   of an even sample is the mean of its two middle values. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.quantile: no samples";
  if q < 0.0 || q > 1.0 then invalid_arg "Stat.quantile: q outside [0, 1]";
  let rank = q *. float_of_int (n - 1) in
  let lo = truncate rank in
  let hi = min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let quantile samples q = quantile_sorted (sorted samples) q

let median samples = quantile samples 0.5

(* Percentiles a report may name, highest last. *)
let standard_percentiles = [ 0.5; 0.9; 0.99; 0.999 ]

type summary = {
  count : int;
  p50 : float;
  top_q : float;  (* the highest percentile with enough samples beyond it *)
  top : float;
}

(* [summarize samples] is the median plus the highest standard
   percentile that still has at least ten samples above it; it falls
   back to the median itself when even that lacks them. *)
let summarize samples =
  let a = sorted samples in
  let count = Array.length a in
  let supported q =
    count - int_of_float (Float.round (q *. float_of_int count)) >= 10
  in
  let top_q =
    List.fold_left
      (fun best q -> if supported q then q else best)
      0.5 standard_percentiles
  in
  {
    count;
    p50 = quantile_sorted a 0.5;
    top_q;
    top = quantile_sorted a top_q;
  }

(* [fastest_mean k samples] is the mean of the [k] smallest samples (all
   of them when there are fewer). *)
let fastest_mean k samples =
  let a = sorted samples in
  let k = max 1 (min k (Array.length a)) in
  if Array.length a = 0 then invalid_arg "Stat.fastest_mean: no samples";
  let sum = ref 0.0 in
  for i = 0 to k - 1 do
    sum := !sum +. a.(i)
  done;
  !sum /. float_of_int k
