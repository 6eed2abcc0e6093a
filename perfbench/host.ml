(* Host-speed calibration for the wall-clock metrics.

   On a shared host the simulator's speed drifts with the neighbours'
   load by up to ~30% over minutes, uniformly across a whole run, which
   no choice of statistic over the run's own operations can undo. A
   fixed reference kernel interleaved with the operations slows down
   with them: it allocates the way the simulator does (an [Int] map and
   a hash table of 60 000 random keys, then folds over both) and so
   contends for the same caches and memory. Its time is independent of
   the simulator's code, so a change to the simulator moves the
   calibrated numbers and a change in host load does not. *)

module Int_map = Map.Make (Int)

(* The fastest-three reference time on the quiet 2-core host the
   benchmark was built on; calibrated times are expressed at this
   speed. *)
let nominal_s = 0.065

let reference_s () =
  let st = Random.State.make [| 99 |] in
  let t0 = Spans.now_ns () in
  let map = ref Int_map.empty and table = Hashtbl.create 16 in
  for i = 1 to 60_000 do
    let k = Random.State.bits st in
    map := Int_map.add k i !map;
    Hashtbl.replace table k (float_of_int i, i)
  done;
  let sum =
    Int_map.fold (fun k v acc -> acc + (k land 7) + v) !map 0
    + Hashtbl.fold (fun _ (_, v) acc -> acc + v) table 0
  in
  ignore (Sys.opaque_identity sum);
  float_of_int (Spans.now_ns () - t0) *. 1e-9
