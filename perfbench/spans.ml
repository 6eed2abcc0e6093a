(* Span recorder for the traced run.

   A span is one call into a layer's public function, recorded by the
   benchmark's own wrapper: its name, start and end on the monotonic
   clock (ns), the span that was open when it began (its parent), and a
   request id — the flow and the uid of the packet being handled.
   Spans live in flat growable arrays and are only aggregated (or
   written out) after the run, so recording one costs two clock reads
   and a few array stores. *)

let now_ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())

type t = {
  names : string array;
  mutable len : int;
  mutable name : int array;
  mutable parent : int array;  (* -1: no enclosing span *)
  mutable flow : int array;
  mutable uid : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable stack : int array;
  mutable depth : int;
}

let create names =
  let capacity = 4096 in
  {
    names = Array.of_list names;
    len = 0;
    name = Array.make capacity 0;
    parent = Array.make capacity 0;
    flow = Array.make capacity 0;
    uid = Array.make capacity 0;
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    stack = Array.make 64 0;
    depth = 0;
  }

let id t name =
  let rec find i =
    if i = Array.length t.names then invalid_arg ("Spans.id: unknown " ^ name)
    else if t.names.(i) = name then i
    else find (i + 1)
  in
  find 0

let clear t =
  t.len <- 0;
  t.depth <- 0

let length t = t.len

let grow a = Array.append a (Array.make (Array.length a) 0)

let enter t ~name ~flow ~uid =
  if t.len = Array.length t.name then begin
    t.name <- grow t.name;
    t.parent <- grow t.parent;
    t.flow <- grow t.flow;
    t.uid <- grow t.uid;
    t.start <- grow t.start;
    t.stop <- grow t.stop
  end;
  if t.depth = Array.length t.stack then t.stack <- grow t.stack;
  let i = t.len in
  t.len <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
  t.flow.(i) <- flow;
  t.uid.(i) <- uid;
  t.stack.(t.depth) <- i;
  t.depth <- t.depth + 1;
  t.start.(i) <- now_ns ()

let leave t =
  let stop = now_ns () in
  if t.depth = 0 then invalid_arg "Spans.leave: no open span";
  t.depth <- t.depth - 1;
  t.stop.(t.stack.(t.depth)) <- stop

(* [self_time ~start ~stop children] is the span's duration minus the
   part of [start, stop] that the union of the child intervals covers:
   overlapping children are counted once, and the parts of a child
   outside its parent are ignored. *)
let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a start and b = min b stop in
        if b > a then Some (a, b) else None)
      children
  in
  let covered, _ =
    List.fold_left
      (fun (covered, reach) (a, b) ->
        if b <= reach then (covered, reach)
        else (covered + b - max a reach, b))
      (0, min_int)
      (List.sort compare clipped)
  in
  stop - start - covered

type totals = {
  calls : int array;  (* per name id *)
  total_ns : int array;
  self_ns : int array;
}

(* Per-name call counts, total and self time over every closed span. *)
let totals t =
  if t.depth <> 0 then invalid_arg "Spans.totals: spans still open";
  let children = Array.make t.len [] in
  for i = t.len - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then children.(p) <- (t.start.(i), t.stop.(i)) :: children.(p)
  done;
  let k = Array.length t.names in
  let calls = Array.make k 0
  and total_ns = Array.make k 0
  and self_ns = Array.make k 0 in
  for i = 0 to t.len - 1 do
    let n = t.name.(i) in
    calls.(n) <- calls.(n) + 1;
    total_ns.(n) <- total_ns.(n) + t.stop.(i) - t.start.(i);
    self_ns.(n) <-
      self_ns.(n) + self_time ~start:t.start.(i) ~stop:t.stop.(i) children.(i)
  done;
  { calls; total_ns; self_ns }

let add_totals a b =
  {
    calls = Array.map2 ( + ) a.calls b.calls;
    total_ns = Array.map2 ( + ) a.total_ns b.total_ns;
    self_ns = Array.map2 ( + ) a.self_ns b.self_ns;
  }

let empty_totals t =
  let k = Array.length t.names in
  { calls = Array.make k 0; total_ns = Array.make k 0; self_ns = Array.make k 0 }

(* One tab-separated line per span, times relative to the first span. *)
let write t oc =
  output_string oc "span\tparent\tname\tflow\tuid\tstart_ns\tstop_ns\n";
  let origin = if t.len = 0 then 0 else t.start.(0) in
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" i t.parent.(i)
      t.names.(t.name.(i))
      t.flow.(i) t.uid.(i)
      (t.start.(i) - origin)
      (t.stop.(i) - origin)
  done

(* Durations (ns) of the recorded spans named [name], in record order. *)
let durations t ~name =
  List.filter_map
    (fun i -> if t.name.(i) = name then Some (t.stop.(i) - t.start.(i)) else None)
    (List.init t.len Fun.id)
