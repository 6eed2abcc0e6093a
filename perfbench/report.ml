(* Metric values and the one-line JSON result the benchmark ends with. *)

type metric = { name : string; unit_ : string; value : float }

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* A metric name starts with a letter or digit and is at most 64
   letters, digits, '_', '.' and '-'. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

(* A unit is at most 16 letters, digits, '_', '/', '%', '.' and '-'. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || String.contains "_/%.-" c)
       s

let metric name unit_ value =
  if not (valid_name name) then invalid_arg ("Report.metric: bad name " ^ name);
  if not (valid_unit unit_) then invalid_arg ("Report.metric: bad unit " ^ unit_);
  if not (Float.is_finite value) then
    invalid_arg (Printf.sprintf "Report.metric: %s is not finite" name);
  { name; unit_; value }

(* Every digit the double carries: %.17g round-trips. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json ~correct ~attempted ~failed metrics =
  let field m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value)
      m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map field metrics))
