(* Command-line entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints one line per metric and, as its last line, the JSON result.
   Exits 1 when an operation failed and 2 on bad arguments. *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" Perfbench.Workloads.names
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref None
  and seed = ref Perfbench.Workloads.default_seed
  and seconds = ref 10.0
  and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w Perfbench.Workloads.names ->
      workload := Some w;
      parse rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
      seed := int_of_string n;
      parse rest
    | "--seconds" :: s :: rest when Option.is_some (float_of_string_opt s) ->
      seconds := float_of_string s;
      parse rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
      trace := t = "1";
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload = match !workload with Some w -> w | None -> usage () in
  let r =
    Perfbench.Bench.run ~size:Perfbench.Workloads.full ~workload ~seed:!seed ~seconds:!seconds
      ~trace:!trace
  in
  Option.iter (Printf.printf "digest %s\n") r.digest;
  List.iter
    (fun (m : Perfbench.Report.metric) ->
      Printf.printf "%-42s %.6g %s\n" m.name m.value m.unit_)
    r.metrics;
  print_endline
    (Perfbench.Report.to_json ~correct:r.correct ~attempted:r.attempted
       ~failed:r.failed r.metrics);
  exit (if r.correct then 0 else 1)
