let uniform ~rng ~rate ?(data_only = true) ?(on_drop = fun _ -> ()) next =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Loss.uniform: bad rate";
  fun packet ->
    let eligible = (not data_only) || Packet.is_data packet in
    if eligible && Sim.Rng.bernoulli rng rate then on_drop packet
    else next packet

type rule = { flow : int; seq : int; occurrence : int }

(* A rule that has not fired yet, with the passes of its segment
   counted so far. *)
type pending = { fires_at : int; mutable passes : int }

let drop_list ~rules ?(on_drop = fun _ -> ()) next =
  (* Only segments a rule names are counted, and a rule's counter goes
     when it fires, so neither table outgrows the rule list. [ruled]
     screens every other data segment with an int-keyed lookup that
     allocates nothing. *)
  let pending : (int * int, pending) Hashtbl.t = Hashtbl.create 16 in
  let ruled : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun { flow; seq; occurrence } ->
      if occurrence < 1 then invalid_arg "Loss.drop_list: occurrence < 1";
      Hashtbl.replace pending (flow, seq) { fires_at = occurrence; passes = 0 };
      Hashtbl.replace ruled seq ())
    rules;
  fun packet ->
    if not (Packet.is_data packet) then next packet
    else
      let seq = Packet.seq_exn packet in
      if not (Hashtbl.mem ruled seq) then next packet
      else
        let key = (packet.Packet.flow, seq) in
        match Hashtbl.find_opt pending key with
        | Some rule ->
          rule.passes <- rule.passes + 1;
          if rule.passes = rule.fires_at then begin
            Hashtbl.remove pending key;
            on_drop packet
          end
          else next packet
        | None -> next packet
