type stats = {
  mutable enqueued : int;
  mutable dropped : int;
  mutable dequeued : int;
  mutable bytes_dropped : int;
}

type event = Enqueued | Dropped | Dequeued

type t = {
  name : string;
  enqueue : Packet.t -> bool;
  dequeue : unit -> Packet.t option;
  length : unit -> int;
  byte_length : unit -> int;
  stats : stats;
  observers : (event -> Packet.t -> unit) list ref;
}

let fresh_stats () =
  { enqueued = 0; dropped = 0; dequeued = 0; bytes_dropped = 0 }

(* Fills the ring's free slots; never handed out. *)
let placeholder =
  Packet.data ~uid:(-1) ~flow:(-1) ~seq:0 ~size_bytes:0 ~born:0.0

let fifo ~capacity = Sim.Ring.create ~dummy:placeholder ~limit:capacity

let subscribe t f = t.observers := !(t.observers) @ [ f ]

(* A top-level loop: [List.iter (fun f -> f event packet)] would build
   that closure on every event. *)
let rec notify event packet = function
  | [] -> ()
  | f :: rest ->
    f event packet;
    notify event packet rest

(* The smart constructor owns event dispatch, so concrete disciplines
   only implement accept/drop/service policy and every discipline gets
   the same observer semantics for free. *)
let make ~name ~enqueue ~dequeue ~length ~byte_length ~stats () =
  let observers = ref [] in
  let enqueue packet =
    let accepted = enqueue packet in
    (match !observers with
    | [] -> ()
    | subscribers ->
      notify (if accepted then Enqueued else Dropped) packet subscribers);
    accepted
  in
  let dequeue () =
    let next = dequeue () in
    (match (next, !observers) with
    | None, _ | _, [] -> ()
    | Some packet, subscribers -> notify Dequeued packet subscribers);
    next
  in
  { name; enqueue; dequeue; length; byte_length; stats; observers }
