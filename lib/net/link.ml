(* Each in-flight packet is tracked by one [delivery] record that fires
   twice: once when serialization completes (put the packet on the wire,
   start serving the next one) and once when propagation completes (hand
   the packet to [dst]). The record and its single closure are recycled
   through a per-link array stack, so the steady-state per-packet cost
   is two no-handle engine events and no link-side record, option or
   closure — where it used to be two fresh nested closures plus two
   cancellable handles. *)

type delivery = {
  mutable packet : Packet.t;
  (* false: awaiting end of serialization; true: on the wire. *)
  mutable in_flight : bool;
  mutable fire : unit -> unit;
}

(* A one-field all-float record is stored flat: updating [v] is a plain
   float store, where a float field in the mixed link record below
   would allocate a box per write — and [last_arrival] is written once
   per packet. *)
type fcell = { mutable v : float }

type t = {
  engine : Sim.Engine.t;
  mutable bandwidth_bps : float;
  mutable delay : float;
  queue : Queue_disc.t;
  dst : Packet.t -> unit;
  mutable busy : bool;
  mutable up : bool;
  mutable delivered : int;
  (* Latest wire-exit time scheduled so far. A delay *decrease* mid-run
     could otherwise let a packet entering the wire overtake one already
     propagating; clamping to this keeps deliveries FIFO per link. With
     a constant delay the clamp never binds, so static links schedule
     exactly the times they always did. *)
  last_arrival : fcell;
  (* Recycled deliveries: [free.(0 .. n_free - 1)] is the stack. Slots
     above it may hold stale records; they are never read. *)
  mutable free : delivery array;
  mutable n_free : int;
}

let create ~engine ~bandwidth_bps ~delay ~queue ~dst () =
  if bandwidth_bps <= 0.0 then invalid_arg "Link.create: bandwidth <= 0";
  if delay < 0.0 then invalid_arg "Link.create: negative delay";
  {
    engine;
    bandwidth_bps;
    delay;
    queue;
    dst;
    busy = false;
    up = true;
    delivered = 0;
    last_arrival = { v = neg_infinity };
    free = [||];
    n_free = 0;
  }

let queue t = t.queue

let busy t = t.busy

let delivered t = t.delivered

let release t d =
  if t.n_free = Array.length t.free then begin
    let grown = Array.make (max 4 (2 * t.n_free)) d in
    Array.blit t.free 0 grown 0 t.n_free;
    t.free <- grown
  end;
  Array.unsafe_set t.free t.n_free d;
  t.n_free <- t.n_free + 1

(* Serve the queue head: serialize for size/bandwidth, then put the
   packet on the wire (delivery [delay] later) and start on the next
   queued packet, if any. A down link refuses to start serializing —
   administrative transitions bind at packet boundaries. *)
let rec transmit_next t =
  if not t.up then t.busy <- false
  else
    match t.queue.Queue_disc.dequeue () with
    | None -> t.busy <- false
    | Some packet ->
    t.busy <- true;
    (* [Sim.Units.transmission_time], open-coded: a float returned from
       another module is boxed. Same expression, same bits. *)
    let tx_time =
      8.0 *. float_of_int packet.Packet.size_bytes /. t.bandwidth_bps
    in
    let d =
      if t.n_free > 0 then begin
        t.n_free <- t.n_free - 1;
        let d = Array.unsafe_get t.free t.n_free in
        d.packet <- packet;
        d.in_flight <- false;
        d
      end
      else begin
        let d = { packet; in_flight = false; fire = ignore } in
        d.fire <- (fun () -> fire_delivery t d);
        d
      end
    in
    Sim.Engine.schedule_unit t.engine ~delay:tx_time d.fire

and fire_delivery t d =
  if not d.in_flight then begin
    d.in_flight <- true;
    (* Open-coded [Float.max]: a function call would box per packet.
       Neither operand is ever NaN. *)
    let exit = Sim.Engine.now t.engine +. t.delay in
    let at = if exit > t.last_arrival.v then exit else t.last_arrival.v in
    t.last_arrival.v <- at;
    Sim.Engine.schedule_unit_at t.engine ~time:at d.fire;
    transmit_next t
  end
  else begin
    let packet = d.packet in
    release t d;
    t.delivered <- t.delivered + 1;
    t.dst packet
  end

let send t packet =
  if t.queue.Queue_disc.enqueue packet && not t.busy then transmit_next t

let is_up t = t.up

let set_up t up =
  if t.up <> up then begin
    t.up <- up;
    if up && not t.busy then transmit_next t
  end

(* Rate and delay changes bind at packet boundaries, like [set_up]: the
   serialization time of the packet currently on the interface was
   computed when it started, so it finishes at the old rate; [t.delay]
   is read the moment a packet leaves the interface, so a delay change
   applies from the next wire entry on. Neither setter reschedules
   anything, which keeps the setters O(1) and the event stream of an
   unchanged link byte-identical. *)

let rate_bps t = t.bandwidth_bps

let delay t = t.delay

let set_rate t bandwidth_bps =
  if bandwidth_bps <= 0.0 then invalid_arg "Link.set_rate: bandwidth <= 0";
  t.bandwidth_bps <- bandwidth_bps

let set_delay t delay =
  if delay < 0.0 then invalid_arg "Link.set_delay: negative delay";
  t.delay <- delay
