type params = {
  min_th : float;
  max_th : float;
  max_p : float;
  wq : float;
  mean_packet_size : int;
}

let paper_params =
  { min_th = 5.0; max_th = 20.0; max_p = 0.02; wq = 0.002; mean_packet_size = 1000 }

type drop_stats = {
  mutable early : int;
  mutable forced : int;
  mutable buffer_full : int;
}

(* An all-float record is stored flat: the per-arrival update of [avg]
   is a plain float store, where a float field of [state] would box on
   every write. *)
type estimate = {
  mutable avg : float;
  mutable idle_since : float;  (* time the queue went empty, if [idle] *)
}

type state = {
  engine : Sim.Engine.t;
  params : params;
  rng : Sim.Rng.t;
  fifo : Packet.t Sim.Ring.t;
  mutable bytes : int;
  estimate : estimate;
  (* Inter-drop packet count since the last early/forced drop; -1 outside
     the [min_th, max_th) band, per Floyd & Jacobson Fig. 2. *)
  mutable count : int;
  mutable idle : bool;
  mean_service_time : float;  (* per mean-size packet, for idle decay *)
  drop_stats : drop_stats;
  queue_stats : Queue_disc.stats;
  on_drop : Packet.t -> unit;
}

let validate params =
  if params.min_th <= 0.0 || params.max_th <= params.min_th then
    invalid_arg "Red.create: need 0 < min_th < max_th";
  if params.max_p <= 0.0 || params.max_p > 1.0 then
    invalid_arg "Red.create: need 0 < max_p <= 1";
  if params.wq <= 0.0 || params.wq >= 1.0 then
    invalid_arg "Red.create: need 0 < wq < 1"

let drop t packet ~cause =
  t.queue_stats.dropped <- t.queue_stats.dropped + 1;
  t.queue_stats.bytes_dropped <-
    t.queue_stats.bytes_dropped + packet.Packet.size_bytes;
  (match cause with
  | `Early -> t.drop_stats.early <- t.drop_stats.early + 1
  | `Forced -> t.drop_stats.forced <- t.drop_stats.forced + 1
  | `Buffer_full -> t.drop_stats.buffer_full <- t.drop_stats.buffer_full + 1);
  t.on_drop packet;
  false

let accept t packet =
  Sim.Ring.push t.fifo packet;
  t.bytes <- t.bytes + packet.Packet.size_bytes;
  t.queue_stats.enqueued <- t.queue_stats.enqueued + 1;
  true

(* Decay the average across an idle period as if [m] mean-size packets
   had been serviced from an empty queue. *)
let update_average t =
  let e = t.estimate in
  if t.idle then begin
    let idle = Sim.Engine.now t.engine -. e.idle_since in
    let m = idle /. t.mean_service_time in
    if m > 0.0 then e.avg <- e.avg *. ((1.0 -. t.params.wq) ** m);
    t.idle <- false
  end;
  let q = float_of_int (Sim.Ring.length t.fifo) in
  e.avg <- ((1.0 -. t.params.wq) *. e.avg) +. (t.params.wq *. q)

let enqueue t packet =
  update_average t;
  let p = t.params in
  let avg = t.estimate.avg in
  if avg >= p.max_th then begin
    t.count <- 0;
    drop t packet ~cause:`Forced
  end
  else if avg >= p.min_th then begin
    t.count <- t.count + 1;
    let pb = p.max_p *. (avg -. p.min_th) /. (p.max_th -. p.min_th) in
    let denominator = 1.0 -. (float_of_int t.count *. pb) in
    let pa = if denominator <= 0.0 then 1.0 else pb /. denominator in
    if Sim.Rng.bernoulli t.rng pa then begin
      t.count <- 0;
      drop t packet ~cause:`Early
    end
    else if Sim.Ring.is_full t.fifo then begin
      t.count <- 0;
      drop t packet ~cause:`Buffer_full
    end
    else accept t packet
  end
  else begin
    t.count <- -1;
    if Sim.Ring.is_full t.fifo then
      drop t packet ~cause:`Buffer_full
    else accept t packet
  end

let dequeue t () =
  if Sim.Ring.is_empty t.fifo then None
  else begin
    let packet = Sim.Ring.pop t.fifo in
    t.bytes <- t.bytes - packet.Packet.size_bytes;
    t.queue_stats.dequeued <- t.queue_stats.dequeued + 1;
    if Sim.Ring.is_empty t.fifo then begin
      t.idle <- true;
      t.estimate.idle_since <- Sim.Engine.now t.engine
    end;
    Some packet
  end

let create_with_probe ~engine ~capacity ~params ~rng ~bandwidth_bps
    ?(on_drop = fun _ -> ()) () =
  if capacity < 1 then invalid_arg "Red.create: capacity < 1";
  validate params;
  if bandwidth_bps <= 0.0 then invalid_arg "Red.create: bandwidth <= 0";
  let mean_service_time =
    Sim.Units.transmission_time ~size_bytes:params.mean_packet_size
      ~bandwidth_bps
  in
  let t =
    {
      engine;
      params;
      rng;
      fifo = Queue_disc.fifo ~capacity;
      bytes = 0;
      estimate = { avg = 0.0; idle_since = 0.0 };
      count = -1;
      idle = false;
      mean_service_time;
      drop_stats = { early = 0; forced = 0; buffer_full = 0 };
      queue_stats = Queue_disc.fresh_stats ();
      on_drop;
    }
  in
  let disc =
    Queue_disc.make ~name:"red"
      ~enqueue:(fun packet -> enqueue t packet)
      ~dequeue:(dequeue t)
      ~length:(fun () -> Sim.Ring.length t.fifo)
      ~byte_length:(fun () -> t.bytes)
      ~stats:t.queue_stats ()
  in
  (disc, t.drop_stats, fun () -> t.estimate.avg)

let create ~engine ~capacity ~params ~rng ~bandwidth_bps ?on_drop () =
  let disc, drops, _probe =
    create_with_probe ~engine ~capacity ~params ~rng ~bandwidth_bps ?on_drop ()
  in
  (disc, drops)
