type gateway = Dumbbell_config.gateway =
  | Droptail of { capacity : int }
  | Red of { capacity : int; params : Red.params }

type direction = Dumbbell_config.direction = Forward | Backward

type config = Dumbbell_config.t = {
  flows : int;
  side_bandwidth_bps : float;
  side_delay : float;
  bottleneck_bandwidth_bps : float;
  bottleneck_delay : float;
  gateway : gateway;
  access_capacity : int;
  reverse_capacity : int;
}

let paper_config = Dumbbell_config.paper

let bottleneck_link = "gateway"

let reverse_trunk_link = "reverse_gateway"

let queue_names ~flows =
  let per prefix = List.init flows (Printf.sprintf "%s%d" prefix) in
  (bottleneck_link :: reverse_trunk_link :: per "access_fwd")
  @ per "access_rev" @ per "exit_fwd" @ per "exit_rev"

let create ~engine ~config ~rng ?taps ?on_drop ?side_delays ?directions () =
  let spec, flows = Topology.dumbbell ~config ?side_delays ?directions () in
  Topology.create ~engine ~spec ~rng ?taps ?on_drop ~flows ()
