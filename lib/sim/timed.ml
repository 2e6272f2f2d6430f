module Graph = Lipsin_topology.Graph
module Spt = Lipsin_topology.Spt
module Stats = Lipsin_util.Stats

type config = { node_us : float; link_us : float }

let default = { node_us = 3.0; link_us = 0.5 }

type arrival = { node : Graph.node; time_us : float; depth : int }

(* Every hop costs the same, so a node's earliest arrival is its
   first-reach BFS depth times the per-hop cost. *)
let deliver ?(config = default) net ~src ~table ~zfilter =
  Net.tick net;
  let a = Arena.create net in
  Arena.set_tree a [];
  Arena.run a ~mode:Arena.Expand_once ~engine:`Reference ~loss:None
    ~trace:Lipsin_obs.Obs.Trace.off ~stage:(-1) ~src ~table ~zfilter;
  let per_hop = config.node_us +. config.link_us in
  List.init a.Arena.n_reached (fun i ->
      let depth = a.Arena.reach_depth.(i) in
      { node = a.Arena.touched_nodes.(i); time_us = float_of_int depth *. per_hop; depth })
  |> List.sort (fun x y ->
         match compare x.time_us y.time_us with 0 -> compare x.node y.node | c -> c)

let latency_to arrivals node =
  List.find_map
    (fun a -> if a.node = node then Some a.time_us else None)
    arrivals

let subscriber_latencies arrivals subscribers =
  let latencies = List.map (latency_to arrivals) subscribers in
  if List.exists Option.is_none latencies then None
  else
    Some (Stats.summarize (Array.of_list (List.map Option.get latencies)))

let overlay_equivalent_latency ?(config = default) graph ~src ~relays ~dst =
  (* Underlay hops still cost node+link each; every overlay relay adds
     a full user-space bounce on top. *)
  let endhost_us = 20.0 *. config.node_us in
  let per_hop = config.node_us +. config.link_us in
  let legs = relays @ [ dst ] in
  let rec total from acc = function
    | [] -> acc
    | next :: rest ->
      let dist = (Spt.distances graph ~root:from).(next) in
      if dist = max_int then invalid_arg "Timed.overlay_equivalent_latency: unreachable";
      let bounce = if rest = [] then 0.0 else endhost_us in
      total next (acc +. (float_of_int dist *. per_hop) +. bounce) rest
  in
  total src 0.0 legs
