(* Layer timings for the traced run.  Publications are replayed outside
   the service, sequentially, on the benchmark's own Nets: each hop (the
   source, then one per traversed link, as Run.deliver reports them)
   goes through Fastpath.decide on the Net's compiled engines, and the
   whole publication through Arena.deliver.  Counts come from one pass
   over a fixed sample, so they repeat exactly for one seed; times are
   the median of [reps] passes. *)

module Graph = Lipsin_topology.Graph
module Fastpath = Lipsin_forwarding.Fastpath
module Net = Lipsin_sim.Net
module Run = Lipsin_sim.Run
module Arena = Lipsin_sim.Arena
module Service = Lipsin_sim.Service

let reps = 3

(* One delivery run of a publication; a partitioned publication is
   several, one per stage. *)
type item = {
  arena : Arena.t;
  src : Graph.node;
  table : int;
  zfilter : Lipsin_bloom.Zfilter.t;
  tree : Graph.link list;
}

type tally = {
  mutable pubs : int;
  mutable decides : int;
  mutable tests : int;
  mutable decide_ns : int;
  mutable arena_ns : int;
}

let tally () = { pubs = 0; decides = 0; tests = 0; decide_ns = 0; arena_ns = 0 }

let median_ns f =
  let xs = Array.init reps (fun _ ->
      let t0 = Clock.now () in
      f ();
      float_of_int (Clock.now () - t0))
  in
  int_of_float (Loop.median xs)

let replay t (group : item array) =
  let hops =
    Array.map
      (fun it ->
        let net = Arena.net it.arena in
        let o =
          Run.deliver ~engine:`Fast net ~src:it.src ~table:it.table
            ~zfilter:it.zfilter ~tree:it.tree
        in
        let pairs = (it.src, -1) :: List.map (fun l -> (l.Graph.dst, l.Graph.index)) o.Run.traversed in
        Array.of_list (List.map (fun (v, l) -> (Net.fastpath net v, l)) pairs))
      group
  in
  t.pubs <- t.pubs + 1;
  Array.iteri
    (fun i hs ->
      let it = group.(i) in
      Array.iter
        (fun (fp, in_link_index) ->
          let d = Fastpath.decide fp ~table:it.table ~zfilter:it.zfilter ~in_link_index in
          t.decides <- t.decides + 1;
          t.tests <- t.tests + d.Fastpath.tests)
        hs)
    hops;
  t.decide_ns <-
    t.decide_ns
    + median_ns (fun () ->
          Array.iteri
            (fun i hs ->
              let it = group.(i) in
              Array.iter
                (fun (fp, in_link_index) ->
                  ignore (Fastpath.decide fp ~table:it.table ~zfilter:it.zfilter ~in_link_index))
                hs)
            hops);
  Array.iter (fun it -> Arena.prepare it.arena `Fast) group;
  t.arena_ns <-
    t.arena_ns
    + median_ns (fun () ->
          Array.iter
            (fun it ->
              Arena.set_tree it.arena it.tree;
              Arena.deliver it.arena ~src:it.src ~table:it.table ~zfilter:it.zfilter)
            group)

let per_pub t n = if t.pubs = 0 then 0.0 else float_of_int n /. float_of_int t.pubs
let decide_ns t = if t.decides = 0 then 0.0 else float_of_int t.decide_ns /. float_of_int t.decides
let arena_us t = per_pub t t.arena_ns /. 1e3
let arena_self_us t = arena_us t -. (per_pub t t.decides *. decide_ns t /. 1e3)

let metrics t =
  [
    Report.m "forwarding.decide_ns" "ns" (decide_ns t);
    Report.m "forwarding.decides_per_pub" "count" (per_pub t t.decides);
    Report.m "forwarding.tests_per_pub" "count" (per_pub t t.tests);
    Report.m "sim.arena_deliver_us" "us" (arena_us t);
    Report.m "sim.arena_self_us" "us" (arena_self_us t);
  ]

let counts t =
  [ ("replay.pubs", t.pubs); ("replay.decides", t.decides); ("replay.tests", t.tests) ]

(* Mean cost of compiling one node's fast path: Net.fastpath right after
   Net.invalidate_fastpath. *)
let compile_us net nodes =
  let a = Clock.acc () in
  List.iter
    (fun v ->
      Net.invalidate_fastpath net v;
      ignore (Clock.time a (fun () -> Net.fastpath net v)))
    nodes;
  Report.m "forwarding.compile_us" "us" (Clock.mean_us a)

(* The dispatch/wake/completion handshake alone: empty Service.run. *)
let roundtrip_us svc =
  Loop.median
    (Array.init 2000 (fun _ ->
         let t0 = Clock.now () in
         ignore (Service.run svc [||]);
         float_of_int (Clock.now () - t0) /. 1e3))
