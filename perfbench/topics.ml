(* The AS6461 topic set shared by zipf_bulk, zipf_single and link_churn:
   Scenario topics with their delivery paths set up the way a publisher
   would (SPT, d candidates, fpr selection), each topic's reference
   outcome, and a Zipf publication stream over the topics that fit. *)

module Graph = Lipsin_topology.Graph
module Spt = Lipsin_topology.Spt
module Rng = Lipsin_util.Rng
module Assignment = Lipsin_core.Assignment
module Candidate = Lipsin_core.Candidate
module Select = Lipsin_core.Select
module Scenario = Lipsin_workload.Scenario
module Net = Lipsin_sim.Net
module Run = Lipsin_sim.Run
module Arena = Lipsin_sim.Arena
module Service = Lipsin_sim.Service

let draws = 2000
let stream_len = 1 lsl 16

(* A publication's outcome as the seven Service counters plus a digest
   of its delivery set. *)
type expect = {
  trav : int;
  fps : int;
  tests : int;
  fill : int;
  loop : int;
  local : int;
  reached : int;
  set : int;
}

let expect_of_outcome (o : Run.outcome) =
  let set = ref 0 and reached = ref 0 in
  Array.iteri
    (fun v r ->
      if r then begin
        incr reached;
        set := Mix.set_add !set v
      end)
    o.Run.reached;
  {
    trav = o.Run.link_traversals;
    fps = o.Run.false_positives;
    tests = o.Run.membership_tests;
    fill = o.Run.fill_drops;
    loop = o.Run.loop_drops;
    local = o.Run.local_deliveries;
    reached = !reached;
    set = !set;
  }

let expect_of_arena (a : Arena.t) =
  let set = ref 0 in
  for i = 0 to a.Arena.n_reached - 1 do
    set := Mix.set_add !set a.Arena.touched_nodes.(i)
  done;
  {
    trav = a.Arena.link_traversals;
    fps = a.Arena.false_positives;
    tests = a.Arena.membership_tests;
    fill = a.Arena.fill_drops;
    loop = a.Arena.loop_drops;
    local = a.Arena.local_deliveries;
    reached = a.Arena.n_reached;
    set = !set;
  }

let fingerprint e =
  Mix.list 0 [ e.trav; e.fps; e.tests; e.fill; e.loop; e.local; e.reached; e.set ]

(* The seven counter sums Service.run reports, as an array. *)
let sums_of_stats (st : Service.stats) =
  [|
    st.Service.st_link_traversals;
    st.Service.st_false_positives;
    st.Service.st_membership_tests;
    st.Service.st_fill_drops;
    st.Service.st_loop_drops;
    st.Service.st_local_deliveries;
    st.Service.st_nodes_reached;
  |]

let add_expect sums e =
  sums.(0) <- sums.(0) + e.trav;
  sums.(1) <- sums.(1) + e.fps;
  sums.(2) <- sums.(2) + e.tests;
  sums.(3) <- sums.(3) + e.fill;
  sums.(4) <- sums.(4) + e.loop;
  sums.(5) <- sums.(5) + e.local;
  sums.(6) <- sums.(6) + e.reached

type topic = {
  rank : int;
  src : Graph.node;
  subs : Graph.node list;
  tree : Graph.link list;
  chosen : Candidate.t;
  job : Service.job;
  expect : expect;
  eff : float;  (* Eq. 3 of the reference outcome *)
}

(* Time spent in path set-up, per layer, from the benchmark's calls. *)
type paths = { spt : Clock.acc; cands : Clock.acc; select : Clock.acc }

let paths () = { spt = Clock.acc (); cands = Clock.acc (); select = Clock.acc () }

let path_setup p asg ~src ~subs =
  let graph = Assignment.graph asg in
  let tree =
    Clock.time p.spt (fun () -> Spt.delivery_tree graph ~root:src ~subscribers:subs)
  in
  let cands = Clock.time p.cands (fun () -> Candidate.build asg ~tree) in
  let chosen =
    Clock.time p.select (fun () ->
        let test = Select.default_test_set asg ~tree in
        Select.select_fpr asg cands ~test)
  in
  (tree, chosen)

type t = {
  graph : Graph.t;
  asg : Assignment.t;
  topics : topic array;
  overfilled : int;  (* sampled topics over the 0.7 fill limit *)
  stream : int array;  (* topic index of each publication, cycled *)
  paths : paths;
  digest : int;
}

(* The sequential reference outcome every fast-path result is checked
   against. *)
let reference net (j : Service.job) =
  Run.deliver ~engine:`Reference net ~src:j.Service.job_src
    ~table:j.Service.job_table ~zfilter:j.Service.job_zfilter ~tree:j.Service.job_tree

(* Topic i is published with weight 1/rank_i, the Zipf popularity its
   rank was drawn from; weighting by rank (not by position in the set)
   spreads the popular head over many topics, so one seed's stream
   mean does not hinge on a handful of trees. *)
let zipf_stream rng topics n =
  let cum = Array.make (Array.length topics) 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun i tp ->
      total := !total +. (1.0 /. float_of_int tp.rank);
      cum.(i) <- !total)
    topics;
  Array.init n (fun _ ->
      let u = Rng.float rng !total in
      let lo = ref 0 and hi = ref (Array.length cum - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cum.(mid) <= u then lo := mid + 1 else hi := mid
      done;
      !lo)

let make ~seed =
  let rng = Rng.of_int seed in
  let graph = Lipsin_topology.As_presets.as6461 () in
  let asg = Assignment.make Lipsin_bloom.Lit.default (Rng.split rng) graph in
  let config = { Scenario.default with Scenario.seed = Rng.bits30 rng } in
  let loads = Scenario.sample config graph ~n:draws in
  let p = paths () in
  let ref_net = Net.make ~loop_prevention:false asg in
  let topics =
    Array.to_list loads
    |> List.filter_map (fun (l : Scenario.topic_load) ->
           let src = l.Scenario.publisher and subs = l.Scenario.subscribers in
           match path_setup p asg ~src ~subs with
           | _, None -> None
           | tree, Some chosen ->
             let job =
               {
                 Service.job_src = src;
                 job_table = chosen.Candidate.table;
                 job_zfilter = chosen.Candidate.zfilter;
                 job_tree = tree;
               }
             in
             let o = reference ref_net job in
             Some
               { rank = l.Scenario.rank; src; subs; tree; chosen; job;
                 expect = expect_of_outcome o;
                 eff = Run.forwarding_efficiency o ~tree })
    |> Array.of_list
  in
  let stream = zipf_stream (Rng.split rng) topics stream_len in
  let digest =
    let h = Array.fold_left (fun h n -> Mix.step h (Int64.to_int n)) 0 (Assignment.nonces asg) in
    let h =
      Array.fold_left
        (fun h tp ->
          Mix.list (Mix.step (Mix.step h tp.src) tp.chosen.Candidate.table) tp.subs)
        h topics
    in
    Array.fold_left Mix.step h stream
  in
  { graph; asg; topics; overfilled = draws - Array.length topics; stream;
    paths = p; digest }

(* Path set-up timings; [tag] marks set-up calls the workload's requests
   never make, such as partitioned_tail's premise check. *)
let layer_metrics ?(tag = "") p =
  [
    Report.m ("topology." ^ tag ^ "spt_us") "us" (Clock.mean_us p.spt);
    Report.m ("core." ^ tag ^ "candidates_us") "us" (Clock.mean_us p.cands);
    Report.m ("core." ^ tag ^ "select_fpr_us") "us" (Clock.mean_us p.select);
  ]

(* Traced-run decide, arena and compile timings over the stream's first
   [replay_sample] publications, on a fresh Net. *)
let replay_sample = 1024

let layer_replay tp =
  let net = Net.make ~loop_prevention:false tp.asg in
  let arena = Arena.create net in
  Arena.warm arena `Fast;
  let t = Replay.tally () in
  for p = 0 to replay_sample - 1 do
    let tpc = tp.topics.(tp.stream.(p)) in
    Replay.replay t
      [| { Replay.arena; src = tpc.src; table = tpc.chosen.Candidate.table;
           zfilter = tpc.chosen.Candidate.zfilter; tree = tpc.tree } |]
  done;
  let compile =
    Replay.compile_us net (List.init (Graph.node_count tp.graph) Fun.id)
  in
  (t, compile)
