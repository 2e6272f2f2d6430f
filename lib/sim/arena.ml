module Graph = Lipsin_topology.Graph
module Node_engine = Lipsin_forwarding.Node_engine
module Fastpath = Lipsin_forwarding.Fastpath
module Rows = Lipsin_forwarding.Rows
module Assignment = Lipsin_core.Assignment
module Lit = Lipsin_bloom.Lit
module Zfilter = Lipsin_bloom.Zfilter
module Rng = Lipsin_util.Rng
module Obs = Lipsin_obs.Obs

(* The one delivery loop.  Every array is sized once from the topology
   and reused across publications: delivery-set and seen-link bitmaps
   are reset in O(touched) via the touched stacks, the BFS frontier is a
   flat ring (each link is traversed at most once in expand-once mode,
   so [link_count + 1] slots bound it), every hop reads the Net's own
   compiled-engine array (so invalidations and restitches are seen at
   once), and the publication's zFilter is loaded once into [filter]
   and shared by every hop.  The rare cases — the reference engine,
   TTL mode, loss and sampled tracing — are per-publication inputs,
   each tested by one predictable branch.  The result: [deliver] and
   [run] are certified [@lipsin.noalloc] roots — zero minor words per
   expand-once [`Fast] publication in steady state, once every reached
   node is compiled. *)

type mode = Expand_once | Ttl of int
type engine = [ `Reference | `Fast ]
type loss = { probability : float; rng : Rng.t }

let ttl_event_cap = 200_000

type t = {
  net : Net.t;
  graph : Graph.t;
  n_nodes : int;
  n_links : int;
  fps : Fastpath.t option array;  (* the Net's compiled engines, shared *)
  filter : Rows.filter;  (* the current publication's loaded zFilter *)
  (* the current publication's inputs *)
  mutable zfilter : Zfilter.t;
  mutable mode : mode;
  mutable engine : engine;
  mutable loss : loss option;
  mutable tracing : bool;
  mutable packet : int;
  mutable stage : int;
  (* recycled delivery set: reached bitmap + touched stack + the depth
     at which each node was first reached (latency histogram feed) *)
  reached : bool array;
  touched_nodes : int array;
  reach_depth : int array;
  mutable n_reached : int;
  (* recycled seen-link bitmap (Expand_once dedup) + traversal log *)
  seen_link : bool array;
  mutable touched_links : int array;
  mutable n_seen : int;
  (* intended-tree bitmaps; [set_tree] swaps them between publications *)
  on_tree : bool array;
  tree_traversed : bool array;
  mutable tree : Graph.link list;
  (* flat BFS ring: (node, dense in-link index | -1, depth) *)
  mutable q_node : int array;
  mutable q_in : int array;
  mutable q_depth : int array;
  mutable q_head : int;
  mutable q_tail : int;
  (* per-publication tallies *)
  mutable link_traversals : int;
  mutable false_positives : int;
  mutable membership_tests : int;
  mutable fill_drops : int;
  mutable loop_drops : int;
  mutable local_deliveries : int;
  mutable deliveries : int;
  mutable over_delivery : int;
  mutable ttl_expired : int;
  mutable lost : int;
  (* stitch hits (node, partition, next stage) in BFS order; the first
     [stitch_matches] slots are valid, and the buffers double on demand *)
  mutable stitch_matches : int;
  mutable hit_node : int array;
  mutable hit_partition : int array;
  mutable hit_next : int array;
}

let initial_hits = 8

let create net =
  let graph = Net.graph net in
  let n_nodes = Graph.node_count graph in
  let n_links = Graph.link_count graph in
  let m = (Assignment.params (Net.assignment net)).Lit.m in
  {
    net;
    graph;
    n_nodes;
    n_links;
    fps = Net.compiled net;
    filter = Rows.filter ~m;
    zfilter = Zfilter.create ~m;
    mode = Expand_once;
    engine = `Fast;
    loss = None;
    tracing = false;
    packet = -1;
    stage = -1;
    reached = Array.make n_nodes false;
    touched_nodes = Array.make n_nodes 0;
    reach_depth = Array.make n_nodes 0;
    n_reached = 0;
    seen_link = Array.make (max 1 n_links) false;
    touched_links = Array.make (max 1 n_links) 0;
    n_seen = 0;
    on_tree = Array.make (max 1 n_links) false;
    tree_traversed = Array.make (max 1 n_links) false;
    tree = [];
    q_node = Array.make (n_links + 1) 0;
    q_in = Array.make (n_links + 1) 0;
    q_depth = Array.make (n_links + 1) 0;
    q_head = 0;
    q_tail = 0;
    link_traversals = 0;
    false_positives = 0;
    membership_tests = 0;
    fill_drops = 0;
    loop_drops = 0;
    local_deliveries = 0;
    deliveries = 0;
    over_delivery = 0;
    ttl_expired = 0;
    lost = 0;
    stitch_matches = 0;
    hit_node = Array.make initial_hits 0;
    hit_partition = Array.make initial_hits 0;
    hit_next = Array.make initial_hits 0;
  }

let net a = a.net

(* Compile every node the Net has not compiled yet, in one batch, so no
   later publication takes a cold miss.  [`Fast] is the only compiled
   engine; the argument stays because the benchmark harness passes it. *)
let warm a `Fast =
  for v = 0 to a.n_nodes - 1 do
    ignore (Net.fastpath a.net v)
  done

let prepare = warm

(* Swapping the intended tree clears the previous tree's bits; the
   common soak case (same physical tree object) is free.
   [tree_traversed] needs no sweep here: only traversed links are ever
   set, and [reset] clears exactly those. *)
(* Tupled-looking (uncurried) helpers: a trailing [function] would be
   a nested lambda in the typed tree, which alloccheck counts as a
   closure allocation under a noalloc root. *)
let rec clear_marks marks links =
  match links with
  | [] -> ()
  | l :: rest ->
    Array.set marks l.Graph.index false;
    clear_marks marks rest

let rec set_marks marks links =
  match links with
  | [] -> ()
  | l :: rest ->
    Array.set marks l.Graph.index true;
    set_marks marks rest

let[@lipsin.noalloc] set_tree a tree =
  if not (tree == a.tree) then begin
    clear_marks a.on_tree a.tree;
    set_marks a.on_tree tree;
    a.tree <- tree
  end

let[@lipsin.noalloc] reset a =
  let tn = a.touched_nodes in
  let r = a.reached in
  for i = 0 to a.n_reached - 1 do
    Array.set r (Array.get tn i) false
  done;
  a.n_reached <- 0;
  let tl = a.touched_links in
  let s = a.seen_link in
  let tt = a.tree_traversed in
  for i = 0 to a.n_seen - 1 do
    let li = Array.get tl i in
    Array.set s li false;
    Array.set tt li false
  done;
  a.n_seen <- 0;
  a.q_head <- 0;
  a.q_tail <- 0;
  a.link_traversals <- 0;
  a.false_positives <- 0;
  a.membership_tests <- 0;
  a.fill_drops <- 0;
  a.loop_drops <- 0;
  a.local_deliveries <- 0;
  a.deliveries <- 0;
  a.over_delivery <- 0;
  a.ttl_expired <- 0;
  a.lost <- 0;
  a.stitch_matches <- 0

(* [Rng.float] returns a boxed float. *)
let lose l = Rng.float l.rng 1.0 < l.probability

(* Doubles [b], keeping its first [n] slots. *)
let doubled b n =
  let b' = Array.make (2 * Array.length b) 0 in
  Array.blit b 0 b' 0 n;
  b'

(* TTL mode may traverse a link many times: the traversal log and the
   ring double when full, bounded by [ttl_event_cap]. *)
let make_room a =
  if a.n_seen = Array.length a.touched_links then
    a.touched_links <- doubled a.touched_links a.n_seen;
  if a.q_tail = Array.length a.q_node then begin
    a.q_node <- doubled a.q_node a.q_tail;
    a.q_in <- doubled a.q_in a.q_tail;
    a.q_depth <- doubled a.q_depth a.q_tail
  end

(* One traversal of the link with dense index [li] towards [dst],
   decided at hop [depth]: logged and classified against the intended
   tree; unless the loss model drops it, the copy reaches [dst] and
   joins the frontier.  The caller guarantees room in the log and the
   ring. *)
let[@inline] [@lipsin.noalloc] traverse a li dst depth =
  Array.set a.touched_links a.n_seen li;
  a.n_seen <- a.n_seen + 1;
  a.link_traversals <- a.link_traversals + 1;
  if Array.get a.on_tree li then Array.set a.tree_traversed li true
  else a.over_delivery <- a.over_delivery + 1;
  match a.loss with
  | Some l
    when (lose l
         [@lipsin.allow_alloc
           "loss draw: Rng.float boxes; only publications with a loss \
            model draw"]) ->
    a.lost <- a.lost + 1
  | Some _ | None ->
    if not (Array.get a.reached dst) then begin
      Array.set a.reached dst true;
      Array.set a.touched_nodes a.n_reached dst;
      Array.set a.reach_depth a.n_reached (depth + 1);
      a.n_reached <- a.n_reached + 1;
      a.deliveries <- a.deliveries + 1
    end;
    let t = a.q_tail in
    Array.set a.q_node t dst;
    Array.set a.q_in t li;
    Array.set a.q_depth t (depth + 1);
    a.q_tail <- t + 1

(* One admitted copy on link [li] towards [dst], decided at hop
   [depth].  A match off the intended tree is a false positive whether
   or not the copy then travels.  Expand-once traverses each link at
   most once; TTL mode derives the copy's TTL from its depth, refuses
   it at zero, and stops at [ttl_event_cap] traversals — a looping
   filter can replicate exponentially, and the cap bounds the
   simulation the way finite link capacity bounds a real network. *)
let[@lipsin.noalloc] propagate a li dst depth =
  if not (Array.get a.on_tree li) then
    a.false_positives <- a.false_positives + 1;
  match a.mode with
  | Expand_once ->
    if not (Array.get a.seen_link li) then begin
      Array.set a.seen_link li true;
      traverse a li dst depth
    end
  | Ttl ttl0 ->
    if ttl0 - depth <= 0 then a.ttl_expired <- a.ttl_expired + 1
    else if a.link_traversals < ttl_event_cap then begin
      (make_room a
      [@lipsin.allow_alloc
        "TTL growth: re-traversals can outgrow the link-sized log and \
         ring; expand-once never gets here"]);
      traverse a li dst depth
    end

(* Appends one stitch hit, doubling the buffers when full. *)
let[@lipsin.noalloc] push_hit a node partition next =
  if a.stitch_matches = Array.length a.hit_node then begin
    let n = a.stitch_matches in
    (a.hit_node <- doubled a.hit_node n;
     a.hit_partition <- doubled a.hit_partition n;
     a.hit_next <- doubled a.hit_next n)
    [@lipsin.allow_alloc
      "hit buffers double on demand; only staged delivery matches stitch \
       entries, and its arenas keep their grown buffers"]
  end;
  let k = a.stitch_matches in
  Array.set a.hit_node k node;
  Array.set a.hit_partition k partition;
  Array.set a.hit_next k next;
  a.stitch_matches <- k + 1

(* Appends the decision's stitch payloads at [node], in match order. *)
let[@lipsin.noalloc] note_hits a fp (d : Fastpath.decision) node =
  for i = 0 to d.Fastpath.n_stitch - 1 do
    let s = Array.get d.Fastpath.stitches i in
    push_hit a node (Fastpath.stitch_partition fp s) (Fastpath.stitch_next fp s)
  done

let trace_kind_of_drop = function
  | None -> Obs.Trace.Hop
  | Some Node_engine.Fill_limit_exceeded -> Obs.Trace.Drop_fill
  | Some Node_engine.Loop_detected -> Obs.Trace.Drop_loop
  | Some Node_engine.Bad_table -> Obs.Trace.Drop_bad_table

(* One sampled hop's trace event.  The copies it sent are the ring
   slots the hop appended since [tail0]; its false-positive flag and
   TTL refusals are the tallies' deltas since [fp0] and [ttl0]. *)
let record_hop a ~table ~engine ~drop ~loop_suspected ~deliver_local ~node
    ~in_link ~depth ~tail0 ~fp0 ~ttl0 =
  Obs.Trace.record (Obs.Trace.local ()) ~table ~engine ~stage:a.stage ~depth
    ~packet:a.packet ~node ~in_link ~kind:(trace_kind_of_drop drop)
    ~out_links:(Array.sub a.q_in tail0 (a.q_tail - tail0))
    ~false_positive:(a.false_positives > fp0) ~loop_suspected ~deliver_local
    ~ttl_expired:(a.ttl_expired - ttl0)

(* One hop on the reference engine: the same tallies, hits and
   propagation as the compiled hop, from [Node_engine.forward]'s
   verdict. *)
let reference_hop a ~table node in_link depth =
  let tail0 = a.q_tail and fp0 = a.false_positives and ttl0 = a.ttl_expired in
  let v =
    Node_engine.forward (Net.engine a.net node) ~table ~zfilter:a.zfilter
      ~in_link:(if in_link < 0 then None else Some (Graph.link a.graph in_link))
  in
  a.membership_tests <- a.membership_tests + v.Node_engine.false_positive_tests;
  if v.Node_engine.deliver_local then
    a.local_deliveries <- a.local_deliveries + 1;
  (match v.Node_engine.drop with
  | Some Node_engine.Fill_limit_exceeded -> a.fill_drops <- a.fill_drops + 1
  | Some Node_engine.Loop_detected -> a.loop_drops <- a.loop_drops + 1
  | Some Node_engine.Bad_table | None -> ());
  List.iter (fun (pid, next) -> push_hit a node pid next)
    v.Node_engine.stitches_matched;
  List.iter
    (fun l -> propagate a l.Graph.index l.Graph.dst depth)
    v.Node_engine.forward_on;
  if a.tracing then
    record_hop a ~table ~engine:Obs.Trace.engine_reference
      ~drop:v.Node_engine.drop ~loop_suspected:v.Node_engine.loop_suspected
      ~deliver_local:v.Node_engine.deliver_local ~node ~in_link ~depth ~tail0
      ~fp0 ~ttl0

(* The BFS over the Net's engines, collecting stitch hits in BFS order
   and, within a node, in match order. *)
let[@lipsin.noalloc] run_queue a ~table =
  let filter = a.filter in
  while a.q_head < a.q_tail do
    let h = a.q_head in
    a.q_head <- h + 1;
    let node = Array.get a.q_node h in
    let in_link_index = Array.get a.q_in h in
    let depth = Array.get a.q_depth h in
    match a.engine with
    | `Reference ->
      (reference_hop a ~table node in_link_index depth
      [@lipsin.allow_alloc
        "reference decision: Node_engine.forward builds its verdict lists"])
    | `Fast ->
      let tail0 = a.q_tail and fp0 = a.false_positives
      and ttl0 = a.ttl_expired in
      let fp =
        match Array.get a.fps node with
        | Some fp -> fp
        | None ->
          (Net.fastpath a.net node
          [@lipsin.allow_alloc
            "cold miss: the first reach of a node since the Net was made or \
             the node invalidated compiles it once; [warm] takes them all \
             up front"])
      in
      let d = Fastpath.decide_loaded fp ~table ~filter ~in_link_index in
      a.membership_tests <- a.membership_tests + d.Fastpath.tests;
      if d.Fastpath.deliver_local then
        a.local_deliveries <- a.local_deliveries + 1;
      if d.Fastpath.drop = Fastpath.drop_fill then
        a.fill_drops <- a.fill_drops + 1
      else if d.Fastpath.drop = Fastpath.drop_loop then
        a.loop_drops <- a.loop_drops + 1;
      if d.Fastpath.n_stitch > 0 then note_hits a fp d node;
      let fwd = d.Fastpath.forward in
      for i = 0 to d.Fastpath.n_forward - 1 do
        let p = Array.get fwd i in
        propagate a (Fastpath.out_index fp p) (Fastpath.out_dst fp p) depth
      done;
      if a.tracing then
        (record_hop a ~table ~engine:Obs.Trace.engine_fast
           ~drop:(Fastpath.drop_reason d)
           ~loop_suspected:d.Fastpath.loop_suspected
           ~deliver_local:d.Fastpath.deliver_local ~node
           ~in_link:in_link_index ~depth ~tail0 ~fp0 ~ttl0
        [@lipsin.allow_alloc
          "trace record: a sampled hop copies its out-links into one \
           trace event"])
  done

let[@lipsin.noalloc] run a ~mode ~engine ~loss ~(trace : Obs.Trace.ctx) ~stage
    ~src ~table ~zfilter =
  reset a;
  a.mode <- mode;
  a.engine <- engine;
  a.loss <- loss;
  a.tracing <- trace.Obs.Trace.tc_sampled;
  a.packet <- trace.Obs.Trace.tc_packet;
  a.stage <- stage;
  a.zfilter <- zfilter;
  Rows.load a.filter zfilter;
  Array.set a.q_node 0 src;
  Array.set a.q_in 0 (-1);
  Array.set a.q_depth 0 0;
  a.q_tail <- 1;
  Array.set a.reached src true;
  Array.set a.touched_nodes 0 src;
  Array.set a.reach_depth 0 0;
  a.n_reached <- 1;
  run_queue a ~table

let[@lipsin.noalloc] deliver a ~src ~table ~zfilter =
  run a ~mode:Expand_once ~engine:`Fast ~loss:None ~trace:Obs.Trace.off
    ~stage:(-1) ~src ~table ~zfilter

let rec under_count traversed acc links =
  match links with
  | [] -> acc
  | l :: rest ->
    under_count traversed
      (if Array.get traversed l.Graph.index then acc else acc + 1)
      rest

let[@lipsin.noalloc] under_delivery a = under_count a.tree_traversed 0 a.tree
let[@lipsin.noalloc] reached_node a v = Array.get a.reached v

let reached_copy a =
  let r = Array.make a.n_nodes false in
  for i = 0 to a.n_reached - 1 do
    r.(a.touched_nodes.(i)) <- true
  done;
  r
