module Graph = Lipsin_topology.Graph
module Fastpath = Lipsin_forwarding.Fastpath
module Rows = Lipsin_forwarding.Rows
module Assignment = Lipsin_core.Assignment
module Lit = Lipsin_bloom.Lit

(* Recycled per-publication delivery scratch.  Every array is sized once
   from the topology and reused across publications: delivery-set and
   seen-link bitmaps are reset in O(touched) via the touched stacks, the
   BFS frontier is a flat ring (each link is traversed at most once in
   Expand_once mode, so [link_count + 1] slots bound it), every hop
   reads the Net's own compiled-engine array (so invalidations and
   restitches are seen at once), and the publication's zFilter is
   loaded once into [filter] and shared by every hop.  The result:
   [deliver] is a certified [@lipsin.noalloc] root — zero minor words
   per publication in steady state, once every reached node is
   compiled. *)

type t = {
  net : Net.t;
  graph : Graph.t;
  n_nodes : int;
  n_links : int;
  fps : Fastpath.t option array;  (* the Net's compiled engines, shared *)
  filter : Rows.filter;  (* the current publication's loaded zFilter *)
  (* recycled delivery set: reached bitmap + touched stack + the depth
     at which each node was first reached (latency histogram feed) *)
  reached : bool array;
  touched_nodes : int array;
  reach_depth : int array;
  mutable n_reached : int;
  (* recycled seen-link bitmap (Expand_once dedup) + touched stack *)
  seen_link : bool array;
  touched_links : int array;
  mutable n_seen : int;
  (* intended-tree bitmaps; [set_tree] swaps them between publications *)
  on_tree : bool array;
  tree_traversed : bool array;
  mutable tree : Graph.link list;
  (* flat BFS ring: (node, dense in-link index | -1, depth) *)
  q_node : int array;
  q_in : int array;
  q_depth : int array;
  mutable q_head : int;
  mutable q_tail : int;
  (* per-publication tallies, mirroring Run.deliver's counters *)
  mutable link_traversals : int;
  mutable false_positives : int;
  mutable membership_tests : int;
  mutable fill_drops : int;
  mutable loop_drops : int;
  mutable local_deliveries : int;
  mutable deliveries : int;
  mutable over_delivery : int;
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
  {
    net;
    graph;
    n_nodes;
    n_links;
    fps = Net.compiled net;
    filter = Rows.filter ~m:(Assignment.params (Net.assignment net)).Lit.m;
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
    stitch_matches = 0;
    hit_node = Array.make initial_hits 0;
    hit_partition = Array.make initial_hits 0;
    hit_next = Array.make initial_hits 0;
  }

let net a = a.net

(* Compile every node the Net has not compiled yet, in one batch, so no
   later publication takes a cold miss.  [`Fast] is the only engine; the
   argument stays because the benchmark harness passes it. *)
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
  a.stitch_matches <- 0

(* One admitted copy on the link with dense index [li] towards [dst],
   decided at hop [depth] — the recycled mirror of Run.deliver's
   [propagate], false-positive accounting included (charged per match,
   dedup or not, exactly like the allocating path). *)
let[@lipsin.noalloc] propagate a li dst depth =
  if not (Array.get a.on_tree li) then
    a.false_positives <- a.false_positives + 1;
  if not (Array.get a.seen_link li) then begin
    Array.set a.seen_link li true;
    Array.set a.touched_links a.n_seen li;
    a.n_seen <- a.n_seen + 1;
    a.link_traversals <- a.link_traversals + 1;
    if Array.get a.on_tree li then Array.set a.tree_traversed li true
    else a.over_delivery <- a.over_delivery + 1;
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
  end

(* Doubles the hit buffers, keeping the valid prefix. *)
let grow_hits a =
  let grow b =
    let b' = Array.make (2 * Array.length b) 0 in
    Array.blit b 0 b' 0 a.stitch_matches;
    b'
  in
  a.hit_node <- grow a.hit_node;
  a.hit_partition <- grow a.hit_partition;
  a.hit_next <- grow a.hit_next

(* Appends the decision's stitch payloads at [node], in match order. *)
let[@lipsin.noalloc] note_hits a fp (d : Fastpath.decision) node =
  for i = 0 to d.Fastpath.n_stitch - 1 do
    if a.stitch_matches = Array.length a.hit_node then
      (grow_hits a
      [@lipsin.allow_alloc
        "hit buffers double on demand; only staged delivery matches stitch \
         entries, and its arenas keep their grown buffers"]);
    let s = Array.get d.Fastpath.stitches i in
    let k = a.stitch_matches in
    Array.set a.hit_node k node;
    Array.set a.hit_partition k (Fastpath.stitch_partition fp s);
    Array.set a.hit_next k (Fastpath.stitch_next fp s);
    a.stitch_matches <- k + 1
  done

(* Expand-once BFS over the Net's compiled engines, collecting stitch
   hits in the order Run.deliver reports them. *)
let[@lipsin.noalloc] run_queue a ~table =
  let filter = a.filter in
  while a.q_head < a.q_tail do
    let h = a.q_head in
    a.q_head <- h + 1;
    let node = Array.get a.q_node h in
    let in_link_index = Array.get a.q_in h in
    let depth = Array.get a.q_depth h in
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
    done
  done

let[@lipsin.noalloc] deliver a ~src ~table ~zfilter =
  reset a;
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
