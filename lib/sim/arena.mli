(** Arena-recycled delivery scratch: the zero-allocation steady-state
    publication path.

    {!Run.deliver} allocates a fresh delivery set, seen-link bitmap,
    event queue and traversal list per publication — ~6.8k minor GC
    words per op (BENCH_PR4), a steady-state tax no line-rate router
    pays.  An arena preallocates all of that once per (worker, Net) and
    recycles it: bitmaps reset in O(links actually touched) via touched
    stacks, and the BFS frontier is a flat ring bounded by
    [link_count + 1] (each link traverses at most once in expand-once
    mode).  Nothing is pinned: every hop reads the Net's own
    compiled-engine array ({!Net.compiled}), so link events and
    {!Net.restitch} are seen by the next publication, and a node not
    compiled yet is compiled on its first reach.  The publication's
    zFilter is loaded once ({!Lipsin_forwarding.Rows.load}) and every
    hop decides from that one copy.  {!deliver} is a certified
    [[@lipsin.noalloc]] root: it allocates nothing once every node it
    reaches is compiled ({!warm} does them all up front).

    The arena runs expand-once delivery on the [`Fast] engine, with or
    without loop prevention.  Stitch hits are collected into growable
    int buffers, so staged delivery ({!Stitched.deliver}) runs on arenas
    too.  The reference engine, TTL mode, loss and sampled tracing go
    through {!Run.deliver} instead.

    An arena belongs to one domain (its buffers are private mutable
    state) and to one {!Net}. *)

type t = {
  net : Net.t;
  graph : Lipsin_topology.Graph.t;
  n_nodes : int;
  n_links : int;
  fps : Lipsin_forwarding.Fastpath.t option array;
      (** The Net's compiled-engine array itself ({!Net.compiled}). *)
  filter : Lipsin_forwarding.Rows.filter;
      (** The current publication's zFilter, loaded once by {!deliver}
          and shared by every hop; allocated by {!create}. *)
  reached : bool array;  (** Delivery-set bitmap; valid entries only for
                             nodes on the touched stack. *)
  touched_nodes : int array;  (** First [n_reached] entries: the nodes
                                  reached, in first-reach order;
                                  slot 0 is the source. *)
  reach_depth : int array;  (** Hop depth at which [touched_nodes.(i)]
                                was first reached (0 for the source) —
                                the latency-histogram feed. *)
  mutable n_reached : int;
  seen_link : bool array;
  touched_links : int array;
  mutable n_seen : int;
  on_tree : bool array;
  tree_traversed : bool array;
  mutable tree : Lipsin_topology.Graph.link list;
  q_node : int array;
  q_in : int array;
  q_depth : int array;
  mutable q_head : int;
  mutable q_tail : int;
  mutable link_traversals : int;
  mutable false_positives : int;
  mutable membership_tests : int;
  mutable fill_drops : int;
  mutable loop_drops : int;
  mutable local_deliveries : int;
  mutable deliveries : int;  (** Non-source nodes first reached. *)
  mutable over_delivery : int;  (** Off-tree link traversals. *)
  mutable stitch_matches : int;
      (** Stitch entries matched; also the number of valid hits below. *)
  mutable hit_node : int array;
  mutable hit_partition : int array;
  mutable hit_next : int array;
      (** Stitch hits [(node, partition id, next stage)] in the first
          [stitch_matches] slots, in the order of {!Run.outcome}'s
          [stitch_hits].  The buffers double when full and are kept. *)
}
(** Exposed concretely so {!Run} and the forwarding service read tallies
    with plain field loads inside their own noalloc regions.  Treat
    every field as read-only outside [lib/sim]. *)

val create : Net.t -> t
(** Preallocates all scratch for the net's topology.  Cheap relative to
    {!warm}; no engines are compiled. *)

val net : t -> Net.t

val warm : t -> [ `Fast ] -> unit
(** Compiles, in one batch, every node the net has not compiled yet
    ({!Net.fastpath}), so no later {!deliver} takes a cold miss.
    [`Fast] is the only choice; the argument keeps the call shape the
    benchmark harness uses. *)

val prepare : t -> [ `Fast ] -> unit
(** The same as {!warm}: compiles the nodes invalidated since. *)

val set_tree : t -> Lipsin_topology.Graph.link list -> unit
(** Installs the intended tree for false-positive / over- /
    under-delivery classification.  Physically-equal lists are
    recognised and cost nothing — recycle job records in soak loops. *)

val deliver :
  t -> src:Lipsin_topology.Graph.node -> table:int ->
  zfilter:Lipsin_bloom.Zfilter.t -> unit
(** One expand-once publication over the net's current engines, writing
    the delivery set, tallies and stitch hits into the arena.  Requires
    {!set_tree} first.  Allocation-free once the reached nodes are
    compiled and the hit buffers are large enough
    ([[@lipsin.noalloc]], checked by [lipsin_lint --alloc] and at
    runtime by [bench --soak]). *)

val under_delivery : t -> int
(** Intended-tree links never traversed by the last {!deliver}. *)

val reached_node : t -> Lipsin_topology.Graph.node -> bool
(** Membership in the last delivery set, allocation-free. *)

val reached_copy : t -> bool array
(** The last delivery set as a fresh bitmap (allocates; test use). *)
