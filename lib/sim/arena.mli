(** The delivery loop: one recycled, hop-by-hop BFS that every
    delivery in the simulator runs on — {!Run.deliver}, the forwarding
    service, staged delivery ({!Stitched.deliver}) and time-domain
    delivery ({!Timed.deliver}).

    An arena preallocates its scratch once per (worker, Net) and
    recycles it: bitmaps reset in O(links actually touched) via touched
    stacks, and the BFS frontier is a flat ring bounded by
    [link_count + 1] (each link traverses at most once in expand-once
    mode).  Nothing is pinned: every hop reads the Net's own
    compiled-engine array ({!Net.compiled}), so link events and
    {!Net.restitch} are seen by the next publication, and a node not
    compiled yet is compiled on its first reach.  The publication's
    zFilter is loaded once ({!Lipsin_forwarding.Rows.load}) and every
    hop decides from that one copy.  {!deliver} and {!run} are
    certified [[@lipsin.noalloc]] roots: an expand-once [`Fast]
    publication allocates nothing once every node it reaches is
    compiled ({!warm} does them all up front).

    The rare cases are per-publication inputs of {!run}, each tested by
    one predictable branch: the reference engine (a
    {!Lipsin_forwarding.Node_engine.forward} per hop), TTL mode (the
    traversal log and the ring grow past their link-sized start), a loss
    model (one seeded draw per traversal) and sampled tracing (one
    {!Lipsin_obs.Obs.Trace} event per hop).  Stitch hits are collected
    into growable int buffers.

    An arena belongs to one domain (its buffers are private mutable
    state) and to one {!Net}. *)

type mode = Expand_once | Ttl of int
(** See {!Run.mode}. *)

type engine = [ `Reference | `Fast ]
(** See {!Run.engine}. *)

type loss = { probability : float; rng : Lipsin_util.Rng.t }
(** See {!Run.loss}. *)

val ttl_event_cap : int
(** Traversals one TTL-mode publication may make (200 000): a looping
    filter can replicate exponentially, and the cap bounds the
    simulation the way finite link capacity bounds a real network. *)

type t = {
  net : Net.t;
  graph : Lipsin_topology.Graph.t;
  n_nodes : int;
  n_links : int;
  fps : Lipsin_forwarding.Fastpath.t option array;
      (** The Net's compiled-engine array itself ({!Net.compiled}). *)
  filter : Lipsin_forwarding.Rows.filter;
      (** The current publication's zFilter, loaded once by {!run}
          and shared by every hop; allocated by {!create}. *)
  mutable zfilter : Lipsin_bloom.Zfilter.t;
      (** The current publication's zFilter as given (reference hops
          decide from it). *)
  mutable mode : mode;
  mutable engine : engine;
  mutable loss : loss option;
  mutable tracing : bool;  (** The publication is trace-sampled. *)
  mutable packet : int;  (** Its trace publication id, or -1. *)
  mutable stage : int;  (** The stage its trace events carry. *)
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
  mutable touched_links : int array;
      (** First [n_seen] entries: the dense index of every link
          traversal, in traversal order (a link may repeat in TTL
          mode). *)
  mutable n_seen : int;
  on_tree : bool array;
  tree_traversed : bool array;
  mutable tree : Lipsin_topology.Graph.link list;
  mutable q_node : int array;
  mutable q_in : int array;
  mutable q_depth : int array;
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
  mutable ttl_expired : int;  (** Admitted copies the TTL refused. *)
  mutable lost : int;  (** Traversals dropped by the loss model. *)
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

val run :
  t ->
  mode:mode ->
  engine:engine ->
  loss:loss option ->
  trace:Lipsin_obs.Obs.Trace.ctx ->
  stage:int ->
  src:Lipsin_topology.Graph.node ->
  table:int ->
  zfilter:Lipsin_bloom.Zfilter.t ->
  unit
(** One publication over the net's current engines, writing the
    delivery set, the traversal log, the tallies and the stitch hits
    into the arena.  Requires {!set_tree} first.  [loss] draws once per
    traversal; a sampled [trace] records one event per hop under its
    publication id, tagged with [stage].  Expand-once [`Fast] runs
    without loss or tracing are allocation-free once the reached nodes
    are compiled and the hit buffers are large enough
    ([[@lipsin.noalloc]], checked by [lipsin_lint --alloc] and at
    runtime by [bench --soak]).  No Obs counters move here: {!Run}
    owns the per-publication epilogue. *)

val deliver :
  t -> src:Lipsin_topology.Graph.node -> table:int ->
  zfilter:Lipsin_bloom.Zfilter.t -> unit
(** {!run} in expand-once mode on [`Fast], without loss or tracing. *)

val under_delivery : t -> int
(** Intended-tree links never traversed by the last publication. *)

val reached_node : t -> Lipsin_topology.Graph.node -> bool
(** Membership in the last delivery set, allocation-free. *)

val reached_copy : t -> bool array
(** The last delivery set as a fresh bitmap (allocates; test use). *)
