(** Arena-recycled delivery scratch: the zero-allocation steady-state
    publication path.

    {!Run.deliver} allocates a fresh delivery set, seen-link bitmap,
    event queue and traversal list per publication — ~6.8k minor GC
    words per op (BENCH_PR4), a steady-state tax no line-rate router
    pays.  An arena preallocates all of that once per (worker, Net) and
    recycles it: bitmaps reset in O(links actually touched) via touched
    stacks, the BFS frontier is a flat ring bounded by [link_count + 1]
    (each link traverses at most once in expand-once mode), and every
    node's compiled engine is pinned up front by {!warm} so the hot loop
    never falls into the Net's lazy compile caches.  The publication's
    zFilter is loaded once ({!Lipsin_forwarding.Rows.load}) and every
    hop decides from that one copy.  {!deliver} is a certified
    [[@lipsin.noalloc]] root.

    The supported fast path is expand-once delivery on the [`Fast],
    [`Bitsliced] and [`Auto] engines with loop prevention off; anything
    else (reference engine, TTL mode, loss, sampled tracing) goes
    through {!Run.deliver} — {!Run.deliver_into} arbitrates and absorbs
    the outcome back into the arena so callers read one shape.

    An arena belongs to one domain (its buffers are private mutable
    state) and to one {!Net}; {!prepare} revalidates the pinned engines
    against {!Net.generation} so link failures recompile lazily. *)

type t = {
  net : Net.t;
  graph : Lipsin_topology.Graph.t;
  n_nodes : int;
  n_links : int;
  fps : Lipsin_forwarding.Fastpath.t option array;
  bits : Lipsin_forwarding.Bitsliced.t option array;
  use_bits : bool array;
  filter : Lipsin_forwarding.Rows.filter;
      (** The current publication's zFilter, loaded once by {!deliver}
          and shared by every hop; allocated by {!create}. *)
  mutable warm_code : int;
  mutable warm_generation : int;
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
      (** Stitch entries matched (payloads are not collected — staged
          delivery uses {!Stitched.deliver}). *)
  mutable lost : int;  (** Always 0 on the fast path; set when
                           {!Run.deliver_into} absorbs a lossy run. *)
  mutable last_packet : int;
      (** Packet id of the last absorbed sampled publication, -1
          otherwise. *)
}
(** Exposed concretely so {!Run} and the forwarding service read tallies
    with plain field loads inside their own noalloc regions.  Treat
    every field as read-only outside [lib/sim]. *)

val create : Net.t -> t
(** Preallocates all scratch for the net's topology.  Cheap relative to
    {!warm}; no engines are compiled yet. *)

val net : t -> Net.t

val warm : t -> [ `Fast | `Bitsliced | `Auto ] -> unit
(** Compiles and pins every node's engine for [engine] in one batch
    ([`Auto] picks per node at {!Lipsin_forwarding.Bitsliced.auto_threshold}),
    then records {!Net.generation} so {!prepare} can detect staleness. *)

val prepare : t -> [ `Fast | `Bitsliced | `Auto ] -> unit
(** Re-runs {!warm} iff the engine choice changed or the net was
    invalidated since the last warm; otherwise free. *)

val reset : t -> unit
(** Clears the delivery set, seen-link marks and tallies in O(touched).
    {!deliver} resets implicitly; {!Run.deliver_into} resets before
    absorbing a fallback outcome. *)

val set_tree : t -> Lipsin_topology.Graph.link list -> unit
(** Installs the intended tree for false-positive / over- /
    under-delivery classification.  Physically-equal lists are
    recognised and cost nothing — recycle job records in soak loops. *)

val deliver :
  t -> src:Lipsin_topology.Graph.node -> table:int ->
  zfilter:Lipsin_bloom.Zfilter.t -> unit
(** One expand-once publication over the pinned engines, writing the
    delivery set and tallies into the arena.  Requires {!warm} (or
    {!prepare}) and {!set_tree} first.  Allocation-free
    ([[@lipsin.noalloc]], checked by [lipsin_lint --alloc] and at
    runtime by [bench --soak]). *)

val under_delivery : t -> int
(** Intended-tree links never traversed by the last {!deliver}. *)

val reached_node : t -> Lipsin_topology.Graph.node -> bool
(** Membership in the last delivery set, allocation-free. *)

val reached_copy : t -> bool array
(** The last delivery set as a fresh bitmap (allocates; test use). *)
