(** Packet delivery simulation and the paper's performance indicators.

    A delivery starts at the source node and fans out hop by hop: each
    visited node runs its forwarding decision and the packet is copied
    onto every matching link.  Two propagation modes:

    - {b expand-once} (default): each directed link carries the packet
      at most once — the steady state of a multicast delivery, matching
      how the paper counts "links during delivery" (Eq. 3);
    - {b ttl}: links may be re-traversed and each traversal counts;
      propagation is bounded by the packet TTL.  This mode exercises
      loop formation and the loop-prevention machinery.

    False positives are counted per Eq. (2): every membership test a
    visited node performs is a "tested element"; a match on a link
    outside the intended tree is a false positive. *)

type mode = Expand_once | Ttl of int

type engine = [ `Reference | `Fast ]
(** Which decision engine each visited node runs: the reference
    {!Lipsin_forwarding.Node_engine} (default) or the compiled
    {!Lipsin_forwarding.Fastpath} (cached per node by {!Net.fastpath}).
    The two agree decision-for-decision — the differential test suite
    enforces it — so experiments can switch freely. *)

type loss = {
  probability : float;  (** Per-traversal drop probability, \[0, 1). *)
  rng : Lipsin_util.Rng.t;
}

type outcome = {
  reached : bool array;  (** [reached.(v)] — the packet visited node v. *)
  traversed : Lipsin_topology.Graph.link list;
      (** Links that carried the packet, in traversal order; in TTL
          mode a link may appear multiple times. *)
  link_traversals : int;  (** Total traversals = bandwidth cost. *)
  false_positives : int;
  membership_tests : int;
  fill_drops : int;   (** Packets discarded by the fill-factor limit. *)
  loop_drops : int;   (** Packets discarded by loop detection. *)
  local_deliveries : int;  (** Slow-path (control processor) hits. *)
  lost : int;  (** Traversals dropped by the loss model. *)
  stitch_hits : (Lipsin_topology.Graph.node * int * int) list;
      (** Stitch entries the packet matched, in traversal order:
          [(node, partition id, next stage)] — the handoff points of a
          partitioned-zFilter delivery ({!Stitched} consumes these). *)
  packet_id : int;
      (** Publication id under which this delivery's per-hop events were
          recorded in {!Lipsin_obs.Obs.Trace}, or [-1] when tracing was
          off.  [Obs.Trace.packet_events packet_id] replays the hops. *)
}

val deliver :
  ?mode:mode ->
  ?loss:loss ->
  ?engine:engine ->
  ?trace:Lipsin_obs.Obs.Trace.ctx ->
  ?stage:int ->
  Net.t ->
  src:Lipsin_topology.Graph.node ->
  table:int ->
  zfilter:Lipsin_bloom.Zfilter.t ->
  tree:Lipsin_topology.Graph.link list ->
  outcome
(** Simulates one publication.  [tree] is the *intended* delivery tree,
    used only for false-positive classification (pass [] to classify
    every match as false, e.g. for attack traffic).  With [loss], each
    link traversal is dropped independently with the given probability
    (seeded — repeatable); a lost copy still counts as a traversal
    (the bandwidth was spent) but does not propagate.

    [trace] carries the caller's per-publication trace context — a
    stitched delivery threads one context through all its stage runs so
    they share a publication id; without it the delivery takes its own
    1-in-N sampling decision ({!Lipsin_obs.Obs.Trace.start}).  [stage]
    tags every recorded event with the partition stage (default [-1] =
    unstaged). *)

val deliver_into :
  ?engine:[ `Fast ] ->
  Arena.t ->
  src:Lipsin_topology.Graph.node ->
  table:int ->
  zfilter:Lipsin_bloom.Zfilter.t ->
  tree:Lipsin_topology.Graph.link list ->
  unit
(** {!deliver} into recycled scratch: the steady-state path of the
    forwarding service and of staged delivery.  One expand-once
    publication on the compiled engine, run by the arena's certified
    zero-allocation loop ({!Arena.deliver}), which writes the delivery
    set, the tallies and the stitch hits into [scratch] instead of
    allocating an {!outcome} — ~0 minor words per op versus ~6.8k for
    {!deliver}.  Counter totals and the delivery set equal {!deliver}'s
    on the same inputs; the differential suite in
    [test/test_service.ml] pins this.  The reference engine, TTL mode,
    loss and sampled tracing call {!deliver} directly.  [engine] is
    [`Fast] only; the argument keeps the call shape the benchmark
    harness uses. *)

val verify_trace : Net.t -> outcome -> Lipsin_obs.Obs.Span.verdict option
(** The runtime trace cross-check: reconstructs the publication's span
    tree from the rings and compares its replayed delivery set against
    [outcome.reached].  [None] when the publication was not sampled.
    Call before the next {!Lipsin_obs.Obs.reset} / ring wrap. *)

val forwarding_efficiency : outcome -> tree:Lipsin_topology.Graph.link list -> float
(** Eq. (3): tree links / links during delivery, in \[0, 1\]; 1.0 when
    nothing was delivered (no bandwidth wasted). *)

val false_positive_rate : outcome -> float
(** Eq. (2): observed false positives / tested elements; 0 when no
    tests ran. *)

val all_reached : outcome -> Lipsin_topology.Graph.node list -> bool
(** Did every listed subscriber receive the packet? *)
