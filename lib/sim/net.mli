(** A network instance: one forwarding engine per topology node, all
    bound to the same LIT assignment.  Engines are created lazily and
    cached, so building a Net over a large graph is cheap until nodes
    are actually visited. *)

type t

val make :
  ?fill_limit:float ->
  ?loop_prevention:bool ->
  Lipsin_core.Assignment.t ->
  t
(** When the [LIPSIN_NETCHECK] environment variable is set (non-empty),
    the fresh
    deployment is statically verified with
    {!Lipsin_analysis.Netcheck.check_deployment} (LIT anomalies, loop
    admissibility, recovery soundness) and [Invalid_argument] is raised
    listing the findings if any has [Error] severity — the
    deployment-level sibling of the [LIPSIN_FASTPATH_AUDIT] gate. *)

val assignment : t -> Lipsin_core.Assignment.t
val graph : t -> Lipsin_topology.Graph.t

val generation : t -> int
(** Monotone invalidation stamp: bumped every time a cached compilation
    is dropped ({!invalidate_fastpath}, {!fail_link}, {!restore_link}),
    and not by {!restitch}.  A count of recompiles to come. *)

val loop_prevention : t -> bool
(** Whether engines created by this net keep a loop-prevention cache
    (couples decisions across publications). *)

val engine : t -> Lipsin_topology.Graph.node -> Lipsin_forwarding.Node_engine.t
(** The node's engine (created on first use). *)

val engine_of : t -> Lipsin_topology.Graph.node -> Lipsin_forwarding.Node_engine.t
(** Alias of {!engine} matching the callback shape Recovery expects. *)

val fastpath : t -> Lipsin_topology.Graph.node -> Lipsin_forwarding.Fastpath.t
(** The node's compiled fast-path engine, built from {!engine}'s current
    state on first use and cached.  {!fail_link}/{!restore_link}
    invalidate the node's compilation automatically; after mutating an
    engine directly (virtual installs, blocks, ...) call
    {!invalidate_fastpath} yourself, or {!restitch} after a stitch
    change.

    When the [LIPSIN_FASTPATH_AUDIT] environment variable is set, every
    fresh compilation is verified with {!Lipsin_analysis.Audit} before
    being cached, and [Invalid_argument] is raised listing the
    violations if the blob layout is unsound — a debug-build guardrail
    against encoding-invariant drift. *)

val compiled : t -> Lipsin_forwarding.Fastpath.t option array
(** The compiled-engine cache itself, shared and not copied: slot [v]
    is [Some] exactly when {!fastpath} would return without compiling.
    {!Arena} reads it on every hop so it always decides on current
    engines.  Read-only outside this module. *)

val restitch : t -> Lipsin_topology.Graph.node -> unit
(** Patches the node's compiled stitch entries in place from the
    engine's current stitch list ({!Lipsin_forwarding.Fastpath.restitch})
    after {!Lipsin_forwarding.Node_engine.install_stitch} or
    [remove_stitch].  Nothing is recompiled and {!generation} does not
    move; a node not compiled yet picks the entries up when it is.
    Audited like a compile under [LIPSIN_FASTPATH_AUDIT]. *)

val invalidate_fastpath : t -> Lipsin_topology.Graph.node -> unit
(** Drops the node's cached compilation so the next {!fastpath} call
    recompiles from the engine's current state. *)

val tick : t -> unit
(** Advances every instantiated engine's clock (ages loop caches).
    {!Run.deliver}, {!Timed.deliver} and the control plane call this
    once per packet flight.  Without loop prevention the clocks are
    never read, so only the tick counter moves. *)

val fail_link : t -> Lipsin_topology.Graph.link -> unit
(** Convenience: marks the link down at its source engine. *)

val restore_link : t -> Lipsin_topology.Graph.link -> unit

val verify :
  ?samples:int -> ?seed:int -> t -> Lipsin_analysis.Netcheck.finding list
(** Static verification of the deployment's current forwarding state
    (failed links, virtual entries and blocks included):
    {!Lipsin_analysis.Netcheck.check_deployment} over a
    {!Lipsin_analysis.Netcheck.model_of_engines} snapshot.  [samples]
    (default 0) adds that many random delivery trees, all d candidates
    of each checked for loops, false deliveries and fill violations;
    [seed] makes the sampling reproducible.  Returns all findings; keep
    only {!Lipsin_analysis.Netcheck.errors} for a go/no-go check. *)
