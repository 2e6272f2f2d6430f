(** Delivery of partitioned (stitched) zFilters.

    A {!Lipsin_core.Stagecut} plan encodes one delivery tree as a
    forest of stages, each with its own (possibly different-width)
    zFilter.  At runtime the stages of one partition chain through
    {e stitch entries}: the parent stage's filter carries a per-stage
    egress LIT, and the node where a child stage roots holds a stitch
    table entry mapping that LIT to [(partition id, next stage)].  This
    module owns the runtime side: one {!Net} per filter width (all
    views of the same {!Lipsin_core.Adaptive} family, so every width
    shares the per-link nonces) with one {!Arena} each, stitch-entry
    installation, and the staged delivery loop that follows the data
    plane's stitch hits. *)

type t

val make :
  ?fill_limit:float -> ?loop_prevention:bool -> Lipsin_core.Adaptive.t -> t
(** One lazily-populated {!Net} per width of the family, each with an
    {!Arena} that is never warmed: only the nodes a stage reaches are
    compiled. *)

val adaptive : t -> Lipsin_core.Adaptive.t

val net : t -> m:int -> Net.t
(** The width-[m] network view.
    @raise Invalid_argument for a width outside the family; so do
    {!install}, {!uninstall} and {!deliver} on a partition with such a
    stage. *)

val install : t -> Lipsin_bloom.Partition.t -> unit
(** Installs every stage's stitch entries: for each handoff of stage
    [p] at node [u], the entry lives in the width-[p.m] net at [u],
    keyed by the LIT derived from [p]'s egress nonce.  A handoff node
    that is already compiled has its stitch entries patched in place
    ({!Net.restitch}); nothing is invalidated or recompiled. *)

val uninstall : t -> Lipsin_bloom.Partition.t -> unit
(** Removes the partition's stitch entries (matched by egress nonce),
    patching compiled nodes in place like {!install}. *)

type outcome = {
  delivered : int array;
      (** Per node: in how many stage runs the packet reached it. *)
  stages_run : int;
  stage_order : int list;  (** Stage indexes in activation order. *)
  duplicate_handoffs : int;
      (** Stitch hits naming an already-activated stage — each a
          would-be double delivery of a whole subtree, suppressed by
          the per-publication activation cache (the same trick as the
          paper's loop cache).  After {!Lipsin_core.Stagecut}'s
          conflict repair these can only arise through false-positive
          paths — the rho^k background Netcheck reports as
          [cross-stage-*] Warnings — so they are measured, not
          treated as an {!exactly_once} violation. *)
  missed_stages : int;  (** Stages whose handoff never fired. *)
  foreign_hits : int;  (** Stitch hits for other partition ids. *)
  subscribers_missed : int;
      (** Subscribers not reached by their owner stage's run. *)
  link_traversals : int;  (** Summed over stage runs. *)
  false_positives : int;
  membership_tests : int;
  fill_drops : int;
  loop_drops : int;
  packet_id : int;
      (** Publication id shared by every stage run's trace events, or
          [-1] when the publication was not sampled.  One id per
          stitched delivery: the reconstructed span forest crosses
          stage boundaries. *)
  trace_anomalies : string list;
      (** Human-readable anomalies from the runtime span cross-check —
          the dynamic twin of
          {!Lipsin_analysis.Netcheck.check_partition}.  Duplicate stage
          activations, suspected loops and (complete-trace) delivery
          mismatches additionally fire the
          {!Lipsin_obs.Obs.Flight} recorder.  Empty when not sampled
          or clean. *)
}

val deliver :
  ?mode:Run.mode -> ?engine:Run.engine -> t -> Lipsin_bloom.Partition.t -> outcome
(** Runs the staged delivery: stage 0 is published at the partition
    root, and every stitch hit reported by the data plane activates the
    named stage at its own root (once — duplicates are counted, not
    followed).  Stages must be installed first ({!install}); a
    partition that was never installed simply strands all non-root
    stages ([missed_stages]).

    Every stage runs on its width's arena ({!Run.deliver_into}) with the
    given [mode] and [engine], under the publication's one trace
    context. *)

val exactly_once : outcome -> Lipsin_bloom.Partition.t -> (unit, string) result
(** The runtime exactly-once criterion: every stage ran exactly once
    (none missed, nothing foreign acted on) and every subscriber was
    reached by its owner stage.  [Error] carries the first violated
    clause.  Suppressed [duplicate_handoffs] and false-positive
    [extra_deliveries] are the statistical background the fill limit
    bounds — reported, not violations; the {e intent-level} absence of
    duplication is what an [Error]-free
    {!Lipsin_analysis.Netcheck.check_partition} proves. *)

val extra_deliveries : outcome -> Lipsin_bloom.Partition.t -> int
(** Σ over subscribers of (times reached - 1) — the false-positive
    over-delivery background the fill limit bounds; not part of the
    {!exactly_once} verdict. *)
