(** The compiled line-speed forwarding engine.

    {!Node_engine} is the reference implementation: per decision it
    walks per-link entry lists and allocates a verdict record.  This
    module {e compiles} a node's forwarding state into the layout the
    paper's hardware discussion assumes (Sec. 4.2–4.3): the d
    forwarding tables — physical links, virtual links, negative Link
    IDs, the local slow-path ID and service endpoints — are flattened
    at {!compile} time into {!Rows}, one packed native-int row per
    entry.  A decision is an AND/compare sweep of those rows against a
    zFilter loaded once per publication ({!Rows.load}), writing into a
    preallocated {!type-decision} buffer.  The per-entry loop uses only
    checked stdlib array reads inside this module, so it stays call-free
    in every build profile.  A decision allocates nothing when loop
    prevention is off; the loop cache keys one small string per
    decision otherwise.

    Down links are compiled to never-matching rows: each row carries a
    {e kill bit} at bit m, which a loaded zFilter never sets, so link
    state costs no branch in the hot loop.

    A compiled engine is a {e snapshot}: mutations to the source
    {!Node_engine.t} after {!compile} (failures, virtual installs,
    blocks) are not seen — recompile instead ({!Lipsin_sim.Net} does
    this automatically).  Stitch entries are the exception: {!restitch}
    patches them into the live engine.  The loop-prevention cache starts empty at
    compile time and then evolves with the same FIFO/TTL semantics as
    the reference engine's, so both engines agree decision-for-decision
    when fed the same packet history from creation. *)

type t

type decision = {
  mutable forward : int array;
      (** Ports to forward on: indexes valid in \[0, [n_forward]), in
          first-match order; map with {!out_link}. *)
  mutable n_forward : int;
  mutable deliver_local : bool;
  mutable services : int array;
      (** Matched service indexes, valid in \[0, [n_services]). *)
  mutable n_services : int;
  mutable stitches : int array;
      (** Matched stitch-entry indexes, valid in \[0, [n_stitch]);
          resolve payloads with {!stitch_targets}. *)
  mutable n_stitch : int;
  mutable loop_suspected : bool;
  mutable drop : int;  (** One of the [drop_*] codes below. *)
  mutable tests : int;
      (** Membership tests charged (= physical + virtual entries). *)
}

val no_drop : int
val drop_fill : int
val drop_loop : int
val drop_bad_table : int

val compile : Node_engine.t -> t
(** Flattens the engine's current state ({!Node_engine.state}) into the
    compiled table layout. *)

val node : t -> Lipsin_topology.Graph.node
val table_count : t -> int
val port_count : t -> int

val out_link : t -> int -> Lipsin_topology.Graph.link
(** The physical link behind a port index from [decision.forward]. *)

val out_index : t -> int -> int
(** The dense link index behind a port — [
    (out_link t p).index] without the record hop; allocation-free, for
    recycled-buffer delivery loops. *)

val out_dst : t -> int -> int
(** The destination node behind a port — [(out_link t p).dst];
    allocation-free. *)

val tick : t -> unit
(** Advances the loop-cache clock (mirror of {!Node_engine.tick}). *)

val restitch : t -> (Lipsin_bitvec.Bitvec.t array * int * int) list -> unit
(** Replaces the engine's stitch entries with [stitches]
    ({!Node_engine.stitches}) in place: the stitch rows and payloads are
    rebuilt with {!Rows.with_stitches}, the decision buffer grows if it
    must, and the recorded digest is refreshed.  Everything else — the
    other rows, the loop cache, the clock — is kept.  Afterwards the
    engine decides exactly as a fresh {!compile} of the source engine
    would. *)

val decide_loaded :
  t -> table:int -> filter:Rows.filter -> in_link_index:int -> decision
(** One forwarding decision from a loaded zFilter; [in_link_index] is
    the dense index of the arrival link, or [-1] when the packet
    originates here.  Load the publication's zFilter once and reuse the
    buffer on every hop.  Returns the engine's scratch decision buffer —
    read it before the next decision on this engine, and do not hold
    onto it.
    @raise Invalid_argument if the loaded zFilter's width differs from
    the compiled [m]. *)

val decide :
  t -> table:int -> zfilter:Lipsin_bloom.Zfilter.t -> in_link_index:int -> decision
(** [decide t ~table ~zfilter ~in_link_index] loads [zfilter] into the
    engine's own buffer and runs {!decide_loaded}.
    @raise Invalid_argument if the zFilter width differs from the
    compiled [m]. *)

val decide_batch :
  t ->
  table:int ->
  (Lipsin_bloom.Zfilter.t * int) array ->
  f:(int -> decision -> unit) ->
  unit
(** [decide_batch t ~table inputs ~f] runs {!decide} over an array of
    (zFilter, arrival-link index) pairs in one pass, invoking [f i d]
    with the scratch decision for input [i].  The batch entry point for
    the sharded serving path. *)

val drop_reason : decision -> Node_engine.drop_reason option
(** The decision's drop code as the reference engine's type. *)

val forward_links : t -> decision -> Lipsin_topology.Graph.link list
val service_names : t -> decision -> string list

val stitch_partition : t -> int -> int
(** The partition id of a stitch index from [decision.stitches];
    allocation-free. *)

val stitch_next : t -> int -> int
(** The next stage of a stitch index from [decision.stitches];
    allocation-free. *)

val stitch_targets : t -> decision -> (int * int) list
(** Matched stitch entries as [(partition id, next stage)] pairs, in
    match order — the partitioned-zFilter handoff payloads. *)

val verdict : t -> decision -> Node_engine.verdict
(** Re-materialises a reference-engine verdict (allocates); the bridge
    the differential tests compare across. *)

val table_bytes : t -> int
(** Total compiled table footprint in bytes (all d tables: physical,
    incoming, block, virtual, local, service and stitch rows). *)

(** {1 Introspection}

    A structural window onto the compiled rows for the invariant
    auditor ([Lipsin_analysis.Audit]) and its mutation tests.  The rows
    are {e shared} with the live engine, not copies — treat them as
    read-only unless you are deliberately injecting corruption in a
    test. *)

type view = {
  view_rows : Rows.t;
  view_forward_cap : int;  (** Decision buffer capacity for ports. *)
  view_services_cap : int;  (** Decision buffer capacity for services. *)
  view_stitch_cap : int;  (** Decision buffer capacity for stitches. *)
  view_seen_cap : int;  (** Dedup stamp array capacity. *)
  view_digest : int;
      (** {!Rows.digest} recorded at {!compile} or the last {!restitch}. *)
}

val view : t -> view

val digest : t -> int
(** Recomputes {!Rows.digest} over the current rows.  Equal to
    [(view t).view_digest] iff no row changed since {!compile} or the
    last {!restitch}. *)
