(** The bit-sliced (transposed) compiled forwarding engine.

    {!Fastpath} stores each table row-major — one packed {!Rows} entry
    per link — and tests links one at a time, O(ports x groups) per
    decision.  This engine stores the same tables {e column-major}:
    word [col[b][blk]] of a table's canonical blob holds filter-bit
    position [b] for the links [64*blk .. 64*blk + 63].  A decision
    starts from an all-ones alive mask per 64-link block and, for every
    zFilter bit position that is zero, clears the links whose LIT sets
    that bit ([alive &= ~col[b]]); the surviving mask bits are exactly
    the links with [zFilter AND LIT = LIT] — one word operation answers
    the membership question for 64 links at once, and survivors are
    recovered in ascending order with count-trailing-zeros iteration.

    The hot loop actually consumes a derived {e plane} of the columns
    (grouping them one filter nibble or byte at a time with a
    precomputed OR per group value — an algebraically identical
    reformulation of the per-bit sweep), held in native [int] arrays of
    32-link sub-blocks so that the sweep runs unboxed without flambda.
    Nodes with at least {!byte_plane_threshold} ports get
    byte-granularity planes (half the sweep steps, 16x the table
    memory); smaller nodes get nibble planes.

    The engine keeps the shared {!Rows.t} too: block vetoes and the
    node-local LIT are tested row-wise with a packed-row kernel local
    to this module, and the rows are what the columns are transposed
    from.

    Kill bits, negative/blocking Link IDs, the node-local LIT, service
    endpoints, fill-limit and loop-cache semantics match the scalar
    engines bit for bit: the differential suite checks all three
    engines agree decision for decision, including their Obs meter
    deltas (registered here under [engine="bitsliced"]).  Like
    {!Fastpath}, a compiled engine is a snapshot of the source
    {!Node_engine.t}; recompile after mutating it. *)

type t

type decision = {
  mutable forward : int array;
      (** Ports to forward on: indexes valid in \[0, [n_forward]), in
          ascending port order; map with {!out_link}. *)
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
      (** Membership tests charged (= physical + virtual entries),
          matching the scalar engines' accounting. *)
}

val no_drop : int
val drop_fill : int
val drop_loop : int
val drop_bad_table : int

val auto_threshold : int
(** Port count from which [Run]'s [`Auto] engine picks the bit-sliced
    engine over the scalar fast path: 32.  The star-hub sweep
    ([bench --sweep]) puts the crossover between 32 and 64 ports; 32 is
    the top of the range a bench-derived unit test pins. *)

val byte_plane_threshold : int
(** Port count from which compile chooses byte-granularity sweep planes
    instead of nibble planes: 64, one full column block.  Distinct from
    {!auto_threshold} — engine choice and plane granularity cross over
    at different sizes. *)

val compile : Node_engine.t -> t
(** Compiles the engine's current state into {!Rows} (the same layout
    as {!Fastpath.compile}) and transposes them into the column-major
    blobs and sweep planes. *)

val node : t -> Lipsin_topology.Graph.node
val table_count : t -> int
val port_count : t -> int

val out_link : t -> int -> Lipsin_topology.Graph.link
(** The physical link behind a port index from [decision.forward]. *)

val out_index : t -> int -> int
(** The dense link index behind a port; allocation-free (see
    {!Fastpath.out_index}). *)

val out_dst : t -> int -> int
(** The destination node behind a port; allocation-free. *)

val plane_bits : t -> int
(** Sweep granularity chosen at compile: 4 (nibble planes) or 8 (byte
    planes). *)

val tick : t -> unit
(** Advances the loop-cache clock (mirror of {!Node_engine.tick}). *)

val decide_loaded :
  t -> table:int -> filter:Rows.filter -> in_link_index:int -> decision
(** One forwarding decision from a loaded zFilter (see
    {!Fastpath.decide_loaded}); [in_link_index] is the dense index of
    the arrival link, or [-1] when the packet originates here.  Returns
    the engine's scratch decision buffer — read it before the next
    decision on this engine, and do not hold onto it.
    @raise Invalid_argument if the loaded zFilter's width differs from
    the compiled [m]. *)

val decide :
  t -> table:int -> zfilter:Lipsin_bloom.Zfilter.t -> in_link_index:int -> decision
(** Loads [zfilter] into the engine's own buffer and runs
    {!decide_loaded}.
    @raise Invalid_argument if the zFilter width differs from the
    compiled [m]. *)

val decide_batch :
  t ->
  table:int ->
  (Lipsin_bloom.Zfilter.t * int) array ->
  f:(int -> decision -> unit) ->
  unit
(** [decide_batch t ~table inputs ~f] decides a whole array of
    (zFilter, arrival-link index) pairs, amortising the column sweep:
    packets are processed in chunks whose dead masks are computed
    position-outer, so each sweep plane row is reused across the chunk
    while the per-packet logic (loop cache included) still runs in
    input order — the observable semantics are exactly those of calling
    {!decide} in a loop.  [f i d] receives the scratch decision for
    input [i]. *)

val drop_reason : decision -> Node_engine.drop_reason option
(** The decision's drop code as the reference engine's type. *)

val forward_links : t -> decision -> Lipsin_topology.Graph.link list
val service_names : t -> decision -> string list

val stitch_targets : t -> decision -> (int * int) list
(** Matched stitch entries as [(partition id, next stage)] pairs, in
    match order — the partitioned-zFilter handoff payloads. *)

val verdict : t -> decision -> Node_engine.verdict
(** Re-materialises a reference-engine verdict (allocates); the bridge
    the differential tests compare across. *)

val table_bytes : t -> int
(** Total compiled footprint in bytes: rows plus canonical column
    blobs, used maps and sweep planes, over all d tables. *)

(** {1 Introspection}

    The window [Lipsin_analysis.Audit] uses to cross-check the
    transposed layout against the rows.  Arrays and [Bytes.t]
    values are {e shared} with the live engine — treat them as
    read-only unless deliberately injecting corruption in a test. *)

type slice_view = {
  sv_entry : string;
      (** ["phys"], ["in"], ["virt"], ["svc"] or ["stitch"]. *)
  sv_n : int;  (** Entries (ports, virtuals, services or stitches). *)
  sv_blocks : int;  (** 64-entry column blocks, [ceil (n/64)]. *)
  sv_sub : int;  (** 32-entry plane sub-blocks, [ceil (n/32)]. *)
  sv_cols : Bytes.t;
      (** Canonical column-major blob: the word at byte offset
          [((b * blocks) + blk) * 8] holds filter-bit position [b] of
          entries [64*blk .. 64*blk + 63]. *)
  sv_used : Bytes.t;  (** [stride] bytes; bit [b] set iff column [b] is
          nonzero. *)
  sv_active : int array;  (** Ascending plane positions with a used
          column. *)
  sv_plane : int array;
      (** Sweep plane: [((pos << plane_bits) | v) * sub + s] is the
          32-bit dead mask contributed by group [pos] holding value
          [v]. *)
  sv_valid : int array;  (** Per sub-block mask of slots [< n]. *)
}

type view = {
  view_rows : Rows.t;  (** The shared rows the columns transpose. *)
  view_stride : int;
      (** Bytes of the padded filter copy, {!Rows.stride_for}: the
          slices have [8 * stride] columns. *)
  view_plane_bits : int;
  view_forward_cap : int;
  view_services_cap : int;
  view_stitch_cap : int;
  view_seen_cap : int;
  view_slices : slice_view array array;
      (** Per table: the phys, in, virt, svc and stitch slices, in
          that order. *)
  view_digest : int;  (** Integrity digest recorded at {!compile}. *)
}

val view : t -> view

val digest : t -> int
(** Recomputes the integrity digest ({!Rows.digest} extended with the
    same multiply-xorshift step) over geometry, rows, column blobs and
    derived arrays.  Equal to
    [(view t).view_digest] iff nothing changed since {!compile}. *)
