(** Semantic invariant auditor for compiled fast-path state.

    The compiled engines ({!Lipsin_forwarding.Fastpath},
    {!Lipsin_forwarding.Bitsliced}) trade safety for speed: their hot
    loops assume the packed {!Lipsin_forwarding.Rows} layout — [groups =
    ceil((m+1)/63)] ints per row, zero padding beyond bit [m], a kill
    bit exactly at position [m] on down links, LITs with exactly [k]
    live bits, and in-bounds indirection tables.  None of that is
    visible to the type system, and in-packet-Bloom-filter systems
    historically fail by silent encoding drift rather than algorithmic
    error — so this module re-derives every invariant structurally from
    the row ints.

    Checks, by [check] name:
    - ["geometry"] — [groups] and [k] consistent with [m] and [d];
    - ["d-consistency"] — every per-table array has one row array per
      candidate table;
    - ["row-size"] — each row array is exactly [entries * groups] ints;
    - ["offsets"] — block and virtual-egress prefix tables start at 0
      and are monotone, and the flattened arrays match their totals;
    - ["padding"] — no stray bit beyond position [m] (a loaded filter
      keeps its padding zero, so a stray bit could silently veto
      matches);
    - ["kill-bit"] — bit [m] is set on a physical entry iff its port is
      down, and never on any other entry kind;
    - ["popcount"] — physical, incoming, local and service entries carry
      exactly [k_for_table.(i)] live bits (virtual entries are ORs of
      whole trees and block entries arbitrary veto patterns, so only the
      layout checks apply to them);
    - ["port-bounds"] — virtual egress ports and per-port metadata
      arrays stay inside [\[0, n_ports)];
    - ["capacity"] — the preallocated decision buffers hold the
      worst-case decision;
    - ["digest"] — the {!Lipsin_forwarding.Rows.digest} recorded at
      compile time still matches the rows.  This catches {e any}
      change to a single row int, including flips inside virtual or
      block live bits that the structural checks cannot distinguish
      from a legitimate tree.

    {!audit_bitsliced} runs the same row checks against the bit-sliced
    engine's shared rows and then verifies the transposed layout on
    top:
    - ["col-size"] — slice dimensions (entries, column blocks, plane
      sub-blocks) and blob/array lengths agree with the row geometry;
    - ["col-mirror"] — every canonical column word is the exact
      transpose of the rows;
    - ["kill-column"] — transposed, column [m] of a physical slice is
      exactly the set of down ports;
    - ["col-used"] — the used map marks precisely the nonzero columns;
    - ["col-active"] — the active position list matches the used map;
    - ["col-valid"] — the per-sub-block validity masks cover exactly
      the slots below the entry count;
    - ["col-plane"] — every derived sweep-plane word is the OR of the
      canonical columns its group value leaves uncovered.

    Run it offline with [lipsin_lint --audit], after every compile in
    debug runs by setting [LIPSIN_FASTPATH_AUDIT=1] (see
    {!Lipsin_sim.Net.fastpath} and [Net.bitsliced]), or directly from
    tests. *)

type violation = {
  check : string;  (** Which invariant family failed (names above). *)
  table : int;  (** Candidate table index, or [-1] if table-independent. *)
  entry : string;
      (** Entry kind: ["phys"], ["in"], ["block"], ["virt"], ["local"],
          ["svc"], or [""] if not entry-specific. *)
  index : int;  (** Entry slot within the table, or [-1]. *)
  offset : int;
      (** Position of the finding inside the flagged array — the int
          index for rows and planes, the byte offset for column blobs —
          or [-1] when the finding has no position.  Together with
          [table] this makes layout findings on multi-table arrays
          actionable. *)
  detail : string;  (** Human-readable explanation. *)
}

val audit : ?check_digest:bool -> Lipsin_forwarding.Fastpath.t -> violation list
(** Runs every check and returns all violations (empty = sound).
    [check_digest] (default [true]) additionally compares the recorded
    compile-time digest against the current rows; pass [false] to
    exercise the purely structural checks. *)

val audit_ok : ?check_digest:bool -> Lipsin_forwarding.Fastpath.t -> bool
(** [audit] returned no violation. *)

val audit_bitsliced :
  ?check_digest:bool -> Lipsin_forwarding.Bitsliced.t -> violation list
(** {!audit}'s row checks plus the transposed-layout checks above, for
    the bit-sliced engine. *)

val audit_bitsliced_ok :
  ?check_digest:bool -> Lipsin_forwarding.Bitsliced.t -> bool
(** [audit_bitsliced] returned no violation. *)

val to_string : violation -> string
val pp : Format.formatter -> violation -> unit
