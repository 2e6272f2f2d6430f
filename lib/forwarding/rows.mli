(** The native-int LIT row layout shared by the compiled engines, and
    the zFilter loaded once per publication in the same layout.

    Every m-bit vector — a LIT row or a zFilter — is stored as
    [groups_for ~m] native ints of 63 bits each: bit [i] lives in group
    [i / 63] at bit [i mod 63].  [ceil((m+1)/63)] groups always leave
    bit [m] free.  A down link's physical row sets that {e kill bit};
    a loaded zFilter never does, so such a row can never be covered and
    the hot loop needs no up/down branch.  Algorithm 1 on a row is then
    [row.(g) land filter.(g) = row.(g)] for every group [g].

    {!Fastpath} and {!Bitsliced} both compile a node into one {!t} and
    both decide from a {!filter}: {!load} does the byte copy, the
    packing and the popcount once, and every hop of the delivery reuses
    them. *)

val group_bits : int
(** Bits per group: 63. *)

val groups_for : m:int -> int
(** Ints per row, [ceil((m+1)/63)]: 2, 4 and 9 for m = 120, 248, 504. *)

val stride_for : m:int -> int
(** Bytes of the zero-padded filter copy, [8 * (m/64 + 1)]: the column
    count / 8 of the bit-sliced engine's planes. *)

(** {1 Loaded zFilters} *)

type filter = {
  f_m : int;  (** The width the buffers are sized for. *)
  mutable width : int;
      (** Width of the last zFilter given to {!load}; its bits are
          present only when it equals [f_m]. *)
  bytes : Bytes.t;
      (** The filter bytes, zero-padded to [8 * (groups_for ~m + 1)]
          (at least [stride_for ~m]). *)
  groups : int array;  (** The same bits, [groups_for ~m] ints. *)
  mutable pop : int;  (** Set bits: the fill gate's operand. *)
}

val filter : m:int -> filter
(** An empty buffer for [m]-bit zFilters. *)

val load : filter -> Lipsin_bloom.Zfilter.t -> unit
(** Copies, packs and counts the zFilter into the buffer without
    allocating.  A zFilter of another width only records its width:
    the engines' decides raise on it, exactly as they would on the
    zFilter itself. *)

val of_zfilter : Lipsin_bloom.Zfilter.t -> filter
(** A fresh buffer of the zFilter's width, loaded. *)

(** {1 Compiled rows} *)

type t = {
  m : int;
  d : int;
  k_for_table : int array;  (** Bits per LIT, per table. *)
  groups : int;  (** Ints per row, [groups_for ~m]. *)
  n_ports : int;
  out_links : Lipsin_topology.Graph.link array;
  out_index : int array;  (** Port -> dense link index. *)
  up : bool array;  (** Per-port link state at compile time. *)
  phys : int array array;
      (** Per table: [n_ports] rows, kill bit set iff the port is down. *)
  in_tags : int array array;  (** Per table: [n_ports] incoming LITs. *)
  blocks : int array array;  (** Per table: concatenated veto rows. *)
  block_off : int array array;
      (** Per table: [n_ports + 1] prefix offsets into [blocks]. *)
  n_virt : int;
  virt : int array array;  (** Per table: [n_virt] virtual-link rows. *)
  v_out_off : int array;  (** [n_virt + 1] prefix offsets. *)
  v_out_ports : int array;  (** Flattened virtual egress ports. *)
  local : int array array;  (** Per table: the node-local LIT. *)
  svc : int array array;  (** Per table: one row per service. *)
  svc_names : string array;
  stitch : int array array;  (** Per table: one row per stitch point. *)
  stitch_partition : int array;  (** Stitch payloads: partition ids. *)
  stitch_next : int array;  (** Stitch payloads: next stage indexes. *)
}
(** Row [s] of a table occupies ints [s * groups .. s * groups +
    groups - 1].  The arrays are shared with the live engines: treat
    them as read-only unless a test injects corruption on purpose. *)

val compile : Node_engine.state -> t

val get_bit : int array -> off:int -> int -> bool
(** [get_bit rows ~off i] is bit [i] of the row starting at [off]. *)

val mix : int -> int -> int
(** One step of the multiply-xorshift integrity hash. *)

val mix_ints : int -> int array -> int
(** {!mix} over an array's length and then each of its ints. *)

val digest : t -> int
(** Integrity hash over the geometry, every row and the stitch payloads.
    Changing any one hashed int changes it. *)

val table_bytes : t -> int
(** Footprint of all rows of all d tables, in bytes. *)
