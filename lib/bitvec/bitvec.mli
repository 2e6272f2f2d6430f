(** Fixed-width bit vectors.

    The substrate for Link IDs, LITs and zFilters: an immutable-length,
    mutable-content vector of [length] bits backed by [Bytes].  Bit 0 is
    the least-significant bit of byte 0.  All binary operations require
    operands of equal length and raise [Invalid_argument] otherwise.

    The hot operation for LIPSIN forwarding is {!subset}, the
    [zFilter AND LIT == LIT] test of Algorithm 1; it is implemented
    word-wise without allocation. *)

type t

val create : int -> t
(** [create n] is an all-zero vector of [n] bits.
    @raise Invalid_argument if [n <= 0]. *)

val length : t -> int
(** Number of bits. *)

val copy : t -> t

val get : t -> int -> bool
(** @raise Invalid_argument on out-of-range index. *)

val set : t -> int -> unit
val clear : t -> int -> unit

val set_all : t -> unit
(** Sets every bit (used by contamination-attack models). *)

val reset : t -> unit
(** Clears every bit. *)

val popcount : t -> int
(** Number of set bits. *)

val popcount_bytes : bytes -> pos:int -> len:int -> int
(** [popcount_bytes b ~pos ~len] counts the set bits in the byte range
    [pos .. pos+len-1] of [b] with 64-bit SWAR arithmetic (full words
    first, then one SWAR pass over the assembled tail) — the kernel
    under {!popcount}.
    @raise Invalid_argument if the range does not fit in [b]. *)

val fill_ratio : t -> float
(** [popcount / length] — the Bloom-filter fill factor ρ. *)

val logor : t -> t -> t
(** Fresh vector, bitwise OR. *)

val logand : t -> t -> t
(** Fresh vector, bitwise AND. *)

val logor_into : dst:t -> t -> unit
(** [logor_into ~dst src] ORs [src] into [dst] in place (zFilter
    construction, reverse-path collection). *)

val subset : t -> of_:t -> bool
(** [subset a ~of_:b] is [a AND b = a]: every set bit of [a] is set in
    [b].  This is the LIPSIN forwarding decision with [a] the LIT and
    [b] the in-packet zFilter. *)

val intersects : t -> t -> bool
(** At least one common set bit. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val iter_set : t -> (int -> unit) -> unit
(** Applies the function to each set bit index, ascending. *)

val set_positions : t -> int list
(** Ascending list of set bit indexes (sparse representation, Sec. 4.2). *)

val of_positions : int -> int list -> t
(** [of_positions n ps] builds an [n]-bit vector with bits [ps] set.
    @raise Invalid_argument if any position is out of range. *)

val to_hex : t -> string
(** Lowercase hex, most-significant byte first. *)

val of_hex : int -> string -> t
(** [of_hex n s] parses [to_hex] output back into an [n]-bit vector.
    @raise Invalid_argument on malformed input or length mismatch. *)

val to_bytes : t -> bytes
(** Raw little-endian copy of the backing store, ceil(n/8) bytes. *)

val blit_into : t -> bytes -> pos:int -> unit
(** [blit_into t dst ~pos] copies the ceil(n/8) backing bytes into
    [dst] starting at [pos] without allocating — the primitive the
    compiled fast path uses to widen filters into padded word arrays.
    @raise Invalid_argument if the range does not fit in [dst]. *)

val of_bytes : int -> bytes -> t
(** Inverse of {!to_bytes}.  @raise Invalid_argument on size mismatch or
    if padding bits beyond [n] are set. *)

val hash : t -> int
(** Content hash, compatible with {!equal}: FNV-1a over the backing
    bytes in native int arithmetic, no allocation. *)

val pp : Format.formatter -> t -> unit
(** Prints [<n bits, p set: hex>]. *)
