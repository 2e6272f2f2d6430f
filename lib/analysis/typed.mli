(** Shared machinery for the typed-tree passes: .cmt loading, in-memory
    typing for test fixtures, path normalisation, toplevel binding and
    module-alias extraction, and attribute lookup. *)

type unit_info = {
  unit_name : string;  (** short module name, e.g. "Fastpath" *)
  unit_source : string;  (** source path recorded in the cmt *)
  unit_str : Typedtree.structure;
}

val short_name : string -> string
(** Strip dune's wrapped-library mangling: ["Lib__Mod"] -> ["Mod"]. *)

val load_cmt : string -> unit_info option
(** Read one .cmt file; [None] if unreadable or not an implementation. *)

val scan : string list -> string list
(** All .cmt files under the given roots (descends into _build). *)

val load_units : string list -> unit_info list
(** [load_cmt] over [scan]. *)

val type_impl : name:string -> string -> unit_info
(** Parse and type a source fragment against the initial (stdlib-only)
    environment; used by the test fixtures.  Raises on type errors. *)

val flatten_path : Path.t -> string list

val key_of_segments :
  aliases:(string, string list) Hashtbl.t -> string list -> string
(** [key_of_path] on an already-flattened segment list (used when the
    segments come from somewhere other than a [Path.t], e.g. a type
    constructor name). *)

val key_of_path : aliases:(string, string list) Hashtbl.t -> Path.t -> string
(** Canonical dotted key for a path: segments de-mangled, leading
    [Stdlib] / dune wrapper modules dropped, local module aliases
    substituted.  E.g. "Stdlib.incr" -> "incr", a local [module B =
    Lipsin_x.Y] makes "B.f" -> "Y.f". *)

type binding = {
  b_key : string;  (** e.g. "Fastpath.decide", "Obs.Counter.add" *)
  b_unit : unit_info;
  b_vb : Typedtree.value_binding;
  b_aliases : (string, string list) Hashtbl.t;
}

type index = {
  idx_bindings : (string, binding) Hashtbl.t;
  idx_units : unit_info list;
}

val index_units : unit_info list -> index
(** Toplevel (and nested-structure) value bindings of every unit,
    keyed "Unit.name" / "Unit.Sub.name", plus per-unit alias tables. *)

val find_binding : index -> string -> binding option

val resolve_binding : index -> string -> binding option
(** [find_binding], falling back to the unique same-unit binding with
    the same trailing name — resolves a bare name used inside a nested
    module ("Obs.bucket_slow" -> "Obs.Histogram.bucket_slow"). *)

val has_attr : string -> Parsetree.attributes -> bool
val attr_payload_string : string -> Parsetree.attributes -> string option

val noalloc_attr : string
val allow_alloc_attr : string
val allow_race_attr : string

val finding_of_loc :
  file:string -> rule:string -> Location.t -> string -> Finding.t

val pat_idents : 'k Typedtree.general_pattern -> Ident.t list
