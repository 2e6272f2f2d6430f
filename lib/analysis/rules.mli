(** The project-invariant lint rules.

    Each rule is a syntactic check over the compiler-libs Parsetree —
    no type inference — tuned so that a finding is almost always a real
    hazard in this codebase:

    - {b no-poly-compare}: in any Bitvec/Zfilter-bearing module (a file
      that mentions either module, or lives under [lib/bitvec] /
      [lib/bloom]), bans [Stdlib.compare], bare [compare] (unless the
      file defines its own), [Hashtbl.hash], and [=]/[<>] applied to an
      expression that syntactically yields a [Bitvec.t]/[Zfilter.t].
      Polymorphic structural operations read the Bytes representation
      and silently diverge from [Bitvec.equal] semantics the day the
      representation grows a cache field.
    - {b domain-safety}: in modules reachable from the Domain-parallel
      delivery path (dune library closure), bans top-level [ref] /
      [Hashtbl.create] / [Buffer.create] / [Queue.create] evaluated at
      module initialization unless the binding mentions
      [Atomic]/[Mutex]/[Domain], plus any use of the global [Random]
      state ([Random.State] is exempt).
    - {b no-debug-io}: bans stdout printers ([print_endline],
      [Printf.printf], [Format.printf], ...) anywhere under [lib/].
    - {b no-unsafe-access}: bans [Array]/[Bytes]/[String]
      [unsafe_get]/[unsafe_set] and any [external] bound to an
      unchecked [%...u] primitive anywhere under [lib/], so every index
      keeps the compiler's bounds check.
    - {b mli-coverage}: every [lib/**/*.ml] must have a matching
      [.mli].

    Suppression and orchestration live in {!Lint}. *)

type source = { src_path : string; src_text : string }

type project = {
  proj_paths : string list;
      (** Every path the driver saw, including [.mli] and dune files. *)
  proj_sources : source list;  (** The [.ml] sources. *)
}

type t =
  | File_rule of {
      name : string;
      describe : string;
      applies : source -> bool;
      check : source -> Parsetree.structure -> Finding.t list;
    }
  | Project_rule of {
      name : string;
      describe : string;
      check : project -> Finding.t list;
    }

val name : t -> string
val describe : t -> string

val no_poly_compare : unit -> t
val domain_safety : in_scope:(string -> bool) -> t
(** [in_scope path] decides reachability; the driver derives it from the
    dune dependency graph via {!Deps.reachable_dirs}. *)

val no_debug_io : unit -> t
val no_unsafe_access : unit -> t
val mli_coverage : unit -> t
