(* The project-invariant rules, each a syntactic check over the
   compiler-libs Parsetree.  They are heuristics with a deliberately
   low false-positive rate: LIPSIN's correctness bugs historically come
   from polymorphic structural operations on Bytes-backed filters, from
   unsynchronized global state touched by worker domains, and from
   debug prints left in library code — all patterns a parse tree can
   see without type inference. *)

type source = { src_path : string; src_text : string }

type project = {
  proj_paths : string list;  (* every file the walk saw, incl. .mli *)
  proj_sources : source list;  (* parsed .ml files *)
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

let name = function File_rule r -> r.name | Project_rule r -> r.name
let describe = function File_rule r -> r.describe | Project_rule r -> r.describe

let finding_of_loc ~path ~rule (loc : Location.t) message =
  Finding.make ~file:path ~line:loc.loc_start.pos_lnum
    ~col:(loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
    ~rule message

let contains_substring text sub =
  let n = String.length text and m = String.length sub in
  let rec at i = if i + m > n then false else String.sub text i m = sub || at (i + 1) in
  m > 0 && at 0

let under_lib path =
  String.length path >= 4 && String.sub path 0 4 = "lib/"
  || contains_substring path "/lib/"

let flatten_ident lid = Longident.flatten lid

(* ---- no-poly-compare ------------------------------------------------ *)

(* Applies to Bitvec/Zfilter-bearing modules: any file that names either
   module (or lives in their home directories).  Flags the polymorphic
   structural operations that silently compare Bytes-backed filters by
   representation: Stdlib.compare (and bare [compare] where the file
   does not define its own), Hashtbl.hash, and [=]/[<>] applied to an
   expression that syntactically yields a Bitvec.t or Zfilter.t. *)

let bitvec_home path =
  contains_substring path "lib/bitvec" || contains_substring path "lib/bloom"

let bearing src =
  bitvec_home src.src_path
  || contains_substring src.src_text "Bitvec."
  || contains_substring src.src_text "Zfilter."

let bitvec_returning =
  [ "create"; "copy"; "logor"; "logand"; "of_positions"; "of_hex"; "of_bytes" ]

let zfilter_returning = [ "create"; "of_bitvec"; "to_bitvec"; "copy"; "of_tags"; "of_hex" ]

let yields_filter (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (_, ty) -> (
    match ty.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, _) -> (
      match List.rev (flatten_ident txt) with
      | "t" :: md :: _ -> String.equal md "Bitvec" || String.equal md "Zfilter"
      | _ -> false)
    | _ -> false)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    match flatten_ident txt with
    | [ "Bitvec"; f ] -> List.mem f bitvec_returning
    | [ "Zfilter"; f ] -> List.mem f zfilter_returning
    | _ -> false)
  | _ -> false

let defines_value name ast =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let pat self (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } when String.equal txt name -> found := true
    | _ -> ());
    super.pat self p
  in
  let iter = { super with pat } in
  iter.structure iter ast;
  !found

let no_poly_compare () =
  let check src ast =
    let path = src.src_path in
    let acc = ref [] in
    let has_own_compare = defines_value "compare" ast in
    let flag loc msg = acc := finding_of_loc ~path ~rule:"no-poly-compare" loc msg :: !acc in
    let super = Ast_iterator.default_iterator in
    let expr self (e : Parsetree.expression) =
      (match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
        match flatten_ident txt with
        | [ "Stdlib"; "compare" ] | [ "Pervasives"; "compare" ] ->
          flag loc
            "polymorphic Stdlib.compare in a Bitvec/Zfilter-bearing module; use \
             Bitvec.compare or a typed comparator (Int.compare, String.compare, ...)"
        | [ "Hashtbl"; "hash" ]
        | [ "Stdlib"; "Hashtbl"; "hash" ]
        | [ "Hashtbl"; "seeded_hash" ] ->
          flag loc
            "polymorphic Hashtbl.hash in a Bitvec/Zfilter-bearing module; use \
             Bitvec.hash (content FNV-1a) or a typed hash"
        | [ "compare" ] when not has_own_compare ->
          flag loc
            "bare polymorphic [compare] in a Bitvec/Zfilter-bearing module; use a \
             typed comparator (Int.compare, String.compare, Bitvec.compare, ...)"
        | _ -> ())
      | Pexp_apply
          ( { pexp_desc = Pexp_ident { txt; loc }; _ },
            [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ] ) -> (
        match flatten_ident txt with
        | [ ("=" | "<>" | "==" | "!=") ] | [ "Stdlib"; ("=" | "<>" | "==" | "!=") ]
          when yields_filter a || yields_filter b ->
          flag loc
            "structural equality on a Bitvec.t/Zfilter.t; use Bitvec.equal or \
             Zfilter.equal"
        | _ -> ())
      | _ -> ());
      super.expr self e
    in
    let iter = { super with expr } in
    iter.structure iter ast;
    List.rev !acc
  in
  File_rule
    {
      name = "no-poly-compare";
      describe =
        "ban polymorphic =/compare/Hashtbl.hash in Bitvec/Zfilter-bearing modules";
      applies = bearing;
      check;
    }

(* ---- domain-safety -------------------------------------------------- *)

(* Applies to modules reachable from the Domain-parallel delivery path
   (library closure over dune files).  Flags top-level mutable state —
   ref / Hashtbl.create / Buffer.create / Queue.create evaluated at
   module initialization, i.e. outside any function body — and any use
   of the global Random state, unless the binding is Atomic/Mutex
   guarded or an Obs telemetry cell (per-domain storage aggregated on
   read — sanctioned by construction).  Worker domains share module
   state; unsynchronized writes are data races OCaml 5 will not
   diagnose for you. *)

let head_module lid =
  match flatten_ident lid with md :: _ :: _ -> Some md | _ -> None

let state_maker lid =
  match flatten_ident lid with
  | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "ref"
  | [ "Hashtbl"; "create" ] | [ "Stdlib"; "Hashtbl"; "create" ] -> Some "Hashtbl.create"
  | [ "Buffer"; "create" ] -> Some "Buffer.create"
  | [ "Queue"; "create" ] -> Some "Queue.create"
  | _ -> None

let expr_mentions_guard (e : Parsetree.expression) =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
      match head_module txt with
      | Some ("Atomic" | "Mutex" | "Domain" | "Obs" | "Lipsin_obs") ->
        (* Obs cells are sanctioned mutable state: per-domain, padded,
           aggregated on read (lib/obs). *)
        found := true
      | _ -> ())
    | _ -> ());
    super.expr self e
  in
  let iter = { super with expr } in
  iter.expr iter e;
  !found

(* Scan an expression for state constructors evaluated eagerly: stop at
   function boundaries, where evaluation is deferred to call time and
   the state becomes per-call. *)
let eager_state_makers (e : Parsetree.expression) =
  let acc = ref [] in
  let super = Ast_iterator.default_iterator in
  let expr self (inner : Parsetree.expression) =
    match inner.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> ()  (* evaluation deferred: stop *)
    | Pexp_ident { txt; loc } ->
      (match state_maker txt with
      | Some what -> acc := (what, loc) :: !acc
      | None -> ());
      super.expr self inner
    | _ -> super.expr self inner
  in
  let iter = { super with expr } in
  iter.expr iter e;
  List.rev !acc

let domain_safety ~in_scope =
  let check src ast =
    let path = src.src_path in
    let acc = ref [] in
    let flag loc msg = acc := finding_of_loc ~path ~rule:"domain-safety" loc msg :: !acc in
    (* Top-level bindings, including inside nested module structures. *)
    let rec walk_items (items : Parsetree.structure) =
      List.iter
        (fun (item : Parsetree.structure_item) ->
          match item.pstr_desc with
          | Pstr_value (_, bindings) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                if not (expr_mentions_guard vb.pvb_expr) then
                  List.iter
                    (fun (what, loc) ->
                      flag loc
                        (Printf.sprintf
                           "top-level %s in a module reachable from the \
                            Domain-parallel delivery path; guard it with \
                            Atomic/Mutex, use an Obs per-domain cell, or \
                            allocate it per call"
                           what))
                    (eager_state_makers vb.pvb_expr))
              bindings
          | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure inner; _ }; _ } ->
            walk_items inner
          | Pstr_recmodule mbs ->
            List.iter
              (fun (mb : Parsetree.module_binding) ->
                match mb.pmb_expr.pmod_desc with
                | Pmod_structure inner -> walk_items inner
                | _ -> ())
              mbs
          | _ -> ())
        items
    in
    walk_items ast;
    (* Global Random state anywhere in the module (top level or not):
       the shared PRNG is racy and non-reproducible across domains. *)
    let super = Ast_iterator.default_iterator in
    let expr self (e : Parsetree.expression) =
      (match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
        match flatten_ident txt with
        | "Random" :: second :: _ when not (String.equal second "State") ->
          flag loc
            "global Random state in a module reachable from the Domain-parallel \
             delivery path; thread a Lipsin_util.Rng.t or Random.State.t instead"
        | _ -> ())
      | _ -> ());
      super.expr self e
    in
    let iter = { super with expr } in
    iter.structure iter ast;
    List.sort Finding.compare_locs !acc
  in
  File_rule
    {
      name = "domain-safety";
      describe =
        "ban unguarded top-level mutable state in modules reachable from \
         lib/sim";
      applies = (fun src -> in_scope src.src_path);
      check;
    }

(* ---- no-debug-io ---------------------------------------------------- *)

let stdout_printers =
  [
    [ "print_endline" ];
    [ "print_string" ];
    [ "print_newline" ];
    [ "print_int" ];
    [ "print_char" ];
    [ "print_float" ];
    [ "Stdlib"; "print_endline" ];
    [ "Stdlib"; "print_string" ];
    [ "Stdlib"; "print_newline" ];
    [ "Printf"; "printf" ];
    [ "Stdlib"; "Printf"; "printf" ];
    [ "Format"; "printf" ];
    [ "Format"; "print_string" ];
    [ "Format"; "print_newline" ];
  ]

let no_debug_io () =
  let check src ast =
    let path = src.src_path in
    let acc = ref [] in
    let super = Ast_iterator.default_iterator in
    let expr self (e : Parsetree.expression) =
      (match e.pexp_desc with
      | Pexp_ident { txt; loc } ->
        let parts = flatten_ident txt in
        if List.exists (fun p -> List.equal String.equal p parts) stdout_printers
        then
          acc :=
            finding_of_loc ~path ~rule:"no-debug-io" loc
              (Printf.sprintf
                 "%s prints to stdout from library code; return data or take a \
                  Format.formatter"
                 (String.concat "." parts))
            :: !acc
      | _ -> ());
      super.expr self e
    in
    let iter = { super with expr } in
    iter.structure iter ast;
    List.rev !acc
  in
  File_rule
    {
      name = "no-debug-io";
      describe = "no Printf.printf / print_endline under lib/";
      applies = (fun src -> under_lib src.src_path);
      check;
    }

(* ---- no-unsafe-access ----------------------------------------------- *)

(* Every index under lib/ goes through a checked stdlib accessor, so
   memory safety is the compiler's, even for offsets read out of
   buffers.  Flags the unchecked stdlib accessors and any [external]
   bound to an unchecked ([%...u] or [%...unsafe...]) primitive. *)

let unchecked_modules = [ "Array"; "Bytes"; "String" ]
let unchecked_accessors = [ "unsafe_get"; "unsafe_set" ]

let unchecked_ident lid =
  match flatten_ident lid with
  | [ md; f ] | [ "Stdlib"; md; f ] ->
    List.exists (String.equal md) unchecked_modules
    && List.exists (String.equal f) unchecked_accessors
  | _ -> false

let unchecked_primitive prim =
  let n = String.length prim in
  n > 1
  && Char.equal prim.[0] '%'
  && (Char.equal prim.[n - 1] 'u' || contains_substring prim "unsafe")

let no_unsafe_access () =
  let check src ast =
    let path = src.src_path in
    let acc = ref [] in
    let flag loc msg =
      acc := finding_of_loc ~path ~rule:"no-unsafe-access" loc msg :: !acc
    in
    let super = Ast_iterator.default_iterator in
    let expr self (e : Parsetree.expression) =
      (match e.pexp_desc with
      | Pexp_ident { txt; loc } when unchecked_ident txt ->
        flag loc
          (Printf.sprintf
             "unchecked %s under lib/; use the checked accessor"
             (String.concat "." (flatten_ident txt)))
      | _ -> ());
      super.expr self e
    in
    let value_description self (vd : Parsetree.value_description) =
      (match List.find_opt unchecked_primitive vd.pval_prim with
      | Some prim ->
        flag vd.pval_loc
          (Printf.sprintf
             "external %s bound to the unchecked primitive %s under lib/; \
              use the checked one"
             vd.pval_name.txt prim)
      | None -> ());
      super.value_description self vd
    in
    let iter = { super with expr; value_description } in
    iter.structure iter ast;
    List.rev !acc
  in
  File_rule
    {
      name = "no-unsafe-access";
      describe =
        "no Array/Bytes/String unsafe_get/unsafe_set or unchecked %...u \
         externals under lib/";
      applies = (fun src -> under_lib src.src_path);
      check;
    }

(* ---- mli-coverage --------------------------------------------------- *)

let mli_coverage () =
  let check proj =
    let have = Hashtbl.create 64 in
    List.iter (fun p -> Hashtbl.replace have p ()) proj.proj_paths;
    List.filter_map
      (fun src ->
        let p = src.src_path in
        if under_lib p && Filename.check_suffix p ".ml" then
          if Hashtbl.mem have (p ^ "i") then None
          else
            Some
              (Finding.make ~file:p ~line:1 ~col:0 ~rule:"mli-coverage"
                 "library module has no .mli interface; add one (or suppress with \
                  a justification) so the public surface stays deliberate")
        else None)
      proj.proj_sources
  in
  Project_rule
    {
      name = "mli-coverage";
      describe = "every lib/**/*.ml has a matching .mli";
      check;
    }
