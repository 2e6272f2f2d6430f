(* Shared machinery for the typed-tree passes (Alloccheck, Racecheck):
   .cmt loading, in-memory typing for test fixtures, path
   normalisation, toplevel binding/alias extraction and attribute
   lookup.  Everything here is pure bookkeeping over [Typedtree]; the
   allocation and race judgements live in their own modules. *)

type unit_info = {
  unit_name : string;  (* short module name, e.g. "Fastpath" *)
  unit_source : string;  (* source path recorded in the cmt *)
  unit_str : Typedtree.structure;
}

(* dune mangles wrapped-library modules as "Lipsin_forwarding__Fastpath";
   the short name is the part after the last "__". *)
let short_name s =
  let n = String.length s in
  let cut = ref 0 in
  for i = 0 to n - 2 do
    if s.[i] = '_' && s.[i + 1] = '_' then cut := i + 2
  done;
  if !cut > 0 && !cut < n then String.sub s !cut (n - !cut) else s

let load_cmt path =
  match Cmt_format.read_cmt path with
  | exception _ -> None
  | infos -> (
    match infos.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str ->
      Some
        {
          unit_name = short_name infos.Cmt_format.cmt_modname;
          unit_source =
            (match infos.Cmt_format.cmt_sourcefile with
            | Some f -> f
            | None -> path);
          unit_str = str;
        }
    | _ -> None)

(* Walk [roots] (directories or single .cmt files) collecting every
   .cmt below them; unlike the parse-level linter this deliberately
   descends into _build, where dune puts the cmts. *)
let rec scan_paths acc path =
  if (not (Sys.file_exists path)) then acc
  else if Sys.is_directory path then
    Array.fold_left
      (fun acc name -> scan_paths acc (Filename.concat path name))
      acc
      (let entries = Sys.readdir path in
       Array.sort String.compare entries;
       entries)
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

let scan roots = List.rev (List.fold_left scan_paths [] roots)

let load_units roots =
  List.filter_map load_cmt (scan roots)

(* In-memory typing for test fixtures: parse and type [text] against
   the initial environment (stdlib only). *)
let type_impl ~name text =
  Compmisc.init_path ();
  let env = Compmisc.initial_env () in
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf (name ^ ".ml");
  let ast = Parse.implementation lexbuf in
  let str, _, _, _, _ = Typemod.type_structure env ast in
  { unit_name = name; unit_source = name ^ ".ml"; unit_str = str }

(* ---- path normalisation -------------------------------------------- *)

let rec flatten_path p =
  match p with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> flatten_path p @ [ s ]
  | Path.Papply (p, _) -> flatten_path p
  | Path.Pextra_ty (p, _) -> flatten_path p

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* Canonical dotted key for a path seen from inside some unit:
   - each segment is de-mangled ("Lib__Mod" -> "Mod");
   - a leading "Stdlib" is dropped ("Stdlib.incr" -> "incr");
   - a leading dune wrapper module ("Lipsin_bitvec") is dropped when
     followed by the real module;
   - a leading local alias ("module B = Lipsin_x.Y" -> B) is replaced
     by its target. *)
let key_of_segments ~aliases segs =
  let segs = List.map short_name segs in
  let segs =
    match segs with
    | "Stdlib" :: (_ :: _ as rest) -> rest
    | hd :: (_ :: _ as rest) when starts_with ~prefix:"Lipsin_" hd -> rest
    | segs -> segs
  in
  let segs =
    match segs with
    | hd :: rest -> (
      match Hashtbl.find_opt aliases hd with
      | Some target -> target @ rest
      | None -> segs)
    | [] -> []
  in
  String.concat "." segs

let key_of_path ~aliases p = key_of_segments ~aliases (flatten_path p)

(* ---- binding extraction -------------------------------------------- *)

type binding = {
  b_key : string;  (* e.g. "Fastpath.decide", "Obs.Counter.add" *)
  b_unit : unit_info;
  b_vb : Typedtree.value_binding;
  b_aliases : (string, string list) Hashtbl.t;  (* unit's alias table *)
}

type index = {
  idx_bindings : (string, binding) Hashtbl.t;
  idx_units : unit_info list;
}

let rec collect_structure ~unit ~prefix ~tbl ~aliases str =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) ->
              let key = prefix ^ Ident.name id in
              Hashtbl.replace tbl key
                { b_key = key; b_unit = unit; b_vb = vb; b_aliases = aliases }
            | _ -> ())
          vbs
      | Tstr_module mb -> collect_module ~unit ~prefix ~tbl ~aliases mb
      | Tstr_recmodule mbs ->
        List.iter (collect_module ~unit ~prefix ~tbl ~aliases) mbs
      | _ -> ())
    str.Typedtree.str_items

and collect_module ~unit ~prefix ~tbl ~aliases (mb : Typedtree.module_binding) =
  match mb.mb_id with
  | None -> ()
  | Some id -> (
    let name = Ident.name id in
    let rec of_mexpr (me : Typedtree.module_expr) =
      match me.mod_desc with
      | Tmod_ident (p, _) ->
        (* [module B = Lipsin_x.Y]: record the alias so later paths
           through B normalise to Y's canonical key. *)
        let target = key_of_segments ~aliases (flatten_path p) in
        if not (String.equal target "") then
          Hashtbl.replace aliases name (String.split_on_char '.' target)
      | Tmod_structure s ->
        collect_structure ~unit ~prefix:(prefix ^ name ^ ".") ~tbl ~aliases s
      | Tmod_constraint (me, _, _, _) -> of_mexpr me
      | _ -> ()
    in
    of_mexpr mb.mb_expr)

let index_units units =
  let tbl = Hashtbl.create 512 in
  List.iter
    (fun u ->
      let aliases = Hashtbl.create 16 in
      collect_structure ~unit:u ~prefix:(u.unit_name ^ ".") ~tbl ~aliases
        u.unit_str)
    units;
  { idx_bindings = tbl; idx_units = units }

let find_binding idx key = Hashtbl.find_opt idx.idx_bindings key

(* A bare name used inside a nested module ("bucket_slow" inside
   [Obs.Histogram]) normalises to "Obs.bucket_slow", but the binding
   was collected as "Obs.Histogram.bucket_slow".  Fall back to the
   unique same-unit binding with that trailing name, if any. *)
let resolve_binding idx key =
  match find_binding idx key with
  | Some b -> Some b
  | None -> (
    match String.split_on_char '.' key with
    | [ unit_name; name ] -> (
      let prefix = unit_name ^ "." in
      let suffix = "." ^ name in
      match
        Hashtbl.fold
          (fun k b acc ->
            if
              starts_with ~prefix k
              && String.length k >= String.length suffix
              && String.equal
                   (String.sub k
                      (String.length k - String.length suffix)
                      (String.length suffix))
                   suffix
            then b :: acc
            else acc)
          idx.idx_bindings []
      with
      | [ b ] -> Some b
      | _ -> None)
    | _ -> None)

(* Aliases were populated during collection; expose the table used for
   a given unit by re-deriving it (collection stores one table per
   unit, shared by all its bindings). *)

(* ---- attributes ----------------------------------------------------- *)

let attr_named name (a : Parsetree.attribute) = String.equal a.attr_name.txt name
let has_attr name attrs = List.exists (attr_named name) attrs

(* Extract the string payload of [@name "reason"], if any. *)
let attr_payload_string name attrs =
  List.find_map
    (fun (a : Parsetree.attribute) ->
      if not (String.equal a.attr_name.txt name) then None
      else
        match a.attr_payload with
        | Parsetree.PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( {
                        pexp_desc =
                          Pexp_constant (Pconst_string (s, _, _));
                        _;
                      },
                      _ );
                _;
              };
            ] ->
          Some s
        | _ -> None)
    attrs

let noalloc_attr = "lipsin.noalloc"
let allow_alloc_attr = "lipsin.allow_alloc"
let allow_race_attr = "lipsin.allow_race"

(* ---- misc shared helpers ------------------------------------------- *)

let finding_of_loc ~file ~rule (loc : Location.t) msg =
  let line = max 1 loc.loc_start.pos_lnum in
  let col = max 0 (loc.loc_start.pos_cnum - loc.loc_start.pos_bol) in
  Finding.make ~file ~line ~col ~rule msg

(* Bound idents of a (general) pattern, for scope tracking. *)
let pat_idents : type k. k Typedtree.general_pattern -> Ident.t list =
 fun p -> Typedtree.pat_bound_idents p
