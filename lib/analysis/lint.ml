(* The lint driver: file collection, suppression comments, parsing,
   rule orchestration and reporting.  Kept filesystem-light so tests
   can feed it in-memory file sets. *)

let parse_error_rule = "parse-error"

(* [(* lint: allow <rule> — justification *)] anywhere in a file
   suppresses that rule for the whole file.  The scan is textual (the
   parser drops comments): find "lint:", expect "allow", then take the
   rule name. *)
let suppressions text =
  let n = String.length text in
  let names = ref [] in
  let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  let is_name c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' in
  let rec skip_spaces i = if i < n && is_space text.[i] then skip_spaces (i + 1) else i in
  let marker = "lint:" in
  let m = String.length marker in
  let rec scan i =
    if i + m > n then List.rev !names
    else if String.sub text i m = marker then begin
      let j = skip_spaces (i + m) in
      let allow = "allow" in
      let a = String.length allow in
      if j + a <= n && String.sub text j a = allow then begin
        let j = skip_spaces (j + a) in
        let k = ref j in
        while !k < n && is_name text.[!k] do
          incr k
        done;
        if !k > j then names := String.sub text j (!k - j) :: !names;
        scan !k
      end
      else scan (i + m)
    end
    else scan (i + 1)
  in
  scan 0

let parse_impl ~path text =
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf path;
  Parse.implementation lexbuf

let parse_error_finding ~path exn =
  let loc, msg =
    match exn with
    | Syntaxerr.Error err -> (Syntaxerr.location_of_error err, "syntax error")
    | Lexer.Error (_, loc) -> (loc, "lexical error")
    | _ -> (Location.none, Printexc.to_string exn)
  in
  let line = max 1 loc.Location.loc_start.pos_lnum in
  let col = max 0 (loc.Location.loc_start.pos_cnum - loc.Location.loc_start.pos_bol) in
  Finding.make ~file:path ~line ~col ~rule:parse_error_rule
    (Printf.sprintf "file does not parse (%s); the linter cannot check it" msg)

let dune_basename path = String.equal (Filename.basename path) "dune"
let ml_file path = Filename.check_suffix path ".ml"

(* The library that owns the Domain-parallel delivery path: the
   domain-safety scope is everything reachable from it. *)
let default_domain_root = "lipsin_sim"

let default_rules ?(domain_root = default_domain_root) ~dune_files () =
  let libraries = Deps.libraries_of_files dune_files in
  let reachable = Deps.reachable_dirs libraries ~root:domain_root in
  let in_scope path = List.mem (Filename.dirname path) reachable in
  [
    Rules.no_poly_compare ();
    Rules.domain_safety ~in_scope;
    Rules.no_debug_io ();
    Rules.no_unsafe_access ();
    Rules.mli_coverage ();
  ]

let rule_names ?domain_root () =
  List.map Rules.name (default_rules ?domain_root ~dune_files:[] ())

let run ?domain_root ?rules ~files () =
  let dune_files = List.filter (fun (p, _) -> dune_basename p) files in
  let rules =
    match rules with
    | Some rs -> rs
    | None -> default_rules ?domain_root ~dune_files ()
  in
  let sources =
    List.filter_map
      (fun (p, text) ->
        if ml_file p then Some { Rules.src_path = p; src_text = text } else None)
      files
  in
  let project =
    { Rules.proj_paths = List.map fst files; proj_sources = sources }
  in
  let suppressed_tbl = Hashtbl.create 64 in
  List.iter
    (fun src ->
      List.iter
        (fun rule -> Hashtbl.replace suppressed_tbl (src.Rules.src_path, rule) ())
        (suppressions src.Rules.src_text))
    sources;
  let suppressed file rule = Hashtbl.mem suppressed_tbl (file, rule) in
  let findings = ref [] in
  let add fs = findings := fs @ !findings in
  List.iter
    (fun src ->
      match parse_impl ~path:src.Rules.src_path src.Rules.src_text with
      | exception exn -> add [ parse_error_finding ~path:src.Rules.src_path exn ]
      | ast ->
        List.iter
          (function
            | Rules.File_rule r when r.applies src -> add (r.check src ast)
            | Rules.File_rule _ | Rules.Project_rule _ -> ())
          rules)
    sources;
  List.iter
    (function
      | Rules.Project_rule r -> add (r.check project)
      | Rules.File_rule _ -> ())
    rules;
  List.sort Finding.compare_locs
    (List.filter
       (fun f -> not (suppressed f.Finding.file f.Finding.rule))
       !findings)

(* ---- filesystem loading (for the CLI and the @lint alias) ---------- *)

let readable_source path =
  ml_file path || Filename.check_suffix path ".mli" || dune_basename path

let rec walk acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc name ->
        if String.length name > 0 && name.[0] = '.' then acc
        else if String.equal name "_build" then acc
        else walk acc (Filename.concat path name))
      acc
      (let entries = Sys.readdir path in
       Array.sort String.compare entries;
       entries)
  else if readable_source path then path :: acc
  else acc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_paths roots =
  let paths = List.rev (List.fold_left walk [] roots) in
  List.map (fun p -> (p, read_file p)) paths
