(* lint: allow domain-safety — the write-primitive table is built once
   at module initialization and never written afterwards; the linter
   itself runs single-domain. *)

(* Racecheck: cross-module shared-state analysis.  Every mutable
   location written by code reachable from a [Domain.spawn] body is
   classified as domain-local, atomic, mutex-guarded, obs-padded-cell,
   DLS-backed, or an *unsanctioned shared write*, reported with a
   witness access path and the call chain from the spawn site.

   Per-function summaries record each write's *root* — the base value
   the written location hangs off (walking down field projections and
   array/bytes reads).  Parameter roots are re-rooted at every call
   site; a root produced by a function call inside the body counts as
   domain-local (fresh-value approximation: each [Service] worker
   builds a private [Net], and graph memos that alias shared
   state through such containers are pre-forced by
   [Service.warm_graph] and annotated [@lipsin.allow_race] at the
   write site — see DESIGN.md 5h for the soundness discussion). *)

let rule = "racecheck"

type root =
  | Rlocal  (* defined (or built) inside the function *)
  | Rparam of int  (* positional index among the spine parameters *)
  | Rcaptured of string  (* free ident: captured by a spawn closure *)
  | Rglobal of string  (* toplevel state, e.g. "Graph.some_table" *)
  | Runknown

type kind = Kplain | Katomic | Kguarded | Kobs | Kdls | Krandom

type wevent = {
  w_path : string;  (* witness access path, e.g. "t.out_rev.(u)" *)
  w_loc : Location.t;
  w_root : root;
  w_kind : kind;
  w_allowed : bool;
}

type cevent = {
  c_key : string;
  c_loc : Location.t;
  c_args : (Asttypes.arg_label * root) list;
  c_allowed : bool;
}

type summary = { s_writes : wevent list; s_calls : cevent list }

(* Write-through functions: normalised key -> destination argument
   position (among the [Some _] arguments, in order). *)
let write_table =
  let entries =
    [
      ("Array.set", 0); ("Array.fill", 0); ("Array.blit", 2);
      ("Bytes.set", 0);
      ("Bytes.fill", 0); ("Bytes.blit", 2); ("Bytes.blit_string", 2);
      ("Bytes.set_int64_le", 0); ("Bytes.set_int32_le", 0);
      ("Bytes.set_uint8", 0); ("Bytes.set_uint16_le", 0);
      (":=", 0); ("incr", 0); ("decr", 0);
      ("Hashtbl.replace", 0); ("Hashtbl.add", 0); ("Hashtbl.remove", 0);
      ("Hashtbl.clear", 0); ("Hashtbl.reset", 0);
      ("Queue.add", 1); ("Queue.push", 1); ("Queue.pop", 0);
      ("Queue.take", 0); ("Queue.clear", 0);
      ("Buffer.add_string", 0); ("Buffer.add_char", 0); ("Buffer.clear", 0);
      ("Stack.push", 1); ("Stack.pop", 0);
    ]
  in
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, i) -> Hashtbl.replace tbl k i) entries;
  tbl

let atomic_write key =
  match key with
  | "Atomic.set" | "Atomic.exchange" | "Atomic.compare_and_set"
  | "Atomic.fetch_and_add" | "Atomic.incr" | "Atomic.decr" -> true
  | _ -> false

(* Obs per-domain cells: padded per-domain storage handed out by these
   accessors; writes rooted there are the telemetry design working as
   intended.  Their own implementation (registry under a Mutex, DLS
   key) is audited by the same pass when lib/obs cmts are loaded. *)
let obs_cell_source key =
  match key with
  | "Obs.Counter.local" | "Obs.Histogram.local" | "Obs.Trace.local" -> true
  | _ ->
    (* unit-local uses inside lib/obs itself: Counter.local etc. *)
    (match String.split_on_char '.' key with
    | [ "Obs"; ("local_cell" | "cell_of") ] -> true
    | _ -> false)

(* Calls whose internal writes are per-domain or synchronised by
   construction; the graph walk does not descend into them. *)
let sanctioned_call key =
  match key with
  | "Obs.Counter.add" | "Obs.Counter.incr" | "Obs.Gauge.set"
  | "Obs.Gauge.add" | "Obs.Histogram.observe" | "Obs.Histogram.observe_int"
  | "Obs.Histogram.record" | "Obs.Histogram.record_int"
  | "Obs.Trace.record" | "Obs.Trace.next_packet_id" -> true
  | _ -> false

let dls_call key =
  match String.split_on_char '.' key with
  | "Domain" :: "DLS" :: _ -> true
  | _ -> false

let random_global key =
  match String.split_on_char '.' key with
  | [ "Random"; f ] -> not (String.equal f "State")
  | "Random" :: "State" :: _ -> false
  | _ -> false

(* Calls that run their function argument inline exactly once (or per
   element) in the caller's domain: the closure body is analysed as if
   it were the caller's own code. *)
let inline_iterators key =
  match key with
  | "Array.iter" | "Array.iteri" | "Array.map" | "Array.mapi"
  | "Array.fold_left" | "Array.fold_right" | "List.iter" | "List.iteri"
  | "List.map" | "List.fold_left" | "List.fold_right" | "Hashtbl.iter"
  | "Hashtbl.fold" | "Queue.iter" | "Fun.protect" | "Option.iter"
  | "Option.map" -> true
  | _ -> false

(* ---- summary extraction --------------------------------------------- *)

type scope = {
  idx : Typed.index;
  aliases : (string, string list) Hashtbl.t;
  unit_name : string;
  prefixes : string list;  (* innermost-first module prefixes *)
  mutable params : (Ident.t * int) list;  (* spine param -> position *)
  mutable nparams : int;
  mutable locals : Ident.t list;
  mutable writes : wevent list;
  mutable calls : cevent list;
}

(* Innermost-first enclosing-module prefixes of a binding key:
   "Obs.Counter.incr" -> ["Obs.Counter."; "Obs."]. *)
let prefixes_of_key key =
  match List.rev (String.split_on_char '.' key) with
  | [] | [ _ ] -> []
  | _ :: mods ->
    let rec go acc = function
      | [] -> acc
      | _ :: rest as segs ->
        go ((String.concat "." (List.rev segs) ^ ".") :: acc) rest
    in
    List.rev (go [] mods)

let is_local sc id = List.exists (Ident.same id) sc.locals

let param_index sc id =
  List.find_map
    (fun (p, i) -> if Ident.same p id then Some i else None)
    sc.params

let scoped_key sc (p : Path.t) =
  match p with
  | Path.Pident id when not (is_local sc id || Option.is_some (param_index sc id))
    -> (
    let bare = Typed.key_of_path ~aliases:sc.aliases p in
    if String.contains bare '.' then bare
    else
      match
        List.find_opt
          (fun pre -> Option.is_some (Typed.find_binding sc.idx (pre ^ bare)))
          sc.prefixes
      with
      | Some pre -> pre ^ bare
      | None -> sc.unit_name ^ "." ^ bare)
  | _ -> Typed.key_of_path ~aliases:sc.aliases p

(* Access-path rendering for witnesses. *)
let rec path_str sc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> String.concat "." (Typed.flatten_path p)
  | Texp_field (b, _, lbl) -> path_str sc b ^ "." ^ lbl.lbl_name
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
    let key = Typed.key_of_path ~aliases:sc.aliases p in
    match (key, args) with
    | ("Array.get" | "Bytes.get"), (_, Some b) :: _ ->
      path_str sc b ^ ".(_)"
    | "!", (_, Some b) :: _ -> "!" ^ path_str sc b
    | _ -> key ^ "(..)")
  | _ -> "<expr>"

(* The root of a destination expression: walk down projections. *)
let rec root_of sc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> (
    match param_index sc id with
    | Some i -> Rparam i
    | None ->
      if is_local sc id then Rlocal else Rcaptured (Ident.name id))
  | Texp_ident (p, _, _) -> Rglobal (scoped_key sc p)
  | Texp_field (b, _, _) -> root_of sc b
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
    let key = Typed.key_of_path ~aliases:sc.aliases p in
    match key with
    | "Array.get" | "Bytes.get" | "!" -> (
      match args with
      | (_, Some b) :: _ -> root_of sc b
      | _ -> Runknown)
    | _ ->
      if obs_cell_source (scoped_key sc p) then Rlocal (* obs cell: kind set by caller *)
      else if dls_call key then Rlocal
      else Rlocal (* fresh-value approximation for call results *))
  | Texp_constant _ -> Rlocal
  | _ -> Runknown

(* Is the destination a per-domain obs cell or DLS value?  Checked on
   the *source* of the root (the projection chain's base call). *)
let rec cell_kind sc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_field (b, _, _) -> cell_kind sc b
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
    let key = Typed.key_of_path ~aliases:sc.aliases p in
    if obs_cell_source (scoped_key sc p) || obs_cell_source key then Some Kobs
    else if dls_call key then Some Kdls
    else
      match key with
      | "Array.get" | "Bytes.get" | "!" -> (
        match args with
        | (_, Some b) :: _ -> cell_kind sc b
        | _ -> None)
      | _ -> None)
  | _ -> None

let add_write sc ~allowed ~guarded ~kind ~loc dst_path dst_root =
  let kind = if guarded && kind = Kplain then Kguarded else kind in
  sc.writes <-
    {
      w_path = dst_path;
      w_loc = loc;
      w_root = dst_root;
      w_kind = kind;
      w_allowed = allowed;
    }
    :: sc.writes

let rec walk sc ~allowed ~guarded (e : Typedtree.expression) =
  let allowed =
    allowed || Typed.has_attr Typed.allow_race_attr e.exp_attributes
  in
  let loc = e.exp_loc in
  match e.exp_desc with
  | Texp_ident _ | Texp_constant _ | Texp_instvar _ | Texp_unreachable -> ()
  | Texp_let (_, vbs, body) ->
    List.iter
      (fun (vb : Typedtree.value_binding) ->
        let allowed =
          allowed || Typed.has_attr Typed.allow_race_attr vb.vb_attributes
        in
        walk sc ~allowed ~guarded vb.vb_expr;
        sc.locals <- Typed.pat_idents vb.vb_pat @ sc.locals)
      vbs;
    walk sc ~allowed ~guarded body
  | Texp_function { param; cases; _ } ->
    (* A closure that is not an argument of spawn/protect/iterator is
       analysed inline: its writes resolve in this scope (it may run
       here or escape; escaping closures are the documented
       approximation). *)
    sc.locals <- param :: sc.locals;
    walk_cases sc ~allowed ~guarded cases
  | Texp_apply (fn, args) -> walk_apply sc ~allowed ~guarded ~loc fn args
  | Texp_match (scrut, cases, _) ->
    walk sc ~allowed ~guarded scrut;
    walk_cases sc ~allowed ~guarded cases
  | Texp_try (body, cases) ->
    walk sc ~allowed ~guarded body;
    walk_cases sc ~allowed ~guarded cases
  | Texp_tuple es | Texp_array es -> List.iter (walk sc ~allowed ~guarded) es
  | Texp_construct (_, _, es) -> List.iter (walk sc ~allowed ~guarded) es
  | Texp_variant (_, e) -> Option.iter (walk sc ~allowed ~guarded) e
  | Texp_record { fields; extended_expression; _ } ->
    Option.iter (walk sc ~allowed ~guarded) extended_expression;
    Array.iter
      (fun (_, def) ->
        match def with
        | Typedtree.Overridden (_, e) -> walk sc ~allowed ~guarded e
        | Typedtree.Kept _ -> ())
      fields
  | Texp_field (e, _, _) -> walk sc ~allowed ~guarded e
  | Texp_setfield (dst, _, lbl, v) ->
    let kind =
      match cell_kind sc dst with Some k -> k | None -> Kplain
    in
    add_write sc ~allowed ~guarded ~kind ~loc
      (path_str sc dst ^ "." ^ lbl.lbl_name)
      (root_of sc dst);
    walk sc ~allowed ~guarded dst;
    walk sc ~allowed ~guarded v
  | Texp_ifthenelse (c, t, f) ->
    walk sc ~allowed ~guarded c;
    walk sc ~allowed ~guarded t;
    Option.iter (walk sc ~allowed ~guarded) f
  | Texp_sequence (a, b) ->
    walk sc ~allowed ~guarded a;
    walk sc ~allowed ~guarded b
  | Texp_while (c, body) ->
    walk sc ~allowed ~guarded c;
    walk sc ~allowed ~guarded body
  | Texp_for (id, _, lo, hi, _, body) ->
    sc.locals <- id :: sc.locals;
    walk sc ~allowed ~guarded lo;
    walk sc ~allowed ~guarded hi;
    walk sc ~allowed ~guarded body
  | Texp_assert (e, _) -> walk sc ~allowed ~guarded e
  | Texp_lazy e -> walk sc ~allowed ~guarded e
  | Texp_letmodule (_, _, _, _, body) -> walk sc ~allowed ~guarded body
  | Texp_open (_, body) -> walk sc ~allowed ~guarded body
  | _ -> ()

and walk_cases :
    type k. scope -> allowed:bool -> guarded:bool -> k Typedtree.case list ->
    unit =
 fun sc ~allowed ~guarded cases ->
  List.iter
    (fun (c : _ Typedtree.case) ->
      sc.locals <- Typed.pat_idents c.c_lhs @ sc.locals;
      Option.iter (walk sc ~allowed ~guarded) c.c_guard;
      walk sc ~allowed ~guarded c.c_rhs)
    cases

and walk_closure_body sc ~allowed ~guarded (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { param; cases; _ } ->
    sc.locals <- param :: sc.locals;
    walk_cases sc ~allowed ~guarded cases
  | _ -> walk sc ~allowed ~guarded e

and walk_apply sc ~allowed ~guarded ~loc fn args =
  match fn.exp_desc with
  | Texp_ident (p, _, _) -> (
    let bare = Typed.key_of_path ~aliases:sc.aliases p in
    let key = scoped_key sc p in
    let some_args = List.filter_map (fun (l, a) -> Option.map (fun a -> (l, a)) a) args in
    if atomic_write bare then (
      match some_args with
      | (_, dst) :: rest ->
        add_write sc ~allowed ~guarded ~kind:Katomic ~loc (path_str sc dst)
          (root_of sc dst);
        List.iter (fun (_, a) -> walk sc ~allowed ~guarded a) rest
      | [] -> ())
    else if random_global bare then
      (* the shared Random state is a hidden global write *)
      add_write sc ~allowed ~guarded ~kind:Krandom ~loc ("(" ^ bare ^ ")")
        (Rglobal "Random.state")
    else
      match Hashtbl.find_opt write_table bare with
      | Some dst_pos -> (
        match List.nth_opt some_args dst_pos with
        | Some (_, dst) ->
          let kind =
            match cell_kind sc dst with Some k -> k | None -> Kplain
          in
          add_write sc ~allowed ~guarded ~kind ~loc (path_str sc dst)
            (root_of sc dst);
          List.iter (fun (_, a) -> walk sc ~allowed ~guarded a) some_args
        | None ->
          List.iter (fun (_, a) -> walk sc ~allowed ~guarded a) some_args)
      | None ->
        if String.equal bare "Mutex.protect" then (
          (* Mutex.protect mu (fun () -> body): body is synchronised. *)
          match some_args with
          | [ (_, mu); (_, body) ] ->
            walk sc ~allowed ~guarded mu;
            walk_closure_body sc ~allowed ~guarded:true body
          | _ -> List.iter (fun (_, a) -> walk sc ~allowed ~guarded a) some_args)
        else if String.equal bare "Domain.spawn" then
          (* nested spawn bodies are found by the top-level scan *)
          ()
        else if inline_iterators bare then
          (* closure args run in this domain: analyse inline *)
          List.iter
            (fun (_, a) ->
              match (a : Typedtree.expression).exp_desc with
              | Texp_function _ -> walk_closure_body sc ~allowed ~guarded a
              | _ -> walk sc ~allowed ~guarded a)
            some_args
        else if sanctioned_call key || sanctioned_call bare || dls_call bare
        then List.iter (fun (_, a) -> walk sc ~allowed ~guarded a) some_args
        else begin
          (* record the call edge with the root of each argument *)
          (match p with
          | Path.Pident id when is_local sc id -> ()
          | _ ->
            sc.calls <-
              {
                c_key = key;
                c_loc = loc;
                c_args =
                  List.map (fun (l, a) -> (l, root_of sc a)) some_args;
                c_allowed = allowed;
              }
              :: sc.calls);
          List.iter
            (fun (_, a) ->
              match (a : Typedtree.expression).exp_desc with
              | Texp_function _ -> walk_closure_body sc ~allowed ~guarded a
              | _ -> walk sc ~allowed ~guarded a)
            some_args
        end)
  | _ ->
    walk sc ~allowed ~guarded fn;
    List.iter (fun (_, a) -> Option.iter (walk sc ~allowed ~guarded) a) args

let rec spine sc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { param; cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ }
    ->
    (* the function's [param] ident and the pattern's idents name the
       same position: record them all under one index *)
    let k = sc.nparams in
    sc.nparams <- k + 1;
    sc.params <-
      sc.params
      @ ((param, k) :: List.map (fun id -> (id, k)) (Typed.pat_idents c_lhs));
    spine sc c_rhs
  | _ -> e

let summarize_binding idx (b : Typed.binding) =
  let sc =
    {
      idx;
      aliases = b.b_aliases;
      unit_name = b.b_unit.unit_name;
      prefixes = prefixes_of_key b.b_key;
      params = [];
      nparams = 0;
      locals = [];
      writes = [];
      calls = [];
    }
  in
  let allowed = Typed.has_attr Typed.allow_race_attr b.b_vb.vb_attributes in
  let body = spine sc b.b_vb.vb_expr in
  walk sc ~allowed ~guarded:false body;
  { s_writes = List.rev sc.writes; s_calls = List.rev sc.calls }

(* A spawn closure body, summarised with no params: free idents
   surface as [Rcaptured]. *)
let summarize_spawn_body idx ~aliases ~unit_name (e : Typedtree.expression) =
  let sc =
    {
      idx;
      aliases;
      unit_name;
      prefixes = [ unit_name ^ "." ];
      params = [];
      nparams = 0;
      locals = [];
      writes = [];
      calls = [];
    }
  in
  walk_closure_body sc ~allowed:false ~guarded:false e;
  { s_writes = List.rev sc.writes; s_calls = List.rev sc.calls }

(* ---- spawn-site discovery ------------------------------------------- *)

type spawn_site = {
  sp_unit : Typed.unit_info;
  sp_loc : Location.t;
  sp_summary : summary;
}

let find_spawns (idx : Typed.index) =
  let sites = ref [] in
  List.iter
    (fun (u : Typed.unit_info) ->
      (* the unit's alias table is shared by its bindings; rebuild an
         empty one if the unit has none indexed *)
      let aliases =
        match
          Hashtbl.fold
            (fun _ (b : Typed.binding) acc ->
              if b.b_unit == u then Some b.b_aliases else acc)
            idx.Typed.idx_bindings None
        with
        | Some t -> t
        | None -> Hashtbl.create 1
      in
      let super = Tast_iterator.default_iterator in
      let expr self (e : Typedtree.expression) =
        (match e.exp_desc with
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
          when String.equal
                 (Typed.key_of_path ~aliases p)
                 "Domain.spawn" -> (
          match List.filter_map (fun (_, a) -> a) args with
          | body :: _ ->
            sites :=
              {
                sp_unit = u;
                sp_loc = e.exp_loc;
                sp_summary =
                  summarize_spawn_body idx ~aliases ~unit_name:u.unit_name body;
              }
              :: !sites
          | [] -> ())
        | _ -> ());
        super.expr self e
      in
      let iter = { super with expr } in
      iter.structure iter u.unit_str)
    idx.Typed.idx_units;
  List.rev !sites

(* ---- transitive classification -------------------------------------- *)

let kind_name = function
  | Kplain -> "shared write"
  | Katomic -> "atomic"
  | Kguarded -> "mutex-guarded"
  | Kobs -> "obs-padded-cell"
  | Kdls -> "domain-local-storage"
  | Krandom -> "global Random state"

let root_name = function
  | Rlocal -> "domain-local"
  | Rparam i -> "parameter " ^ Int.to_string i
  | Rcaptured n -> "captured " ^ n
  | Rglobal k -> "global " ^ k
  | Runknown -> "unresolved"

(* Resolve one function's summary in a calling context: [argof] maps
   the callee's parameter index to the caller-side root. *)
let check_spawns idx =
  let summaries : (string, summary) Hashtbl.t = Hashtbl.create 64 in
  let summary_of key =
    match Hashtbl.find_opt summaries key with
    | Some s -> Some s
    | None -> (
      match Typed.resolve_binding idx key with
      | None -> None
      | Some b ->
        let s = summarize_binding idx b in
        Hashtbl.replace summaries key s;
        Some s)
  in
  let findings = ref [] in
  let visiting = ref [] in
  let report ~file ~chain (w : wevent) root =
    let via =
      if List.is_empty chain then ""
      else " [spawn -> " ^ String.concat " -> " (List.rev chain) ^ "]"
    in
    findings :=
      Typed.finding_of_loc ~file ~rule w.w_loc
        ("unsanctioned " ^ kind_name w.w_kind ^ " to " ^ w.w_path ^ " ("
       ^ root_name root ^ ")" ^ via)
      :: !findings
  in
  let rec resolve ~file ~chain ~argof (s : summary) =
    List.iter
      (fun (w : wevent) ->
        if not w.w_allowed then
          match w.w_kind with
          | Katomic | Kguarded | Kobs | Kdls -> ()
          | Kplain | Krandom -> (
            let root =
              match w.w_root with Rparam i -> argof i | r -> r
            in
            match root with
            | Rlocal -> ()
            | Rparam _ | Rcaptured _ | Rglobal _ | Runknown ->
              report ~file ~chain w root))
      s.s_writes;
    List.iter
      (fun (c : cevent) ->
        if not c.c_allowed && not (List.mem c.c_key !visiting) then
          match summary_of c.c_key with
          | None -> ()  (* unknown external: reads-only assumption *)
          | Some callee ->
            let file' =
              match Typed.resolve_binding idx c.c_key with
              | Some b -> b.b_unit.unit_source
              | None -> file
            in
            let args =
              List.map
                (fun (_, r) -> match r with Rparam i -> argof i | r -> r)
                c.c_args
            in
            let argof i =
              match List.nth_opt args i with Some r -> r | None -> Runknown
            in
            visiting := c.c_key :: !visiting;
            resolve ~file:file' ~chain:(c.c_key :: chain) ~argof callee;
            visiting := List.tl !visiting)
      s.s_calls
  in
  let sites = find_spawns idx in
  List.iter
    (fun site ->
      resolve ~file:site.sp_unit.Typed.unit_source ~chain:[]
        ~argof:(fun _ -> Runknown)
        site.sp_summary)
    sites;
  (List.length sites, List.sort_uniq Finding.compare_locs !findings)

let run ~roots =
  let units = Typed.load_units roots in
  check_spawns (Typed.index_units units)

let run_units units = check_spawns (Typed.index_units units)

(* Debug rendering of one binding's summary (used by scratch tooling
   while tuning the pass; not part of the CLI surface). *)
let debug_summary idx b =
  let s = summarize_binding idx b in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (b.Typed.b_key ^ ":\n");
  List.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf "  write %s root=%s kind=%s allowed=%b\n" w.w_path
           (root_name w.w_root) (kind_name w.w_kind) w.w_allowed))
    s.s_writes;
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  call %s args=[%s]\n" c.c_key
           (String.concat "; "
              (List.map (fun (_, r) -> root_name r) c.c_args))))
    s.s_calls;
  Buffer.contents buf
