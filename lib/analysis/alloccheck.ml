(* lint: allow domain-safety — the callee whitelist table is built once
   at module initialization and never written afterwards; the linter
   itself runs single-domain. *)

(* Alloccheck: intraprocedural allocation-effect analysis over the
   typed tree, proving that [@lipsin.noalloc]-annotated functions
   contain no allocating constructs, with a call-graph walk so a
   noalloc function only calls noalloc-or-whitelisted callees.

   The pass emulates two compiler facts so that idiomatic zero-alloc
   OCaml passes clean:

   - [Simplif.eliminate_ref]: a local [let r = ref e] whose every use
     is directly under [!]/[:=]/[incr]/[decr] becomes a mutable stack
     variable and never allocates.  The checker tracks such refs and
     flags only refs that escape that discipline.

   - cmmgen unboxing: float/int64/int32/nativeint primitives
     (Int64.logand, +., Bytes.get_int64_le, ...) return boxed values
     in general but compile unboxed in straight-line arithmetic.
     These are whitelisted; the residual risk (a boxed value crossing
     a non-inlined call boundary) is exactly what [bench --alloc]
     measures at runtime, so the static and dynamic verdicts check
     each other.  A noalloc function whose own return type is
     float/int64/int32/nativeint is still flagged: its result is
     boxed at every call site. *)

let rule = "alloccheck"

(* Calls with these (normalised) heads never allocate on the success
   path.  Float/boxed-int arithmetic is included under the cmmgen
   caveat documented above. *)
let whitelist =
  let ops =
    [
      "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lnot"; "lsl";
      "lsr"; "asr"; "~-"; "~+"; "succ"; "pred"; "abs"; "not"; "&&"; "&";
      "||"; "or"; "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!="; "min";
      "max"; "ignore"; "incr"; "decr"; "!"; ":="; "fst"; "snd";
      "+."; "-."; "*."; "/."; "**"; "~-."; "float_of_int"; "int_of_float";
      "truncate"; "sqrt"; "ceil"; "floor"; "log"; "exp"; "abs_float";
      "mod_float"; "char_of_int"; "int_of_char"; "int_of_string_opt";
    ]
  in
  let mods =
    [
      ("Char", [ "code"; "chr"; "unsafe_chr"; "equal"; "compare" ]);
      ("Bool", [ "not"; "equal"; "compare"; "to_int" ]);
      ( "Int",
        [ "compare"; "equal"; "min"; "max"; "abs"; "to_float"; "of_float";
          "logand"; "logor"; "logxor"; "lognot"; "shift_left";
          "shift_right"; "shift_right_logical"; "add"; "sub"; "mul"; "div";
          "rem"; "neg"; "succ"; "pred" ] );
      ( "Int64",
        [ "add"; "sub"; "mul"; "div"; "rem"; "logand"; "logor"; "logxor";
          "lognot"; "neg"; "shift_left"; "shift_right";
          "shift_right_logical"; "of_int"; "to_int"; "of_int32";
          "to_int32"; "of_nativeint"; "to_nativeint"; "of_float";
          "to_float"; "bits_of_float"; "float_of_bits"; "equal"; "compare";
          "min"; "max"; "succ"; "pred"; "abs" ] );
      ( "Int32",
        [ "add"; "sub"; "mul"; "div"; "rem"; "logand"; "logor"; "logxor";
          "lognot"; "neg"; "shift_left"; "shift_right";
          "shift_right_logical"; "of_int"; "to_int"; "equal"; "compare" ] );
      ( "Nativeint",
        [ "add"; "sub"; "mul"; "div"; "rem"; "logand"; "logor"; "logxor";
          "lognot"; "neg"; "shift_left"; "shift_right";
          "shift_right_logical"; "of_int"; "to_int"; "equal"; "compare" ] );
      ( "Float",
        [ "add"; "sub"; "mul"; "div"; "neg"; "abs"; "of_int"; "to_int";
          "equal"; "compare"; "min"; "max"; "ceil"; "floor"; "round";
          "trunc"; "ldexp" ] );
      ( "Bytes",
        [ "get"; "set"; "length"; "fill"; "blit"; "blit_string";
          "unsafe_blit"; "unsafe_fill"; "equal"; "compare"; "get_int64_le";
          "set_int64_le"; "get_int64_be"; "get_int32_le"; "set_int32_le";
          "get_uint8"; "set_uint8"; "get_int8"; "get_uint16_le";
          "set_uint16_le"; "get_uint16_ne" ] );
      ( "String",
        [ "length"; "get"; "equal"; "compare"; "blit" ] );
      ( "Array",
        [ "get"; "set"; "length"; "fill"; "blit" ] );
      ( "Atomic",
        [ "get"; "set"; "exchange"; "compare_and_set"; "fetch_and_add";
          "incr"; "decr" ] );
      ("Hashtbl", [ "mem"; "length" ]);
      ("Queue", [ "length"; "is_empty" ]);
      ("Domain", [ "is_main_domain" ]);
      ("Obs", [ "enabled" ]);
    ]
  in
  let tbl = Hashtbl.create 256 in
  List.iter (fun k -> Hashtbl.replace tbl k ()) ops;
  List.iter
    (fun (m, fs) ->
      List.iter (fun f -> Hashtbl.replace tbl (m ^ "." ^ f) ()) fs)
    mods;
  tbl

let whitelisted key = Hashtbl.mem whitelist key

(* Applications of these heads abort (raise/exit): their argument
   expressions are cold and exempt from the allocation judgement. *)
let aborts key =
  match key with
  | "raise" | "raise_notrace" | "failwith" | "invalid_arg" | "exit" -> true
  | _ -> false

type event =
  | Ealloc of string * Location.t  (* what allocates, where *)
  | Ecall of string * Location.t  (* normalised callee key *)

(* ---- per-function event extraction --------------------------------- *)

type scope = {
  idx : Typed.index;
  aliases : (string, string list) Hashtbl.t;
  unit_name : string;
  prefixes : string list;  (* innermost-first module prefixes, "Obs.Counter." *)
  mutable locals : Ident.t list;  (* params, lets, loop vars *)
  mutable elimrefs : Ident.t list;  (* eliminate_ref candidates *)
  mutable events : (event * bool) list;  (* event, allowed? *)
}

(* Innermost-first enclosing-module prefixes of a binding key:
   "Obs.Counter.incr" -> ["Obs.Counter."; "Obs."].  An unqualified
   name in the body resolves against these in scoping order. *)
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
let is_elimref sc id = List.exists (Ident.same id) sc.elimrefs

(* Key for a callee/ident path as seen in this scope.  A unit-local
   toplevel name ("subset_entry" inside fastpath.ml) is qualified with
   the unit short name so the call-graph finds its binding. *)
let scoped_key sc (p : Path.t) =
  match p with
  | Path.Pident id when not (is_local sc id) -> (
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

let boxed_type_name ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
    match List.rev (Typed.flatten_path p) with
    | ("float" | "int64" | "int32" | "nativeint") :: _ ->
      Some (List.hd (List.rev (Typed.flatten_path p)))
    | _ -> None)
  | _ -> None

(* Does this application leave the function under-applied?  Omitted
   optional arguments show as [None] in the argument list; a result
   type that is still an arrow means a partial application closure. *)
let partial_apply (e : Typedtree.expression) args =
  List.exists (fun (_, a) -> Option.is_none a) args
  ||
  match
    Types.get_desc (Ctype.expand_head e.exp_env e.exp_type)
  with
  | Types.Tarrow _ -> true
  | _ -> false
  | exception _ -> false

let add sc ~allowed ev = sc.events <- (ev, allowed) :: sc.events

let rec walk sc ~allowed (e : Typedtree.expression) =
  let allowed =
    allowed || Typed.has_attr Typed.allow_alloc_attr e.exp_attributes
  in
  let loc = e.exp_loc in
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) when is_elimref sc id ->
    (* Any use outside !/:=/incr/decr heapifies the ref. *)
    add sc ~allowed
      (Ealloc ("ref " ^ Ident.name id ^ " escapes (not eliminable)", loc))
  | Texp_ident _ | Texp_constant _ | Texp_instvar _ | Texp_unreachable -> ()
  | Texp_let (_, vbs, body) ->
    List.iter (fun vb -> walk_vb sc ~allowed vb) vbs;
    walk sc ~allowed body
  | Texp_function { param; cases; _ } ->
    add sc ~allowed (Ealloc ("closure allocation", loc));
    sc.locals <- param :: sc.locals;
    walk_cases sc ~allowed cases
  | Texp_apply (fn, args) -> walk_apply sc ~allowed ~loc e fn args
  | Texp_match (scrut, cases, _) ->
    walk sc ~allowed scrut;
    walk_cases sc ~allowed cases
  | Texp_try (body, cases) ->
    walk sc ~allowed body;
    walk_cases sc ~allowed cases
  | Texp_tuple es ->
    add sc ~allowed (Ealloc ("tuple allocation", loc));
    List.iter (walk sc ~allowed) es
  | Texp_construct (_, cd, args) ->
    if not (List.is_empty args) then
      add sc ~allowed
        (Ealloc ("constructor " ^ cd.cstr_name ^ " allocation", loc));
    List.iter (walk sc ~allowed) args
  | Texp_variant (_, arg) ->
    Option.iter
      (fun a ->
        add sc ~allowed (Ealloc ("polymorphic variant allocation", loc));
        walk sc ~allowed a)
      arg
  | Texp_record { fields; extended_expression; _ } ->
    add sc ~allowed (Ealloc ("record allocation", loc));
    Option.iter (walk sc ~allowed) extended_expression;
    Array.iter
      (fun (_, def) ->
        match def with
        | Typedtree.Overridden (_, e) -> walk sc ~allowed e
        | Typedtree.Kept _ -> ())
      fields
  | Texp_field (e, _, _) -> walk sc ~allowed e
  | Texp_setfield (dst, _, _, v) ->
    walk sc ~allowed dst;
    walk sc ~allowed v
  | Texp_array es ->
    add sc ~allowed (Ealloc ("array allocation", loc));
    List.iter (walk sc ~allowed) es
  | Texp_ifthenelse (c, t, f) ->
    walk sc ~allowed c;
    walk sc ~allowed t;
    Option.iter (walk sc ~allowed) f
  | Texp_sequence (a, b) ->
    walk sc ~allowed a;
    walk sc ~allowed b
  | Texp_while (c, body) ->
    walk sc ~allowed c;
    walk sc ~allowed body
  | Texp_for (id, _, lo, hi, _, body) ->
    sc.locals <- id :: sc.locals;
    walk sc ~allowed lo;
    walk sc ~allowed hi;
    walk sc ~allowed body
  | Texp_assert (e, _) ->
    (* [assert false] and friends are cold; a live condition runs hot. *)
    (match e.exp_desc with
    | Texp_construct (_, { cstr_name = "false"; _ }, _) -> ()
    | _ -> walk sc ~allowed e)
  | Texp_lazy _ -> add sc ~allowed (Ealloc ("lazy allocation", loc))
  | Texp_letmodule (_, _, _, _, body) ->
    add sc ~allowed (Ealloc ("local module", loc));
    walk sc ~allowed body
  | Texp_open (_, body) -> walk sc ~allowed body
  | _ -> add sc ~allowed (Ealloc ("unrecognised construct (conservative)", loc))

and walk_cases : type k. scope -> allowed:bool -> k Typedtree.case list -> unit
    =
 fun sc ~allowed cases ->
  List.iter
    (fun (c : _ Typedtree.case) ->
      sc.locals <- Typed.pat_idents c.c_lhs @ sc.locals;
      Option.iter (walk sc ~allowed) c.c_guard;
      walk sc ~allowed c.c_rhs)
    cases

and walk_vb sc ~allowed (vb : Typedtree.value_binding) =
  let allowed =
    allowed || Typed.has_attr Typed.allow_alloc_attr vb.vb_attributes
  in
  match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
  | ( Tpat_var (id, _),
      Texp_apply
        ( { exp_desc = Texp_ident (rp, _, _); _ },
          [ (_, Some seed) ] ) )
    when String.equal (scoped_key sc rp) "ref"
         || String.equal (Typed.key_of_path ~aliases:sc.aliases rp) "ref" ->
    (* eliminate_ref candidate: allocation charged only if a use
       escapes the deref/assign discipline (checked during the walk). *)
    sc.elimrefs <- id :: sc.elimrefs;
    sc.locals <- id :: sc.locals;
    walk sc ~allowed seed
  | _ ->
    sc.locals <- Typed.pat_idents vb.vb_pat @ sc.locals;
    walk sc ~allowed vb.vb_expr

and walk_apply sc ~allowed ~loc whole fn args =
  match fn.exp_desc with
  | Texp_ident (p, _, _) -> (
    let key = scoped_key sc p in
    let bare = Typed.key_of_path ~aliases:sc.aliases p in
    match bare with
    | "!" | ":=" | "incr" | "decr" -> (
      (* deref/assign: an elimref ident in destination position is the
         sanctioned pattern, not an escape. *)
      match args with
      | (_, Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ }) :: rest
        when is_elimref sc id ->
        List.iter (fun (_, a) -> Option.iter (walk sc ~allowed) a) rest
      | _ -> List.iter (fun (_, a) -> Option.iter (walk sc ~allowed) a) args)
    | "@@" -> (
      (* f @@ x is direct application of f *)
      match args with
      | (_, Some real_fn) :: rest -> walk_apply sc ~allowed ~loc whole real_fn rest
      | _ -> ())
    | "|>" -> (
      (* x |> f: argument first, then direct application of f *)
      match args with
      | [ (l1, Some arg); (_, Some real_fn) ] ->
        walk_apply sc ~allowed ~loc whole real_fn [ (l1, Some arg) ]
      | _ -> List.iter (fun (_, a) -> Option.iter (walk sc ~allowed) a) args)
    | _ when aborts bare -> ()
    | _ ->
      if partial_apply whole args then
        add sc ~allowed (Ealloc ("partial application of " ^ key, loc));
      (match p with
      | Path.Pident id when is_local sc id ->
        add sc ~allowed (Ealloc ("indirect call through " ^ Ident.name id, loc))
      | _ ->
        if String.equal bare "ref" then
          add sc ~allowed (Ealloc ("ref allocation (not bound to a local let)", loc))
        else if not (whitelisted bare) then add sc ~allowed (Ecall (key, loc)));
      List.iter (fun (_, a) -> Option.iter (walk sc ~allowed) a) args)
  | _ ->
    (* computed callee: conservatively a closure-valued expression *)
    walk sc ~allowed fn;
    if partial_apply whole args then
      add sc ~allowed (Ealloc ("partial application", loc));
    List.iter (fun (_, a) -> Option.iter (walk sc ~allowed) a) args

(* Descend the curried [fun]-spine of a binding; returns the body and
   registers the parameters as locals. *)
let rec spine sc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { param; cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ }
    ->
    sc.locals <- (param :: Typed.pat_idents c_lhs) @ sc.locals;
    spine sc c_rhs
  | _ -> e

(* Events of one binding's body (spine descent, then full walk).  A
   bare-ident body ([let popcount = Other.f]) is an eta-reduced alias:
   treat it as a call so the graph walk chains through. *)
let analyze idx (b : Typed.binding) =
  let sc =
    {
      idx;
      aliases = b.b_aliases;
      unit_name = b.b_unit.unit_name;
      prefixes = prefixes_of_key b.b_key;
      locals = [];
      elimrefs = [];
      events = [];
    }
  in
  let allowed =
    Typed.has_attr Typed.allow_alloc_attr b.b_vb.vb_attributes
  in
  let body = spine sc b.b_vb.vb_expr in
  (match body.exp_desc with
  | Texp_ident (p, _, _)
    when (match p with
         | Path.Pident id -> not (is_local sc id)
         | _ -> true) -> (
    let bare = Typed.key_of_path ~aliases:sc.aliases p in
    if not (whitelisted bare) then
      add sc ~allowed (Ecall (scoped_key sc p, body.exp_loc)))
  | _ -> walk sc ~allowed body);
  (* A noalloc function returning float/int64/... boxes its result at
     every call site. *)
  (match boxed_type_name body.exp_type with
  | Some ty ->
    add sc ~allowed
      (Ealloc ("returns boxed " ^ ty ^ " (result boxed at call sites)",
               body.exp_loc))
  | None -> ());
  List.rev sc.events

(* ---- call-graph walk ------------------------------------------------ *)

let check_roots idx =
  let memo : (string, Finding.t list) Hashtbl.t = Hashtbl.create 64 in
  let rec visit ~chain key =
    match Hashtbl.find_opt memo key with
    | Some fs -> fs
    | None when List.mem key chain -> []  (* recursion: judged once *)
    | None -> (
      match Typed.resolve_binding idx key with
      | None -> [] (* caller reports the unknown callee *)
      | Some b ->
        Hashtbl.replace memo key [];  (* cut cycles *)
        let file = b.b_unit.unit_source in
        let chain = chain @ [ key ] in
        let via =
          match chain with
          | [ _ ] -> ""
          | _ -> " [via " ^ String.concat " -> " chain ^ "]"
        in
        let fs =
          List.concat_map
            (fun (ev, allowed) ->
              if allowed then []
              else
                match ev with
                | Ealloc (what, loc) ->
                  [ Typed.finding_of_loc ~file ~rule loc (what ^ via) ]
                | Ecall (callee, loc) -> (
                  match Typed.resolve_binding idx callee with
                  | Some _ -> visit ~chain callee
                  | None ->
                    [
                      Typed.finding_of_loc ~file ~rule loc
                        ("calls " ^ callee
                       ^ ", which is neither whitelisted nor analyzable"
                       ^ via);
                    ]))
            (analyze idx b)
        in
        Hashtbl.replace memo key fs;
        fs)
  in
  let roots =
    Hashtbl.fold
      (fun key (b : Typed.binding) acc ->
        if Typed.has_attr Typed.noalloc_attr b.b_vb.vb_attributes then
          key :: acc
        else acc)
      idx.Typed.idx_bindings []
  in
  let findings =
    List.concat_map (fun key -> visit ~chain:[] key) (List.sort String.compare roots)
  in
  (List.sort String.compare roots, List.sort_uniq Finding.compare_locs findings)

(* Entry point: load cmts under [roots] (directories), return the
   noalloc roots found and the findings. *)
let run ~roots =
  let units = Typed.load_units roots in
  let idx = Typed.index_units units in
  check_roots idx

let run_units units = check_roots (Typed.index_units units)
