(* Boundscheck: interval/affine abstract interpretation over the typed
   tree, discharging an in-bounds obligation for every index expression
   reachable from a [@lipsin.inbounds] root.

   The abstract domain is conjunctions of integer-linear inequalities
   [L >= 0] where L is a degree-<=2 polynomial over symbolic values:
   function parameters, let-bound values, loop counters, record fields
   (["t.stride"]), array/bytes lengths (["len:t.vals"]) and array element
   values (["t.block_off[p]"]).  Facts come from four places:

   - control flow: comparison guards, for-loop ranges, while conditions
     and aborting branches (raise/invalid_arg) refine the environment
     along the surviving path;
   - let shapes: [let words = len lsr 3] and friends generate the
     scaled facts the shift/div/mask semantics justify;
   - row-layout invariants that Analysis.Audit already enforces at
     runtime (per-table row length = n_ports*groups, one table per
     candidate, plane widths, ...), trusted as environment facts and
     instantiated when a field of an engine record is touched;
   - toplevel constant arrays ([let small = Array.init 1025 ...]).

   Mutation is handled by sign-aware fact stripping: a write to a
   symbol kills every strippable fact mentioning it, except that a
   provably non-decreasing write ([incr w]) keeps lower bounds and a
   non-increasing one keeps upper bounds — which is exactly the
   monotone-counter invariant the while-loop kernels need.  Loop bodies
   are analyzed against a pre-stripped environment so facts from before
   the loop cannot leak across iterations.

   The entailment check eliminates one monomial at a time by
   substituting a bound from a matching fact (products additionally
   need the cofactor proved non-negative), with an integrality bonus of
   [|a| - 1] per elimination so ceiling facts like [8*len >= bits,
   bits >= 1 |- len >= 1] go through.  Anything unprovable is reported
   with a witness access path, suppressible only via
   [@lipsin.allow_unchecked "reason"]. *)

let rule = "boundscheck"

module SS = Set.Make (String)
module SM = Map.Make (String)

module MM = Map.Make (struct
  type t = string list

  let compare = List.compare String.compare
end)

(* ---- linear (degree <= 2) expressions ------------------------------- *)

type lin = { k : int; tm : int MM.t }

let lconst k = { k; tm = MM.empty }
let lzero = lconst 0
let lsym s = { k = 0; tm = MM.singleton [ s ] 0 |> MM.map (fun _ -> 1) }

let lnorm l = { l with tm = MM.filter (fun _ c -> c <> 0) l.tm }

let ladd a b =
  lnorm
    {
      k = a.k + b.k;
      tm = MM.union (fun _ x y -> Some (x + y)) a.tm b.tm;
    }

let lscale c l =
  if c = 0 then lzero else { k = c * l.k; tm = MM.map (fun x -> c * x) l.tm }

let lsub a b = ladd a (lscale (-1) b)

(* product; None when the degree would exceed 2 *)
let lmul a b =
  let exception Too_deep in
  try
    let acc = ref (lconst (a.k * b.k)) in
    let addm m c = acc := ladd !acc { k = 0; tm = MM.singleton m c } in
    MM.iter (fun m c -> addm m (c * b.k)) a.tm;
    MM.iter (fun m c -> addm m (c * a.k)) b.tm;
    MM.iter
      (fun ma ca ->
        MM.iter
          (fun mb cb ->
            let m = List.sort String.compare (ma @ mb) in
            if List.length m > 2 then raise Too_deep;
            addm m (ca * cb))
          b.tm)
      a.tm;
    Some (lnorm !acc)
  with Too_deep -> None

let lin_to_string l =
  let b = Buffer.create 32 in
  let first = ref true in
  MM.iter
    (fun m c ->
      if c <> 0 then begin
        if (not !first) && c > 0 then Buffer.add_char b '+';
        first := false;
        if c = -1 then Buffer.add_char b '-'
        else if c <> 1 then Buffer.add_string b (string_of_int c ^ "*");
        Buffer.add_string b (String.concat "*" m)
      end)
    l.tm;
  if l.k <> 0 || !first then begin
    if (not !first) && l.k > 0 then Buffer.add_char b '+';
    Buffer.add_string b (string_of_int l.k)
  end;
  Buffer.contents b

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Divide the variable coefficients by their gcd and floor the
   constant: [8x - 8y + 7 >= 0  ->  x - y >= 0]. *)
let tighten l =
  let l = lnorm l in
  let g = MM.fold (fun _ c acc -> gcd c acc) l.tm 0 in
  if g <= 1 then l
  else
    {
      k = (if l.k >= 0 then l.k / g else -(((-l.k) + g - 1) / g));
      tm = MM.map (fun c -> c / g) l.tm;
    }

(* ---- facts ----------------------------------------------------------- *)

(* [fl >= 0]; strippable facts die when a mentioned symbol is written,
   invariant facts (layout, globals) never do. *)
type fact = { fl : lin; fstrip : bool }

let fact l = { fl = tighten l; fstrip = true }
let invariant l = { fl = tighten l; fstrip = false }
let fact_key f = (if f.fstrip then "s:" else "i:") ^ lin_to_string f.fl

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let mentions_prefix f p =
  MM.exists
    (fun m _ -> List.exists (fun s -> starts_with ~prefix:p s) m)
    f.fl.tm

(* write classes: non-decreasing, non-increasing, arbitrary *)
type wclass = Up | Down | Any

let merge_wclass a b = if a = b then a else Any

(* Does writing [s] with class [cls] invalidate fact [f]?  A fact with
   a positive coefficient on [s] is (part of) a lower bound for [s] and
   survives non-decreasing writes; negative coefficient dually.  A
   product mention always dies. *)
let write_kills f s cls =
  if not f.fstrip then false
  else
    match MM.fold
            (fun m c acc ->
              if not (List.mem s m) then acc
              else if List.length m > 1 then `Product
              else
                match acc with
                | `No -> if c > 0 then `Pos else `Neg
                | a -> a)
            f.fl.tm `No
    with
    | `No -> false
    | `Product -> true
    | `Pos -> cls <> Up
    | `Neg -> cls <> Down

type wtarget = Wsym of string * wclass | Wprefix of string | Wall

let strip_write env tgt =
  match tgt with
  | Wall -> List.filter (fun f -> not f.fstrip) env
  | Wprefix p -> List.filter (fun f -> (not f.fstrip) || not (mentions_prefix f p)) env
  | Wsym (s, cls) -> List.filter (fun f -> not (write_kills f s cls)) env

let inter_env a b =
  let keys = List.fold_left (fun acc f -> SS.add (fact_key f) acc) SS.empty b in
  List.filter (fun f -> SS.mem (fact_key f) keys) a

(* ---- analysis state -------------------------------------------------- *)

type gstate = {
  idx : Typed.index;
  mutable subst : lin SM.t;  (* immutable value syms only *)
  mutable psubst : string SM.t;  (* local sym -> access path *)
  mutable refsyms : SS.t;  (* symbols that name local refs *)
  mutable gfacts : fact list;  (* layout + toplevel invariants *)
  mutable elem_len : (string * lin) list;  (* path prefix -> elem length *)
  mutable inst : int;  (* per-inline instantiation counter *)
  mutable gensym : int;
  mutable visited : SS.t;  (* binding keys walked from some root *)
  mutable obligations : int;
  mutable proved : int;
  mutable suppressed : int;
  mutable findings : Finding.t list;
  mutable layout_done : SS.t;  (* type-key ^ "@" ^ base memo *)
}

type scope = {
  g : gstate;
  aliases : (string, string list) Hashtbl.t;
  unit_name : string;
  prefixes : string list;
  file : string;
  mutable locals : (Ident.t * string) list;  (* ident -> symbol *)
  chain : string list;  (* inline chain, for witness messages *)
  depth : int;
}

let fresh_sym g base =
  g.gensym <- g.gensym + 1;
  base ^ "?" ^ string_of_int g.gensym

let local_sym sc id =
  List.find_map
    (fun (i, s) -> if Ident.same i id then Some s else None)
    sc.locals

let bind_local sc id =
  let s = Ident.unique_name id ^ "@" ^ string_of_int sc.g.inst in
  sc.locals <- (id, s) :: sc.locals;
  s

(* Innermost-first enclosing-module prefixes of a binding key, as in
   Alloccheck: "Obs.Histogram.record" -> ["Obs.Histogram."; "Obs."]. *)
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

let is_local sc id = Option.is_some (local_sym sc id)

let scoped_key sc (p : Path.t) =
  match p with
  | Path.Pident id when not (is_local sc id) -> (
    let bare = Typed.key_of_path ~aliases:sc.aliases p in
    if String.contains bare '.' then bare
    else
      match
        List.find_opt
          (fun pre ->
            Option.is_some (Typed.find_binding sc.g.idx (pre ^ bare)))
          sc.prefixes
      with
      | Some pre -> pre ^ bare
      | None -> sc.unit_name ^ "." ^ bare)
  | _ -> Typed.key_of_path ~aliases:sc.aliases p

let bare_key sc (p : Path.t) = Typed.key_of_path ~aliases:sc.aliases p

(* ---- layout invariants ----------------------------------------------- *)

(* Trusted mirrors of what Analysis.Audit enforces on compiled rows.
   Instantiated once per (type, base path) when a field is accessed. *)

let fld b f = lsym (b ^ "." ^ f)
let flen b f = lsym ("len:" ^ b ^ "." ^ f)

let eqf a b = [ invariant (lsub a b); invariant (lsub b a) ]
let gef a b = [ invariant (lsub a b) ]  (* a >= b *)

(* returns (facts, elem-length templates) *)
let layout_table : (string * (string -> fact list * (string * lin) list)) list
    =
  let bitvec b =
    ( eqf (lscale 8 (flen b "data")) (fld b "bits")
      |> List.filteri (fun i _ -> i = 0)  (* 8*len >= bits *)
      |> fun up ->
      up
      @ gef (ladd (fld b "bits") (lconst 7)) (lscale 8 (flen b "data"))
      @ gef (fld b "bits") (lconst 1),
      [] )
  in
  let meters b =
    ( List.concat_map
        (fun f -> gef (flen b f) (lconst 1))
        [ "md"; "mfill"; "mloop"; "mbad"; "mhits"; "msusp"; "mveto";
          "mlocal"; "msvc"; "mstitch" ],
      [] )
  in
  let rows b =
    ( gef (fld b "groups") (lconst 1)
      @ gef (fld b "d") (lconst 1)
      @ gef (fld b "n_ports") lzero
      @ gef (fld b "n_virt") lzero
      @ List.concat_map
          (fun f -> eqf (flen b f) (fld b "d"))
          [ "phys"; "in_tags"; "blocks"; "block_off"; "virt"; "local"; "svc";
            "stitch"; "k_for_table" ]
      @ List.concat_map
          (fun f -> eqf (flen b f) (fld b "n_ports"))
          [ "out_links"; "out_index"; "up" ]
      @ eqf (flen b "v_out_off") (ladd (fld b "n_virt") (lconst 1)),
      let n_groups f n = (b ^ "." ^ f ^ "[", Option.get (lmul n (fld b "groups"))) in
      [
        n_groups "phys" (fld b "n_ports");
        n_groups "in_tags" (fld b "n_ports");
        n_groups "virt" (fld b "n_virt");
        n_groups "svc" (flen b "svc_names");
        n_groups "stitch" (flen b "stitch_next");
        (* local[] holds exactly one row *)
        (b ^ ".local[", fld b "groups");
        (b ^ ".block_off[", ladd (fld b "n_ports") (lconst 1));
      ] )
  in
  let bitsliced b =
    let r = b ^ ".rows" in
    ( gef (flen b "seen") (fld r "n_ports")
      @ gef (fld b "stride") (fld b "data_len")
      @ List.concat_map
          (fun f -> eqf (flen b f) (fld r "d"))
          [ "sl_phys"; "sl_in"; "sl_virt"; "sl_svc"; "sl_stitch" ]
      (* npos = 8 * stride / plane_bits with plane_bits in {4, 8}; only
         the division-free consequences are affine *)
      @ eqf (flen b "vals") (fld b "npos")
      @ gef (fld b "npos") (fld b "stride")
      @ gef (lscale 2 (fld b "stride")) (fld b "npos")
      @ gef (fld b "plane_bits") (lconst 4)
      @ gef (lconst 8) (fld b "plane_bits")
      @ eqf (flen b "batch_ok") (fld b "batch_cap")
      @ eqf (flen b "batch_filters") (fld b "batch_cap")
      @ gef (fld b "batch_cap") (lconst 1)
      @ eqf (flen b "batch_vals")
          (Option.get (lmul (fld b "batch_cap") (fld b "npos"))),
      [] )
  in
  let slice b =
    ( eqf (flen b "sl_valid") (fld b "sl_sub")
      @ gef (fld b "sl_sub") lzero
      @ gef (fld b "sl_n") lzero,
      [] )
  in
  [
    ("Bitvec.t", bitvec);
    ("Rows.t", rows);
    ("Bitsliced.t", bitsliced);
    ("Bitsliced.slice", slice);
    ("Bitsliced.meters", meters);
  ]

(* ---- typed-tree helpers ---------------------------------------------- *)

let type_key sc (e : Typedtree.expression) =
  match Types.get_desc (Ctype.expand_head e.exp_env e.exp_type) with
  | Types.Tconstr (p, _, _) ->
    let k = Typed.key_of_segments ~aliases:sc.aliases (Typed.flatten_path p) in
    Some (if String.contains k '.' then k else sc.unit_name ^ "." ^ k)
  | _ -> None
  | exception _ -> None

let is_int_expr sc (e : Typedtree.expression) =
  match Types.get_desc (Ctype.expand_head e.exp_env e.exp_type) with
  | Types.Tconstr (p, _, _) -> (
    match List.rev (Typed.flatten_path p) with
    | "int" :: _ -> true
    | _ -> false)
  | _ -> false
  | exception _ -> ignore sc; false

let instantiate_layout sc (e : Typedtree.expression) base =
  match type_key sc e with
  | None -> ()
  | Some tk -> (
    match List.assoc_opt tk layout_table with
    | None -> ()
    | Some mk ->
      let memo = tk ^ "@" ^ base in
      if not (SS.mem memo sc.g.layout_done) then begin
        sc.g.layout_done <- SS.add memo sc.g.layout_done;
        let facts, elems = mk base in
        sc.g.gfacts <- facts @ sc.g.gfacts;
        sc.g.elem_len <- elems @ sc.g.elem_len
      end)

(* Access path of an expression, if it is a chain of idents, record
   fields and array reads.  Field access also instantiates the layout
   invariants for the record's type. *)
let rec path_of sc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) when is_local sc id -> (
    let s = Option.get (local_sym sc id) in
    match SM.find_opt s sc.g.psubst with Some p -> Some p | None -> Some s)
  | Texp_ident (p, _, _) -> Some ("g:" ^ scoped_key sc p)
  | Texp_field (b, _, lbl) -> (
    match path_of sc b with
    | None -> None
    | Some pb ->
      instantiate_layout sc b pb;
      Some (pb ^ "." ^ lbl.lbl_name))
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
    match (bare_key sc p, args) with
    | ( ("Array.get" | "Array.unsafe_get" | "Idx.get"),
        [ (_, Some a); (_, Some i) ] ) -> (
      match path_of sc a with
      | None -> None
      | Some pa ->
        let is =
          match lin_of sc i with
          | Some l -> lin_to_string l
          | None -> fresh_sym sc.g "i"
        in
        Some (pa ^ "[" ^ is ^ "]"))
    | _ -> None)
  | _ -> None

(* Linear view of an int expression. *)
and lin_of sc (e : Typedtree.expression) : lin option =
  match e.exp_desc with
  | Texp_constant (Const_int n) -> Some (lconst n)
  | Texp_ident _ | Texp_field _ -> (
    match path_of sc e with Some p -> Some (lookup_sym sc p) | None -> None)
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
    let bare = bare_key sc p in
    let two f =
      match args with
      | [ (_, Some a); (_, Some b) ] -> (
        match (lin_of sc a, lin_of sc b) with
        | Some la, Some lb -> f la lb
        | _ -> None)
      | _ -> None
    in
    match bare with
    | "+" -> two (fun a b -> Some (ladd a b))
    | "-" -> two (fun a b -> Some (lsub a b))
    | "*" -> two lmul
    | "succ" -> (
      match args with
      | [ (_, Some a) ] -> Option.map (fun l -> ladd l (lconst 1)) (lin_of sc a)
      | _ -> None)
    | "pred" -> (
      match args with
      | [ (_, Some a) ] -> Option.map (fun l -> lsub l (lconst 1)) (lin_of sc a)
      | _ -> None)
    | "~-" -> (
      match args with
      | [ (_, Some a) ] -> Option.map (lscale (-1)) (lin_of sc a)
      | _ -> None)
    | "lsl" -> (
      match args with
      | [ (_, Some a); (_, Some { exp_desc = Texp_constant (Const_int k); _ }) ]
        when k >= 0 && k < 30 ->
        Option.map (lscale (1 lsl k)) (lin_of sc a)
      | _ -> None)
    | "!" -> (
      match args with
      | [ (_, Some r) ] -> (
        match path_of sc r with Some p -> Some (lookup_sym sc p) | None -> None)
      | _ -> None)
    | "Array.get" | "Array.unsafe_get" | "Idx.get" -> (
      match path_of sc e with Some p -> Some (lookup_sym sc p) | None -> None)
    | "Array.length" | "Bytes.length" | "String.length" -> (
      match args with
      | [ (_, Some a) ] -> Some (len_lin sc a)
      | _ -> None)
    | _ -> None)
  | _ -> None

and lookup_sym sc s =
  match SM.find_opt s sc.g.subst with Some l -> l | None -> lsym s

(* Length of a container expression: an element-length template if the
   path matches one, else the shared [len:path] symbol. *)
and len_lin sc (a : Typedtree.expression) =
  match path_of sc a with
  | None -> lsym (fresh_sym sc.g "len")
  | Some p -> (
    match
      List.find_opt (fun (pre, _) -> starts_with ~prefix:pre p) sc.g.elem_len
    with
    | Some (_, l) -> l
    | None -> lsym ("len:" ^ p))

(* ---- entailment ------------------------------------------------------ *)

let is_len_sym s = starts_with ~prefix:"len:" s

(* env |- goal >= 0.  One monomial is eliminated per step by
   substituting a bound from a fact with the opposite-sign coefficient;
   the conclusion [a*G >= V] plus integrality of G licenses the
   [|a| - 1] constant bonus on the new goal. *)
let entail_facts facts goal =
  let memo = Hashtbl.create 64 in
  let bonus a l = { l with k = l.k + a - 1 } in
  (* step budget: a refutable goal otherwise explores the fact set
     near-exhaustively; proofs of true goals stay far below this *)
  let steps = ref 0 in
  let rec go depth goal =
    incr steps;
    let goal = tighten goal in
    if MM.is_empty goal.tm then goal.k >= 0
    else if depth <= 0 || !steps > 60_000 then false
    else
      let key = lin_to_string goal in
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
        Hashtbl.replace memo key false;
        let monos = MM.bindings goal.tm in
        let negs, poss = List.partition (fun (_, c) -> c < 0) monos in
        let r = List.exists (try_mono depth goal) (negs @ poss) in
        if r then Hashtbl.replace memo key true;
        r
  and try_mono depth goal (m, c) =
    let rest = lnorm { goal with tm = MM.remove m goal.tm } in
    let nonneg s =
      is_len_sym s || go (depth - 1) (lsym s)
    in
    let drop_ok =
      c > 0
      && (match m with
         | [ s ] -> nonneg s
         | [ x; y ] -> nonneg x && nonneg y
         | _ -> false)
      && go (depth - 1) rest
    in
    drop_ok
    || List.exists
         (fun f ->
           let a = try MM.find m f.fl.tm with Not_found -> 0 in
           if a = 0 then false
           else
             let r = lnorm { f.fl with tm = MM.remove m f.fl.tm } in
             if c > 0 && a > 0 then
               go (depth - 1)
                 (bonus a (lsub (lscale a rest) (lscale c r)))
             else if c < 0 && a < 0 then
               go (depth - 1)
                 (bonus (-a) (ladd (lscale (-a) rest) (lscale c r)))
             else false)
         facts
    ||
    (* product monomial: bound one factor, cofactor must be >= 0 *)
    match m with
    | [ x; y ] ->
      let via fx fy =
        List.exists
          (fun f ->
            let a = try MM.find [ fx ] f.fl.tm with Not_found -> 0 in
            if a = 0 then false
            else
              let r = lnorm { f.fl with tm = MM.remove [ fx ] f.fl.tm } in
              match lmul r (lsym fy) with
              | None -> false
              | Some ry ->
                if c > 0 && a > 0 then
                  go (depth - 1) (lsym fy)
                  && go (depth - 1)
                       (bonus a (lsub (lscale a rest) (lscale c ry)))
                else if c < 0 && a < 0 then
                  go (depth - 1) (lsym fy)
                  && go (depth - 1)
                       (bonus (-a) (ladd (lscale (-a) rest) (lscale c ry)))
                else false)
          facts
      in
      via x y || via y x
    | _ -> false
  in
  go 14 goal

let entail sc env goal = entail_facts (env @ sc.g.gfacts) goal

(* ---- goal-directed bounds on non-linear index expressions ------------ *)

let const_of sc e =
  match lin_of sc e with
  | Some l when MM.is_empty l.tm -> Some l.k
  | _ -> None

let head_bare sc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
    Some (bare_key sc p, args)
  | _ -> None

(* prove e <= b / e >= b, descending through lsr/asr, division and
   masking by constants, mod, min/max and +/- with one linear side. *)
let rec prove_le sc env (e : Typedtree.expression) (b : lin) =
  (match lin_of sc e with
  | Some l -> entail sc env (lsub b l)
  | None -> false)
  ||
  match head_bare sc e with
  | Some (("lsr" | "asr"), [ (_, Some a); (_, Some k) ]) -> (
    match const_of sc k with
    | Some k when k >= 0 && k < 30 ->
      let f = 1 lsl k in
      prove_ge sc env a lzero
      && prove_le sc env a (ladd (lscale f b) (lconst (f - 1)))
    | _ -> false)
  | Some ("/", [ (_, Some a); (_, Some c) ]) -> (
    match const_of sc c with
    | Some c when c > 0 ->
      prove_ge sc env a lzero
      && prove_le sc env a (ladd (lscale c b) (lconst (c - 1)))
    | _ -> false)
  | Some ("land", [ (_, Some x); (_, Some y) ]) ->
    let masked a c =
      match const_of sc c with
      | Some c when c >= 0 ->
        entail sc env (lsub b (lconst c))
        || (prove_ge sc env a lzero && prove_le sc env a b)
      | _ -> false
    in
    masked x y || masked y x
  | Some ("mod", [ (_, Some a); (_, Some c) ]) -> (
    match const_of sc c with
    | Some c when c > 0 ->
      prove_ge sc env a lzero && entail sc env (lsub b (lconst (c - 1)))
    | _ -> false)
  | Some ("min", [ (_, Some x); (_, Some y) ]) ->
    prove_le sc env x b || prove_le sc env y b
  | Some ("max", [ (_, Some x); (_, Some y) ]) ->
    prove_le sc env x b && prove_le sc env y b
  | Some ("+", [ (_, Some x); (_, Some y) ]) ->
    (match lin_of sc x with
    | Some lx -> prove_le sc env y (lsub b lx)
    | None -> false)
    ||
    (match lin_of sc y with
    | Some ly -> prove_le sc env x (lsub b ly)
    | None -> false)
  | Some ("-", [ (_, Some x); (_, Some y) ]) ->
    (match lin_of sc y with
    | Some ly -> prove_le sc env x (ladd b ly)
    | None -> false)
    ||
    (match lin_of sc x with
    | Some lx -> prove_ge sc env y (lsub lx b)
    | None -> false)
  | Some ("lor", [ (_, Some x); (_, Some y) ]) -> (
    prove_ge sc env x lzero && prove_ge sc env y lzero
    &&
    match (lin_of sc x, lin_of sc y) with
    | Some lx, Some ly -> entail sc env (lsub b (ladd lx ly))
    | _ -> false)
  | _ -> false

and prove_ge sc env (e : Typedtree.expression) (b : lin) =
  (match lin_of sc e with
  | Some l -> entail sc env (lsub l b)
  | None -> false)
  ||
  match head_bare sc e with
  | Some ("lsr", [ (_, Some a); (_, Some k) ]) -> (
    (* logical shift: always >= 0 *)
    entail sc env (lscale (-1) b)
    ||
    match const_of sc k with
    | Some k when k >= 0 && k < 30 ->
      prove_ge sc env a (lscale (1 lsl k) b)
    | _ -> false)
  | Some ("asr", [ (_, Some a); (_, Some _) ]) ->
    prove_ge sc env a lzero && entail sc env (lscale (-1) b)
  | Some ("/", [ (_, Some a); (_, Some c) ]) -> (
    match const_of sc c with
    | Some c when c > 0 ->
      prove_ge sc env a lzero
      && (entail sc env (lscale (-1) b) || prove_ge sc env a (lscale c b))
    | _ -> false)
  | Some ("land", [ (_, Some x); (_, Some y) ]) ->
    let masked _a c =
      match const_of sc c with Some c when c >= 0 -> true | _ -> false
    in
    (masked x y || masked y x) && entail sc env (lscale (-1) b)
  | Some ("mod", [ (_, Some a); (_, Some c) ]) -> (
    match const_of sc c with
    | Some c when c > 0 ->
      prove_ge sc env a lzero && entail sc env (lscale (-1) b)
    | _ -> false)
  | Some ("min", [ (_, Some x); (_, Some y) ]) ->
    prove_ge sc env x b && prove_ge sc env y b
  | Some ("max", [ (_, Some x); (_, Some y) ]) ->
    prove_ge sc env x b || prove_ge sc env y b
  | Some ("+", [ (_, Some x); (_, Some y) ]) ->
    (match lin_of sc x with
    | Some lx -> prove_ge sc env y (lsub b lx)
    | None -> false)
    ||
    (match lin_of sc y with
    | Some ly -> prove_ge sc env x (lsub b ly)
    | None -> false)
  | Some ("-", [ (_, Some x); (_, Some y) ]) ->
    (match lin_of sc y with
    | Some ly -> prove_ge sc env x (ladd b ly)
    | None -> false)
  | Some ("lor", [ (_, Some x); (_, Some y) ]) ->
    prove_ge sc env x lzero && prove_ge sc env y lzero
    && (entail sc env (lscale (-1) b) || prove_ge sc env x b)
  | _ -> false

(* ---- flow refinement ------------------------------------------------- *)

(* Facts known when [e] evaluated to [truth].  Only int comparisons
   produce facts; &&/||/not follow the truth table. *)
let rec facts_of_cond sc ~truth (e : Typedtree.expression) =
  match head_bare sc e with
  | Some ("not", [ (_, Some a) ]) -> facts_of_cond sc ~truth:(not truth) a
  | Some ("&&", [ (_, Some a); (_, Some b) ]) when truth ->
    facts_of_cond sc ~truth a @ facts_of_cond sc ~truth b
  | Some ("||", [ (_, Some a); (_, Some b) ]) when not truth ->
    facts_of_cond sc ~truth a @ facts_of_cond sc ~truth b
  | Some ((("<" | "<=" | ">" | ">=" | "=" | "<>") as op),
          [ (_, Some a); (_, Some b) ])
    when is_int_expr sc a || is_int_expr sc b -> (
    match (lin_of sc a, lin_of sc b) with
    | Some la, Some lb -> (
      let le x y = [ fact (lsub y x) ] in  (* x <= y *)
      let lt x y = [ fact (lsub (lsub y x) (lconst 1)) ] in  (* x < y *)
      match (op, truth) with
      | "<", true -> lt la lb
      | "<", false -> le lb la
      | "<=", true -> le la lb
      | "<=", false -> lt lb la
      | ">", true -> lt lb la
      | ">", false -> le la lb
      | ">=", true -> le lb la
      | ">=", false -> lt la lb
      | "=", true | "<>", false -> le la lb @ le lb la
      | _ -> [])
    | _ -> [])
  | _ -> []

let abort_head = function
  | "raise" | "raise_notrace" | "failwith" | "invalid_arg" | "exit" -> true
  | _ -> false

let rec always_aborts sc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
    abort_head (bare_key sc p)
  | Texp_assert ({ exp_desc = Texp_construct (_, { cstr_name = "false"; _ }, _); _ }, _)
    -> true
  | Texp_sequence (_, b) | Texp_let (_, _, b) | Texp_open (_, b) ->
    always_aborts sc b
  | Texp_ifthenelse (_, t, Some f) -> always_aborts sc t && always_aborts sc f
  | Texp_match (_, cases, _) ->
    cases <> []
    && List.for_all (fun (c : _ Typedtree.case) -> always_aborts sc c.c_rhs) cases
  | _ -> false

(* ---- obligations ----------------------------------------------------- *)

(* accessor -> (container position, index position, width) *)
let accessor_table =
  [
    ("Array.get", (0, 1, 1)); ("Array.unsafe_get", (0, 1, 1));
    ("Array.set", (0, 1, 1)); ("Array.unsafe_set", (0, 1, 1));
    ("Bytes.get", (0, 1, 1)); ("Bytes.unsafe_get", (0, 1, 1));
    ("Bytes.set", (0, 1, 1)); ("Bytes.unsafe_set", (0, 1, 1));
    ("String.get", (0, 1, 1)); ("String.unsafe_get", (0, 1, 1));
    ("Bytes.get_int64_le", (0, 1, 8)); ("Bytes.get_int64_be", (0, 1, 8));
    ("Bytes.get_int64_ne", (0, 1, 8)); ("Bytes.set_int64_le", (0, 1, 8));
    ("Bytes.set_int64_be", (0, 1, 8)); ("Bytes.set_int64_ne", (0, 1, 8));
    ("Bytes.get_int32_le", (0, 1, 4)); ("Bytes.set_int32_le", (0, 1, 4));
    ("Bytes.get_uint16_le", (0, 1, 2)); ("Bytes.set_uint16_le", (0, 1, 2));
    ("Bytes.get_uint8", (0, 1, 1)); ("Bytes.set_uint8", (0, 1, 1));
    ("Bytes.get_int8", (0, 1, 1));
    ("Idx.get", (0, 1, 1)); ("Idx.set", (0, 1, 1));
    ("Idx.bget", (0, 1, 1)); ("Idx.bset", (0, 1, 1));
    ("Idx.bget_u32", (0, 1, 4));
    ("Idx.bget_i64", (0, 1, 8)); ("Idx.bset_i64", (0, 1, 8));
  ]

let is_setter bare =
  starts_with ~prefix:"Array.set" bare
  || starts_with ~prefix:"Array.unsafe_set" bare
  || starts_with ~prefix:"Bytes.set" bare
  || starts_with ~prefix:"Bytes.unsafe_set" bare
  || bare = "Idx.set" || bare = "Idx.bset" || bare = "Idx.bset_i64"

(* unsafe-family heads whose presence makes a binding require
   certification (coverage scan) *)
let unsafe_family bare =
  starts_with ~prefix:"Array.unsafe_" bare
  || starts_with ~prefix:"Bytes.unsafe_" bare
  || starts_with ~prefix:"String.unsafe_" bare
  || List.mem bare
       [ "Idx.get"; "Idx.set"; "Idx.bget"; "Idx.bset"; "Idx.bget_u32";
         "Idx.bget_i64"; "Idx.bset_i64" ]

let via_of chain =
  match chain with
  | [] | [ _ ] -> ""
  | _ -> " [via " ^ String.concat " -> " chain ^ "]"

let oblige sc ~allow ~loc env bare container index width =
  let g = sc.g in
  g.obligations <- g.obligations + 1;
  match allow with
  | Some _ -> g.suppressed <- g.suppressed + 1
  | None ->
    let len = len_lin sc container in
    let lo = prove_ge sc env index lzero in
    let hi = prove_le sc env index (lsub len (lconst width)) in
    if lo && hi then g.proved <- g.proved + 1
    else
      let idx_s =
        match lin_of sc index with
        | Some l -> lin_to_string l
        | None -> "<dynamic>"
      in
      let side =
        if not lo then "index >= 0"
        else "index <= " ^ lin_to_string (lsub len (lconst width))
      in
      let what =
        "unproven bounds: " ^ bare ^ " at index " ^ idx_s
        ^ " -- cannot show " ^ side ^ via_of sc.chain
      in
      g.findings <-
        Typed.finding_of_loc ~file:sc.file ~rule loc what :: g.findings

(* ---- write prescan --------------------------------------------------- *)

(* Syntactic collection of the mutations a loop body can perform, so
   the body is analyzed against an environment that is stable across
   iterations.  Unresolvable targets degrade to Wall. *)
let prescan_writes sc (e : Typedtree.expression) =
  let acc = ref [] in
  let push t = acc := t :: !acc in
  let target_sym (r : Typedtree.expression) =
    match path_of sc r with Some p -> Some p | None -> None
  in
  let classify_assign r _rhs =
    match target_sym r with
    | None -> push Wall
    | Some s -> push (Wsym (s, Any))
  in
  let module I = Tast_iterator in
  let it =
    {
      I.default_iterator with
      expr =
        (fun self ex ->
          (match ex.Typedtree.exp_desc with
          | Texp_setfield (dst, _, lbl, _) -> (
            match path_of sc dst with
            | Some p -> push (Wsym (p ^ "." ^ lbl.lbl_name, Any))
            | None -> push Wall)
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
            let bare = bare_key sc p in
            match (bare, args) with
            | "incr", [ (_, Some r) ] -> (
              match target_sym r with
              | Some s -> push (Wsym (s, Up))
              | None -> push Wall)
            | "decr", [ (_, Some r) ] -> (
              match target_sym r with
              | Some s -> push (Wsym (s, Down))
              | None -> push Wall)
            | ":=", [ (_, Some r); (_, Some rhs) ] -> (
              match target_sym r with
              | None -> push Wall
              | Some s -> (
                (* r := !r + c / !r - c keeps monotone bounds *)
                match lin_of sc rhs with
                | Some l
                  when MM.for_all (fun m _ -> m = [ s ]) l.tm
                       && (try MM.find [ s ] l.tm with Not_found -> 0) = 1 ->
                  push (Wsym (s, if l.k >= 0 then Up else Down))
                | _ -> classify_assign r rhs))
            | bare, args
              when List.mem_assoc bare accessor_table && is_setter bare -> (
              let cpos, _, _ = List.assoc bare accessor_table in
              match List.nth_opt args cpos with
              | Some (_, Some a) -> (
                match path_of sc a with
                | Some pa -> push (Wprefix (pa ^ "["))
                | None -> push Wall)
              | _ -> push Wall)
            | _ -> ())
          | _ -> ());
          I.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  (* merge duplicate symbol targets to the weakest class *)
  let tbl = Hashtbl.create 8 in
  let other = ref [] in
  List.iter
    (function
      | Wsym (s, c) ->
        let c' =
          match Hashtbl.find_opt tbl s with
          | Some c0 -> merge_wclass c0 c
          | None -> c
        in
        Hashtbl.replace tbl s c'
      | t -> other := t :: !other)
    !acc;
  Hashtbl.fold (fun s c l -> Wsym (s, c) :: l) tbl !other

let apply_writes env writes = List.fold_left strip_write env writes

(* ---- walk ------------------------------------------------------------ *)

let max_inline_depth = 8

(* A lin over immutable value symbols only may become a substitution;
   anything touching a ref, field or element must go through
   (strippable) equality facts instead. *)
let is_value_lin sc l =
  MM.for_all
    (fun m _ ->
      List.for_all
        (fun s ->
          not
            (String.contains s '.' || String.contains s '['
            || SS.mem s sc.g.refsyms))
        m)
    l.tm

let lin_mentions l s = MM.exists (fun m _ -> List.mem s m) l.tm

(* r := r + k / r := r - k style right-hand sides *)
let lin_is_shift_of l s =
  MM.cardinal l.tm = 1
  && (match MM.find_opt [ s ] l.tm with Some 1 -> true | _ -> false)

(* Facts justified by the shape of a non-linear right-hand side:
   [let words = len lsr 3] and friends. *)
let shape_facts sc env sym (rhs : Typedtree.expression) =
  let s = lsym sym in
  match head_bare sc rhs with
  | Some (("lsr" | "asr" | "/") as op, [ (_, Some a); (_, Some k) ]) -> (
    let factor =
      match (op, const_of sc k) with
      | ("lsr" | "asr"), Some k when k >= 0 && k < 30 -> Some (1 lsl k)
      | "/", Some c when c > 0 -> Some c
      | _ -> None
    in
    let base = if op = "lsr" then [ fact s ] else [] in
    match (factor, lin_of sc a) with
    | Some f, Some la when prove_ge sc env a lzero ->
      fact s
      :: fact (lsub la (lscale f s))  (* f*sym <= a *)
      :: fact (lsub (lscale f s) (lsub la (lconst (f - 1))))
      :: []
    | _ -> base)
  | Some ("land", [ (_, Some x); (_, Some y) ]) -> (
    let masked a c =
      match const_of sc c with
      | Some c when c >= 0 ->
        Some
          (fact s :: fact (lsub (lconst c) s)
          :: (match lin_of sc a with
             | Some la when prove_ge sc env a lzero ->
               [ fact (lsub la s) ]
             | _ -> []))
      | _ -> None
    in
    match masked x y with
    | Some fs -> fs
    | None -> ( match masked y x with Some fs -> fs | None -> []))
  | Some ("mod", [ (_, Some a); (_, Some c) ]) -> (
    match const_of sc c with
    | Some c when c > 0 && prove_ge sc env a lzero ->
      [ fact s; fact (lsub (lconst (c - 1)) s) ]
    | _ -> [])
  | Some ("min", [ (_, Some x); (_, Some y) ]) ->
    (match lin_of sc x with Some lx -> [ fact (lsub lx s) ] | None -> [])
    @ (match lin_of sc y with Some ly -> [ fact (lsub ly s) ] | None -> [])
    @
    if prove_ge sc env x lzero && prove_ge sc env y lzero then [ fact s ]
    else []
  | Some ("max", [ (_, Some x); (_, Some y) ]) ->
    (match lin_of sc x with Some lx -> [ fact (lsub s lx) ] | None -> [])
    @ (match lin_of sc y with Some ly -> [ fact (lsub s ly) ] | None -> [])
  | _ -> []

(* Bind [sym] to [rhs] (resolved in scope [rsc]): a pure access path
   becomes an alias, a linear value over immutable symbols a
   substitution, anything else equality or shape facts. *)
let bind_sym rsc env sym (rhs : Typedtree.expression) =
  match path_of rsc rhs with
  | Some p -> rsc.g.psubst <- SM.add sym p rsc.g.psubst; []
  | None -> (
    match lin_of rsc rhs with
    | Some l ->
      if is_value_lin rsc l then begin
        rsc.g.subst <- SM.add sym l rsc.g.subst;
        []
      end
      else [ fact (lsub (lsym sym) l); fact (lsub l (lsym sym)) ]
    | None -> shape_facts rsc env sym rhs)

let rec walk sc ~allow env (e : Typedtree.expression) =
  let allow =
    match
      Typed.attr_payload_string Typed.allow_unchecked_attr e.exp_attributes
    with
    | Some r -> Some r
    | None -> allow  (* reasonless suppressions flagged by the scan *)
  in
  match e.exp_desc with
  | Texp_ident _ | Texp_constant _ | Texp_instvar _ | Texp_unreachable -> env
  | Texp_let (_, vbs, body) ->
    let env = List.fold_left (walk_vb sc ~allow) env vbs in
    walk sc ~allow env body
  | Texp_function { param; cases; _ } ->
    (* the closure may run at any later time: judge its body under no
       flow facts, and charge its writes against the current env *)
    ignore (bind_local sc param);
    let writes = prescan_writes sc e in
    List.iter
      (fun (c : _ Typedtree.case) ->
        List.iter
          (fun id -> ignore (bind_local sc id))
          (Typed.pat_idents c.c_lhs);
        Option.iter (fun g -> ignore (walk sc ~allow [] g)) c.c_guard;
        ignore (walk sc ~allow [] c.c_rhs))
      cases;
    apply_writes env writes
  | Texp_apply (fn, args) -> walk_apply sc ~allow env e fn args
  | Texp_match (scrut, cases, _) ->
    let env = walk sc ~allow env scrut in
    walk_cases sc ~allow env cases
  | Texp_try (body, cases) ->
    let envb = walk sc ~allow env body in
    let envc = walk_cases sc ~allow env cases in
    inter_env envb envc
  | Texp_tuple es | Texp_array es -> List.fold_left (walk sc ~allow) env es
  | Texp_construct (_, _, es) -> List.fold_left (walk sc ~allow) env es
  | Texp_variant (_, eo) -> (
    match eo with Some x -> walk sc ~allow env x | None -> env)
  | Texp_record { fields; extended_expression; _ } ->
    let env =
      match extended_expression with
      | Some x -> walk sc ~allow env x
      | None -> env
    in
    Array.fold_left
      (fun env (_, def) ->
        match def with
        | Typedtree.Overridden (_, ex) -> walk sc ~allow env ex
        | Typedtree.Kept _ -> env)
      env fields
  | Texp_field (b, _, _) ->
    ignore (path_of sc e);  (* instantiate layout invariants *)
    walk sc ~allow env b
  | Texp_setfield (dst, _, lbl, v) -> (
    let env = walk sc ~allow env dst in
    let env = walk sc ~allow env v in
    match path_of sc dst with
    | None -> strip_write env Wall
    | Some p -> (
      let s = p ^ "." ^ lbl.lbl_name in
      let rl = lin_of sc v in
      let cls =
        match rl with
        | Some l when lin_is_shift_of l s -> if l.k >= 0 then Up else Down
        | _ -> Any
      in
      let env = strip_write env (Wsym (s, cls)) in
      match rl with
      | Some l when cls = Any && not (lin_mentions l s) ->
        fact (lsub (lsym s) l) :: fact (lsub l (lsym s)) :: env
      | _ -> env))
  | Texp_ifthenelse (c, t, fo) -> (
    let env = walk sc ~allow env c in
    let ft = facts_of_cond sc ~truth:true c in
    let ff = facts_of_cond sc ~truth:false c in
    let env_t = walk sc ~allow (ft @ env) t in
    match fo with
    | None -> if always_aborts sc t then ff @ env else inter_env env_t env
    | Some f ->
      let env_f = walk sc ~allow (ff @ env) f in
      if always_aborts sc t then env_f
      else if always_aborts sc f then env_t
      else inter_env env_t env_f)
  | Texp_sequence (a, b) ->
    let env = walk sc ~allow env a in
    walk sc ~allow env b
  | Texp_while (c, body) ->
    let env = walk sc ~allow env c in
    let writes = prescan_writes sc body in
    let env0 = apply_writes env writes in
    let envb = facts_of_cond sc ~truth:true c @ env0 in
    ignore (walk sc ~allow envb body);
    facts_of_cond sc ~truth:false c @ env0
  | Texp_for (id, _, lo, hi, dir, body) ->
    let env = walk sc ~allow env lo in
    let env = walk sc ~allow env hi in
    let writes = prescan_writes sc body in
    let env0 = apply_writes env writes in
    let s = bind_local sc id in
    let lol = lin_of sc lo and hil = lin_of sc hi in
    let lo_f, hi_f =
      match dir with
      | Asttypes.Upto -> (lol, hil)
      | Asttypes.Downto -> (hil, lol)
    in
    let ls = lsym s in
    let ifacts =
      (match lo_f with Some l -> [ fact (lsub ls l) ] | None -> [])
      @ (match hi_f with Some h -> [ fact (lsub h ls) ] | None -> [])
    in
    let ifacts = apply_writes ifacts writes in
    ignore (walk sc ~allow (ifacts @ env0) body);
    env0
  | Texp_assert (a, _) -> (
    match a.exp_desc with
    | Texp_construct (_, { cstr_name = "false"; _ }, _) -> env
    | _ ->
      let env = walk sc ~allow env a in
      facts_of_cond sc ~truth:true a @ env)
  | Texp_lazy _ -> env
  | Texp_letmodule (_, _, _, _, body) | Texp_open (_, body) ->
    walk sc ~allow env body
  | _ -> env

and walk_vb sc ~allow env (vb : Typedtree.value_binding) =
  let allow =
    match
      Typed.attr_payload_string Typed.allow_unchecked_attr vb.vb_attributes
    with
    | Some r -> Some r
    | None -> allow
  in
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) -> (
    match vb.vb_expr.exp_desc with
    | Texp_apply
        ({ exp_desc = Texp_ident (rp, _, _); _ }, [ (_, Some seed) ])
      when String.equal (bare_key sc rp) "ref" ->
      let env = walk sc ~allow env seed in
      let s = bind_local sc id in
      sc.g.refsyms <- SS.add s sc.g.refsyms;
      (match lin_of sc seed with
      | Some l when not (lin_mentions l s) ->
        fact (lsub (lsym s) l) :: fact (lsub l (lsym s)) :: env
      | _ -> env)
    | _ ->
      let env = walk sc ~allow env vb.vb_expr in
      let s = bind_local sc id in
      bind_sym sc env s vb.vb_expr @ env)
  | _ ->
    let env = walk sc ~allow env vb.vb_expr in
    List.iter
      (fun id -> ignore (bind_local sc id))
      (Typed.pat_idents vb.vb_pat);
    env

and walk_cases :
    type k. scope -> allow:string option -> fact list ->
    k Typedtree.case list -> fact list =
 fun sc ~allow env cases ->
  let envs =
    List.filter_map
      (fun (c : k Typedtree.case) ->
        List.iter
          (fun id -> ignore (bind_local sc id))
          (Typed.pat_idents c.c_lhs);
        Option.iter (fun g -> ignore (walk sc ~allow env g)) c.c_guard;
        let e' = walk sc ~allow env c.c_rhs in
        if always_aborts sc c.c_rhs then None else Some e')
      cases
  in
  match envs with
  | [] -> env
  | e0 :: rest -> List.fold_left inter_env e0 rest

and walk_args sc ~allow env args =
  List.fold_left
    (fun env (_, a) ->
      match a with Some x -> walk sc ~allow env x | None -> env)
    env args

and walk_apply sc ~allow env whole fn args =
  match fn.exp_desc with
  | Texp_ident (p, _, _) -> (
    let bare = bare_key sc p in
    match bare with
    | "@@" -> (
      match args with
      | (_, Some f) :: rest -> walk_apply sc ~allow env whole f rest
      | _ -> env)
    | "|>" -> (
      match args with
      | [ (l1, Some arg); (_, Some f) ] ->
        walk_apply sc ~allow env whole f [ (l1, Some arg) ]
      | _ -> walk_args sc ~allow env args)
    | _ when abort_head bare -> env  (* cold path *)
    | "incr" | "decr" -> (
      match args with
      | [ (_, Some r) ] -> (
        match path_of sc r with
        | Some s ->
          strip_write env (Wsym (s, if bare = "incr" then Up else Down))
        | None -> strip_write env Wall)
      | _ -> env)
    | ":=" -> (
      match args with
      | [ (_, Some r); (_, Some rhs) ] -> (
        let env = walk sc ~allow env rhs in
        match path_of sc r with
        | None -> strip_write env Wall
        | Some s -> (
          let rl = lin_of sc rhs in
          let cls =
            match rl with
            | Some l when lin_is_shift_of l s ->
              if l.k >= 0 then Up else Down
            | _ -> Any
          in
          let env = strip_write env (Wsym (s, cls)) in
          match rl with
          | Some l when cls = Any && not (lin_mentions l s) ->
            fact (lsub (lsym s) l) :: fact (lsub l (lsym s)) :: env
          | _ -> env))
      | _ -> env)
    | "!" | "ref" -> walk_args sc ~allow env args
    | _ when List.mem_assoc bare accessor_table -> (
      let cpos, ipos, width = List.assoc bare accessor_table in
      let env = walk_args sc ~allow env args in
      match (List.nth_opt args cpos, List.nth_opt args ipos) with
      | Some (_, Some cont), Some (_, Some index) -> (
        oblige sc ~allow ~loc:whole.Typedtree.exp_loc env bare cont index
          width;
        if is_setter bare then
          match path_of sc cont with
          | Some pa -> strip_write env (Wprefix (pa ^ "["))
          | None -> strip_write env Wall
        else env)
      | _ -> env)
    | _ ->
      let env = walk_args sc ~allow env args in
      try_inline sc ~allow env (scoped_key sc p) args)
  | _ ->
    let env = walk sc ~allow env fn in
    walk_args sc ~allow env args

(* Contextual inlining: a fully-applied call to a binding we can
   resolve is analyzed in the caller's environment, with formals bound
   to the actual arguments.  Abort guards inside the callee
   (check_index and friends) refine the caller's env on return. *)
and try_inline sc ~allow env key args =
  if sc.depth >= max_inline_depth || List.mem key sc.chain then env
  else
    match Typed.resolve_binding sc.g.idx key with
    | None -> env
    | Some b ->
      if List.exists (fun (_, a) -> Option.is_none a) args then env
      else begin
        sc.g.visited <- SS.add b.b_key sc.g.visited;
        sc.g.inst <- sc.g.inst + 1;
        let sub =
          {
            g = sc.g;
            aliases = b.b_aliases;
            unit_name = b.b_unit.unit_name;
            prefixes = prefixes_of_key b.b_key;
            file = b.b_unit.unit_source;
            locals = [];
            chain = sc.chain @ [ key ];
            depth = sc.depth + 1;
          }
        in
        let ballow =
          match
            Typed.attr_payload_string Typed.allow_unchecked_attr
              b.b_vb.vb_attributes
          with
          | Some r -> Some r
          | None -> allow
        in
        let rec spine acc (e : Typedtree.expression) =
          match e.exp_desc with
          | Texp_function
              { arg_label; cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ }
            ->
            spine ((arg_label, c_lhs) :: acc) c_rhs
          | _ -> (List.rev acc, e)
        in
        let params, body = spine [] b.b_vb.vb_expr in
        if params = [] then env
        else begin
          let lbl_name = function
            | Asttypes.Nolabel -> ""
            | Asttypes.Labelled s | Asttypes.Optional s -> s
          in
          let remaining = ref params in
          let binds = ref [] in
          List.iter
            (fun (al, ae) ->
              match ae with
              | None -> ()
              | Some ae -> (
                let n = lbl_name al in
                let rec take acc = function
                  | [] -> None
                  | (pl, pat) :: rest when String.equal (lbl_name pl) n ->
                    Some (pat, List.rev_append acc rest)
                  | x :: rest -> take (x :: acc) rest
                in
                match take [] !remaining with
                | Some (pat, rest) ->
                  remaining := rest;
                  binds := (pat, ae) :: !binds
                | None -> ()))
            args;
          let env =
            List.fold_left
              (fun env ((pat : Typedtree.pattern), ae) ->
                match pat.pat_desc with
                | Tpat_var (id, _) ->
                  let s = bind_local sub id in
                  bind_sym sc env s ae @ env
                | _ ->
                  List.iter
                    (fun id -> ignore (bind_local sub id))
                    (Typed.pat_idents pat);
                  env)
              env (List.rev !binds)
          in
          List.iter
            (fun (_, (pat : Typedtree.pattern)) ->
              List.iter
                (fun id -> ignore (bind_local sub id))
                (Typed.pat_idents pat))
            !remaining;
          walk sub ~allow:ballow env body
        end
      end

(* ---- roots, coverage, entry points ----------------------------------- *)

let check_root g (b : Typed.binding) =
  g.inst <- g.inst + 1;
  let sc =
    {
      g;
      aliases = b.b_aliases;
      unit_name = b.b_unit.unit_name;
      prefixes = prefixes_of_key b.b_key;
      file = b.b_unit.unit_source;
      locals = [];
      chain = [ b.b_key ];
      depth = 0;
    }
  in
  let allow =
    Typed.attr_payload_string Typed.allow_unchecked_attr b.b_vb.vb_attributes
  in
  let rec spine (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_function { param; cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ }
      ->
      ignore (bind_local sc param);
      List.iter (fun id -> ignore (bind_local sc id)) (Typed.pat_idents c_lhs);
      spine c_rhs
    | _ -> e
  in
  let body = spine b.b_vb.vb_expr in
  ignore (walk sc ~allow [] body)

(* Toplevel constant-size arrays become global length facts:
   [let small = Array.init 1025 f] licenses len:g:Obs.Histogram.small. *)
let scan_globals g =
  Hashtbl.iter
    (fun key (b : Typed.binding) ->
      let add n =
        let s = lsym ("len:g:" ^ key) in
        g.gfacts <-
          invariant (lsub s (lconst n))
          :: invariant (lsub (lconst n) s)
          :: g.gfacts
      in
      match b.b_vb.vb_expr.exp_desc with
      | Texp_array es -> add (List.length es)
      | Texp_apply
          ( { exp_desc = Texp_ident (p, _, _); _ },
            (_, Some { exp_desc = Texp_constant (Const_int n); _ }) :: _ )
        when n >= 0 -> (
        match Typed.key_of_path ~aliases:b.b_aliases p with
        | "Array.make" | "Array.init" | "Bytes.make" | "Bytes.create" ->
          add n
        | _ -> ())
      | _ -> ())
    g.idx.Typed.idx_bindings

(* Every binding using unsafe accessors must have been certified from
   some root (or carry a reasoned binding-level suppression), and every
   [@lipsin.allow_unchecked] anywhere must carry a reason. *)
let coverage_scan g =
  Hashtbl.iter
    (fun key (b : Typed.binding) ->
      let sc =
        {
          g;
          aliases = b.b_aliases;
          unit_name = b.b_unit.unit_name;
          prefixes = prefixes_of_key key;
          file = b.b_unit.unit_source;
          locals = [];
          chain = [];
          depth = 0;
        }
      in
      let has_unsafe = ref false in
      let reasonless = ref [] in
      let module I = Tast_iterator in
      let it =
        {
          I.default_iterator with
          expr =
            (fun self ex ->
              (match ex.Typedtree.exp_desc with
              | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
                if unsafe_family (bare_key sc p) then has_unsafe := true
              | _ -> ());
              List.iter
                (fun (a : Parsetree.attribute) ->
                  if
                    String.equal a.attr_name.txt Typed.allow_unchecked_attr
                    && Option.is_none
                         (Typed.attr_payload_string
                            Typed.allow_unchecked_attr [ a ])
                  then reasonless := ex.Typedtree.exp_loc :: !reasonless)
                ex.Typedtree.exp_attributes;
              I.default_iterator.expr self ex);
        }
      in
      it.value_binding it b.b_vb;
      let file = b.b_unit.unit_source in
      let badge loc msg =
        g.findings <- Typed.finding_of_loc ~file ~rule loc msg :: g.findings
      in
      let battrs = b.b_vb.vb_attributes in
      if
        Typed.has_attr Typed.allow_unchecked_attr battrs
        && Option.is_none
             (Typed.attr_payload_string Typed.allow_unchecked_attr battrs)
      then
        badge b.b_vb.vb_loc
          ("unjustified [@lipsin.allow_unchecked] on " ^ key
         ^ ": a reason string is required");
      List.iter
        (fun loc ->
          badge loc
            ("unjustified [@lipsin.allow_unchecked] in " ^ key
           ^ ": a reason string is required"))
        !reasonless;
      let suppressed =
        Option.is_some
          (Typed.attr_payload_string Typed.allow_unchecked_attr battrs)
      in
      let is_root = Typed.has_attr Typed.inbounds_attr battrs in
      if
        !has_unsafe
        && (not (SS.mem key g.visited))
        && (not suppressed) && not is_root
      then
        badge b.b_vb.vb_loc
          ("uncertified unsafe access: " ^ key
         ^ " uses unchecked indexing but is not reachable from any \
            [@lipsin.inbounds] root"))
    g.idx.Typed.idx_bindings

type stats = {
  st_roots : string list;
  st_obligations : int;
  st_proved : int;
  st_suppressed : int;
}

let check idx =
  let g =
    {
      idx;
      subst = SM.empty;
      psubst = SM.empty;
      refsyms = SS.empty;
      gfacts = [];
      elem_len = [];
      inst = 0;
      gensym = 0;
      visited = SS.empty;
      obligations = 0;
      proved = 0;
      suppressed = 0;
      findings = [];
      layout_done = SS.empty;
    }
  in
  scan_globals g;
  let roots =
    Hashtbl.fold
      (fun key (b : Typed.binding) acc ->
        if Typed.has_attr Typed.inbounds_attr b.b_vb.vb_attributes then
          (key, b) :: acc
        else acc)
      idx.Typed.idx_bindings []
  in
  let roots =
    List.sort (fun (a, _) (b, _) -> String.compare a b) roots
  in
  List.iter
    (fun (key, b) ->
      g.visited <- SS.add key g.visited;
      check_root g b)
    roots;
  coverage_scan g;
  ( {
      st_roots = List.map fst roots;
      st_obligations = g.obligations;
      st_proved = g.proved;
      st_suppressed = g.suppressed;
    },
    List.sort_uniq Finding.compare_locs g.findings )

let run ~roots =
  let units = Typed.load_units roots in
  check (Typed.index_units units)

let run_units units = check (Typed.index_units units)
