(* Benchmark-trajectory reporting: parse every BENCH_PR*.json the repo
   carries, sanity-check its shape, and render one markdown report —
   config, per-file tables, gate verdicts, conclusions — so a PR's perf
   story is auditable at a glance.  The JSON parser is a dependency-free
   recursive descent over the subset our benches emit (no surrogate
   escapes, numbers as floats). *)

(* ---- json ------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some x when x = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.equal (String.sub s !pos l) word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'n' -> Buffer.add_char b '\n'; advance ()
          | Some 't' -> Buffer.add_char b '\t'; advance ()
          | Some 'r' -> Buffer.add_char b '\r'; advance ()
          | Some 'b' -> Buffer.add_char b '\b'; advance ()
          | Some 'f' -> Buffer.add_char b '\012'; advance ()
          | Some '/' -> Buffer.add_char b '/'; advance ()
          | Some '\\' -> Buffer.add_char b '\\'; advance ()
          | Some '"' -> Buffer.add_char b '"'; advance ()
          | Some 'u' ->
            advance ();
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            (match int_of_string_opt ("0x" ^ hex) with
            | None -> fail "bad \\u escape"
            | Some code ->
              (* Good enough for our ASCII-bench payloads: encode the
                 code point as UTF-8. *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b
                  (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end)
          | _ -> fail "bad escape");
          go ()
        | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> num_char c | None -> false) do
        advance ()
      done;
      let raw = String.sub s start (!pos - start) in
      match float_of_string_opt raw with
      | Some f -> Num f
      | None -> fail (Printf.sprintf "bad number %S" raw)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let elems = ref [] in
          let rec items () =
            let v = parse_value () in
            elems := v :: !elems;
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          items ();
          Arr (List.rev !elems)
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  let to_float = function
    | Num f -> Some f
    | _ -> None

  let to_string_lit = function
    | Str s -> Some s
    | _ -> None
end

(* ---- schema checks --------------------------------------------------- *)

(* Shape invariants every BENCH file must satisfy, plus per-known-file
   clauses.  Findings are human-readable; [] is a clean file. *)

let rec check_numbers_finite path v findings =
  match v with
  | Json.Num f when not (Float.is_finite f) ->
    Printf.sprintf "%s: non-finite number" path :: findings
  | Json.Arr items ->
    List.fold_left
      (fun acc (i, item) ->
        check_numbers_finite (Printf.sprintf "%s[%d]" path i) item acc)
      findings
      (List.mapi (fun i x -> (i, x)) items)
  | Json.Obj fields ->
    List.fold_left
      (fun acc (k, item) ->
        check_numbers_finite (Printf.sprintf "%s.%s" path k) item acc)
      findings fields
  | _ -> findings

let row_keys = function
  | Json.Obj fields -> List.map fst fields
  | _ -> []

let check_tables path v findings =
  (* every array of objects must be non-empty with consistent keys *)
  let rec go path v findings =
    match v with
    | Json.Arr [] ->
      Printf.sprintf "%s: empty table" path :: findings
    | Json.Arr (first :: _ as rows)
      when match first with Json.Obj _ -> true | _ -> false ->
      let keys = row_keys first in
      List.fold_left
        (fun acc (i, row) ->
          let acc =
            match row with
            | Json.Obj _ ->
              let rk = row_keys row in
              if
                List.for_all (fun k -> List.mem k rk) keys
                && List.for_all (fun k -> List.mem k keys) rk
              then acc
              else
                Printf.sprintf "%s[%d]: row keys differ from first row" path i
                :: acc
            | _ ->
              Printf.sprintf "%s[%d]: mixed table (non-object row)" path i
              :: acc
          in
          go (Printf.sprintf "%s[%d]" path i) row acc)
        findings
        (List.mapi (fun i r -> (i, r)) rows)
    | Json.Arr rows ->
      List.fold_left
        (fun acc (i, row) -> go (Printf.sprintf "%s[%d]" path i) row acc)
        findings
        (List.mapi (fun i r -> (i, r)) rows)
    | Json.Obj fields ->
      List.fold_left
        (fun acc (k, item) -> go (Printf.sprintf "%s.%s" path k) item acc)
        findings fields
    | _ -> findings
  in
  go path v findings

let require_fields file obj fields findings =
  List.fold_left
    (fun acc f ->
      match Json.member f obj with
      | Some _ -> acc
      | None -> Printf.sprintf "%s: missing required field %S" file f :: acc)
    findings fields

let check_bench ~file json =
  let findings = [] in
  let findings =
    match json with
    | Json.Obj _ -> findings
    | _ -> [ Printf.sprintf "%s: top level is not an object" file ]
  in
  let findings = check_numbers_finite file json findings in
  let findings = check_tables file json findings in
  let base = Filename.basename file in
  let findings =
    if String.equal base "BENCH_PR6.json" then
      require_fields file json [ "subscriber_sweep" ] findings
    else if String.equal base "BENCH_PR7.json" then
      require_fields file json [ "entries"; "gate" ] findings
    else if
      String.equal base "BENCH_PR4.json" || String.equal base "BENCH_PR9.json"
    then require_fields file json [ "overhead" ] findings
    else if String.equal base "BENCH_PR10.json" then
      require_fields file json [ "trajectory"; "summary" ] findings
    else findings
  in
  List.rev findings

(* ---- markdown rendering ---------------------------------------------- *)

let fmt_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else if Float.abs f >= 1000.0 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.4g" f

let rec cell_text = function
  | Json.Null -> ""
  | Json.Bool b -> if b then "true" else "false"
  | Json.Num f -> fmt_float f
  | Json.Str s -> s
  | Json.Arr items ->
    String.concat "; " (List.map cell_text items)
  | Json.Obj fields ->
    String.concat "; "
      (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (cell_text v)) fields)

let md_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '|' -> Buffer.add_string b "\\|"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let table_of_rows buf rows =
  match rows with
  | [] -> ()
  | first :: _ ->
    let keys = row_keys first in
    Buffer.add_string buf
      ("| " ^ String.concat " | " (List.map md_escape keys) ^ " |\n");
    Buffer.add_string buf
      ("|" ^ String.concat "|" (List.map (fun _ -> "---") keys) ^ "|\n");
    List.iter
      (fun row ->
        let cells =
          List.map
            (fun k ->
              match Json.member k row with
              | Some v -> md_escape (cell_text v)
              | None -> "")
            keys
        in
        Buffer.add_string buf ("| " ^ String.concat " | " cells ^ " |\n"))
      rows;
    Buffer.add_char buf '\n'

let render_value buf ~heading v =
  let rec go level name v =
    match v with
    | Json.Arr (Json.Obj _ :: _ as rows) ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s\n\n" (String.make level '#') name);
      table_of_rows buf rows
    | Json.Obj fields ->
      let scalars, nested =
        List.partition
          (fun (_, v) ->
            match v with
            | Json.Arr (Json.Obj _ :: _) | Json.Obj _ -> false
            | _ -> true)
          fields
      in
      Buffer.add_string buf
        (Printf.sprintf "%s %s\n\n" (String.make level '#') name);
      if scalars <> [] then begin
        List.iter
          (fun (k, v) ->
            Buffer.add_string buf
              (Printf.sprintf "- **%s**: %s\n" k (md_escape (cell_text v))))
          scalars;
        Buffer.add_char buf '\n'
      end
      else if nested = [] then Buffer.add_string buf "(empty)\n\n";
      List.iter (fun (k, v) -> go (min 6 (level + 1)) k v) nested
    | other ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s\n\n%s\n\n" (String.make level '#') name
           (md_escape (cell_text other)))
  in
  go 2 heading v

(* Narrative one-liners for the files we know, so the report reads as
   conclusions rather than raw tables. *)
let known_conclusion ~file json =
  let base = Filename.basename file in
  let fnum path =
    Option.bind path Json.to_float
  in
  if String.equal base "BENCH_PR6.json" then
    match Json.member "subscriber_sweep" json with
    | Some (Json.Arr rows) when rows <> [] ->
      let last = List.nth rows (List.length rows - 1) in
      (match
         ( fnum (Json.member "subscribers" last),
           fnum (Json.member "stages" last) )
       with
      | Some subs, Some stages ->
        Some
          (Printf.sprintf
             "Partitioned delivery carries %.0f subscribers across %.0f \
              stages%s."
             subs stages
             (match Json.member "exactly_once" last with
             | Some (Json.Bool true) -> " with exactly-once verified"
             | _ -> ""))
      | _ -> None)
    | _ -> None
  else if String.equal base "BENCH_PR7.json" then
    match Json.member "entries" json with
    | Some (Json.Arr rows) ->
      let gated, clean =
        List.fold_left
          (fun (g, c) row ->
            match Json.member "noalloc_gated" row with
            | Some (Json.Bool true) ->
              ( g + 1,
                c
                +
                match fnum (Json.member "minor_words_per_op" row) with
                | Some 0.0 -> 1
                | _ -> 0 )
            | _ -> (g, c))
          (0, 0) rows
      in
      Some
        (Printf.sprintf
           "%d of %d noalloc-gated kernels measure 0.0 minor words/op." clean
           gated)
    | _ -> None
  else if
    String.equal base "BENCH_PR9.json" || String.equal base "BENCH_PR4.json"
  then
    match Json.member "overhead" json with
    | Some (Json.Arr rows) ->
      let parts =
        List.filter_map
          (fun row ->
            match
              ( Option.bind (Json.member "config" row) Json.to_string_lit,
                fnum (Json.member "ratio" row) )
            with
            | Some cfg, Some r ->
              Some (Printf.sprintf "%s %.2f%%" cfg ((r -. 1.0) *. 100.0))
            | _ -> None)
          rows
      in
      if parts = [] then None
      else
        Some
          ("Observability overhead vs the no-op sink: "
          ^ String.concat ", " parts ^ ".")
    | _ -> None
  else if String.equal base "BENCH_PR10.json" then
    match Json.member "summary" json with
    | Some summary ->
      (match
         ( fnum (Json.member "measured_ops" summary),
           fnum (Json.member "ops_per_sec" summary),
           fnum (Json.member "minor_words_per_op" summary) )
       with
      | Some ops, Some rate, Some words ->
        Some
          (Printf.sprintf
             "The persistent service sustained %.0f publications at %.0f \
              ops/sec and %.1f minor words/op%s%s."
             ops rate words
             (match fnum (Json.member "speedup_vs_pr4" summary) with
             | Some s -> Printf.sprintf " (%.2fx the spawn-per-batch PR4 baseline)" s
             | None -> "")
             (match Json.member "counters_match_sequential" summary with
             | Some (Json.Bool true) -> ", counters bit-for-bit sequential"
             | _ -> ""))
      | _ -> None)
    | _ -> None
  else None

let render ?(title = "LIPSIN benchmark trajectory") ?obs_snapshot files =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf (Printf.sprintf "# %s\n\n" title);
  Buffer.add_string buf
    "Generated by `lipsin_report` from the repo's `BENCH_PR*.json` files; \
     each file is one PR's CI-gated measurement.\n\n";
  (match files with
  | [] -> Buffer.add_string buf "_No benchmark files found._\n\n"
  | _ ->
    Buffer.add_string buf "## Files\n\n";
    List.iter
      (fun (file, _) ->
        Buffer.add_string buf
          (Printf.sprintf "- `%s`\n" (Filename.basename file)))
      files;
    Buffer.add_char buf '\n');
  let conclusions =
    (* PR4 and PR9 both carry the overhead table; keep the first copy. *)
    List.filter_map (fun (file, json) -> known_conclusion ~file json) files
    |> List.fold_left
         (fun acc c -> if List.mem c acc then acc else c :: acc)
         []
    |> List.rev
  in
  if conclusions <> [] then begin
    Buffer.add_string buf "## Conclusions\n\n";
    List.iter
      (fun c -> Buffer.add_string buf (Printf.sprintf "- %s\n" c))
      conclusions;
    Buffer.add_char buf '\n'
  end;
  List.iter
    (fun (file, json) ->
      render_value buf ~heading:(Filename.basename file) json)
    files;
  (match obs_snapshot with
  | None -> ()
  | Some payload ->
    Buffer.add_string buf "## Obs snapshot\n\n";
    Buffer.add_string buf "```\n";
    Buffer.add_string buf payload;
    if not (String.length payload > 0
            && payload.[String.length payload - 1] = '\n')
    then Buffer.add_char buf '\n';
    Buffer.add_string buf "```\n");
  Buffer.contents buf
