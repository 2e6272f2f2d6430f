(* Tests for Lipsin_reporting: the dependency-free JSON parser, the
   BENCH_*.json schema checker, and the markdown renderer the
   lipsin_report binary drives. *)

module Report = Lipsin_reporting.Report
module Json = Report.Json

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let parse_exn s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse %S: %s" s e

(* ---- JSON parser ---------------------------------------------------- *)

let test_json_values () =
  (match parse_exn {| {"a": [1, -2.5e1, true, null, "x\n\"y\\"], "b": {}} |} with
  | Json.Obj [ ("a", Json.Arr items); ("b", Json.Obj []) ] ->
    (match items with
    | [ Json.Num n1; Json.Num n2; Json.Bool true; Json.Null; Json.Str s ] ->
      Alcotest.(check (float 1e-9)) "int" 1.0 n1;
      Alcotest.(check (float 1e-9)) "float" (-25.0) n2;
      Alcotest.(check string) "escapes" "x\n\"y\\" s
    | _ -> Alcotest.fail "array shape")
  | _ -> Alcotest.fail "object shape");
  match parse_exn "\"A\\u00e9\"" with
  | Json.Str s -> Alcotest.(check string) "unicode escapes" "A\xc3\xa9" s
  | _ -> Alcotest.fail "unicode"

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "{\"a\":1,}"; "tru"; "\"unterminated";
      "1 2"; "{\"a\" 1}"; "nan" ]

let test_json_members () =
  let j = parse_exn {| {"x": 3, "s": "hi"} |} in
  Alcotest.(check (option (float 1e-9))) "member num" (Some 3.0)
    (Option.bind (Json.member "x" j) Json.to_float);
  Alcotest.(check (option string)) "member str" (Some "hi")
    (Option.bind (Json.member "s" j) Json.to_string_lit);
  Alcotest.(check bool) "missing member" true (Json.member "nope" j = None)

(* ---- schema checker ------------------------------------------------- *)

let pr9 =
  {| {"benchmark": "deliver", "sample_every": 1024, "noop_ns_per_op": 100.0,
      "overhead": [
        {"config": "counters", "ratio": 1.01, "ns_per_op": 101.0},
        {"config": "sampled-1-in-1024", "ratio": 1.02, "ns_per_op": 102.0}],
      "gate": "sampled ratio < 1.03"} |}

let test_check_bench () =
  Alcotest.(check (list string)) "clean PR9 file" []
    (Report.check_bench ~file:"BENCH_PR9.json" (parse_exn pr9));
  (match
     Report.check_bench ~file:"BENCH_PR9.json"
       (parse_exn {| {"benchmark": "x"} |})
   with
  | [] -> Alcotest.fail "missing overhead not flagged"
  | f :: _ ->
    Alcotest.(check bool) "names the field" true (contains f "overhead"));
  (match
     Report.check_bench ~file:"BENCH_PR7.json"
       (parse_exn {| {"entries": [{"name": "a", "x": 1}, {"name": "b"}],
                      "gate": "g"} |})
   with
  | [] -> Alcotest.fail "inconsistent table keys not flagged"
  | _ -> ());
  (match
     Report.check_bench ~file:"BENCH_PR6.json"
       (parse_exn {| {"subscriber_sweep": [{"subscribers": 1e999}]} |})
   with
  | [] -> Alcotest.fail "non-finite number not flagged"
  | _ -> ());
  match
    Report.check_bench ~file:"BENCH_PR10.json"
      (parse_exn {| {"trajectory": [{"window": 1}]} |})
  with
  | [] -> Alcotest.fail "missing soak summary not flagged"
  | findings ->
    Alcotest.(check bool) "names the field" true
      (List.exists (fun f -> contains f "summary") findings)

(* ---- renderer ------------------------------------------------------- *)

let pr10 =
  {| {"benchmark": "soak-deliver-16-users-fast",
      "trajectory": [
        {"window": 1, "ops": 100, "ops_per_sec": 50000.0,
         "minor_words_per_op": 8.0, "p99_us": 40.0, "p999_us": 90.0}],
      "summary": {"measured_ops": 100, "ops_per_sec": 52000.0,
        "minor_words_per_op": 8.2, "speedup_vs_pr4": 2.1,
        "counters_match_sequential": true}} |}

let test_render () =
  let files =
    [
      ("bench/BENCH_PR9.json", parse_exn pr9);
      ("bench/BENCH_PR10.json", parse_exn pr10);
    ]
  in
  let md = Report.render ~obs_snapshot:"{\"scrape\":1}" files in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report has " ^ needle) true (contains md needle))
    [
      "## BENCH_PR9.json";
      "| config |";
      "sampled-1-in-1024";
      "Observability overhead vs the no-op sink";
      "{\"scrape\":1}";
      "## BENCH_PR10.json";
      "The persistent service sustained 100 publications";
      "2.10x the spawn-per-batch PR4 baseline";
      "counters bit-for-bit sequential";
    ]

let () =
  Alcotest.run "report"
    [
      ( "json",
        [
          Alcotest.test_case "values and escapes" `Quick test_json_values;
          Alcotest.test_case "rejects malformed input" `Quick test_json_errors;
          Alcotest.test_case "member accessors" `Quick test_json_members;
        ] );
      ( "schema",
        [ Alcotest.test_case "check_bench findings" `Quick test_check_bench ] );
      ( "render",
        [ Alcotest.test_case "markdown shape" `Quick test_render ] );
    ]
