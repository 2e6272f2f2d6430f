(* The static-analysis subsystem: lint rules (trigger + suppression
   fixtures for each), the driver's suppression/parse-error handling,
   the dune dependency graph, and the fastpath blob auditor — including
   the qcheck mutation properties: Audit accepts every Fastpath.compile
   output and flags every single-byte blob corruption. *)

module Lint = Lipsin_linter.Lint
module Rules = Lipsin_linter.Rules
module Finding = Lipsin_linter.Finding
module Deps = Lipsin_linter.Deps
module Audit = Lipsin_analysis.Audit
module Bitvec = Lipsin_bitvec.Bitvec
module Lit = Lipsin_bloom.Lit
module Zfilter = Lipsin_bloom.Zfilter
module Graph = Lipsin_topology.Graph
module Generator = Lipsin_topology.Generator
module Assignment = Lipsin_core.Assignment
module Node_engine = Lipsin_forwarding.Node_engine
module Fastpath = Lipsin_forwarding.Fastpath
module Rows = Lipsin_forwarding.Rows
module Net = Lipsin_sim.Net
module Run = Lipsin_sim.Run
module Rng = Lipsin_util.Rng

(* ---- lint fixtures -------------------------------------------------- *)

let count rule findings =
  List.length (List.filter (fun f -> String.equal f.Finding.rule rule) findings)

(* Fixture files: every lib/ .ml gets a matching .mli entry so the
   mli-coverage rule stays quiet unless a test targets it. *)
let with_mli path src rest = (path, src) :: (path ^ "i", "") :: rest

let check_rule_count name expected files =
  Alcotest.(check int) name expected (count name (Lint.run ~files ()))

let poly_compare_fixtures () =
  (* Structural equality on an annotated Bitvec.t operand. *)
  check_rule_count "no-poly-compare" 1
    (with_mli "lib/fix/eq.ml" "let f a b = (a : Bitvec.t) = b" []);
  (* Stdlib.compare in a bearing module (mention via comment). *)
  check_rule_count "no-poly-compare" 1
    (with_mli "lib/fix/cmp.ml"
       "(* touches Bitvec. tags *)\nlet f x y = Stdlib.compare x y" []);
  (* Hashtbl.hash in a bearing module. *)
  check_rule_count "no-poly-compare" 1
    (with_mli "lib/fix/hash.ml" "(* Bitvec. *)\nlet h v = Hashtbl.hash v" []);
  (* Bare compare resolves to Stdlib's polymorphic one. *)
  check_rule_count "no-poly-compare" 1
    (with_mli "lib/fix/bare.ml" "(* Bitvec. *)\nlet s l = List.sort compare l" []);
  (* ... unless the module defines its own compare. *)
  check_rule_count "no-poly-compare" 0
    (with_mli "lib/fix/own.ml"
       "(* Bitvec. *)\nlet compare a b = Int.compare a b\nlet s l = List.sort compare l"
       []);
  (* Equality on a Zfilter-returning application. *)
  check_rule_count "no-poly-compare" 1
    (with_mli "lib/fix/zf.ml" "let f z b = Zfilter.to_bitvec z = b" []);
  (* A non-bearing module may use polymorphic compare freely. *)
  check_rule_count "no-poly-compare" 0
    (with_mli "lib/fix/plain.ml" "let s l = List.sort compare l" []);
  (* Typed comparators pass in bearing modules. *)
  check_rule_count "no-poly-compare" 0
    (with_mli "lib/fix/typed.ml" "(* Bitvec. *)\nlet s l = List.sort Int.compare l" []);
  (* Per-file suppression. *)
  check_rule_count "no-poly-compare" 0
    (with_mli "lib/fix/sup.ml"
       "(* lint: allow no-poly-compare — fixture justification *)\n\
        (* Bitvec. *)\n\
        let f x y = Stdlib.compare x y"
       [])

let sim_dune =
  [
    ("lib/sim/dune", "(library (name lipsin_sim) (libraries lipsin_foo))");
    ("lib/sim/parallel.ml", "let shards = 4");
    ("lib/sim/parallel.mli", "val shards : int");
    ("lib/foo/dune", "(library (name lipsin_foo))");
    ("lib/bar/dune", "(library (name lipsin_bar) (libraries lipsin_foo))");
  ]

let domain_safety_fixtures () =
  (* Top-level Hashtbl in a library reachable from lipsin_sim. *)
  check_rule_count "domain-safety" 1
    (with_mli "lib/foo/cache.ml" "let cache = Hashtbl.create 8" sim_dune);
  (* A ref at the top level. *)
  check_rule_count "domain-safety" 1
    (with_mli "lib/foo/counter.ml" "let hits = ref 0" sim_dune);
  (* The same state in an unreachable library is fine. *)
  check_rule_count "domain-safety" 0
    (with_mli "lib/bar/cache.ml" "let cache = Hashtbl.create 8" sim_dune);
  (* Allocation deferred behind a function is per-call, fine. *)
  check_rule_count "domain-safety" 0
    (with_mli "lib/foo/makers.ml" "let make () = Hashtbl.create 8" sim_dune);
  (* Mutex-guarded bindings pass. *)
  check_rule_count "domain-safety" 0
    (with_mli "lib/foo/guarded.ml"
       "let table = (Mutex.create (), Hashtbl.create 8)" sim_dune);
  (* Global Random state anywhere in a reachable module. *)
  check_rule_count "domain-safety" 1
    (with_mli "lib/foo/dice.ml" "let roll () = Random.int 6" sim_dune);
  (* Explicit Random.State is exempt. *)
  check_rule_count "domain-safety" 0
    (with_mli "lib/foo/seeded.ml" "let roll s = Random.State.int s 6" sim_dune);
  (* Nested module structures are still module initialization. *)
  check_rule_count "domain-safety" 1
    (with_mli "lib/foo/nested.ml" "module Inner = struct let buf = Buffer.create 64 end"
       sim_dune);
  (* Obs telemetry cells are sanctioned mutable state (per-domain,
     aggregated on read), so a binding that wires eager state to an Obs
     cell passes... *)
  check_rule_count "domain-safety" 0
    (with_mli "lib/foo/metered.ml"
       "let meter = (Obs.Counter.local decisions, Hashtbl.create 8)" sim_dune);
  check_rule_count "domain-safety" 0
    (with_mli "lib/foo/metered2.ml"
       "let hits = (ref 0, Lipsin_obs.Obs.Counter.make \"foo_hits_total\")"
       sim_dune);
  (* ...but an unguarded scratch ref with no such mention is still
     flagged. *)
  check_rule_count "domain-safety" 1
    (with_mli "lib/foo/scratch.ml" "let scratch = ref []" sim_dune);
  (* Suppression. *)
  check_rule_count "domain-safety" 0
    (with_mli "lib/foo/sup.ml"
       "(* lint: allow domain-safety — fixture justification *)\n\
        let cache = Hashtbl.create 8"
       sim_dune)

let debug_io_fixtures () =
  check_rule_count "no-debug-io" 1
    (with_mli "lib/fix/noisy.ml" "let f x = Printf.printf \"%d\" x" []);
  check_rule_count "no-debug-io" 1
    (with_mli "lib/fix/loud.ml" "let f () = print_endline \"hi\"" []);
  (* Executables may print. *)
  check_rule_count "no-debug-io" 0 [ ("bin/tool.ml", "let () = print_endline \"hi\"") ];
  (* Formatter-taking printers are the sanctioned alternative. *)
  check_rule_count "no-debug-io" 0
    (with_mli "lib/fix/fmt.ml" "let pp ppf x = Format.fprintf ppf \"%d\" x" []);
  check_rule_count "no-debug-io" 0
    (with_mli "lib/fix/sup.ml"
       "(* lint: allow no-debug-io — fixture justification *)\n\
        let f () = print_endline \"hi\""
       [])

let unsafe_access_fixtures () =
  (* Positive: an unchecked stdlib accessor and unchecked externals. *)
  check_rule_count "no-unsafe-access" 3
    (with_mli "lib/fix/raw.ml"
       "let f a i = Array.unsafe_get a i\n\
        external get16 : Bytes.t -> int -> int = \"%caml_bytes_get16u\"\n\
        external aget : 'a array -> int -> 'a = \"%array_unsafe_get\""
       []);
  (* Negative: checked accessors and primitives, and code outside lib/. *)
  check_rule_count "no-unsafe-access" 0
    (with_mli "lib/fix/checked.ml"
       "let f a i = Array.get a i + Bytes.get_uint16_ne (Bytes.create 2) 0\n\
        external get16 : Bytes.t -> int -> int = \"%caml_bytes_get16\""
       [ ("bench/tool.ml", "let f s = String.unsafe_get s 0") ])

let mli_coverage_fixtures () =
  check_rule_count "mli-coverage" 1 [ ("lib/fix/naked.ml", "let x = 1") ];
  check_rule_count "mli-coverage" 0
    [ ("lib/fix/dressed.ml", "let x = 1"); ("lib/fix/dressed.mli", "val x : int") ];
  (* bin/bench/test modules need no interface. *)
  check_rule_count "mli-coverage" 0 [ ("bin/tool.ml", "let x = 1") ];
  check_rule_count "mli-coverage" 0
    [ ("lib/fix/sup.ml", "(* lint: allow mli-coverage — umbrella alias module *)\nlet x = 1") ]

let parse_error_fixture () =
  let findings = Lint.run ~files:(with_mli "lib/fix/bad.ml" "let = (" []) () in
  Alcotest.(check int) "parse-error reported" 1 (count "parse-error" findings);
  Alcotest.(check int) "nothing else reported"
    (List.length findings)
    (count "parse-error" findings)

let suppression_parsing () =
  Alcotest.(check (list string))
    "both rules parsed"
    [ "no-debug-io"; "mli-coverage" ]
    (Lint.suppressions
       "(* lint: allow no-debug-io — tables print by design *)\n\
        code here\n\
        (* lint: allow mli-coverage *)");
  Alcotest.(check (list string)) "no marker" [] (Lint.suppressions "let x = 1")

let dep_graph () =
  let libs =
    Deps.libraries_of_files
      [
        ("lib/sim/dune", "(library (name lipsin_sim) (libraries a b))");
        ("lib/a/dune", "; comment\n(library (name a) (libraries c))");
        ("lib/c/dune", "(library (name c))");
        ("lib/d/dune", "(library (name d) (libraries c))");
      ]
  in
  Alcotest.(check int) "four stanzas" 4 (List.length libs);
  let dirs = List.sort String.compare (Deps.reachable_dirs libs ~root:"lipsin_sim") in
  Alcotest.(check (list string))
    "closure of lipsin_sim" [ "lib/a"; "lib/c"; "lib/sim" ] dirs;
  Alcotest.(check (list string)) "unknown root" [] (Deps.reachable_dirs libs ~root:"x");
  match Deps.owner libs "lib/a/thing.ml" with
  | Some l -> Alcotest.(check string) "owner by dir" "a" l.Deps.lib_name
  | None -> Alcotest.fail "owner not found"

let report_shapes () =
  let f = Finding.make ~file:"lib/x.ml" ~line:3 ~col:7 ~rule:"no-debug-io" "msg \"q\"" in
  Alcotest.(check string)
    "human line" "lib/x.ml:3:7: [no-debug-io] msg \"q\"" (Finding.to_human f);
  let json = Finding.report_json [ f ] in
  Alcotest.(check bool) "json has count" true
    (let sub = "\"count\": 1" in
     let n = String.length json and m = String.length sub in
     let rec at i = i + m <= n && (String.equal (String.sub json i m) sub || at (i + 1)) in
     at 0)

(* ---- the blob auditor ---------------------------------------------- *)

(* A random compiled engine: random topology, width, table count,
   failed links, virtual links, blocks and services — the same state
   space the differential fastpath suite explores. *)
let build_fast seed =
  let rng = Rng.of_int seed in
  let nodes = 4 + Rng.int rng 12 in
  let extra = Rng.int rng (max 1 (nodes / 2)) in
  let graph =
    Generator.pref_attach ~rng ~nodes ~edges:(nodes - 1 + extra) ~max_degree:8 ()
  in
  let m = [| 61; 64; 120; 248 |].(Rng.int rng 4) in
  let d = 1 + Rng.int rng 4 in
  let k = 3 + Rng.int rng 3 in
  let params = Lit.constant_k ~m ~d ~k in
  let asg = Assignment.make params (Rng.split rng) graph in
  let node = Rng.int rng (Graph.node_count graph) in
  let engine = Node_engine.create asg node in
  let out = Array.of_list (Graph.out_links graph node) in
  Array.iter
    (fun l -> if Rng.float rng 1.0 < 0.25 then Node_engine.fail_link engine l)
    out;
  for _ = 1 to Rng.int rng 3 do
    let vlit = Lit.fresh params (Rng.split rng) in
    let out_links = List.filter (fun _ -> Rng.bool rng) (Array.to_list out) in
    Node_engine.install_virtual engine vlit ~out_links
  done;
  if Array.length out > 0 then
    for _ = 1 to Rng.int rng 3 do
      let victim = out.(Rng.int rng (Array.length out)) in
      if Rng.bool rng then
        Node_engine.install_block engine victim (Lit.fresh params (Rng.split rng))
      else begin
        let table = Rng.int rng d in
        let donor = Graph.link graph (Rng.int rng (Graph.link_count graph)) in
        Node_engine.install_block_pattern engine victim ~table
          (Assignment.tag asg donor ~table)
      end
    done;
  for i = 1 to Rng.int rng 3 do
    Node_engine.install_service engine
      (Lit.fresh params (Rng.split rng))
      ~name:(Printf.sprintf "svc%d" i)
  done;
  (Fastpath.compile engine, rng)

let all_rows fp =
  let r = (Fastpath.view fp).Fastpath.view_rows in
  List.filter
    (fun rows -> Array.length rows > 0)
    (List.concat
       [
         Array.to_list r.Rows.phys;
         Array.to_list r.Rows.in_tags;
         Array.to_list r.Rows.blocks;
         Array.to_list r.Rows.virt;
         Array.to_list r.Rows.local;
         Array.to_list r.Rows.svc;
       ])

let flip_random_bit rng rows =
  let pos = Rng.int rng (Array.length rows) in
  rows.(pos) <- rows.(pos) lxor (1 lsl Rng.int rng Rows.group_bits)

let audit_unit () =
  let fp, _ = build_fast 42 in
  Alcotest.(check (list string)) "fresh compile is clean" []
    (List.map Audit.to_string (Audit.audit fp));
  (* The kill bit is part of the audited surface: clearing a down
     port's (or setting an up port's) kill bit is caught structurally,
     without the digest. *)
  let r = (Fastpath.view fp).Fastpath.view_rows in
  let m = r.Rows.m in
  let rows = r.Rows.phys.(0) in
  let g = m / Rows.group_bits in
  rows.(g) <- rows.(g) lxor (1 lsl (m mod Rows.group_bits));
  Alcotest.(check bool) "kill-bit flip caught structurally" false
    (Audit.audit_ok ~check_digest:false fp);
  Alcotest.(check bool) "and by the digest" false (Audit.audit_ok fp)

let audit_local_popcount () =
  let fp, _ = build_fast 7 in
  (* Clearing one live bit of the local LIT breaks popcount = k. *)
  let rows = (Fastpath.view fp).Fastpath.view_rows.Rows.local.(0) in
  let g = ref 0 in
  while rows.(!g) = 0 do incr g done;
  rows.(!g) <- rows.(!g) land (rows.(!g) - 1);
  let checks = List.map (fun viol -> viol.Audit.check) (Audit.audit ~check_digest:false fp) in
  Alcotest.(check bool) "popcount violation raised" true
    (List.mem "popcount" checks)

let audit_env_hook () =
  Unix.putenv "LIPSIN_FASTPATH_AUDIT" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "LIPSIN_FASTPATH_AUDIT" "")
    (fun () ->
      let rng = Rng.of_int 11 in
      let graph = Generator.pref_attach ~rng ~nodes:8 ~edges:10 ~max_degree:4 () in
      let params = Lit.constant_k ~m:64 ~d:2 ~k:4 in
      let asg = Assignment.make params (Rng.split rng) graph in
      let net = Net.make asg in
      (* Forces a compile through Net.fastpath's audit gate. *)
      ignore (Net.fastpath net 0);
      let tree = [] in
      let z = Zfilter.create ~m:64 in
      let o = Run.deliver ~engine:`Fast net ~src:0 ~table:0 ~zfilter:z ~tree in
      Alcotest.(check bool) "delivery ran under the audit gate" true
        (o.Run.link_traversals >= 0))

let prop_audit_accepts_compiles =
  QCheck.Test.make ~name:"audit accepts every Fastpath.compile output" ~count:250
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let fp, _ = build_fast seed in
      match Audit.audit fp with
      | [] -> true
      | v :: _ -> QCheck.Test.fail_report (Audit.to_string v))

let prop_audit_rejects_corruption =
  QCheck.Test.make ~name:"audit flags any single-bit row corruption" ~count:300
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let fp, rng = build_fast seed in
      match all_rows fp with
      | [] -> true
      | rows ->
        flip_random_bit rng (List.nth rows (Rng.int rng (List.length rows)));
        not (Audit.audit_ok fp))

let prop_structural_catches_phys =
  (* For physical entries every single-bit flip is covered by a
     structural invariant — a live bit breaks popcount = k, a padding
     bit breaks the zero-padding check, bit m breaks kill-bit placement
     — so even without the digest it cannot hide.  (Multi-bit
     corruption that preserves popcount needs the digest.) *)
  QCheck.Test.make
    ~name:"structural checks alone catch single-bit phys corruption" ~count:200
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let fp, rng = build_fast seed in
      let r = (Fastpath.view fp).Fastpath.view_rows in
      let rows = r.Rows.phys.(Rng.int rng r.Rows.d) in
      if Array.length rows = 0 then true
      else begin
        flip_random_bit rng rows;
        not (Audit.audit_ok ~check_digest:false fp)
      end)

let () =
  Alcotest.run "analysis"
    [
      ( "lint",
        [
          Alcotest.test_case "no-poly-compare fixtures" `Quick poly_compare_fixtures;
          Alcotest.test_case "domain-safety fixtures" `Quick domain_safety_fixtures;
          Alcotest.test_case "no-debug-io fixtures" `Quick debug_io_fixtures;
          Alcotest.test_case "no-unsafe-access fixtures" `Quick
            unsafe_access_fixtures;
          Alcotest.test_case "mli-coverage fixtures" `Quick mli_coverage_fixtures;
          Alcotest.test_case "parse errors surface as findings" `Quick
            parse_error_fixture;
          Alcotest.test_case "suppression comment parsing" `Quick suppression_parsing;
          Alcotest.test_case "dune dependency graph" `Quick dep_graph;
          Alcotest.test_case "report formats" `Quick report_shapes;
        ] );
      ( "audit",
        [
          Alcotest.test_case "clean compile, corrupted kill bit" `Quick audit_unit;
          Alcotest.test_case "local LIT popcount" `Quick audit_local_popcount;
          Alcotest.test_case "Net audit gate (env hook)" `Quick audit_env_hook;
          QCheck_alcotest.to_alcotest prop_audit_accepts_compiles;
          QCheck_alcotest.to_alcotest prop_audit_rejects_corruption;
          QCheck_alcotest.to_alcotest prop_structural_catches_phys;
        ] );
    ]
