(* Partitioned (stitched) zFilters: the cross-engine exactly-once
   harness.  Differential qcheck over randomly split trees (the
   reference and fast engines must agree bit for bit, Obs counters
   included), Netcheck
   acceptance of every compiler-produced partition, rejection of
   injected cross-stage loops and duplicate stitch deliveries, filter
   and blob mutation properties, Persist round-trips with error paths,
   and the fill-limit regression partitioning exists to fix. *)

module Bitvec = Lipsin_bitvec.Bitvec
module Lit = Lipsin_bloom.Lit
module Zfilter = Lipsin_bloom.Zfilter
module Partition = Lipsin_bloom.Partition
module Graph = Lipsin_topology.Graph
module Spt = Lipsin_topology.Spt
module Assignment = Lipsin_core.Assignment
module Adaptive = Lipsin_core.Adaptive
module Stagecut = Lipsin_core.Stagecut
module Persist = Lipsin_core.Persist
module Node_engine = Lipsin_forwarding.Node_engine
module Fastpath = Lipsin_forwarding.Fastpath
module Rows = Lipsin_forwarding.Rows
module Stitched = Lipsin_sim.Stitched
module Netcheck = Lipsin_analysis.Netcheck
module Audit = Lipsin_analysis.Audit
module Scenario = Lipsin_workload.Scenario
module Obs = Lipsin_obs.Obs
module Rng = Lipsin_util.Rng

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

(* Two-tier topology (router core + access hosts) with enough
   subscribers that one zFilter cannot carry the tree. *)
let fixture seed ~hosts =
  let g, host_nodes =
    Scenario.two_tier ~seed ~core:30 ~core_edges:60 ~max_degree:8 ~hosts ()
  in
  let adaptive = Adaptive.make ~d:4 ~k:5 (Rng.of_int (seed + 17)) g in
  (g, host_nodes, adaptive)

(* Keep each host with probability keep/100; never empty. *)
let pick_subset rng nodes ~keep =
  match List.filter (fun _ -> Rng.int rng 100 < keep) nodes with
  | [] -> [ List.hd nodes ]
  | l -> l

let plan_exn ?id adaptive ~seed ~subscribers =
  match
    Stagecut.plan ?id adaptive ~rng:(Rng.of_int (seed + 23)) ~root:0 ~subscribers
  with
  | Ok (p, d) -> (p, d)
  | Error e -> Alcotest.failf "Stagecut.plan: %s" e

let errors findings =
  List.filter (fun f -> f.Netcheck.severity = Netcheck.Error) findings

let replace_filter part si filter =
  let stages = Array.copy part.Partition.stages in
  stages.(si) <- { stages.(si) with Partition.filter };
  { part with Partition.stages = stages }

(* OR an extra tag into stage si's filter (simulating a corrupted or
   adversarial filter that falsely contains a foreign egress tag). *)
let with_extra_tag part si tag =
  let s = part.Partition.stages.(si) in
  let bv = Bitvec.copy (Zfilter.to_bitvec s.Partition.filter) in
  Bitvec.logor_into ~dst:bv tag;
  replace_filter part si (Zfilter.of_bitvec bv)

(* ------------------------------------------------------------------ *)
(* Properties over compiler-produced partitions                        *)
(* ------------------------------------------------------------------ *)

let prop_netcheck_accepts_plans =
  QCheck.Test.make ~name:"netcheck accepts every compiler-produced partition"
    ~count:10 QCheck.small_nat (fun seed ->
      let _g, hosts, adaptive = fixture seed ~hosts:120 in
      let subs = pick_subset (Rng.of_int (seed + 5)) hosts ~keep:70 in
      let part, diag = plan_exn adaptive ~seed ~subscribers:subs in
      (match Partition.validate part with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "validate: %s" e);
      if diag.Stagecut.stages < 1 then
        QCheck.Test.fail_report "plan produced no stages";
      match errors (Netcheck.check_partition ~subscribers:subs adaptive part) with
      | [] -> true
      | f :: _ -> QCheck.Test.fail_report (Netcheck.to_string f))

let stitch_counter engine =
  Obs.Counter.make ~labels:[ ("engine", engine) ] "lipsin_stitch_matches_total"

let prop_engines_agree =
  QCheck.Test.make
    ~name:"engines agree bit for bit on stitched delivery (Obs included)"
    ~count:6 QCheck.small_nat (fun seed ->
      let _g, hosts, adaptive = fixture (seed + 100) ~hosts:120 in
      let subs = pick_subset (Rng.of_int (seed + 7)) hosts ~keep:60 in
      let part, _ = plan_exn adaptive ~seed ~subscribers:subs in
      let st = Stitched.make adaptive in
      Stitched.install st part;
      Obs.Sink.set Obs.Sink.Memory;
      Fun.protect
        ~finally:(fun () ->
          Stitched.uninstall st part;
          Obs.Sink.set Obs.Sink.Noop)
        (fun () ->
          let run engine name =
            let c = stitch_counter name in
            let before = Obs.Counter.value c in
            let o = Stitched.deliver ~engine st part in
            (match Stitched.exactly_once o part with
            | Ok () -> ()
            | Error e -> QCheck.Test.fail_reportf "%s exactly-once: %s" name e);
            (o, Obs.Counter.value c - before)
          in
          let oref, dref = run `Reference "reference" in
          let ofast, dfast = run `Fast "fast" in
          let same name (a : Stitched.outcome) (b : Stitched.outcome) =
            if a.Stitched.delivered <> b.Stitched.delivered then
              QCheck.Test.fail_reportf "%s delivered differs from reference" name;
            if a.Stitched.stage_order <> b.Stitched.stage_order then
              QCheck.Test.fail_reportf "%s stage order differs" name;
            if a.Stitched.duplicate_handoffs <> b.Stitched.duplicate_handoffs then
              QCheck.Test.fail_reportf "%s duplicate handoffs differ" name;
            if a.Stitched.link_traversals <> b.Stitched.link_traversals then
              QCheck.Test.fail_reportf "%s link traversals differ" name
          in
          same "fast" ofast oref;
          (* The per-engine stitch-match meters must tick identically:
             the same decisions fire the same stitch entries. *)
          if dref <> dfast then
            QCheck.Test.fail_reportf
              "stitch counters differ: reference %d fast %d" dref dfast;
          true))

let prop_filter_mutation_flagged =
  QCheck.Test.make
    ~name:"zeroing any nonzero stage-filter byte yields a netcheck Error"
    ~count:10
    QCheck.(pair small_nat small_nat)
    (fun (seed, pick) ->
      let _g, hosts, adaptive = fixture (seed + 200) ~hosts:100 in
      let subs = pick_subset (Rng.of_int (seed + 9)) hosts ~keep:70 in
      let part, _ = plan_exn adaptive ~seed ~subscribers:subs in
      let si = pick mod Array.length part.Partition.stages in
      let s = part.Partition.stages.(si) in
      let bv = Bitvec.copy (Zfilter.to_bitvec s.Partition.filter) in
      let set = Bitvec.set_positions bv in
      let bytes = List.sort_uniq Int.compare (List.map (fun p -> p / 8) set) in
      match bytes with
      | [] -> true (* an empty filter has nothing to corrupt *)
      | _ ->
        let b = List.nth bytes (pick mod List.length bytes) in
        List.iter (fun p -> if p / 8 = b then Bitvec.clear bv p) set;
        let part' = replace_filter part si (Zfilter.of_bitvec bv) in
        let flagged =
          List.exists
            (fun f ->
              f.Netcheck.severity = Netcheck.Error
              && (f.Netcheck.check = "stage-coverage"
                 || f.Netcheck.check = "stage-egress"))
            (Netcheck.check_partition ~subscribers:subs adaptive part')
        in
        if not flagged then
          QCheck.Test.fail_reportf
            "stage %d byte %d zeroed but no coverage/egress Error" si b;
        true)

(* ------------------------------------------------------------------ *)
(* Hand-built partition: injected cross-stage faults                   *)
(* ------------------------------------------------------------------ *)

(* A 5-node path-and-branch graph carrying a 3-stage partition:
   stage 0 covers 0->1 and hands off at node 1 to stage 1 (links 1->2,
   2->4), which chains at its own root to stage 2 (link 1->3).  Small
   enough that every check's firing condition is knowable by hand. *)
let manual_partition () =
  let g = Graph.create ~nodes:5 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 1 3;
  Graph.add_edge g 2 4;
  let adaptive = Adaptive.make ~d:2 ~k:5 (Rng.of_int 42) g in
  let m = 120 in
  let asg = Adaptive.assignment adaptive ~m in
  let link src dst =
    match Graph.find_link g ~src ~dst with
    | Some l -> l
    | None -> Alcotest.fail "manual graph link missing"
  in
  let tag l = Assignment.tag asg l ~table:0 in
  let etag nonce = Lit.tag (Partition.egress_lit (Assignment.params asg) ~nonce) 0 in
  let stage index root nonce links handoffs subscribers =
    {
      Partition.index;
      m;
      table = 0;
      root;
      nonce;
      filter =
        Zfilter.of_tags ~m
          (List.map tag links @ if handoffs <> [] then [ etag nonce ] else []);
      links = List.map (fun (l : Graph.link) -> l.Graph.index) links;
      subscribers;
      handoffs;
    }
  in
  let n0 = 0x1111L and n1 = 0x2222L and n2 = 0x3333L in
  let stages =
    [|
      stage 0 0 n0 [ link 0 1 ] [ { Partition.at = 1; next = 1 } ] [];
      stage 1 1 n1
        [ link 1 2; link 2 4 ]
        [ { Partition.at = 1; next = 2 } ]
        [ 4 ];
      stage 2 1 n2 [ link 1 3 ] [] [ 3 ];
    |]
  in
  (adaptive, { Partition.id = 9; root = 0; stages }, etag, (n0, n1, n2))

let test_manual_partition_clean () =
  let adaptive, part, _etag, _ = manual_partition () in
  Alcotest.(check bool) "validates" true (Partition.validate part = Ok ());
  match errors (Netcheck.check_partition ~subscribers:[ 3; 4 ] adaptive part) with
  | [] -> ()
  | f :: _ -> Alcotest.failf "unexpected Error: %s" (Netcheck.to_string f)

let find_error part adaptive check =
  List.exists
    (fun f -> f.Netcheck.severity = Netcheck.Error && f.Netcheck.check = check)
    (Netcheck.check_partition ~subscribers:[ 3; 4 ] adaptive part)

let test_injected_cross_stage_loop () =
  (* Stage 1's filter falsely contains stage 0's egress tag; at node 1
     (on stage 1's tree) stage 0's stitch entry fires and re-enters
     stage 1 — an ancestor-of-itself re-entry, i.e. a loop. *)
  let adaptive, part, etag, (n0, _, _) = manual_partition () in
  let part' = with_extra_tag part 1 (etag n0) in
  Alcotest.(check bool) "cross-stage-loop Error" true
    (find_error part' adaptive "cross-stage-loop")

let test_injected_cross_stage_duplicate () =
  (* Stage 0's filter falsely contains stage 1's egress tag; at node 1
     (on stage 0's tree) stage 1's chained stitch entry fires and
     enters stage 2 a second time — a duplicate subtree delivery. *)
  let adaptive, part, etag, (_, n1, _) = manual_partition () in
  let part' = with_extra_tag part 0 (etag n1) in
  Alcotest.(check bool) "cross-stage-duplicate Error" true
    (find_error part' adaptive "cross-stage-duplicate")

(* ------------------------------------------------------------------ *)
(* Partition.validate structural rejections                            *)
(* ------------------------------------------------------------------ *)

let set_handoffs part si handoffs =
  let stages = Array.copy part.Partition.stages in
  stages.(si) <- { stages.(si) with Partition.handoffs };
  { part with Partition.stages = stages }

let check_invalid what expected part =
  match Partition.validate part with
  | Ok () -> Alcotest.failf "%s: validate accepted a broken partition" what
  | Error e ->
    let contains hay needle =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    if not (contains e expected) then
      Alcotest.failf "%s: error %S does not mention %S" what e expected

let test_validate_rejections () =
  let _, part, _, _ = manual_partition () in
  (* Stage 1 entered by two handoffs. *)
  check_invalid "double entry" "is entered 2 times"
    (set_handoffs part 0
       [ { Partition.at = 1; next = 1 }; { Partition.at = 1; next = 1 } ]);
  (* Stage 1 never entered. *)
  check_invalid "orphan stage" "is never entered" (set_handoffs part 0 []);
  (* Stages 1 and 2 enter each other: a handoff cycle unreachable from
     stage 0. *)
  check_invalid "handoff cycle" "unreachable from stage 0 (handoff cycle)"
    (set_handoffs
       (set_handoffs (set_handoffs part 0 []) 1 [ { Partition.at = 1; next = 2 } ])
       2
       [ { Partition.at = 1; next = 1 } ]);
  (* Handoff to a stage that does not exist. *)
  check_invalid "missing target" "hands off to missing stage"
    (set_handoffs part 1 [ { Partition.at = 1; next = 7 } ])

(* ------------------------------------------------------------------ *)
(* Egress LITs and the audit of compiled stitch blobs                  *)
(* ------------------------------------------------------------------ *)

let test_egress_lit_strength () =
  let g = Graph.create ~nodes:3 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 0 2;
  let adaptive = Adaptive.make ~d:2 ~k:5 (Rng.of_int 11) g in
  let asg = Adaptive.assignment adaptive ~m:120 in
  let lit = Partition.egress_lit (Assignment.params asg) ~nonce:0x77L in
  (* An egress false positive re-delivers a whole subtree, so egress
     LITs spend 4x a link LIT's hash bits. *)
  Alcotest.(check int) "egress_k" 20 (Partition.egress_k ~m:120 5);
  Alcotest.(check int) "egress LIT popcount (table 0)" 20
    (Bitvec.popcount (Lit.tag lit 0));
  Alcotest.(check int) "egress LIT popcount (table 1)" 20
    (Bitvec.popcount (Lit.tag lit 1));
  Alcotest.(check int) "clamped at m" 120 (Partition.egress_k ~m:120 40)

let test_audit_stitch_blob_mutation () =
  let g = Graph.create ~nodes:3 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 0 2;
  let adaptive = Adaptive.make ~d:2 ~k:5 (Rng.of_int 11) g in
  let asg = Adaptive.assignment adaptive ~m:120 in
  let e = Node_engine.create asg 0 in
  let lit = Partition.egress_lit (Assignment.params asg) ~nonce:0x77L in
  Node_engine.install_stitch e lit ~partition:3 ~next:1;
  let fp = Fastpath.compile e in
  Alcotest.(check bool) "clean compile audits clean" true (Audit.audit_ok fp);
  let rows = (Fastpath.view fp).Fastpath.view_rows.Rows.stitch.(0) in
  (* Clear the lowest set bit of the first non-empty group of the stitch
     LIT: breaks the exact-egress_k popcount law and the digest. *)
  let i = ref 0 in
  while rows.(!i) = 0 do incr i done;
  rows.(!i) <- rows.(!i) land (rows.(!i) - 1);
  Alcotest.(check bool) "structural audit flags it" false
    (Audit.audit_ok ~check_digest:false fp);
  Alcotest.(check bool) "digest audit flags it" false (Audit.audit_ok fp)

(* ------------------------------------------------------------------ *)
(* Persist round-trip and error paths                                  *)
(* ------------------------------------------------------------------ *)

let stages_equal (a : Partition.stage) (b : Partition.stage) =
  a.Partition.index = b.Partition.index
  && a.Partition.m = b.Partition.m
  && a.Partition.table = b.Partition.table
  && a.Partition.root = b.Partition.root
  && a.Partition.nonce = b.Partition.nonce
  && Zfilter.equal a.Partition.filter b.Partition.filter
  && a.Partition.links = b.Partition.links
  && a.Partition.subscribers = b.Partition.subscribers
  && a.Partition.handoffs = b.Partition.handoffs

let partitions_equal a b =
  a.Partition.id = b.Partition.id
  && a.Partition.root = b.Partition.root
  && Array.length a.Partition.stages = Array.length b.Partition.stages
  && Array.for_all2 stages_equal a.Partition.stages b.Partition.stages

let roundtrip_fixture () =
  let g, hosts, adaptive = fixture 4 ~hosts:80 in
  let subs = pick_subset (Rng.of_int 13) hosts ~keep:70 in
  let part, _ = plan_exn ~id:5 adaptive ~seed:4 ~subscribers:subs in
  (g, part)

let test_persist_roundtrip () =
  let g, part = roundtrip_fixture () in
  match Persist.of_string_partition g (Persist.to_string_partition part) with
  | Error e -> Alcotest.failf "roundtrip: %s" e
  | Ok part' ->
    Alcotest.(check bool) "identical partition" true (partitions_equal part part')

let test_persist_file_roundtrip () =
  let g, part = roundtrip_fixture () in
  let path = Filename.temp_file "lipsin_partition" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Persist.save_partition part path;
      match Persist.load_partition g path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok part' ->
        Alcotest.(check bool) "file roundtrip" true (partitions_equal part part'))

let test_persist_error_paths () =
  let g, part = roundtrip_fixture () in
  let s = Persist.to_string_partition part in
  let lines = String.split_on_char '\n' s in
  let rejoin ls = String.concat "\n" ls in
  let edit i f = rejoin (List.mapi (fun j l -> if j = i then f l else l) lines) in
  let expect what needle input =
    match Persist.of_string_partition g input with
    | Ok _ -> Alcotest.failf "%s: parser accepted corrupt input" what
    | Error e ->
      Alcotest.(check string) (what ^ " error") needle e
  in
  expect "bad magic" "bad magic line" (edit 0 (fun _ -> "lipsin-partition v9"));
  expect "truncated" "truncated partition file"
    (rejoin (List.filteri (fun i _ -> i < 3) lines));
  expect "malformed header" "malformed header line"
    (edit 3 (fun _ -> "stages many"));
  expect "malformed stage" "malformed stage line"
    (edit 4 (fun _ -> "stage zero m x table y"));
  expect "malformed filter" "malformed filter line"
    (edit 5 (fun _ -> "filter zz@@"));
  expect "link out of range" "link index out of range"
    (edit 6 (fun _ -> "links 999999"))

(* ------------------------------------------------------------------ *)
(* Regressions                                                         *)
(* ------------------------------------------------------------------ *)

(* The failure partitioning exists to fix: a tree too big for ANY
   single width of the family still plans, verifies and delivers
   exactly once as a stitched partition. *)
let test_single_filter_fill_limit_regression () =
  let g, hosts, adaptive = fixture 3 ~hosts:250 in
  let tree = Spt.delivery_tree g ~root:0 ~subscribers:hosts in
  Alcotest.(check bool) "no single width carries the tree" true
    (Adaptive.choose adaptive ~tree ~target_fpa:1.0 () = None);
  let part, diag = plan_exn adaptive ~seed:3 ~subscribers:hosts in
  Alcotest.(check bool) "partitioned into several stages" true
    (diag.Stagecut.stages > 1);
  (match errors (Netcheck.check_partition ~subscribers:hosts adaptive part) with
  | [] -> ()
  | f :: _ -> Alcotest.failf "netcheck Error: %s" (Netcheck.to_string f));
  let st = Stitched.make adaptive in
  Stitched.install st part;
  let o = Stitched.deliver ~engine:`Fast st part in
  match Stitched.exactly_once o part with
  | Ok () -> ()
  | Error e -> Alcotest.failf "exactly-once: %s" e

(* ------------------------------------------------------------------ *)
(* Dynamic trace cross-check and the anomaly flight recorder           *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let with_tracing f =
  Obs.Sink.set Obs.Sink.Memory;
  Obs.Trace.set_recording true;
  Obs.Trace.set_sampling 1;
  Fun.protect ~finally:(fun () -> Obs.Sink.set Obs.Sink.Noop) f

(* Every engine's stitched delivery of the clean hand-built partition
   reconstructs into an error-free span forest whose events cross all
   three stage boundaries under one publication id. *)
let test_stitched_span_crosscheck () =
  with_tracing (fun () ->
      let adaptive, part, _, _ = manual_partition () in
      let st = Stitched.make adaptive in
      Stitched.install st part;
      Fun.protect
        ~finally:(fun () -> Stitched.uninstall st part)
        (fun () ->
          List.iter
            (fun (engine, name) ->
              let o = Stitched.deliver ~engine st part in
              Alcotest.(check bool) (name ^ " sampled") true
                (o.Stitched.packet_id >= 0);
              let tree = Obs.Span.of_packet o.Stitched.packet_id in
              Alcotest.(check bool) (name ^ " span forest is error-free")
                false (Obs.Span.has_errors tree);
              let stages =
                List.sort_uniq Int.compare
                  (List.filter_map
                     (fun e ->
                       if e.Obs.Trace.ev_stage >= 0 then
                         Some e.Obs.Trace.ev_stage
                       else None)
                     tree.Obs.Span.tr_events)
              in
              Alcotest.(check (list int))
                (name ^ " spans cross all three stages")
                [ 0; 1; 2 ] stages;
              Alcotest.(check (list string)) (name ^ " no anomalies") []
                o.Stitched.trace_anomalies)
            [ (`Reference, "reference"); (`Fast, "fast") ]))

(* The dynamic twin of [test_injected_cross_stage_duplicate]: running
   the corrupted partition (stage 0's filter falsely contains stage 1's
   egress tag) makes stage 2 activate twice at runtime.  The span
   cross-check must flag it and the flight recorder must freeze and
   dump a post-mortem file, creating parent directories on the way. *)
let test_flight_fires_on_injected_duplicate () =
  with_tracing (fun () ->
      let adaptive, part, etag, (_, n1, _) = manual_partition () in
      let part' = with_extra_tag part 0 (etag n1) in
      let st = Stitched.make adaptive in
      Stitched.install st part';
      let dir =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "lipsin-flight-%d/nested" (Unix.getpid ()))
      in
      Obs.Flight.reset ();
      Obs.Flight.configure ~dir ();
      Fun.protect
        ~finally:(fun () ->
          Stitched.uninstall st part';
          Obs.Flight.reset ())
        (fun () ->
          let o = Stitched.deliver ~engine:`Fast st part' in
          Alcotest.(check bool) "duplicate handoff suppressed at runtime"
            true
            (o.Stitched.duplicate_handoffs > 0);
          Alcotest.(check bool) "span cross-check reports the duplicate"
            true
            (List.exists
               (fun s -> contains s "activated more than once")
               o.Stitched.trace_anomalies);
          Alcotest.(check bool) "recorder froze" true (Obs.Flight.frozen ());
          match Obs.Flight.last_dump () with
          | None -> Alcotest.fail "flight recorder did not dump"
          | Some d ->
            Alcotest.(check bool) "duplicate-activation trigger" true
              (d.Obs.Flight.dm_trigger = Obs.Flight.Duplicate_activation);
            (match d.Obs.Flight.dm_path with
            | None -> Alcotest.fail "post-mortem file was not written"
            | Some p ->
              Alcotest.(check bool) "post-mortem file exists" true
                (Sys.file_exists p);
              let ic = open_in p in
              let body =
                Fun.protect
                  ~finally:(fun () -> close_in ic)
                  (fun () -> really_input_string ic (in_channel_length ic))
              in
              Alcotest.(check bool) "dump names the trigger" true
                (contains body "duplicate-activation"))))

let () =
  Alcotest.run "partition"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_netcheck_accepts_plans;
          QCheck_alcotest.to_alcotest prop_engines_agree;
          QCheck_alcotest.to_alcotest prop_filter_mutation_flagged;
        ] );
      ( "injections",
        [
          Alcotest.test_case "hand-built partition is clean" `Quick
            test_manual_partition_clean;
          Alcotest.test_case "injected cross-stage loop is an Error" `Quick
            test_injected_cross_stage_loop;
          Alcotest.test_case "injected duplicate delivery is an Error" `Quick
            test_injected_cross_stage_duplicate;
          Alcotest.test_case "validate rejects broken stage forests" `Quick
            test_validate_rejections;
        ] );
      ( "egress",
        [
          Alcotest.test_case "egress LITs spend 4x hash bits" `Quick
            test_egress_lit_strength;
          Alcotest.test_case "audit flags stitch blob corruption" `Quick
            test_audit_stitch_blob_mutation;
        ] );
      ( "persist",
        [
          Alcotest.test_case "string roundtrip" `Quick test_persist_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_persist_file_roundtrip;
          Alcotest.test_case "error paths" `Quick test_persist_error_paths;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "fill-limit failure fixed by partitioning" `Slow
            test_single_filter_fill_limit_regression;
        ] );
      ( "flight",
        [
          Alcotest.test_case "stitched spans cross-check clean" `Quick
            test_stitched_span_crosscheck;
          Alcotest.test_case "recorder fires on injected duplicate" `Quick
            test_flight_fires_on_injected_duplicate;
        ] );
    ]
