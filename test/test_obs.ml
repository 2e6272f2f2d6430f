(* Tests for Lipsin_obs: per-domain counters, histograms, the trace
   ring, exporters, and the PR 4 differential properties — trace replay
   reconstructs Run.deliver's delivery set, and both forwarding engines
   produce identical telemetry deltas for the same packet history. *)

module Obs = Lipsin_obs.Obs
module Lit = Lipsin_bloom.Lit
module Zfilter = Lipsin_bloom.Zfilter
module Bitvec = Lipsin_bitvec.Bitvec
module Graph = Lipsin_topology.Graph
module Spt = Lipsin_topology.Spt
module Generator = Lipsin_topology.Generator
module Assignment = Lipsin_core.Assignment
module Candidate = Lipsin_core.Candidate
module Node_engine = Lipsin_forwarding.Node_engine
module Fastpath = Lipsin_forwarding.Fastpath
module Net = Lipsin_sim.Net
module Run = Lipsin_sim.Run
module Rng = Lipsin_util.Rng

let with_memory f =
  Obs.Sink.set Obs.Sink.Memory;
  Obs.Trace.set_recording true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_recording true;
      Obs.Sink.set Obs.Sink.Noop)
    f

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---- counters ------------------------------------------------------- *)

let test_counter_aggregates_domains () =
  with_memory (fun () ->
      let c = Obs.Counter.make "test_obs_domains_total" in
      let before = Obs.Counter.value c in
      Obs.Counter.add c 5;
      let workers =
        Array.init 3 (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to 1000 do
                  Obs.Counter.incr c
                done))
      in
      Array.iter Domain.join workers;
      Alcotest.(check int) "summed across domains" (before + 3005)
        (Obs.Counter.value c))

let test_noop_sink_records_nothing () =
  Obs.Sink.set Obs.Sink.Noop;
  let c = Obs.Counter.make "test_obs_noop_total" in
  let h = Obs.Histogram.make "test_obs_noop_hist" in
  let v0 = Obs.Counter.value c in
  let n0 = (Obs.Histogram.summary h).Obs.Histogram.count in
  Obs.Counter.incr c;
  Obs.Counter.add c 7;
  Obs.Histogram.observe h 3.0;
  Obs.Histogram.observe_int h 5;
  Alcotest.(check int) "counter unchanged" v0 (Obs.Counter.value c);
  Alcotest.(check int) "histogram unchanged" n0
    (Obs.Histogram.summary h).Obs.Histogram.count

let test_registry_idempotent () =
  with_memory (fun () ->
      let a = Obs.Counter.make ~labels:[ ("x", "1") ] "test_obs_idem_total" in
      let b = Obs.Counter.make ~labels:[ ("x", "1") ] "test_obs_idem_total" in
      let o = Obs.Counter.make ~labels:[ ("x", "2") ] "test_obs_idem_total" in
      let va = Obs.Counter.value a and vo = Obs.Counter.value o in
      Obs.Counter.add a 4;
      Alcotest.(check int) "same (name,labels) is one counter" (va + 4)
        (Obs.Counter.value b);
      Alcotest.(check int) "distinct labels stay independent" vo
        (Obs.Counter.value o))

(* ---- histograms ----------------------------------------------------- *)

let test_histogram_bucket_bounds () =
  let check_v v =
    let i = Obs.Histogram.bucket_of v in
    Alcotest.(check bool)
      (Printf.sprintf "v=%g within le_bound %d" v i)
      true
      (v <= Obs.Histogram.le_bound i);
    if i > 0 then
      Alcotest.(check bool)
        (Printf.sprintf "v=%g above le_bound %d" v (i - 1))
        true
        (v > Obs.Histogram.le_bound (i - 1))
  in
  List.iter check_v
    [ 1e-12; 0.001; 0.5; 0.75; 1.0; 1.5; 2.0; 3.0; 1023.0; 1024.0; 1025.0;
      4096.5; 1e9 ];
  Alcotest.(check int) "overflow clamps to the top bucket" 63
    (Obs.Histogram.bucket_of 1e12);
  Alcotest.(check int) "non-positive values land in bucket 0" 0
    (Obs.Histogram.bucket_of (-3.0))

let test_record_int_matches_record () =
  with_memory (fun () ->
      let hf = Obs.Histogram.make "test_obs_float_hist" in
      let hi = Obs.Histogram.make "test_obs_int_hist" in
      for n = 0 to 2000 do
        Obs.Histogram.observe hf (float_of_int n);
        Obs.Histogram.observe_int hi n
      done;
      let sf = Obs.Histogram.summary hf and si = Obs.Histogram.summary hi in
      Alcotest.(check int) "count" sf.Obs.Histogram.count si.Obs.Histogram.count;
      Alcotest.(check (float 1e-9)) "sum" sf.Obs.Histogram.sum
        si.Obs.Histogram.sum;
      Alcotest.(check (float 1e-9)) "p50" sf.Obs.Histogram.p50
        si.Obs.Histogram.p50;
      Alcotest.(check (float 1e-9)) "p99" sf.Obs.Histogram.p99
        si.Obs.Histogram.p99;
      Alcotest.(check (float 1e-9)) "max" sf.Obs.Histogram.max
        si.Obs.Histogram.max)

let test_histogram_summary () =
  with_memory (fun () ->
      let h = Obs.Histogram.make "test_obs_summary_hist" in
      for n = 1 to 1000 do
        Obs.Histogram.observe h (float_of_int n)
      done;
      let s = Obs.Histogram.summary h in
      Alcotest.(check int) "count" 1000 s.Obs.Histogram.count;
      Alcotest.(check (float 1e-6)) "sum" 500500.0 s.Obs.Histogram.sum;
      Alcotest.(check (float 1e-6)) "max" 1000.0 s.Obs.Histogram.max;
      Alcotest.(check bool) "quantiles ordered" true
        (s.Obs.Histogram.p50 <= s.Obs.Histogram.p95
        && s.Obs.Histogram.p95 <= s.Obs.Histogram.p99
        && s.Obs.Histogram.p99 <= s.Obs.Histogram.max);
      (* rank 500 of 1..1000 falls in the (256, 512] bucket *)
      Alcotest.(check bool) "p50 interpolated inside its bucket" true
        (s.Obs.Histogram.p50 > 256.0 && s.Obs.Histogram.p50 <= 512.0);
      Alcotest.(check bool) "p999 between p99 and max" true
        (s.Obs.Histogram.p99 <= s.Obs.Histogram.p999
        && s.Obs.Histogram.p999 <= s.Obs.Histogram.max))

(* ---- trace ring ----------------------------------------------------- *)

let test_trace_ring_overflow () =
  with_memory (fun () ->
      let dropped0 = Obs.Trace.dropped () in
      Obs.Trace.set_capacity 8;
      Fun.protect
        ~finally:(fun () -> Obs.Trace.set_capacity 16384)
        (fun () ->
          (* a fresh domain gets a fresh ring at the shrunken capacity *)
          let d =
            Domain.spawn (fun () ->
                let r = Obs.Trace.local () in
                for i = 0 to 19 do
                  Obs.Trace.record r ~packet:424_242 ~node:i ~in_link:(-1)
                    ~kind:Obs.Trace.Hop ~out_links:[||] ~false_positive:false
                    ~loop_suspected:false ~deliver_local:false ~ttl_expired:0
                done)
          in
          Domain.join d);
      let evs = Obs.Trace.packet_events 424_242 in
      Alcotest.(check int) "ring keeps exactly its capacity" 8
        (List.length evs);
      Alcotest.(check int) "overflow is accounted" 12
        (Obs.Trace.dropped () - dropped0);
      Alcotest.(check (list int)) "newest events survive, in order"
        [ 12; 13; 14; 15; 16; 17; 18; 19 ]
        (List.map (fun e -> e.Obs.Trace.ev_node) evs))

(* ---- exporters ------------------------------------------------------ *)

let test_exporters () =
  with_memory (fun () ->
      let c =
        Obs.Counter.make ~help:"Export test counter"
          ~labels:[ ("kind", "x") ]
          "test_obs_export_total"
      in
      let h = Obs.Histogram.make ~help:"Export test hist" "test_obs_export_hist" in
      Obs.Counter.add c 3;
      Obs.Histogram.observe h 2.5;
      let prom = Obs.Export.prometheus () in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("prometheus has " ^ needle) true
            (contains prom needle))
        [
          "# TYPE test_obs_export_total counter";
          "# HELP test_obs_export_total Export test counter";
          "test_obs_export_total{kind=\"x\"}";
          "# TYPE test_obs_export_hist histogram";
          "test_obs_export_hist_bucket{le=";
          "le=\"+Inf\"";
          "test_obs_export_hist_sum";
          "test_obs_export_hist_count";
        ];
      let js = Obs.Export.json () in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("json has " ^ needle) true
            (contains js needle))
        [ "test_obs_export_total"; "test_obs_export_hist"; "\"p999\"" ])

(* Exposition-spec escaping: label values escape backslash, quote and
   newline; HELP text escapes backslash and newline but not quotes. *)
let test_export_escaping () =
  Alcotest.(check string) "label escapes" "a\\\\b\\\"c\\nd"
    (Obs.Export.escape_label "a\\b\"c\nd");
  Alcotest.(check string) "help escapes" "a\\\\b\"c\\nd"
    (Obs.Export.escape_help "a\\b\"c\nd");
  with_memory (fun () ->
      let c =
        Obs.Counter.make ~help:"line one\nline \\two"
          ~labels:[ ("path", "C:\\tmp\n\"x\"") ]
          "test_obs_escape_total"
      in
      Obs.Counter.add c 1;
      let prom = Obs.Export.prometheus () in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("prometheus has " ^ needle) true
            (contains prom needle))
        [
          "# HELP test_obs_escape_total line one\\nline \\\\two";
          "{path=\"C:\\\\tmp\\n\\\"x\\\"\"}";
        ];
      (* No raw newline may survive inside any exposition line. *)
      List.iter
        (fun line ->
          if contains line "test_obs_escape" then
            Alcotest.(check bool) "single physical line" false
              (String.contains line '\r'))
        (String.split_on_char '\n' prom))

(* Families render one TYPE line each, before their samples, in
   deterministic order across repeated renders. *)
let test_export_family_discipline () =
  with_memory (fun () ->
      List.iter
        (fun l ->
          Obs.Counter.add
            (Obs.Counter.make ~labels:[ ("engine", l) ] "test_obs_family_total")
            1)
        [ "fast"; "reference" ];
      let prom = Obs.Export.prometheus () in
      let type_lines =
        List.filter
          (fun l -> contains l "# TYPE test_obs_family_total")
          (String.split_on_char '\n' prom)
      in
      Alcotest.(check int) "one TYPE line per family" 1
        (List.length type_lines);
      Alcotest.(check string) "render is deterministic" prom
        (Obs.Export.prometheus ()))

(* ---- property: trace replay reconstructs the delivery set ----------- *)

let sorted_reached o =
  let acc = ref [] in
  Array.iteri (fun i r -> if r then acc := i :: !acc) o.Run.reached;
  List.sort Int.compare !acc

let replay_case (seed, ttl_mode, fast) =
  with_memory (fun () ->
      Obs.Trace.clear ();
      let rng = Rng.of_int (seed + 1) in
      let nodes = 16 + Rng.int rng 20 in
      let g =
        Generator.pref_attach ~rng:(Rng.split rng) ~nodes ~edges:(nodes * 2)
          ~max_degree:8 ()
      in
      let asg = Assignment.make Lit.default (Rng.split rng) g in
      let net = Net.make asg in
      let src = Rng.int rng nodes in
      let subscribers =
        List.filter
          (fun s -> s <> src)
          (List.init (1 + Rng.int rng 5) (fun _ -> Rng.int rng nodes))
      in
      let tree = Spt.delivery_tree g ~root:src ~subscribers in
      let zfilter =
        if tree = [] then Zfilter.create ~m:Lit.default.Lit.m
        else (Candidate.build_one asg ~tree ~table:0).Candidate.zfilter
      in
      let mode = if ttl_mode then Run.Ttl 10 else Run.Expand_once in
      let engine = if fast then `Fast else `Reference in
      let dropped0 = Obs.Trace.dropped () in
      let o = Run.deliver ~mode ~engine net ~src ~table:0 ~zfilter ~tree in
      if Obs.Trace.dropped () > dropped0 then true (* ring overflowed: vacuous *)
      else begin
        let evs = Obs.Trace.packet_events o.Run.packet_id in
        let replayed =
          Obs.Trace.delivery_set
            ~dst_of:(fun i -> (Graph.link g i).Graph.dst)
            evs
        in
        replayed = sorted_reached o
      end)

let replay_test =
  QCheck.Test.make ~count:40
    ~name:"trace replay reconstructs Run.deliver's delivery set"
    QCheck.(triple (int_bound 10_000) bool bool)
    replay_case

(* ---- property: span trees replay to exactly the delivery set -------- *)

(* The structured twin of [replay_case]: reconstruct the publication's
   span tree and let [Run.verify_trace] cross-check it against the
   delivery set, across both engines and both propagation modes. *)
let span_case (seed, ttl_mode, fast) =
  with_memory (fun () ->
      Obs.Trace.clear ();
      Obs.Trace.set_sampling 1;
      let rng = Rng.of_int (seed + 3) in
      let nodes = 16 + Rng.int rng 20 in
      let g =
        Generator.pref_attach ~rng:(Rng.split rng) ~nodes ~edges:(nodes * 2)
          ~max_degree:8 ()
      in
      let asg = Assignment.make Lit.default (Rng.split rng) g in
      let net = Net.make asg in
      let src = Rng.int rng nodes in
      let subscribers =
        List.filter
          (fun s -> s <> src)
          (List.init (1 + Rng.int rng 5) (fun _ -> Rng.int rng nodes))
      in
      let tree = Spt.delivery_tree g ~root:src ~subscribers in
      let zfilter =
        if tree = [] then Zfilter.create ~m:Lit.default.Lit.m
        else (Candidate.build_one asg ~tree ~table:0).Candidate.zfilter
      in
      let mode = if ttl_mode then Run.Ttl 10 else Run.Expand_once in
      let engine = if fast then `Fast else `Reference in
      let dropped0 = Obs.Trace.dropped () in
      let o = Run.deliver ~mode ~engine net ~src ~table:0 ~zfilter ~tree in
      if Obs.Trace.dropped () > dropped0 then true (* ring overflowed: vacuous *)
      else
        match Run.verify_trace net o with
        | None -> QCheck.Test.fail_report "publication was not sampled"
        | Some v ->
          if not v.Obs.Span.vd_complete then
            QCheck.Test.fail_report "span forest incomplete (orphans)";
          if v.Obs.Span.vd_delivered <> sorted_reached o then
            QCheck.Test.fail_reportf
              "span replay diverges from the delivery set: %s"
              (Obs.Span.verdict_to_string v);
          (* Loop errors may only appear when the run really vetoed. *)
          if not v.Obs.Span.vd_ok && o.Run.loop_drops = 0 then
            QCheck.Test.fail_reportf "unexpected span errors: %s"
              (Obs.Span.verdict_to_string v);
          true)

let span_test =
  QCheck.Test.make ~count:60
    ~name:"span trees replay to exactly the delivery set (all engines)"
    QCheck.(triple (int_bound 10_000) bool bool)
    span_case

(* A span tree's structure is consistent: every event is reachable from
   a root, and depth/size agree with the event count. *)
let test_span_shape () =
  with_memory (fun () ->
      Obs.Trace.clear ();
      let rng = Rng.of_int 77 in
      let g =
        Generator.pref_attach ~rng:(Rng.split rng) ~nodes:24 ~edges:48
          ~max_degree:8 ()
      in
      let asg = Assignment.make Lit.default (Rng.split rng) g in
      let net = Net.make asg in
      let subscribers = [ 3; 7; 11; 13 ] in
      let tree = Spt.delivery_tree g ~root:0 ~subscribers in
      let zfilter = (Candidate.build_one asg ~tree ~table:0).Candidate.zfilter in
      let o = Run.deliver ~engine:`Fast net ~src:0 ~table:0 ~zfilter ~tree in
      let t = Obs.Span.of_packet o.Run.packet_id in
      Alcotest.(check int) "packet id" o.Run.packet_id t.Obs.Span.tr_packet;
      let total =
        List.fold_left (fun acc r -> acc + Obs.Span.size r) 0 t.Obs.Span.tr_roots
      in
      Alcotest.(check int) "every event reachable from a root"
        (List.length t.Obs.Span.tr_events)
        total;
      List.iter
        (fun r ->
          Alcotest.(check bool) "depth within size" true
            (Obs.Span.depth r <= Obs.Span.size r))
        t.Obs.Span.tr_roots)

(* ---- property: both engines produce identical telemetry deltas ------ *)

let snapshot engine_label =
  let c name labels = Obs.Counter.value (Obs.Counter.make ~labels name) in
  let e = [ ("engine", engine_label) ] in
  let drops reason =
    c "lipsin_drops_total" [ ("engine", engine_label); ("reason", reason) ]
  in
  let decisions =
    if String.equal engine_label "fast" then
      c "lipsin_fastpath_decisions_total" []
    else c "lipsin_node_engine_decisions_total" []
  in
  let h =
    Obs.Histogram.summary (Obs.Histogram.make ~labels:e "lipsin_admitted_links")
  in
  ( [
      decisions;
      drops "fill";
      drops "loop";
      drops "bad-table";
      c "lipsin_loop_cache_hits_total" e;
      c "lipsin_loop_suspected_total" e;
      c "lipsin_block_vetoes_total" e;
      c "lipsin_local_deliveries_total" e;
      c "lipsin_service_matches_total" e;
      h.Obs.Histogram.count;
    ],
    h.Obs.Histogram.sum )

let parity_case seed =
  with_memory (fun () ->
      let rng = Rng.of_int (seed + 17) in
      let nodes = 12 + Rng.int rng 12 in
      let g =
        Generator.pref_attach ~rng:(Rng.split rng) ~nodes ~edges:(nodes * 2)
          ~max_degree:8 ()
      in
      let asg = Assignment.make Lit.default (Rng.split rng) g in
      let node = ref 0 in
      for v = 1 to nodes - 1 do
        if Graph.out_degree g v > Graph.out_degree g !node then node := v
      done;
      let node = !node in
      let eng = Node_engine.create asg node in
      let fast = Fastpath.compile eng in
      let d = Lit.default.Lit.d and m = Lit.default.Lit.m in
      let in_links =
        Array.of_list
          (List.filter
             (fun l -> l.Graph.dst = node)
             (Array.to_list (Graph.links g)))
      in
      let pool =
        Array.init 8 (fun i ->
            if i = 0 then begin
              (* all-ones filter: matches everything, trips the fill limit *)
              let b = Bitvec.create m in
              Bitvec.set_all b;
              Zfilter.of_bitvec b
            end
            else if i < 5 then begin
              (* a real candidate for a tree rooted at this node *)
              let subscribers =
                List.filter
                  (fun s -> s <> node)
                  (List.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng nodes))
              in
              let tree = Spt.delivery_tree g ~root:node ~subscribers in
              if tree = [] then Zfilter.create ~m
              else
                (Candidate.build_one asg ~tree ~table:(Rng.int rng d))
                  .Candidate.zfilter
            end
            else begin
              (* dense random noise: false positives and loop suspicion *)
              let b = Bitvec.create m in
              for _ = 1 to m / 3 do
                Bitvec.set b (Rng.int rng m)
              done;
              Zfilter.of_bitvec b
            end)
      in
      let before_f = snapshot "fast" and before_r = snapshot "reference" in
      let prev = ref None in
      for _ = 1 to 60 do
        let op =
          match !prev with
          | Some op when Rng.int rng 4 = 0 -> op (* replay: hits the loop cache *)
          | _ ->
            let z = pool.(Rng.int rng (Array.length pool)) in
            let table = if Rng.int rng 10 = 0 then d + 1 else Rng.int rng d in
            let in_link =
              if Array.length in_links = 0 || Rng.bool rng then None
              else Some in_links.(Rng.int rng (Array.length in_links))
            in
            (table, z, in_link)
        in
        prev := Some op;
        let table, z, in_link = op in
        ignore (Node_engine.forward eng ~table ~zfilter:z ~in_link);
        let in_link_index =
          match in_link with None -> -1 | Some l -> l.Graph.index
        in
        ignore (Fastpath.decide fast ~table ~zfilter:z ~in_link_index);
        if Rng.int rng 3 = 0 then begin
          Node_engine.tick eng;
          Fastpath.tick fast
        end
      done;
      let after_f = snapshot "fast" and after_r = snapshot "reference" in
      let delta (b, sb) (a, sa) = (List.map2 (fun x y -> y - x) b a, sa -. sb) in
      delta before_f after_f = delta before_r after_r)

let parity_test =
  QCheck.Test.make ~count:40
    ~name:"fastpath and node engine produce identical counter deltas"
    QCheck.(int_bound 10_000)
    parity_case

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "aggregates across domains" `Quick
            test_counter_aggregates_domains;
          Alcotest.test_case "noop sink records nothing" `Quick
            test_noop_sink_records_nothing;
          Alcotest.test_case "registration idempotent" `Quick
            test_registry_idempotent;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "bucket bounds" `Quick test_histogram_bucket_bounds;
          Alcotest.test_case "record_int matches record" `Quick
            test_record_int_matches_record;
          Alcotest.test_case "summary quantiles" `Quick test_histogram_summary;
        ] );
      ( "trace",
        [ Alcotest.test_case "ring overflow" `Quick test_trace_ring_overflow ] );
      ( "export",
        [
          Alcotest.test_case "prometheus and json" `Quick test_exporters;
          Alcotest.test_case "exposition escaping" `Quick test_export_escaping;
          Alcotest.test_case "family TYPE discipline" `Quick
            test_export_family_discipline;
        ] );
      ( "spans",
        [ Alcotest.test_case "tree shape" `Quick test_span_shape ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest replay_test;
          QCheck_alcotest.to_alcotest span_test;
          QCheck_alcotest.to_alcotest parity_test;
        ] );
    ]
