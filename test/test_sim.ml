(* Tests for Lipsin_sim: Net, Run, Latency. *)

module Lit = Lipsin_bloom.Lit
module Zfilter = Lipsin_bloom.Zfilter
module Graph = Lipsin_topology.Graph
module Spt = Lipsin_topology.Spt
module Generator = Lipsin_topology.Generator
module Assignment = Lipsin_core.Assignment
module Candidate = Lipsin_core.Candidate
module Select = Lipsin_core.Select
module Net = Lipsin_sim.Net
module Run = Lipsin_sim.Run
module Arena = Lipsin_sim.Arena
module Node_engine = Lipsin_forwarding.Node_engine
module Latency = Lipsin_sim.Latency
module Stats = Lipsin_util.Stats
module Rng = Lipsin_util.Rng

let line_graph n =
  let g = Graph.create ~nodes:n in
  for v = 0 to n - 2 do
    Graph.add_edge g v (v + 1)
  done;
  g

let setup ?(seed = 1) g =
  let asg = Assignment.make Lit.default (Rng.of_int seed) g in
  (asg, Net.make asg)

let deliver_tree net asg ~src ~subscribers =
  let tree = Spt.delivery_tree (Net.graph net) ~root:src ~subscribers in
  let c = Candidate.build_one asg ~tree ~table:0 in
  (tree, Run.deliver net ~src ~table:0 ~zfilter:c.Candidate.zfilter ~tree)

let test_line_delivery_exact () =
  let g = line_graph 6 in
  let asg, net = setup g in
  let tree, o = deliver_tree net asg ~src:0 ~subscribers:[ 5 ] in
  Alcotest.(check bool) "subscriber reached" true o.Run.reached.(5);
  Alcotest.(check int) "5 links traversed" 5 o.Run.link_traversals;
  Alcotest.(check (float 1e-9)) "efficiency 100%" 1.0
    (Run.forwarding_efficiency o ~tree)

let test_multicast_delivery_reaches_all () =
  let g =
    Generator.pref_attach ~rng:(Rng.of_int 5) ~nodes:50 ~edges:80 ~max_degree:10 ()
  in
  let asg, net = setup g in
  let subscribers = [ 10; 20; 30; 40; 49 ] in
  let _, o = deliver_tree net asg ~src:0 ~subscribers in
  Alcotest.(check bool) "all reached" true (Run.all_reached o subscribers)

let test_empty_zfilter_goes_nowhere () =
  let g = line_graph 4 in
  let _, net = setup g in
  let z = Zfilter.create ~m:248 in
  let o = Run.deliver net ~src:0 ~table:0 ~zfilter:z ~tree:[] in
  Alcotest.(check int) "no traversals" 0 o.Run.link_traversals;
  Alcotest.(check (float 1e-9)) "vacuous efficiency 1.0" 1.0
    (Run.forwarding_efficiency o ~tree:[])

let test_false_positive_accounting () =
  let g = line_graph 4 in
  let asg, net = setup g in
  (* Deliver with tree declared empty: every forwarded link counts as a
     false positive. *)
  let real_tree = Spt.delivery_tree g ~root:0 ~subscribers:[ 3 ] in
  let c = Candidate.build_one asg ~tree:real_tree ~table:0 in
  let o = Run.deliver net ~src:0 ~table:0 ~zfilter:c.Candidate.zfilter ~tree:[] in
  Alcotest.(check bool) "all matches classified false" true (o.Run.false_positives >= 3);
  Alcotest.(check bool) "tests counted" true (o.Run.membership_tests > 0);
  Alcotest.(check bool) "fpr positive" true (Run.false_positive_rate o > 0.0)

let test_fpr_zero_on_clean_delivery () =
  let g = line_graph 8 in
  let asg, net = setup g in
  let _, o = deliver_tree net asg ~src:0 ~subscribers:[ 7 ] in
  (* A line graph has so few candidate links that false positives are
     essentially impossible with 40 bits set of 248. *)
  Alcotest.(check int) "no false positives" 0 o.Run.false_positives

let test_ttl_mode_terminates_and_bounds () =
  let g = line_graph 10 in
  let asg, net = setup g in
  let tree = Spt.delivery_tree g ~root:0 ~subscribers:[ 9 ] in
  let c = Candidate.build_one asg ~tree ~table:0 in
  let o =
    Run.deliver ~mode:(Run.Ttl 4) net ~src:0 ~table:0
      ~zfilter:c.Candidate.zfilter ~tree
  in
  Alcotest.(check bool) "ttl stops early" true (not o.Run.reached.(9));
  Alcotest.(check int) "exactly ttl traversals" 4 o.Run.link_traversals

let test_fill_drop_counted () =
  let g = line_graph 3 in
  let asg, net = setup g in
  ignore asg;
  let z = Zfilter.create ~m:248 in
  Lipsin_bitvec.Bitvec.set_all (Zfilter.to_bitvec z);
  let o = Run.deliver net ~src:0 ~table:0 ~zfilter:z ~tree:[] in
  Alcotest.(check int) "fill drop recorded" 1 o.Run.fill_drops;
  Alcotest.(check int) "nothing traversed" 0 o.Run.link_traversals

let test_net_failed_link_blocks_delivery () =
  let g = line_graph 5 in
  let asg, net = setup g in
  (match Graph.find_link g ~src:2 ~dst:3 with
  | Some l -> Net.fail_link net l
  | None -> Alcotest.fail "link 2->3 exists");
  let _, o = deliver_tree net asg ~src:0 ~subscribers:[ 4 ] in
  Alcotest.(check bool) "link failure cuts delivery" false o.Run.reached.(4);
  (match Graph.find_link g ~src:2 ~dst:3 with
  | Some l -> Net.restore_link net l
  | None -> ());
  let _, o2 = deliver_tree net asg ~src:0 ~subscribers:[ 4 ] in
  Alcotest.(check bool) "restored" true o2.Run.reached.(4)

let test_efficiency_formula () =
  let g = line_graph 4 in
  let asg, net = setup g in
  let tree, o = deliver_tree net asg ~src:0 ~subscribers:[ 3 ] in
  Alcotest.(check int) "tree is 3 links" 3 (List.length tree);
  Alcotest.(check (float 1e-9)) "eq 3" 1.0 (Run.forwarding_efficiency o ~tree)

(* Properties over random topologies: deliveries always reach all
   subscribers, and expand-once efficiency is in (0, 1]. *)
let prop_delivery_complete =
  QCheck.Test.make ~name:"stateless delivery reaches every subscriber" ~count:80
    QCheck.(pair small_nat (int_range 2 10))
    (fun (seed, subs) ->
      let g =
        Generator.pref_attach ~rng:(Rng.of_int (seed + 11)) ~nodes:45 ~edges:75
          ~max_degree:12 ()
      in
      let asg = Assignment.make Lit.paper_variable (Rng.of_int seed) g in
      let net = Net.make asg in
      let rng = Rng.of_int (seed + 31) in
      let picks = Rng.sample rng (subs + 1) 45 in
      let src = picks.(0) in
      let subscribers = Array.to_list (Array.sub picks 1 subs) in
      let tree = Spt.delivery_tree g ~root:src ~subscribers in
      let candidates = Candidate.build asg ~tree in
      match Select.select_fpa ~fill_limit:1.0 candidates with
      | None -> false
      | Some c ->
        let o =
          Run.deliver net ~src ~table:c.Candidate.table
            ~zfilter:c.Candidate.zfilter ~tree
        in
        Run.all_reached o subscribers)

let prop_efficiency_bounded =
  QCheck.Test.make ~name:"efficiency in (0,1] without virtual links" ~count:80
    QCheck.(pair small_nat (int_range 2 8))
    (fun (seed, subs) ->
      let g =
        Generator.waxman ~rng:(Rng.of_int (seed + 41)) ~nodes:35 ~edges:60
          ~max_degree:10 ()
      in
      let asg = Assignment.make Lit.default (Rng.of_int seed) g in
      let net = Net.make asg in
      let rng = Rng.of_int (seed + 51) in
      let picks = Rng.sample rng (subs + 1) 35 in
      let src = picks.(0) in
      let subscribers = Array.to_list (Array.sub picks 1 subs) in
      let tree = Spt.delivery_tree g ~root:src ~subscribers in
      let c = Candidate.build_one asg ~tree ~table:0 in
      let o = Run.deliver net ~src ~table:0 ~zfilter:c.Candidate.zfilter ~tree in
      let eff = Run.forwarding_efficiency o ~tree in
      eff > 0.0 && eff <= 1.0)

(* An independent model of the delivery loop: a level-by-level BFS
   over lists and fresh arrays, deciding with the reference engine.
   False positives are charged per match, before dedup or TTL refusal;
   TTL mode refuses a copy whose TTL (initial TTL minus depth) is 0 and
   stops at the event cap; the loss model draws once per traversal, in
   traversal order. *)
let model ~mode ~loss net ~src ~table ~zfilter ~tree =
  Net.tick net;
  let g = Net.graph net in
  let on_tree = Array.make (Graph.link_count g) false in
  List.iter (fun l -> on_tree.(l.Graph.index) <- true) tree;
  let seen = Array.make (Graph.link_count g) false in
  let reached = Array.make (Graph.node_count g) false in
  reached.(src) <- true;
  let traversed = ref [] and n_traversed = ref 0 and fps = ref 0 in
  let tests = ref 0 and fill = ref 0 and loop = ref 0 and local = ref 0 in
  let lost = ref 0 and hits = ref [] in
  let admit depth l =
    match mode with
    | Run.Expand_once ->
      let fresh = not seen.(l.Graph.index) in
      seen.(l.Graph.index) <- true;
      fresh
    | Run.Ttl ttl -> ttl - depth > 0 && !n_traversed < Arena.ttl_event_cap
  in
  let hop next (node, in_link, depth) =
    let v = Node_engine.forward (Net.engine net node) ~table ~zfilter ~in_link in
    tests := !tests + v.Node_engine.false_positive_tests;
    if v.Node_engine.deliver_local then incr local;
    (match v.Node_engine.drop with
    | Some Node_engine.Fill_limit_exceeded -> incr fill
    | Some Node_engine.Loop_detected -> incr loop
    | Some Node_engine.Bad_table | None -> ());
    List.iter (fun (pid, nx) -> hits := (node, pid, nx) :: !hits)
      v.Node_engine.stitches_matched;
    List.fold_left
      (fun next l ->
        if not on_tree.(l.Graph.index) then incr fps;
        if not (admit depth l) then next
        else begin
          traversed := l.Graph.index :: !traversed;
          incr n_traversed;
          match loss with
          | Some { Run.probability; rng } when Rng.float rng 1.0 < probability ->
            incr lost;
            next
          | Some _ | None ->
            reached.(l.Graph.dst) <- true;
            (l.Graph.dst, Some l, depth + 1) :: next
        end)
      next v.Node_engine.forward_on
  in
  let rec levels = function
    | [] -> ()
    | level -> levels (List.rev (List.fold_left hop [] level))
  in
  levels [ (src, None, 0) ];
  ( reached,
    List.rev !traversed,
    [ !n_traversed; !fps; !tests; !fill; !loop; !local; !lost ],
    List.rev !hits )

let observed (o : Run.outcome) =
  ( o.Run.reached,
    List.map (fun l -> l.Graph.index) o.Run.traversed,
    [ o.Run.link_traversals; o.Run.false_positives; o.Run.membership_tests;
      o.Run.fill_drops; o.Run.loop_drops; o.Run.local_deliveries; o.Run.lost ],
    o.Run.stitch_hits )

(* Random deployments with a filter over a random link set (so nodes
   are revisited and deduplicated), an intended tree that is half of
   it (so false positives are common), a few stitch entries, and every
   delivery mode. *)
let prop_loop_matches_model =
  QCheck.Test.make ~name:"Run.deliver == list BFS model (modes, loss, engines)"
    ~count:150
    QCheck.(quad small_nat (int_range 2 24) (int_range 0 6) (int_range 0 2))
    (fun (seed, n_links, ttl, lossy) ->
      let rng = Rng.of_int (seed + 101) in
      let g =
        Generator.pref_attach ~rng ~nodes:30 ~edges:55 ~max_degree:8 ()
      in
      let asg = Assignment.make Lit.default (Rng.split rng) g in
      let params = Assignment.params asg in
      let picks = Rng.sample rng n_links (Graph.link_count g) in
      let links = Array.to_list (Array.map (Graph.link g) picks) in
      let table = Rng.int rng params.Lit.d in
      let zfilter = Zfilter.create ~m:params.Lit.m in
      List.iter (fun l -> Zfilter.add zfilter (Assignment.tag asg l ~table)) links;
      let tree = List.filteri (fun i _ -> i mod 2 = 0) links in
      let stitches =
        List.init 3 (fun i ->
            let lit = Lit.generate params ~nonce:(Int64.of_int (seed * 7 + i)) in
            if i < 2 then Zfilter.add zfilter (Lit.tag lit table);
            (Rng.int rng 30, lit, i))
      in
      let loop_prevention = seed mod 2 = 0 in
      let fresh_net () =
        let net = Net.make ~loop_prevention asg in
        List.iter
          (fun (at, lit, i) ->
            Node_engine.install_stitch (Net.engine net at) lit ~partition:9
              ~next:i;
            Net.restitch net at)
          stitches;
        net
      in
      let mode = if ttl = 0 then Run.Expand_once else Run.Ttl ttl in
      let loss () =
        if lossy = 0 then None
        else
          Some
            { Run.probability = 0.2 *. float_of_int lossy;
              rng = Rng.of_int (seed + 7) }
      in
      let src = Rng.int rng 30 in
      let want =
        model ~mode ~loss:(loss ()) (fresh_net ()) ~src ~table ~zfilter ~tree
      in
      List.for_all
        (fun engine ->
          let o =
            Run.deliver ~mode ?loss:(loss ()) ~engine (fresh_net ()) ~src
              ~table ~zfilter ~tree
          in
          o.Run.packet_id = -1 && observed o = want)
        [ `Reference; `Fast ])

let test_latency_model_monotone () =
  let rng = Rng.create 3L in
  let s0 = Latency.sample_one_way rng Latency.default ~hops:0 ~samples:2000 in
  let s3 = Latency.sample_one_way rng Latency.default ~hops:3 ~samples:2000 in
  Alcotest.(check bool) "3 hops slower than 0" true (s3.Stats.mean > s0.Stats.mean);
  Alcotest.(check bool) "roughly 9us apart" true
    (abs_float (s3.Stats.mean -. s0.Stats.mean -. 9.0) < 1.0)

let test_latency_round_trip_doubles () =
  let rng = Rng.create 5L in
  let ow = Latency.sample_one_way rng Latency.default ~hops:2 ~samples:3000 in
  let rt = Latency.sample_round_trip rng Latency.default ~hops:2 ~samples:3000 in
  Alcotest.(check bool) "rtt ~ 2x one way" true
    (abs_float (rt.Stats.mean -. (2.0 *. ow.Stats.mean)) < 1.0)

let test_latency_rejects () =
  Alcotest.check_raises "negative hops"
    (Invalid_argument "Latency.one_way: negative hop count") (fun () ->
      ignore (Latency.one_way (Rng.create 1L) Latency.default ~hops:(-1)))

let () =
  Alcotest.run "sim"
    [
      ( "delivery",
        [
          Alcotest.test_case "line exact" `Quick test_line_delivery_exact;
          Alcotest.test_case "multicast reaches all" `Quick
            test_multicast_delivery_reaches_all;
          Alcotest.test_case "empty filter" `Quick test_empty_zfilter_goes_nowhere;
          Alcotest.test_case "false positive accounting" `Quick
            test_false_positive_accounting;
          Alcotest.test_case "clean delivery fpr 0" `Quick test_fpr_zero_on_clean_delivery;
          Alcotest.test_case "ttl mode" `Quick test_ttl_mode_terminates_and_bounds;
          Alcotest.test_case "fill drop counted" `Quick test_fill_drop_counted;
          Alcotest.test_case "failed link" `Quick test_net_failed_link_blocks_delivery;
          Alcotest.test_case "efficiency formula" `Quick test_efficiency_formula;
          QCheck_alcotest.to_alcotest prop_delivery_complete;
          QCheck_alcotest.to_alcotest prop_efficiency_bounded;
          QCheck_alcotest.to_alcotest prop_loop_matches_model;
        ] );
      ( "latency",
        [
          Alcotest.test_case "monotone in hops" `Quick test_latency_model_monotone;
          Alcotest.test_case "rtt doubles" `Quick test_latency_round_trip_doubles;
          Alcotest.test_case "rejects negative" `Quick test_latency_rejects;
        ] );
    ]
