(* Stitched delivery on patched engines and per-width arenas.

   - Installing and removing stitch entries patches compiled nodes in
     place (Net.restitch).  After every step the patched engine must
     equal a fresh compile: same Rows digest, a clean audit, and the
     same decisions as the reference Node_engine, stitch matches
     included.
   - One Stitched.t reused across partitions of mixed widths, with
     loop prevention on and off, must deliver on the compiled engine
     exactly what a fresh Stitched.t delivers on the reference engine.
   - A node that fires more stitch hits than the arena's hit buffers
     first hold must still report every hit, in Run.deliver's order. *)

module Lit = Lipsin_bloom.Lit
module Zfilter = Lipsin_bloom.Zfilter
module Partition = Lipsin_bloom.Partition
module Graph = Lipsin_topology.Graph
module Assignment = Lipsin_core.Assignment
module Adaptive = Lipsin_core.Adaptive
module Stagecut = Lipsin_core.Stagecut
module Node_engine = Lipsin_forwarding.Node_engine
module Fastpath = Lipsin_forwarding.Fastpath
module Net = Lipsin_sim.Net
module Run = Lipsin_sim.Run
module Arena = Lipsin_sim.Arena
module Stitched = Lipsin_sim.Stitched
module Audit = Lipsin_analysis.Audit
module Scenario = Lipsin_workload.Scenario
module Rng = Lipsin_util.Rng

let fixture seed ~hosts =
  let g, host_nodes =
    Scenario.two_tier ~seed ~core:30 ~core_edges:60 ~max_degree:8 ~hosts ()
  in
  (g, Array.of_list host_nodes, Adaptive.make ~d:4 ~k:5 (Rng.of_int (seed + 17)) g)

(* Partition [id]: [audience] random hosts planned from [root]. *)
let plan adaptive hosts ~id ~root ~audience =
  let rng = Rng.of_int (1000 + id) in
  let subscribers =
    Array.to_list (Array.map (fun i -> hosts.(i)) (Rng.sample rng audience (Array.length hosts)))
  in
  match Stagecut.plan adaptive ~id ~rng ~root ~subscribers with
  | Ok (p, _) -> p
  | Error e -> Alcotest.failf "Stagecut.plan: %s" e

(* (width, node) of every handoff of [part], with repeats. *)
let handoff_nodes part =
  Array.fold_left
    (fun acc (s : Partition.stage) ->
      List.fold_left
        (fun acc (h : Partition.handoff) -> (s.Partition.m, h.Partition.at) :: acc)
        acc s.Partition.handoffs)
    [] part.Partition.stages

let compare_handoff (m1, n1) (m2, n2) =
  match Int.compare m1 m2 with 0 -> Int.compare n1 n2 | c -> c

let pp_hits l =
  String.concat ";" (List.map (fun (p, n) -> Printf.sprintf "%d>%d" p n) l)

let same_verdict (a : Node_engine.verdict) (b : Node_engine.verdict) =
  let idx v = List.map (fun l -> l.Graph.index) v.Node_engine.forward_on in
  idx a = idx b
  && a.Node_engine.deliver_local = b.Node_engine.deliver_local
  && a.Node_engine.services_matched = b.Node_engine.services_matched
  && a.Node_engine.stitches_matched = b.Node_engine.stitches_matched
  && a.Node_engine.loop_suspected = b.Node_engine.loop_suspected
  && a.Node_engine.drop = b.Node_engine.drop
  && a.Node_engine.false_positive_tests = b.Node_engine.false_positive_tests

(* ------------------------------------------------------------------ *)
(* Net.restitch equals a fresh compile                                 *)
(* ------------------------------------------------------------------ *)

let test_restitch_equals_compile () =
  let _g, hosts, adaptive = fixture 4 ~hosts:150 in
  let a = plan adaptive hosts ~id:1 ~root:0 ~audience:110 in
  let b = plan adaptive hosts ~id:2 ~root:0 ~audience:110 in
  let nodes = List.sort_uniq compare_handoff (handoff_nodes a @ handoff_nodes b) in
  let shared = List.filter (fun n -> List.mem n (handoff_nodes b)) (handoff_nodes a) in
  Alcotest.(check bool) "the partitions share stitch nodes" true (shared <> []);
  let st = Stitched.make ~loop_prevention:false adaptive in
  (* Compile every node before any stitch exists: each handoff node
     starts with no stitch entry and a one-slot stitch buffer. *)
  List.iter
    (fun m ->
      let net = Stitched.net st ~m in
      for v = 0 to Graph.node_count (Net.graph net) - 1 do
        ignore (Net.fastpath net v)
      done)
    (Adaptive.widths adaptive);
  let compiled = List.map (fun (m, v) -> ((m, v), Net.fastpath (Stitched.net st ~m) v)) nodes in
  let generations () = List.map (fun m -> Net.generation (Stitched.net st ~m)) (Adaptive.widths adaptive) in
  let g0 = generations () in
  (* Each stage's own filter (it covers its handoffs' egress LITs) plus
     one filter of each width carrying every stage filter of the width. *)
  let filters =
    let stages = Array.to_list a.Partition.stages @ Array.to_list b.Partition.stages in
    let own = List.map (fun (s : Partition.stage) -> (s.Partition.m, s.Partition.filter)) stages in
    let union m =
      let z = Zfilter.create ~m in
      List.iter
        (fun (s : Partition.stage) ->
          if s.Partition.m = m then Zfilter.add z (Zfilter.to_bitvec s.Partition.filter))
        stages;
      (m, z)
    in
    own @ List.map union (Adaptive.widths adaptive)
  in
  let most = ref 0 in
  let check step =
    List.iter
      (fun (((m, v) as key), fp) ->
        let net = Stitched.net st ~m in
        let where = Printf.sprintf "%s: node %d at m = %d" step v m in
        Alcotest.(check bool) (where ^ ": patched, not recompiled") true
          (Net.fastpath net v == List.assoc key compiled);
        let engine = Net.engine net v in
        most := max !most (List.length (Node_engine.stitches engine));
        Alcotest.(check int) (where ^ ": digest of a fresh compile")
          (Fastpath.digest (Fastpath.compile engine)) (Fastpath.digest fp);
        Alcotest.(check (list string)) (where ^ ": audit clean") []
          (List.map Audit.to_string (Audit.audit fp));
        Alcotest.(check bool) (where ^ ": audit_ok") true (Audit.audit_ok fp);
        List.iter
          (fun (fm, z) ->
            if fm = m then
              for table = 0 to Fastpath.table_count fp - 1 do
                let r = Node_engine.forward engine ~table ~zfilter:z ~in_link:None in
                let f = Fastpath.verdict fp (Fastpath.decide fp ~table ~zfilter:z ~in_link_index:(-1)) in
                if not (same_verdict r f) then
                  Alcotest.failf "%s, table %d: reference stitches [%s], fast [%s]" where table
                    (pp_hits r.Node_engine.stitches_matched)
                    (pp_hits f.Node_engine.stitches_matched)
              done)
          filters)
      compiled
  in
  check "compiled";
  Stitched.install st a;
  check "install a";
  Stitched.install st b;
  check "install b";
  Alcotest.(check bool) "a node compiled with no stitch now holds several" true (!most > 1);
  Stitched.uninstall st a;
  check "uninstall a";
  Stitched.install st a;
  check "re-install a";
  Stitched.uninstall st a;
  Stitched.uninstall st b;
  check "uninstall both";
  Alcotest.(check (list int)) "no invalidation" g0 (generations ())

(* ------------------------------------------------------------------ *)
(* One Stitched.t, many partitions: Fast on reused arenas = Reference  *)
(* ------------------------------------------------------------------ *)

let test_arena_reuse_across_widths () =
  let _g, hosts, adaptive = fixture 6 ~hosts:150 in
  let parts =
    List.init 5 (fun i -> plan adaptive hosts ~id:(10 + i) ~root:(3 * i) ~audience:(60 + (15 * i)))
  in
  let widths =
    List.sort_uniq Int.compare
      (List.concat_map
         (fun p -> Array.to_list (Array.map (fun (s : Partition.stage) -> s.Partition.m) p.Partition.stages))
         parts)
  in
  Alcotest.(check bool) "the partitions use several widths" true (List.length widths > 1);
  List.iter
    (fun loop_prevention ->
      let reused = Stitched.make ~loop_prevention adaptive in
      List.iter
        (fun part ->
          let name =
            Printf.sprintf "partition %d, loop prevention %b" part.Partition.id loop_prevention
          in
          Stitched.install reused part;
          let fast = Stitched.deliver ~engine:`Fast reused part in
          Stitched.uninstall reused part;
          let fresh = Stitched.make ~loop_prevention adaptive in
          Stitched.install fresh part;
          let reference = Stitched.deliver ~engine:`Reference fresh part in
          (match Stitched.exactly_once fast part with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: exactly-once: %s" name e);
          Alcotest.(check (array int)) (name ^ ": delivered")
            reference.Stitched.delivered fast.Stitched.delivered;
          Alcotest.(check (list int)) (name ^ ": stage order")
            reference.Stitched.stage_order fast.Stitched.stage_order;
          let same what f = Alcotest.(check int) (name ^ ": " ^ what) (f reference) (f fast) in
          same "duplicate handoffs" (fun o -> o.Stitched.duplicate_handoffs);
          same "traversals" (fun o -> o.Stitched.link_traversals);
          same "false positives" (fun o -> o.Stitched.false_positives);
          same "tests" (fun o -> o.Stitched.membership_tests);
          same "foreign hits" (fun o -> o.Stitched.foreign_hits);
          same "loop drops" (fun o -> o.Stitched.loop_drops))
        parts)
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* More hits at one node than the hit buffers first hold               *)
(* ------------------------------------------------------------------ *)

let test_hit_buffers_grow () =
  let g = Graph.create ~nodes:3 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  let asg = Assignment.make Lit.default (Rng.of_int 11) g in
  let params = Assignment.params asg in
  let net = Net.make ~loop_prevention:false asg in
  let arena = Arena.create net in
  let initial = Array.length arena.Arena.hit_node in
  let n = (2 * initial) + 3 in
  let z = Zfilter.create ~m:params.Lit.m in
  let tree =
    List.map
      (fun (src, dst) -> Option.get (Graph.find_link g ~src ~dst))
      [ (0, 1); (1, 2) ]
  in
  List.iter (fun l -> Zfilter.add z (Assignment.tag asg l ~table:0)) tree;
  (* [n] entries at node 1, every one covered by the filter. *)
  for i = 0 to n - 1 do
    let lit = Lit.generate params ~nonce:(Int64.of_int (0x5000 + i)) in
    Zfilter.add z (Lit.tag lit 0);
    Node_engine.install_stitch (Net.engine net 1) lit ~partition:7 ~next:(i + 1);
    Net.restitch net 1
  done;
  let o = Run.deliver ~engine:`Reference net ~src:0 ~table:0 ~zfilter:z ~tree in
  Alcotest.(check int) "the reference sees every entry" n (List.length o.Run.stitch_hits);
  Run.deliver_into arena ~src:0 ~table:0 ~zfilter:z ~tree;
  Alcotest.(check int) "stitch matches" n arena.Arena.stitch_matches;
  let hits =
    List.init arena.Arena.stitch_matches (fun i ->
        (arena.Arena.hit_node.(i), arena.Arena.hit_partition.(i), arena.Arena.hit_next.(i)))
  in
  Alcotest.(check (list (triple int int int))) "hits in Run.deliver's order" o.Run.stitch_hits hits;
  Alcotest.(check bool) "the buffers grew" true (Array.length arena.Arena.hit_node >= n);
  (* A reused arena starts each publication with no hits. *)
  Run.deliver_into arena ~src:2 ~table:0 ~zfilter:z ~tree;
  Alcotest.(check int) "no hits from node 2" 0 arena.Arena.stitch_matches

let () =
  Alcotest.run "stitched"
    [
      ( "restitch",
        [ Alcotest.test_case "restitch equals a fresh compile" `Quick test_restitch_equals_compile ] );
      ( "arena",
        [
          Alcotest.test_case "reuse across widths and loop prevention" `Quick
            test_arena_reuse_across_widths;
          Alcotest.test_case "hit buffers grow" `Quick test_hit_buffers_grow;
        ] );
    ]
