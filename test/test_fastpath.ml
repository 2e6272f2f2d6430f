(* Differential tests: the compiled Fastpath engine must agree with the
   reference Node_engine decision-for-decision — forward set, local
   delivery, service matches, loop suspicion, drop reason and
   membership-test count — on random topologies and on star hubs of 64
   and 256 ports, filters (including over-full and all-ones), bad table
   indexes and failed-link patterns. *)

module Bitvec = Lipsin_bitvec.Bitvec
module Lit = Lipsin_bloom.Lit
module Zfilter = Lipsin_bloom.Zfilter
module Graph = Lipsin_topology.Graph
module Generator = Lipsin_topology.Generator
module Spt = Lipsin_topology.Spt
module As_presets = Lipsin_topology.As_presets
module Assignment = Lipsin_core.Assignment
module Candidate = Lipsin_core.Candidate
module Node_engine = Lipsin_forwarding.Node_engine
module Fastpath = Lipsin_forwarding.Fastpath
module Net = Lipsin_sim.Net
module Run = Lipsin_sim.Run
module Rng = Lipsin_util.Rng
module Audit = Lipsin_analysis.Audit
module Rows = Lipsin_forwarding.Rows

let link_indexes v = List.map (fun l -> l.Graph.index) v

let same_verdict (a : Node_engine.verdict) (b : Node_engine.verdict) =
  link_indexes a.Node_engine.forward_on = link_indexes b.Node_engine.forward_on
  && a.Node_engine.deliver_local = b.Node_engine.deliver_local
  && a.Node_engine.services_matched = b.Node_engine.services_matched
  && a.Node_engine.loop_suspected = b.Node_engine.loop_suspected
  && a.Node_engine.drop = b.Node_engine.drop
  && a.Node_engine.false_positive_tests = b.Node_engine.false_positive_tests

let pp_verdict (v : Node_engine.verdict) =
  Printf.sprintf "{fwd=[%s]; local=%b; svc=[%s]; susp=%b; drop=%s; tests=%d}"
    (String.concat ";" (List.map string_of_int (link_indexes v.Node_engine.forward_on)))
    v.Node_engine.deliver_local
    (String.concat ";" v.Node_engine.services_matched)
    v.Node_engine.loop_suspected
    (match v.Node_engine.drop with
    | None -> "-"
    | Some Node_engine.Fill_limit_exceeded -> "fill"
    | Some Node_engine.Loop_detected -> "loop"
    | Some Node_engine.Bad_table -> "table")
    v.Node_engine.false_positive_tests

(* One random scenario: a topology, an engine with random failures,
   virtuals, blocks and services, its compilation, and a pool of
   zFilters biased towards the node's tables (so matches, loops and
   blocks actually fire).  With [~hub:ports] the topology is a star and
   the engine sits on its hub, a node far wider than the random
   graphs' degree cap of 8. *)
type scenario = {
  sc_graph : Graph.t;
  sc_node : Graph.node;
  sc_d : int;
  sc_engine : Node_engine.t;
  sc_fast : Fastpath.t;
  sc_pool : (Zfilter.t * int) array;  (* filter, suggested table *)
}

let star ports =
  let g = Graph.create ~nodes:(ports + 1) in
  for leaf = 1 to ports do
    Graph.add_edge g 0 leaf
  done;
  g

let build_scenario ?hub seed ~nodes ~steps:_ =
  let rng = Rng.of_int seed in
  let graph =
    match hub with
    | Some ports -> star ports
    | None ->
      let extra = Rng.int rng (max 1 (nodes / 2)) in
      Generator.pref_attach ~rng ~nodes ~edges:(nodes - 1 + extra)
        ~max_degree:8 ()
  in
  (* 125 puts the kill bit at the top of its last group, 126 gives the
     kill bit a group of its own, and 504 makes 9-group rows. *)
  let m = [| 61; 64; 120; 125; 126; 248; 504 |].(Rng.int rng 7) in
  let d = 1 + Rng.int rng 4 in
  let k = 3 + Rng.int rng 3 in
  let params = Lit.constant_k ~m ~d ~k in
  let asg = Assignment.make params (Rng.split rng) graph in
  let node =
    match hub with Some _ -> 0 | None -> Rng.int rng (Graph.node_count graph)
  in
  let fill_limit = [| 0.5; 0.7; 1.0 |].(Rng.int rng 3) in
  let loop_cache_capacity = [| 1; 2; 4; 64 |].(Rng.int rng 4) in
  let loop_cache_ttl = Rng.int rng 3 in
  let loop_prevention = Rng.int rng 10 < 9 in
  let engine =
    Node_engine.create ~fill_limit ~loop_cache_capacity ~loop_cache_ttl
      ~loop_prevention asg node
  in
  let out = Array.of_list (Graph.out_links graph node) in
  let extra_lits = ref [] in
  (* Failed-link patterns. *)
  Array.iter
    (fun l -> if Rng.float rng 1.0 < 0.25 then Node_engine.fail_link engine l)
    out;
  (* Virtual links over random subsets of the node's ports. *)
  for _ = 1 to Rng.int rng 3 do
    let vlit = Lit.fresh params (Rng.split rng) in
    let out_links =
      Array.to_list (Array.of_seq (Seq.filter (fun _ -> Rng.bool rng)
        (Array.to_seq out)))
    in
    Node_engine.install_virtual engine vlit ~out_links;
    extra_lits := vlit :: !extra_lits
  done;
  (* Negative Link IDs: full identities and single-table raw patterns. *)
  if Array.length out > 0 then
    for _ = 1 to Rng.int rng 3 do
      let victim = out.(Rng.int rng (Array.length out)) in
      if Rng.bool rng then begin
        let neg = Lit.fresh params (Rng.split rng) in
        Node_engine.install_block engine victim neg;
        extra_lits := neg :: !extra_lits
      end
      else begin
        let table = Rng.int rng d in
        let donor = Graph.link graph (Rng.int rng (Graph.link_count graph)) in
        Node_engine.install_block_pattern engine victim ~table
          (Assignment.tag asg donor ~table)
      end
    done;
  (* Service endpoints. *)
  for i = 1 to Rng.int rng 3 do
    let slit = Lit.fresh params (Rng.split rng) in
    Node_engine.install_service engine slit ~name:(Printf.sprintf "svc%d" i);
    extra_lits := slit :: !extra_lits
  done;
  let fast = Fastpath.compile engine in
  (* zFilter pool: tags of random links in a fixed table, spiced with
     the node's incoming LITs (loop bait), the local/virtual/service
     identities, noise bits, and the occasional all-ones filter. *)
  let pool =
    Array.init 3 (fun _ ->
        let table = Rng.int rng d in
        let z = Zfilter.create ~m in
        if Rng.int rng 10 = 0 then Bitvec.set_all (Zfilter.to_bitvec z)
        else begin
          (* Hubs name more links so forward sets span many ports. *)
          let max_links = match hub with Some _ -> 24 | None -> 5 in
          for _ = 1 to 1 + Rng.int rng max_links do
            let l = Graph.link graph (Rng.int rng (Graph.link_count graph)) in
            Zfilter.add z (Assignment.tag asg l ~table)
          done;
          if Rng.int rng 3 = 0 && Array.length out > 0 then begin
            (* an incoming LIT of this node: makes loops suspicious *)
            let l = out.(Rng.int rng (Array.length out)) in
            Zfilter.add z
              (Assignment.tag asg (Graph.reverse_link graph l) ~table)
          end;
          if Rng.int rng 4 = 0 then
            Zfilter.add z (Lit.tag (Node_engine.local_lit engine) table);
          List.iter
            (fun lit ->
              if Rng.int rng 4 = 0 then Zfilter.add z (Lit.tag lit table))
            !extra_lits;
          for _ = 1 to Rng.int rng 4 do
            Bitvec.set (Zfilter.to_bitvec z) (Rng.int rng m)
          done
        end;
        (z, table))
  in
  { sc_graph = graph; sc_node = node; sc_d = d; sc_engine = engine;
    sc_fast = fast; sc_pool = pool }

(* Drive both engines through the same decision sequence and compare
   verdicts step by step. *)
let run_differential ?hub seed ~nodes ~steps =
  let sc = build_scenario ?hub seed ~nodes ~steps in
  let rng = Rng.of_int (seed lxor 0x5CA1AB1E) in
  let out = Array.of_list (Graph.out_links sc.sc_graph sc.sc_node) in
  let failure = ref None in
  for step = 1 to steps do
    if !failure = None then begin
      let z, suggested = sc.sc_pool.(Rng.int rng (Array.length sc.sc_pool)) in
      let table =
        match Rng.int rng 10 with
        | 0 -> -1
        | 1 -> sc.sc_d
        | _ -> suggested
      in
      let in_link =
        if Rng.int rng 10 < 3 || Array.length out = 0 then None
        else if Rng.int rng 10 < 7 then
          (* an actual incoming link of this node *)
          Some (Graph.reverse_link sc.sc_graph (out.(Rng.int rng (Array.length out))))
        else
          Some (Graph.link sc.sc_graph (Rng.int rng (Graph.link_count sc.sc_graph)))
      in
      if Rng.int rng 5 = 0 then begin
        Node_engine.tick sc.sc_engine;
        Fastpath.tick sc.sc_fast
      end;
      let reference =
        Node_engine.forward sc.sc_engine ~table ~zfilter:z ~in_link
      in
      let in_link_index =
        match in_link with None -> -1 | Some l -> l.Graph.index
      in
      let fast =
        Fastpath.verdict sc.sc_fast
          (Fastpath.decide sc.sc_fast ~table ~zfilter:z ~in_link_index)
      in
      if not (same_verdict reference fast) then
        failure :=
          Some
            (Printf.sprintf "step %d table %d: ref %s / fast %s" step table
               (pp_verdict reference) (pp_verdict fast))
    end
  done;
  !failure

let case_arb =
  QCheck.make
    ~print:(fun (seed, nodes, steps) ->
      Printf.sprintf "seed=%d nodes=%d steps=%d" seed nodes steps)
    QCheck.Gen.(triple (int_bound 1_000_000) (int_range 4 20) (int_range 4 12))

let prop_differential =
  QCheck.Test.make ~name:"fastpath agrees with reference engine" ~count:1000
    case_arb
    (fun (seed, nodes, steps) ->
      match run_differential seed ~nodes ~steps with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* The same differential on wide nodes: 20 seeded scenarios per hub. *)
let test_star_hubs () =
  List.iter
    (fun ports ->
      for seed = 1 to 20 do
        match
          run_differential ~hub:ports seed ~nodes:(ports + 1) ~steps:40
        with
        | None -> ()
        | Some msg -> Alcotest.failf "%d ports, seed %d: %s" ports seed msg
      done)
    [ 64; 256 ]

let prop_batch_matches_reference =
  QCheck.Test.make ~name:"decide_batch agrees with sequential reference"
    ~count:200 case_arb
    (fun (seed, nodes, steps) ->
      let sc = build_scenario seed ~nodes ~steps in
      let rng = Rng.of_int (seed + 77) in
      let z0, table = sc.sc_pool.(0) in
      let out = Array.of_list (Graph.out_links sc.sc_graph sc.sc_node) in
      let inputs =
        Array.init (max 1 steps) (fun i ->
            let z, _ = sc.sc_pool.(i mod Array.length sc.sc_pool) in
            let in_idx =
              if Array.length out = 0 || Rng.bool rng then -1
              else
                (Graph.reverse_link sc.sc_graph
                   out.(Rng.int rng (Array.length out))).Graph.index
            in
            (z, in_idx))
      in
      let table = if table >= 0 && table < sc.sc_d then table else 0 in
      let fast_verdicts = ref [] in
      Fastpath.decide_batch sc.sc_fast ~table inputs ~f:(fun _ d ->
          fast_verdicts := Fastpath.verdict sc.sc_fast d :: !fast_verdicts);
      let fast_verdicts = List.rev !fast_verdicts in
      let reference_verdicts =
        Array.to_list
          (Array.map
             (fun (z, in_idx) ->
               let in_link =
                 if in_idx < 0 then None
                 else Some (Graph.link sc.sc_graph in_idx)
               in
               Node_engine.forward sc.sc_engine ~table ~zfilter:z ~in_link)
             inputs)
      in
      ignore z0;
      List.for_all2 same_verdict reference_verdicts fast_verdicts)

(* A deterministic end-to-end check on a paper topology: a real
   delivery through Run with both engines gives identical outcomes. *)
let test_delivery_agreement () =
  let graph = As_presets.as6461 () in
  let asg = Assignment.make Lit.default (Rng.of_int 42) graph in
  let rng = Rng.of_int 43 in
  let picks = Rng.sample rng 16 (Graph.node_count graph) in
  let tree =
    Spt.delivery_tree graph ~root:picks.(0)
      ~subscribers:(Array.to_list (Array.sub picks 1 15))
  in
  let c = Candidate.build_one asg ~tree ~table:0 in
  let run engine =
    let net = Net.make ~loop_prevention:false asg in
    Run.deliver ~engine net ~src:picks.(0) ~table:0
      ~zfilter:c.Candidate.zfilter ~tree
  in
  let a = run `Reference and b = run `Fast in
  Alcotest.(check (list int)) "same traversal"
    (link_indexes a.Run.traversed) (link_indexes b.Run.traversed);
  Alcotest.(check int) "same tests" a.Run.membership_tests b.Run.membership_tests;
  Alcotest.(check int) "same fp" a.Run.false_positives b.Run.false_positives;
  Alcotest.(check bool) "same reached" true (a.Run.reached = b.Run.reached)

let test_fastpath_sees_net_failures () =
  let graph = As_presets.as6461 () in
  let asg = Assignment.make Lit.default (Rng.of_int 7) graph in
  let net = Net.make ~loop_prevention:false asg in
  let rng = Rng.of_int 8 in
  let picks = Rng.sample rng 8 (Graph.node_count graph) in
  let tree =
    Spt.delivery_tree graph ~root:picks.(0)
      ~subscribers:(Array.to_list (Array.sub picks 1 7))
  in
  let c = Candidate.build_one asg ~tree ~table:0 in
  let first = List.hd tree in
  (* Warm the compilation, then fail the first tree link: Net must
     invalidate and recompile so the fast path stops using it. *)
  ignore (Net.fastpath net first.Graph.src);
  Net.fail_link net first;
  let o =
    Run.deliver ~engine:`Fast net ~src:picks.(0) ~table:0
      ~zfilter:c.Candidate.zfilter ~tree
  in
  Alcotest.(check bool) "failed link not traversed" false
    (List.exists (fun l -> l.Graph.index = first.Graph.index) o.Run.traversed)

(* An 80-leaf hub with two failed links: the width at which a byte-plane
   layout used to be chosen.  The compiled rows must pass the audit and
   agree with the reference on 300 filters selecting up to 24 leaves. *)
let test_byte_plane_agreement () =
  let deg = 80 in
  let g = Graph.create ~nodes:(deg + 1) in
  for leaf = 1 to deg do
    Graph.add_edge g 0 leaf
  done;
  let asg = Assignment.make Lit.default (Rng.of_int 3) g in
  let engine = Node_engine.create asg 0 in
  let out = Array.of_list (Graph.out_links g 0) in
  Node_engine.fail_link engine out.(3);
  Node_engine.fail_link engine out.(41);
  let fast = Fastpath.compile engine in
  Alcotest.(check (list string)) "audit clean" []
    (List.map Audit.to_string (Audit.audit fast));
  let rng = Rng.of_int 5 in
  for step = 1 to 300 do
    let z = Zfilter.create ~m:Lit.default.Lit.m in
    let nsel = 1 + Rng.int rng 24 in
    for _ = 1 to nsel do
      Zfilter.add z (Assignment.tag asg out.(Rng.int rng deg) ~table:0)
    done;
    let reference =
      Node_engine.forward engine ~table:0 ~zfilter:z ~in_link:None
    in
    let f =
      Fastpath.verdict fast
        (Fastpath.decide fast ~table:0 ~zfilter:z ~in_link_index:(-1))
    in
    if not (same_verdict reference f) then
      Alcotest.failf "step %d: ref %s / fast %s" step (pp_verdict reference)
        (pp_verdict f)
  done

(* A 16-port hub at width [m], fill limit 1.0 so that near-full filters
   are decided, with [down] of its ports failed. *)
let hub_at ~m ~down =
  let g = star 16 in
  let asg = Assignment.make (Lit.constant_k ~m ~d:2 ~k:5) (Rng.of_int m) g in
  let engine = Node_engine.create ~fill_limit:1.0 ~loop_prevention:false asg 0 in
  let out = Array.of_list (Graph.out_links g 0) in
  List.iter (fun p -> Node_engine.fail_link engine out.(p)) down;
  (asg, engine, out, Fastpath.compile engine)

let check_agrees ~what engine fast ~table z =
  let reference = Node_engine.forward engine ~table ~zfilter:z ~in_link:None in
  let f =
    Fastpath.verdict fast (Fastpath.decide fast ~table ~zfilter:z ~in_link_index:(-1))
  in
  if not (same_verdict reference f) then
    Alcotest.failf "%s: ref %s / fast %s" what (pp_verdict reference) (pp_verdict f);
  link_indexes reference.Node_engine.forward_on

(* Each port's row against an all-ones filter minus the row's highest
   bit: the one miss sits in the row's last live group, after every
   other group has matched. *)
let test_miss_in_last_group () =
  List.iter
    (fun m ->
      let asg, engine, out, fast = hub_at ~m ~down:[] in
      let last_group_misses = ref 0 in
      Array.iteri
        (fun p l ->
          for table = 0 to 1 do
            let tag = Assignment.tag asg l ~table in
            let top = List.fold_left max 0 (Bitvec.set_positions tag) in
            if top / Rows.group_bits = (m - 1) / Rows.group_bits then
              incr last_group_misses;
            let z = Zfilter.create ~m in
            Bitvec.set_all (Zfilter.to_bitvec z);
            Bitvec.clear (Zfilter.to_bitvec z) top;
            let fwd =
              check_agrees ~what:(Printf.sprintf "m=%d port %d table %d" m p table)
                engine fast ~table z
            in
            Alcotest.(check bool) "the port is not admitted" false
              (List.mem l.Graph.index fwd)
          done)
        out;
      Alcotest.(check bool)
        (Printf.sprintf "m=%d: some row's only miss is in group %d" m
           ((m - 1) / Rows.group_bits))
        true (!last_group_misses > 0))
    [ 125; 504 ]

(* An all-ones filter covers every live bit of every row, so a down
   port's only miss is its kill bit: the top bit of the last group at
   m = 125, a group of its own at 126 and 504. *)
let test_kill_bit_only_miss () =
  List.iter
    (fun m ->
      let _, engine, out, fast = hub_at ~m ~down:[ 2; 9 ] in
      for table = 0 to 1 do
        let z = Zfilter.create ~m in
        Bitvec.set_all (Zfilter.to_bitvec z);
        let fwd =
          check_agrees ~what:(Printf.sprintf "m=%d table %d" m table) engine fast
            ~table z
        in
        Alcotest.(check (list int))
          (Printf.sprintf "m=%d: every up port, no down port" m)
          (List.filter
             (fun i -> i <> out.(2).Graph.index && i <> out.(9).Graph.index)
             (link_indexes (Array.to_list out)))
          fwd
      done)
    [ 125; 126; 504 ]

let () =
  Alcotest.run "fastpath"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          Alcotest.test_case "star hubs of 64 and 256 ports" `Quick
            test_star_hubs;
          QCheck_alcotest.to_alcotest prop_batch_matches_reference;
          Alcotest.test_case "only miss in the last group" `Quick
            test_miss_in_last_group;
          Alcotest.test_case "kill bit is the only miss" `Quick
            test_kill_bit_only_miss;
        ] );
      ( "integration",
        [
          Alcotest.test_case "delivery agreement" `Quick test_delivery_agreement;
          Alcotest.test_case "net invalidates on failure" `Quick
            test_fastpath_sees_net_failures;
          Alcotest.test_case "byte-plane hub agreement" `Quick
            test_byte_plane_agreement;
        ] );
    ]
