(* The persistent forwarding service must be a pure performance
   transform: for any worker count, engine and steal interleaving, the
   delivery sets and counter totals must equal sequential Run.deliver
   bit-for-bit.  Plus the arena path (Run.deliver_into) against the
   allocating path on the same scratch, pool-reuse accounting, and
   partitioned (stitched) batches against sequential Stitched.deliver. *)

module Bitvec = Lipsin_bitvec.Bitvec
module Lit = Lipsin_bloom.Lit
module Zfilter = Lipsin_bloom.Zfilter
module Partition = Lipsin_bloom.Partition
module Graph = Lipsin_topology.Graph
module Generator = Lipsin_topology.Generator
module Spt = Lipsin_topology.Spt
module Assignment = Lipsin_core.Assignment
module Candidate = Lipsin_core.Candidate
module Adaptive = Lipsin_core.Adaptive
module Stagecut = Lipsin_core.Stagecut
module Net = Lipsin_sim.Net
module Run = Lipsin_sim.Run
module Arena = Lipsin_sim.Arena
module Service = Lipsin_sim.Service
module Stitched = Lipsin_sim.Stitched
module Scenario = Lipsin_workload.Scenario
module Obs = Lipsin_obs.Obs
module Rng = Lipsin_util.Rng

(* A job pool over a random topology: mixed fan-outs (a few huge trees
   so shard skew and steals actually happen) spread over all d tables. *)
let make_jobs seed ~nodes ~count =
  let rng = Rng.of_int seed in
  let extra = 1 + Rng.int rng nodes in
  let graph =
    Generator.pref_attach ~rng ~nodes ~edges:(nodes - 1 + extra)
      ~max_degree:10 ()
  in
  let d = Lit.default.Lit.d in
  let asg = Assignment.make Lit.default (Rng.split rng) graph in
  let jobs =
    Array.init count (fun i ->
        (* Every 8th job is a near-broadcast: the heavy tail that makes
           contiguous sharding skewed. *)
        let users =
          if i mod 8 = 0 then 2 + (nodes / 2) else 2 + Rng.int rng 6
        in
        let picks = Rng.sample rng users (Graph.node_count graph) in
        let tree =
          Spt.delivery_tree graph ~root:picks.(0)
            ~subscribers:(Array.to_list (Array.sub picks 1 (users - 1)))
        in
        let table = i mod d in
        let c = Candidate.build_one asg ~tree ~table in
        {
          Service.job_src = picks.(0);
          job_table = table;
          job_zfilter = c.Candidate.zfilter;
          job_tree = tree;
        })
  in
  (asg, jobs)

(* Sequential ground truth on a Net configured exactly like a service
   worker's (loop prevention off). *)
let sequential ~engine asg jobs =
  let net = Net.make ~loop_prevention:false asg in
  Array.map
    (fun j ->
      Run.deliver ~engine net ~src:j.Service.job_src ~table:j.Service.job_table
        ~zfilter:j.Service.job_zfilter ~tree:j.Service.job_tree)
    jobs

let sum f outcomes = Array.fold_left (fun acc o -> acc + f o) 0 outcomes

let reached_list (o : Run.outcome) =
  let acc = ref [] in
  Array.iteri (fun v r -> if r then acc := v :: !acc) o.Run.reached;
  List.rev !acc

(* --- totals: service == sequential, any worker count / engine --- *)

let check_totals name (st : Service.stats) outcomes =
  let check what got want =
    Alcotest.(check int) (Printf.sprintf "%s: %s" name what) want got
  in
  check "jobs" st.Service.st_jobs (Array.length outcomes);
  check "link traversals" st.Service.st_link_traversals
    (sum (fun o -> o.Run.link_traversals) outcomes);
  check "false positives" st.Service.st_false_positives
    (sum (fun o -> o.Run.false_positives) outcomes);
  check "membership tests" st.Service.st_membership_tests
    (sum (fun o -> o.Run.membership_tests) outcomes);
  check "fill drops" st.Service.st_fill_drops
    (sum (fun o -> o.Run.fill_drops) outcomes);
  check "loop drops" st.Service.st_loop_drops
    (sum (fun o -> o.Run.loop_drops) outcomes);
  check "local deliveries" st.Service.st_local_deliveries
    (sum (fun o -> o.Run.local_deliveries) outcomes);
  check "nodes reached" st.Service.st_nodes_reached
    (sum
       (fun o ->
         let n = ref 0 in
         Array.iter (fun r -> if r then incr n) o.Run.reached;
         !n)
       outcomes)

let test_totals_match_sequential () =
  let asg, jobs = make_jobs 11 ~nodes:60 ~count:96 in
  List.iter
    (fun engine ->
      let seq = sequential ~engine asg jobs in
      List.iter
        (fun workers ->
          let svc = Service.create ~workers ~engine asg in
          let st = Service.run svc jobs in
          Service.shutdown svc;
          check_totals
            (Printf.sprintf "%d workers" workers)
            st seq)
        [ 1; 2; 5 ])
    [ `Reference; `Fast; `Bitsliced ]

(* --- delivery sets: run_collect == sequential, bit-for-bit --- *)

let test_delivery_sets_match_sequential () =
  let asg, jobs = make_jobs 23 ~nodes:50 ~count:64 in
  List.iter
    (fun engine ->
      let seq = sequential ~engine asg jobs in
      let svc = Service.create ~workers:3 ~engine asg in
      let got = Array.make (Array.length jobs) None in
      let st =
        Service.run_collect svc jobs ~f:(fun i o -> got.(i) <- Some o)
      in
      Service.shutdown svc;
      Alcotest.(check int) "all jobs ran" (Array.length jobs)
        st.Service.st_jobs;
      Array.iteri
        (fun i o ->
          match got.(i) with
          | None -> Alcotest.failf "job %d never delivered" i
          | Some g ->
            Alcotest.(check (list int))
              (Printf.sprintf "job %d delivery set" i)
              (reached_list o) (reached_list g);
            Alcotest.(check int)
              (Printf.sprintf "job %d traversals" i)
              o.Run.link_traversals g.Run.link_traversals)
        seq)
    [ `Reference; `Fast; `Bitsliced ]

(* --- shard counts and steal order must not change totals --- *)

let test_worker_count_invariance () =
  let asg, jobs = make_jobs 37 ~nodes:70 ~count:120 in
  let strip (st : Service.stats) =
    ( st.Service.st_jobs,
      st.Service.st_link_traversals,
      st.Service.st_false_positives,
      st.Service.st_membership_tests,
      st.Service.st_fill_drops,
      st.Service.st_loop_drops,
      st.Service.st_local_deliveries,
      st.Service.st_nodes_reached )
  in
  let run workers =
    let svc = Service.create ~workers ~engine:`Fast asg in
    (* Two batches through the same pool: totals per batch must be
       identical — nothing leaks between batches. *)
    let a = Service.run svc jobs in
    let b = Service.run svc jobs in
    Service.shutdown svc;
    Alcotest.(check bool) "batch totals repeat" true (strip a = strip b);
    strip a
  in
  let one = run 1 in
  List.iter
    (fun w -> Alcotest.(check bool) "sharding invariant" true (run w = one))
    [ 2; 4; 7 ]

(* --- the pool is persistent: no respawn per batch --- *)

let test_pool_reuse () =
  Obs.Sink.set Obs.Sink.Memory;
  let asg, jobs = make_jobs 5 ~nodes:30 ~count:16 in
  let spawned = Obs.Counter.make "lipsin_service_workers_spawned_total" in
  let before = Obs.Counter.value spawned in
  let svc = Service.create ~workers:2 ~engine:`Fast asg in
  for _ = 1 to 10 do
    ignore (Service.run svc jobs)
  done;
  Service.shutdown svc;
  Alcotest.(check int) "workers spawned once, ever" 2
    (Obs.Counter.value spawned - before);
  Alcotest.check_raises "run after shutdown raises"
    (Invalid_argument "Service: the pool is shut down") (fun () ->
      ignore (Service.run svc jobs));
  (* Idempotent. *)
  Service.shutdown svc

(* --- arena path == allocating path on the same inputs --- *)

let test_deliver_into_matches_deliver () =
  let asg, jobs = make_jobs 53 ~nodes:60 ~count:48 in
  let net = Net.make ~loop_prevention:false asg in
  let arena = Arena.create net in
  List.iter
    (fun engine ->
      Arena.prepare arena engine;
      Array.iteri
        (fun i j ->
          let o =
            Run.deliver
              ~engine:(engine :> Run.engine)
              net ~src:j.Service.job_src ~table:j.Service.job_table
              ~zfilter:j.Service.job_zfilter ~tree:j.Service.job_tree
          in
          Run.deliver_into
            ~engine:(engine :> Run.engine)
            arena ~src:j.Service.job_src ~table:j.Service.job_table
            ~zfilter:j.Service.job_zfilter ~tree:j.Service.job_tree;
          let name what = Printf.sprintf "job %d: %s" i what in
          Alcotest.(check (array bool))
            (name "delivery set")
            o.Run.reached (Arena.reached_copy arena);
          Alcotest.(check int)
            (name "traversals")
            o.Run.link_traversals arena.Arena.link_traversals;
          Alcotest.(check int)
            (name "false positives")
            o.Run.false_positives arena.Arena.false_positives;
          Alcotest.(check int)
            (name "membership tests")
            o.Run.membership_tests arena.Arena.membership_tests;
          Alcotest.(check int)
            (name "fill drops")
            o.Run.fill_drops arena.Arena.fill_drops;
          Alcotest.(check int)
            (name "local deliveries")
            o.Run.local_deliveries arena.Arena.local_deliveries)
        jobs)
    [ `Fast; `Bitsliced; `Auto ]

(* --- partitioned batches == sequential Stitched.deliver --- *)

let test_partitioned_matches_sequential () =
  let g, hosts =
    Scenario.two_tier ~seed:77 ~core:60 ~core_edges:120 ~max_degree:16
      ~hosts:400 ()
  in
  let adaptive = Adaptive.make ~d:2 ~k:5 (Rng.of_int 78) g in
  let part =
    match
      Stagecut.plan adaptive ~rng:(Rng.of_int 79) ~root:0 ~subscribers:hosts
    with
    | Ok (part, _) -> part
    | Error e -> Alcotest.failf "Stagecut.plan: %s" e
  in
  let stitched = Stitched.make ~loop_prevention:false adaptive in
  Stitched.install stitched part;
  let seq = Stitched.deliver ~engine:`Fast stitched part in
  Stitched.uninstall stitched part;
  let parts = Array.make 6 part in
  let svc =
    Service.create ~workers:3 ~engine:`Fast ~adaptive
      (Adaptive.assignment adaptive ~m:(List.hd (Adaptive.widths adaptive)))
  in
  let got = Array.make (Array.length parts) None in
  let st =
    Service.run_partitioned svc parts ~f:(fun i o -> got.(i) <- Some o)
  in
  Service.shutdown svc;
  Alcotest.(check int) "all partitions ran" (Array.length parts)
    st.Service.st_jobs;
  Array.iteri
    (fun i o ->
      match o with
      | None -> Alcotest.failf "partition %d never delivered" i
      | Some (o : Stitched.outcome) ->
        Alcotest.(check (array int))
          (Printf.sprintf "partition %d delivered set" i)
          seq.Stitched.delivered o.Stitched.delivered;
        Alcotest.(check int)
          (Printf.sprintf "partition %d traversals" i)
          seq.Stitched.link_traversals o.Stitched.link_traversals;
        (match Stitched.exactly_once o part with
        | Ok () -> ()
        | Error e -> Alcotest.failf "partition %d: exactly-once: %s" i e))
    got

(* --- property: random scenarios, random worker counts --- *)

let prop_service_matches_sequential =
  QCheck.Test.make ~name:"service == sequential Run.deliver (any shards)"
    ~count:12
    QCheck.(pair (int_range 0 1000) (int_range 1 6))
    (fun (seed, workers) ->
      let asg, jobs = make_jobs seed ~nodes:40 ~count:40 in
      let seq = sequential ~engine:`Fast asg jobs in
      let svc = Service.create ~workers ~engine:`Fast asg in
      let st = Service.run svc jobs in
      Service.shutdown svc;
      st.Service.st_jobs = Array.length jobs
      && st.Service.st_link_traversals
         = sum (fun o -> o.Run.link_traversals) seq
      && st.Service.st_false_positives
         = sum (fun o -> o.Run.false_positives) seq
      && st.Service.st_membership_tests
         = sum (fun o -> o.Run.membership_tests) seq
      && st.Service.st_nodes_reached
         = sum
             (fun o ->
               let n = ref 0 in
               Array.iter (fun r -> if r then incr n) o.Run.reached;
               !n)
             seq)

(* --- a bad job fails alone, on the caller's side --- *)

(* A 120-bit zFilter on the 248-bit Lit.default deployment used to raise
   inside a worker domain, losing the completion handshake: Service.run
   never returned.  SIGALRM's default action is the watchdog — if the
   call hangs again, the process dies instead of the suite stalling. *)
let test_bad_job_rejected () =
  let asg, jobs = make_jobs 5 ~nodes:30 ~count:16 in
  let svc = Service.create ~workers:2 ~engine:`Fast asg in
  ignore (Unix.alarm 30);
  let rejects what call =
    match call () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  let narrow = { (jobs.(0)) with Service.job_zfilter = Zfilter.create ~m:120 } in
  rejects "120-bit zFilter" (fun () -> Service.run svc [| narrow |]);
  rejects "run_collect, 120-bit zFilter" (fun () ->
      Service.run_collect svc [| jobs.(1); narrow |] ~f:(fun _ _ -> ()));
  rejects "table out of range" (fun () ->
      Service.run svc [| { (jobs.(0)) with Service.job_table = Lit.default.Lit.d } |]);
  rejects "source out of range" (fun () ->
      Service.run svc [| { (jobs.(0)) with Service.job_src = -1 } |]);
  (* A raising callback used to kill its worker domain mid-batch, with
     the same hang; now the caller gets the exception. *)
  (match
     Service.run_collect svc jobs ~f:(fun i _ ->
         if i = 3 then failwith "callback")
   with
  | _ -> Alcotest.fail "raising callback: expected Failure"
  | exception Failure _ -> ());
  let st = Service.run svc jobs in
  ignore (Unix.alarm 0);
  Service.shutdown svc;
  check_totals "after the rejected batches" st (sequential ~engine:`Fast asg jobs)

let () =
  Alcotest.run "service"
    [
      ( "differential",
        [
          Alcotest.test_case "totals == sequential (engines x workers)" `Quick
            test_totals_match_sequential;
          Alcotest.test_case "delivery sets == sequential" `Quick
            test_delivery_sets_match_sequential;
          Alcotest.test_case "worker count invariance" `Quick
            test_worker_count_invariance;
          QCheck_alcotest.to_alcotest prop_service_matches_sequential;
        ] );
      ( "arena",
        [
          Alcotest.test_case "deliver_into == deliver" `Quick
            test_deliver_into_matches_deliver;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "pool reuse + shutdown" `Quick test_pool_reuse;
          Alcotest.test_case "bad job rejected, pool still serves" `Quick
            test_bad_job_rejected;
        ] );
      ( "partitioned",
        [
          Alcotest.test_case "run_partitioned == Stitched.deliver" `Quick
            test_partitioned_matches_sequential;
        ] );
    ]
