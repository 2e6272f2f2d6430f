(* partitioned_tail: the popular tail one zFilter cannot carry.  On a
   fixed two-tier topology (100 core routers, 2000 access hosts; the
   seed varies the family and the audiences, not the graph, as AS6461
   is fixed for the other workloads) audiences of 500 hosts are cut
   into stitched stages with Stagecut.plan at set-up, over an Adaptive
   120/248/504-bit family.  Each request is one
   Service.run_partitioned call with one partition per worker, which
   installs, delivers and uninstalls the stitch entries on the worker's
   own nets; every delivery is checked with Stitched.exactly_once in
   the callback. *)

module Graph = Lipsin_topology.Graph
module Rng = Lipsin_util.Rng
module Adaptive = Lipsin_core.Adaptive
module Stagecut = Lipsin_core.Stagecut
module Partition = Lipsin_bloom.Partition
module Scenario = Lipsin_workload.Scenario
module Net = Lipsin_sim.Net
module Run = Lipsin_sim.Run
module Arena = Lipsin_sim.Arena
module Stitched = Lipsin_sim.Stitched
module Service = Lipsin_sim.Service

let core = 100
let hosts = 2000
let audience = 500
let audiences = 32
(* Two tables per width: each worker keeps a Net per width with every
   touched node compiled, and d = 8 doubles peak memory (about 450 MB)
   for no change in what the workload exercises. *)
let d = 2
let sequence_len = 1024
let warmup_calls = audiences

type setup = {
  graph : Graph.t;
  adaptive : Adaptive.t;
  parts : Partition.t array;
  tree_links : int array;  (* per audience: links of its delivery tree *)
  single_fits : int;  (* audiences one zFilter could carry: should be 0 *)
  calls : Partition.t array array;
  call_ids : int array array;
  svc : Service.t;
  paths : Topics.paths;
  plan : Clock.acc;
  digest : int;
}

let setup ~seed =
  let rng = Rng.of_int seed in
  let graph, host_list =
    Scenario.two_tier ~core ~core_edges:(2 * core) ~max_degree:32 ~hosts ()
  in
  let host_nodes = Array.of_list host_list in
  let adaptive = Adaptive.make ~d ~k:5 (Rng.split rng) graph in
  let widest = Adaptive.assignment adaptive ~m:(List.fold_left max 0 (Adaptive.widths adaptive)) in
  let paths = Topics.paths () and plan = Clock.acc () in
  let single_fits = ref 0 and digest = ref 0 in
  let planned =
    Array.init audiences (fun id ->
        let root = Rng.int rng core in
        let subscribers =
          Array.to_list (Array.map (fun i -> host_nodes.(i)) (Rng.sample rng audience hosts))
        in
        digest := Mix.list (Mix.step !digest root) subscribers;
        (* The premise: no single filter of the widest width carries the
           audience's tree. *)
        let tree, single = Topics.path_setup paths widest ~src:root ~subs:subscribers in
        if Option.is_some single then incr single_fits;
        match
          Clock.time plan (fun () ->
              Stagecut.plan adaptive ~id ~rng:(Rng.split rng) ~root ~subscribers)
        with
        | Ok (part, _) -> (part, List.length tree)
        | Error e -> failwith ("partitioned_tail: Stagecut.plan: " ^ e))
  in
  let parts = Array.map fst planned in
  let call_ids =
    Array.init sequence_len (fun _ -> Array.init Machine.nproc (fun _ -> Rng.int rng audiences))
  in
  let digest = Array.fold_left (fun h ids -> Array.fold_left Mix.step h ids) !digest call_ids in
  let calls = Array.map (Array.map (fun a -> parts.(a))) call_ids in
  let narrowest = List.fold_left min max_int (Adaptive.widths adaptive) in
  let svc =
    Service.create ~workers:Machine.nproc ~engine:`Fast ~adaptive
      (Adaptive.assignment adaptive ~m:narrowest)
  in
  for c = 0 to warmup_calls - 1 do
    let ps = Array.init Machine.nproc (fun w -> parts.((c + w) mod audiences)) in
    ignore (Service.run_partitioned svc ps ~f:(fun _ _ -> ()))
  done;
  {
    graph; adaptive; parts; tree_links = Array.map snd planned; single_fits = !single_fits;
    calls; call_ids; svc; paths; plan; digest;
  }

(* Traced-run layer timings on a sequential side family: install,
   staged delivery and uninstall per audience, each stage's Run.deliver,
   and the decide/arena replay of every stage run. *)
let layer_replay s =
  let st = Stitched.make ~loop_prevention:false s.adaptive in
  let widths = Adaptive.widths s.adaptive in
  let arenas =
    List.map
      (fun m ->
        let a = Arena.create (Stitched.net st ~m) in
        Arena.warm a `Fast;
        (m, a))
      widths
  in
  let generation () = List.fold_left (fun n m -> n + Net.generation (Stitched.net st ~m)) 0 widths in
  let t = Replay.tally () in
  let install = Clock.acc () and deliver = Clock.acc () and run = Clock.acc () in
  let recompiled = ref 0 in
  Array.iter
    (fun part ->
      let g0 = generation () in
      Clock.time install (fun () -> Stitched.install st part);
      recompiled := !recompiled + (generation () - g0);
      ignore (Clock.time deliver (fun () -> Stitched.deliver ~engine:`Fast st part));
      let items =
        Array.map
          (fun (stage : Partition.stage) ->
            let tree = List.map (Stagecut.stage_link s.graph) stage.Partition.links in
            let net = Stitched.net st ~m:stage.Partition.m in
            ignore
              (Clock.time run (fun () ->
                   Run.deliver ~engine:`Fast net ~src:stage.Partition.root
                     ~table:stage.Partition.table ~zfilter:stage.Partition.filter ~tree));
            {
              Replay.arena = List.assoc stage.Partition.m arenas;
              src = stage.Partition.root;
              table = stage.Partition.table;
              zfilter = stage.Partition.filter;
              tree;
            })
          part.Partition.stages
      in
      Replay.replay t items;
      let t0 = Clock.now () in
      Stitched.uninstall st part;
      install.Clock.ns <- install.Clock.ns + (Clock.now () - t0))
    s.parts;
  let compile =
    Replay.compile_us (Stitched.net st ~m:(List.hd widths)) (List.init (Graph.node_count s.graph) Fun.id)
  in
  (t, compile, install, deliver, run, !recompiled)

let run ~seed ~seconds ~trace =
  let s, setup_s =
    Loop.setup_median ~make:(fun () -> setup ~seed) ~discard:(fun s -> Service.shutdown s.svc)
  in
  let per_call = Machine.nproc in
  let ok = Array.make per_call false and trav = Array.make per_call 0 in
  let fps_of = Array.make per_call 0 and tests_of = Array.make per_call 0 in
  let lp = Loop.create () in
  let pos = ref 0 in
  let fps = ref 0 and tests = ref 0 and eff = ref 0.0 and pubs = ref 0 in
  let span = Clock.acc () in
  let step () =
    let c = !pos in
    pos := if c + 1 = sequence_len then 0 else c + 1;
    let parts = s.calls.(c) in
    Array.fill ok 0 per_call false;
    let st =
      Loop.call lp (fun () ->
          Service.run_partitioned s.svc parts ~f:(fun i o ->
              ok.(i) <- Result.is_ok (Stitched.exactly_once o parts.(i));
              trav.(i) <- o.Stitched.link_traversals;
              fps_of.(i) <- o.Stitched.false_positives;
              tests_of.(i) <- o.Stitched.membership_tests))
    in
    if lp.Loop.traced then Clock.add span (Loop.last_ns lp);
    let bad = ref (per_call - st.Service.st_jobs) in
    Array.iteri
      (fun i a ->
        if not ok.(i) then incr bad;
        fps := !fps + fps_of.(i);
        tests := !tests + tests_of.(i);
        eff := !eff +. (float_of_int s.tree_links.(a) /. float_of_int (max 1 trav.(i))))
      s.call_ids.(c);
    pubs := !pubs + per_call;
    Loop.finish lp ~ops:per_call ~failed:(min per_call !bad)
  in
  let sum = Loop.run lp ~seconds ~alternate:trace step in
  let e2e =
    Loop.e2e sum ~setup_s
      ~efficiency:(!eff /. float_of_int (max 1 !pubs))
      ~fpr:(if !tests = 0 then 0.0 else float_of_int !fps /. float_of_int !tests)
  in
  let stage_counts = Array.map Partition.stage_count s.parts in
  let stages_per_pub =
    let total = Array.fold_left (fun n ids -> Array.fold_left (fun n a -> n + stage_counts.(a)) n ids) 0 s.call_ids in
    float_of_int total /. float_of_int (sequence_len * per_call)
  in
  let notes =
    [
      Loop.latency_note sum;
      "oracle: Stitched.exactly_once on every delivery, in the worker's callback";
      Printf.sprintf "premise: %d of %d audiences fit one %d-bit zFilter (expected 0)" s.single_fits
        audiences (List.fold_left max 0 (Adaptive.widths s.adaptive));
    ]
  in
  let layers, extra, counts, notes =
    if not trace then ([], [], [], notes)
    else begin
      let t0 = Clock.now () in
      let t, compile, install, deliver, run_acc, recompiled = layer_replay s in
      let roundtrip = Replay.roundtrip_us s.svc in
      let ratio, overhead = Loop.trace_overhead sum ~replay_s:(Clock.seconds_since t0) in
      let per_pub_us = Clock.mean_us install +. Clock.mean_us deliver in
      let layers = Replay.metrics t @ [ compile; Report.m "service.roundtrip_us" "us" roundtrip ] in
      let extra =
        Topics.layer_metrics ~tag:"premise_" s.paths
        @ [
          Report.m "core.stagecut_plan_ms" "ms" (Clock.mean_us s.plan /. 1e3);
          Report.m "core.stages_per_pub" "count" stages_per_pub;
          Report.m "forwarding.nodes_recompiled_per_event" "count"
            (float_of_int recompiled /. float_of_int audiences);
          Report.m "sim.stitched_install_us" "us" (Clock.mean_us install);
          Report.m "sim.stitched_deliver_ms" "ms" (Clock.mean_us deliver /. 1e3);
          Report.m "sim.run_deliver_us_per_stage" "us" (Clock.mean_us run_acc);
          Report.m "service.overhead_us_per_call" "us" (Clock.mean_us span -. per_pub_us);
          ratio;
        ]
      in
      ( layers, extra,
        Replay.counts t @ [ ("stitch.recompiled_nodes", recompiled) ],
        notes
        @ [ overhead ] )
    end
  in
  Service.shutdown s.svc;
  {
    Report.workload = "partitioned_tail";
    config =
      Machine.describe ()
      @ [
          ("seed", string_of_int seed);
          ("seconds", Printf.sprintf "%g" seconds);
          ("topology", Printf.sprintf "two-tier: %d core routers, %d hosts" core hosts);
          ("family", Printf.sprintf "Adaptive %s bits, d = %d, k = 5"
             (String.concat "/" (List.map string_of_int (Adaptive.widths s.adaptive))) d);
          ("audiences", Printf.sprintf "%d of %d hosts each, planned with Stagecut.plan" audiences audience);
          ("requests", Printf.sprintf "Service.run_partitioned with %d partitions, closed loop, %d workers"
             per_call Machine.nproc);
          ("set-ups", string_of_int Loop.setups);
        ];
    attempted = sum.Loop.ops;
    failed = sum.Loop.failed;
    e2e;
    layers;
    extra;
    counts = counts @ [ ("stages", Array.fold_left ( + ) 0 stage_counts); ("single_fits", s.single_fits) ];
    digest = s.digest;
    attribution = [];
    notes;
  }
