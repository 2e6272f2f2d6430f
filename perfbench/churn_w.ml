(* link_churn: the AS6461 topic set on one sequential Net plus Arena,
   publishing through Run.deliver_into with the `Fast engine, with link
   events and topic arrivals mixed in as writes beside the reads.  One
   op in 50 is a link event (VLId recovery activated or deactivated on a
   non-bridge link, then the touched nodes' fast paths invalidated and
   the arena re-prepared); another one in 50 is a topic arrival (path
   set-up, then its first publication).  Service cannot apply link
   events, so this workload does not run through it.  The ops are
   recorded and replayed after the timed phase on a reference-engine Net
   that receives the same events. *)

module Graph = Lipsin_topology.Graph
module Spt = Lipsin_topology.Spt
module Rng = Lipsin_util.Rng
module Candidate = Lipsin_core.Candidate
module Scenario = Lipsin_workload.Scenario
module Recovery = Lipsin_forwarding.Recovery
module Net = Lipsin_sim.Net
module Run = Lipsin_sim.Run
module Arena = Lipsin_sim.Arena
module Service = Lipsin_sim.Service

let period = 50
let cycle = period * 1024  (* ops before the sequence repeats *)
let arrival_pool = 256
let warmup_ops = 2 * period

type op =
  | Pub of int  (* topic index *)
  | Arrive of int  (* arrival pool index *)
  | Fail of int  (* event slot *)
  | Restore of int

type event = { link : Graph.link; nodes : Graph.node list }

type setup = {
  tp : Topics.t;
  net : Net.t;
  arena : Arena.t;
  events : event array;
  pool : (Graph.node * Graph.node list) array;
  ops : op array;
  digest : int;
}

(* Nodes whose compiled engines a VLId activation changes: the failed
   link's source and every node on its backup path. *)
let event_of graph link =
  match Recovery.backup_path graph ~link with
  | None -> invalid_arg "link_churn: bridge link drawn"
  | Some path -> { link; nodes = List.sort_uniq compare (link.Graph.src :: Spt.tree_nodes path) }

let protectable graph =
  Array.of_list
    (List.filter (fun link -> not (Recovery.is_bridge graph ~link)) (Array.to_list (Graph.links graph)))

let setup ~seed =
  let tp = Topics.make ~seed in
  let graph = tp.Topics.graph and asg = tp.Topics.asg in
  let rng = Rng.of_int (seed + 0x5eed) in
  let protectable = protectable graph in
  let events = Array.init (cycle / period / 2) (fun _ -> event_of graph (Rng.choose rng protectable)) in
  let config = { Scenario.default with Scenario.seed = Rng.bits30 rng } in
  let scratch = Topics.paths () in
  let pool =
    let rec draw acc n =
      if n = arrival_pool then Array.of_list (List.rev acc)
      else
        let l = Scenario.sample_topic config rng graph in
        let src = l.Scenario.publisher and subs = l.Scenario.subscribers in
        match Topics.path_setup scratch asg ~src ~subs with
        | _, Some _ -> draw ((src, subs) :: acc) (n + 1)
        | _, None -> draw acc n
    in
    draw [] 0
  in
  let pubs = ref 0 in
  let ops =
    Array.init cycle (fun i ->
        match i mod period with
        | 0 ->
          let k = i / period in
          if k land 1 = 0 then Fail (k / 2) else Restore (k / 2)
        | 25 -> Arrive (Rng.int rng arrival_pool)
        | _ ->
          let p = !pubs in
          incr pubs;
          Pub tp.Topics.stream.(p mod Topics.stream_len))
  in
  let net = Net.make ~loop_prevention:false asg in
  let arena = Arena.create net in
  Arena.warm arena `Fast;
  let digest =
    let h = Array.fold_left (fun h e -> Mix.step h e.link.Graph.index) tp.Topics.digest events in
    let h = Array.fold_left (fun h (src, subs) -> Mix.list (Mix.step h src) subs) h pool in
    Array.fold_left
      (fun h op ->
        match op with
        | Pub i -> Mix.step h (4 * i)
        | Arrive a -> Mix.step h ((4 * a) + 1)
        | Fail k -> Mix.step h ((4 * k) + 2)
        | Restore k -> Mix.step h ((4 * k) + 3))
      h ops
  in
  { tp; net; arena; events; pool; ops; digest }

(* The fast path's record per cycle position: a fingerprint of the
   publication's counters and delivery set, or 1/0 for a link event
   that succeeded/failed.  Every cycle starts and ends with all links
   up, so a position has the same outcome in every cycle: the first
   execution is kept, later ones are compared with it in the loop, and
   the first cycle is replayed against the reference after the timed
   phase.  Memory stays one int per position however long the run. *)
type record = { first : int array; mutable executed : int; mutable drift : int }

let note r x =
  let p = r.executed mod cycle in
  if r.executed < cycle then r.first.(p) <- x
  else if r.first.(p) <> x then r.drift <- r.drift + 1;
  r.executed <- r.executed + 1

(* One link event on [net]; returns 1 when it succeeded.  [recovery]
   times the Recovery call. *)
let apply_event ?recovery (s : setup) net op =
  let asg = s.tp.Topics.asg and engine_of = Net.engine_of net in
  let timed f = match recovery with Some a -> Clock.time a f | None -> f () in
  let ok, e =
    match op with
    | Fail k ->
      let e = s.events.(k) in
      (timed (fun () -> Result.is_ok (Recovery.vlid_activate asg ~engine_of ~failed:e.link)), e)
    | Restore k ->
      let e = s.events.(k) in
      timed (fun () -> Recovery.vlid_deactivate asg ~engine_of ~failed:e.link);
      (true, e)
    | Pub _ | Arrive _ -> invalid_arg "apply_event: not a link event"
  in
  List.iter (Net.invalidate_fastpath net) e.nodes;
  if ok then 1 else 0

(* The link-event layers outside the churn loop, for workloads without
   link events: VLId activation and deactivation on seeded non-bridge
   links of a fresh Net, each followed by the fast-path invalidations
   and Arena.prepare. *)
let probe_events = 64

let event_probe ~seed (tp : Topics.t) =
  let graph = tp.Topics.graph and asg = tp.Topics.asg in
  let net = Net.make ~loop_prevention:false asg in
  let arena = Arena.create net in
  Arena.warm arena `Fast;
  let engine_of = Net.engine_of net in
  let links = protectable graph and rng = Rng.of_int (seed + 0xe7e) in
  let recovery = Clock.acc () and prepare = Clock.acc () and nodes = ref 0 in
  for _ = 1 to probe_events do
    let e = event_of graph (Rng.choose rng links) in
    let recompile () =
      List.iter (Net.invalidate_fastpath net) e.nodes;
      Clock.time prepare (fun () -> Arena.prepare arena `Fast);
      nodes := !nodes + List.length e.nodes
    in
    (match Clock.time recovery (fun () -> Recovery.vlid_activate asg ~engine_of ~failed:e.link) with
    | Ok () -> ()
    | Error msg -> failwith ("link event probe: " ^ msg));
    recompile ();
    Clock.time recovery (fun () -> Recovery.vlid_deactivate asg ~engine_of ~failed:e.link);
    recompile ()
  done;
  [
    Report.m "forwarding.recovery_us" "us" (Clock.mean_us recovery);
    Report.m "sim.prepare_us" "us" (Clock.mean_us prepare);
    Report.m "forwarding.nodes_recompiled_per_event" "count"
      (float_of_int !nodes /. float_of_int (2 * probe_events));
  ]

(* The reference replay: the recorded op sequence on a fresh
   reference-engine Net that receives the same link events.  Link
   events must succeed, and a publication whose path set-up failed
   never matches (the two sides record -1 and -2).  Outcomes
   are memoised per (failed link, topic) — the reference engine keeps no
   state across publications — and the link-free state starts from the
   set-up oracle.  Returns the number of failed ops: every execution of
   a position whose record differs from the reference, plus the later
   executions that differed from the record. *)
let verify (s : setup) (r : record) =
  let tp = s.tp in
  let ref_net = Net.make ~loop_prevention:false tp.Topics.asg in
  let memo = Hashtbl.create 4096 in
  Array.iteri (fun i tpc -> Hashtbl.replace memo (-1, i) (Topics.fingerprint tpc.Topics.expect)) tp.Topics.topics;
  let n_topics = Array.length tp.Topics.topics in
  let scratch = Topics.paths () in
  let failed = ref (-1) and mismatches = ref 0 in
  for j = 0 to min r.executed cycle - 1 do
    let op = s.ops.(j) in
    let expected =
      match op with
      | Fail k ->
        let v = apply_event s ref_net op in
        failed := s.events.(k).link.Graph.index;
        if v = 1 then 1 else -1
      | Restore _ ->
        ignore (apply_event s ref_net op);
        failed := -1;
        1
      | Pub i ->
        let key = (!failed, i) in
        (match Hashtbl.find_opt memo key with
        | Some v -> v
        | None ->
          let v =
            Topics.fingerprint
              (Topics.expect_of_outcome (Topics.reference ref_net tp.Topics.topics.(i).Topics.job))
          in
          Hashtbl.replace memo key v;
          v)
      | Arrive a ->
        let key = (!failed, n_topics + a) in
        (match Hashtbl.find_opt memo key with
        | Some v -> v
        | None ->
          let src, subs = s.pool.(a) in
          let v =
            match Topics.path_setup scratch tp.Topics.asg ~src ~subs with
            | _, None -> -2
            | tree, Some c ->
              Topics.fingerprint
                (Topics.expect_of_outcome
                   (Topics.reference ref_net
                      { Service.job_src = src; job_table = c.Candidate.table;
                        job_zfilter = c.Candidate.zfilter; job_tree = tree }))
          in
          Hashtbl.replace memo key v;
          v)
    in
    if expected <> r.first.(j) then
      mismatches :=
        !mismatches + (r.executed / cycle) + if j < r.executed mod cycle then 1 else 0
  done;
  min r.executed (!mismatches + r.drift)

let run ~seed ~seconds ~trace =
  let s, setup_s =
    Loop.setup_median
      ~make:(fun () ->
        let s = setup ~seed in
        (* warm-up: the first ops, undone again by the matching restore *)
        for j = 0 to warmup_ops - 1 do
          match s.ops.(j) with
          | (Fail _ | Restore _) as op ->
            ignore (apply_event s s.net op);
            Arena.prepare s.arena `Fast
          | Pub i ->
            let tpc = s.tp.Topics.topics.(i) in
            Run.deliver_into ~engine:`Fast s.arena ~src:tpc.Topics.src
              ~table:tpc.Topics.chosen.Candidate.table
              ~zfilter:tpc.Topics.chosen.Candidate.zfilter ~tree:tpc.Topics.tree
          | Arrive _ -> ()
        done;
        s)
      ~discard:ignore
  in
  let tp = s.tp in
  let lp = Loop.create () in
  let r = { first = Array.make cycle 0; executed = 0; drift = 0 } in
  let recovery = Clock.acc () and prepare = Clock.acc () in
  let fps = ref 0 and tests = ref 0 and eff = ref 0.0 and pubs = ref 0 in
  let publish ~src ~table ~zfilter ~tree =
    Run.deliver_into ~engine:`Fast s.arena ~src ~table ~zfilter ~tree
  in
  let account tree =
    let a = s.arena in
    fps := !fps + a.Arena.false_positives;
    tests := !tests + a.Arena.membership_tests;
    eff := !eff +. float_of_int (List.length tree) /. float_of_int (max 1 a.Arena.link_traversals);
    incr pubs;
    Topics.fingerprint (Topics.expect_of_arena a)
  in
  let step () =
    let op = s.ops.(r.executed mod cycle) in
    let outcome =
      Loop.call lp (fun () ->
          match op with
          | Pub i ->
            let tpc = tp.Topics.topics.(i) in
            publish ~src:tpc.Topics.src ~table:tpc.Topics.chosen.Candidate.table
              ~zfilter:tpc.Topics.chosen.Candidate.zfilter ~tree:tpc.Topics.tree;
            `Published tpc.Topics.tree
          | Arrive a ->
            let src, subs = s.pool.(a) in
            (match Topics.path_setup tp.Topics.paths tp.Topics.asg ~src ~subs with
            | _, None -> `Setup_failed
            | tree, Some c ->
              publish ~src ~table:c.Candidate.table ~zfilter:c.Candidate.zfilter ~tree;
              `Published tree)
          | Fail _ | Restore _ ->
            let traced = lp.Loop.traced in
            let v = apply_event ?recovery:(if traced then Some recovery else None) s s.net op in
            if traced then Clock.time prepare (fun () -> Arena.prepare s.arena `Fast)
            else Arena.prepare s.arena `Fast;
            `Event v)
    in
    let v =
      match outcome with
      | `Published tree -> account tree
      | `Setup_failed -> -1
      | `Event v -> v
    in
    note r v;
    Loop.finish lp ~ops:1 ~failed:0
  in
  let sum = Loop.run lp ~seconds ~alternate:trace step in
  let mismatches = verify s r in
  let sum = { sum with Loop.failed = mismatches } in
  let e2e =
    Loop.e2e sum ~setup_s
      ~efficiency:(!eff /. float_of_int (max 1 !pubs))
      ~fpr:(if !tests = 0 then 0.0 else float_of_int !fps /. float_of_int !tests)
  in
  let n_events = Array.length s.events * 2 in
  let recompiled =
    Array.fold_left (fun n e -> n + (2 * List.length e.nodes)) 0 s.events
  in
  let notes =
    [
      Loop.latency_note sum;
      Printf.sprintf
        "oracle: the first %d ops replayed on a reference-engine Net with the same link events, later cycles checked against the first; %d failed"
        (min r.executed cycle) mismatches;
    ]
  in
  let layers, extra, counts, notes =
    if not trace then ([], [], [], notes)
    else begin
      let t0 = Clock.now () in
      let t, compile = Topics.layer_replay tp in
      let svc = Service.create ~workers:Machine.nproc ~engine:`Fast tp.Topics.asg in
      let roundtrip = Replay.roundtrip_us svc in
      Service.shutdown svc;
      let ratio, overhead = Loop.trace_overhead sum ~replay_s:(Clock.seconds_since t0) in
      let layers = Replay.metrics t @ [ compile; Report.m "service.roundtrip_us" "us" roundtrip ] in
      let extra =
        Topics.layer_metrics tp.Topics.paths
        @ [
            Report.m "forwarding.recovery_us" "us" (Clock.mean_us recovery);
            Report.m "sim.prepare_us" "us" (Clock.mean_us prepare);
            Report.m "forwarding.nodes_recompiled_per_event" "count"
              (float_of_int recompiled /. float_of_int n_events);
            ratio;
          ]
      in
      ( layers, extra,
        Replay.counts t @ [ ("events.recompiled_nodes", recompiled) ],
        notes
        @ [
            "service.roundtrip_us comes from a pool over the same assignment; the workload's ops do not run through Service";
            overhead;
          ] )
    end
  in
  {
    Report.workload = "link_churn";
    config =
      Machine.describe ()
      @ [
          ("seed", string_of_int seed);
          ("seconds", Printf.sprintf "%g" seconds);
          ("topology", "AS6461 (138 nodes, 744 directed links)");
          ("topics", Printf.sprintf "%d kept of %d sampled; %d arrival topics"
             (Array.length tp.Topics.topics) Topics.draws arrival_pool);
          ("op mix", Printf.sprintf "1 in %d link event, 1 in %d topic arrival, rest publications; %d-op cycle"
             period period cycle);
          ("requests", "one op per request, sequential Net + Arena, `Fast engine, closed loop");
          ("set-ups", string_of_int Loop.setups);
        ];
    attempted = sum.Loop.ops;
    failed = mismatches;
    e2e;
    layers;
    extra;
    counts = counts @ [ ("topics", Array.length tp.Topics.topics); ("events", Array.length s.events) ];
    digest = s.digest;
    attribution = [];
    notes;
  }
