(* zipf_bulk and zipf_single: the AS6461 Zipf publication stream through
   Service.run, either in 512-publication batches (the data plane does
   nearly all the work) or one publication per call (the dispatch
   handshake dominates). *)

module Service = Lipsin_sim.Service

let batch = 512
let warmup_requests = 32

type setup = {
  tp : Topics.t;
  svc : Service.t;
  calls : int array array;  (* topic indexes of each request, cycled *)
  expect : int array array;  (* each request's seven counter sums *)
  jobs : Service.job array array;
}

let setup ~seed ~per_call =
  let tp = Topics.make ~seed in
  let n = Topics.stream_len / per_call in
  let calls = Array.init n (fun c -> Array.sub tp.Topics.stream (c * per_call) per_call) in
  let jobs = Array.map (Array.map (fun i -> tp.Topics.topics.(i).Topics.job)) calls in
  let expect =
    Array.map
      (fun ids ->
        let sums = Array.make 7 0 in
        Array.iter (fun i -> Topics.add_expect sums tp.Topics.topics.(i).Topics.expect) ids;
        sums)
      calls
  in
  let svc = Service.create ~workers:Machine.nproc ~engine:`Fast tp.Topics.asg in
  for c = 0 to warmup_requests - 1 do
    ignore (Service.run svc jobs.(c mod n))
  done;
  { tp; svc; calls; expect; jobs }

(* The "where did the time go" rows: per publication, decides times the
   isolated decide cost plus the arena's own work, both split over the
   workers that run a call's jobs in parallel, plus the empty-call
   handshake spread over the call's jobs; against the measured traced
   wall time per publication. *)
let attribution ~per_call ~t ~roundtrip ~call_us =
  let par = float_of_int (min Machine.nproc per_call) in
  let jobs = float_of_int per_call in
  let decide = Replay.per_pub t t.Replay.decides *. Replay.decide_ns t /. 1e3 /. par in
  let self = Replay.arena_self_us t /. par in
  let dispatch = roundtrip /. jobs in
  let rebuilt = decide +. self +. dispatch in
  let measured = call_us /. jobs in
  let rest = measured -. rebuilt in
  let pct x = if measured = 0.0 then 0.0 else 100.0 *. x /. measured in
  let row name x = Printf.sprintf "| %s | %.3f | %.1f%% |" name x (pct x) in
  ( [
      Printf.sprintf "Attribution per publication (%d jobs per call, %.0f in parallel):" per_call par;
      "";
      "| component | us/op | share of measured |";
      "|---|---|---|";
      row "decide: decides/pub x decide_ns / parallel" decide;
      row "arena self: arena_self_us / parallel" self;
      row "dispatch: roundtrip_us / jobs per call" dispatch;
      row "reconstructed" rebuilt;
      row "measured: traced Service.run wall / jobs" measured;
      row "unexplained remainder" rest;
    ],
    pct rest )

let run ~name ~per_call ~seed ~seconds ~trace =
  let s, setup_s =
    Loop.setup_median
      ~make:(fun () -> setup ~seed ~per_call)
      ~discard:(fun s -> Service.shutdown s.svc)
  in
  let tp = s.tp in
  let n = Array.length s.calls in
  let lp = Loop.create () in
  let pos = ref 0 in
  let fps = ref 0 and tests = ref 0 and eff = ref 0.0 and pubs = ref 0 in
  let span = Clock.acc () and steals = ref 0 and words = ref 0.0 and jobs = ref 0 in
  let step () =
    let c = !pos in
    pos := if c + 1 = n then 0 else c + 1;
    let st = Loop.call lp (fun () -> Service.run s.svc s.jobs.(c)) in
    let ok = st.Service.st_jobs = per_call && Topics.sums_of_stats st = s.expect.(c) in
    Loop.finish lp ~ops:per_call ~failed:(if ok then 0 else per_call);
    fps := !fps + st.Service.st_false_positives;
    tests := !tests + st.Service.st_membership_tests;
    Array.iter (fun i -> eff := !eff +. tp.Topics.topics.(i).Topics.eff) s.calls.(c);
    pubs := !pubs + per_call;
    if lp.Loop.traced then begin
      Clock.add span (Loop.last_ns lp);
      steals := !steals + st.Service.st_steals;
      words := !words +. st.Service.st_minor_words;
      jobs := !jobs + st.Service.st_jobs
    end
  in
  let sum = Loop.run lp ~seconds ~alternate:trace step in
  let e2e =
    Loop.e2e sum ~setup_s
      ~efficiency:(!eff /. float_of_int (max 1 !pubs))
      ~fpr:(if !tests = 0 then 0.0 else float_of_int !fps /. float_of_int !tests)
  in
  let sampled = Topics.draws in
  let notes =
    [
      Loop.latency_note sum;
      Printf.sprintf "topics: %d of %d sampled topics left out for overfilling (%.1f%%)"
        tp.Topics.overfilled sampled
        (100.0 *. float_of_int tp.Topics.overfilled /. float_of_int sampled);
      Printf.sprintf "oracle: every call's seven Service.stats counter sums against its jobs' reference sums%s"
        (if per_call = 1 then " (exact per publication)" else "; a mismatch fails the whole batch");
    ]
  in
  let layers, extra, counts, attribution, notes =
    if not trace then ([], [], [], [], notes)
    else begin
      let t0 = Clock.now () in
      let t, compile = Topics.layer_replay tp in
      let roundtrip = Replay.roundtrip_us s.svc in
      let probe = Churn_w.event_probe ~seed tp in
      let ratio, overhead = Loop.trace_overhead sum ~replay_s:(Clock.seconds_since t0) in
      let call_us = Clock.mean_us span in
      let arena = Replay.arena_us t in
      let par = float_of_int (min Machine.nproc per_call) in
      let rows, rest = attribution ~per_call ~t ~roundtrip ~call_us in
      let layers = Replay.metrics t @ [ compile; Report.m "service.roundtrip_us" "us" roundtrip ] in
      let traced_calls = float_of_int (max 1 span.Clock.n) in
      let extra =
        Topics.layer_metrics tp.Topics.paths
        @ [
            Report.m "service.overhead_us_per_call" "us"
              (call_us -. (float_of_int per_call *. arena /. par));
            Report.m "service.steals_per_call" "count" (float_of_int !steals /. traced_calls);
            Report.m "service.minor_words_per_pub" "words"
              (!words /. float_of_int (max 1 !jobs));
          ]
        @ probe @ [ ratio ]
      in
      ( layers, extra, Replay.counts t, rows,
        notes
        @ [
            Printf.sprintf "unexplained remainder: %.1f%% of the measured us/op (target: at most 10%%)" rest;
            Printf.sprintf
              "link-event layers (recovery, prepare, recompiled nodes): %d VLId activations and deactivations on a side Net"
              Churn_w.probe_events;
            overhead;
          ] )
    end
  in
  Service.shutdown s.svc;
  {
    Report.workload = name;
    config =
      Machine.describe ()
      @ [
          ("seed", string_of_int seed);
          ("seconds", Printf.sprintf "%g" seconds);
          ("topology", "AS6461 (138 nodes, 744 directed links)");
          ("topics", Printf.sprintf "%d sampled, %d kept (Scenario.default, d = 8, fpr selection)"
             sampled (Array.length tp.Topics.topics));
          ("stream", Printf.sprintf "%d publications, weight 1/rank, cycled" Topics.stream_len);
          ("requests", Printf.sprintf "Service.run with %d publication(s), closed loop, %d workers"
             per_call Machine.nproc);
          ("set-ups", string_of_int Loop.setups);
        ];
    attempted = sum.Loop.ops;
    failed = sum.Loop.failed;
    e2e;
    layers;
    extra;
    counts =
      counts @ [ ("topics", Array.length tp.Topics.topics); ("overfilled", tp.Topics.overfilled) ];
    digest = Mix.step tp.Topics.digest per_call;
    attribution;
    notes;
  }
