(* Command-line front end: regenerate any of the paper's tables and
   figures, or run the extension experiments.  `lipsin_cli all` is what
   EXPERIMENTS.md records. *)

open Cmdliner
module E = Lipsin_experiments

let ppf = Format.std_formatter

let trials_arg default =
  let doc = "Number of Monte-Carlo trials per data point." in
  Arg.(value & opt int default & info [ "trials" ] ~docv:"N" ~doc)

let simple name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const (fun () -> f ppf) $ const ())

let with_trials name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(const (fun trials -> f ?trials:(Some trials) ppf) $ trials_arg 500)

let table1 = simple "table1" "Graph characterization of the five topologies." E.Table1.run
let table2 = with_trials "table2" "Stateless forwarding: links/efficiency/fpr." E.Table2.run
let table3 = with_trials "table3" "Mean fpr per selection and k configuration." E.Table3.run

let fig5 =
  let csv_flag =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit a plot-ready CSV series.")
  in
  Cmd.v (Cmd.info "fig5" ~doc:"fpr and efficiency vs users on AS6461.")
    Term.(
      const (fun trials csv -> E.Fig5.run ~trials ~csv ppf)
      $ trials_arg 300 $ csv_flag)

let fig6 =
  Cmd.v (Cmd.info "fig6" ~doc:"Stateful dense multicast efficiency.")
    Term.(const (fun trials -> E.Fig6.run ~trials ppf) $ trials_arg 100)

let table4 = simple "table4" "Latency vs number of forwarding nodes." (E.Table4.run ?samples:None)
let table5 = simple "table5" "Echo latency: wire vs IP router vs LIPSIN." (E.Table5.run ?batches:None ?batch_size:None)
let ftmem = simple "ftmem" "Forwarding-table memory (Eq. 4)." E.Ftmem.run
let security = simple "security" "Contamination, probing and LIT-learning attacks." E.Security_exp.run

let recovery =
  Cmd.v (Cmd.info "recovery" ~doc:"Fast recovery: VLId and zFilter-rewrite schemes.")
    Term.(const (fun trials -> E.Recovery_exp.run ~trials ppf) $ trials_arg 100)

let interdomain = simple "interdomain" "8-domain inter-domain forwarding." (E.Interdomain_exp.run ?publications:None)
let workload = simple "workload" "Zipf topic workload: state vs stateless." (E.Workload_exp.run ?topics:None)

let ablation =
  Cmd.v (Cmd.info "ablation" ~doc:"m / d / Xcast-crossover ablations.")
    Term.(const (fun trials -> E.Ablation.run ~trials ppf) $ trials_arg 300)

let splitting =
  Cmd.v (Cmd.info "splitting" ~doc:"Multiple sending vs virtual links (Sec 4.3).")
    Term.(const (fun trials -> E.Splitting_exp.run ~trials ppf) $ trials_arg 50)

let adaptive = simple "adaptive" "Variable filter width per packet (Sec 4.2 future work)." (E.Adaptive_exp.run ?topics:None)
let caching = simple "caching" "In-network opportunistic caching (Sec 5.4)." (E.Caching_exp.run ?fetches:None)
let congestion = simple "congestion" "Congestion-aware candidate selection (Sec 3.2)." (E.Congestion_exp.run ?publications:None)
let bootstrap = simple "bootstrap" "Topology bootstrap convergence cost (Sec 2.2)." E.Bootstrap_exp.run

let latency =
  Cmd.v (Cmd.info "latency" ~doc:"Native multicast latency vs application overlay.")
    Term.(const (fun trials -> E.Latency_exp.run ~trials ppf) $ trials_arg 200)

let goodput = simple "goodput" "Delivery ratio vs offered load (fluid model)." (E.Goodput_exp.run ?topics:None)

let multipath =
  Cmd.v (Cmd.info "multipath" ~doc:"Disjoint-path spraying and failover (Sec 4.4 future work).")
    Term.(const (fun trials -> E.Multipath_exp.run ~trials ppf) $ trials_arg 200)

let directory = simple "directory" "Rendezvous directory resources and caching (Sec 5.2)." (E.Directory_exp.run ?lookups:None)
let fec = simple "fec" "Lateral error correction over a lossy fabric." (E.Fec_exp.run ?windows:None)
let churn = simple "churn" "Join churn: state changes avoided (Sec 4.3)." (E.Churn_exp.run ?joins:None)
let loops = simple "loops" "Loop prevention vs adversarial cycles (Sec 3.3.3)." (E.Loops_exp.run ?trials:None)
let recursive = simple "recursive" "LIPSIN over LIPSIN + weighted trees (Sec 2.1)." (E.Recursive_exp.run ?trials:None)

let all =
  let doc = "Run every experiment (what EXPERIMENTS.md records)." in
  let run () =
    let rule title =
      Format.fprintf ppf "@.=== %s ===@." title
    in
    rule "Table 1"; E.Table1.run ppf;
    rule "Table 2"; E.Table2.run ppf;
    rule "Table 3"; E.Table3.run ppf;
    rule "Figure 5"; E.Fig5.run ppf;
    rule "Figure 6"; E.Fig6.run ppf;
    rule "Table 4"; E.Table4.run ppf;
    rule "Table 5"; E.Table5.run ppf;
    rule "Eq. 4 memory"; E.Ftmem.run ppf;
    rule "Workload (Sec 4.3)"; E.Workload_exp.run ppf;
    rule "Security (Sec 4.4)"; E.Security_exp.run ppf;
    rule "Recovery (Sec 3.3.2)"; E.Recovery_exp.run ppf;
    rule "Inter-domain (Sec 5)"; E.Interdomain_exp.run ppf;
    rule "Ablations"; E.Ablation.run ppf;
    rule "Splitting vs virtual links (Sec 4.3)"; E.Splitting_exp.run ppf;
    rule "Adaptive filter width (Sec 4.2, future work)"; E.Adaptive_exp.run ppf;
    rule "In-network caching (Sec 5.4)"; E.Caching_exp.run ppf;
    rule "Congestion-aware selection (Sec 3.2)"; E.Congestion_exp.run ppf;
    rule "Bootstrap (Sec 2.2)"; E.Bootstrap_exp.run ppf;
    rule "Multicast latency vs overlay"; E.Latency_exp.run ppf;
    rule "Goodput under load (fluid model)"; E.Goodput_exp.run ppf;
    rule "Multipath (Sec 4.4, future work)"; E.Multipath_exp.run ppf;
    rule "Rendezvous directory (Sec 5.2)"; E.Directory_exp.run ppf;
    rule "Lateral error correction"; E.Fec_exp.run ppf;
    rule "Join churn (Sec 4.3)"; E.Churn_exp.run ppf;
    rule "Loop prevention (Sec 3.3.3)"; E.Loops_exp.run ppf;
    rule "Recursive layering + weighted trees"; E.Recursive_exp.run ppf
  in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ const ())

(* ---- operator tooling: topology + assignment files ---- *)

module Graph = Lipsin_topology.Graph
module Generator = Lipsin_topology.Generator
module Edge_list = Lipsin_topology.Edge_list
module Metrics = Lipsin_topology.Metrics
module As_presets = Lipsin_topology.As_presets
module Lit = Lipsin_bloom.Lit
module Assignment = Lipsin_core.Assignment
module Candidate = Lipsin_core.Candidate
module Select = Lipsin_core.Select
module Persist = Lipsin_core.Persist
module Spt = Lipsin_topology.Spt
module Net = Lipsin_sim.Net
module Run = Lipsin_sim.Run
module Rng = Lipsin_util.Rng

let file_arg ~doc name = Arg.(required & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let topo_gen =
  let doc = "Generate a topology file (preferential-attachment or preset)." in
  let run nodes edges max_degree seed preset out =
    let graph =
      match preset with
      | Some name -> As_presets.by_name name
      | None ->
        Generator.pref_attach ~rng:(Rng.of_int seed) ~nodes ~edges ~max_degree ()
    in
    Edge_list.save graph out;
    Format.fprintf ppf "wrote %s: %a@." out Metrics.pp (Metrics.compute graph)
  in
  Cmd.v (Cmd.info "topo-gen" ~doc)
    Term.(
      const run
      $ Arg.(value & opt int 50 & info [ "nodes" ] ~docv:"N" ~doc:"Node count.")
      $ Arg.(value & opt int 85 & info [ "edges" ] ~docv:"E" ~doc:"Undirected edge count.")
      $ Arg.(value & opt int 12 & info [ "max-degree" ] ~docv:"D" ~doc:"Degree cap.")
      $ Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")
      $ Arg.(value & opt (some string) None & info [ "preset" ] ~docv:"AS" ~doc:"Use a Table 1 preset (AS1221...TA2) instead of generating.")
      $ file_arg ~doc:"Output edge-list file." "out")

let topo_stats =
  let doc = "Print Table 1-style statistics of a topology file." in
  let run path =
    let graph = Edge_list.load path in
    Format.fprintf ppf "%a@." Metrics.pp (Metrics.compute graph)
  in
  Cmd.v (Cmd.info "topo-stats" ~doc)
    Term.(const run $ file_arg ~doc:"Edge-list file." "topo")

let assign_gen =
  let doc = "Draw and persist a LIT assignment for a topology file." in
  let run topo out seed =
    let graph = Edge_list.load topo in
    let assignment = Assignment.make Lit.default (Rng.of_int seed) graph in
    Persist.save assignment out;
    Format.fprintf ppf "wrote %s: %d link identities (m=248, d=8, k=5)@." out
      (Assignment.link_count assignment)
  in
  Cmd.v (Cmd.info "assign-gen" ~doc)
    Term.(
      const run
      $ file_arg ~doc:"Edge-list file." "topo"
      $ file_arg ~doc:"Output assignment file." "out"
      $ Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Identity seed."))

let forward_cmd =
  let doc = "Simulate one delivery over persisted topology + assignment." in
  let run topo assignment_file src subscribers =
    let graph = Edge_list.load topo in
    match Persist.load graph assignment_file with
    | Error e -> Format.fprintf ppf "error: %s@." e
    | Ok assignment -> (
      let subscribers =
        List.filter_map int_of_string_opt (String.split_on_char ',' subscribers)
      in
      let tree = Spt.delivery_tree graph ~root:src ~subscribers in
      match Select.select_fpa (Candidate.build assignment ~tree) with
      | None -> Format.fprintf ppf "error: tree overfills every candidate@."
      | Some c ->
        let net = Net.make assignment in
        let o =
          Run.deliver net ~src ~table:c.Candidate.table
            ~zfilter:c.Candidate.zfilter ~tree
        in
        Format.fprintf ppf
          "table %d, fill %.3f; delivered %d/%d; %d traversals (eff %.1f%%), fpr %.2f%%@."
          c.Candidate.table
          (Candidate.fill_factor c)
          (List.length (List.filter (fun v -> o.Run.reached.(v)) subscribers))
          (List.length subscribers) o.Run.link_traversals
          (100.0 *. Run.forwarding_efficiency o ~tree)
          (100.0 *. Run.false_positive_rate o);
        Format.fprintf ppf "zFilter: %s@."
          (Lipsin_bloom.Zfilter.to_hex c.Candidate.zfilter))
  in
  Cmd.v (Cmd.info "forward" ~doc)
    Term.(
      const run
      $ file_arg ~doc:"Edge-list file." "topo"
      $ file_arg ~doc:"Assignment file." "assignment"
      $ Arg.(value & opt int 0 & info [ "src" ] ~docv:"NODE" ~doc:"Publisher node.")
      $ Arg.(value & opt string "1" & info [ "subscribers" ] ~docv:"A,B,C" ~doc:"Comma-separated subscriber nodes."))

(* ---- runtime telemetry ---- *)

module Obs = Lipsin_obs.Obs
module Serve = Lipsin_serve.Serve
module Bitvec = Lipsin_bitvec.Bitvec
module Zfilter = Lipsin_bloom.Zfilter

let engine_arg =
  Arg.(
    value
    & opt
        (enum [ ("reference", `Reference); ("fast", `Fast) ])
        `Fast
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Forwarding engine: $(b,reference) (per-link subset test) or \
           $(b,fast) (compiled row-major).")

let sample_arg =
  Arg.(
    value & opt int 1
    & info [ "sample" ] ~docv:"N"
        ~doc:
          "Trace 1-in-$(docv) publications (per-publication sampling; 1 \
           traces everything, 0 disables the trace ring).")

(* The telemetry workload shared by `metrics`, `serve` and `soak`: warm
   the loop-prevention machinery on a side net so the loop-cache series
   are non-zero, then cycle precomputed delivery jobs through the
   selected engine, spreading them over all d forwarding tables.
   Returns the assignment too so `soak` can build a service over it. *)
let telemetry_workload () =
  let graph = As_presets.as6461 () in
  let assignment = Assignment.make Lit.default (Rng.of_int 1) graph in
  let net = Net.make assignment in
  let d = Lit.default.Lipsin_bloom.Lit.d in
  let rng = Rng.of_int 42 in
  let n_work = 64 in
  let work =
    Array.init n_work (fun i ->
        let users = 4 + (i mod 13) in
        let picks = Rng.sample rng users (Graph.node_count graph) in
        let root = picks.(0) in
        let subs = Array.to_list (Array.sub picks 1 (users - 1)) in
        let tree = Spt.delivery_tree graph ~root ~subscribers:subs in
        let table = i mod d in
        let c = Candidate.build_one assignment ~tree ~table in
        (root, table, c.Candidate.zfilter, tree))
  in
  (assignment, net, work)

let warm_loop_cache engine =
  (* On a small side net with the fill guard relaxed, an all-ones
     filter matches every port, and TTL mode revisits nodes from
     different in-links, so the cached out-decision disagrees with the
     second arrival. *)
  let all_ones =
    let bv = Bitvec.create Lit.default.Lipsin_bloom.Lit.m in
    Bitvec.set_all bv;
    Zfilter.of_bitvec bv
  in
  let loop_net =
    let g =
      Generator.pref_attach ~rng:(Rng.of_int 9) ~nodes:16 ~edges:27
        ~max_degree:6 ()
    in
    Net.make ~fill_limit:1.0 (Assignment.make Lit.default (Rng.of_int 9) g)
  in
  for _ = 1 to 2 do
    ignore
      (Run.deliver ~engine ~mode:(Run.Ttl 6) loop_net ~src:0 ~table:0
         ~zfilter:all_ones ~tree:[])
  done

let publish ~engine net work ~publications ~last =
  let n_work = Array.length work in
  for i = 0 to publications - 1 do
    let src, table, zfilter, tree = work.(i mod n_work) in
    let o = Run.deliver ~engine net ~src ~table ~zfilter ~tree in
    if o.Run.packet_id >= 0 then last := o.Run.packet_id
  done

let set_sampling sample =
  if sample <= 0 then Obs.Trace.set_recording false
  else Obs.Trace.set_sampling sample

(* Histogram quantile one-liners (p50/p95/p99/p999), appended to the
   text exposition as comments — the human-readable face of the
   ROADMAP's p99/p999 soak gates. *)
let quantile_comments () =
  let b = Buffer.create 512 in
  List.iter
    (fun (name, labels, v) ->
      match v with
      | Obs.Export.Vhistogram s when s.Obs.Histogram.count > 0 ->
        Buffer.add_string b
          (Printf.sprintf
             "# quantiles %s%s count=%d p50=%g p95=%g p99=%g p999=%g max=%g\n"
             name
             (match labels with
             | [] -> ""
             | l ->
               "{"
               ^ String.concat ","
                   (List.map (fun (k, v) -> k ^ "=" ^ v) l)
               ^ "}")
             s.Obs.Histogram.count s.Obs.Histogram.p50 s.Obs.Histogram.p95
             s.Obs.Histogram.p99 s.Obs.Histogram.p999 s.Obs.Histogram.max)
      | _ -> ())
    (Obs.Export.samples ());
  Buffer.contents b

let metrics_cmd =
  let doc =
    "Run a telemetry-instrumented publication workload and print the \
     metrics registry (Prometheus text by default)."
  in
  let run publications engine json trace_n sample out =
    Obs.Sink.set Obs.Sink.Memory;
    set_sampling sample;
    (match out with Some path -> Obs.Export.dump_on_exit ~path | None -> ());
    warm_loop_cache engine;
    let _, net, work = telemetry_workload () in
    let last = ref (-1) in
    publish ~engine net work ~publications ~last;
    if json then print_string (Obs.Export.json ())
    else begin
      print_string (Obs.Export.prometheus ());
      print_string (quantile_comments ())
    end;
    if trace_n > 0 then begin
      Printf.printf "# per-hop trace of publication %d (first %d events)\n"
        !last trace_n;
      List.iteri
        (fun i e -> if i < trace_n then print_endline (Obs.Trace.to_string e))
        (Obs.Trace.packet_events !last)
    end
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(
      const run
      $ Arg.(
          value & opt int 10_000
          & info [ "publications" ] ~docv:"N"
              ~doc:"Publications to deliver through the selected engine.")
      $ engine_arg
      $ Arg.(
          value & flag
          & info [ "json" ] ~doc:"Emit the registry as JSON instead.")
      $ Arg.(
          value & opt int 0
          & info [ "trace" ] ~docv:"N"
              ~doc:"Also dump up to $(docv) per-hop trace events of the last publication.")
      $ sample_arg
      $ Arg.(
          value & opt (some string) None
          & info [ "out" ] ~docv:"FILE"
              ~doc:"Also write the Prometheus exposition to $(docv) on exit."))

let serve_cmd =
  let doc =
    "Serve live metrics over HTTP (/metrics, /healthz, /snapshot) while \
     driving the telemetry workload."
  in
  let run host port publications engine sample rounds self_check flight_dir =
    Obs.Sink.set Obs.Sink.Memory;
    set_sampling sample;
    (match flight_dir with
    | Some dir -> Obs.Flight.configure ~dir ()
    | None -> ());
    warm_loop_cache engine;
    let _, net, work = telemetry_workload () in
    let state = Serve.make () in
    let server = Serve.start ~host ~port state in
    Printf.eprintf "lipsin: serving on %s:%d (sample 1-in-%d)\n%!" host
      (Serve.port server) (max 1 sample);
    let last = ref (-1) in
    if self_check then begin
      (* CI smoke mode: publish one batch, scrape every endpoint
         through a real client, lint the exposition payload, exit
         non-zero on any finding. *)
      publish ~engine net work ~publications ~last;
      let results = Serve.self_check server in
      let failures = ref 0 in
      List.iter
        (fun (path, status, body) ->
          Printf.printf "%s -> %d (%d bytes)\n" path status
            (String.length body);
          if status <> 200 then incr failures;
          if String.equal path "/metrics" then begin
            let findings = Serve.lint_exposition body in
            List.iter
              (fun f ->
                incr failures;
                Printf.printf "  exposition lint: %s\n" f)
              findings;
            if findings = [] then
              Printf.printf "  exposition lint: clean\n"
          end)
        results;
      Serve.stop server;
      if !failures > 0 then exit 1
    end
    else begin
      let forever = rounds <= 0 in
      let r = ref 0 in
      while forever || !r < rounds do
        publish ~engine net work ~publications ~last;
        incr r;
        Unix.sleepf 0.05
      done;
      Serve.stop server
    end
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run
      $ Arg.(
          value & opt string "127.0.0.1"
          & info [ "host" ] ~docv:"HOST" ~doc:"Bind address.")
      $ Arg.(
          value & opt int 0
          & info [ "port" ] ~docv:"PORT"
              ~doc:"Listen port (0 picks an ephemeral port).")
      $ Arg.(
          value & opt int 1_000
          & info [ "publications" ] ~docv:"N"
              ~doc:"Publications per workload round.")
      $ engine_arg
      $ sample_arg
      $ Arg.(
          value & opt int 0
          & info [ "rounds" ] ~docv:"R"
              ~doc:"Workload rounds before exiting (0 = serve forever).")
      $ Arg.(
          value & flag
          & info [ "self-check" ]
              ~doc:
                "Publish one round, scrape every endpoint through a real \
                 client, lint the /metrics payload, then exit (non-zero on \
                 findings).")
      $ Arg.(
          value & opt (some string) None
          & info [ "flight-dir" ] ~docv:"DIR"
              ~doc:"Dump flight-recorder post-mortems into $(docv)."))

let soak_cmd =
  let doc =
    "Sustained-throughput soak: drive the telemetry workload through \
     the persistent forwarding service (long-lived domain pool, \
     work-stealing shards, arena-recycled delivery)."
  in
  let run publications engine workers batch sample =
    Obs.Sink.set Obs.Sink.Memory;
    set_sampling sample;
    let assignment, _net, work = telemetry_workload () in
    let n_work = Array.length work in
    let job_of i =
      let src, table, zfilter, tree = work.(i mod n_work) in
      { Lipsin_sim.Service.job_src = src; job_table = table;
        job_zfilter = zfilter; job_tree = tree }
    in
    let svc = Lipsin_sim.Service.create ?workers ~engine assignment in
    Printf.printf
      "soak: %d publications through %d workers (%d-job batches)\n%!"
      publications
      (Lipsin_sim.Service.workers svc)
      batch;
    let sent = ref 0 in
    let steals = ref 0 in
    let sampled = ref 0 in
    let minor = ref 0.0 in
    let t0 = Unix.gettimeofday () in
    while !sent < publications do
      let count = min batch (publications - !sent) in
      let jobs = Array.init count (fun i -> job_of (!sent + i)) in
      let st = Lipsin_sim.Service.run svc jobs in
      sent := !sent + st.Lipsin_sim.Service.st_jobs;
      steals := !steals + st.Lipsin_sim.Service.st_steals;
      sampled := !sampled + st.Lipsin_sim.Service.st_sampled;
      minor := !minor +. st.Lipsin_sim.Service.st_minor_words
    done;
    let dt = Unix.gettimeofday () -. t0 in
    Lipsin_sim.Service.shutdown svc;
    Printf.printf
      "  %d publications in %.2f s = %.1f ops/sec, %.2f minor words/op, \
       %d steals, %d trace-sampled\n"
      !sent dt
      (float_of_int !sent /. dt)
      (!minor /. float_of_int (max 1 !sent))
      !steals !sampled;
    print_string (quantile_comments ())
  in
  Cmd.v (Cmd.info "soak" ~doc)
    Term.(
      const run
      $ Arg.(
          value & opt int 200_000
          & info [ "publications" ] ~docv:"N"
              ~doc:"Publications to deliver through the service.")
      $ engine_arg
      $ Arg.(
          value & opt (some int) None
          & info [ "workers" ] ~docv:"W"
              ~doc:"Pool size (default: recommended domain count).")
      $ Arg.(
          value & opt int 8192
          & info [ "batch" ] ~docv:"B" ~doc:"Jobs per dispatched batch.")
      $ Arg.(
          value & opt int 1024
          & info [ "sample" ] ~docv:"N"
              ~doc:
                "Trace 1-in-$(docv) publications (every job runs on \
                 the arena loop; sampled ones also record one trace \
                 event per hop).  0 disables the trace ring."))

let () =
  let info =
    Cmd.info "lipsin_cli" ~version:"1.0.0"
      ~doc:"Reproduce the LIPSIN (SIGCOMM 2009) evaluation."
  in
  let group =
    Cmd.group info
      [ table1; table2; table3; fig5; fig6; table4; table5; ftmem; security;
        recovery; interdomain; workload; ablation; splitting; adaptive;
        caching; congestion; bootstrap; latency; goodput; multipath;
        directory; fec; churn; loops; recursive; all; topo_gen; topo_stats; assign_gen;
        forward_cmd; metrics_cmd; serve_cmd; soak_cmd ]
  in
  exit (Cmd.eval group)
