(* Microbenchmarks for the LIPSIN reproduction, one group per paper
   table/figure plus the design-choice ablations DESIGN.md calls out.

   Groups:
   - alg1        per-decision cost of the forwarding primitive (Table 4/5's
                 inner loop), vs the LPM IP baselines
   - alg1-fast   the same decisions through the compiled Fastpath engine
                 (contiguous word tables, preallocated decision buffer)
   - delivery-fast  whole-tree deliveries through the fast path, plus the
                 Domain-parallel batch front-end
   - construct   zFilter construction + candidate selection (Sec. 3.2),
                 the sender-side cost behind Tables 2/3 and Fig. 5
   - header      wire encode/decode (the per-hop rewrite of Table 4)
   - delivery    whole-tree simulated deliveries (the unit of work behind
                 Tables 2/3 and Fig. 6)
   - ablation-m  Algorithm 1 at m = 120 / 248 / 504 (Sec. 4.2 discussion)
   - topology    tree computation + graph generation (the topology layer) *)

open Bechamel
open Toolkit
module Rng = Lipsin_util.Rng
module Bitvec = Lipsin_bitvec.Bitvec
module Lit = Lipsin_bloom.Lit
module Zfilter = Lipsin_bloom.Zfilter
module Graph = Lipsin_topology.Graph
module Spt = Lipsin_topology.Spt
module Generator = Lipsin_topology.Generator
module As_presets = Lipsin_topology.As_presets
module Assignment = Lipsin_core.Assignment
module Candidate = Lipsin_core.Candidate
module Select = Lipsin_core.Select
module Net = Lipsin_sim.Net
module Run = Lipsin_sim.Run
module Parallel = Lipsin_sim.Parallel
module Node_engine = Lipsin_forwarding.Node_engine
module Fastpath = Lipsin_forwarding.Fastpath
module Bitsliced = Lipsin_forwarding.Bitsliced
module Header = Lipsin_packet.Header
module Lpm = Lipsin_baseline.Lpm

(* The accepted flags.  Anything else prints the usage and exits 2
   before any fixture is built, so a stale or misspelt mode never
   quietly runs the default suite instead. *)
let flags = [ "--smoke"; "--alloc"; "--soak"; "--obs"; "--sweep" ]

let () =
  Array.iteri
    (fun i a ->
      if i > 0 && not (List.exists (String.equal a) flags) then begin
        Printf.eprintf
          "bench: unknown argument %s\n\
           usage: main.exe [--smoke] [--alloc | --soak | --obs | --sweep]\n"
          a;
        exit 2
      end)
    Sys.argv

let flag name = Array.exists (String.equal name) Sys.argv

(* Shared fixtures, built once. *)

let graph = As_presets.as6461 ()
let assignment = Assignment.make Lit.default (Rng.of_int 1) graph
let net = Net.make ~loop_prevention:false assignment

let tree_of users =
  let rng = Rng.of_int (users * 131) in
  let picks = Rng.sample rng users (Graph.node_count graph) in
  ( picks.(0),
    Spt.delivery_tree graph ~root:picks.(0)
      ~subscribers:(Array.to_list (Array.sub picks 1 (users - 1))) )

let src16, tree16 = tree_of 16
let candidate16 = Candidate.build_one assignment ~tree:tree16 ~table:0
let zfilter16 = candidate16.Candidate.zfilter
let test_set16 = Select.default_test_set assignment ~tree:tree16

(* The hub's port LITs for the bare Algorithm 1 loop. *)
let hub =
  Graph.fold_nodes graph ~init:0 ~f:(fun best v ->
      if Graph.out_degree graph v > Graph.out_degree graph best then v else best)

let hub_lits =
  Array.of_list
    (List.map
       (fun l -> Assignment.tag assignment l ~table:0)
       (Graph.out_links graph hub))

let hub_engine = Node_engine.create assignment hub
let hub_fast = Fastpath.compile hub_engine
let hub_bits = Bitsliced.compile hub_engine
let fib5 = Lpm.reference_fib ()

let fib_full =
  let fib = Lpm.create () in
  let rng = Rng.of_int 2 in
  for _ = 1 to 200_000 do
    let len = 16 + Rng.int rng 9 in
    Lpm.add fib ~prefix:(Int64.to_int32 (Rng.int64 rng)) ~len
      ~next_hop:(Rng.int rng 16)
  done;
  fib

let alg1 =
  Test.make_grouped ~name:"alg1"
    [
      Test.make ~name:"zfilter-match-per-port"
        (Staged.stage (fun () -> Zfilter.matches zfilter16 ~lit:hub_lits.(0)));
      Test.make ~name:"alg1-all-ports"
        (Staged.stage (fun () ->
             Array.iter (fun lit -> ignore (Zfilter.matches zfilter16 ~lit)) hub_lits));
      Test.make ~name:"fill-limit-gate"
        (Staged.stage (fun () -> Zfilter.within_fill_limit zfilter16 ~limit:0.7));
      Test.make ~name:"engine-forward-full"
        (Staged.stage (fun () ->
             Node_engine.forward hub_engine ~table:0 ~zfilter:zfilter16
               ~in_link:None));
      Test.make ~name:"lpm-5-routes"
        (Staged.stage (fun () -> Lpm.lookup fib5 0xC0A80142l));
      Test.make ~name:"lpm-200k-routes"
        (Staged.stage (fun () -> Lpm.lookup fib_full 0xC0A80142l));
    ]

let alg1_fast =
  let batch256 = Array.make 256 (zfilter16, -1) in
  Test.make_grouped ~name:"alg1-fast"
    [
      Test.make ~name:"fastpath-decide-full"
        (Staged.stage (fun () ->
             Fastpath.decide hub_fast ~table:0 ~zfilter:zfilter16
               ~in_link_index:(-1)));
      Test.make ~name:"fastpath-batch-256"
        (Staged.stage (fun () ->
             Fastpath.decide_batch hub_fast ~table:0 batch256 ~f:(fun _ _ -> ())));
    ]

let alg1_bitsliced =
  let batch256 = Array.make 256 (zfilter16, -1) in
  Test.make_grouped ~name:"alg1-bitsliced"
    [
      Test.make ~name:"bitsliced-decide-full"
        (Staged.stage (fun () ->
             Bitsliced.decide hub_bits ~table:0 ~zfilter:zfilter16
               ~in_link_index:(-1)));
      Test.make ~name:"bitsliced-batch-256"
        (Staged.stage (fun () ->
             Bitsliced.decide_batch hub_bits ~table:0 batch256 ~f:(fun _ _ -> ())));
    ]

(* The SWAR popcount (satellite of the bit-sliced engine PR) vs the
   per-byte table loop it replaced, over a zFilter-sized span (31 bytes
   for m = 248). *)
let bitvec_group =
  let popbytes =
    Bytes.init 31 (fun i -> Char.chr (((i * 37) + 11) land 0xff))
  in
  let byte_table =
    Array.init 256 (fun i ->
        let rec pop n = if n = 0 then 0 else (n land 1) + pop (n lsr 1) in
        pop i)
  in
  Test.make_grouped ~name:"bitvec"
    [
      Test.make ~name:"popcount-swar-31B"
        (Staged.stage (fun () ->
             Bitvec.popcount_bytes popbytes ~pos:0 ~len:31));
      Test.make ~name:"popcount-per-byte-31B"
        (Staged.stage (fun () ->
             let count = ref 0 in
             for i = 0 to 30 do
               count := !count + byte_table.(Char.code (Bytes.get popbytes i))
             done;
             !count));
    ]

let construct =
  Test.make_grouped ~name:"construct"
    [
      Test.make ~name:"zfilter-build-16-users"
        (Staged.stage (fun () -> Candidate.build_one assignment ~tree:tree16 ~table:0));
      Test.make ~name:"candidates-d8"
        (Staged.stage (fun () -> Candidate.build assignment ~tree:tree16));
      Test.make ~name:"select-fpa"
        (let candidates = Candidate.build assignment ~tree:tree16 in
         Staged.stage (fun () -> Select.select_fpa candidates));
      Test.make ~name:"select-fpr"
        (let candidates = Candidate.build assignment ~tree:tree16 in
         Staged.stage (fun () ->
             Select.select_fpr assignment candidates ~test:test_set16));
    ]

let header =
  let h = Header.make ~d_index:0 ~zfilter:zfilter16 "0123456789abcdef" in
  let encoded = Header.encode h in
  Test.make_grouped ~name:"header"
    [
      Test.make ~name:"encode" (Staged.stage (fun () -> Header.encode h));
      Test.make ~name:"decode" (Staged.stage (fun () -> Header.decode encoded));
    ]

let delivery =
  let src4, tree4 = tree_of 4 in
  let c4 = Candidate.build_one assignment ~tree:tree4 ~table:0 in
  let src32, tree32 = tree_of 32 in
  let c32 = Candidate.build_one assignment ~tree:tree32 ~table:0 in
  Test.make_grouped ~name:"delivery"
    [
      Test.make ~name:"deliver-4-users"
        (Staged.stage (fun () ->
             Run.deliver net ~src:src4 ~table:0 ~zfilter:c4.Candidate.zfilter
               ~tree:tree4));
      Test.make ~name:"deliver-16-users"
        (Staged.stage (fun () ->
             Run.deliver net ~src:src16 ~table:0 ~zfilter:zfilter16 ~tree:tree16));
      Test.make ~name:"deliver-32-users"
        (Staged.stage (fun () ->
             Run.deliver net ~src:src32 ~table:0 ~zfilter:c32.Candidate.zfilter
               ~tree:tree32));
    ]

let delivery_fast =
  let src4, tree4 = tree_of 4 in
  let c4 = Candidate.build_one assignment ~tree:tree4 ~table:0 in
  let src32, tree32 = tree_of 32 in
  let c32 = Candidate.build_one assignment ~tree:tree32 ~table:0 in
  let jobs =
    Array.init 64 (fun i ->
        let users = 4 + (i mod 13) in
        let src, tree = tree_of users in
        let c = Candidate.build_one assignment ~tree ~table:0 in
        {
          Parallel.job_src = src;
          job_table = 0;
          job_zfilter = c.Candidate.zfilter;
          job_tree = tree;
        })
  in
  Test.make_grouped ~name:"delivery-fast"
    [
      Test.make ~name:"deliver-4-users-fast"
        (Staged.stage (fun () ->
             Run.deliver ~engine:`Fast net ~src:src4 ~table:0
               ~zfilter:c4.Candidate.zfilter ~tree:tree4));
      Test.make ~name:"deliver-16-users-fast"
        (Staged.stage (fun () ->
             Run.deliver ~engine:`Fast net ~src:src16 ~table:0 ~zfilter:zfilter16
               ~tree:tree16));
      Test.make ~name:"deliver-32-users-fast"
        (Staged.stage (fun () ->
             Run.deliver ~engine:`Fast net ~src:src32 ~table:0
               ~zfilter:c32.Candidate.zfilter ~tree:tree32));
      Test.make ~name:"parallel-64-jobs-4-domains"
        (Staged.stage (fun () ->
             Parallel.deliver_all ~domains:4 ~engine:`Fast assignment jobs));
    ]

let ablation_m =
  let bench_for m =
    let params = Lit.constant_k ~m ~d:1 ~k:5 in
    let asg = Assignment.make params (Rng.of_int 3) graph in
    let c = Candidate.build_one asg ~tree:tree16 ~table:0 in
    let lits =
      Array.of_list
        (List.map (fun l -> Assignment.tag asg l ~table:0) (Graph.out_links graph hub))
    in
    Test.make
      ~name:(Printf.sprintf "alg1-m%d" m)
      (Staged.stage (fun () ->
           Array.iter
             (fun lit -> ignore (Zfilter.matches c.Candidate.zfilter ~lit))
             lits))
  in
  Test.make_grouped ~name:"ablation-m" [ bench_for 120; bench_for 248; bench_for 504 ]

let topology =
  Test.make_grouped ~name:"topology"
    [
      Test.make ~name:"delivery-tree-16"
        (Staged.stage (fun () ->
             let rng = Rng.of_int 5 in
             let picks = Rng.sample rng 16 (Graph.node_count graph) in
             Spt.delivery_tree graph ~root:picks.(0)
               ~subscribers:(Array.to_list (Array.sub picks 1 15))));
      Test.make ~name:"generate-pref-attach-100"
        (Staged.stage (fun () ->
             Generator.pref_attach ~rng:(Rng.of_int 7) ~nodes:100 ~edges:170
               ~max_degree:16 ()));
    ]

let extensions =
  let module Split = Lipsin_core.Split in
  let module Adaptive = Lipsin_core.Adaptive in
  let module Message = Lipsin_control.Message in
  let module Store = Lipsin_cache.Store in
  let module Discovery = Lipsin_bootstrap.Discovery in
  let module Timed = Lipsin_sim.Timed in
  let _, tree40 =
    let rng = Rng.of_int 211 in
    let picks = Rng.sample rng 40 (Graph.node_count graph) in
    ( picks.(0),
      Spt.delivery_tree graph ~root:picks.(0)
        ~subscribers:(Array.to_list (Array.sub picks 1 39)) )
  in
  let adaptive = Adaptive.make ~d:4 ~k:5 (Rng.of_int 223) graph in
  let activate_msg =
    let lit = Lit.fresh Lit.default (Rng.of_int 227) in
    Message.Vlid_activate { nonce = Lit.nonce lit; tags = Lit.tags lit }
  in
  let encoded_msg = Message.encode activate_msg in
  let store = Store.create ~capacity:256 in
  for i = 0 to 255 do
    Store.insert store ~topic:(Int64.of_int i) ~payload:"seed"
  done;
  Test.make_grouped ~name:"extensions"
    [
      Test.make ~name:"split-plan-40-subs"
        (Staged.stage (fun () ->
             Split.plan ~fill_limit:0.4 assignment ~root:0
               ~subscribers:(Lipsin_topology.Spt.tree_nodes tree40)));
      Test.make ~name:"adaptive-choose"
        (Staged.stage (fun () ->
             Adaptive.choose adaptive ~tree:tree16 ~target_fpa:0.001 ()));
      Test.make ~name:"control-msg-encode"
        (Staged.stage (fun () -> Message.encode activate_msg));
      Test.make ~name:"control-msg-decode"
        (Staged.stage (fun () -> Message.decode encoded_msg));
      Test.make ~name:"cache-lookup-hit"
        (Staged.stage (fun () -> Store.lookup store ~topic:128L));
      Test.make ~name:"cache-insert-evict"
        (let counter = ref 1000 in
         Staged.stage (fun () ->
             incr counter;
             Store.insert store ~topic:(Int64.of_int !counter) ~payload:"x"));
      Test.make ~name:"discovery-full-run-ta2"
        (Staged.stage (fun () ->
             let d = Discovery.create (As_presets.ta2 ()) in
             Discovery.run d));
      Test.make ~name:"timed-deliver-16-users"
        (Staged.stage (fun () ->
             Timed.deliver net ~src:src16 ~table:0 ~zfilter:zfilter16));
    ]

let more_extensions =
  let module Multipath = Lipsin_core.Multipath in
  let module Persist = Lipsin_core.Persist in
  let module Fragment = Lipsin_packet.Fragment in
  let module Xor_code = Lipsin_fec.Xor_code in
  let persisted = Persist.to_string assignment in
  let message = String.init 4000 (fun i -> Char.chr (i mod 256)) in
  let fragments = Fragment.split ~mtu:1500 ~m:248 ~message_id:1l message in
  let window = List.init 8 (fun i -> String.make 1400 (Char.chr (65 + i))) in
  let repair_frame = Xor_code.repair window in
  let received = List.filteri (fun i _ -> i <> 3) (List.mapi (fun i p -> (i, p)) window) in
  Test.make_grouped ~name:"more-extensions"
    [
      Test.make ~name:"multipath-plan"
        (Staged.stage (fun () -> Multipath.plan assignment ~src:0 ~dst:100));
      Test.make ~name:"persist-encode"
        (Staged.stage (fun () -> Persist.to_string assignment));
      Test.make ~name:"persist-decode"
        (Staged.stage (fun () -> Persist.of_string graph persisted));
      Test.make ~name:"fragment-split-4k"
        (Staged.stage (fun () ->
             Fragment.split ~mtu:1500 ~m:248 ~message_id:1l message));
      Test.make ~name:"fragment-reassemble-4k"
        (Staged.stage (fun () ->
             let r = Fragment.reassembler () in
             List.iter (fun f -> ignore (Fragment.offer r f)) fragments));
      Test.make ~name:"xor-repair-8x1400"
        (Staged.stage (fun () -> Xor_code.repair window));
      Test.make ~name:"xor-recover-8x1400"
        (Staged.stage (fun () ->
             Xor_code.recover ~window_size:8 ~received ~repair:repair_frame));
    ]

let layering =
  let module Weights = Lipsin_topology.Weights in
  let module Overlay = Lipsin_recursive.Overlay in
  let weights = Weights.random graph (Rng.of_int 401) ~min:1.0 ~max:10.0 in
  let overlay =
    match
      Overlay.create ~underlay:assignment
        ~attach:(Rng.sample (Rng.of_int 409) 6 (Graph.node_count graph))
        ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ]
        ()
    with
    | Ok o -> o
    | Error e -> failwith e
  in
  Test.make_grouped ~name:"layering"
    [
      Test.make ~name:"dijkstra-tree-16"
        (Staged.stage (fun () ->
             let rng = Rng.of_int 419 in
             let picks = Rng.sample rng 16 (Graph.node_count graph) in
             Weights.delivery_tree weights ~root:picks.(0)
               ~subscribers:(Array.to_list (Array.sub picks 1 15))));
      Test.make ~name:"overlay-publish-3-subs"
        (Staged.stage (fun () ->
             Overlay.publish overlay ~src:0 ~subscribers:[ 2; 4 ]));
    ]

(* --smoke: a one-iteration CI budget — proves every benchmark still
   runs without burning minutes of runner time. *)
let smoke = flag "--smoke"

(* --alloc: the runtime half of the allocation-freedom contract.  For
   every [@lipsin.noalloc] entry point `lipsin_lint --alloc` proves
   statically allocation-free, measure Gc.minor_words per op and fail
   if any gated entry allocates: static proof and runtime measurement
   must agree.  The loop-prevention variant is reported but not gated —
   its cache key is the one [@lipsin.allow_alloc]-suppressed site, so
   a non-zero reading there is the suppression working as documented,
   not drift.  Emits BENCH_PR7.json for the CI artifact. *)
let alloc_mode = flag "--alloc"

let run_alloc () =
  let module Obs = Lipsin_obs.Obs in
  (* Engines without loop prevention: the configuration the noalloc
     proof covers end to end (decide's only suppressed allocation is
     the loop-cache key, which this build never takes). *)
  let hot_engine = Node_engine.create ~loop_prevention:false assignment hub in
  let hot_fast = Fastpath.compile hot_engine in
  let hot_bits = Bitsliced.compile hot_engine in
  let batch256 = Array.make 256 (zfilter16, -1) in
  let iters_hot = if smoke then 10_000 else 100_000 in
  let iters_batch = if smoke then 200 else 1_000 in
  let results = ref [] in
  let failures = ref [] in
  let measure name ~iters ~gated f =
    for _ = 1 to 100 do
      f ()
    done;
    let minor0 = Gc.minor_words () in
    for _ = 1 to iters do
      f ()
    done;
    let per_op = (Gc.minor_words () -. minor0) /. float_of_int iters in
    Printf.printf "  %-28s %8.3f minor words/op%s\n%!" name per_op
      (if gated then "  [gated: must be 0]" else "");
    results := (name, iters, per_op, gated) :: !results;
    if gated && per_op > 0.0 then failures := name :: !failures
  in
  Printf.printf "allocation-freedom check (Gc.minor_words per op)\n%!";
  measure "fastpath-decide" ~iters:iters_hot ~gated:true (fun () ->
      ignore
        (Fastpath.decide hot_fast ~table:0 ~zfilter:zfilter16
           ~in_link_index:(-1)));
  measure "fastpath-decide-batch" ~iters:iters_batch ~gated:true (fun () ->
      Fastpath.decide_batch hot_fast ~table:0 batch256 ~f:(fun _ _ -> ()));
  measure "bitsliced-decide" ~iters:iters_hot ~gated:true (fun () ->
      ignore
        (Bitsliced.decide hot_bits ~table:0 ~zfilter:zfilter16
           ~in_link_index:(-1)));
  measure "bitsliced-decide-batch" ~iters:iters_batch ~gated:true (fun () ->
      Bitsliced.decide_batch hot_bits ~table:0 batch256 ~f:(fun _ _ -> ()));
  measure "bitvec-popcount" ~iters:iters_hot ~gated:true (fun () ->
      ignore (Zfilter.popcount zfilter16));
  measure "bitvec-subset" ~iters:iters_hot ~gated:true (fun () ->
      ignore
        (Bitvec.subset
           (Zfilter.to_bitvec zfilter16)
           ~of_:(Zfilter.to_bitvec zfilter16)));
  (* Obs fast lanes, counters live: first touch registers the
     per-domain cell (the [@lipsin.allow_alloc] site in local_cell);
     the measured steady state must be allocation-free. *)
  Obs.Sink.set Obs.Sink.Memory;
  let c = Obs.Counter.make "bench_alloc_counter" in
  let h = Obs.Histogram.make "bench_alloc_hist" in
  let hc = Obs.Histogram.local h in
  measure "obs-counter-add" ~iters:iters_hot ~gated:true (fun () ->
      Obs.Counter.add c 1);
  measure "obs-hist-record-int" ~iters:iters_hot ~gated:true (fun () ->
      Obs.Histogram.record_int hc 7);
  Obs.Sink.set Obs.Sink.Noop;
  (* Context row: the suppressed loop-prevention cache key.  Reported,
     not gated — see the [@lipsin.allow_alloc] annotations. *)
  measure "fastpath-decide-loop-prevention" ~iters:iters_hot ~gated:false
    (fun () ->
      ignore
        (Fastpath.decide hub_fast ~table:0 ~zfilter:zfilter16
           ~in_link_index:(-1)));
  let entries = List.rev !results in
  let oc = open_out "BENCH_PR7.json" in
  Printf.fprintf oc "{\n  \"entries\": [\n";
  List.iteri
    (fun i (name, iters, per_op, gated) ->
      Printf.fprintf oc
        "    { \"name\": \"%s\", \"iters\": %d, \
         \"minor_words_per_op\": %.3f, \"noalloc_gated\": %b }%s\n"
        name iters per_op gated
        (if i = List.length entries - 1 then "" else ","))
    entries;
  Printf.fprintf oc "  ],\n  \"gate\": \"every noalloc_gated entry at 0.0\"\n}\n";
  close_out oc;
  match !failures with
  | [] -> Printf.printf "alloc check OK: all gated entries at 0 words/op\n%!"
  | names ->
    Printf.printf
      "FAIL: static noalloc proof disagrees with runtime allocation: %s\n%!"
      (String.concat ", " (List.rev names));
    exit 1

(* --obs: paired telemetry-overhead measurement.  Runs the fast-path
   delivery workload with the no-op sink, the memory sink (counters
   only), and the memory sink with tracing, interleaved in fine-grained
   slices (sub-millisecond) so scheduler bursts and clock drift land on
   all three configurations alike.  The reported overhead is the median
   of per-round counters/noop time ratios: a burst hitting one slice of
   a pair makes that round an outlier the median discards.  The
   counters-only overhead is the contract DESIGN.md states: > 3% fails
   the run.  Emits BENCH_PR4.json for the CI artifact. *)
let obs_mode = flag "--obs"

let run_obs () =
  let module Obs = Lipsin_obs.Obs in
  let module Stats = Lipsin_util.Stats in
  let iters = if smoke then 50 else 120 in
  let rounds = if smoke then 60 else 250 in
  let deliver () =
    ignore
      (Run.deliver ~engine:`Fast net ~src:src16 ~table:0 ~zfilter:zfilter16
         ~tree:tree16)
  in
  let time_slice () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      deliver ()
    done;
    Unix.gettimeofday () -. t0
  in
  let sample_every = 1024 in
  let configure = function
    | `Noop -> Obs.Sink.set Obs.Sink.Noop
    | `Counters ->
      Obs.Sink.set Obs.Sink.Memory;
      Obs.Trace.set_recording false
    | `Traced ->
      Obs.Sink.set Obs.Sink.Memory;
      Obs.Trace.set_recording true;
      Obs.Trace.set_sampling 1
    | `Sampled ->
      Obs.Sink.set Obs.Sink.Memory;
      Obs.Trace.set_recording true;
      Obs.Trace.set_sampling sample_every
  in
  let configs = [| `Noop; `Counters; `Traced; `Sampled |] in
  let n_cfg = Array.length configs in
  let samples = Array.make_matrix n_cfg rounds 0.0 in
  (* Warm every sink (engine compiles, Obs cells, trace ring). *)
  Array.iter (fun c -> configure c; ignore (time_slice ())) configs;
  (* Shuffle the order within each round: with a fixed order, slice i
     always inherits slice i-1's GC debt and the comparison tilts. *)
  let order_rng = Rng.of_int 0x0b5 in
  for r = 0 to rounds - 1 do
    let order = Rng.sample order_rng n_cfg n_cfg in
    Array.iter
      (fun i ->
        configure configs.(i);
        samples.(i).(r) <- time_slice ())
      order
  done;
  Obs.Trace.set_sampling 1;
  let median xs = Stats.percentile xs 50.0 in
  let ratios i =
    median (Array.init rounds (fun r -> samples.(i).(r) /. samples.(0).(r)))
  in
  let noop = median samples.(0) /. float_of_int iters *. 1e9 in
  let counters = noop *. ratios 1 in
  let traced = noop *. ratios 2 in
  let sampled = noop *. ratios 3 in
  (* Per-delivery latency distribution and allocation rate, measured
     with the instrumented (counters) configuration. *)
  configure `Counters;
  let lat_n = if smoke then 500 else 3000 in
  let lat = Array.init lat_n (fun _ ->
      let t0 = Unix.gettimeofday () in
      deliver ();
      (Unix.gettimeofday () -. t0) *. 1e9)
  in
  let minor0 = Gc.minor_words () in
  for _ = 1 to lat_n do deliver () done;
  let minor_per_op = (Gc.minor_words () -. minor0) /. float_of_int lat_n in
  configure `Noop;
  Obs.Trace.set_recording true;
  let p99 = Stats.percentile lat 99.0 in
  let overhead_counters = 100.0 *. ((counters -. noop) /. noop) in
  let overhead_traced = 100.0 *. ((traced -. noop) /. noop) in
  let overhead_sampled = 100.0 *. ((sampled -. noop) /. noop) in
  Printf.printf "telemetry overhead (deliver-16-users-fast, %d iters x %d rounds)\n" iters rounds;
  Printf.printf "  noop sink      %12.1f ns/op\n" noop;
  Printf.printf "  counters       %12.1f ns/op  (%+.2f%%)\n" counters overhead_counters;
  Printf.printf "  counters+trace %12.1f ns/op  (%+.2f%%)\n" traced overhead_traced;
  Printf.printf "  sampled 1/%-4d %12.1f ns/op  (%+.2f%%)\n" sample_every sampled
    overhead_sampled;
  Printf.printf "  p99 latency    %12.1f ns     minor words/op %.1f\n%!" p99 minor_per_op;
  (* `overhead` rows (config, ratio-vs-noop) are the shape lipsin_report
     extracts conclusions from; both files carry them. *)
  let overhead_rows =
    Printf.sprintf
      "  \"overhead\": [\n\
      \    { \"config\": \"counters\", \"ratio\": %.5f, \"ns_per_op\": %.1f },\n\
      \    { \"config\": \"traced\", \"ratio\": %.5f, \"ns_per_op\": %.1f },\n\
      \    { \"config\": \"sampled-1-in-%d\", \"ratio\": %.5f, \"ns_per_op\": %.1f }\n\
      \  ]"
      (counters /. noop) counters (traced /. noop) traced sample_every
      (sampled /. noop) sampled
  in
  let oc = open_out "BENCH_PR4.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"deliver-16-users-fast\",\n\
    \  \"iters_per_round\": %d,\n\
    \  \"rounds\": %d,\n\
    \  \"noop_ns_per_op\": %.1f,\n\
    \  \"counters_ns_per_op\": %.1f,\n\
    \  \"traced_ns_per_op\": %.1f,\n\
    \  \"ops_per_sec\": %.1f,\n\
    \  \"p99_ns\": %.1f,\n\
    \  \"minor_words_per_op\": %.1f,\n\
    \  \"overhead_counters_pct\": %.3f,\n\
    \  \"overhead_traced_pct\": %.3f,\n\
     %s\n\
     }\n"
    iters rounds noop counters traced
    (1e9 /. counters)
    p99 minor_per_op overhead_counters overhead_traced overhead_rows;
  close_out oc;
  let oc = open_out "BENCH_PR9.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"deliver-16-users-fast\",\n\
    \  \"iters_per_round\": %d,\n\
    \  \"rounds\": %d,\n\
    \  \"sample_every\": %d,\n\
    \  \"noop_ns_per_op\": %.1f,\n\
     %s,\n\
    \  \"gate\": \"sampled 1-in-%d tracing ratio < 1.03 vs noop sink\"\n\
     }\n"
    iters rounds sample_every noop overhead_rows sample_every;
  close_out oc;
  if overhead_counters > 3.0 then begin
    Printf.printf "FAIL: counters-only telemetry overhead %.2f%% > 3%%\n%!"
      overhead_counters;
    exit 1
  end;
  if sampled /. noop >= 1.03 then begin
    Printf.printf
      "FAIL: sampled 1-in-%d tracing overhead %.2f%% breaks the < 3%% gate\n%!"
      sample_every overhead_sampled;
    exit 1
  end

(* --sweep: two sweeps back to back.

   1. Scalar-vs-bit-sliced decision cost over node degree.  Star
      topologies isolate the per-port sweep (one hub, deg leaves, no
      other structure); the zFilter pool mixes sparse and denser
      filters so both engines run their survivor-recovery paths.  The
      16- and 32-port rows bracket `Auto's crossover
      (Bitsliced.auto_threshold): below it the scalar fast path must
      win, above it the bit-sliced engine.  Emits BENCH_PR5.json and
      fails if the bit-sliced engine is not ahead from 64 ports up —
      the premise behind `Auto's threshold.

   2. Single-filter vs partitioned zFilters over subscriber count
      (10^3 up to 10^5; 10^6 with LIPSIN_SWEEP_HUGE=1) on two-tier
      Rocketfuel-like topologies.  Per point: Stagecut.plan, Netcheck
      exactly-once verification, and a stitched delivery through each
      engine with bit-for-bit agreement of the delivered sets.  Emits
      BENCH_PR6.json and fails if any point misses exactly-once, has
      Netcheck errors, or shows engine disagreement. *)
let sweep_mode = flag "--sweep"

let run_sweep () =
  let module Stats = Lipsin_util.Stats in
  let degrees = [| 8; 16; 32; 64; 256; 1024 |] in
  let rounds = 5 in
  let iters = if smoke then 400 else 5000 in
  let results =
    Array.map
      (fun deg ->
        let g = Graph.create ~nodes:(deg + 1) in
        for leaf = 1 to deg do
          Graph.add_edge g 0 leaf
        done;
        let asg = Assignment.make Lit.default (Rng.of_int (deg + 5)) g in
        let engine = Node_engine.create ~loop_prevention:false asg 0 in
        let fp = Fastpath.compile engine in
        let bs = Bitsliced.compile engine in
        let out = Array.of_list (Graph.out_links g 0) in
        let rng = Rng.of_int (0x5eed + deg) in
        let n_pool = 64 in
        let pool =
          Array.init n_pool (fun _ ->
              let nsel = min 16 deg in
              let picks = Rng.sample rng nsel deg in
              Zfilter.of_tags ~m:Lit.default.Lit.m
                (Array.to_list
                   (Array.map (fun i -> Assignment.tag asg out.(i) ~table:0) picks)))
        in
        let batch = Array.map (fun z -> (z, -1)) pool in
        let time_engine decide =
          let samples =
            Array.init rounds (fun _ ->
                let t0 = Unix.gettimeofday () in
                for _ = 1 to iters do
                  Array.iter decide pool
                done;
                (Unix.gettimeofday () -. t0)
                /. float_of_int (iters * n_pool) *. 1e9)
          in
          Stats.percentile samples 50.0
        in
        let scalar_ns =
          time_engine (fun z ->
              ignore (Fastpath.decide fp ~table:0 ~zfilter:z ~in_link_index:(-1)))
        in
        let bits_ns =
          time_engine (fun z ->
              ignore (Bitsliced.decide bs ~table:0 ~zfilter:z ~in_link_index:(-1)))
        in
        let batch_ns =
          let samples =
            Array.init rounds (fun _ ->
                let t0 = Unix.gettimeofday () in
                for _ = 1 to iters do
                  Bitsliced.decide_batch bs ~table:0 batch ~f:(fun _ _ -> ())
                done;
                (Unix.gettimeofday () -. t0)
                /. float_of_int (iters * n_pool) *. 1e9)
          in
          Stats.percentile samples 50.0
        in
        (deg, Bitsliced.plane_bits bs, scalar_ns, bits_ns, batch_ns))
      degrees
  in
  Printf.printf "engine sweep over hub degree (%d zFilters x %d iters, median of %d rounds)\n"
    64 iters rounds;
  Printf.printf "%6s %6s %14s %14s %14s %9s\n" "ports" "plane" "scalar ns/op"
    "bitsliced ns" "batch ns/op" "speedup";
  Array.iter
    (fun (deg, plane, s, b, bb) ->
      Printf.printf "%6d %6d %14.1f %14.1f %14.1f %8.2fx\n%!" deg plane s b bb
        (s /. b))
    results;
  let oc = open_out "BENCH_PR5.json" in
  Printf.fprintf oc "{\n  \"sweep\": [\n";
  Array.iteri
    (fun i (deg, plane, s, b, bb) ->
      Printf.fprintf oc
        "    { \"ports\": %d, \"plane_bits\": %d, \"scalar_ns\": %.1f, \
         \"bitsliced_ns\": %.1f, \"batch_ns\": %.1f, \"speedup\": %.2f }%s\n"
        deg plane s b bb (s /. b)
        (if i = Array.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  let regressed =
    Array.exists (fun (deg, _, s, b, _) -> deg >= 64 && b > s) results
  in
  if regressed then begin
    Printf.printf
      "FAIL: bit-sliced engine slower than the scalar fast path at >= 64 ports\n%!";
    exit 1
  end

let run_partition_sweep () =
  let module Adaptive = Lipsin_core.Adaptive in
  let module Stagecut = Lipsin_core.Stagecut in
  let module Partition = Lipsin_bloom.Partition in
  let module Netcheck = Lipsin_analysis.Netcheck in
  let module Stitched = Lipsin_sim.Stitched in
  let module Scenario = Lipsin_workload.Scenario in
  let counts =
    if smoke then [ 1_000; 10_000 ]
    else if Sys.getenv_opt "LIPSIN_SWEEP_HUGE" <> None then
      [ 1_000; 10_000; 100_000; 1_000_000 ]
    else [ 1_000; 10_000; 100_000 ]
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let widths_str ws =
    String.concat ","
      (List.map (fun (m, n) -> Printf.sprintf "%d:%d" m n) ws)
  in
  Printf.printf
    "\npartition sweep: single-filter vs stitched stages over subscribers\n";
  Printf.printf "%9s %7s %7s %6s %9s %6s %5s %8s %8s %9s %7s %5s\n" "subs"
    "nodes" "stages" "single" "bits" "fill" "nchk" "plan ms" "chk ms"
    "deliver" "extra" "dup";
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let points =
    List.map
      (fun count ->
        (* Backbone scale tracks the audience: ~Rocketfuel-core size
           for the large points.  d = 2 at the extreme point keeps the
           per-width tag tables inside CI memory. *)
        let core = max 100 (min 1_000 (count / 100)) in
        let d = if count >= 1_000_000 then 2 else 8 in
        let g, hosts =
          Scenario.two_tier ~seed:(5 + count) ~core ~core_edges:(2 * core)
            ~max_degree:32 ~hosts:count ()
        in
        let adaptive = Adaptive.make ~d ~k:5 (Rng.of_int (0xcafe + count)) g in
        let root = 0 in
        let tree = Spt.delivery_tree g ~root ~subscribers:hosts in
        let single_ok =
          Option.is_some (Adaptive.choose adaptive ~tree ~target_fpa:1.0 ())
        in
        if single_ok then
          fail "%d subscribers: a single zFilter fits — sweep premise broken"
            count;
        let planned, plan_ms =
          time (fun () ->
              Stagecut.plan adaptive ~rng:(Rng.of_int (0xd1ce + count)) ~root
                ~subscribers:hosts)
        in
        match planned with
        | Error e ->
          fail "%d subscribers: Stagecut.plan failed: %s" count e;
          `Failed (count, e)
        | Ok (part, diag) ->
          let findings, check_ms =
            time (fun () ->
                Netcheck.check_partition ~subscribers:hosts adaptive part)
          in
          let n_errors = List.length (Netcheck.errors findings) in
          if n_errors > 0 then
            fail "%d subscribers: %d Netcheck error(s), first: %s" count
              n_errors
              (Netcheck.to_string (List.hd (Netcheck.errors findings)));
          let stitched = Stitched.make adaptive in
          Stitched.install stitched part;
          let engines =
            List.map
              (fun (name, engine) ->
                let o, ms =
                  time (fun () -> Stitched.deliver ~engine stitched part)
                in
                (match Stitched.exactly_once o part with
                | Ok () -> ()
                | Error e ->
                  fail "%d subscribers (%s): exactly-once violated: %s" count
                    name e);
                (name, o, ms))
              [ ("reference", `Reference); ("fast", `Fast);
                ("bitsliced", `Bitsliced); ("auto", `Auto) ]
          in
          Stitched.uninstall stitched part;
          let _, ref_o, _ = List.hd engines in
          List.iter
            (fun (name, o, _) ->
              if o.Stitched.delivered <> ref_o.Stitched.delivered then
                fail
                  "%d subscribers: %s engine delivered set differs from \
                   reference"
                  count name)
            (List.tl engines);
          let agree =
            List.for_all
              (fun (_, o, _) -> o.Stitched.delivered = ref_o.Stitched.delivered)
              engines
          in
          let deliver_ms =
            List.map (fun (name, _, ms) -> (name, ms)) engines
          in
          let extra = Stitched.extra_deliveries ref_o part in
          let eo = Result.is_ok (Stitched.exactly_once ref_o part) in
          Printf.printf
            "%9d %7d %7d %6s %9d %6.3f %5d %8.1f %8.1f %9.1f %7d %5d\n%!"
            count (Graph.node_count g) diag.Stagecut.stages
            (if single_ok then "yes" else "no")
            (Partition.total_filter_bits part)
            (Partition.max_fill part) n_errors plan_ms check_ms
            (List.assoc "auto" deliver_ms) extra
            ref_o.Stitched.duplicate_handoffs;
          `Point
            ( count, core, Graph.node_count g, Graph.link_count g, d,
              List.length tree, single_ok, diag, part, n_errors, plan_ms,
              check_ms, deliver_ms, ref_o, extra, eo, agree ))
      counts
  in
  let oc = open_out "BENCH_PR6.json" in
  Printf.fprintf oc "{\n  \"subscriber_sweep\": [\n";
  let n_points = List.length points in
  List.iteri
    (fun i point ->
      let sep = if i = n_points - 1 then "" else "," in
      match point with
      | `Failed (count, e) ->
        Printf.fprintf oc
          "    { \"subscribers\": %d, \"plan_error\": %S }%s\n" count e sep
      | `Point
          ( count, core, nodes, links, d, tree_links, single_ok, diag, part,
            n_errors, plan_ms, check_ms, deliver_ms, ref_o, extra, eo, agree )
        ->
        Printf.fprintf oc
          "    { \"subscribers\": %d, \"core\": %d, \"nodes\": %d, \
           \"links\": %d, \"d\": %d, \"tree_links\": %d,\n\
          \      \"single_filter_ok\": %b, \"stages\": %d, \"widths\": %S, \
           \"filter_bits\": %d, \"max_fill\": %.4f, \"redraws\": %d,\n\
          \      \"netcheck_errors\": %d, \"plan_ms\": %.1f, \
           \"netcheck_ms\": %.1f,\n\
          \      \"deliver_ms\": { %s },\n\
          \      \"traversals\": %d, \"extra_deliveries\": %d, \
           \"duplicate_handoffs\": %d, \"exactly_once\": %b, \
           \"engines_agree\": %b }%s\n"
          count core nodes links d tree_links single_ok diag.Stagecut.stages
          (widths_str diag.Stagecut.widths_used)
          (Partition.total_filter_bits part)
          (Partition.max_fill part) diag.Stagecut.redraws n_errors plan_ms
          check_ms
          (String.concat ", "
             (List.map
                (fun (name, ms) -> Printf.sprintf "\"%s\": %.1f" name ms)
                deliver_ms))
          ref_o.Stitched.link_traversals extra
          ref_o.Stitched.duplicate_handoffs eo agree sep)
    points;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  if !failures <> [] then begin
    List.iter (Printf.printf "FAIL: %s\n") (List.rev !failures);
    Printf.printf "FAIL: partition sweep gate (%d violation(s))\n%!"
      (List.length !failures);
    exit 1
  end

(* --soak: the sustained-throughput gate.  Drives the persistent
   forwarding service (Service: long-lived domain pool, work-stealing
   shards, arena-recycled zero-alloc delivery) with the exact PR4
   workload shape — the deliver-16-users-fast publication — for tens of
   millions of publications in one process.  Warmup is excluded; the
   measured run is split into trajectory windows so drift (a leak, a
   degrading pool) shows up as a trend, not an average.  Gates:

   - ops/sec >= 2x BENCH_PR4's sequential deliver-16-users-fast
     ops_per_sec (the spawn-free pool must beat one core by more than
     the core count excuse);
   - minor words/op <= 64 on the steady-state path (vs ~6.8k/op for
     the allocating Run.deliver the arena replaced) — worker Gc deltas
     plus dispatcher-side allocation, nothing exempted;
   - service counter totals bit-for-bit equal measured_ops x the
     sequential Run.deliver counters for the same publication (a
     silent-corruption tripwire at scale).

   Emits BENCH_PR10.json (trajectory + summary + gates) for the CI
   artifact.  Smoke mode runs ~150k publications in 1-2 s; env
   overrides: LIPSIN_SOAK_OPS, LIPSIN_SOAK_WORKERS. *)
let soak_mode = flag "--soak"

let getenv_pos_int name default =
  match Sys.getenv_opt name with
  | Some s ->
    (match int_of_string_opt s with Some v when v > 0 -> v | _ -> default)
  | None -> default

let run_soak () =
  let module Obs = Lipsin_obs.Obs in
  let module Service = Lipsin_sim.Service in
  let module Json = Lipsin_reporting.Report.Json in
  Obs.Sink.set Obs.Sink.Memory;
  Obs.Trace.set_recording true;
  Obs.Trace.set_sampling 1024;
  let workers =
    getenv_pos_int "LIPSIN_SOAK_WORKERS" (Domain.recommended_domain_count ())
  in
  let total_ops =
    getenv_pos_int "LIPSIN_SOAK_OPS" (if smoke then 150_000 else 10_000_000)
  in
  let batch = 8_192 in
  let windows = 10 in
  let warmup = max batch (min (total_ops / 20) 100_000) in
  let jobs =
    Array.make batch
      {
        Service.job_src = src16;
        job_table = 0;
        job_zfilter = zfilter16;
        job_tree = tree16;
      }
  in
  (* The sequential ground truth for the correctness tripwire: every
     soak job is this exact publication, so service totals must be
     measured_ops multiples of these counters. *)
  let seq =
    Run.deliver ~engine:`Fast net ~src:src16 ~table:0 ~zfilter:zfilter16
      ~tree:tree16
  in
  let seq_reached =
    Array.fold_left (fun n r -> if r then n + 1 else n) 0 seq.Run.reached
  in
  (* Registration is idempotent per (name, labels): this is the same
     histogram the service's workers feed 1-in-64 job timings into. *)
  let h_job = Obs.Histogram.make "lipsin_service_job_seconds" in
  let svc = Service.create ~workers ~engine:`Fast assignment in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* One measured block of [ops] publications: wall time, worker minor
     words (summed Gc deltas) plus the dispatcher's own delta — the
     words/op gate exempts nothing — and the outcome counter sums. *)
  let run_ops ops =
    let remaining = ref ops in
    let n_jobs = ref 0 and steals = ref 0 and sampled = ref 0 in
    let traversals = ref 0 and fps = ref 0 and tests = ref 0 in
    let fills = ref 0 and loops = ref 0 and locals = ref 0 in
    let reached = ref 0 in
    let words = ref 0.0 in
    let minor0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    while !remaining > 0 do
      let n = min batch !remaining in
      let arr = if n = batch then jobs else Array.sub jobs 0 n in
      let st = Service.run svc arr in
      remaining := !remaining - n;
      n_jobs := !n_jobs + st.Service.st_jobs;
      steals := !steals + st.Service.st_steals;
      sampled := !sampled + st.Service.st_sampled;
      traversals := !traversals + st.Service.st_link_traversals;
      fps := !fps + st.Service.st_false_positives;
      tests := !tests + st.Service.st_membership_tests;
      fills := !fills + st.Service.st_fill_drops;
      loops := !loops + st.Service.st_loop_drops;
      locals := !locals + st.Service.st_local_deliveries;
      reached := !reached + st.Service.st_nodes_reached;
      words := !words +. st.Service.st_minor_words
    done;
    let wall = Unix.gettimeofday () -. t0 in
    let all_words = !words +. (Gc.minor_words () -. minor0) in
    ( !n_jobs, wall, all_words, !steals, !sampled,
      (!traversals, !fps, !tests, !fills, !loops, !locals, !reached) )
  in
  Printf.printf
    "soak: deliver-16-users-fast via the persistent service (%d workers, \
     %d warmup + %d measured publications, %d-job batches)\n%!"
    workers warmup total_ops batch;
  ignore (run_ops warmup);
  (* Drop warmup's histogram observations and counters so every
     reported number covers the measured run only.  The pool is idle
     between batches, so instrumented code is quiescent here. *)
  Obs.reset ();
  let per_window = (total_ops + windows - 1) / windows in
  let rows = ref [] in
  let t_jobs = ref 0 and t_steals = ref 0 and t_sampled = ref 0 in
  let t_wall = ref 0.0 and t_words = ref 0.0 in
  let t_trav = ref 0 and t_fps = ref 0 and t_tests = ref 0 in
  let t_fills = ref 0 and t_loops = ref 0 and t_locals = ref 0 in
  let t_reached = ref 0 in
  Printf.printf "%7s %12s %12s %14s %10s %10s\n" "window" "ops"
    "ops/sec" "minor w/op" "p99 us" "p999 us";
  for w = 1 to windows do
    let ops = min per_window (total_ops - !t_jobs) in
    if ops > 0 then begin
      let n, wall, words, steals, sampled, (trav, fps, tests, fills, loops, locals, reached) =
        run_ops ops
      in
      t_jobs := !t_jobs + n;
      t_wall := !t_wall +. wall;
      t_words := !t_words +. words;
      t_steals := !t_steals + steals;
      t_sampled := !t_sampled + sampled;
      t_trav := !t_trav + trav;
      t_fps := !t_fps + fps;
      t_tests := !t_tests + tests;
      t_fills := !t_fills + fills;
      t_loops := !t_loops + loops;
      t_locals := !t_locals + locals;
      t_reached := !t_reached + reached;
      (* The histogram is cumulative over the measured run: the
         trajectory shows the tail settling, not per-window tails. *)
      let s = Obs.Histogram.summary h_job in
      let ops_s = float_of_int n /. wall in
      let wpo = words /. float_of_int n in
      let p99 = s.Obs.Histogram.p99 *. 1e6 in
      let p999 = s.Obs.Histogram.p999 *. 1e6 in
      Printf.printf "%7d %12d %12.1f %14.2f %10.1f %10.1f\n%!" w n ops_s
        wpo p99 p999;
      rows := (w, n, ops_s, wpo, p99, p999) :: !rows
    end
  done;
  Service.shutdown svc;
  let ops_per_sec = float_of_int !t_jobs /. !t_wall in
  let words_per_op = !t_words /. float_of_int !t_jobs in
  let s = Obs.Histogram.summary h_job in
  let p99_us = s.Obs.Histogram.p99 *. 1e6 in
  let p999_us = s.Obs.Histogram.p999 *. 1e6 in
  (* The counter tripwire: totals must be exact multiples of the
     sequential outcome. *)
  let expect name total per =
    if total <> !t_jobs * per then
      fail "%s: service total %d <> %d ops x %d sequential" name total
        !t_jobs per
  in
  expect "link_traversals" !t_trav seq.Run.link_traversals;
  expect "false_positives" !t_fps seq.Run.false_positives;
  expect "membership_tests" !t_tests seq.Run.membership_tests;
  expect "fill_drops" !t_fills seq.Run.fill_drops;
  expect "loop_drops" !t_loops seq.Run.loop_drops;
  expect "local_deliveries" !t_locals seq.Run.local_deliveries;
  expect "nodes_reached" !t_reached seq_reached;
  let counters_ok = !failures = [] in
  (* Baseline gates from the committed BENCH_PR4.json (the sequential
     deliver-16-users-fast measurement this PR doubles). *)
  let baseline =
    let read path =
      try
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        Some s
      with Sys_error _ -> None
    in
    match read "BENCH_PR4.json" with
    | None -> None
    | Some text ->
      (match Json.parse text with
      | Error _ -> None
      | Ok j ->
        let f k = Option.bind (Json.member k j) Json.to_float in
        (match (f "ops_per_sec", f "minor_words_per_op") with
        | Some o, Some m -> Some (o, m)
        | _ -> None))
  in
  let words_budget = 64.0 in
  (match baseline with
  | Some (base_ops, _) ->
    if ops_per_sec < 2.0 *. base_ops then
      fail
        "ops/sec %.1f below 2x the BENCH_PR4 sequential baseline %.1f"
        ops_per_sec base_ops
  | None ->
    Printf.printf
      "  (BENCH_PR4.json missing or unparsable: ops/sec gate skipped)\n%!");
  if words_per_op > words_budget then
    fail "minor words/op %.2f over the %.0f steady-state budget"
      words_per_op words_budget;
  Printf.printf
    "  total: %d ops in %.2f s = %.1f ops/sec, %.2f minor words/op, \
     p99 %.1f us, p999 %.1f us, %d steals, %d sampled\n%!"
    !t_jobs !t_wall ops_per_sec words_per_op p99_us p999_us !t_steals
    !t_sampled;
  let oc = open_out "BENCH_PR10.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"soak-deliver-16-users-fast\",\n\
    \  \"workers\": %d,\n\
    \  \"batch_jobs\": %d,\n\
    \  \"warmup_ops\": %d,\n\
    \  \"trajectory\": [\n"
    workers batch warmup;
  let rows = List.rev !rows in
  List.iteri
    (fun i (w, n, ops_s, wpo, p99, p999) ->
      Printf.fprintf oc
        "    { \"window\": %d, \"ops\": %d, \"ops_per_sec\": %.1f, \
         \"minor_words_per_op\": %.2f, \"p99_us\": %.1f, \
         \"p999_us\": %.1f }%s\n"
        w n ops_s wpo p99 p999
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc
    "  ],\n\
    \  \"summary\": {\n\
    \    \"measured_ops\": %d,\n\
    \    \"elapsed_s\": %.3f,\n\
    \    \"ops_per_sec\": %.1f,\n\
    \    \"minor_words_per_op\": %.2f,\n\
    \    \"p99_us\": %.1f,\n\
    \    \"p999_us\": %.1f,\n\
    \    \"steals\": %d,\n\
    \    \"sampled_publications\": %d,\n\
    \    \"counters_match_sequential\": %b%s\n\
    \  },\n\
    \  \"gates\": [\n\
    \    \"ops_per_sec >= 2x BENCH_PR4 deliver-16-users-fast\",\n\
    \    \"minor_words_per_op <= %.0f\",\n\
    \    \"counter totals == measured_ops x sequential Run.deliver\"\n\
    \  ]\n\
     }\n"
    !t_jobs !t_wall ops_per_sec words_per_op p99_us p999_us !t_steals
    !t_sampled counters_ok
    (match baseline with
    | Some (base_ops, base_words) ->
      Printf.sprintf
        ",\n\
        \    \"baseline_ops_per_sec\": %.1f,\n\
        \    \"speedup_vs_pr4\": %.2f,\n\
        \    \"pr4_minor_words_per_op\": %.1f,\n\
        \    \"alloc_reduction_x\": %.1f"
        base_ops (ops_per_sec /. base_ops) base_words
        (if words_per_op > 0.0 then base_words /. words_per_op else 0.0)
    | None -> "")
    words_budget;
  close_out oc;
  if !failures <> [] then begin
    List.iter (Printf.printf "FAIL: %s\n") (List.rev !failures);
    Printf.printf "FAIL: soak gate (%d violation(s))\n%!"
      (List.length !failures);
    exit 1
  end;
  Printf.printf "soak OK: gates hold over %d publications\n%!" !t_jobs

let benchmark tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if smoke then Benchmark.cfg ~limit:1 ~quota:(Time.second 0.001) ~stabilize:false ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  results

let print_results results =
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let ns =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
      in
      Printf.printf "%-40s %12.1f ns/run\n%!" name ns)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

let () =
  if alloc_mode then run_alloc ()
  else if soak_mode then run_soak ()
  else if obs_mode then run_obs ()
  else if sweep_mode then begin
    run_sweep ();
    run_partition_sweep ()
  end
  else begin
    Printf.printf "LIPSIN benchmarks (Bechamel, monotonic clock)\n%!";
    List.iter
      (fun tests -> print_results (benchmark tests))
      [ alg1; alg1_fast; alg1_bitsliced; bitvec_group; construct; header;
        delivery; delivery_fast; ablation_m; topology; extensions;
        more_extensions; layering ]
  end
