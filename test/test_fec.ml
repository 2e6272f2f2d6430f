(* Tests for Lipsin_fec: XOR parity coding and lateral error
   correction over a lossy fabric. *)

module Xor_code = Lipsin_fec.Xor_code
module Lateral = Lipsin_fec.Lateral
module Lit = Lipsin_bloom.Lit
module Graph = Lipsin_topology.Graph
module Spt = Lipsin_topology.Spt
module Generator = Lipsin_topology.Generator
module Assignment = Lipsin_core.Assignment
module Candidate = Lipsin_core.Candidate
module Net = Lipsin_sim.Net
module Run = Lipsin_sim.Run
module Rng = Lipsin_util.Rng

let window = [ "alpha"; "bravo-longer"; ""; "d" ]

let test_repair_roundtrip_each_loss () =
  let repair = Xor_code.repair window in
  List.iteri
    (fun lost expected ->
      let received =
        List.filteri (fun i _ -> i <> lost) (List.mapi (fun i p -> (i, p)) window)
      in
      match Xor_code.recover ~window_size:4 ~received ~repair with
      | Some (i, payload) ->
        Alcotest.(check int) "right index" lost i;
        Alcotest.(check string) "right payload" expected payload
      | None -> Alcotest.fail "single loss must be recoverable")
    window

let test_recover_none_when_complete () =
  let repair = Xor_code.repair window in
  let received = List.mapi (fun i p -> (i, p)) window in
  Alcotest.(check bool) "nothing missing" true
    (Xor_code.recover ~window_size:4 ~received ~repair = None)

let test_recover_none_on_double_loss () =
  let repair = Xor_code.repair window in
  let received = [ (0, List.nth window 0); (1, List.nth window 1) ] in
  Alcotest.(check bool) "two losses unrecoverable" true
    (Xor_code.recover ~window_size:4 ~received ~repair = None)

let test_recover_validates () =
  let repair = Xor_code.repair window in
  Alcotest.check_raises "duplicate index"
    (Invalid_argument "Xor_code.recover: duplicate index") (fun () ->
      ignore
        (Xor_code.recover ~window_size:4
           ~received:[ (0, "a"); (0, "a"); (1, "b") ]
           ~repair));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Xor_code.recover: index out of range") (fun () ->
      ignore (Xor_code.recover ~window_size:2 ~received:[ (5, "x") ] ~repair));
  Alcotest.check_raises "empty window"
    (Invalid_argument "Xor_code.repair: empty window") (fun () ->
      ignore (Xor_code.repair []))

let test_verify () =
  let repair = Xor_code.repair window in
  Alcotest.(check bool) "matches" true (Xor_code.verify window ~repair);
  Alcotest.(check bool) "detects corruption" false
    (Xor_code.verify [ "alpha"; "bravo-longer"; "!"; "d" ] ~repair)

let prop_single_loss_always_recovers =
  QCheck.Test.make ~name:"any single loss in any window recovers" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 10) (string_of_size (Gen.int_range 0 40)))
        small_nat)
    (fun (payloads, pick) ->
      let n = List.length payloads in
      let lost = pick mod n in
      let repair = Xor_code.repair payloads in
      let received =
        List.filteri (fun i _ -> i <> lost) (List.mapi (fun i p -> (i, p)) payloads)
      in
      match Xor_code.recover ~window_size:n ~received ~repair with
      | Some (i, p) -> i = lost && String.equal p (List.nth payloads lost)
      | None -> false)

let lossy_setup () =
  let g =
    Generator.pref_attach ~rng:(Rng.of_int 199) ~nodes:30 ~edges:50 ~max_degree:8 ()
  in
  let asg = Assignment.make Lit.default (Rng.of_int 211) g in
  (g, asg, Net.make asg)

let test_lossless_window_needs_no_fec () =
  let g, asg, net = lossy_setup () in
  let subscribers = [ 10; 20 ] in
  let tree = Spt.delivery_tree g ~root:0 ~subscribers in
  let c = Candidate.build_one asg ~tree ~table:0 in
  let report =
    Lateral.send_window net ~src:0 ~table:0 ~zfilter:c.Candidate.zfilter ~tree
      ~subscribers
      ~window:[ "a"; "b"; "c"; "d" ]
      ~loss:{ Run.probability = 0.0; rng = Rng.of_int 1 }
  in
  Alcotest.(check int) "all complete without fec" 2 report.Lateral.complete_without_fec

let test_lossy_window_fec_improves () =
  let g, asg, net = lossy_setup () in
  let subscribers = [ 7; 14; 21; 28 ] in
  let tree = Spt.delivery_tree g ~root:0 ~subscribers in
  let c = Candidate.build_one asg ~tree ~table:0 in
  (* Aggregate over many windows so the improvement is statistical. *)
  let without = ref 0 and with_fec = ref 0 and windows = ref 0 in
  let loss_rng = Rng.of_int 223 in
  for _ = 1 to 60 do
    incr windows;
    let report =
      Lateral.send_window net ~src:0 ~table:0 ~zfilter:c.Candidate.zfilter ~tree
        ~subscribers
        ~window:[ "p0"; "p1"; "p2"; "p3"; "p4"; "p5"; "p6"; "p7" ]
        ~loss:{ Run.probability = 0.02; rng = loss_rng }
    in
    without := !without + report.Lateral.complete_without_fec;
    with_fec := !with_fec + report.Lateral.complete_with_fec
  done;
  Alcotest.(check bool) "repair strictly helps" true (!with_fec > !without);
  (* Sanity: recovery never double counts. *)
  Alcotest.(check bool) "bounded by population" true
    (!with_fec <= 4 * !windows)

let test_report_accounting_consistent () =
  let g, asg, net = lossy_setup () in
  let subscribers = [ 5; 25 ] in
  let tree = Spt.delivery_tree g ~root:0 ~subscribers in
  let c = Candidate.build_one asg ~tree ~table:0 in
  let report =
    Lateral.send_window net ~src:0 ~table:0 ~zfilter:c.Candidate.zfilter ~tree
      ~subscribers ~window:[ "x"; "y"; "z" ]
      ~loss:{ Run.probability = 0.15; rng = Rng.of_int 227 }
  in
  List.iter
    (fun r ->
      Alcotest.(check int) "received+recovered+missing = window" 3
        (r.Lateral.received + r.Lateral.recovered + r.Lateral.missing);
      Alcotest.(check bool) "recovered is 0 or 1" true
        (r.Lateral.recovered = 0 || r.Lateral.recovered = 1))
    report.Lateral.subscribers

let test_loss_model_validates () =
  let _, asg, net = lossy_setup () in
  ignore asg;
  List.iter
    (fun probability ->
      Alcotest.check_raises
        (Printf.sprintf "bad probability %g" probability)
        (Invalid_argument "Run.deliver: loss probability outside [0,1)")
        (fun () ->
          ignore
            (Run.deliver
               ~loss:{ Run.probability; rng = Rng.of_int 1 }
               net ~src:0 ~table:0
               ~zfilter:(Lipsin_bloom.Zfilter.create ~m:248)
               ~tree:[])))
    [ 1.0; Float.nan ]

let test_loss_model_drops_and_counts () =
  let g = Graph.create ~nodes:11 in
  for v = 0 to 9 do
    Graph.add_edge g v (v + 1)
  done;
  let asg = Assignment.make Lit.default (Rng.of_int 229) g in
  let net = Net.make asg in
  let tree = Spt.delivery_tree g ~root:0 ~subscribers:[ 10 ] in
  let c = Candidate.build_one asg ~tree ~table:0 in
  let rng = Rng.of_int 233 in
  let drops = ref 0 and deliveries = ref 0 in
  for _ = 1 to 200 do
    let o =
      Run.deliver
        ~loss:{ Run.probability = 0.1; rng }
        net ~src:0 ~table:0 ~zfilter:c.Candidate.zfilter ~tree
    in
    if o.Run.reached.(10) then incr deliveries;
    drops := !drops + o.Run.lost
  done;
  Alcotest.(check bool) "some drops happened" true (!drops > 0);
  (* P(survive 10 hops at 10% loss) ~ 0.35: deliveries well below 200
     but well above 0. *)
  Alcotest.(check bool) "deliveries thinned but present" true
    (!deliveries > 20 && !deliveries < 150)

let () =
  Alcotest.run "fec"
    [
      ( "xor_code",
        [
          Alcotest.test_case "roundtrip each loss" `Quick test_repair_roundtrip_each_loss;
          Alcotest.test_case "none when complete" `Quick test_recover_none_when_complete;
          Alcotest.test_case "none on double loss" `Quick test_recover_none_on_double_loss;
          Alcotest.test_case "validates" `Quick test_recover_validates;
          Alcotest.test_case "verify" `Quick test_verify;
          QCheck_alcotest.to_alcotest prop_single_loss_always_recovers;
        ] );
      ( "lateral",
        [
          Alcotest.test_case "lossless" `Quick test_lossless_window_needs_no_fec;
          Alcotest.test_case "fec improves" `Quick test_lossy_window_fec_improves;
          Alcotest.test_case "accounting" `Quick test_report_accounting_consistent;
          Alcotest.test_case "loss validates" `Quick test_loss_model_validates;
          Alcotest.test_case "loss drops/counts" `Quick test_loss_model_drops_and_counts;
        ] );
    ]
