(* The packed row layout at its boundaries.  Widths where m + 1 straddles
   a 63-bit group boundary (62, 63, 64, 125, 126, 127) plus the
   deployment widths 120, 248 and 504:

   - packing: every bit of a loaded zFilter lands in group i / 63 at bit
     i mod 63, nothing lands at or beyond bit m, and the loaded popcount
     is the zFilter's;
   - deliveries: one filter is loaded once and reused by every hop of an
     expand-once delivery, through the compiled engine, and each hop's
     verdict must equal Node_engine's.  The network carries down links
     (kill bits), block vetoes, virtual links, services and stitch
     entries, and the filters sit exactly at the fill threshold and one
     bit above it. *)

module Bitvec = Lipsin_bitvec.Bitvec
module Lit = Lipsin_bloom.Lit
module Zfilter = Lipsin_bloom.Zfilter
module Partition = Lipsin_bloom.Partition
module Graph = Lipsin_topology.Graph
module Generator = Lipsin_topology.Generator
module Assignment = Lipsin_core.Assignment
module Node_engine = Lipsin_forwarding.Node_engine
module Fastpath = Lipsin_forwarding.Fastpath
module Rows = Lipsin_forwarding.Rows
module Audit = Lipsin_analysis.Audit
module Rng = Lipsin_util.Rng

let widths = [ 62; 63; 64; 125; 126; 127; 120; 248; 504 ]

let link_indexes v = List.map (fun l -> l.Graph.index) v

let same_verdict (a : Node_engine.verdict) (b : Node_engine.verdict) =
  link_indexes a.Node_engine.forward_on = link_indexes b.Node_engine.forward_on
  && a.Node_engine.deliver_local = b.Node_engine.deliver_local
  && a.Node_engine.services_matched = b.Node_engine.services_matched
  && a.Node_engine.stitches_matched = b.Node_engine.stitches_matched
  && a.Node_engine.loop_suspected = b.Node_engine.loop_suspected
  && a.Node_engine.drop = b.Node_engine.drop
  && a.Node_engine.false_positive_tests = b.Node_engine.false_positive_tests

let random_zfilter rng ~m ~bits =
  let z = Zfilter.create ~m in
  for _ = 1 to bits do
    Bitvec.set (Zfilter.to_bitvec z) (Rng.int rng m)
  done;
  z

let packing m () =
  let rng = Rng.of_int (m * 31) in
  for trial = 0 to 199 do
    let z =
      if trial = 0 then Zfilter.create ~m
      else if trial = 1 then begin
        let z = Zfilter.create ~m in
        Bitvec.set_all (Zfilter.to_bitvec z);
        z
      end
      else random_zfilter rng ~m ~bits:(1 + Rng.int rng m)
    in
    let f = Rows.of_zfilter z in
    Alcotest.(check int) "groups" (Rows.groups_for ~m) (Array.length f.Rows.groups);
    Alcotest.(check int) "popcount" (Zfilter.popcount z) f.Rows.pop;
    for i = 0 to (Array.length f.Rows.groups * Rows.group_bits) - 1 do
      let want = i < m && Bitvec.get (Zfilter.to_bitvec z) i in
      if Rows.get_bit f.Rows.groups ~off:0 i <> want then
        Alcotest.failf "m=%d trial %d: bit %d is %b, expected %b" m trial i
          (not want) want
    done
  done

(* A network whose engines carry every entry kind, a third of the nodes
   mutated. *)
type net = {
  graph : Graph.t;
  asg : Assignment.t;
  engines : Node_engine.t array;
  extra : Lit.t list;  (* virtual, block, service and stitch identities *)
  threshold : int;
}

let build ~m ~seed ~loop_prevention =
  let rng = Rng.of_int seed in
  let graph =
    Generator.pref_attach ~rng ~nodes:24 ~edges:40 ~max_degree:8 ()
  in
  let params = Lit.constant_k ~m ~d:2 ~k:(max 3 (m / 48)) in
  let asg = Assignment.make params (Rng.split rng) graph in
  let fill_limit = 0.5 in
  let engines =
    Array.init (Graph.node_count graph) (fun v ->
        Node_engine.create ~fill_limit ~loop_prevention asg v)
  in
  let extra = ref [] in
  Array.iteri
    (fun v e ->
      let out = Array.of_list (Graph.out_links graph v) in
      if v mod 3 = 0 && Array.length out > 1 then begin
        Node_engine.fail_link e out.(Rng.int rng (Array.length out));
        let vlit = Lit.fresh params (Rng.split rng) in
        Node_engine.install_virtual e vlit
          ~out_links:(List.filter (fun _ -> Rng.bool rng) (Array.to_list out));
        let neg = Lit.fresh params (Rng.split rng) in
        Node_engine.install_block e out.(Rng.int rng (Array.length out)) neg;
        let svc = Lit.fresh params (Rng.split rng) in
        Node_engine.install_service e svc ~name:(Printf.sprintf "svc%d" v);
        let stitch = Partition.egress_lit params ~nonce:(Int64.of_int (v + 1)) in
        Node_engine.install_stitch e stitch ~partition:v ~next:(v + 1);
        extra := vlit :: neg :: svc :: stitch :: !extra
      end)
    engines;
  {
    graph;
    asg;
    engines;
    extra = !extra;
    threshold = Zfilter.fill_threshold ~m ~limit:fill_limit;
  }

(* A zFilter for [table] naming a few random links and identities, then
   topped up or thinned to exactly [pop] set bits. *)
let make_filter rng net ~m ~table ~pop =
  let z = Zfilter.create ~m in
  for _ = 1 to 2 + Rng.int rng 4 do
    let l = Graph.link net.graph (Rng.int rng (Graph.link_count net.graph)) in
    Zfilter.add z (Assignment.tag net.asg l ~table)
  done;
  List.iter
    (fun lit -> if Rng.int rng 3 = 0 then Zfilter.add z (Lit.tag lit table))
    net.extra;
  let v = Zfilter.to_bitvec z in
  while Zfilter.popcount z < pop do
    Bitvec.set v (Rng.int rng m)
  done;
  while Zfilter.popcount z > pop do
    Bitvec.clear v (Rng.int rng m)
  done;
  z

(* Expand-once delivery from [src]: every hop decides on both engines,
   the compiled one from the one loaded [filter]. *)
let deliver net fps ~(filter : Rows.filter) ~zfilter ~table ~src =
  let groups = Array.copy filter.Rows.groups in
  let seen = Array.make (Graph.link_count net.graph) false in
  let q = Queue.create () in
  Queue.add (src, None) q;
  let hops = ref 0 in
  while not (Queue.is_empty q) do
    let v, in_link = Queue.take q in
    incr hops;
    let in_link_index = match in_link with None -> -1 | Some l -> l.Graph.index in
    let reference = Node_engine.forward net.engines.(v) ~table ~zfilter ~in_link in
    let fast =
      Fastpath.verdict fps.(v)
        (Fastpath.decide_loaded fps.(v) ~table ~filter ~in_link_index)
    in
    if not (same_verdict reference fast) then
      Alcotest.failf "node %d: Fastpath disagrees with Node_engine" v;
    List.iter
      (fun l ->
        if not seen.(l.Graph.index) then begin
          seen.(l.Graph.index) <- true;
          Queue.add (l.Graph.dst, Some l) q
        end)
      reference.Node_engine.forward_on
  done;
  if filter.Rows.groups <> groups then
    Alcotest.fail "a decide wrote to the loaded filter";
  !hops

let deliveries m () =
  List.iter
    (fun loop_prevention ->
      let net = build ~m ~seed:(m + Bool.to_int loop_prevention) ~loop_prevention in
      let fps = Array.map Fastpath.compile net.engines in
      Array.iter
        (fun fp ->
          if not (Audit.audit_ok fp) then Alcotest.failf "m=%d: Fastpath audit" m)
        fps;
      let rng = Rng.of_int (7 * m) in
      let filter = Rows.filter ~m in
      let multi_hop = ref 0 in
      for trial = 0 to 59 do
        let table = trial mod 2 in
        let pop =
          match trial mod 3 with
          | 0 -> net.threshold
          | 1 -> net.threshold + 1
          | _ -> Rng.int rng (net.threshold + 1)
        in
        let zfilter = make_filter rng net ~m ~table ~pop in
        Rows.load filter zfilter;
        let src = Rng.int rng (Graph.node_count net.graph) in
        if deliver net fps ~filter ~zfilter ~table ~src > 1 then incr multi_hop
      done;
      if !multi_hop = 0 then Alcotest.failf "m=%d: no delivery left its source" m)
    [ false; true ]

let () =
  Alcotest.run "rows"
    [
      ( "packing",
        List.map
          (fun m -> Alcotest.test_case (Printf.sprintf "m=%d" m) `Quick (packing m))
          widths );
      ( "loaded deliveries",
        List.map
          (fun m ->
            Alcotest.test_case (Printf.sprintf "m=%d" m) `Quick (deliveries m))
          widths );
    ]
