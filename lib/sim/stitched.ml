module Adaptive = Lipsin_core.Adaptive
module Assignment = Lipsin_core.Assignment
module Graph = Lipsin_topology.Graph
module Lit = Lipsin_bloom.Lit
module Partition = Lipsin_bloom.Partition
module Node_engine = Lipsin_forwarding.Node_engine
module Obs = Lipsin_obs.Obs

(* One Net per width, each with an arena that is never warmed: a stage
   compiles only the nodes it reaches. *)
type width = { net : Net.t; arena : Arena.t }
type t = { adaptive : Adaptive.t; widths : (int * width) list }

let make ?fill_limit ?loop_prevention adaptive =
  let widths =
    List.map
      (fun m ->
        let net = Net.make ?fill_limit ?loop_prevention (Adaptive.assignment adaptive ~m) in
        (m, { net; arena = Arena.create net }))
      (Adaptive.widths adaptive)
  in
  { adaptive; widths }

let adaptive t = t.adaptive

let width t ~m =
  match List.assoc_opt m t.widths with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Stitched: unsupported width %d" m)

let net t ~m = (width t ~m).net

let egress_lit t ~m nonce =
  Partition.egress_lit (Assignment.params (Adaptive.assignment t.adaptive ~m)) ~nonce

let iter_entries t part f =
  Array.iter
    (fun (s : Partition.stage) ->
      match s.Partition.handoffs with
      | [] -> ()
      | handoffs ->
        let lit = egress_lit t ~m:s.Partition.m s.Partition.nonce in
        let n = net t ~m:s.Partition.m in
        List.iter (fun (h : Partition.handoff) -> f n lit h) handoffs)
    part.Partition.stages

let install t part =
  iter_entries t part (fun n lit (h : Partition.handoff) ->
      Node_engine.install_stitch (Net.engine n h.Partition.at) lit
        ~partition:part.Partition.id ~next:h.Partition.next;
      Net.restitch n h.Partition.at)

let uninstall t part =
  iter_entries t part (fun n lit (h : Partition.handoff) ->
      Node_engine.remove_stitch (Net.engine n h.Partition.at) lit;
      Net.restitch n h.Partition.at)

type outcome = {
  delivered : int array;
  stages_run : int;
  stage_order : int list;
  duplicate_handoffs : int;
  missed_stages : int;
  foreign_hits : int;
  subscribers_missed : int;
  link_traversals : int;
  false_positives : int;
  membership_tests : int;
  fill_drops : int;
  loop_drops : int;
  packet_id : int;
  trace_anomalies : string list;
}

let deliver ?(mode = Run.Expand_once) ?(engine = `Reference) t part =
  let stages = part.Partition.stages in
  let n_stages = Array.length stages in
  let graph = Net.graph (snd (List.hd t.widths)).net in
  let delivered = Array.make (Graph.node_count graph) 0 in
  let activated = Array.make n_stages false in
  let order = ref [] and runs = ref 0 in
  let duplicate = ref 0 and foreign = ref 0 and missed_subs = ref 0 in
  let traversals = ref 0 and fps = ref 0 and tests = ref 0 in
  let fill_drops = ref 0 and loop_drops = ref 0 in
  (* One trace context for the whole publication: every stage run
     records under the same packet id, so the reconstructed span forest
     spans stage boundaries. *)
  let ctx = Obs.Trace.start () in
  let tracing = ctx.Obs.Trace.tc_sampled in
  let packet_id = ctx.Obs.Trace.tc_packet in
  let ring = if tracing then Some (Obs.Trace.local ()) else None in
  let queue = Queue.create () in
  (* One stitch hit of stage [idx]'s run, in the data plane's order. *)
  let hit idx node pid next =
    if pid <> part.Partition.id then incr foreign
    else begin
      (* Record the handoff before duplicate suppression: the span
         reconstruction counts activations per target stage, so a
         duplicate the activation cache hides still surfaces as a
         Duplicate_activation anomaly at runtime. *)
      (match ring with
      | Some r ->
        Obs.Trace.record r ~stage:idx ~packet:packet_id ~node
          ~in_link:(-1) ~kind:Obs.Trace.Stitch_handoff
          ~out_links:[| next |] ~false_positive:false
          ~loop_suspected:false ~deliver_local:false ~ttl_expired:0
      | None -> ());
      if next < 0 || next >= n_stages || activated.(next) then
        incr duplicate
      else begin
        activated.(next) <- true;
        Queue.add next queue
      end
    end
  in
  Queue.add 0 queue;
  activated.(0) <- true;
  while not (Queue.is_empty queue) do
    let idx = Queue.take queue in
    let s = stages.(idx) in
    let w = width t ~m:s.Partition.m in
    let tree = List.map (Graph.link graph) s.Partition.links in
    incr runs;
    order := idx :: !order;
    let a = w.arena in
    Run.deliver_into ~mode ~engine ~trace:ctx ~stage:idx a ~src:s.Partition.root
      ~table:s.Partition.table ~zfilter:s.Partition.filter ~tree;
    for i = 0 to a.Arena.n_reached - 1 do
      let v = a.Arena.touched_nodes.(i) in
      delivered.(v) <- delivered.(v) + 1
    done;
    List.iter
      (fun v -> if not (Arena.reached_node a v) then incr missed_subs)
      s.Partition.subscribers;
    traversals := !traversals + a.Arena.link_traversals;
    fps := !fps + a.Arena.false_positives;
    tests := !tests + a.Arena.membership_tests;
    fill_drops := !fill_drops + a.Arena.fill_drops;
    loop_drops := !loop_drops + a.Arena.loop_drops;
    for i = 0 to a.Arena.stitch_matches - 1 do
      hit idx a.Arena.hit_node.(i) a.Arena.hit_partition.(i) a.Arena.hit_next.(i)
    done
  done;
  let missed = Array.fold_left (fun acc a -> if a then acc else acc + 1) 0 activated in
  (* Runtime cross-check of the sampled publication — the dynamic twin
     of [Netcheck.check_partition]: reconstruct the span forest, replay
     it into a delivery set, compare against what the run reports, and
     fire the flight recorder on semantics violations. *)
  let trace_anomalies =
    if not tracing then []
    else begin
      let dst_of i = (Graph.link graph i).Graph.dst in
      let expected = ref [] in
      Array.iteri
        (fun v c -> if c > 0 then expected := v :: !expected)
        delivered;
      let span = Obs.Span.of_packet packet_id in
      let v = Obs.Span.crosscheck ~dst_of ~expected:(List.rev !expected) span
      in
      let has p = List.exists p v.Obs.Span.vd_anomalies in
      if has (function Obs.Span.Duplicate_activation _ -> true | _ -> false)
      then
        Obs.Flight.fire Obs.Flight.Duplicate_activation ~packet:packet_id
          ~detail:(Obs.Span.verdict_to_string v)
      else if has (function Obs.Span.Loop _ -> true | _ -> false) then
        Obs.Flight.fire Obs.Flight.Loop_detected ~packet:packet_id
          ~detail:(Obs.Span.verdict_to_string v)
      else if
        v.Obs.Span.vd_complete
        && (v.Obs.Span.vd_missing <> [] || v.Obs.Span.vd_unexpected <> [])
      then
        (* Only with a complete trace: ring overflow would replay a
           partial delivery set and cry wolf. *)
        Obs.Flight.fire Obs.Flight.Delivery_mismatch ~packet:packet_id
          ~detail:(Obs.Span.verdict_to_string v);
      List.map Obs.Span.anomaly_to_string v.Obs.Span.vd_anomalies
    end
  in
  {
    delivered;
    stages_run = !runs;
    stage_order = List.rev !order;
    duplicate_handoffs = !duplicate;
    missed_stages = missed;
    foreign_hits = !foreign;
    subscribers_missed = !missed_subs;
    link_traversals = !traversals;
    false_positives = !fps;
    membership_tests = !tests;
    fill_drops = !fill_drops;
    loop_drops = !loop_drops;
    packet_id;
    trace_anomalies;
  }

let exactly_once o part =
  let n_stages = Partition.stage_count part in
  if o.stages_run <> n_stages then
    Error
      (Printf.sprintf "%d of %d stages activated" o.stages_run n_stages)
  else if o.missed_stages <> 0 then
    Error (Printf.sprintf "%d stages never activated" o.missed_stages)
  else if o.foreign_hits <> 0 then
    Error (Printf.sprintf "%d foreign-partition stitch hits" o.foreign_hits)
  else if o.subscribers_missed <> 0 then
    Error
      (Printf.sprintf "%d subscribers missed by their owner stage"
         o.subscribers_missed)
  else Ok ()

let extra_deliveries o part =
  Array.fold_left
    (fun acc (s : Partition.stage) ->
      List.fold_left
        (fun acc w -> acc + max 0 (o.delivered.(w) - 1))
        acc s.Partition.subscribers)
    0 part.Partition.stages
