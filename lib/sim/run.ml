module Rng = Lipsin_util.Rng
module Graph = Lipsin_topology.Graph
module Obs = Lipsin_obs.Obs

type mode = Arena.mode = Expand_once | Ttl of int
type engine = Arena.engine
type loss = Arena.loss = { probability : float; rng : Rng.t }

type outcome = {
  reached : bool array;
  traversed : Graph.link list;
  link_traversals : int;
  false_positives : int;
  membership_tests : int;
  fill_drops : int;
  loop_drops : int;
  local_deliveries : int;
  lost : int;
  stitch_hits : (Graph.node * int * int) list;
  packet_id : int;
}

(* Telemetry: publication-level tallies.  Per-decision counters live in
   the engines themselves; here we only account what the engines cannot
   see — bandwidth, delivery latency and the intended-tree delta. *)
let m_publications =
  Obs.Counter.make ~help:"Publications simulated by Run.deliver"
    "lipsin_publications_total"

let m_traversals =
  Obs.Counter.make ~help:"Link traversals (bandwidth cost) over all publications"
    "lipsin_link_traversals_total"

let v_false_positive =
  Obs.Counter.vec ~help:"False-positive link matches, by forwarding table"
    ~label:"table" "lipsin_false_positive_total"

let m_over_delivery =
  Obs.Counter.make ~help:"Off-tree link traversals (over-delivery bandwidth)"
    "lipsin_over_delivery_total"

let m_under_delivery =
  Obs.Counter.make
    ~help:"Intended tree links never traversed (under-delivery)"
    "lipsin_under_delivery_total"

let m_ttl_expired =
  Obs.Counter.make ~help:"Admitted copies refused because the TTL reached zero"
    "lipsin_ttl_expired_total"

let m_lost =
  Obs.Counter.make ~help:"Traversals dropped by the loss model"
    "lipsin_lost_packets_total"

let m_deliveries =
  Obs.Counter.make ~help:"Nodes first reached during deliveries"
    "lipsin_deliveries_total"

let h_latency =
  Obs.Histogram.make
    ~help:"Hop depth at which each delivered node was first reached"
    "lipsin_delivery_latency_hops"

let h_pub_traversals =
  Obs.Histogram.make ~help:"Link traversals per publication"
    "lipsin_publication_link_traversals"

(* The per-publication Obs epilogue: the counters the engines cannot
   see, the latency histogram fed post-hoc from the recorded
   first-reach depths, and one flight-recorder frame for every sampled
   publication plus a 1-in-16 subsample of the rest, which keeps the
   latency-jump trigger armed. *)
let arena_obs (a : Arena.t) ~table ~flight ~t0 =
  let c = Obs.Histogram.local h_latency in
  for i = 1 to a.Arena.n_reached - 1 do
    Obs.Histogram.record_int c a.Arena.reach_depth.(i)
  done;
  Obs.Counter.incr m_publications;
  Obs.Counter.add m_traversals a.Arena.link_traversals;
  Obs.Counter.add
    (Obs.Counter.cell v_false_positive table)
    a.Arena.false_positives;
  Obs.Counter.add m_over_delivery a.Arena.over_delivery;
  Obs.Counter.add m_under_delivery (Arena.under_delivery a);
  Obs.Counter.add m_ttl_expired a.Arena.ttl_expired;
  Obs.Counter.add m_lost a.Arena.lost;
  Obs.Counter.add m_deliveries a.Arena.deliveries;
  Obs.Histogram.observe_int h_pub_traversals a.Arena.link_traversals;
  if flight then begin
    let anomalies =
      if a.Arena.loop_drops > 0 then
        [ Printf.sprintf "%d loop drops" a.Arena.loop_drops ]
      else []
    in
    Obs.Flight.note ~anomalies
      ~events:(if a.Arena.tracing then a.Arena.link_traversals + 1 else 0)
      ~packet:a.Arena.packet
      ~latency:(Obs.Clock.seconds_since t0)
      ()
  end

let deliver_into ?(mode = Expand_once) ?loss ?(engine = `Fast)
    ?(trace = Obs.Trace.off) ?(stage = -1) a ~src ~table ~zfilter ~tree =
  (match loss with
  | Some { probability; _ } when not (probability >= 0.0 && probability < 1.0)
    ->
    invalid_arg "Run.deliver: loss probability outside [0,1)"
  | Some _ | None -> ());
  Arena.set_tree a tree;
  Net.tick (Arena.net a);
  let obs = Obs.enabled () in
  let flight = trace.Obs.Trace.tc_sampled || (obs && Obs.Flight.want_note ()) in
  let t0 = if flight then Obs.Clock.now () else 0 in
  Arena.run a ~mode ~engine ~loss ~trace ~stage ~src ~table ~zfilter;
  if obs then arena_obs a ~table ~flight ~t0

let outcome_of (a : Arena.t) =
  let link i = Graph.link a.Arena.graph i in
  {
    reached = Arena.reached_copy a;
    traversed =
      List.init a.Arena.n_seen (fun i -> link a.Arena.touched_links.(i));
    link_traversals = a.Arena.link_traversals;
    false_positives = a.Arena.false_positives;
    membership_tests = a.Arena.membership_tests;
    fill_drops = a.Arena.fill_drops;
    loop_drops = a.Arena.loop_drops;
    local_deliveries = a.Arena.local_deliveries;
    lost = a.Arena.lost;
    stitch_hits =
      List.init a.Arena.stitch_matches (fun i ->
          (a.Arena.hit_node.(i), a.Arena.hit_partition.(i), a.Arena.hit_next.(i)));
    packet_id = a.Arena.packet;
  }

(* A standalone delivery takes its own 1-in-N sampling decision; a
   stitched delivery passes one context through all its stage runs so
   they share a publication id. *)
let deliver ?mode ?loss ?(engine = `Reference) ?trace ?stage net ~src ~table
    ~zfilter ~tree =
  let trace = match trace with Some c -> c | None -> Obs.Trace.start () in
  let a = Arena.create net in
  deliver_into ?mode ?loss ~engine ~trace ?stage a ~src ~table ~zfilter ~tree;
  outcome_of a

let verify_trace net outcome =
  if outcome.packet_id < 0 then None
  else begin
    let graph = Net.graph net in
    let dst_of i = (Graph.link graph i).Graph.dst in
    let expected = ref [] in
    Array.iteri
      (fun v r -> if r then expected := v :: !expected)
      outcome.reached;
    let tree = Obs.Span.of_packet outcome.packet_id in
    Some (Obs.Span.crosscheck ~dst_of ~expected:(List.rev !expected) tree)
  end

let forwarding_efficiency outcome ~tree =
  if outcome.link_traversals = 0 then 1.0
  else float_of_int (List.length tree) /. float_of_int outcome.link_traversals

let false_positive_rate outcome =
  if outcome.membership_tests = 0 then 0.0
  else float_of_int outcome.false_positives /. float_of_int outcome.membership_tests

let all_reached outcome subscribers =
  List.for_all (fun s -> outcome.reached.(s)) subscribers
