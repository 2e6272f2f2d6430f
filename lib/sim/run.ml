module Rng = Lipsin_util.Rng
module Graph = Lipsin_topology.Graph
module Node_engine = Lipsin_forwarding.Node_engine
module Fastpath = Lipsin_forwarding.Fastpath
module Rows = Lipsin_forwarding.Rows
module Obs = Lipsin_obs.Obs

type mode = Expand_once | Ttl of int
type engine = [ `Reference | `Fast ]

type loss = { probability : float; rng : Rng.t }

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

type event = {
  node : Graph.node;
  in_link : Graph.link option;
  ttl : int;
  depth : int;
}

let ttl_event_cap = 200_000

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

let trace_kind_of_drop = function
  | None -> Obs.Trace.Hop
  | Some Node_engine.Fill_limit_exceeded -> Obs.Trace.Drop_fill
  | Some Node_engine.Loop_detected -> Obs.Trace.Drop_loop
  | Some Node_engine.Bad_table -> Obs.Trace.Drop_bad_table

let deliver ?(mode = Expand_once) ?loss ?(engine = `Reference) ?trace
    ?(stage = -1) net ~src ~table ~zfilter ~tree =
  (match loss with
  | Some { probability; _ } when probability < 0.0 || probability >= 1.0 ->
    invalid_arg "Run.deliver: loss probability outside [0,1)"
  | Some _ | None -> ());
  Net.tick net;
  let graph = Net.graph net in
  let n_nodes = Graph.node_count graph in
  let n_links = Graph.link_count graph in
  let on_tree = Array.make n_links false in
  List.iter (fun l -> on_tree.(l.Graph.index) <- true) tree;
  let tree_traversed = Array.make n_links false in
  let reached = Array.make n_nodes false in
  let seen_link = Array.make n_links false in
  let traversed = ref [] in
  let link_traversals = ref 0 in
  let false_positives = ref 0 in
  let membership_tests = ref 0 in
  let fill_drops = ref 0 in
  let loop_drops = ref 0 in
  let local_deliveries = ref 0 in
  let lost_packets = ref 0 in
  let stitch_hits = ref [] in
  let note_stitches node targets =
    List.iter (fun (pid, next) -> stitch_hits := (node, pid, next) :: !stitch_hits) targets
  in
  let obs = Obs.enabled () in
  (* The caller's trace context wins (one publication id across the
     stages of a stitched delivery); standalone deliveries take their
     own 1-in-N sampling decision. *)
  let ctx = match trace with Some c -> c | None -> Obs.Trace.start () in
  let tracing = ctx.Obs.Trace.tc_sampled in
  let pid = ctx.Obs.Trace.tc_packet in
  (* Traced publications always feed the flight recorder; the rest are
     subsampled so untimed deliveries skip the clock reads entirely. *)
  let flight = tracing || (obs && Obs.Flight.want_note ()) in
  let t0 = if flight then Unix.gettimeofday () else 0.0 in
  let ring = if tracing then Some (Obs.Trace.local ()) else None in
  let lat_cell = if obs then Some (Obs.Histogram.local h_latency) else None in
  let deliveries = ref 0 in
  let over_delivery = ref 0 in
  let ttl_refused_total = ref 0 in
  (* Per-decision trace scratch, reset before each node's fan-out. *)
  let out_acc = ref [] in
  let fp_flag = ref false in
  let ttl_refused = ref 0 in
  (* The compiled engine decides from one loaded copy of the zFilter
     for the whole delivery. *)
  let filter = Rows.of_zfilter zfilter in
  let queue = Queue.create () in
  let initial_ttl = match mode with Expand_once -> max_int | Ttl t -> t in
  Queue.add { node = src; in_link = None; ttl = initial_ttl; depth = 0 } queue;
  reached.(src) <- true;
  while not (Queue.is_empty queue) do
    let { node; in_link; ttl; depth } = Queue.take queue in
    out_acc := [];
    fp_flag := false;
    ttl_refused := 0;
    let propagate l =
      if not on_tree.(l.Graph.index) then begin
        incr false_positives;
        fp_flag := true
      end;
      let should_traverse =
        match mode with
        | Expand_once ->
          if seen_link.(l.Graph.index) then false
          else begin
            seen_link.(l.Graph.index) <- true;
            true
          end
        | Ttl _ ->
          (* A looping filter can replicate exponentially in TTL mode;
             the event cap bounds the simulation the way finite link
             capacity bounds a real network. *)
          if ttl <= 0 then begin
            incr ttl_refused;
            incr ttl_refused_total;
            false
          end
          else !link_traversals < ttl_event_cap
      in
      if should_traverse then begin
        incr link_traversals;
        traversed := l :: !traversed;
        if on_tree.(l.Graph.index) then tree_traversed.(l.Graph.index) <- true
        else incr over_delivery;
        let lost =
          match loss with
          | Some { probability; rng } -> Rng.float rng 1.0 < probability
          | None -> false
        in
        if lost then incr lost_packets
        else begin
          if not reached.(l.Graph.dst) then begin
            reached.(l.Graph.dst) <- true;
            incr deliveries;
            match lat_cell with
            | Some c -> Obs.Histogram.record_int c (depth + 1)
            | None -> ()
          end;
          if tracing then out_acc := l.Graph.index :: !out_acc;
          Queue.add
            { node = l.Graph.dst; in_link = Some l; ttl = ttl - 1;
              depth = depth + 1 }
            queue
        end
      end
    in
    let trace ~engine_code ~drop ~loop_suspected ~deliver_local =
      match ring with
      | None -> ()
      | Some r ->
        Obs.Trace.record r ~table ~engine:engine_code ~stage ~depth
          ~packet:pid ~node
          ~in_link:
            (match in_link with None -> -1 | Some l -> l.Graph.index)
          ~kind:(trace_kind_of_drop drop)
          ~out_links:(Array.of_list (List.rev !out_acc))
          ~false_positive:!fp_flag ~loop_suspected ~deliver_local
          ~ttl_expired:!ttl_refused
    in
    match engine with
    | `Reference ->
      let verdict =
        Node_engine.forward (Net.engine net node) ~table ~zfilter ~in_link
      in
      membership_tests :=
        !membership_tests + verdict.Node_engine.false_positive_tests;
      if verdict.Node_engine.deliver_local then incr local_deliveries;
      (match verdict.Node_engine.drop with
      | Some Node_engine.Fill_limit_exceeded -> incr fill_drops
      | Some Node_engine.Loop_detected -> incr loop_drops
      | Some Node_engine.Bad_table | None -> ());
      note_stitches node verdict.Node_engine.stitches_matched;
      List.iter propagate verdict.Node_engine.forward_on;
      trace ~engine_code:Obs.Trace.engine_reference
        ~drop:verdict.Node_engine.drop
        ~loop_suspected:verdict.Node_engine.loop_suspected
        ~deliver_local:verdict.Node_engine.deliver_local
    | `Fast ->
      let fp = Net.fastpath net node in
      let in_link_index =
        match in_link with None -> -1 | Some l -> l.Graph.index
      in
      let d = Fastpath.decide_loaded fp ~table ~filter ~in_link_index in
      membership_tests := !membership_tests + d.Fastpath.tests;
      if d.Fastpath.deliver_local then incr local_deliveries;
      if d.Fastpath.drop = Fastpath.drop_fill then incr fill_drops
      else if d.Fastpath.drop = Fastpath.drop_loop then incr loop_drops;
      note_stitches node (Fastpath.stitch_targets fp d);
      for i = 0 to d.Fastpath.n_forward - 1 do
        propagate (Fastpath.out_link fp d.Fastpath.forward.(i))
      done;
      trace ~engine_code:Obs.Trace.engine_fast
        ~drop:(Fastpath.drop_reason d)
        ~loop_suspected:d.Fastpath.loop_suspected
        ~deliver_local:d.Fastpath.deliver_local
  done;
  if obs then begin
    let under =
      List.fold_left
        (fun acc l -> if tree_traversed.(l.Graph.index) then acc else acc + 1)
        0 tree
    in
    Obs.Counter.incr m_publications;
    Obs.Counter.add m_traversals !link_traversals;
    Obs.Counter.add (Obs.Counter.cell v_false_positive table) !false_positives;
    Obs.Counter.add m_over_delivery !over_delivery;
    Obs.Counter.add m_under_delivery under;
    Obs.Counter.add m_ttl_expired !ttl_refused_total;
    Obs.Counter.add m_lost !lost_packets;
    Obs.Counter.add m_deliveries !deliveries;
    Obs.Histogram.observe h_pub_traversals (float_of_int !link_traversals);
    (* One flight-recorder frame per sampled publication: the
       latency-jump trigger watches the wall time, the anomaly notes
       give the post-mortem bundle its context. *)
    if flight then begin
      let anomalies =
        if !loop_drops > 0 then
          [ Printf.sprintf "%d loop drops" !loop_drops ]
        else []
      in
      Obs.Flight.note ~anomalies
        ~events:(if tracing then !link_traversals + 1 else 0)
        ~packet:pid
        ~latency:(Unix.gettimeofday () -. t0)
        ()
    end
  end;
  {
    reached;
    traversed = List.rev !traversed;
    link_traversals = !link_traversals;
    false_positives = !false_positives;
    membership_tests = !membership_tests;
    fill_drops = !fill_drops;
    loop_drops = !loop_drops;
    local_deliveries = !local_deliveries;
    lost = !lost_packets;
    stitch_hits = List.rev !stitch_hits;
    packet_id = pid;
  }

(* ---- arena-recycled steady-state path ------------------------------- *)

(* Absorb a full [deliver] outcome into the arena so service/soak
   callers read one shape whether the publication took the recycled fast
   path or fell back (sampled tracing, reference engine, TTL, loss).
   The fallback already did its own Obs accounting inside [deliver]. *)
let absorb (a : Arena.t) (o : outcome) =
  Arena.reset a;
  Array.iteri
    (fun v r ->
      if r then begin
        a.Arena.reached.(v) <- true;
        a.Arena.touched_nodes.(a.Arena.n_reached) <- v;
        a.Arena.reach_depth.(a.Arena.n_reached) <- 0;
        a.Arena.n_reached <- a.Arena.n_reached + 1
      end)
    o.reached;
  List.iter
    (fun l ->
      let li = l.Graph.index in
      if not a.Arena.seen_link.(li) then begin
        a.Arena.seen_link.(li) <- true;
        a.Arena.touched_links.(a.Arena.n_seen) <- li;
        a.Arena.n_seen <- a.Arena.n_seen + 1
      end;
      if a.Arena.on_tree.(li) then a.Arena.tree_traversed.(li) <- true
      else a.Arena.over_delivery <- a.Arena.over_delivery + 1)
    o.traversed;
  a.Arena.link_traversals <- o.link_traversals;
  a.Arena.false_positives <- o.false_positives;
  a.Arena.membership_tests <- o.membership_tests;
  a.Arena.fill_drops <- o.fill_drops;
  a.Arena.loop_drops <- o.loop_drops;
  a.Arena.local_deliveries <- o.local_deliveries;
  a.Arena.deliveries <- max 0 (a.Arena.n_reached - 1);
  a.Arena.stitch_matches <- List.length o.stitch_hits;
  a.Arena.lost <- o.lost;
  a.Arena.last_packet <- o.packet_id

(* The Obs epilogue of the recycled path, mirroring [deliver]'s: the
   per-publication counters the engines cannot see, the latency
   histogram fed post-hoc from the recorded first-reach depths, and the
   1-in-16 flight-recorder note that keeps the latency-jump trigger
   armed on the steady-state path. *)
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
  Obs.Counter.add m_deliveries a.Arena.deliveries;
  Obs.Histogram.observe_int h_pub_traversals a.Arena.link_traversals;
  if flight then begin
    let anomalies =
      if a.Arena.loop_drops > 0 then
        [ Printf.sprintf "%d loop drops" a.Arena.loop_drops ]
      else []
    in
    Obs.Flight.note ~anomalies ~events:0 ~packet:(-1)
      ~latency:(Unix.gettimeofday () -. t0)
      ()
  end

let arena_path scratch ~src ~table ~zfilter =
  let net = Arena.net scratch in
  Net.tick net;
  Arena.prepare scratch `Fast;
  let obs = Obs.enabled () in
  let flight = obs && Obs.Flight.want_note () in
  let t0 = if flight then Unix.gettimeofday () else 0.0 in
  Arena.deliver scratch ~src ~table ~zfilter;
  if obs then arena_obs scratch ~table ~flight ~t0

let deliver_into ?(mode = Expand_once) ?loss ?(engine = `Fast) ?trace scratch
    ~src ~table ~zfilter ~tree =
  Arena.set_tree scratch tree;
  let sampled =
    match trace with Some c -> c.Obs.Trace.tc_sampled | None -> false
  in
  let fallback () =
    let o =
      deliver ~mode ?loss ~engine ?trace (Arena.net scratch) ~src ~table
        ~zfilter ~tree
    in
    absorb scratch o
  in
  if sampled then fallback ()
  else
    match (engine, mode, loss) with
    | `Fast, Expand_once, None -> arena_path scratch ~src ~table ~zfilter
    | (`Reference | `Fast), _, _ -> fallback ()

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
