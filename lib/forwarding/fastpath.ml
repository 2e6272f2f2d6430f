module Zfilter = Lipsin_bloom.Zfilter
module Graph = Lipsin_topology.Graph
module Obs = Lipsin_obs.Obs

(* Telemetry: registered once per process; each compiled engine caches
   its own domain's cells (see [meters]) so the hot loop's increments
   are plain int stores behind a single Obs.enabled load.  Metric names
   and semantics mirror Node_engine's reference-labelled twins — the
   differential suite checks the deltas agree decision for decision. *)
let m_decisions =
  Obs.Counter.make ~help:"Compiled fast-path forwarding decisions"
    "lipsin_fastpath_decisions_total"

let m_drop_fill =
  Obs.Counter.make ~help:"Packets dropped, by engine and reason"
    ~labels:[ ("engine", "fast"); ("reason", "fill") ]
    "lipsin_drops_total"

let m_drop_loop =
  Obs.Counter.make ~help:"Packets dropped, by engine and reason"
    ~labels:[ ("engine", "fast"); ("reason", "loop") ]
    "lipsin_drops_total"

let m_drop_bad_table =
  Obs.Counter.make ~help:"Packets dropped, by engine and reason"
    ~labels:[ ("engine", "fast"); ("reason", "bad-table") ]
    "lipsin_drops_total"

let m_loop_hits =
  Obs.Counter.make ~help:"Loop-cache lookups that found a live entry"
    ~labels:[ ("engine", "fast") ]
    "lipsin_loop_cache_hits_total"

let m_loop_suspected =
  Obs.Counter.make ~help:"Decisions that cached a suspected loop"
    ~labels:[ ("engine", "fast") ]
    "lipsin_loop_suspected_total"

let m_block_vetoes =
  Obs.Counter.make ~help:"Matched ports suppressed by a negative Link ID"
    ~labels:[ ("engine", "fast") ]
    "lipsin_block_vetoes_total"

let m_local =
  Obs.Counter.make ~help:"Decisions that matched the node-local LIT"
    ~labels:[ ("engine", "fast") ]
    "lipsin_local_deliveries_total"

let m_services =
  Obs.Counter.make ~help:"Service endpoints matched"
    ~labels:[ ("engine", "fast") ]
    "lipsin_service_matches_total"

let m_stitches =
  Obs.Counter.make ~help:"Partition stitch entries matched"
    ~labels:[ ("engine", "fast") ]
    "lipsin_stitch_matches_total"

let h_admitted =
  Obs.Histogram.make ~help:"Out-links admitted per forwarding decision"
    ~labels:[ ("engine", "fast") ]
    "lipsin_admitted_links"

(* The calling domain's cells, fetched once per compile: compiled
   engines are domain-local (each Net lives on one domain), so the
   cells never cross a domain boundary. *)
type meters = {
  md : int array;
  mfill : int array;
  mloop : int array;
  mbad : int array;
  mhits : int array;
  msusp : int array;
  mveto : int array;
  mlocal : int array;
  msvc : int array;
  mstitch : int array;
  hadm : Obs.Histogram.cells;
}

let make_meters () =
  {
    md = Obs.Counter.local m_decisions;
    mfill = Obs.Counter.local m_drop_fill;
    mloop = Obs.Counter.local m_drop_loop;
    mbad = Obs.Counter.local m_drop_bad_table;
    mhits = Obs.Counter.local m_loop_hits;
    msusp = Obs.Counter.local m_loop_suspected;
    mveto = Obs.Counter.local m_block_vetoes;
    mlocal = Obs.Counter.local m_local;
    msvc = Obs.Counter.local m_services;
    mstitch = Obs.Counter.local m_stitches;
    hadm = Obs.Histogram.local h_admitted;
  }

let bump c = c.(0) <- c.(0) + 1

type decision = {
  mutable forward : int array;
  mutable n_forward : int;
  mutable deliver_local : bool;
  mutable services : int array;
  mutable n_services : int;
  mutable stitches : int array;
  mutable n_stitch : int;
  mutable loop_suspected : bool;
  mutable drop : int;
  mutable tests : int;
}

let no_drop = 0
let drop_fill = 1
let drop_loop = 2
let drop_bad_table = 3

type t = {
  node : Graph.node;
  rows : Rows.t;
  data_len : int;  (* live filter bytes = ceil(m/8): the loop-cache key *)
  fill_threshold : int;  (* max popcount passing the fill limit *)
  loop_prevention : bool;
  loop_cache : (string, int * int) Hashtbl.t;
  loop_queue : string Queue.t;
  loop_capacity : int;
  loop_ttl : int;
  mutable tick_count : int;
  scratch : Rows.filter;  (* [decide]'s load target *)
  seen : int array;  (* per-decision dedup stamps *)
  mutable gen : int;
  decision : decision;
  compile_digest : int;  (* Rows.digest at compile, for Analysis.Audit *)
  obs : meters;
}

let compile engine =
  let st = Node_engine.state engine in
  let rows = Rows.compile st in
  let m = rows.Rows.m in
  let n_ports = rows.Rows.n_ports in
  {
    node = st.Node_engine.state_node;
    rows;
    data_len = (m + 7) / 8;
    fill_threshold =
      Zfilter.fill_threshold ~m ~limit:st.Node_engine.state_fill_limit;
    loop_prevention = st.Node_engine.state_loop_prevention;
    loop_cache = Hashtbl.create 64;
    loop_queue = Queue.create ();
    loop_capacity = st.Node_engine.state_loop_capacity;
    loop_ttl = st.Node_engine.state_loop_ttl;
    tick_count = st.Node_engine.state_tick;
    scratch = Rows.filter ~m;
    seen = Array.make (max 1 n_ports) 0;
    gen = 0;
    decision =
      {
        forward = Array.make (max 1 n_ports) 0;
        n_forward = 0;
        deliver_local = false;
        services = Array.make (max 1 (Array.length rows.Rows.svc_names)) 0;
        n_services = 0;
        stitches = Array.make (max 1 (Array.length rows.Rows.stitch_next)) 0;
        n_stitch = 0;
        loop_suspected = false;
        drop = no_drop;
        tests = 0;
      };
    compile_digest = Rows.digest rows;
    obs = make_meters ();
  }

let node t = t.node
let table_count t = t.rows.Rows.d
let port_count t = t.rows.Rows.n_ports
let out_link t p = t.rows.Rows.out_links.(p)

(* Reuse-friendly scalar views of a port for zero-alloc consumers
   (Arena's recycled delivery loop): the dense link index and the
   destination node without touching the link record through a list. *)
let[@lipsin.noalloc] out_index t p = Array.get t.rows.Rows.out_index p

let[@lipsin.noalloc] out_dst t p =
  (Array.get t.rows.Rows.out_links p).Graph.dst
let tick t = t.tick_count <- t.tick_count + 1

(* The same FIFO + tick-TTL cache as Node_engine's, entry for entry, so
   the two engines drop the same packets given the same history. *)

let loop_cache_add t key in_index =
  if not (Hashtbl.mem t.loop_cache key) then begin
    if Queue.length t.loop_queue >= t.loop_capacity then begin
      let victim = Queue.take t.loop_queue in
      Hashtbl.remove t.loop_cache victim
    end;
    Hashtbl.replace t.loop_cache key (in_index, t.tick_count);
    Queue.add key t.loop_queue
  end

let loop_cache_find t key =
  match Hashtbl.find_opt t.loop_cache key with
  | Some (in_index, inserted_at) when t.tick_count - inserted_at <= t.loop_ttl ->
    Some in_index
  | Some _ ->
    Hashtbl.remove t.loop_cache key;
    None
  | None -> None

(* Algorithm 1 on the packed row at [off]: every group of the LIT must
   be covered by the same group of the loaded zFilter.  Most rows miss
   on their first non-empty group.  Kept in this compilation unit, like
   the inline copy in [decide_loaded]'s port loop, so the dev profile's
   -opaque cannot turn any part of an entry test into a call. *)
let[@lipsin.noalloc] subset rows off zg groups =
  let g = ref 0 in
  while
    !g < groups
    && (let x = Array.get rows (off + !g) in
        x land Array.get zg !g = x)
  do
    incr g
  done;
  !g = groups

let[@lipsin.noalloc] decide_loaded t ~table ~(filter : Rows.filter)
    ~in_link_index =
  let obs = Obs.enabled () in
  if obs then bump t.obs.md;
  let d = t.decision in
  d.n_forward <- 0;
  d.deliver_local <- false;
  d.n_services <- 0;
  d.n_stitch <- 0;
  d.loop_suspected <- false;
  d.drop <- no_drop;
  d.tests <- 0;
  let r = t.rows in
  if table < 0 || table >= r.Rows.d then begin
    d.drop <- drop_bad_table;
    if obs then bump t.obs.mbad;
    d
  end
  else if filter.Rows.width <> r.Rows.m || filter.Rows.f_m <> r.Rows.m then
    invalid_arg "Fastpath.decide: zFilter width mismatch"
  else if filter.Rows.pop > t.fill_threshold then begin
    (* The loaded popcount against the integer stand-in for
       [within_fill_limit], precomputed at compile with the same float
       comparison. *)
    d.drop <- drop_fill;
    if obs then bump t.obs.mfill;
    d
  end
  else begin
    let zg = filter.Rows.groups in
    let groups = r.Rows.groups in
    let n_ports = r.Rows.n_ports in
    if t.loop_prevention then
      (begin
         let key = Bytes.sub_string filter.Rows.bytes 0 t.data_len in
         (match loop_cache_find t key with
         | Some cached ->
           if obs then bump t.obs.mhits;
           if in_link_index >= 0 && cached <> in_link_index then
             d.drop <- drop_loop
         | None -> ());
         if d.drop = no_drop then begin
           let risky = ref false in
           let itab = r.Rows.in_tags.(table) in
           for p = 0 to n_ports - 1 do
             if r.Rows.out_index.(p) <> in_link_index then
               if subset itab (p * groups) zg groups then risky := true
           done;
           if !risky then begin
             d.loop_suspected <- true;
             if obs then bump t.obs.msusp;
             if in_link_index >= 0 then loop_cache_add t key in_link_index
           end
         end
       end
      [@lipsin.allow_alloc
        "loop-prevention cache key (5-word Bytes.sub_string) and FIFO \
         bookkeeping; engines benchmarked for zero allocation run with \
         loop_prevention off"]);
    if d.drop <> no_drop then begin
      if obs then bump t.obs.mloop;
      d
    end
    else begin
      t.gen <- t.gen + 1;
      let gen = t.gen in
      let seen = t.seen in
      let forward = d.forward in
      d.tests <- n_ports + r.Rows.n_virt;
      let ptab = r.Rows.phys.(table) in
      let btab = r.Rows.blocks.(table) in
      let boff = r.Rows.block_off.(table) in
      for p = 0 to n_ports - 1 do
        let off = p * groups in
        let g = ref 0 in
        while
          !g < groups
          && (let x = Array.get ptab (off + !g) in
              x land Array.get zg !g = x)
        do
          incr g
        done;
        if !g = groups then begin
          let blocked = ref false in
          for b = boff.(p) to boff.(p + 1) - 1 do
            if subset btab (b * groups) zg groups then blocked := true
          done;
          if obs && !blocked then bump t.obs.mveto;
          if (not !blocked) && seen.(p) <> gen then begin
            seen.(p) <- gen;
            forward.(d.n_forward) <- p;
            d.n_forward <- d.n_forward + 1
          end
        end
      done;
      let vtab = r.Rows.virt.(table) in
      let v_out_off = r.Rows.v_out_off in
      let v_out_ports = r.Rows.v_out_ports in
      for v = 0 to r.Rows.n_virt - 1 do
        if subset vtab (v * groups) zg groups then
          for j = v_out_off.(v) to v_out_off.(v + 1) - 1 do
            let p = v_out_ports.(j) in
            if r.Rows.up.(p) && seen.(p) <> gen then begin
              seen.(p) <- gen;
              forward.(d.n_forward) <- p;
              d.n_forward <- d.n_forward + 1
            end
          done
      done;
      d.deliver_local <- subset r.Rows.local.(table) 0 zg groups;
      let stab = r.Rows.svc.(table) in
      for s = 0 to Array.length r.Rows.svc_names - 1 do
        if subset stab (s * groups) zg groups then begin
          d.services.(d.n_services) <- s;
          d.n_services <- d.n_services + 1
        end
      done;
      let xtab = r.Rows.stitch.(table) in
      for s = 0 to Array.length r.Rows.stitch_next - 1 do
        if subset xtab (s * groups) zg groups then begin
          d.stitches.(d.n_stitch) <- s;
          d.n_stitch <- d.n_stitch + 1
        end
      done;
      if obs then begin
        Obs.Histogram.record_int t.obs.hadm d.n_forward;
        if d.deliver_local then bump t.obs.mlocal;
        t.obs.msvc.(0) <- t.obs.msvc.(0) + d.n_services;
        t.obs.mstitch.(0) <- t.obs.mstitch.(0) + d.n_stitch
      end;
      d
    end
  end

let[@lipsin.noalloc] decide t ~table ~zfilter ~in_link_index =
  Rows.load t.scratch zfilter;
  decide_loaded t ~table ~filter:t.scratch ~in_link_index

let[@lipsin.noalloc] decide_batch t ~table inputs ~f =
  (* for-loop rather than [Array.iteri]: the iteration closure would be
     the only allocation in an otherwise alloc-free batch. *)
  for i = 0 to Array.length inputs - 1 do
    let zfilter, in_link_index = inputs.(i) in
    (f i (decide t ~table ~zfilter ~in_link_index)
    [@lipsin.allow_alloc "sink callback supplied by the caller"])
  done

let drop_reason d =
  if d.drop = no_drop then None
  else if d.drop = drop_fill then Some Node_engine.Fill_limit_exceeded
  else if d.drop = drop_loop then Some Node_engine.Loop_detected
  else Some Node_engine.Bad_table

let forward_links t d =
  List.init d.n_forward (fun i -> t.rows.Rows.out_links.(d.forward.(i)))

let service_names t d =
  List.init d.n_services (fun i -> t.rows.Rows.svc_names.(d.services.(i)))

let stitch_targets t d =
  List.init d.n_stitch (fun i ->
      let s = d.stitches.(i) in
      (t.rows.Rows.stitch_partition.(s), t.rows.Rows.stitch_next.(s)))

let verdict t d =
  {
    Node_engine.forward_on = forward_links t d;
    deliver_local = d.deliver_local;
    services_matched = service_names t d;
    stitches_matched = stitch_targets t d;
    loop_suspected = d.loop_suspected;
    drop = drop_reason d;
    false_positive_tests = d.tests;
  }

type view = {
  view_rows : Rows.t;
  view_forward_cap : int;
  view_services_cap : int;
  view_stitch_cap : int;
  view_seen_cap : int;
  view_digest : int;
}

let view t =
  {
    view_rows = t.rows;
    view_forward_cap = Array.length t.decision.forward;
    view_services_cap = Array.length t.decision.services;
    view_stitch_cap = Array.length t.decision.stitches;
    view_seen_cap = Array.length t.seen;
    view_digest = t.compile_digest;
  }

let digest t = Rows.digest t.rows
let table_bytes t = Rows.table_bytes t.rows
