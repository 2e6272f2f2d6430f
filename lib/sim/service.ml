module Graph = Lipsin_topology.Graph
module Assignment = Lipsin_core.Assignment
module Adaptive = Lipsin_core.Adaptive
module Partition = Lipsin_bloom.Partition
module Lit = Lipsin_bloom.Lit
module Zfilter = Lipsin_bloom.Zfilter
module Obs = Lipsin_obs.Obs

(* Telemetry: pool lifecycle + per-shard queue pressure.  Worker spawns
   are counted so tests can prove batches reuse the pool (delta 0). *)
let m_batches =
  Obs.Counter.make ~help:"Batches dispatched to the forwarding service"
    "lipsin_service_batches_total"

let m_spawned =
  Obs.Counter.make ~help:"Worker domains spawned by forwarding services"
    "lipsin_service_workers_spawned_total"

let v_shard_jobs =
  Obs.Counter.vec ~help:"Jobs enqueued per shard" ~label:"shard"
    "lipsin_service_shard_jobs_total"

let v_steals =
  Obs.Counter.vec ~help:"Jobs stolen from a shard's queue by other workers"
    ~label:"shard" "lipsin_service_steals_total"

let g_queue =
  Obs.Gauge.vec ~help:"Shard queue depth at the last batch dispatch"
    ~label:"shard" "lipsin_service_queue_depth"

let h_job =
  Obs.Histogram.make
    ~help:"Wall time of service publications (1-in-64 sampled), seconds"
    "lipsin_service_job_seconds"

type job = {
  job_src : Graph.node;
  job_table : int;
  job_zfilter : Lipsin_bloom.Zfilter.t;
  job_tree : Graph.link list;
}

type stats = {
  st_jobs : int;
  st_workers : int;
  st_steals : int;
  st_link_traversals : int;
  st_false_positives : int;
  st_membership_tests : int;
  st_fill_drops : int;
  st_loop_drops : int;
  st_local_deliveries : int;
  st_nodes_reached : int;
  st_sampled : int;
  st_minor_words : float;
  st_elapsed_s : float;
}

(* Per-worker context.  Created {e inside} the worker's domain — the
   Net, arena and stitched family are domain-local by construction; the
   tally fields are written only by the owning worker during a batch and
   read by the dispatcher only after the completion handshake on [mu]
   (mutex release/acquire orders the plain fields). *)
type wctx = {
  w_id : int;
  w_net : Net.t;
  w_arena : Arena.t;
  mutable w_stitched : Stitched.t option;
  mutable w_tick : int;  (* 1-in-64 latency sampling phase *)
  mutable w_jobs : int;
  mutable w_steals : int;
  mutable w_sampled : int;
  mutable w_traversals : int;
  mutable w_fps : int;
  mutable w_tests : int;
  mutable w_fill : int;
  mutable w_loop : int;
  mutable w_local : int;
  mutable w_reached : int;
  mutable w_minor : float;  (* minor words this worker allocated in the batch *)
}

type exec =
  | Exec_none
  | Exec_count of job array
  | Exec_collect of job array * (int -> Run.outcome -> unit)
  | Exec_partition of Partition.t array * (int -> Stitched.outcome -> unit)

type t = {
  assignment : Assignment.t;
  adaptive : Adaptive.t option;
  engine : Run.engine;
  loop_prevention : bool;
  n_workers : int;
  mu : Mutex.t;
  cv_work : Condition.t;  (* dispatcher -> workers: new batch / stop *)
  cv_done : Condition.t;  (* workers -> dispatcher: registered / batch done *)
  mutable seq : int;  (* batch sequence number; workers wait on change *)
  mutable stop : bool;
  mutable exec : exec;  (* the current batch; written under [mu] *)
  cursors : int Atomic.t array;  (* per-shard claim cursor (next job) *)
  his : int array;  (* per-shard exclusive upper bound; set under [mu] *)
  mutable active : int;  (* workers still in the current batch *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
      (* the batch's first job exception; written under [mu] *)
  mutable registered : int;
  slots : wctx option array;  (* worker contexts, published under [mu] *)
  mutable domains : unit Domain.t array;
}

let workers t = t.n_workers
let engine t = t.engine
let assignment t = t.assignment

(* The graph memoises out-link order and the dense link array on first
   read; force both before spawning so domains only ever read. *)
let warm_graph g =
  for v = 0 to Graph.node_count g - 1 do
    ignore (Graph.out_links g v)
  done;
  if Graph.link_count g > 0 then ignore (Graph.link g 0)

let stitched_of t w =
  match w.w_stitched with
  | Some s -> s
  | None ->
    let ad =
      match t.adaptive with
      | Some a -> a
      | None ->
        (* run_partitioned validates on the dispatcher before broadcast *)
        invalid_arg "Service: no adaptive family"
    in
    let s = Stitched.make ~loop_prevention:t.loop_prevention ad in
    w.w_stitched <- Some s;
    s

let accum_outcome w (o : Run.outcome) =
  w.w_traversals <- w.w_traversals + o.Run.link_traversals;
  w.w_fps <- w.w_fps + o.Run.false_positives;
  w.w_tests <- w.w_tests + o.Run.membership_tests;
  w.w_fill <- w.w_fill + o.Run.fill_drops;
  w.w_loop <- w.w_loop + o.Run.loop_drops;
  w.w_local <- w.w_local + o.Run.local_deliveries;
  let reached = ref 0 in
  Array.iter (fun r -> if r then incr reached) o.Run.reached;
  w.w_reached <- w.w_reached + !reached;
  if o.Run.packet_id >= 0 then w.w_sampled <- w.w_sampled + 1

let accum_arena w =
  let a = w.w_arena in
  w.w_traversals <- w.w_traversals + a.Arena.link_traversals;
  w.w_fps <- w.w_fps + a.Arena.false_positives;
  w.w_tests <- w.w_tests + a.Arena.membership_tests;
  w.w_fill <- w.w_fill + a.Arena.fill_drops;
  w.w_loop <- w.w_loop + a.Arena.loop_drops;
  w.w_local <- w.w_local + a.Arena.local_deliveries;
  w.w_reached <- w.w_reached + a.Arena.n_reached

(* One claimed job.  The counter path mirrors what Parallel's per-job
   Run.deliver did: one 1-in-N trace-sampling draw per publication;
   sampled publications run the full allocating path (per-hop trace
   events), everything else runs the arena's zero-alloc loop, with a
   1-in-64 wall-time sample feeding the service latency histogram. *)
let exec_one t w i =
  match t.exec with
  | Exec_none -> ()
  | Exec_count jobs ->
    let j = Array.get jobs i in
    (match t.engine with
    | `Reference ->
      let ctx = Obs.Trace.start () in
      let o =
        Run.deliver ~engine:`Reference ~trace:ctx w.w_net ~src:j.job_src
          ~table:j.job_table ~zfilter:j.job_zfilter ~tree:j.job_tree
      in
      accum_outcome w o
    | (`Fast | `Bitsliced | `Auto) as e ->
      let ctx = Obs.Trace.start () in
      if ctx.Obs.Trace.tc_sampled then begin
        let o =
          Run.deliver ~engine:(e :> Run.engine) ~trace:ctx w.w_net
            ~src:j.job_src ~table:j.job_table ~zfilter:j.job_zfilter
            ~tree:j.job_tree
        in
        accum_outcome w o
      end
      else begin
        let tick = w.w_tick in
        w.w_tick <- tick + 1;
        let timed = tick land 63 = 0 && Obs.enabled () in
        let t0 = if timed then Unix.gettimeofday () else 0.0 in
        Run.deliver_into ~engine:(e :> Run.engine) w.w_arena ~src:j.job_src
          ~table:j.job_table ~zfilter:j.job_zfilter ~tree:j.job_tree;
        if timed then
          Obs.Histogram.observe h_job (Unix.gettimeofday () -. t0);
        accum_arena w
      end)
  | Exec_collect (jobs, f) ->
    let j = Array.get jobs i in
    let o =
      Run.deliver ~engine:t.engine w.w_net ~src:j.job_src ~table:j.job_table
        ~zfilter:j.job_zfilter ~tree:j.job_tree
    in
    accum_outcome w o;
    f i o
  | Exec_partition (parts, f) ->
    let s = stitched_of t w in
    let p = Array.get parts i in
    Stitched.install s p;
    let o = Stitched.deliver ~engine:t.engine s p in
    Stitched.uninstall s p;
    w.w_traversals <- w.w_traversals + o.Stitched.link_traversals;
    w.w_fps <- w.w_fps + o.Stitched.false_positives;
    w.w_tests <- w.w_tests + o.Stitched.membership_tests;
    w.w_fill <- w.w_fill + o.Stitched.fill_drops;
    w.w_loop <- w.w_loop + o.Stitched.loop_drops;
    let reached = ref 0 in
    Array.iter (fun n -> if n > 0 then incr reached) o.Stitched.delivered;
    w.w_reached <- w.w_reached + !reached;
    if o.Stitched.packet_id >= 0 then w.w_sampled <- w.w_sampled + 1;
    f i o

(* Claim-and-run every job of [shard] until its cursor passes the upper
   bound.  Claiming is one fetch_and_add — the lightweight end of the
   Chase–Lev protocol (both owner and thieves take from the head; the
   bounds are batch-static so no bottom/top races exist).  A worker
   drains its own shard first, then sweeps the other shards in ring
   order, so skewed fan-outs (one shard's trees 10x the others') spread
   across the pool instead of serialising on one domain. *)
let rec drain_shard t w shard ~stolen =
  let i = Atomic.fetch_and_add t.cursors.(shard) 1 in
  if i < t.his.(shard) then begin
    if stolen then begin
      w.w_steals <- w.w_steals + 1;
      Obs.Counter.incr (Obs.Counter.cell v_steals shard)
    end;
    exec_one t w i;
    w.w_jobs <- w.w_jobs + 1;
    drain_shard t w shard ~stolen
  end

let work_batch t w =
  drain_shard t w w.w_id ~stolen:false;
  for k = 1 to t.n_workers - 1 do
    drain_shard t w ((w.w_id + k) mod t.n_workers) ~stolen:true
  done

let reset_wctx w =
  w.w_jobs <- 0;
  w.w_steals <- 0;
  w.w_sampled <- 0;
  w.w_traversals <- 0;
  w.w_fps <- 0;
  w.w_tests <- 0;
  w.w_fill <- 0;
  w.w_loop <- 0;
  w.w_local <- 0;
  w.w_reached <- 0;
  w.w_minor <- 0.0

let worker_main t id =
  (* Build the domain-local working set before registering so the first
     batch runs warm: a private Net, its arena with every node's engine
     compiled in one batch (the per-node compile amortisation from
     BENCH_PR6), and lazily a stitched family for partitioned batches. *)
  let net = Net.make ~loop_prevention:t.loop_prevention t.assignment in
  let arena = Arena.create net in
  (match t.engine with
  | `Reference -> ()
  | (`Fast | `Bitsliced | `Auto) as e -> Arena.warm arena e);
  let w =
    {
      w_id = id;
      w_net = net;
      w_arena = arena;
      w_stitched = None;
      w_tick = 0;
      w_jobs = 0;
      w_steals = 0;
      w_sampled = 0;
      w_traversals = 0;
      w_fps = 0;
      w_tests = 0;
      w_fill = 0;
      w_loop = 0;
      w_local = 0;
      w_reached = 0;
      w_minor = 0.0;
    }
  in
  Mutex.protect t.mu (fun () ->
      t.slots.(id) <- Some w;
      t.registered <- t.registered + 1;
      Condition.broadcast t.cv_done);
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mu;
    while (not t.stop) && t.seq = !seen do
      Condition.wait t.cv_work t.mu
    done;
    let stop = t.stop in
    seen := t.seq;
    Mutex.unlock t.mu;
    if stop then running := false
    else begin
      reset_wctx w;
      let m0 = Gc.minor_words () in
      (* A raising job or callback must not kill the domain before the
         handshake below, or the dispatcher waits forever.  The worker
         leaves the batch (the other workers steal its remaining jobs)
         and drops its stitched family, which the job may have left
         half-installed. *)
      let failed =
        match work_batch t w with
        | () -> None
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          w.w_stitched <- None;
          Some (e, bt)
      in
      w.w_minor <- Gc.minor_words () -. m0;
      Mutex.protect t.mu (fun () ->
          if Option.is_none t.failure then t.failure <- failed;
          t.active <- t.active - 1;
          if t.active = 0 then Condition.broadcast t.cv_done)
    end
  done

let create ?workers ?(engine = `Fast) ?(loop_prevention = false) ?adaptive
    assignment =
  let n_workers =
    match workers with
    | Some k ->
      if k < 1 then invalid_arg "Service.create: workers must be >= 1";
      k
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  warm_graph (Assignment.graph assignment);
  let t =
    {
      assignment;
      adaptive;
      engine;
      loop_prevention;
      n_workers;
      mu = Mutex.create ();
      cv_work = Condition.create ();
      cv_done = Condition.create ();
      seq = 0;
      stop = false;
      exec = Exec_none;
      cursors = Array.init n_workers (fun _ -> Atomic.make 0);
      his = Array.make n_workers 0;
      active = 0;
      failure = None;
      registered = 0;
      slots = Array.make n_workers None;
      domains = [||];
    }
  in
  t.domains <-
    Array.init n_workers (fun id ->
        Obs.Counter.incr m_spawned;
        Domain.spawn (fun () -> worker_main t id));
  (* Wait for every worker to publish its warmed context, so [run]
     observes a fully-formed pool and stats aggregation can rely on
     every slot being occupied. *)
  Mutex.protect t.mu (fun () ->
      while t.registered < t.n_workers do
        Condition.wait t.cv_done t.mu
      done);
  t

let zero_stats ~workers ~elapsed =
  {
    st_jobs = 0;
    st_workers = workers;
    st_steals = 0;
    st_link_traversals = 0;
    st_false_positives = 0;
    st_membership_tests = 0;
    st_fill_drops = 0;
    st_loop_drops = 0;
    st_local_deliveries = 0;
    st_nodes_reached = 0;
    st_sampled = 0;
    st_minor_words = 0.0;
    st_elapsed_s = elapsed;
  }

let dispatch t ~n exec_v =
  Obs.Counter.incr m_batches;
  let t0 = Unix.gettimeofday () in
  Mutex.lock t.mu;
  if t.stop then begin
    Mutex.unlock t.mu;
    invalid_arg "Service: the pool is shut down"
  end;
  let chunk = (n + t.n_workers - 1) / t.n_workers in
  let obs = Obs.enabled () in
  for i = 0 to t.n_workers - 1 do
    let lo = min n (i * chunk) in
    let hi = min n ((i + 1) * chunk) in
    Atomic.set t.cursors.(i) lo;
    t.his.(i) <- hi;
    if obs then begin
      Obs.Counter.add (Obs.Counter.cell v_shard_jobs i) (hi - lo);
      Obs.Gauge.set (Obs.Gauge.cell g_queue i) (hi - lo)
    end
  done;
  t.exec <- exec_v;
  t.active <- t.n_workers;
  t.seq <- t.seq + 1;
  Condition.broadcast t.cv_work;
  while t.active > 0 do
    Condition.wait t.cv_done t.mu
  done;
  t.exec <- Exec_none;
  let failure = t.failure in
  t.failure <- None;
  Mutex.unlock t.mu;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) failure;
  let elapsed = Unix.gettimeofday () -. t0 in
  let st = ref (zero_stats ~workers:t.n_workers ~elapsed) in
  Array.iter
    (function
      | None -> ()
      | Some w ->
        st :=
          {
            !st with
            st_jobs = !st.st_jobs + w.w_jobs;
            st_steals = !st.st_steals + w.w_steals;
            st_link_traversals = !st.st_link_traversals + w.w_traversals;
            st_false_positives = !st.st_false_positives + w.w_fps;
            st_membership_tests = !st.st_membership_tests + w.w_tests;
            st_fill_drops = !st.st_fill_drops + w.w_fill;
            st_loop_drops = !st.st_loop_drops + w.w_loop;
            st_local_deliveries = !st.st_local_deliveries + w.w_local;
            st_nodes_reached = !st.st_nodes_reached + w.w_reached;
            st_sampled = !st.st_sampled + w.w_sampled;
            st_minor_words = !st.st_minor_words +. w.w_minor;
          })
    t.slots;
  !st

(* Check every job on the dispatcher before any worker sees it, so a
   malformed job fails the whole call up front rather than part-way
   through its batch. *)
let validate t ~caller jobs =
  let params = Assignment.params t.assignment in
  let m = params.Lit.m and d = params.Lit.d in
  let nodes = Graph.node_count (Assignment.graph t.assignment) in
  let reject i what =
    invalid_arg (Printf.sprintf "%s: job %d %s" caller i what)
  in
  Array.iteri
    (fun i j ->
      let w = Zfilter.m j.job_zfilter in
      if w <> m then
        reject i
          (Printf.sprintf "has a %d-bit zFilter; the deployment uses m = %d" w m);
      if j.job_table < 0 || j.job_table >= d then
        reject i
          (Printf.sprintf "uses table %d outside [0, %d)" j.job_table d);
      if j.job_src < 0 || j.job_src >= nodes then
        reject i
          (Printf.sprintf "starts at node %d outside [0, %d)" j.job_src nodes))
    jobs

let run t jobs =
  validate t ~caller:"Service.run" jobs;
  dispatch t ~n:(Array.length jobs) (Exec_count jobs)

let run_collect t jobs ~f =
  validate t ~caller:"Service.run_collect" jobs;
  dispatch t ~n:(Array.length jobs) (Exec_collect (jobs, f))

let run_partitioned t parts ~f =
  (match t.adaptive with
  | None ->
    invalid_arg "Service.run_partitioned: create the service with ~adaptive"
  | Some _ -> ());
  dispatch t ~n:(Array.length parts) (Exec_partition (parts, f))

let shutdown t =
  let joined =
    Mutex.protect t.mu (fun () ->
        if t.stop then false
        else begin
          t.stop <- true;
          Condition.broadcast t.cv_work;
          true
        end)
  in
  if joined then Array.iter Domain.join t.domains
