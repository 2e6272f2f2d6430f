(** The persistent forwarding service: a long-lived per-core domain
    pool with work-stealing shard queues and arena-recycled delivery.

    A service pays for domains, {!Net}s, engine compilations and
    delivery scratch once, not per batch: {!create} spawns the pool,
    each worker builds a private {!Net} plus an {!Arena} with every
    node's engine compiled in one batch, and then batches are only
    dispatched, never set up.  Per batch the jobs are split into one
    contiguous shard per worker; workers drain their own shard first and
    then steal from the other shards' atomic cursors, so skewed
    fan-outs spread across the pool.  Every publication, on either
    engine and trace-sampled (1-in-N, process-wide) or not, runs on the
    worker's arena through {!Run.deliver_into}; an unsampled [`Fast]
    publication takes its certified zero-alloc path, and a sampled one
    records the same per-hop trace events as sequential delivery.

    Totals are deterministic for any worker count and steal order
    (loop prevention off): every job is claimed exactly once and
    deliveries are independent — the differential suite pins service
    totals and delivery sets to sequential {!Run.deliver} bit-for-bit.

    Thread discipline: {!run}/{!run_collect}/{!run_partitioned} and
    {!shutdown} are dispatcher-side calls — issue them from one thread
    at a time (concurrent dispatches would interleave on the same
    cursors).  Callbacks run on worker domains.

    Obs: [lipsin_service_batches_total],
    [lipsin_service_workers_spawned_total] (proves pool reuse),
    per-shard [lipsin_service_shard_jobs_total] /
    [lipsin_service_steals_total] / [lipsin_service_queue_depth], and
    the 1-in-64 sampled [lipsin_service_job_seconds] latency
    histogram. *)

type t

type job = {
  job_src : Lipsin_topology.Graph.node;
  job_table : int;
  job_zfilter : Lipsin_bloom.Zfilter.t;
  job_tree : Lipsin_topology.Graph.link list;
      (** Intended tree, for false-positive classification (as in
          {!Run.deliver}). *)
}

type stats = {
  st_jobs : int;
  st_workers : int;
  st_steals : int;  (** Jobs executed by a worker outside its own shard. *)
  st_link_traversals : int;
  st_false_positives : int;
  st_membership_tests : int;
  st_fill_drops : int;
  st_loop_drops : int;
  st_local_deliveries : int;
  st_nodes_reached : int;  (** Sum over jobs of nodes the packet visited. *)
  st_sampled : int;  (** Jobs that drew a trace context (1-in-N). *)
  st_minor_words : float;
      (** Minor GC words allocated by the workers during the batch
          (summed Gc deltas) — divide by [st_jobs] for the
          steady-state words/op the soak bench gates on. *)
  st_elapsed_s : float;
      (** Dispatch-to-completion time, on the monotonic clock. *)
}

val create :
  ?workers:int ->
  ?engine:Run.engine ->
  ?loop_prevention:bool ->
  ?adaptive:Lipsin_core.Adaptive.t ->
  Lipsin_core.Assignment.t ->
  t
(** Spawns the pool and blocks until every worker has built and
    registered its warmed context.  [workers] defaults to
    [Domain.recommended_domain_count ()]; [engine] to [`Fast];
    [loop_prevention] to [false] (with it on, worker-local loop caches
    couple publications that land on the same worker — enable only when
    that is the experiment).  Pass [adaptive] to enable
    {!run_partitioned}.
    @raise Invalid_argument if [workers < 1]. *)

val workers : t -> int
val engine : t -> Run.engine
val assignment : t -> Lipsin_core.Assignment.t

val run : t -> job array -> stats
(** Delivers every job, counters only — the sustained-throughput entry
    point ([bench --soak] drives tens of millions of publications
    through it in one process).
    @raise Invalid_argument after {!shutdown}, or before dispatching
    anything if some job's zFilter width is not the deployment's [m],
    its table is outside \[0, d) or its source is not a node. *)

val run_collect : t -> job array -> f:(int -> Run.outcome -> unit) -> stats
(** Like {!run} but [f i outcome] is invoked {e on the worker domain}
    that ran job [i], with the job's outcome read out of the worker's
    arena ({!Run.outcome_of}) — the differential-test entry point.
    If [f] raises, the rest of the batch still runs and the first
    exception is re-raised here; the pool keeps serving.
    @raise Invalid_argument as {!run} does. *)

val run_partitioned :
  t -> Lipsin_bloom.Partition.t array -> f:(int -> Stitched.outcome -> unit) -> stats
(** Staged (partitioned-zFilter) deliveries: each worker lazily builds
    its own {!Stitched} family from [adaptive], installs the partition,
    delivers, uninstalls, and invokes [f] on the worker domain.  An
    exception from [f] or a stage is re-raised as {!run_collect} does.
    @raise Invalid_argument if the service was created without
    [~adaptive]. *)

val shutdown : t -> unit
(** Stops and joins the pool (idempotent).  Pending batches finish
    first; subsequent [run*] calls raise. *)
