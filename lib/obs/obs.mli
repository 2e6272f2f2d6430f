(** Runtime telemetry for the live forwarding plane.

    Every Algorithm-1 decision, delivery and recovery activation can be
    turned into measurable events: monotonic counters, gauges,
    log-scale histograms with quantile summaries, and a bounded
    per-domain trace ring from which per-packet delivery traces are
    reconstructable.  The module depends on nothing but a monotonic
    clock stub, so every layer — {!Lipsin_forwarding.Fastpath}'s hot
    loop included — can instrument itself.

    {b Concurrency.}  A metric owns one {e cell} per domain, created
    lazily through domain-local storage and padded to a cache line, so
    the hot path is an atomic-free plain-int increment into the calling
    domain's private cell.  Aggregation happens on read by summing the
    cells.  Values read while other domains are actively writing are a
    consistent-enough snapshot for monitoring; exact readings (as the
    test suite takes) require quiescence.

    {b Cost.}  The global sink switch is one [Atomic.t bool]: with the
    default {!Sink.Noop} sink every instrument site is a single atomic
    load and an untaken branch, a budget the bench suite's [--obs] mode
    verifies stays under 3% of fast-path throughput. *)

val enabled : unit -> bool
(** [true] iff the memory sink is installed. *)

(** Interval timing on the monotonic clock (CLOCK_MONOTONIC, via
    bechamel's [monotonic_clock] stub): every duration the runtime
    reports is read here, never from the wall clock. *)
module Clock : sig
  val now : unit -> int
  (** Nanoseconds since an arbitrary origin; allocation-free. *)

  val seconds_since : int -> float
  (** Seconds elapsed since a {!now} reading. *)
end

module Sink : sig
  type t =
    | Noop  (** Default: all instrumentation compiles to a dead branch. *)
    | Memory  (** Record into in-process per-domain cells. *)

  val set : t -> unit
  val current : unit -> t
end

(** Monotonic counters.  Increments from distinct domains go to
    distinct cells; {!Counter.value} sums them. *)
module Counter : sig
  type t

  val make : ?help:string -> ?labels:(string * string) list -> string -> t
  (** Registers (or retrieves — registration is idempotent per
      (name, labels)) a counter in the global registry. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int

  val local : t -> int array
  (** The calling domain's raw cell for zero-overhead hot loops: bump
      index 0 with plain stores {e after} checking {!enabled} yourself.
      The array is domain-private — never share it across domains. *)

  type vec
  (** A counter family keyed by a small integer label (e.g. the
      forwarding-table index). *)

  val vec : ?help:string -> string -> label:string -> vec
  val cell : vec -> int -> t
  (** [cell v i] is the counter labelled [{label="i"}], memoized. *)
end

(** Gauges: last-written-wins values (rare writes — one atomic). *)
module Gauge : sig
  type t

  val make : ?help:string -> ?labels:(string * string) list -> string -> t
  val set : t -> int -> unit
  val value : t -> int

  type vec
  (** A gauge family keyed by a small integer label (e.g. the shard
      index of a forwarding-service queue). *)

  val vec : ?help:string -> string -> label:string -> vec
  val cell : vec -> int -> t
  (** [cell v i] is the gauge labelled [{label="i"}], memoized. *)
end

(** Log-scale histograms: 64 power-of-two buckets spanning
    (2^-32, 2^32], exact sum and max, quantiles by linear interpolation
    inside the bucket (clamped to the tracked max). *)
module Histogram : sig
  type t

  val make : ?help:string -> ?labels:(string * string) list -> string -> t
  val observe : t -> float -> unit
  val observe_int : t -> int -> unit

  type cells
  (** The calling domain's cell, for hot loops. *)

  val local : t -> cells
  val record : cells -> float -> unit
  (** Unconditional observe into a domain-local cell: the caller
      checked {!enabled}. *)

  val record_int : cells -> int -> unit
  (** Like {!record} for small non-negative ints (hop and link counts):
      the bucket is one table lookup. *)

  type summary = {
    count : int;
    sum : float;
    mean : float;
    p50 : float;
    p95 : float;
    p99 : float;
    p999 : float;
    max : float;
  }

  val summary : t -> summary

  (**/**)

  val bucket_of : float -> int
  val le_bound : int -> float
end

(** Bounded lock-free per-domain trace ring of per-hop forwarding
    events.  Each domain writes only its own ring; when the ring is
    full the oldest event is overwritten and counted in {!dropped}.  A
    whole delivery runs on one domain, so a packet's events live in one
    ring and replay in order. *)
module Trace : sig
  type kind =
    | Hop  (** A forwarding decision (possibly admitting zero links). *)
    | Drop_fill
    | Drop_loop
    | Drop_bad_table
    | Recovery_activation  (** A VLId/backup-path install, not a hop. *)
    | Stitch_handoff
        (** A partitioned-delivery stage boundary: [ev_out_links] names
            the {e stage} being activated, not dense links. *)

  type event = {
    ev_seq : int;  (** Ring-local write index: orders a domain's events. *)
    ev_packet : int;  (** Publication id from {!next_packet_id}. *)
    ev_node : int;
    ev_in_link : int;  (** Dense arrival-link index; -1 at the origin. *)
    ev_kind : kind;
    ev_out_links : int array;
        (** Dense indexes of the links a copy actually took (admitted,
            not deduplicated away, and not lost); for {!Stitch_handoff}
            the single activated stage. *)
    ev_false_positive : bool;
        (** Some admitted link was off the intended tree. *)
    ev_loop_suspected : bool;
    ev_deliver_local : bool;
    ev_ttl_expired : int;  (** Admitted links the TTL refused. *)
    ev_table : int;  (** Forwarding table of the decision; -1 unknown. *)
    ev_engine : int;  (** Engine code ({!engine_reference} etc.); -1 unknown. *)
    ev_stage : int;  (** Partition stage of a stitched delivery; -1 unstaged. *)
    ev_depth : int;  (** Hop depth from the (stage) root. *)
  }

  type ring

  (** {2 Engine codes}

      Small ints carried in [ev_engine] so the hot path never formats a
      string. *)

  val engine_reference : int
  val engine_fast : int
  val engine_name : int -> string

  (** {2 Sampling}

      Per-publication trace contexts: {!start} grants a context to
      1-in-N publications (N from {!set_sampling}, default 1 = trace
      everything).  The decision counter is process-wide, so domains
      share the sampling budget. *)

  type ctx = {
    tc_packet : int;  (** Publication id; -1 when not sampled. *)
    tc_sampled : bool;
  }

  val set_sampling : int -> unit
  val sampling : unit -> int

  val off : ctx
  (** The never-sampled context. *)

  val start : unit -> ctx
  (** Sampling decision for a new publication: a fresh sampled context
      1-in-N times when {!recording}, {!off} otherwise. *)

  val forced : unit -> ctx
  (** A sampled context regardless of the sampling rate (tests,
      anomaly replay). *)

  val set_recording : bool -> unit
  (** Tracing on/off independently of the sink (default on): counters
      can stay cheap while the ring is silenced. *)

  val recording : unit -> bool
  (** [enabled () && the tracing flag]. *)

  val set_capacity : int -> unit
  (** Per-domain ring capacity for rings created {e after} the call
      (default 16384 events). *)

  val next_packet_id : unit -> int
  (** Fresh process-wide publication id. *)

  val local : unit -> ring
  (** The calling domain's ring (created on first use). *)

  val record :
    ?table:int ->
    ?engine:int ->
    ?stage:int ->
    ?depth:int ->
    ring ->
    packet:int ->
    node:int ->
    in_link:int ->
    kind:kind ->
    out_links:int array ->
    false_positive:bool ->
    loop_suspected:bool ->
    deliver_local:bool ->
    ttl_expired:int ->
    unit

  val events : unit -> event list
  (** Snapshot of every ring, sorted by (packet, seq). *)

  val packet_events : int -> event list

  val dropped : unit -> int
  (** Events lost to ring overflow, over all rings. *)

  val delivery_set : dst_of:(int -> int) -> event list -> int list
  (** Replays an event stream into the sorted set of nodes the packet
      visited: origin nodes plus [dst_of l] for every recorded
      out-link.  [dst_of] maps a dense link index to its destination
      (the trace itself is graph-agnostic). *)

  val to_string : event -> string
  val clear : unit -> unit
end

(** Off-hot-path reconstruction of a sampled publication's trace events
    into a per-publication span tree, with a runtime cross-check
    against the expected delivery set — the dynamic twin of
    [Netcheck.check_partition].  Everything here walks ring snapshots;
    nothing runs per forwarding decision. *)
module Span : sig
  type t = { sp_event : Trace.event; mutable sp_children : t list }

  type anomaly =
    | Loop of int
        (** The loop cache vetoed an arrival at this node ([Drop_loop]).
            The softer [loop_suspected] flag is honest Bloom background
            and does not raise an anomaly. *)
    | Revisit of int  (** Node reached more than once within one stage. *)
    | Duplicate_activation of int  (** Stage handed off more than once. *)
    | Orphan of int  (** Parent event missing: ring overflow or gap. *)

  type severity = Warning | Error

  val severity : anomaly -> severity
  (** Loops and duplicate activations are delivery-semantics violations
      ([Error]); revisits happen under honest Bloom false positives and
      orphans under ring overflow ([Warning]). *)

  val anomaly_to_string : anomaly -> string

  type tree = {
    tr_packet : int;
    tr_roots : t list;
    tr_events : Trace.event list;
    tr_anomalies : anomaly list;
  }

  val reconstruct : Trace.event list -> tree
  (** Builds the span forest of one publication from its events (in
      ring order).  An event arriving over link [l] in stage [s]
      becomes a child of the event that last emitted [l] in [s]; events
      with no arrival link are stage roots. *)

  val of_packet : int -> tree
  (** [reconstruct (Trace.packet_events pid)]. *)

  val size : t -> int
  val depth : t -> int
  val has_errors : tree -> bool

  type verdict = {
    vd_ok : bool;
    vd_complete : bool;
        (** No orphans: the rings held the publication's whole trace. *)
    vd_delivered : int list;  (** Sorted nodes the trace reached. *)
    vd_missing : int list;  (** Expected but not reached. *)
    vd_unexpected : int list;  (** Reached but not expected. *)
    vd_anomalies : anomaly list;
  }

  val crosscheck :
    dst_of:(int -> int) -> expected:int list -> tree -> verdict
  (** Replays the tree's events into a delivery set and compares with
      the intended [expected] nodes; [vd_ok] additionally requires a
      complete trace and no [Error]-severity anomalies. *)

  val verdict_to_string : verdict -> string
end

val reset : unit -> unit
(** Zeroes every cell and gauge and clears all trace rings (packet ids
    keep advancing).  Call only while instrumented code is quiescent. *)

module Export : sig
  val escape_help : string -> string
  (** Exposition-format HELP escaping: backslash and newline. *)

  val escape_label : string -> string
  (** Exposition-format label-value escaping: backslash, double quote
      and newline. *)

  val prometheus : unit -> string
  (** Prometheus text exposition format: counters and gauges as single
      samples, histograms as cumulative [_bucket{le=...}] series plus
      [_sum]/[_count].  Families are emitted in deterministic
      (name, labels) order with one [# TYPE] line each and the HELP of
      the first member that has one, so exports are diffable. *)

  val json : unit -> string
  (** The same registry as one JSON object; histograms carry their
      quantile summaries (p50/p95/p99/p999). *)

  type value =
    | Vcounter of int
    | Vgauge of int
    | Vhistogram of Histogram.summary

  val samples : unit -> (string * (string * string) list * value) list
  (** Structured snapshot in the same deterministic order as
      {!prometheus}; the serve snapshot-diff endpoint feeds on this. *)

  val write_file : path:string -> string -> bool
  (** Writes [content] to [path], creating missing parent directories;
      failures are reported on stderr (never raised) and return
      [false]. *)

  val dump_on_exit : path:string -> unit
  (** Registers an [at_exit] hook writing {!prometheus} to [path] via
      {!write_file}. *)
end

(** Anomaly flight recorder: an always-on bounded ring of recent
    per-publication frames.  A trigger (delivery mismatch, duplicate
    stage activation, suspected loop, p99 latency jump) freezes the
    ring — preserving the publications leading up to the incident — and
    dumps a post-mortem JSON bundle (frames, the offending packet's
    trace, a full metrics snapshot) for offline replay.  All entry
    points are gated on {!enabled} and run once per publication, off
    the per-decision hot path. *)
module Flight : sig
  type trigger =
    | Delivery_mismatch
    | Duplicate_activation
    | Loop_detected
    | Latency_jump
    | Manual

  val trigger_to_string : trigger -> string

  type frame = {
    fr_packet : int;  (** -1 when the publication was not sampled. *)
    fr_latency : float;  (** Seconds for the whole publication. *)
    fr_events : int;  (** Trace events the publication produced. *)
    fr_anomalies : string list;
  }

  type dump = {
    dm_seq : int;
    dm_trigger : trigger;
    dm_packet : int;
    dm_detail : string;
    dm_path : string option;
        (** [None]: no dump dir configured, or the write failed. *)
  }

  val configure :
    ?dir:string ->
    ?capacity:int ->
    ?latency_factor:float ->
    ?min_samples:int ->
    unit ->
    unit
  (** [dir]: where post-mortem bundles land (default: in-memory only).
      [capacity]: frame-ring size (default 512; resets the ring).
      [latency_factor]: the latency trigger fires at p99 × factor
      (default 8.0).  [min_samples]: frames required before the latency
      trigger arms (default 256). *)

  val want_note : unit -> bool
  (** Lock-free 1-in-16 subsampling decision for untraced publications:
      callers ask this up front and skip the clock reads and {!note}
      entirely when it answers [false], keeping the counters-only fast
      path inside its overhead budget.  Traced publications should
      always note. *)

  val note :
    ?anomalies:string list ->
    ?events:int ->
    packet:int ->
    latency:float ->
    unit ->
    unit
  (** Records one publication's frame and evaluates the latency-jump
      trigger (threshold cached, recomputed every 128 notes). *)

  val fire : ?detail:string -> trigger -> packet:int -> unit
  (** Freezes the recorder (first trigger wins until {!thaw}) and dumps
      the post-mortem bundle. *)

  val frames : unit -> frame list
  val frozen : unit -> bool
  val thaw : unit -> unit
  val dumps : unit -> dump list
  val dump_count : unit -> int
  val last_dump : unit -> dump option
  val reset : unit -> unit
end
