(* Runtime telemetry: domain-safe counters, gauges, log-scale
   histograms, a bounded per-domain trace ring, and Prometheus/JSON
   exporters.  Zero dependencies so every layer can instrument itself.

   Concurrency model: each metric owns one *cell* per domain, created
   lazily through domain-local storage and padded so neighbouring cells
   never share a cache line.  The hot path is therefore an atomic-free
   plain-int increment into this domain's private cell; aggregation
   happens only on read, by summing the cell list under the registry
   mutex.  The global sink switch is a single [Atomic.t bool]: with the
   no-op sink installed every instrument site is one atomic load and a
   branch. *)

(* ---- sink ----------------------------------------------------------- *)

let live = Atomic.make false

let enabled () = Atomic.get live

module Sink = struct
  type t = Noop | Memory

  let set = function
    | Noop -> Atomic.set live false
    | Memory -> Atomic.set live true

  let current () = if Atomic.get live then Memory else Noop
end

(* ---- registry ------------------------------------------------------- *)

type kind = Kcounter | Kgauge | Khistogram

(* One per-domain storage block.  [ints] is padded to a cache line for
   counters; histograms use the tail of [ints] as bucket slots and
   [floats] for the exact sum/max. *)
type cell = { ints : int array; floats : float array }

type item = {
  id : int;
  name : string;
  help : string;
  labels : (string * string) list;
  kind : kind;
  gauge : int Atomic.t;  (* gauges are rare-write: a single atomic *)
  mutable cells : cell list;  (* appended under [mu] *)
}

let mu = Mutex.create ()
let items : item list Atomic.t = Atomic.make []
let next_id = Atomic.make 0

let n_buckets = 64
let pad = 8  (* ints of padding = one 64-byte line *)

let alloc_cell = function
  | Kcounter | Kgauge -> { ints = Array.make pad 0; floats = [||] }
  | Khistogram ->
    (* bucket counts + a padding tail; floats: [|sum; max; pad...|] *)
    { ints = Array.make (n_buckets + pad) 0; floats = Array.make pad 0.0 }

let same_labels a b =
  List.length a = List.length b
  && List.for_all2
       (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)
       a b

let register kind ?(help = "") ?(labels = []) name =
  Mutex.protect mu (fun () ->
      let existing =
        List.find_opt
          (fun it ->
            it.kind = kind && String.equal it.name name
            && same_labels it.labels labels)
          (Atomic.get items)
      in
      match existing with
      | Some it -> it
      | None ->
        let it =
          {
            id = Atomic.fetch_and_add next_id 1;
            name;
            help;
            labels;
            kind;
            gauge = Atomic.make 0;
            cells = [];
          }
        in
        Atomic.set items (it :: Atomic.get items);
        it)

(* ---- domain-local cell lookup --------------------------------------- *)

type ring = {
  mutable buf : event array;
  cap : int;
  mutable written : int;  (* total events ever recorded *)
}

and event = {
  ev_seq : int;  (* ring-local write index: orders events of one domain *)
  ev_packet : int;
  ev_node : int;
  ev_in_link : int;  (* dense link index, -1 when the packet originates *)
  ev_kind : event_kind;
  ev_out_links : int array;  (* dense indexes of links the copy took;
                                for Stitch_handoff, [|next stage|] *)
  ev_false_positive : bool;  (* some admitted link was off the intended tree *)
  ev_loop_suspected : bool;
  ev_deliver_local : bool;
  ev_ttl_expired : int;  (* admitted links the TTL refused *)
  ev_table : int;  (* forwarding table the decision ran against, -1 unknown *)
  ev_engine : int;  (* engine code (Trace.engine_reference etc), -1 unknown *)
  ev_stage : int;  (* partition stage of a stitched delivery, -1 unstaged *)
  ev_depth : int;  (* hop depth from the (stage) root *)
}

and event_kind =
  | Hop
  | Drop_fill
  | Drop_loop
  | Drop_bad_table
  | Recovery_activation
  | Stitch_handoff

type local_table = { mutable tbl : cell option array; mutable ring : ring option }

let dls = Domain.DLS.new_key (fun () -> { tbl = [||]; ring = None })

let[@lipsin.allow_alloc
     "first-touch registration allocates the per-domain cell; \
      steady-state lookups return the cached cell (checked at 0 \
      words/op by bench --alloc)"] local_cell it =
  let lt = Domain.DLS.get dls in
  let n = Array.length lt.tbl in
  if it.id >= n then begin
    let grown = Array.make (it.id + 8) None in
    Array.blit lt.tbl 0 grown 0 n;
    lt.tbl <- grown
  end;
  match lt.tbl.(it.id) with
  | Some c -> c
  | None ->
    let c = alloc_cell it.kind in
    lt.tbl.(it.id) <- Some c;
    Mutex.protect mu (fun () -> it.cells <- c :: it.cells);
    c

let cells_of it = Mutex.protect mu (fun () -> it.cells)

(* ---- counters ------------------------------------------------------- *)

module Counter = struct
  type t = item

  let make ?help ?labels name = register Kcounter ?help ?labels name

  (* The domain-local raw cell, for hot loops that checked {!enabled}
     once: bump index 0 with plain int stores. *)
  let local t = (local_cell t).ints

  let[@lipsin.noalloc] add t n =
    if Atomic.get live then begin
      let c = (local_cell t).ints in
      c.(0) <- c.(0) + n
    end

  let[@lipsin.noalloc] incr t = add t 1

  let value t = List.fold_left (fun acc c -> acc + c.ints.(0)) 0 (cells_of t)

  type vec = {
    v_name : string;
    v_help : string;
    v_label : string;
    v_mu : Mutex.t;  (* guards v_cells growth and slot initialisation *)
    mutable v_cells : t option array;
  }

  let vec ?(help = "") name ~label =
    {
      v_name = name;
      v_help = help;
      v_label = label;
      v_mu = Mutex.create ();
      v_cells = Array.make 8 None;
    }

  (* The unlocked fast-path read is safe under the OCaml memory model
     (no tearing of mutable-field reads); a stale miss just falls
     through to the locked slow path.  [v_mu] nests outside the
     registry's [mu] (taken by [make]) and never the other way, so
     there is no lock-order cycle. *)
  let cell v i =
    let i = max 0 i in
    match if i < Array.length v.v_cells then v.v_cells.(i) else None with
    | Some c -> c
    | None ->
      Mutex.protect v.v_mu (fun () ->
          if i >= Array.length v.v_cells then begin
            let grown = Array.make (i + 8) None in
            Array.blit v.v_cells 0 grown 0 (Array.length v.v_cells);
            v.v_cells <- grown
          end;
          match v.v_cells.(i) with
          | Some c -> c
          | None ->
            let c =
              make
                ~help:v.v_help
                ~labels:[ (v.v_label, string_of_int i) ]
                v.v_name
            in
            v.v_cells.(i) <- Some c;
            c)
end

module Gauge = struct
  type t = item

  let make ?help ?labels name = register Kgauge ?help ?labels name
  let set t n = if Atomic.get live then Atomic.set t.gauge n
  let value t = Atomic.get t.gauge

  type vec = {
    v_name : string;
    v_help : string;
    v_label : string;
    v_mu : Mutex.t;  (* guards v_cells growth and slot initialisation *)
    mutable v_cells : t option array;
  }

  let vec ?(help = "") name ~label =
    {
      v_name = name;
      v_help = help;
      v_label = label;
      v_mu = Mutex.create ();
      v_cells = Array.make 8 None;
    }

  (* Same discipline as {!Counter.cell}: unlocked fast-path read, locked
     grow + registration on miss; [v_mu] nests outside the registry's
     [mu] only. *)
  let cell v i =
    let i = max 0 i in
    match if i < Array.length v.v_cells then v.v_cells.(i) else None with
    | Some c -> c
    | None ->
      Mutex.protect v.v_mu (fun () ->
          if i >= Array.length v.v_cells then begin
            let grown = Array.make (i + 8) None in
            Array.blit v.v_cells 0 grown 0 (Array.length v.v_cells);
            v.v_cells <- grown
          end;
          match v.v_cells.(i) with
          | Some c -> c
          | None ->
            let c =
              make
                ~help:v.v_help
                ~labels:[ (v.v_label, string_of_int i) ]
                v.v_name
            in
            v.v_cells.(i) <- Some c;
            c)
end

(* ---- histograms ----------------------------------------------------- *)

(* Log-scale buckets: bucket [i] holds observations in
   (2^(i-32), 2^(i-31)], i.e. the upper bound of bucket [i] is
   2^(i-31) — bucket 31 is (0.5, 1], bucket 34 is (4, 8].  Everything
   non-positive lands in bucket 0, everything above 2^32 in the last.
   Quantiles interpolate linearly inside the bucket and are clamped to
   the exact tracked max. *)

module Histogram = struct
  type t = item

  let make ?help ?labels name = register Khistogram ?help ?labels name

  (* Allocation-free on purpose: [Float.frexp] boxes a tuple per call
     and this runs once per forwarding decision.  Doubling/halving a
     local float compiles to unboxed arithmetic, and the hot
     observations — hop counts, admitted links, traversals — are small
     integers resolved by one table lookup. *)
  let bucket_slow v =
    let i = ref 31 and x = ref 1.0 in
    if v <= 1.0 then
      while !i > 0 && v <= !x /. 2.0 do
        x := !x /. 2.0;
        decr i
      done
    else
      while !i < n_buckets - 1 && v > !x do
        x := !x *. 2.0;
        incr i
      done;
    !i

  (* Bucket boundaries above 1.0 are integer powers of two, so any v in
     (1, 1024] shares its bucket with [ceil v]. *)
  let small =
    Array.init 1025 (fun i -> if i = 0 then 0 else bucket_slow (float_of_int i))

  let bucket_of v =
    if v <= 0.0 then 0
    else if v >= 1.0 && v <= 1024.0 then small.(int_of_float (Float.ceil v))
    else bucket_slow v

  let le_bound i = Float.ldexp 1.0 (i - 31)

  type cells = cell

  let local t = local_cell t

  (* Unconditional: for hot paths that checked {!enabled} themselves.
     [bucket_of] stays in [0, n_buckets); histogram cells carry
     [n_buckets + pad] ints and [pad >= 2] floats (cell_of_kind). *)
  let[@lipsin.noalloc] record c v =
    let i = bucket_of v in
    c.ints.(i) <- c.ints.(i) + 1;
    c.floats.(0) <- c.floats.(0) +. v;
    if v > c.floats.(1) then c.floats.(1) <- v

  (* The per-decision fast lane: hop counts and admitted-link counts are
     small non-negative ints, so the bucket is one table load and no
     float rounding runs at all. *)
  let[@lipsin.noalloc] record_int c n =
    let i =
      if n <= 0 then 0
      else if n <= 1024 then small.(n)
      else bucket_slow (float_of_int n)
    in
    let v = float_of_int n in
    c.ints.(i) <- c.ints.(i) + 1;
    c.floats.(0) <- c.floats.(0) +. v;
    if v > c.floats.(1) then c.floats.(1) <- v

  let observe t v = if Atomic.get live then record (local_cell t) v
  let observe_int t n = if Atomic.get live then record_int (local_cell t) n

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

  let merged t =
    let buckets = Array.make n_buckets 0 in
    let sum = ref 0.0 and mx = ref 0.0 in
    List.iter
      (fun c ->
        for i = 0 to n_buckets - 1 do
          buckets.(i) <- buckets.(i) + c.ints.(i)
        done;
        sum := !sum +. c.floats.(0);
        if c.floats.(1) > !mx then mx := c.floats.(1))
      (cells_of t);
    (buckets, !sum, !mx)

  let quantile buckets total mx q =
    if total = 0 then 0.0
    else begin
      let rank = q *. float_of_int total in
      let cum = ref 0 and result = ref mx and stop = ref false in
      for i = 0 to n_buckets - 1 do
        if not !stop then begin
          let c = buckets.(i) in
          if c > 0 && float_of_int (!cum + c) >= rank then begin
            let lo = if i = 0 then 0.0 else le_bound (i - 1) in
            let hi = le_bound i in
            let within = (rank -. float_of_int !cum) /. float_of_int c in
            result := lo +. ((hi -. lo) *. within);
            stop := true
          end;
          cum := !cum + c
        end
      done;
      if !result > mx then mx else !result
    end

  let summary t =
    let buckets, sum, mx = merged t in
    let total = Array.fold_left ( + ) 0 buckets in
    {
      count = total;
      sum;
      mean = (if total = 0 then 0.0 else sum /. float_of_int total);
      p50 = quantile buckets total mx 0.50;
      p95 = quantile buckets total mx 0.95;
      p99 = quantile buckets total mx 0.99;
      p999 = quantile buckets total mx 0.999;
      max = mx;
    }
end

(* ---- trace ring ----------------------------------------------------- *)

module Trace = struct
  type nonrec event = event = {
    ev_seq : int;
    ev_packet : int;
    ev_node : int;
    ev_in_link : int;
    ev_kind : event_kind;
    ev_out_links : int array;
    ev_false_positive : bool;
    ev_loop_suspected : bool;
    ev_deliver_local : bool;
    ev_ttl_expired : int;
    ev_table : int;
    ev_engine : int;
    ev_stage : int;
    ev_depth : int;
  }

  type kind = event_kind =
    | Hop
    | Drop_fill
    | Drop_loop
    | Drop_bad_table
    | Recovery_activation
    | Stitch_handoff

  type nonrec ring = ring

  let recording_flag = Atomic.make true
  let default_capacity = Atomic.make 16384
  let rings : ring list Atomic.t = Atomic.make []
  let packet_ids = Atomic.make 0

  let set_recording b = Atomic.set recording_flag b
  let recording () = Atomic.get live && Atomic.get recording_flag
  let set_capacity n = Atomic.set default_capacity (max 1 n)
  let next_packet_id () = Atomic.fetch_and_add packet_ids 1

  (* Engine codes carried in [ev_engine]: small ints so the hot path
     never formats a string. *)
  let engine_reference = 0
  let engine_fast = 1
  let engine_bitsliced = 2

  let engine_name = function
    | 0 -> "reference"
    | 1 -> "fast"
    | 2 -> "bitsliced"
    | _ -> "unknown"

  (* ---- sampling ------------------------------------------------------ *)

  (* The per-publication sampling decision: 1-in-N publications get a
     trace context.  The counter is a single process-wide atomic, so
     domains fan-out the sampling budget between them; N = 1 (the
     default) traces everything, preserving pre-sampling behaviour. *)

  type ctx = { tc_packet : int; tc_sampled : bool }

  let sample_every = Atomic.make 1
  let sample_seq = Atomic.make 0

  let set_sampling n = Atomic.set sample_every (max 1 n)
  let sampling () = Atomic.get sample_every
  let off = { tc_packet = -1; tc_sampled = false }

  let start () =
    if not (Atomic.get live && Atomic.get recording_flag) then off
    else begin
      let n = Atomic.get sample_every in
      if n <= 1 || Atomic.fetch_and_add sample_seq 1 mod n = 0 then
        { tc_packet = Atomic.fetch_and_add packet_ids 1; tc_sampled = true }
      else off
    end

  let forced () =
    { tc_packet = Atomic.fetch_and_add packet_ids 1; tc_sampled = true }

  let dummy =
    {
      ev_seq = -1;
      ev_packet = -1;
      ev_node = -1;
      ev_in_link = -1;
      ev_kind = Hop;
      ev_out_links = [||];
      ev_false_positive = false;
      ev_loop_suspected = false;
      ev_deliver_local = false;
      ev_ttl_expired = 0;
      ev_table = -1;
      ev_engine = -1;
      ev_stage = -1;
      ev_depth = 0;
    }

  let local () =
    let lt = Domain.DLS.get dls in
    match lt.ring with
    | Some r -> r
    | None ->
      let cap = Atomic.get default_capacity in
      let r = { buf = Array.make cap dummy; cap; written = 0 } in
      lt.ring <- Some r;
      Mutex.protect mu (fun () -> Atomic.set rings (r :: Atomic.get rings));
      r

  (* Lock-free: only the owning domain writes its ring; when full the
     oldest event is overwritten and accounted in {!dropped}. *)
  let record ?(table = -1) ?(engine = -1) ?(stage = -1) ?(depth = 0) r ~packet
      ~node ~in_link ~kind ~out_links ~false_positive ~loop_suspected
      ~deliver_local ~ttl_expired =
    let e =
      {
        ev_seq = r.written;
        ev_packet = packet;
        ev_node = node;
        ev_in_link = in_link;
        ev_kind = kind;
        ev_out_links = out_links;
        ev_false_positive = false_positive;
        ev_loop_suspected = loop_suspected;
        ev_deliver_local = deliver_local;
        ev_ttl_expired = ttl_expired;
        ev_table = table;
        ev_engine = engine;
        ev_stage = stage;
        ev_depth = depth;
      }
    in
    r.buf.(r.written mod r.cap) <- e;
    r.written <- r.written + 1

  let ring_events r =
    let n = min r.written r.cap in
    let first = r.written - n in
    List.init n (fun i -> r.buf.((first + i) mod r.cap))

  let events () =
    let all =
      List.concat_map ring_events (Atomic.get rings)
    in
    List.stable_sort
      (fun a b ->
        let c = Int.compare a.ev_packet b.ev_packet in
        if c <> 0 then c else Int.compare a.ev_seq b.ev_seq)
      all

  let packet_events pid =
    List.filter (fun e -> e.ev_packet = pid) (events ())

  let dropped () =
    List.fold_left
      (fun acc r -> acc + max 0 (r.written - r.cap))
      0 (Atomic.get rings)

  (* Replay a per-packet event stream back into the set of nodes the
     packet visited: the origin event's node plus the destination of
     every link a copy actually took.  [dst_of] maps a dense link index
     to its destination node (the trace itself is graph-agnostic). *)
  let delivery_set ~dst_of evs =
    let nodes = Hashtbl.create 32 in
    List.iter
      (fun e ->
        match e.ev_kind with
        | Stitch_handoff -> ()  (* out_links names a stage, not links *)
        | Hop | Drop_fill | Drop_loop | Drop_bad_table | Recovery_activation ->
          if e.ev_in_link < 0 then Hashtbl.replace nodes e.ev_node ();
          Array.iter
            (fun l -> Hashtbl.replace nodes (dst_of l) ())
            e.ev_out_links)
      evs;
    List.sort Int.compare (Hashtbl.fold (fun v () acc -> v :: acc) nodes [])

  let kind_to_string = function
    | Hop -> "hop"
    | Drop_fill -> "drop-fill"
    | Drop_loop -> "drop-loop"
    | Drop_bad_table -> "drop-bad-table"
    | Recovery_activation -> "recovery-activation"
    | Stitch_handoff -> "stitch-handoff"

  let to_string e =
    Printf.sprintf
      "pkt=%d seq=%d node=%d in=%d %s out=[%s]%s%s%s%s%s%s%s%s"
      e.ev_packet e.ev_seq e.ev_node e.ev_in_link (kind_to_string e.ev_kind)
      (String.concat ","
         (Array.to_list (Array.map string_of_int e.ev_out_links)))
      (if e.ev_false_positive then " fp" else "")
      (if e.ev_loop_suspected then " loop-suspected" else "")
      (if e.ev_deliver_local then " local" else "")
      (if e.ev_ttl_expired > 0 then
         Printf.sprintf " ttl-expired=%d" e.ev_ttl_expired
       else "")
      (if e.ev_table >= 0 then Printf.sprintf " table=%d" e.ev_table else "")
      (if e.ev_engine >= 0 then
         Printf.sprintf " engine=%s" (engine_name e.ev_engine)
       else "")
      (if e.ev_stage >= 0 then Printf.sprintf " stage=%d" e.ev_stage else "")
      (if e.ev_depth > 0 then Printf.sprintf " depth=%d" e.ev_depth else "")

  let clear () =
    List.iter
      (fun r ->
        Array.fill r.buf 0 r.cap dummy;
        r.written <- 0)
      (Atomic.get rings)
end

(* ---- span trees ------------------------------------------------------ *)

(* Off-hot-path reconstruction of one publication's trace events into a
   span tree, plus the runtime cross-check against the expected delivery
   set — the dynamic twin of [Netcheck.check_partition].  Parent
   resolution is structural: an event that arrived over dense link [l]
   in stage [s] is a child of the event that last emitted [l] in [s].
   All of this walks ring snapshots; nothing here runs per decision. *)

module Span = struct
  type t = { sp_event : Trace.event; mutable sp_children : t list }

  type anomaly =
    | Loop of int  (* a decision at this node flagged a suspected loop *)
    | Revisit of int  (* node reached more than once within one stage *)
    | Duplicate_activation of int  (* stage handed off more than once *)
    | Orphan of int  (* parent event missing: ring overflow or gap *)

  type severity = Warning | Error

  (* Revisits happen under honest Bloom false positives and orphans
     under ring overflow, so both only warn; loops and duplicate stage
     activations violate delivery semantics outright. *)
  let severity = function
    | Loop _ | Duplicate_activation _ -> Error
    | Revisit _ | Orphan _ -> Warning

  let anomaly_to_string = function
    | Loop n -> Printf.sprintf "loop suspected at node %d" n
    | Revisit n -> Printf.sprintf "node %d reached more than once" n
    | Duplicate_activation s ->
      Printf.sprintf "stage %d activated more than once" s
    | Orphan n ->
      Printf.sprintf "orphan span at node %d (parent event lost)" n

  type tree = {
    tr_packet : int;
    tr_roots : t list;
    tr_events : Trace.event list;
    tr_anomalies : anomaly list;
  }

  let reconstruct evs =
    let pid = match evs with [] -> -1 | e :: _ -> e.ev_packet in
    let by_link : (int * int, t) Hashtbl.t = Hashtbl.create 64 in
    let arrivals : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
    let activations : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let roots = ref [] and anomalies = ref [] in
    let bump tbl k =
      let n = match Hashtbl.find_opt tbl k with Some n -> n | None -> 0 in
      Hashtbl.replace tbl k (n + 1);
      n + 1
    in
    List.iter
      (fun e ->
        let sp = { sp_event = e; sp_children = [] } in
        (match e.ev_kind with
         | Stitch_handoff ->
           Array.iter
             (fun stage ->
               if bump activations stage = 2 then
                 anomalies := Duplicate_activation stage :: !anomalies)
             e.ev_out_links
         | Hop | Drop_fill | Drop_loop | Drop_bad_table | Recovery_activation
           ->
           if bump arrivals (e.ev_stage, e.ev_node) = 2 then
             anomalies := Revisit e.ev_node :: !anomalies);
        (* Only an actual loop-cache veto is a Loop anomaly.  The
           loop_suspected flag is honest Bloom background — dense
           filters suspect loops on every reverse link — and is
           already metered by the engines' suspicion counters. *)
        (match e.ev_kind with
         | Drop_loop -> anomalies := Loop e.ev_node :: !anomalies
         | _ -> ());
        (if e.ev_in_link < 0 then roots := sp :: !roots
         else
           match Hashtbl.find_opt by_link (e.ev_stage, e.ev_in_link) with
           | Some parent -> parent.sp_children <- sp :: parent.sp_children
           | None ->
             anomalies := Orphan e.ev_node :: !anomalies;
             roots := sp :: !roots);
        match e.ev_kind with
        | Stitch_handoff -> ()
        | Hop | Drop_fill | Drop_loop | Drop_bad_table | Recovery_activation
          ->
          Array.iter
            (fun l -> Hashtbl.replace by_link (e.ev_stage, l) sp)
            e.ev_out_links)
      evs;
    {
      tr_packet = pid;
      tr_roots = List.rev !roots;
      tr_events = evs;
      tr_anomalies = List.rev !anomalies;
    }

  let of_packet pid = reconstruct (Trace.packet_events pid)

  let rec size sp = List.fold_left (fun acc c -> acc + size c) 1 sp.sp_children

  let rec depth sp =
    1 + List.fold_left (fun acc c -> max acc (depth c)) 0 sp.sp_children

  let has_errors t =
    List.exists
      (fun a -> match severity a with Error -> true | Warning -> false)
      t.tr_anomalies

  (* ---- runtime cross-check ------------------------------------------- *)

  type verdict = {
    vd_ok : bool;
    vd_complete : bool;  (* no orphans: the ring held the whole trace *)
    vd_delivered : int list;  (* sorted nodes the trace says were reached *)
    vd_missing : int list;  (* expected but not reached *)
    vd_unexpected : int list;  (* reached but not expected *)
    vd_anomalies : anomaly list;
  }

  let crosscheck ~dst_of ~expected t =
    let delivered = Trace.delivery_set ~dst_of t.tr_events in
    let missing =
      List.filter
        (fun n -> not (List.exists (Int.equal n) delivered))
        expected
    and unexpected =
      List.filter
        (fun n -> not (List.exists (Int.equal n) expected))
        delivered
    in
    let complete =
      not
        (List.exists
           (function Orphan _ -> true | _ -> false)
           t.tr_anomalies)
    in
    let set_ok =
      match (missing, unexpected) with [], [] -> true | _ -> false
    in
    {
      vd_ok = set_ok && complete && not (has_errors t);
      vd_complete = complete;
      vd_delivered = delivered;
      vd_missing = missing;
      vd_unexpected = unexpected;
      vd_anomalies = t.tr_anomalies;
    }

  let verdict_to_string v =
    let ints l = String.concat "," (List.map string_of_int l) in
    Printf.sprintf "ok=%b complete=%b delivered=[%s] missing=[%s] \
                    unexpected=[%s] anomalies=[%s]"
      v.vd_ok v.vd_complete (ints v.vd_delivered) (ints v.vd_missing)
      (ints v.vd_unexpected)
      (String.concat "; " (List.map anomaly_to_string v.vd_anomalies))
end

(* ---- reset ---------------------------------------------------------- *)

let reset () =
  List.iter
    (fun it ->
      Atomic.set it.gauge 0;
      List.iter
        (fun c ->
          Array.fill c.ints 0 (Array.length c.ints) 0;
          if Array.length c.floats > 0 then
            Array.fill c.floats 0 (Array.length c.floats) 0.0)
        (cells_of it))
    (Atomic.get items);
  Trace.clear ()

(* ---- exporters ------------------------------------------------------ *)

module Export = struct
  (* Exposition-format escaping is position-dependent: HELP text escapes
     only backslash and newline, label values additionally escape the
     double quote.  One shared routine used to over-escape HELP. *)
  let escape_with ~quote s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '"' when quote -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let escape_help s = escape_with ~quote:false s
  let escape_label s = escape_with ~quote:true s

  (* Kept for callers that predate the split; label-value semantics. *)
  let escape = escape_label

  let label_string ?extra labels =
    let labels = match extra with None -> labels | Some kv -> labels @ [ kv ] in
    if labels = [] then ""
    else
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
             labels)
      ^ "}"

  (* Deterministic family order: by metric name, then by the rendered
     label set (so vec members don't shuffle with registration order),
     then registration id as the tie-break — exports diff cleanly. *)
  let sorted_items () =
    List.stable_sort
      (fun a b ->
        let c = String.compare a.name b.name in
        if c <> 0 then c
        else
          let c =
            String.compare (label_string a.labels) (label_string b.labels)
          in
          if c <> 0 then c else Int.compare a.id b.id)
      (Atomic.get items)

  (* Items grouped into metric families (equal names), preserving the
     sorted order above.  A family shares one TYPE line and takes its
     HELP from the first member that has one. *)
  let families () =
    let rec group = function
      | [] -> []
      | it :: _ as l ->
        let same, rest =
          List.partition (fun x -> String.equal x.name it.name) l
        in
        same :: group rest
    in
    group (sorted_items ())

  let float_str v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%g" v

  (* Structured samples for programmatic consumers (the serve snapshot
     diff); same deterministic order as the text exposition. *)
  type value =
    | Vcounter of int
    | Vgauge of int
    | Vhistogram of Histogram.summary

  let samples () =
    List.map
      (fun it ->
        let v =
          match it.kind with
          | Kcounter -> Vcounter (Counter.value it)
          | Kgauge -> Vgauge (Gauge.value it)
          | Khistogram -> Vhistogram (Histogram.summary it)
        in
        (it.name, it.labels, v))
      (sorted_items ())

  let prometheus () =
    let b = Buffer.create 4096 in
    List.iter
      (fun family ->
        match family with
        | [] -> ()
        | first :: _ ->
          let ty =
            match first.kind with
            | Kcounter -> "counter"
            | Kgauge -> "gauge"
            | Khistogram -> "histogram"
          in
          (match
             List.find_opt
               (fun it -> not (String.equal it.help ""))
               family
           with
          | Some it ->
            Buffer.add_string b
              (Printf.sprintf "# HELP %s %s\n" first.name
                 (escape_help it.help))
          | None -> ());
          Buffer.add_string b
            (Printf.sprintf "# TYPE %s %s\n" first.name ty);
          List.iter
            (fun it ->
              match it.kind with
              | Kcounter ->
                Buffer.add_string b
                  (Printf.sprintf "%s%s %d\n" it.name
                     (label_string it.labels) (Counter.value it))
              | Kgauge ->
                Buffer.add_string b
                  (Printf.sprintf "%s%s %d\n" it.name
                     (label_string it.labels) (Gauge.value it))
              | Khistogram ->
                let buckets, sum, _ = Histogram.merged it in
                let cum = ref 0 in
                for i = 0 to n_buckets - 1 do
                  if buckets.(i) > 0 then begin
                    cum := !cum + buckets.(i);
                    Buffer.add_string b
                      (Printf.sprintf "%s_bucket%s %d\n" it.name
                         (label_string it.labels
                            ~extra:("le", float_str (Histogram.le_bound i)))
                         !cum)
                  end
                done;
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket%s %d\n" it.name
                     (label_string it.labels ~extra:("le", "+Inf"))
                     !cum);
                Buffer.add_string b
                  (Printf.sprintf "%s_sum%s %s\n" it.name
                     (label_string it.labels) (float_str sum));
                Buffer.add_string b
                  (Printf.sprintf "%s_count%s %d\n" it.name
                     (label_string it.labels) !cum))
            family)
      (families ());
    Buffer.contents b

  let json () =
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"metrics\":[";
    let first = ref true in
    let sep () = if !first then first := false else Buffer.add_string b "," in
    let labels_json labels =
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape v))
             labels)
      ^ "}"
    in
    List.iter
      (fun it ->
        sep ();
        match it.kind with
        | Kcounter ->
          Buffer.add_string b
            (Printf.sprintf
               "{\"name\":\"%s\",\"type\":\"counter\",\"labels\":%s,\"value\":%d}"
               (escape it.name) (labels_json it.labels) (Counter.value it))
        | Kgauge ->
          Buffer.add_string b
            (Printf.sprintf
               "{\"name\":\"%s\",\"type\":\"gauge\",\"labels\":%s,\"value\":%d}"
               (escape it.name) (labels_json it.labels) (Gauge.value it))
        | Khistogram ->
          let s = Histogram.summary it in
          Buffer.add_string b
            (Printf.sprintf
               "{\"name\":\"%s\",\"type\":\"histogram\",\"labels\":%s,\"count\":%d,\"sum\":%g,\"mean\":%g,\"p50\":%g,\"p95\":%g,\"p99\":%g,\"p999\":%g,\"max\":%g}"
               (escape it.name) (labels_json it.labels) s.Histogram.count
               s.Histogram.sum s.Histogram.mean s.Histogram.p50 s.Histogram.p95
               s.Histogram.p99 s.Histogram.p999 s.Histogram.max))
      (sorted_items ());
    Buffer.add_string b
      (Printf.sprintf "],\"trace_dropped\":%d}" (Trace.dropped ()));
    Buffer.contents b

  (* ---- robust file dumps --------------------------------------------- *)

  let rec mkdir_p dir =
    if
      not
        (String.equal dir "" || String.equal dir "." || String.equal dir "/"
        || Sys.file_exists dir)
    then begin
      mkdir_p (Filename.dirname dir);
      try Sys.mkdir dir 0o755 with Sys_error _ -> ()
    end

  (* Creates missing parent directories; failures go to stderr instead
     of vanishing (an at_exit dump used to drop its exception on the
     floor).  Returns whether the write landed. *)
  let write_file ~path content =
    try
      mkdir_p (Filename.dirname path);
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc content);
      true
    with Sys_error msg ->
      Printf.eprintf "obs: dump to %s failed: %s\n%!" path msg;
      false

  let dump_on_exit ~path =
    at_exit (fun () -> ignore (write_file ~path (prometheus ())))
end

(* ---- flight recorder ------------------------------------------------- *)

(* Always-on bounded ring of per-publication frames (latency, event
   count, anomaly notes).  When an anomaly trigger fires the ring
   freezes — no more frames are pushed, so the buffer preserves the
   publications leading up to the incident — and a post-mortem JSON
   bundle (frames + the offending packet's trace + a full metrics
   snapshot) is dumped for offline replay.  [note] runs once per
   publication, off the per-decision hot path, and is gated on
   {!enabled}; with the no-op sink it is one atomic load. *)

module Flight = struct
  type trigger =
    | Delivery_mismatch
    | Duplicate_activation
    | Loop_detected
    | Latency_jump
    | Manual

  let trigger_to_string = function
    | Delivery_mismatch -> "delivery-mismatch"
    | Duplicate_activation -> "duplicate-activation"
    | Loop_detected -> "loop-detected"
    | Latency_jump -> "latency-jump"
    | Manual -> "manual"

  type frame = {
    fr_packet : int;  (* -1 when the publication was not sampled *)
    fr_latency : float;  (* seconds for the whole publication *)
    fr_events : int;  (* trace events the publication produced *)
    fr_anomalies : string list;
  }

  type dump = {
    dm_seq : int;
    dm_trigger : trigger;
    dm_packet : int;
    dm_detail : string;
    dm_path : string option;  (* None: no dir configured or write failed *)
  }

  let dummy_frame =
    { fr_packet = -1; fr_latency = 0.0; fr_events = 0; fr_anomalies = [] }

  type state = {
    fl_mu : Mutex.t;  (* guards every mutable field below *)
    fl_seq : int Atomic.t;  (* lock-free note subsampling counter *)
    mutable fl_frames : frame array;  (* bounded ring *)
    mutable fl_written : int;
    mutable fl_frozen : bool;
    mutable fl_dir : string option;
    mutable fl_factor : float;  (* latency trigger: p99 * factor *)
    mutable fl_min_samples : int;
    mutable fl_threshold : float;  (* cached; 0 = not yet armed *)
    mutable fl_dumps : dump list;  (* newest first *)
  }

  let state =
    {
      fl_mu = Mutex.create ();
      fl_seq = Atomic.make 0;
      fl_frames = Array.make 512 dummy_frame;
      fl_written = 0;
      fl_frozen = false;
      fl_dir = None;
      fl_factor = 8.0;
      fl_min_samples = 256;
      fl_threshold = 0.0;
      fl_dumps = [];
    }

  let configure ?dir ?capacity ?latency_factor ?min_samples () =
    Mutex.protect state.fl_mu (fun () ->
        (match dir with Some d -> state.fl_dir <- Some d | None -> ());
        (match capacity with
        | Some c when c > 0 ->
          state.fl_frames <- Array.make c dummy_frame;
          state.fl_written <- 0
        | _ -> ());
        (match latency_factor with
        | Some f when f > 1.0 -> state.fl_factor <- f
        | _ -> ());
        (match min_samples with
        | Some n when n > 0 -> state.fl_min_samples <- n
        | _ -> ());
        state.fl_threshold <- 0.0)

  (* Taking the recorder mutex and reading the clock on every delivery
     costs more than the whole counters budget, so untraced publications
     are subsampled 1-in-16 with one lock-free fetch_and_add: callers
     ask [want_note] up front and skip timing entirely when it says no.
     Traced publications always note (they already paid for tracing and
     carry the events a post-mortem wants); anomaly dumps bypass the
     subsampling via [fire]. *)
  let note_every = 16

  let want_note () =
    enabled () && Atomic.fetch_and_add state.fl_seq 1 land (note_every - 1) = 0

  let frames_locked () =
    let cap = Array.length state.fl_frames in
    let n = min state.fl_written cap in
    let first = state.fl_written - n in
    List.init n (fun i -> state.fl_frames.((first + i) mod cap))

  let frames () = Mutex.protect state.fl_mu frames_locked
  let frozen () = Mutex.protect state.fl_mu (fun () -> state.fl_frozen)
  let thaw () = Mutex.protect state.fl_mu (fun () -> state.fl_frozen <- false)
  let dumps () = Mutex.protect state.fl_mu (fun () -> state.fl_dumps)
  let dump_count () = List.length (dumps ())

  let last_dump () =
    Mutex.protect state.fl_mu (fun () ->
        match state.fl_dumps with [] -> None | d :: _ -> Some d)

  let reset () =
    Atomic.set state.fl_seq 0;
    Mutex.protect state.fl_mu (fun () ->
        Array.fill state.fl_frames 0 (Array.length state.fl_frames)
          dummy_frame;
        state.fl_written <- 0;
        state.fl_frozen <- false;
        state.fl_threshold <- 0.0;
        state.fl_dumps <- [])

  (* Recomputed every 128 notes so the per-publication cost stays O(1)
     amortised: sort the live frame latencies once, cache p99 * factor. *)
  let[@lipsin.allow_race
       "fl_threshold is written only here and in [reset], both under \
        fl_mu; the _locked suffix is the calling convention ([note] \
        holds the mutex at the only call site), which the lexical \
        guard analysis cannot see across the call"] recompute_threshold_locked
      () =
    let cap = Array.length state.fl_frames in
    let n = min state.fl_written cap in
    if n >= state.fl_min_samples then begin
      let lat = Array.init n (fun i -> state.fl_frames.(i).fr_latency) in
      Array.sort Float.compare lat;
      let p99 = lat.(min (n - 1) (int_of_float (0.99 *. float_of_int n))) in
      if p99 > 0.0 then state.fl_threshold <- p99 *. state.fl_factor
    end

  let json_str s = "\"" ^ Export.escape_label s ^ "\""

  let frame_json f =
    Printf.sprintf
      "{\"packet\":%d,\"latency\":%g,\"events\":%d,\"anomalies\":[%s]}"
      f.fr_packet f.fr_latency f.fr_events
      (String.concat "," (List.map json_str f.fr_anomalies))

  let bundle ~seq ~trigger ~packet ~detail ~frames ~trace =
    let b = Buffer.create 8192 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"flight\":%d,\"trigger\":%s,\"packet\":%d,\"detail\":%s,"
         seq
         (json_str (trigger_to_string trigger))
         packet (json_str detail));
    Buffer.add_string b
      (Printf.sprintf "\"sampling\":%d,\"trace_dropped\":%d,"
         (Trace.sampling ()) (Trace.dropped ()));
    Buffer.add_string b "\"frames\":[";
    Buffer.add_string b (String.concat "," (List.map frame_json frames));
    Buffer.add_string b "],\"trace\":[";
    Buffer.add_string b (String.concat "," (List.map json_str trace));
    Buffer.add_string b "],\"metrics\":";
    Buffer.add_string b (Export.json ());
    Buffer.add_string b "}";
    Buffer.contents b

  (* Freeze-then-dump.  The freeze decision is taken under the lock; the
     bundle (which reads the registry and rings) is built outside it, so
     there is no lock-order interaction with the registry mutex. *)
  let fire ?(detail = "") trigger ~packet =
    if enabled () then begin
      let decision =
        Mutex.protect state.fl_mu (fun () ->
            if state.fl_frozen then None
            else begin
              state.fl_frozen <- true;
              Some (List.length state.fl_dumps, frames_locked ())
            end)
      in
      match decision with
      | None -> ()
      | Some (seq, frames) ->
        let trace =
          if packet >= 0 then
            List.map Trace.to_string (Trace.packet_events packet)
          else []
        in
        let body = bundle ~seq ~trigger ~packet ~detail ~frames ~trace in
        let path =
          match state.fl_dir with
          | None -> None
          | Some dir ->
            let p = Filename.concat dir (Printf.sprintf "flight-%d.json" seq)
            in
            if Export.write_file ~path:p body then Some p else None
        in
        Mutex.protect state.fl_mu (fun () ->
            state.fl_dumps <-
              {
                dm_seq = seq;
                dm_trigger = trigger;
                dm_packet = packet;
                dm_detail = detail;
                dm_path = path;
              }
              :: state.fl_dumps)
    end

  (* Per-publication entry point.  Pushes a frame unless frozen, then
     fires the latency trigger if this publication overshot the cached
     p99-based threshold. *)
  let note ?(anomalies = []) ?(events = 0) ~packet ~latency () =
    if enabled () then begin
      let jump =
        Mutex.protect state.fl_mu (fun () ->
            if not state.fl_frozen then begin
              let cap = Array.length state.fl_frames in
              state.fl_frames.(state.fl_written mod cap) <-
                {
                  fr_packet = packet;
                  fr_latency = latency;
                  fr_events = events;
                  fr_anomalies = anomalies;
                };
              state.fl_written <- state.fl_written + 1;
              if state.fl_written mod 128 = 0 then
                recompute_threshold_locked ()
            end;
            state.fl_threshold > 0.0 && latency > state.fl_threshold)
      in
      if jump then
        fire Latency_jump ~packet
          ~detail:
            (Printf.sprintf "latency %.9fs above threshold %.9fs" latency
               (Mutex.protect state.fl_mu (fun () -> state.fl_threshold)))
    end
end
