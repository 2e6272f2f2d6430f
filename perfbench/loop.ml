(* The measured phase: a closed loop with one outstanding request from a
   single dispatcher, cut into fixed-length windows.

   Throughput is the run's verified ops over its measured wall time, and
   the latency quantiles are those of all the run's requests.  The
   per-window rates and p99s are printed beside them, report-only, so a
   reader can tell a run the machine slowed in stretches from one the
   program slowed throughout.

   In a traced run, odd windows record spans and even windows do not;
   the end-to-end figures of a traced run come from its untraced
   windows. *)

let windows = 20

(* Every run sets up this many times from scratch; see [setup_median]. *)
let setups = 3

type t = {
  mutable lat : int array;  (* request latencies, ns, call to return *)
  mutable requests : int;
  mutable ops : int;
  mutable failed : int;
  mutable traced : bool;  (* the current window records spans *)
}

(* Sized for any run this machine completes, so the latency record adds
   a fixed amount to peak RSS instead of a step that depends on speed. *)
let create () =
  { lat = Array.make (1 lsl 20) 0; requests = 0; ops = 0; failed = 0; traced = false }

let record t ns =
  if t.requests = Array.length t.lat then begin
    let bigger = Array.make (2 * t.requests) 0 in
    Array.blit t.lat 0 bigger 0 t.requests;
    t.lat <- bigger
  end;
  t.lat.(t.requests) <- ns;
  t.requests <- t.requests + 1

(* One request: [f] is the call the benchmark waits on. *)
let call t f =
  let t0 = Clock.now () in
  let r = f () in
  record t (Clock.now () - t0);
  r

(* Attribute [ops] finished operations, [failed] of them wrong. *)
let finish t ~ops ~failed =
  t.ops <- t.ops + ops;
  t.failed <- t.failed + failed

let last_ns t = t.lat.(t.requests - 1)

let percentile xs p = if Array.length xs = 0 then 0.0 else Lipsin_util.Stats.percentile xs p
let median xs = percentile xs 50.0

(* Set up [setups] times from scratch and keep the last set-up; the
   reported set-up time is the median, since one set-up on a shared
   machine is as noisy as one request.  Each discarded set-up is torn
   down and its memory compacted away before the next starts, so peak
   RSS reflects one set-up. *)
let setup_median ~make ~discard =
  let times = Array.make setups 0.0 in
  let last = ref None in
  for i = 0 to setups - 1 do
    Option.iter discard !last;
    last := None;
    Gc.compact ();
    let t0 = Clock.now () in
    last := Some (make ());
    times.(i) <- Clock.seconds_since t0
  done;
  (Option.get !last, median times)

type summary = {
  requests : int;
  ops : int;
  failed : int;
  ops_per_s : float;  (* untraced windows' ops over their wall time *)
  traced_ops_per_s : float;  (* the same over traced windows; 0 untraced *)
  p50_us : float;  (* over every request of the untraced windows *)
  p99_us : float;
  beyond_p99 : int;  (* those requests above p99_us *)
  window_rates : float array;  (* untraced windows, in run order *)
  window_p99s : float array;
  peak_rss_mb : float;  (* at the end of the measured phase, before any
                           checking or replay the benchmark does after it *)
}

let run t ~seconds ~alternate step =
  let win_ns = int_of_float (seconds *. 1e9) / windows in
  let start = Clock.now () in
  let rates = ref [] and p99s = ref [] and lats = ref [] in
  let plain_ops = ref 0 and plain_ns = ref 0 and traced_ops = ref 0 and traced_ns = ref 0 in
  for w = 0 to windows - 1 do
    t.traced <- alternate && w land 1 = 1;
    let deadline = start + ((w + 1) * win_ns) in
    let ops0 = t.ops and req0 = t.requests in
    let w0 = Clock.now () in
    step ();
    while Clock.now () < deadline do
      step ()
    done;
    let ops = t.ops - ops0 and ns = Clock.now () - w0 in
    if t.traced then begin
      traced_ops := !traced_ops + ops;
      traced_ns := !traced_ns + ns
    end
    else begin
      plain_ops := !plain_ops + ops;
      plain_ns := !plain_ns + ns;
      let lat = Array.init (t.requests - req0) (fun i -> float_of_int t.lat.(req0 + i) /. 1e3) in
      rates := (float_of_int ops /. (float_of_int ns *. 1e-9)) :: !rates;
      p99s := percentile lat 99.0 :: !p99s;
      lats := lat :: !lats
    end
  done;
  t.traced <- false;
  let rate ops ns = if ns = 0 then 0.0 else float_of_int ops /. (float_of_int ns *. 1e-9) in
  let lat = Array.concat !lats in
  let p99 = percentile lat 99.0 in
  {
    requests = t.requests;
    ops = t.ops;
    failed = t.failed;
    ops_per_s = rate !plain_ops !plain_ns;
    traced_ops_per_s = rate !traced_ops !traced_ns;
    p50_us = median lat;
    p99_us = p99;
    beyond_p99 = Array.fold_left (fun n x -> if x > p99 then n + 1 else n) 0 lat;
    window_rates = Array.of_list (List.rev !rates);
    window_p99s = Array.of_list (List.rev !p99s);
    peak_rss_mb = Machine.peak_rss_mb ();
  }

(* The end-to-end metrics every workload reports, in one order. *)
let e2e s ~setup_s ~efficiency ~fpr =
  let m = Report.m in
  [
    m "ops_per_s" "ops/s" s.ops_per_s;
    m "latency_p50_us" "us" s.p50_us;
    m "latency_p99_us" "us" s.p99_us;
    m "error_rate" "ratio"
      (if s.ops = 0 then 1.0 else float_of_int s.failed /. float_of_int s.ops);
    m "setup_s" "s" setup_s;
    m "forwarding_efficiency" "ratio" efficiency;
    m "false_positive_rate" "ratio" fpr;
    m "peak_rss_mb" "MB" s.peak_rss_mb;
  ]

let latency_note s =
  let spread xs = Printf.sprintf "min %.1f, median %.1f, max %.1f" (percentile xs 0.0) (median xs) (percentile xs 100.0) in
  Printf.sprintf
    "latency: %d requests, %d samples beyond p99%s; per untraced window (report only): ops/s %s; p99 us %s"
    s.requests s.beyond_p99
    (if s.beyond_p99 < 10 then " (fewer than 10: p99 is not supported)" else "")
    (spread s.window_rates) (spread s.window_p99s)

(* Traced windows' throughput over untraced windows' in the same run.
   It covers the spans taken inside the loop only: the layer timings run
   after the loop, and [replay_s] is their wall time. *)
let trace_overhead s ~replay_s =
  let ratio = if s.ops_per_s = 0.0 then 0.0 else s.traced_ops_per_s /. s.ops_per_s in
  ( Report.m "trace.ops_per_s_ratio" "ratio" ratio,
    Printf.sprintf
      "tracing overhead: traced windows ran at %.3f of the untraced windows' ops/s (in-loop spans only); the layer timings after the loop took %.2f s"
      ratio replay_s )
