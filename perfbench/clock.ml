(* Every duration the benchmark reports comes from this clock: the
   CLOCK_MONOTONIC stub of bechamel's monotonic_clock, read as native-int
   nanoseconds (the unboxed external keeps a read allocation-free). *)

let now () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now () - t0) *. 1e-9

(* A span accumulator: total duration and number of spans. *)
type acc = { mutable ns : int; mutable n : int }

let acc () = { ns = 0; n = 0 }

let add a ns =
  a.ns <- a.ns + ns;
  a.n <- a.n + 1

(* [time a f] runs [f] and adds its duration to [a]. *)
let time a f =
  let t0 = now () in
  let r = f () in
  add a (now () - t0);
  r

let mean_us a = if a.n = 0 then 0.0 else float_of_int a.ns /. float_of_int a.n /. 1e3
