(* The benchmark's own checks, on short runs of every workload:
   - one seed gives an identical op-sequence digest and identical count
     metrics; another seed gives a different digest;
   - a run emits every end-to-end metric BENCHMARK.json names, with its
     unit, plus error_rate, and fails no op;
   - a traced run emits exactly the per-layer metrics BENCHMARK.json
     names, with their units. *)

open Perfbench
module Json = Lipsin_reporting.Report.Json

let failures = ref 0

let check name cond =
  Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") name;
  if not cond then incr failures

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

(* The (name, unit) pairs of one metric list of BENCHMARK.json; [] when
   the list or a field is missing, which fails the checks below. *)
let declared key =
  let ( let* ) = Option.bind in
  let pairs =
    let* json = Result.to_option (Json.parse (read_file "../BENCHMARK.json")) in
    let* list = Json.member key json in
    match list with
    | Json.Arr items ->
      List.fold_right
        (fun item acc ->
          let* acc = acc in
          let* name = Option.bind (Json.member "name" item) Json.to_string_lit in
          let* unit = Option.bind (Json.member "unit" item) Json.to_string_lit in
          Some ((name, unit) :: acc))
        items (Some [])
    | _ -> None
  in
  Option.value pairs ~default:[]

let end_to_end = declared "end_to_end"
let per_layer = declared "per_layer"
let pairs ms = List.map (fun (m : Report.metric) -> (m.Report.name, m.Report.unit)) ms
let run workload seed = Bench.run ~workload ~seed ~seconds:0.2 ~trace:true

let () =
  check "BENCHMARK.json lists end_to_end and per_layer metrics" (end_to_end <> [] && per_layer <> []);
  List.iter
    (fun workload ->
      let a = run workload 1 and b = run workload 1 and c = run workload 2 in
      let name s = Printf.sprintf "%s: %s" workload s in
      check (name "same seed, same op digest") (a.Report.digest = b.Report.digest);
      check (name "same seed, same counts") (a.Report.counts = b.Report.counts && a.Report.counts <> []);
      check (name "other seed, other op digest") (a.Report.digest <> c.Report.digest);
      let e2e = pairs a.Report.e2e in
      List.iter
        (fun (metric, unit) ->
          check (name (Printf.sprintf "emits %s in %s" metric unit)) (List.mem (metric, unit) e2e))
        (("error_rate", "ratio") :: end_to_end);
      check (name "every end-to-end value is finite")
        (List.for_all (fun (m : Report.metric) -> Float.is_finite m.Report.value) a.Report.e2e);
      check (name "error_rate is 0") (Report.correct a && Report.error_rate a = 0.0);
      check (name "per-layer metrics are exactly those BENCHMARK.json declares")
        (List.sort compare (pairs a.Report.layers) = List.sort compare per_layer))
    Bench.names;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
