(* One workload run's result: the markdown report (configuration,
   results, layer table, conclusions) and the one-line JSON result. *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

type t = {
  workload : string;
  config : (string * string) list;  (* machine, seed, workload parameters *)
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;  (* per-layer metrics every workload reports *)
  extra : metric list;  (* per-layer metrics of this workload only *)
  counts : (string * int) list;  (* exact counts: repeat for one seed *)
  digest : int;  (* op-sequence digest *)
  attribution : string list;  (* markdown rows of the time attribution *)
  notes : string list;
}

let error_rate t =
  if t.attempted = 0 then 1.0 else float_of_int t.failed /. float_of_int t.attempted

let correct t = t.attempted > 0 && t.failed = 0

let metric_json ms =
  String.concat ", "
    (List.map
       (fun x ->
         if not (Float.is_finite x.value) then
           failwith (Printf.sprintf "metric %s is not finite" x.name);
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit)
       ms)

(* The result line.  [error_rate] is 0 on every correct run, so the line
   carries it as [failed]/[attempted] rather than as a metric. *)
let json t ~trace =
  let ms =
    if trace then t.layers
    else List.filter (fun x -> x.name <> "error_rate") t.e2e
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct t) t.attempted t.failed (metric_json ms)

let pp_value v =
  if Float.is_integer v && Float.abs v < 1e12 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 100.0 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.4g" v

let rows ms =
  List.map (fun x -> Printf.sprintf "| `%s` | %s | %s |" x.name (pp_value x.value) x.unit) ms

let markdown t ~trace =
  let b = Buffer.create 4096 in
  let line s = Buffer.add_string b s; Buffer.add_char b '\n' in
  line (Printf.sprintf "## perfbench `%s`%s" t.workload (if trace then " (traced)" else ""));
  line "";
  line "### Configuration";
  line "";
  List.iter (fun (k, v) -> line (Printf.sprintf "- **%s**: %s" k v)) t.config;
  line (Printf.sprintf "- **op digest**: %s" (Mix.to_hex t.digest));
  line "";
  line "### Results";
  line "";
  line "| metric | value | unit |";
  line "|---|---|---|";
  List.iter line (rows t.e2e);
  line (Printf.sprintf "| attempted / failed | %d / %d | ops |" t.attempted t.failed);
  if trace then begin
    line "";
    line "### Where did the time go";
    line "";
    line "| layer metric | value | unit |";
    line "|---|---|---|";
    List.iter line (rows (t.layers @ t.extra));
    if t.attribution <> [] then begin
      line "";
      List.iter line t.attribution
    end
  end;
  line "";
  line "### Conclusions";
  line "";
  List.iter (fun n -> line ("- " ^ n)) t.notes;
  Buffer.contents b
