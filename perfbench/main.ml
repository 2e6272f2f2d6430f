(* perfbench: one workload from a seed, its metrics as a markdown report
   and, as the last line of standard output, one JSON result.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1

   Every flag is required; an unknown flag, a flag without a value, an
   unknown workload or a malformed number exits with code 2. *)

let usage () =
  Printf.sprintf "usage: %s --workload {%s} --seed N --seconds S --trace 0|1"
    Sys.argv.(0) (String.concat "|" Perfbench.Bench.names)

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      prerr_endline (usage ());
      exit 2)
    fmt

let () =
  let flags = Hashtbl.create 4 in
  let rec parse = function
    | [] -> ()
    | flag :: value :: rest
      when List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace" ] ->
      if Hashtbl.mem flags flag then fail "%s given twice" flag;
      Hashtbl.replace flags flag value;
      parse rest
    | [ flag ] when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      fail "%s needs a value" flag
    | arg :: _ -> fail "unknown argument %S" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get flag =
    match Hashtbl.find_opt flags flag with Some v -> v | None -> fail "missing %s" flag
  in
  let workload = get "--workload" in
  if not (List.mem workload Perfbench.Bench.names) then fail "unknown workload %S" workload;
  let seed =
    match int_of_string_opt (get "--seed") with
    | Some s when s >= 0 -> s
    | _ -> fail "--seed needs a non-negative integer"
  in
  let seconds =
    match float_of_string_opt (get "--seconds") with
    | Some s when s > 0.0 && s <= 3600.0 -> s
    | _ -> fail "--seconds needs a positive number"
  in
  let trace =
    match get "--trace" with
    | "0" -> false
    | "1" -> true
    | _ -> fail "--trace needs 0 or 1"
  in
  let r = Perfbench.Bench.run ~workload ~seed ~seconds ~trace in
  print_string (Perfbench.Report.markdown r ~trace);
  print_endline (Perfbench.Report.json r ~trace);
  exit (if Perfbench.Report.correct r then 0 else 1)
