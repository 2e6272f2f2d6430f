(* lipsin-lint — project-invariant static analysis, compiled-row
   auditing and whole-deployment verification.

   Lint mode (default):
     lipsin_lint [--format human|json] [--list-rules] PATH...
   scans the given files/directories for .ml sources (plus .mli and
   dune files for coverage and reachability), applies the project
   rules, and exits 1 if any finding survives suppression.

   Audit mode:
     lipsin_lint --audit --edges FILE --assignment FILE [--fill-limit F]
   loads a persisted topology (Edge_list) and LIT assignment (Persist),
   compiles every node's fast path and structurally verifies the
   compiled rows with Analysis.Audit; exits 2 on any violation.

   Netcheck mode:
     lipsin_lint --netcheck --edges FILE --assignment FILE
                 [--partition FILE] [--fill-limit F] [--samples N]
                 [--seed N] [--strict]
   statically verifies the deployment itself with Analysis.Netcheck:
   LIT anomalies, loop admissibility per table, recovery soundness,
   and (with --samples) the candidates of N random delivery trees.
   With --partition, also loads a persisted Stagecut partition and
   proves its exactly-once property (stage coverage, stitch wiring,
   cross-stage loop/duplicate freedom) against the same deployment.
   Findings flow through the linter's human/JSON reporters; exits 3 on
   Error-severity findings (any finding with --strict).

   Alloc / races modes:
     lipsin_lint --alloc [--races] [--format human|json] [CMT_DIR...]
   typed-tree passes over the .cmt files dune produces (run `dune
   build` first; default root _build/default/lib): --alloc proves
   [@lipsin.noalloc] functions allocation-free (exit 4 on findings),
   --races classifies every mutable write reachable from Domain.spawn
   bodies and reports unsanctioned shared writes (exit 5).  Both can be
   combined; alloc findings take exit-code precedence over races.

   Exit codes (distinct per mode so CI can tell them apart):
     0   clean
     1   lint findings
     2   audit violations
     3   netcheck errors (any finding with --strict)
     4   alloccheck findings (a noalloc proof failed)
     5   racecheck findings (unsanctioned shared write)
     64  usage or I/O error *)

module Lint = Lipsin_linter.Lint
module Finding = Lipsin_linter.Finding
module Audit = Lipsin_analysis.Audit
module Netcheck = Lipsin_analysis.Netcheck
module Edge_list = Lipsin_topology.Edge_list
module Graph = Lipsin_topology.Graph
module Persist = Lipsin_core.Persist
module Node_engine = Lipsin_forwarding.Node_engine
module Fastpath = Lipsin_forwarding.Fastpath
module Assignment = Lipsin_core.Assignment
module Adaptive = Lipsin_core.Adaptive
module Lit = Lipsin_bloom.Lit

let exit_usage = 64

let help_text =
  "usage: lipsin_lint [--format human|json] [--list-rules] PATH...\n\
  \       lipsin_lint --audit --edges FILE --assignment FILE [--fill-limit F]\n\
  \       lipsin_lint --netcheck --edges FILE --assignment FILE [--partition FILE]\n\
  \                   [--fill-limit F] [--samples N] [--seed N] [--strict]\n\
  \       lipsin_lint --alloc [--races] [--format human|json] [CMT_DIR...]\n\
   \n\
   modes:\n\
  \  (default)    lint .ml/.mli/dune sources against the project rules\n\
  \  --audit      structurally verify every node's compiled rows (packed\n\
  \               fastpath rows and bit-sliced transposed tables)\n\
  \  --netcheck   statically verify the deployment: LIT collisions/subsets,\n\
  \               admissible forwarding loops per table, recovery soundness,\n\
  \               and (with --samples N) loop/false-delivery/fill checks on\n\
  \               all candidates of N random delivery trees\n\
  \  --alloc      prove [@lipsin.noalloc] functions allocation-free from the\n\
  \               .cmt typed trees (run `dune build` first; CMT_DIRs default\n\
  \               to _build/default/lib)\n\
  \  --races      classify every mutable write reachable from a Domain.spawn\n\
  \               body; report unsanctioned shared writes with witness paths\n\
   \n\
   options:\n\
  \  --format human|json   report format (lint and netcheck modes)\n\
  \  --list-rules          print the lint rules and exit\n\
  \  --edges FILE          persisted topology (Edge_list format)\n\
  \  --assignment FILE     persisted LIT assignment (Persist format)\n\
  \  --partition FILE      netcheck: persisted partitioned zFilter plan to\n\
  \                        verify for exactly-once delivery\n\
  \  --fill-limit F        fill-factor drop threshold (default 0.7)\n\
  \  --samples N           netcheck: random delivery trees to verify (default 8)\n\
  \  --seed N              netcheck: sampling seed (default 17)\n\
  \  --strict              netcheck: exit 3 on any finding, not just errors\n\
   \n\
   exit codes:\n\
  \  0   clean\n\
  \  1   lint findings\n\
  \  2   audit violations\n\
  \  3   netcheck errors (any finding with --strict)\n\
  \  4   alloccheck findings (a noalloc proof failed)\n\
  \  5   racecheck findings (unsanctioned shared write)\n\
  \  64  usage or I/O error\n"

let usage () =
  prerr_string help_text;
  exit exit_usage

let help () =
  print_string help_text;
  exit 0

let list_rules () =
  List.iter
    (fun rule ->
      Printf.printf "%-16s %s\n"
        (Lipsin_linter.Rules.name rule)
        (Lipsin_linter.Rules.describe rule))
    (Lint.default_rules ~dune_files:[] ());
  Printf.printf "%-16s %s\n" Lint.parse_error_rule
    "pseudo-rule: the file does not parse";
  exit 0

let run_lint ~format ~paths =
  let missing = List.filter (fun p -> not (Sys.file_exists p)) paths in
  if missing <> [] then begin
    List.iter (Printf.eprintf "lipsin_lint: no such path: %s\n") missing;
    exit exit_usage
  end;
  let files = Lint.load_paths paths in
  let findings = Lint.run ~files () in
  (match format with
  | `Human -> print_string (Finding.report_human findings)
  | `Json -> print_string (Finding.report_json findings));
  exit (match findings with [] -> 0 | _ :: _ -> 1)

let default_cmt_roots = [ "_build/default/lib" ]

let run_typed ~format ~paths ~alloc ~races =
  let roots = if paths = [] then default_cmt_roots else paths in
  let missing = List.filter (fun p -> not (Sys.file_exists p)) roots in
  if missing <> [] then begin
    List.iter
      (Printf.eprintf
         "lipsin_lint: no such path: %s (run `dune build` first?)\n")
      missing;
    exit exit_usage
  end;
  let units = Lipsin_linter.Typed.load_units roots in
  if units = [] then begin
    Printf.eprintf
      "lipsin_lint: no .cmt files under %s (run `dune build` first)\n"
      (String.concat " " roots);
    exit exit_usage
  end;
  let alloc_findings, alloc_roots =
    if alloc then begin
      let roots, fs = Lipsin_linter.Alloccheck.run_units units in
      (fs, roots)
    end
    else ([], [])
  in
  let race_findings, spawn_sites =
    if races then begin
      let sites, fs = Lipsin_linter.Racecheck.run_units units in
      (fs, sites)
    end
    else ([], 0)
  in
  let findings = alloc_findings @ race_findings in
  (match format with
  | `Human -> print_string (Finding.report_human findings)
  | `Json -> print_string (Finding.report_json findings));
  if alloc then
    Printf.eprintf "alloccheck: %d noalloc roots, %d findings\n"
      (List.length alloc_roots)
      (List.length alloc_findings);
  if races then
    Printf.eprintf "racecheck: %d spawn sites, %d findings\n" spawn_sites
      (List.length race_findings);
  if alloc_findings <> [] then exit 4
  else if race_findings <> [] then exit 5
  else exit 0

let load_deployment ~edges ~assignment =
  let graph =
    try Edge_list.load edges
    with Sys_error msg | Invalid_argument msg ->
      Printf.eprintf "lipsin_lint: cannot load topology: %s\n" msg;
      exit exit_usage
  in
  let asg =
    match Persist.load graph assignment with
    | Ok asg -> asg
    | Error msg ->
      Printf.eprintf "lipsin_lint: cannot load assignment: %s\n" msg;
      exit exit_usage
    | exception Sys_error msg ->
      Printf.eprintf "lipsin_lint: cannot load assignment: %s\n" msg;
      exit exit_usage
  in
  (graph, asg)

let run_audit ~edges ~assignment ~fill_limit =
  let graph, asg = load_deployment ~edges ~assignment in
  let nodes = Graph.node_count graph in
  let violations = ref 0 in
  for node = 0 to nodes - 1 do
    let engine =
      match fill_limit with
      | Some fill_limit -> Node_engine.create ~fill_limit asg node
      | None -> Node_engine.create asg node
    in
    let fp = Fastpath.compile engine in
    List.iter
      (fun v ->
        incr violations;
        Printf.printf "node %d: %s\n" node (Audit.to_string v))
      (Audit.audit fp);
    let bs = Lipsin_forwarding.Bitsliced.compile engine in
    List.iter
      (fun v ->
        incr violations;
        Printf.printf "node %d (bitsliced): %s\n" node (Audit.to_string v))
      (Audit.audit_bitsliced bs)
  done;
  if !violations = 0 then
    Printf.printf
      "audit clean: %d nodes, every compiled table verified (row-major and bit-sliced)\n"
      nodes
  else Printf.printf "%d violations\n" !violations;
  exit (if !violations = 0 then 0 else 2)

let check_partition_file ~graph ~asg ~fill_limit pfile =
  let part =
    match Persist.load_partition graph pfile with
    | Ok part -> part
    | Error msg ->
      Printf.eprintf "lipsin_lint: cannot load partition: %s\n" msg;
      exit exit_usage
    | exception Sys_error msg ->
      Printf.eprintf "lipsin_lint: cannot load partition: %s\n" msg;
      exit exit_usage
  in
  (* The per-link nonces are the whole identity of a constant-k
     deployment, so the persisted assignment reconstructs the full
     adaptive width family the partition's stages draw from. *)
  let p = Assignment.params asg in
  let k = p.Lit.k_for_table.(0) in
  if not (Array.for_all (fun k' -> k' = k) p.Lit.k_for_table) then begin
    Printf.eprintf
      "lipsin_lint: --partition needs a constant-k assignment\n";
    exit exit_usage
  end;
  let adaptive =
    Adaptive.make_with_nonces ~d:p.Lit.d ~k (Assignment.nonces asg) graph
  in
  match fill_limit with
  | Some fill_limit -> Netcheck.check_partition ~fill_limit adaptive part
  | None -> Netcheck.check_partition adaptive part

let run_netcheck ~format ~edges ~assignment ~partition ~fill_limit ~samples
    ~seed ~strict =
  let graph, asg = load_deployment ~edges ~assignment in
  let model =
    match fill_limit with
    | Some fill_limit -> Netcheck.model_of_assignment ~fill_limit asg
    | None -> Netcheck.model_of_assignment asg
  in
  let rng = Lipsin_util.Rng.of_int seed in
  let findings = Netcheck.check_deployment ~samples ~rng model in
  let findings =
    match partition with
    | None -> findings
    | Some pfile -> findings @ check_partition_file ~graph ~asg ~fill_limit pfile
  in
  let reported =
    List.map (Netcheck.to_lint_finding ~deployment:assignment) findings
  in
  (match format with
  | `Human -> print_string (Finding.report_human reported)
  | `Json -> print_string (Finding.report_json reported));
  let failing = if strict then findings else Netcheck.errors findings in
  exit (match failing with [] -> 0 | _ :: _ -> 3)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse args ~format ~paths ~mode ~edges ~assignment ~partition
      ~fill_limit ~samples ~seed ~strict ~alloc ~races =
    match args with
    | [] -> (
      match mode with
      | `Audit -> (
        match (edges, assignment) with
        | Some edges, Some assignment -> run_audit ~edges ~assignment ~fill_limit
        | _ ->
          prerr_endline "lipsin_lint: --audit needs --edges and --assignment";
          exit exit_usage)
      | `Netcheck -> (
        match (edges, assignment) with
        | Some edges, Some assignment ->
          run_netcheck ~format ~edges ~assignment ~partition ~fill_limit
            ~samples ~seed ~strict
        | _ ->
          prerr_endline "lipsin_lint: --netcheck needs --edges and --assignment";
          exit exit_usage)
      | `Lint ->
        if alloc || races then
          run_typed ~format ~paths:(List.rev paths) ~alloc ~races
        else if paths = [] then usage ()
        else run_lint ~format ~paths:(List.rev paths))
    | "--help" :: _ | "-h" :: _ -> help ()
    | "--list-rules" :: _ -> list_rules ()
    | "--format" :: fmt :: rest ->
      let format =
        match fmt with "human" -> `Human | "json" -> `Json | _ -> usage ()
      in
      parse rest ~format ~paths ~mode ~edges ~assignment ~partition
        ~fill_limit ~samples ~seed ~strict ~alloc ~races
    | "--audit" :: rest ->
      parse rest ~format ~paths ~mode:`Audit ~edges ~assignment ~partition
        ~fill_limit ~samples ~seed ~strict ~alloc ~races
    | "--netcheck" :: rest ->
      parse rest ~format ~paths ~mode:`Netcheck ~edges ~assignment ~partition
        ~fill_limit ~samples ~seed ~strict ~alloc ~races
    | "--alloc" :: rest ->
      parse rest ~format ~paths ~mode ~edges ~assignment ~partition
        ~fill_limit ~samples ~seed ~strict ~alloc:true ~races
    | "--races" :: rest ->
      parse rest ~format ~paths ~mode ~edges ~assignment ~partition
        ~fill_limit ~samples ~seed ~strict ~alloc ~races:true
    | "--strict" :: rest ->
      parse rest ~format ~paths ~mode ~edges ~assignment ~partition
        ~fill_limit ~samples ~seed ~strict:true ~alloc ~races
    | "--edges" :: file :: rest ->
      parse rest ~format ~paths ~mode ~edges:(Some file) ~assignment
        ~partition ~fill_limit ~samples ~seed ~strict ~alloc ~races
    | "--assignment" :: file :: rest ->
      parse rest ~format ~paths ~mode ~edges ~assignment:(Some file)
        ~partition ~fill_limit ~samples ~seed ~strict ~alloc ~races
    | "--partition" :: file :: rest ->
      parse rest ~format ~paths ~mode ~edges ~assignment
        ~partition:(Some file) ~fill_limit ~samples ~seed ~strict ~alloc ~races
    | "--fill-limit" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f ->
        parse rest ~format ~paths ~mode ~edges ~assignment ~partition
          ~fill_limit:(Some f) ~samples ~seed ~strict ~alloc ~races
      | None -> usage ())
    | "--samples" :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 0 ->
        parse rest ~format ~paths ~mode ~edges ~assignment ~partition
          ~fill_limit ~samples:n ~seed ~strict ~alloc ~races
      | _ -> usage ())
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some n ->
        parse rest ~format ~paths ~mode ~edges ~assignment ~partition
          ~fill_limit ~samples ~seed:n ~strict ~alloc ~races
      | None -> usage ())
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
      Printf.eprintf "lipsin_lint: unknown option %s\n" arg;
      usage ()
    | path :: rest ->
      parse rest ~format ~paths:(path :: paths) ~mode ~edges ~assignment
        ~partition ~fill_limit ~samples ~seed ~strict ~alloc ~races
  in
  parse args ~format:`Human ~paths:[] ~mode:`Lint ~edges:None ~assignment:None
    ~partition:None ~fill_limit:None ~samples:8 ~seed:17 ~strict:false
    ~alloc:false ~races:false
