(* The workloads by name.  Every workload is a closed loop with one
   outstanding request from a single dispatcher. *)

let workloads =
  [
    ( "zipf_bulk",
      fun ~seed ~seconds ~trace ->
        Zipf_w.run ~name:"zipf_bulk" ~per_call:Zipf_w.batch ~seed ~seconds ~trace );
    ( "zipf_single",
      fun ~seed ~seconds ~trace ->
        Zipf_w.run ~name:"zipf_single" ~per_call:1 ~seed ~seconds ~trace );
    ("link_churn", Churn_w.run);
    ("partitioned_tail", Tail_w.run);
  ]

let names = List.map fst workloads

let run ~workload ~seed ~seconds ~trace =
  match List.assoc_opt workload workloads with
  | None -> invalid_arg (Printf.sprintf "unknown workload %S" workload)
  | Some f -> f ~seed ~seconds ~trace
