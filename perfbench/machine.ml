(* The machine record every result carries. *)

let nproc = Domain.recommended_domain_count ()

let describe () =
  [
    ("nproc", string_of_int nproc);
    ("ocaml", Build_info.ocaml_version);
    ("flambda", string_of_bool Build_info.flambda);
  ]

(* Peak resident set size (VmHWM) in MiB; fails closed when /proc is
   missing, since the metric is part of every result. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      scan ())
