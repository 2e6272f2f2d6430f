module Fastpath = Lipsin_forwarding.Fastpath
module Rows = Lipsin_forwarding.Rows
module Partition = Lipsin_bloom.Partition

type violation = {
  check : string;
  table : int;
  entry : string;
  index : int;
  offset : int;
  detail : string;
}

let to_string v =
  let where =
    (if v.table >= 0 then Printf.sprintf " table %d" v.table else "")
    ^ (if v.entry <> "" then Printf.sprintf " %s" v.entry else "")
    ^ (if v.index >= 0 then Printf.sprintf "[%d]" v.index else "")
    ^ if v.offset >= 0 then Printf.sprintf " @%d" v.offset else ""
  in
  Printf.sprintf "[%s]%s: %s" v.check where v.detail

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* All checks work on the shared introspection views; nothing here
   mutates engine state. *)

let rec popcount x acc = if x = 0 then acc else popcount (x land (x - 1)) (acc + 1)

(* Mask of the bits of group [g] that lie below vector bit [limit]. *)
let below ~limit g =
  let lo = g * Rows.group_bits in
  if limit >= lo + Rows.group_bits then -1
  else if limit <= lo then 0
  else (1 lsl (limit - lo)) - 1

(* Popcount of the live bits [0, m) of the row at [off]. *)
let live_popcount rows ~off ~groups ~m =
  let c = ref 0 in
  for g = 0 to groups - 1 do
    c := popcount (rows.(off + g) land below ~limit:m g) !c
  done;
  !c

(* Whether the kill bit (position m) is set, and the popcount of the
   bits beyond it. *)
let padding_state rows ~off ~groups ~m =
  let stray = ref 0 in
  for g = 0 to groups - 1 do
    stray :=
      popcount (rows.(off + g) land lnot (below ~limit:(m + 1) g)) !stray
  done;
  (Rows.get_bit rows ~off m, !stray)

type flagger =
  ?table:int -> ?entry:string -> ?index:int -> ?offset:int -> string -> string -> unit

(* The decision-buffer capacities next to the rows they must hold. *)
type caps = { forward : int; services : int; stitches : int; seen : int }

let check_rows (flag : flagger) (v : Rows.t) caps =
  let m = v.Rows.m in
  let d = v.Rows.d in
  let groups = v.Rows.groups in
  let n_ports = v.Rows.n_ports in
  let n_virt = v.Rows.n_virt in
  let n_svc = Array.length v.Rows.svc_names in
  let n_stitch = Array.length v.Rows.stitch_next in
  (* Geometry: the packed layout the hot loops assume.  Rows always
     carry at least one spare bit so the kill bit exists. *)
  if m <= 0 then flag "geometry" (Printf.sprintf "non-positive width m=%d" m);
  if d <= 0 then flag "geometry" (Printf.sprintf "non-positive table count d=%d" d);
  if groups <> Rows.groups_for ~m then
    flag "geometry"
      (Printf.sprintf "groups=%d, expected ceil((m+1)/63)=%d" groups
         (Rows.groups_for ~m));
  if Array.length v.Rows.k_for_table <> d then
    flag "geometry"
      (Printf.sprintf "k_for_table has %d entries for d=%d tables"
         (Array.length v.Rows.k_for_table)
         d);
  Array.iteri
    (fun tbl k ->
      if k <= 0 || k > m then
        flag "geometry" ~table:tbl (Printf.sprintf "k=%d outside (0, m=%d]" k m))
    v.Rows.k_for_table;
  (* d-consistency: every candidate table must be present with the same
     per-kind dimensions. *)
  let expect_tables name arr =
    if Array.length arr <> d then
      flag "d-consistency" ~entry:name
        (Printf.sprintf "%d per-table row arrays for d=%d tables" (Array.length arr) d)
  in
  expect_tables "phys" v.Rows.phys;
  expect_tables "in" v.Rows.in_tags;
  expect_tables "block" v.Rows.blocks;
  expect_tables "virt" v.Rows.virt;
  expect_tables "local" v.Rows.local;
  expect_tables "svc" v.Rows.svc;
  expect_tables "stitch" v.Rows.stitch;
  (* Stitch payload arrays ride side by side with the tag rows. *)
  if Array.length v.Rows.stitch_partition <> n_stitch then
    flag "d-consistency" ~entry:"stitch"
      (Printf.sprintf "partition payloads %d <> stitch entries %d"
         (Array.length v.Rows.stitch_partition)
         n_stitch);
  if Array.length v.Rows.block_off <> d then
    flag "d-consistency" ~entry:"block"
      (Printf.sprintf "%d offset tables for d=%d tables"
         (Array.length v.Rows.block_off)
         d);
  (* Port metadata arrays. *)
  if Array.length v.Rows.up <> n_ports then
    flag "port-bounds"
      (Printf.sprintf "up array length %d <> n_ports %d" (Array.length v.Rows.up) n_ports);
  if Array.length v.Rows.out_index <> n_ports then
    flag "port-bounds"
      (Printf.sprintf "out_index length %d <> n_ports %d"
         (Array.length v.Rows.out_index)
         n_ports);
  (* Virtual egress indirection: monotone prefix offsets, every egress a
     valid port. *)
  let voff = v.Rows.v_out_off in
  if Array.length voff <> n_virt + 1 then
    flag "offsets" ~entry:"virt"
      (Printf.sprintf "v_out_off length %d <> n_virt+1=%d" (Array.length voff)
         (n_virt + 1))
  else begin
    if n_virt >= 0 && voff.(0) <> 0 then
      flag "offsets" ~entry:"virt" (Printf.sprintf "v_out_off.(0)=%d <> 0" voff.(0));
    for i = 0 to n_virt - 1 do
      if voff.(i + 1) < voff.(i) then
        flag "offsets" ~entry:"virt" ~index:i
          (Printf.sprintf "v_out_off decreases: %d then %d" voff.(i) voff.(i + 1))
    done;
    if Array.length v.Rows.v_out_ports <> voff.(n_virt) then
      flag "offsets" ~entry:"virt"
        (Printf.sprintf "v_out_ports length %d <> v_out_off.(n_virt)=%d"
           (Array.length v.Rows.v_out_ports)
           voff.(n_virt))
  end;
  Array.iteri
    (fun j p ->
      if p < 0 || p >= n_ports then
        flag "port-bounds" ~entry:"virt" ~index:j
          (Printf.sprintf "virtual egress port %d outside [0, %d)" p n_ports))
    v.Rows.v_out_ports;
  (* Decision buffers must hold the worst-case decision. *)
  if caps.forward < n_ports then
    flag "capacity"
      (Printf.sprintf "forward buffer %d < n_ports %d" caps.forward n_ports);
  if caps.services < n_svc then
    flag "capacity"
      (Printf.sprintf "service buffer %d < n_services %d" caps.services n_svc);
  if caps.stitches < n_stitch then
    flag "capacity"
      (Printf.sprintf "stitch buffer %d < n_stitch %d" caps.stitches n_stitch);
  if caps.seen < n_ports then
    flag "capacity"
      (Printf.sprintf "seen stamps %d < n_ports %d" caps.seen n_ports);
  (* Per-table row scan: sizes, padding, kill bits, LIT popcounts. *)
  let tables = min d (Array.length v.Rows.phys) in
  let scan ~entry ~n ~exact_k ~kill_for tbl rows =
    if Array.length rows <> n * groups then
      flag "row-size" ~table:tbl ~entry
        (Printf.sprintf "row array has %d ints, expected %d entries * %d groups = %d"
           (Array.length rows) n groups (n * groups))
    else
      for slot = 0 to n - 1 do
        let off = slot * groups in
        let kill_at = off + (m / Rows.group_bits) in
        let kill_set, stray = padding_state rows ~off ~groups ~m in
        if stray <> 0 then
          flag "padding" ~table:tbl ~entry ~index:slot ~offset:kill_at
            (Printf.sprintf "%d stray bits set beyond position m=%d" stray m);
        (match kill_for with
        | None ->
          if kill_set then
            flag "kill-bit" ~table:tbl ~entry ~index:slot ~offset:kill_at
              "kill bit set on an entry kind that never carries one"
        | Some down ->
          if kill_set && not (down slot) then
            flag "kill-bit" ~table:tbl ~entry ~index:slot ~offset:kill_at
              "kill bit set but the port is up";
          if (not kill_set) && down slot then
            flag "kill-bit" ~table:tbl ~entry ~index:slot ~offset:kill_at
              "port is down but its kill bit is clear");
        match exact_k with
        | Some k ->
          let pc = live_popcount rows ~off ~groups ~m in
          if pc <> k then
            flag "popcount" ~table:tbl ~entry ~index:slot ~offset:off
              (Printf.sprintf "LIT has %d live bits, expected k=%d" pc k)
        | None -> ()
      done
  in
  for tbl = 0 to tables - 1 do
    let k =
      if tbl < Array.length v.Rows.k_for_table then Some v.Rows.k_for_table.(tbl)
      else None
    in
    let down slot = slot < Array.length v.Rows.up && not v.Rows.up.(slot) in
    scan ~entry:"phys" ~n:n_ports ~exact_k:k ~kill_for:(Some down) tbl
      v.Rows.phys.(tbl);
    if tbl < Array.length v.Rows.in_tags then
      scan ~entry:"in" ~n:n_ports ~exact_k:k ~kill_for:None tbl v.Rows.in_tags.(tbl);
    if tbl < Array.length v.Rows.local then
      scan ~entry:"local" ~n:1 ~exact_k:k ~kill_for:None tbl v.Rows.local.(tbl);
    if tbl < Array.length v.Rows.svc then
      scan ~entry:"svc" ~n:n_svc ~exact_k:k ~kill_for:None tbl v.Rows.svc.(tbl);
    (* Stitch tags are single egress LITs, so the exact-k law holds —
       at the strengthened egress bit count, not the link LITs' k. *)
    if tbl < Array.length v.Rows.stitch then
      scan ~entry:"stitch" ~n:n_stitch
        ~exact_k:(Option.map (Partition.egress_k ~m) k)
        ~kill_for:None tbl v.Rows.stitch.(tbl);
    (* Virtual entries are ORs of whole trees and block entries are
       arbitrary veto patterns, so only layout invariants apply. *)
    if tbl < Array.length v.Rows.virt then
      scan ~entry:"virt" ~n:n_virt ~exact_k:None ~kill_for:None tbl v.Rows.virt.(tbl);
    if tbl < Array.length v.Rows.blocks && tbl < Array.length v.Rows.block_off then begin
      let off = v.Rows.block_off.(tbl) in
      if Array.length off <> n_ports + 1 then
        flag "offsets" ~table:tbl ~entry:"block"
          (Printf.sprintf "offset table length %d <> n_ports+1=%d" (Array.length off)
             (n_ports + 1))
      else begin
        if off.(0) <> 0 then
          flag "offsets" ~table:tbl ~entry:"block"
            (Printf.sprintf "block_off.(0)=%d <> 0" off.(0));
        for p = 0 to n_ports - 1 do
          if off.(p + 1) < off.(p) then
            flag "offsets" ~table:tbl ~entry:"block" ~index:p
              (Printf.sprintf "block_off decreases: %d then %d" off.(p) off.(p + 1))
        done;
        scan ~entry:"block" ~n:off.(n_ports) ~exact_k:None ~kill_for:None tbl
          v.Rows.blocks.(tbl)
      end
    end
  done

let audit ?(check_digest = true) fp =
  let v = Fastpath.view fp in
  let out = ref [] in
  let flag ?(table = -1) ?(entry = "") ?(index = -1) ?(offset = -1) check detail =
    out := { check; table; entry; index; offset; detail } :: !out
  in
  check_rows flag v.Fastpath.view_rows
    {
      forward = v.Fastpath.view_forward_cap;
      services = v.Fastpath.view_services_cap;
      stitches = v.Fastpath.view_stitch_cap;
      seen = v.Fastpath.view_seen_cap;
    };
  if check_digest then begin
    let now = Fastpath.digest fp in
    if now <> v.Fastpath.view_digest then
      flag "digest"
        (Printf.sprintf "digest %#x no longer matches the compile-time %#x" now
           v.Fastpath.view_digest)
  end;
  List.rev !out

let audit_ok ?check_digest fp =
  match audit ?check_digest fp with [] -> true | _ :: _ -> false
