module Fastpath = Lipsin_forwarding.Fastpath
module Bitsliced = Lipsin_forwarding.Bitsliced
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

(* ---- transposed-layout checks ------------------------------------- *)

(* One column word recomputed from the rows: bit [slot - 64*blk] is
   set iff row [slot] sets filter-bit [b]. *)
let expected_col rows ~groups ~n ~b ~blk =
  let w = ref 0L in
  let lo = blk * 64 in
  let hi = min n (lo + 64) in
  if b < groups * Rows.group_bits then
    for slot = lo to hi - 1 do
      if Rows.get_bit rows ~off:(slot * groups) b then
        w := Int64.logor !w (Int64.shift_left 1L (slot - lo))
    done;
  !w

let audit_bitsliced ?(check_digest = true) bs =
  let v = Bitsliced.view bs in
  let out = ref [] in
  let flag ?(table = -1) ?(entry = "") ?(index = -1) ?(offset = -1) check detail =
    out := { check; table; entry; index; offset; detail } :: !out
  in
  let rv = v.Bitsliced.view_rows in
  check_rows flag rv
    {
      forward = v.Bitsliced.view_forward_cap;
      services = v.Bitsliced.view_services_cap;
      stitches = v.Bitsliced.view_stitch_cap;
      seen = v.Bitsliced.view_seen_cap;
    };
  let groups = rv.Rows.groups in
  let stride = v.Bitsliced.view_stride in
  if stride <> Rows.stride_for ~m:rv.Rows.m then
    flag "geometry"
      (Printf.sprintf "stride=%d, expected 8*(m/64+1)=%d" stride
         (Rows.stride_for ~m:rv.Rows.m));
  let ncols = stride * 8 in
  let bits = v.Bitsliced.view_plane_bits in
  if bits <> 4 && bits <> 8 then
    flag "geometry" (Printf.sprintf "plane_bits=%d, expected 4 or 8" bits)
  else begin
    let npos = ncols / bits in
    let vmask = (1 lsl bits) - 1 in
    let n_svc = Array.length rv.Rows.svc_names in
    let slices = v.Bitsliced.view_slices in
    if Array.length slices <> rv.Rows.d then
      flag "d-consistency" ~entry:"slices"
        (Printf.sprintf "%d per-table slice sets for d=%d tables"
           (Array.length slices) rv.Rows.d);
    Array.iteri
      (fun tbl per_table ->
        Array.iter
          (fun sv ->
            let entry = sv.Bitsliced.sv_entry in
            let expect_n, rows =
              match entry with
              | "phys" ->
                ( rv.Rows.n_ports,
                  if tbl < Array.length rv.Rows.phys then Some rv.Rows.phys.(tbl)
                  else None )
              | "in" ->
                ( rv.Rows.n_ports,
                  if tbl < Array.length rv.Rows.in_tags then Some rv.Rows.in_tags.(tbl)
                  else None )
              | "virt" ->
                ( rv.Rows.n_virt,
                  if tbl < Array.length rv.Rows.virt then Some rv.Rows.virt.(tbl)
                  else None )
              | "stitch" ->
                ( Array.length rv.Rows.stitch_next,
                  if tbl < Array.length rv.Rows.stitch then Some rv.Rows.stitch.(tbl)
                  else None )
              | _ ->
                ( n_svc,
                  if tbl < Array.length rv.Rows.svc then Some rv.Rows.svc.(tbl)
                  else None )
            in
            let n = sv.Bitsliced.sv_n in
            let blocks = (n + 63) / 64 in
            let sub = (n + 31) / 32 in
            if n <> expect_n then
              flag "col-size" ~table:tbl ~entry
                (Printf.sprintf "slice has %d entries, expected %d" n expect_n);
            if sv.Bitsliced.sv_blocks <> blocks then
              flag "col-size" ~table:tbl ~entry
                (Printf.sprintf "blocks=%d, expected ceil(n/64)=%d"
                   sv.Bitsliced.sv_blocks blocks);
            if sv.Bitsliced.sv_sub <> sub then
              flag "col-size" ~table:tbl ~entry
                (Printf.sprintf "sub=%d, expected ceil(n/32)=%d" sv.Bitsliced.sv_sub
                   sub);
            if Bytes.length sv.Bitsliced.sv_cols <> ncols * blocks * 8 then
              flag "col-size" ~table:tbl ~entry
                (Printf.sprintf "column blob is %d bytes, expected %d cols * %d blocks * 8 = %d"
                   (Bytes.length sv.Bitsliced.sv_cols)
                   ncols blocks (ncols * blocks * 8));
            if Bytes.length sv.Bitsliced.sv_used <> stride then
              flag "col-size" ~table:tbl ~entry
                (Printf.sprintf "used map is %d bytes, expected stride %d"
                   (Bytes.length sv.Bitsliced.sv_used)
                   stride);
            if Array.length sv.Bitsliced.sv_valid <> sub then
              flag "col-size" ~table:tbl ~entry
                (Printf.sprintf "valid masks %d, expected sub %d"
                   (Array.length sv.Bitsliced.sv_valid)
                   sub);
            if Array.length sv.Bitsliced.sv_plane <> npos * (vmask + 1) * sub then
              flag "col-size" ~table:tbl ~entry
                (Printf.sprintf "plane has %d words, expected %d pos * %d values * %d sub = %d"
                   (Array.length sv.Bitsliced.sv_plane)
                   npos (vmask + 1) sub
                   (npos * (vmask + 1) * sub));
            let sizes_ok =
              sv.Bitsliced.sv_blocks = blocks
              && sv.Bitsliced.sv_sub = sub
              && Bytes.length sv.Bitsliced.sv_cols = ncols * blocks * 8
              && Bytes.length sv.Bitsliced.sv_used = stride
              && Array.length sv.Bitsliced.sv_valid = sub
              && Array.length sv.Bitsliced.sv_plane = npos * (vmask + 1) * sub
            in
            let rows_ok =
              match rows with
              | Some r -> Array.length r = n * groups
              | None -> false
            in
            if sizes_ok then begin
              (* Column/row mirror: every canonical column word must be
                 the exact transpose of the rows. *)
              (match rows with
              | Some rows when rows_ok ->
                for b = 0 to ncols - 1 do
                  for blk = 0 to blocks - 1 do
                    let off = ((b * blocks) + blk) * 8 in
                    let actual = Bytes.get_int64_le sv.Bitsliced.sv_cols off in
                    let expected = expected_col rows ~groups ~n ~b ~blk in
                    if not (Int64.equal actual expected) then
                      flag "col-mirror" ~table:tbl ~entry ~index:blk ~offset:off
                        (Printf.sprintf
                           "column %d block %d is %Lx, transpose of rows gives %Lx"
                           b blk actual expected)
                  done
                done
              | _ -> ());
              (* Kill column: transposed, column m is exactly the down
                 ports. *)
              if entry = "phys" && Array.length rv.Rows.up = n then begin
                let b = rv.Rows.m in
                for blk = 0 to blocks - 1 do
                  let expected = ref 0L in
                  let lo = blk * 64 in
                  for slot = lo to min n (lo + 64) - 1 do
                    if not rv.Rows.up.(slot) then
                      expected := Int64.logor !expected (Int64.shift_left 1L (slot - lo))
                  done;
                  let off = ((b * blocks) + blk) * 8 in
                  let actual = Bytes.get_int64_le sv.Bitsliced.sv_cols off in
                  if not (Int64.equal actual !expected) then
                    flag "kill-column" ~table:tbl ~entry ~index:blk ~offset:off
                      (Printf.sprintf
                         "kill column block %d is %Lx, down ports give %Lx" blk
                         actual !expected)
                done
              end;
              (* Used map: bit b set iff column b is nonzero. *)
              for b = 0 to ncols - 1 do
                let nonzero = ref false in
                for blk = 0 to blocks - 1 do
                  if
                    not
                      (Int64.equal
                         (Bytes.get_int64_le sv.Bitsliced.sv_cols
                            (((b * blocks) + blk) * 8))
                         0L)
                  then nonzero := true
                done;
                let marked =
                  Char.code (Bytes.get sv.Bitsliced.sv_used (b lsr 3))
                  land (1 lsl (b land 7))
                  <> 0
                in
                if marked <> !nonzero then
                  flag "col-used" ~table:tbl ~entry ~offset:(b lsr 3)
                    (Printf.sprintf "used bit %d is %b but column is %s" b marked
                       (if !nonzero then "nonzero" else "zero"))
              done;
              (* Active positions: ascending, exactly those with a used
                 column. *)
              let expected_active = ref [] in
              for pos = npos - 1 downto 0 do
                let any = ref false in
                for tb = 0 to bits - 1 do
                  let b = (pos * bits) + tb in
                  if
                    Char.code (Bytes.get sv.Bitsliced.sv_used (b lsr 3))
                    land (1 lsl (b land 7))
                    <> 0
                  then any := true
                done;
                if !any then expected_active := pos :: !expected_active
              done;
              let expected_active = Array.of_list !expected_active in
              if sv.Bitsliced.sv_active <> expected_active then
                flag "col-active" ~table:tbl ~entry
                  (Printf.sprintf "active positions [%s], used map gives [%s]"
                     (String.concat ";"
                        (Array.to_list
                           (Array.map string_of_int sv.Bitsliced.sv_active)))
                     (String.concat ";"
                        (Array.to_list (Array.map string_of_int expected_active))));
              (* Valid masks: slots < n per 32-slot sub-block. *)
              Array.iteri
                (fun s mask ->
                  let remaining = n - (s lsl 5) in
                  let expected =
                    if remaining >= 32 then 0xFFFFFFFF else (1 lsl remaining) - 1
                  in
                  if mask <> expected then
                    flag "col-valid" ~table:tbl ~entry ~index:s
                      (Printf.sprintf "valid mask %#x, expected %#x" mask expected))
                sv.Bitsliced.sv_valid;
              (* Plane: every word must be the OR of the canonical
                 columns its group value leaves uncovered. *)
              for pos = 0 to npos - 1 do
                for value = 0 to vmask do
                  for s = 0 to sub - 1 do
                    let expected = ref 0 in
                    for tb = 0 to bits - 1 do
                      if value land (1 lsl tb) = 0 then begin
                        let b = (pos * bits) + tb in
                        let blk = s lsr 1 in
                        let w =
                          Bytes.get_int64_le sv.Bitsliced.sv_cols
                            (((b * blocks) + blk) * 8)
                        in
                        let part =
                          if s land 1 = 0 then
                            Int64.to_int (Int64.logand w 0xFFFFFFFFL)
                          else Int64.to_int (Int64.shift_right_logical w 32)
                        in
                        expected := !expected lor part
                      end
                    done;
                    let idx = (((pos lsl bits) lor value) * sub) + s in
                    if sv.Bitsliced.sv_plane.(idx) <> !expected then
                      flag "col-plane" ~table:tbl ~entry ~index:pos ~offset:idx
                        (Printf.sprintf
                           "plane word for value %#x sub-block %d is %#x, columns give %#x"
                           value s sv.Bitsliced.sv_plane.(idx) !expected)
                  done
                done
              done
            end)
          per_table)
      slices
  end;
  if check_digest then begin
    let now = Bitsliced.digest bs in
    if now <> v.Bitsliced.view_digest then
      flag "digest"
        (Printf.sprintf "digest %#x no longer matches the compile-time %#x" now
           v.Bitsliced.view_digest)
  end;
  List.rev !out

let audit_bitsliced_ok ?check_digest bs =
  match audit_bitsliced ?check_digest bs with [] -> true | _ :: _ -> false
