module Bitvec = Lipsin_bitvec.Bitvec
module Lit = Lipsin_bloom.Lit
module Zfilter = Lipsin_bloom.Zfilter
module Graph = Lipsin_topology.Graph

(* Bit i of an m-bit vector lives in group i / 63 at bit i mod 63: 63
   bits fill a native int exactly, so a group is one tagged load that no
   compiler boxes.  ceil((m+1)/63) groups always leave bit m free — the
   kill bit of a down link's row. *)
let group_bits = 63
let groups_for ~m = (m + group_bits) / group_bits

(* SWAR popcount of a 32-bit value. *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  ((((x + (x lsr 4)) land 0x0F0F0F0F) * 0x01010101) lsr 24) land 0xFF

(* Bytes in a buffer [group] may read: eight past the first byte of
   the last group. *)
let bytes_for ~m = 8 * (groups_for ~m + 1)

(* Group [g] of the vector whose bytes (bit j of byte i is vector bit
   8i + j) are in [src]: bits 63g .. 63g + 62.  The 8-byte read at byte
   63g / 8, shifted right by s = 63g mod 8, holds 64 - s of them;
   [Int64.to_int] drops the 64th when s = 0, and when s >= 2 the next
   byte supplies the s - 1 still missing ([lsl] drops its surplus).  One
   load pair per group, where a byte loop would need eight or nine
   dependent steps.  [src] must be [bytes_for ~m] long. *)
let[@inline] group src g =
  let bit = g * group_bits in
  let lo = bit lsr 3 and s = bit land 7 in
  let x = Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_le src lo) s) in
  if s <= 1 then x else x lor (Char.code (Bytes.get src (lo + 8)) lsl (64 - s))

(* Writes the [groups] ints of one packed row at [off] from [src], which
   must be zero beyond the vector. *)
let[@lipsin.noalloc] pack src dst ~off ~groups =
  for g = 0 to groups - 1 do
    Array.set dst (off + g) (group src g)
  done

type filter = {
  f_m : int;
  mutable width : int;
  bytes : Bytes.t;
  groups : int array;
  mutable pop : int;
}

let filter ~m =
  {
    f_m = m;
    width = -1;
    bytes = Bytes.make (bytes_for ~m) '\000';
    groups = Array.make (groups_for ~m) 0;
    pop = 0;
  }

let[@lipsin.noalloc] load f zfilter =
  let w = Zfilter.m zfilter in
  f.width <- w;
  if w = f.f_m then begin
    Bitvec.blit_into (Zfilter.to_bitvec zfilter) f.bytes ~pos:0;
    let g = f.groups in
    pack f.bytes g ~off:0 ~groups:(Array.length g);
    let pop = ref 0 in
    for i = 0 to Array.length g - 1 do
      let x = Array.get g i in
      pop := !pop + popcount32 (x land 0xFFFFFFFF) + popcount32 (x lsr 32)
    done;
    f.pop <- !pop
  end

let of_zfilter zfilter =
  let f = filter ~m:(Zfilter.m zfilter) in
  load f zfilter;
  f

let get_bit rows ~off i =
  rows.(off + (i / group_bits)) land (1 lsl (i mod group_bits)) <> 0

type t = {
  m : int;
  d : int;
  k_for_table : int array;
  groups : int;
  n_ports : int;
  out_links : Graph.link array;
  out_index : int array;
  up : bool array;
  phys : int array array;
  in_tags : int array array;
  blocks : int array array;
  block_off : int array array;
  n_virt : int;
  virt : int array array;
  v_out_off : int array;
  v_out_ports : int array;
  local : int array array;
  svc : int array array;
  svc_names : string array;
  stitch : int array array;
  stitch_partition : int array;
  stitch_next : int array;
}

(* Packs the m-bit [vec] into row [slot] of [rows] through [scratch], a
   [bytes_for ~m] buffer that is zero beyond the vector. *)
let write ~m ~groups scratch rows slot vec =
  if Bitvec.length vec <> m then invalid_arg "Rows.compile: LIT width differs from m";
  Bitvec.blit_into vec scratch ~pos:0;
  pack scratch rows ~off:(slot * groups) ~groups

(* One [n]-row table per forwarding table, each filled by [f tbl]. *)
let per_table ~d ~groups n f =
  Array.init d (fun tbl ->
      let r = Array.make (n * groups) 0 in
      f tbl r;
      r)

let with_stitches r stitches =
  let stitches = Array.of_list stitches in
  let scratch = Bytes.make (bytes_for ~m:r.m) '\000' in
  {
    r with
    stitch =
      per_table ~d:r.d ~groups:r.groups (Array.length stitches) (fun tbl rows ->
          Array.iteri
            (fun s (tags, _, _) -> write ~m:r.m ~groups:r.groups scratch rows s tags.(tbl))
            stitches);
    stitch_partition = Array.map (fun (_, pid, _) -> pid) stitches;
    stitch_next = Array.map (fun (_, _, next) -> next) stitches;
  }

let compile (st : Node_engine.state) =
  let params = st.Node_engine.state_params in
  let m = params.Lit.m in
  let d = params.Lit.d in
  let groups = groups_for ~m in
  let scratch = Bytes.make (bytes_for ~m) '\000' in
  let ports = st.Node_engine.state_ports in
  let n_ports = Array.length ports in
  let rows n = Array.make (n * groups) 0 in
  let write rows slot vec = write ~m ~groups scratch rows slot vec in
  let per_table n f = per_table ~d ~groups n f in
  let phys =
    per_table n_ports (fun tbl r ->
        Array.iteri
          (fun p ps ->
            write r p ps.Node_engine.port_tags.(tbl);
            if not ps.Node_engine.port_up then begin
              let g = (p * groups) + (m / group_bits) in
              r.(g) <- r.(g) lor (1 lsl (m mod group_bits))
            end)
          ports)
  in
  let in_tags =
    per_table n_ports (fun tbl r ->
        Array.iteri (fun p ps -> write r p ps.Node_engine.port_in_tags.(tbl)) ports)
  in
  let block_off =
    Array.init d (fun tbl ->
        let off = Array.make (n_ports + 1) 0 in
        for p = 0 to n_ports - 1 do
          let count =
            List.fold_left
              (fun acc entry -> if entry.(tbl) <> None then acc + 1 else acc)
              0 ports.(p).Node_engine.port_blocks
          in
          off.(p + 1) <- off.(p) + count
        done;
        off)
  in
  let blocks =
    Array.init d (fun tbl ->
        let off = block_off.(tbl) in
        let r = rows off.(n_ports) in
        Array.iteri
          (fun p ps ->
            let slot = ref off.(p) in
            List.iter
              (fun entry ->
                match entry.(tbl) with
                | Some pattern ->
                  write r !slot pattern;
                  incr slot
                | None -> ())
              ps.Node_engine.port_blocks)
          ports;
        r)
  in
  let port_of_link = Hashtbl.create (2 * n_ports) in
  Array.iteri
    (fun p ps ->
      Hashtbl.replace port_of_link ps.Node_engine.port_link.Graph.index p)
    ports;
  let virtuals = Array.of_list st.Node_engine.state_virtuals in
  let n_virt = Array.length virtuals in
  let virt =
    per_table n_virt (fun tbl r ->
        Array.iteri (fun v (tags, _) -> write r v tags.(tbl)) virtuals)
  in
  let v_out_off = Array.make (n_virt + 1) 0 in
  Array.iteri
    (fun v (_, out) -> v_out_off.(v + 1) <- v_out_off.(v) + List.length out)
    virtuals;
  let v_out_ports = Array.make v_out_off.(n_virt) 0 in
  Array.iteri
    (fun v (_, out) ->
      List.iteri
        (fun j l ->
          v_out_ports.(v_out_off.(v) + j) <-
            Hashtbl.find port_of_link l.Graph.index)
        out)
    virtuals;
  let local =
    per_table 1 (fun tbl r -> write r 0 (Lit.tag st.Node_engine.state_local tbl))
  in
  let services = Array.of_list st.Node_engine.state_services in
  let svc =
    per_table (Array.length services) (fun tbl r ->
        Array.iteri (fun s (tags, _) -> write r s tags.(tbl)) services)
  in
  with_stitches
    {
      m;
      d;
      k_for_table = Array.copy params.Lit.k_for_table;
      groups;
      n_ports;
      out_links = Array.map (fun ps -> ps.Node_engine.port_link) ports;
      out_index = Array.map (fun ps -> ps.Node_engine.port_link.Graph.index) ports;
      up = Array.map (fun ps -> ps.Node_engine.port_up) ports;
      phys;
      in_tags;
      blocks;
      block_off;
      n_virt;
      virt;
      v_out_off;
      v_out_ports;
      local;
      svc;
      svc_names = Array.map snd services;
      stitch = [||];
      stitch_partition = [||];
      stitch_next = [||];
    }
    st.Node_engine.state_stitches

(* Multiply-xorshift over 63-bit lanes.  For a fixed running hash each
   step is a bijection of its input, and for a fixed input a bijection
   of the running hash, so changing any one hashed int changes the
   result. *)
let mix_prime = 0x2545F4914F6CDD1D

let mix h i =
  let x = (h lxor i) * mix_prime in
  x lxor (x lsr 32)

let mix_ints h a =
  let h = ref (mix h (Array.length a)) in
  for i = 0 to Array.length a - 1 do
    h := mix !h a.(i)
  done;
  !h

let mix_tables h ts =
  let h = ref h in
  for t = 0 to Array.length ts - 1 do
    h := mix_ints !h ts.(t)
  done;
  !h

(* The stitch rows and payloads are hashed last, so a restitch rehashes
   only them on top of the unchanged base. *)
let digest_base r =
  let h = ref 0xcbf29ce484222 in
  List.iter (fun i -> h := mix !h i) [ r.m; r.d; r.groups; r.n_ports; r.n_virt ];
  h := mix_ints !h r.k_for_table;
  h := mix_tables !h r.phys;
  h := mix_tables !h r.in_tags;
  h := mix_tables !h r.blocks;
  h := mix_tables !h r.block_off;
  h := mix_tables !h r.virt;
  h := mix_tables !h r.local;
  mix_tables !h r.svc

let digest_from ~base r =
  let h = mix_tables base r.stitch in
  mix_ints (mix_ints h r.stitch_partition) r.stitch_next land max_int

let digest r = digest_from ~base:(digest_base r) r

let entries r tbl =
  (2 * r.n_ports) (* phys + in_tags *)
  + r.block_off.(tbl).(r.n_ports)
  + r.n_virt + 1 (* local *)
  + Array.length r.svc_names
  + Array.length r.stitch_next

let table_bytes r =
  let total = ref 0 in
  for tbl = 0 to r.d - 1 do
    total := !total + (8 * r.groups * entries r tbl)
  done;
  !total
