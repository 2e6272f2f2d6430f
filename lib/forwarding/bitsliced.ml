module Zfilter = Lipsin_bloom.Zfilter
module Graph = Lipsin_topology.Graph
module Obs = Lipsin_obs.Obs

(* Telemetry twins of the scalar engines' metrics, labelled
   engine="bitsliced"; the differential suite checks the deltas agree
   decision for decision with both scalar engines. *)
let m_decisions =
  Obs.Counter.make ~help:"Bit-sliced forwarding decisions"
    "lipsin_bitsliced_decisions_total"

let m_drop_fill =
  Obs.Counter.make ~help:"Packets dropped, by engine and reason"
    ~labels:[ ("engine", "bitsliced"); ("reason", "fill") ]
    "lipsin_drops_total"

let m_drop_loop =
  Obs.Counter.make ~help:"Packets dropped, by engine and reason"
    ~labels:[ ("engine", "bitsliced"); ("reason", "loop") ]
    "lipsin_drops_total"

let m_drop_bad_table =
  Obs.Counter.make ~help:"Packets dropped, by engine and reason"
    ~labels:[ ("engine", "bitsliced"); ("reason", "bad-table") ]
    "lipsin_drops_total"

let m_loop_hits =
  Obs.Counter.make ~help:"Loop-cache lookups that found a live entry"
    ~labels:[ ("engine", "bitsliced") ]
    "lipsin_loop_cache_hits_total"

let m_loop_suspected =
  Obs.Counter.make ~help:"Decisions that cached a suspected loop"
    ~labels:[ ("engine", "bitsliced") ]
    "lipsin_loop_suspected_total"

let m_block_vetoes =
  Obs.Counter.make ~help:"Matched ports suppressed by a negative Link ID"
    ~labels:[ ("engine", "bitsliced") ]
    "lipsin_block_vetoes_total"

let m_local =
  Obs.Counter.make ~help:"Decisions that matched the node-local LIT"
    ~labels:[ ("engine", "bitsliced") ]
    "lipsin_local_deliveries_total"

let m_services =
  Obs.Counter.make ~help:"Service endpoints matched"
    ~labels:[ ("engine", "bitsliced") ]
    "lipsin_service_matches_total"

let m_stitches =
  Obs.Counter.make ~help:"Partition stitch entries matched"
    ~labels:[ ("engine", "bitsliced") ]
    "lipsin_stitch_matches_total"

let h_admitted =
  Obs.Histogram.make ~help:"Out-links admitted per forwarding decision"
    ~labels:[ ("engine", "bitsliced") ]
    "lipsin_admitted_links"

type meters = {
  md : int array;
  mfill : int array;
  mloop : int array;
  mbad : int array;
  mhits : int array;
  msusp : int array;
  mveto : int array;
  mlocal : int array;
  msvc : int array;
  mstitch : int array;
  hadm : Obs.Histogram.cells;
}

let make_meters () =
  {
    md = Obs.Counter.local m_decisions;
    mfill = Obs.Counter.local m_drop_fill;
    mloop = Obs.Counter.local m_drop_loop;
    mbad = Obs.Counter.local m_drop_bad_table;
    mhits = Obs.Counter.local m_loop_hits;
    msusp = Obs.Counter.local m_loop_suspected;
    mveto = Obs.Counter.local m_block_vetoes;
    mlocal = Obs.Counter.local m_local;
    msvc = Obs.Counter.local m_services;
    mstitch = Obs.Counter.local m_stitches;
    hadm = Obs.Histogram.local h_admitted;
  }

let bump c = Array.set c 0 (Array.get c 0 + 1)

type decision = {
  mutable forward : int array;
  mutable n_forward : int;
  mutable deliver_local : bool;
  mutable services : int array;
  mutable n_services : int;
  mutable stitches : int array;
  mutable n_stitch : int;
  mutable loop_suspected : bool;
  mutable drop : int;
  mutable tests : int;
}

let no_drop = 0
let drop_fill = 1
let drop_loop = 2
let drop_bad_table = 3

(* Engine crossover, re-measured after the packed-row change (both
   engines' hot loops now stay inside their own module, so dune's
   -opaque dev profile no longer turns every accessor into a call): on
   the star-hub sweep the scalar engine wins up to 32 ports (about 250
   vs 360 ns) and the bit-sliced engine from 64 up (about 320 vs 420 ns
   at 64, 4x at 256).  [`Auto] picks the bit-sliced engine from
   [auto_threshold] ports, set at the top of the (8, 32] range the
   partition suite pins, the closest allowed value to the (32, 64]
   crossover; the byte-plane (8-bit sweep) layout only pays for itself
   once the sweep dominates, from [byte_plane_threshold] ports — one
   full column block. *)
let auto_threshold = 32
let byte_plane_threshold = 64

(* ------------------------------------------------------------------ *)
(* Transposed table layout.

   The canonical blob of a slice stores the entries column-major: word
   [col[b][blk]] (at byte offset [((b * blocks) + blk) * 8]) holds bit
   position [b] of the entries for slots [64*blk .. 64*blk + 63].  A
   decision starts from an all-ones alive mask per block and, for every
   filter bit position that is zero, clears the slots whose entry sets
   that bit: [alive &= ~col[b]].  Surviving bits are exactly the slots
   with [zFilter AND LIT = LIT].

   The hot loop runs an equivalent formulation over a *derived* plane:
   group the columns [bits] at a time (one filter nibble or byte per
   group) and precompute, for every group [pos] and every possible
   group value [v],

     plane[pos][v] = OR of col[b] over the columns b of the group
                     whose bit is clear in v

   so a decision ORs one precomputed word per group into a dead mask
   and finishes with [alive = valid & ~dead] — the same result as the
   per-bit sweep, in ncols/bits steps instead of ncols.  The planes are
   native int arrays over 32-slot sub-blocks because ocamlopt without
   flambda boxes Int64 in hot loops; the canonical 64-bit-word column
   blob remains the audited layout contract and the transpose source.

   [bits] is 4 (nibble planes) for low-degree nodes and 8 (byte planes,
   16x the memory, half the sweep steps) from [byte_plane_threshold]
   ports up, where the sweep dominates the decision. *)

type slice = {
  sl_n : int;  (* entries (ports / virtuals / services) *)
  sl_blocks : int;  (* 64-slot column blocks = ceil(n/64) *)
  sl_sub : int;  (* 32-slot sub-blocks = ceil(n/32) *)
  sl_cols : Bytes.t;  (* canonical column-major blob, ncols * blocks words *)
  sl_used : Bytes.t;  (* stride bytes; bit b set iff column b is nonzero *)
  sl_active : int array;  (* ascending plane positions with a used column *)
  sl_plane : int array;  (* ((pos << bits) | v) * sub + s -> dead mask *)
  sl_valid : int array;  (* per sub-block: mask of slots < n *)
}

(* Index of the single set bit of [low] (a power of two, bit 62
   included), by binary search. *)
let bit_index low =
  let n = ref 0 and x = ref low in
  if !x land 0xFFFFFFFF = 0 then begin n := 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then incr n;
  !n

(* Transposes [n] packed rows of [groups] ints into a slice: every set
   row bit b of slot s sets bit s of column b. *)
let build_slice ~stride ~bits ~groups ~n rows =
  let ncols = stride * 8 in
  let blocks = (n + 63) lsr 6 in
  let sub = (n + 31) lsr 5 in
  let cols = Bytes.make (ncols * blocks * 8) '\000' in
  let used = Bytes.make stride '\000' in
  for slot = 0 to n - 1 do
    let blk = slot lsr 6 and bit = slot land 63 in
    for g = 0 to groups - 1 do
      let x = ref rows.((slot * groups) + g) in
      while !x <> 0 do
        let low = !x land - !x in
        x := !x lxor low;
        let b = (g * Rows.group_bits) + bit_index low in
        let off = ((b * blocks) + blk) lsl 3 in
        Bytes.set_int64_le cols off
          (Int64.logor (Bytes.get_int64_le cols off) (Int64.shift_left 1L bit));
        Bytes.set used (b lsr 3)
          (Char.chr (Char.code (Bytes.get used (b lsr 3)) lor (1 lsl (b land 7))))
      done
    done
  done;
  let npos = ncols / bits in
  let vmask = (1 lsl bits) - 1 in
  let plane = Array.make (npos * (vmask + 1) * sub) 0 in
  for b = 0 to ncols - 1 do
    let pos = b / bits and tb = b mod bits in
    for blk = 0 to blocks - 1 do
      let w = Bytes.get_int64_le cols (((b * blocks) + blk) lsl 3) in
      if not (Int64.equal w 0L) then begin
        let lo = Int64.to_int (Int64.logand w 0xFFFFFFFFL) in
        let hi = Int64.to_int (Int64.shift_right_logical w 32) in
        let s0 = blk lsl 1 in
        for v = 0 to vmask do
          if v land (1 lsl tb) = 0 then begin
            let base = (((pos lsl bits) lor v) * sub) + s0 in
            plane.(base) <- plane.(base) lor lo;
            if s0 + 1 < sub then plane.(base + 1) <- plane.(base + 1) lor hi
          end
        done
      end
    done
  done;
  let active =
    let acc = ref [] in
    for pos = npos - 1 downto 0 do
      let any = ref false in
      for tb = 0 to bits - 1 do
        let b = (pos * bits) + tb in
        if Char.code (Bytes.get used (b lsr 3)) land (1 lsl (b land 7)) <> 0
        then any := true
      done;
      if !any then acc := pos :: !acc
    done;
    Array.of_list !acc
  in
  let valid =
    Array.init sub (fun s ->
        let remaining = n - (s lsl 5) in
        if remaining >= 32 then 0xFFFFFFFF else (1 lsl remaining) - 1)
  in
  {
    sl_n = n;
    sl_blocks = blocks;
    sl_sub = sub;
    sl_cols = cols;
    sl_used = used;
    sl_active = active;
    sl_plane = plane;
    sl_valid = valid;
  }

type t = {
  node : Graph.node;
  rows : Rows.t;  (* the shared row layout: block/local tests, Audit *)
  stride : int;  (* bytes of the padded filter copy; 8 * stride columns *)
  data_len : int;  (* live filter bytes = ceil(m/8): the loop-cache key *)
  plane_bits : int;  (* 4 or 8: filter bits consumed per sweep step *)
  npos : int;  (* plane positions per filter = stride * 8 / plane_bits *)
  fill_threshold : int;  (* max popcount passing the fill limit *)
  (* Transposed slices, per table. *)
  sl_phys : slice array;
  sl_in : slice array;
  sl_virt : slice array;
  sl_svc : slice array;
  sl_stitch : slice array;
  loop_prevention : bool;
  loop_cache : (string, int * int) Hashtbl.t;
  loop_queue : string Queue.t;
  loop_capacity : int;
  loop_ttl : int;
  mutable tick_count : int;
  scratch : Rows.filter;  (* [decide]'s load target *)
  vals : int array;  (* scratch: the filter cut into plane-index values *)
  dead_phys : int array;  (* scratch dead masks, physical slice *)
  dead_in : int array;  (* scratch dead masks, incoming-LIT slice *)
  dead_aux : int array;  (* scratch dead masks, virtual/service slices *)
  seen : int array;
  mutable gen : int;
  decision : decision;
  (* decide_batch scratch: one chunk of loaded filters, plane values
     and precomputed dead masks, swept position-outer so each plane row
     stays hot across the packets of the chunk. *)
  batch_cap : int;
  batch_filters : Rows.filter array;
  batch_vals : int array;
  batch_dead_phys : int array;
  batch_dead_in : int array;
  batch_ok : bool array;
  compile_digest : int;
  obs : meters;
}

(* Integrity fingerprint Analysis.Audit compares against to catch
   post-compile corruption: Rows.digest over the shared rows, extended
   over the canonical column blobs and every derived array with the same
   multiply-xorshift step. *)
let mix_bytes h blob =
  let n = Bytes.length blob in
  let h = ref (Rows.mix h n) in
  let i = ref 0 in
  while !i + 8 <= n do
    let w = Bytes.get_int64_le blob !i in
    (* Int64.to_int keeps the low 63 bits; fold the top bit in
       separately so no flip is invisible. *)
    h := Rows.mix !h (Int64.to_int w);
    h := Rows.mix !h (Int64.to_int (Int64.shift_right_logical w 62));
    i := !i + 8
  done;
  while !i < n do
    h := Rows.mix !h (Char.code (Bytes.get blob !i));
    incr i
  done;
  !h

let digest t =
  let h = ref (Rows.digest t.rows) in
  List.iter (fun i -> h := Rows.mix !h i) [ t.stride; t.plane_bits; t.fill_threshold ];
  let slices sls =
    Array.iter
      (fun sl ->
        h := Rows.mix !h sl.sl_n;
        h := mix_bytes !h sl.sl_cols;
        h := mix_bytes !h sl.sl_used;
        h := Rows.mix_ints !h sl.sl_active;
        h := Rows.mix_ints !h sl.sl_plane;
        h := Rows.mix_ints !h sl.sl_valid)
      sls
  in
  slices t.sl_phys;
  slices t.sl_in;
  slices t.sl_virt;
  slices t.sl_svc;
  slices t.sl_stitch;
  !h land max_int

let compile engine =
  let st = Node_engine.state engine in
  let rows = Rows.compile st in
  let m = rows.Rows.m in
  let groups = rows.Rows.groups in
  let n_ports = rows.Rows.n_ports in
  let n_virt = rows.Rows.n_virt in
  let n_services = Array.length rows.Rows.svc_names in
  let n_stitch = Array.length rows.Rows.stitch_next in
  (* Column m is the kill column: transposed, it is exactly the set of
     down ports, and the loaded filter never covers it. *)
  let stride = Rows.stride_for ~m in
  let plane_bits = if n_ports >= byte_plane_threshold then 8 else 4 in
  let npos = stride * 8 / plane_bits in
  let slice_of tables n =
    Array.map (build_slice ~stride ~bits:plane_bits ~groups ~n) tables
  in
  let sub_ports = (n_ports + 31) lsr 5 in
  let sub_aux = (max n_virt (max n_services n_stitch) + 31) lsr 5 in
  let batch_cap = 32 in
  let t =
    {
      node = st.Node_engine.state_node;
      rows;
      stride;
      data_len = (m + 7) / 8;
      plane_bits;
      npos;
      fill_threshold =
        Zfilter.fill_threshold ~m ~limit:st.Node_engine.state_fill_limit;
      sl_phys = slice_of rows.Rows.phys n_ports;
      sl_in = slice_of rows.Rows.in_tags n_ports;
      sl_virt = slice_of rows.Rows.virt n_virt;
      sl_svc = slice_of rows.Rows.svc n_services;
      sl_stitch = slice_of rows.Rows.stitch n_stitch;
      loop_prevention = st.Node_engine.state_loop_prevention;
      loop_cache = Hashtbl.create 64;
      loop_queue = Queue.create ();
      loop_capacity = st.Node_engine.state_loop_capacity;
      loop_ttl = st.Node_engine.state_loop_ttl;
      tick_count = st.Node_engine.state_tick;
      scratch = Rows.filter ~m;
      vals = Array.make npos 0;
      dead_phys = Array.make (max 1 sub_ports) 0;
      dead_in = Array.make (max 1 sub_ports) 0;
      dead_aux = Array.make (max 1 sub_aux) 0;
      seen = Array.make (max 1 n_ports) 0;
      gen = 0;
      decision =
        {
          forward = Array.make (max 1 n_ports) 0;
          n_forward = 0;
          deliver_local = false;
          services = Array.make (max 1 n_services) 0;
          n_services = 0;
          stitches = Array.make (max 1 n_stitch) 0;
          n_stitch = 0;
          loop_suspected = false;
          drop = no_drop;
          tests = 0;
        };
      batch_cap;
      batch_filters = Array.init batch_cap (fun _ -> Rows.filter ~m);
      batch_vals = Array.make (batch_cap * npos) 0;
      batch_dead_phys = Array.make (max 1 (batch_cap * sub_ports)) 0;
      batch_dead_in = Array.make (max 1 (batch_cap * sub_ports)) 0;
      batch_ok = Array.make batch_cap false;
      compile_digest = 0;
      obs = make_meters ();
    }
  in
  { t with compile_digest = digest t }

let node t = t.node
let table_count t = t.rows.Rows.d
let port_count t = t.rows.Rows.n_ports
let out_link t p = t.rows.Rows.out_links.(p)

(* Scalar port views for zero-alloc consumers, mirroring Fastpath. *)
let[@lipsin.noalloc] out_index t p = Array.get t.rows.Rows.out_index p

let[@lipsin.noalloc] out_dst t p =
  (Array.get t.rows.Rows.out_links p).Graph.dst
let plane_bits t = t.plane_bits
let tick t = t.tick_count <- t.tick_count + 1

(* Same FIFO + tick-TTL loop cache as the scalar engines, entry for
   entry. *)

let loop_cache_add t key in_index =
  if not (Hashtbl.mem t.loop_cache key) then begin
    if Queue.length t.loop_queue >= t.loop_capacity then begin
      let victim = Queue.take t.loop_queue in
      Hashtbl.remove t.loop_cache victim
    end;
    Hashtbl.replace t.loop_cache key (in_index, t.tick_count);
    Queue.add key t.loop_queue
  end

let loop_cache_find t key =
  match Hashtbl.find_opt t.loop_cache key with
  | Some (in_index, inserted_at) when t.tick_count - inserted_at <= t.loop_ttl ->
    Some in_index
  | Some _ ->
    Hashtbl.remove t.loop_cache key;
    None
  | None -> None

(* Row-wise Algorithm 1, for the (sparse) entry kinds the sweep does
   not cover: block vetoes and the node-local LIT.  The same packed-row
   kernel as Fastpath's, kept in this compilation unit so no entry test
   crosses a module boundary.  [off] comes from the audited block_off
   table. *)
let[@lipsin.noalloc] subset rows off zg groups =
  let g = ref 0 in
  while
    !g < groups
    && (let x = Array.get rows (off + !g) in
        x land Array.get zg !g = x)
  do
    incr g
  done;
  !g = groups

(* De Bruijn count-trailing-zeros over a 32-bit mask: recovers the
   surviving slot indexes in ascending order, matching the scalar
   engines' port visit order. *)
let tz_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13;
     23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz32 x = Array.get tz_table ((((x land (-x)) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* Cuts the loaded filter's padded byte copy into plane-index values:
   one byte or two nibbles per byte.  [zf] holds at least [stride]
   bytes, since a filter of this engine's m is [Rows.bytes_for ~m]
   long. *)
let fill_vals ~bits ~stride zf vals ~voff =
  if bits = 8 then
    for i = 0 to stride - 1 do
      Array.set vals (voff + i) (Char.code (Bytes.get zf i))
    done
  else
    for i = 0 to stride - 1 do
      let b = Char.code (Bytes.get zf i) in
      Array.set vals (voff + (i lsl 1)) (b land 0xF);
      Array.set vals (voff + (i lsl 1) + 1) (b lsr 4)
    done

(* The column sweep: OR one plane row per active position into the dead
   masks.  Specialised for the one- and two-sub-block shapes (<= 64
   entries) so the accumulators live in registers.  build_slice sizes
   each plane as npos * 2^bits * sl_sub and keeps every active
   position below npos. *)
let sweep ~bits sl vals ~voff dead ~doff =
  let plane = sl.sl_plane in
  let act = sl.sl_active in
  let n_act = Array.length act in
  match sl.sl_sub with
  | 0 -> ()
  | 1 ->
    let acc = ref (Array.get dead doff) in
    for i = 0 to n_act - 1 do
      let pos = Array.get act i in
      acc := !acc lor Array.get plane ((pos lsl bits) lor Array.get vals (voff + pos))
    done;
    Array.set dead doff !acc
  | 2 ->
    let a0 = ref (Array.get dead doff) and a1 = ref (Array.get dead (doff + 1)) in
    for i = 0 to n_act - 1 do
      let pos = Array.get act i in
      let base = ((pos lsl bits) lor Array.get vals (voff + pos)) lsl 1 in
      a0 := !a0 lor Array.get plane base;
      a1 := !a1 lor Array.get plane (base + 1)
    done;
    Array.set dead doff !a0;
    Array.set dead (doff + 1) !a1
  | sub ->
    for i = 0 to n_act - 1 do
      let pos = Array.get act i in
      let base = ((pos lsl bits) lor Array.get vals (voff + pos)) * sub in
      for s = 0 to sub - 1 do
        Array.set dead (doff + s) (Array.get dead (doff + s) lor Array.get plane (base + s))
      done
    done

(* Position-outer sweep over a chunk of packets: each plane row is
   reused across the whole chunk before moving on — the batch
   amortisation of the column sweep. *)
let sweep_batch ~bits sl batch_vals ~npos batch_dead ~len ok =
  let plane = sl.sl_plane in
  let act = sl.sl_active in
  let sub = sl.sl_sub in
  if sub > 0 then
    for ai = 0 to Array.length act - 1 do
      let pos = Array.get act ai in
      let prow = (pos lsl bits) * sub in
      for i = 0 to len - 1 do
        if Array.get ok i then begin
          let base = prow + (Array.get batch_vals ((i * npos) + pos) * sub) in
          let doff = i * sub in
          for s = 0 to sub - 1 do
            Array.set batch_dead (doff + s)
              (Array.get batch_dead (doff + s) lor Array.get plane (base + s))
          done
        end
      done
    done

(* Everything after the width/fill gates: loop prevention, recovery of
   the surviving ports from the precomputed dead masks, block vetoes,
   virtual and service slices, local delivery and the Obs tail.  The
   control flow and meter increments mirror Fastpath.decide statement
   for statement; only the membership mechanism differs. *)
let finish t ~obs ~table ~in_link_index ~(filter : Rows.filter) ~vals ~voff
    ~pdead ~pdoff ~idead ~idoff =
  let d = t.decision in
  let r = t.rows in
  let bits = t.plane_bits in
  let zg = filter.Rows.groups in
  let groups = r.Rows.groups in
  if t.loop_prevention then
    (begin
       let key = Bytes.sub_string filter.Rows.bytes 0 t.data_len in
       (match loop_cache_find t key with
       | Some cached ->
         if obs then bump t.obs.mhits;
         if in_link_index >= 0 && cached <> in_link_index then
           d.drop <- drop_loop
       | None -> ());
       if d.drop = no_drop then begin
         let sl = Array.get t.sl_in table in
         let risky = ref false in
         for s = 0 to sl.sl_sub - 1 do
           let a =
             ref (Array.get sl.sl_valid s land lnot (Array.get idead (idoff + s)))
           in
           while !a <> 0 do
             let p = (s lsl 5) + ctz32 !a in
             a := !a land (!a - 1);
             if Array.get r.Rows.out_index p <> in_link_index then risky := true
           done
         done;
         if !risky then begin
           d.loop_suspected <- true;
           if obs then bump t.obs.msusp;
           if in_link_index >= 0 then loop_cache_add t key in_link_index
         end
       end
     end
    [@lipsin.allow_alloc
      "loop-prevention cache key (5-word Bytes.sub_string) and FIFO \
       bookkeeping; engines benchmarked for zero allocation run with \
       loop_prevention off"]);
  if d.drop <> no_drop then begin
    if obs then bump t.obs.mloop;
    d
  end
  else begin
    t.gen <- t.gen + 1;
    let gen = t.gen in
    d.tests <- r.Rows.n_ports + r.Rows.n_virt;
    let sl = Array.get t.sl_phys table in
    let btab = Array.get r.Rows.blocks table in
    let boff = Array.get r.Rows.block_off table in
    for s = 0 to sl.sl_sub - 1 do
      let a =
        ref (Array.get sl.sl_valid s land lnot (Array.get pdead (pdoff + s)))
      in
      while !a <> 0 do
        let p = (s lsl 5) + ctz32 !a in
        a := !a land (!a - 1);
        let blocked = ref false in
        for b = Array.get boff p to Array.get boff (p + 1) - 1 do
          if subset btab (b * groups) zg groups then blocked := true
        done;
        if obs && !blocked then bump t.obs.mveto;
        if (not !blocked) && Array.get t.seen p <> gen then begin
          Array.set t.seen p gen;
          Array.set d.forward d.n_forward p;
          d.n_forward <- d.n_forward + 1
        end
      done
    done;
    let slv = Array.get t.sl_virt table in
    if slv.sl_n > 0 then begin
      Array.fill t.dead_aux 0 slv.sl_sub 0;
      sweep ~bits slv vals ~voff t.dead_aux ~doff:0;
      for s = 0 to slv.sl_sub - 1 do
        let a = ref (Array.get slv.sl_valid s land lnot (Array.get t.dead_aux s)) in
        while !a <> 0 do
          let v = (s lsl 5) + ctz32 !a in
          a := !a land (!a - 1);
          for j = Array.get r.Rows.v_out_off v to Array.get r.Rows.v_out_off (v + 1) - 1 do
            let p = Array.get r.Rows.v_out_ports j in
            if Array.get r.Rows.up p && Array.get t.seen p <> gen then begin
              Array.set t.seen p gen;
              Array.set d.forward d.n_forward p;
              d.n_forward <- d.n_forward + 1
            end
          done
        done
      done
    end;
    d.deliver_local <- subset (Array.get r.Rows.local table) 0 zg groups;
    let sls = Array.get t.sl_svc table in
    if sls.sl_n > 0 then begin
      Array.fill t.dead_aux 0 sls.sl_sub 0;
      sweep ~bits sls vals ~voff t.dead_aux ~doff:0;
      for s = 0 to sls.sl_sub - 1 do
        let a = ref (Array.get sls.sl_valid s land lnot (Array.get t.dead_aux s)) in
        while !a <> 0 do
          let sv = (s lsl 5) + ctz32 !a in
          a := !a land (!a - 1);
          Array.set d.services d.n_services sv;
          d.n_services <- d.n_services + 1
        done
      done
    end;
    let slx = Array.get t.sl_stitch table in
    if slx.sl_n > 0 then begin
      Array.fill t.dead_aux 0 slx.sl_sub 0;
      sweep ~bits slx vals ~voff t.dead_aux ~doff:0;
      for s = 0 to slx.sl_sub - 1 do
        let a = ref (Array.get slx.sl_valid s land lnot (Array.get t.dead_aux s)) in
        while !a <> 0 do
          let sx = (s lsl 5) + ctz32 !a in
          a := !a land (!a - 1);
          Array.set d.stitches d.n_stitch sx;
          d.n_stitch <- d.n_stitch + 1
        done
      done
    end;
    if obs then begin
      Obs.Histogram.record_int t.obs.hadm d.n_forward;
      if d.deliver_local then bump t.obs.mlocal;
      Array.set t.obs.msvc 0 (Array.get t.obs.msvc 0 + d.n_services);
      Array.set t.obs.mstitch 0 (Array.get t.obs.mstitch 0 + d.n_stitch)
    end;
    d
  end

let reset_decision d =
  d.n_forward <- 0;
  d.deliver_local <- false;
  d.n_services <- 0;
  d.n_stitch <- 0;
  d.loop_suspected <- false;
  d.drop <- no_drop;
  d.tests <- 0

let[@lipsin.noalloc] decide_loaded t ~table ~(filter : Rows.filter)
    ~in_link_index =
  let obs = Obs.enabled () in
  if obs then bump t.obs.md;
  let d = t.decision in
  reset_decision d;
  let m = t.rows.Rows.m in
  if table < 0 || table >= t.rows.Rows.d then begin
    d.drop <- drop_bad_table;
    if obs then bump t.obs.mbad;
    d
  end
  else if filter.Rows.width <> m || filter.Rows.f_m <> m then
    invalid_arg "Bitsliced.decide: zFilter width mismatch"
  else if filter.Rows.pop > t.fill_threshold then begin
    d.drop <- drop_fill;
    if obs then bump t.obs.mfill;
    d
  end
  else begin
    fill_vals ~bits:t.plane_bits ~stride:t.stride filter.Rows.bytes t.vals ~voff:0;
    let slp = Array.get t.sl_phys table in
    Array.fill t.dead_phys 0 slp.sl_sub 0;
    sweep ~bits:t.plane_bits slp t.vals ~voff:0 t.dead_phys ~doff:0;
    if t.loop_prevention then begin
      let sli = Array.get t.sl_in table in
      Array.fill t.dead_in 0 sli.sl_sub 0;
      sweep ~bits:t.plane_bits sli t.vals ~voff:0 t.dead_in ~doff:0
    end;
    finish t ~obs ~table ~in_link_index ~filter ~vals:t.vals ~voff:0
      ~pdead:t.dead_phys ~pdoff:0 ~idead:t.dead_in ~idoff:0
  end

let[@lipsin.noalloc] decide t ~table ~zfilter ~in_link_index =
  Rows.load t.scratch zfilter;
  decide_loaded t ~table ~filter:t.scratch ~in_link_index

let[@lipsin.noalloc] decide_batch t ~table inputs ~f =
  if table < 0 || table >= t.rows.Rows.d then
    for i = 0 to Array.length inputs - 1 do
      let zfilter, in_link_index = Array.get inputs i in
      (f i (decide t ~table ~zfilter ~in_link_index)
      [@lipsin.allow_alloc "sink callback supplied by the caller"])
    done
  else begin
    let slp = Array.get t.sl_phys table in
    let sli = Array.get t.sl_in table in
    let npos = t.npos in
    let m = t.rows.Rows.m in
    let n = Array.length inputs in
    let start = ref 0 in
    while !start < n do
      let len = min t.batch_cap (n - !start) in
      (* Phase 1: load and slice the chunk's admissible filters.  A
         packet failing the width or fill gate is left to the scalar
         entry point in phase 2, which re-checks (and raises or drops)
         at its proper sequential position. *)
      for i = 0 to len - 1 do
        let zfilter, _ = Array.get inputs (!start + i) in
        let filter = Array.get t.batch_filters i in
        Rows.load filter zfilter;
        let ok = filter.Rows.width = m && filter.Rows.pop <= t.fill_threshold in
        Array.set t.batch_ok i ok;
        if ok then
          fill_vals ~bits:t.plane_bits ~stride:t.stride filter.Rows.bytes
            t.batch_vals ~voff:(i * npos)
      done;
      Array.fill t.batch_dead_phys 0 (len * slp.sl_sub) 0;
      sweep_batch ~bits:t.plane_bits slp t.batch_vals ~npos t.batch_dead_phys
        ~len t.batch_ok;
      if t.loop_prevention then begin
        Array.fill t.batch_dead_in 0 (len * sli.sl_sub) 0;
        sweep_batch ~bits:t.plane_bits sli t.batch_vals ~npos t.batch_dead_in
          ~len t.batch_ok
      end;
      (* Phase 2: sequential decisions off the precomputed masks, so
         loop-cache evolution matches packet-by-packet semantics. *)
      for i = 0 to len - 1 do
        let zfilter, in_link_index = Array.get inputs (!start + i) in
        if not (Array.get t.batch_ok i) then
          (f (!start + i) (decide t ~table ~zfilter ~in_link_index)
          [@lipsin.allow_alloc "sink callback supplied by the caller"])
        else begin
          let obs = Obs.enabled () in
          if obs then bump t.obs.md;
          reset_decision t.decision;
          (f (!start + i)
             (finish t ~obs ~table ~in_link_index
                ~filter:(Array.get t.batch_filters i)
                ~vals:t.batch_vals ~voff:(i * npos) ~pdead:t.batch_dead_phys
                ~pdoff:(i * slp.sl_sub) ~idead:t.batch_dead_in
                ~idoff:(i * sli.sl_sub))
          [@lipsin.allow_alloc "sink callback supplied by the caller"])
        end
      done;
      start := !start + len
    done
  end

let drop_reason d =
  if d.drop = no_drop then None
  else if d.drop = drop_fill then Some Node_engine.Fill_limit_exceeded
  else if d.drop = drop_loop then Some Node_engine.Loop_detected
  else Some Node_engine.Bad_table

let forward_links t d =
  List.init d.n_forward (fun i -> t.rows.Rows.out_links.(d.forward.(i)))

let service_names t d =
  List.init d.n_services (fun i -> t.rows.Rows.svc_names.(d.services.(i)))

let stitch_targets t d =
  List.init d.n_stitch (fun i ->
      let s = d.stitches.(i) in
      (t.rows.Rows.stitch_partition.(s), t.rows.Rows.stitch_next.(s)))

let verdict t d =
  {
    Node_engine.forward_on = forward_links t d;
    deliver_local = d.deliver_local;
    services_matched = service_names t d;
    stitches_matched = stitch_targets t d;
    loop_suspected = d.loop_suspected;
    drop = drop_reason d;
    false_positive_tests = d.tests;
  }

type slice_view = {
  sv_entry : string;
  sv_n : int;
  sv_blocks : int;
  sv_sub : int;
  sv_cols : Bytes.t;
  sv_used : Bytes.t;
  sv_active : int array;
  sv_plane : int array;
  sv_valid : int array;
}

type view = {
  view_rows : Rows.t;
  view_stride : int;
  view_plane_bits : int;
  view_forward_cap : int;
  view_services_cap : int;
  view_stitch_cap : int;
  view_seen_cap : int;
  view_slices : slice_view array array;
  view_digest : int;
}

let view t =
  let slice_view entry sl =
    {
      sv_entry = entry;
      sv_n = sl.sl_n;
      sv_blocks = sl.sl_blocks;
      sv_sub = sl.sl_sub;
      sv_cols = sl.sl_cols;
      sv_used = sl.sl_used;
      sv_active = sl.sl_active;
      sv_plane = sl.sl_plane;
      sv_valid = sl.sl_valid;
    }
  in
  {
    view_rows = t.rows;
    view_stride = t.stride;
    view_plane_bits = t.plane_bits;
    view_forward_cap = Array.length t.decision.forward;
    view_services_cap = Array.length t.decision.services;
    view_stitch_cap = Array.length t.decision.stitches;
    view_seen_cap = Array.length t.seen;
    view_slices =
      Array.init t.rows.Rows.d (fun tbl ->
          [|
            slice_view "phys" t.sl_phys.(tbl);
            slice_view "in" t.sl_in.(tbl);
            slice_view "virt" t.sl_virt.(tbl);
            slice_view "svc" t.sl_svc.(tbl);
            slice_view "stitch" t.sl_stitch.(tbl);
          |]);
    view_digest = t.compile_digest;
  }

let table_bytes t =
  let cols = ref 0 in
  let add sls =
    Array.iter
      (fun sl ->
        cols :=
          !cols + Bytes.length sl.sl_cols + Bytes.length sl.sl_used
          + (8 * Array.length sl.sl_plane))
      sls
  in
  add t.sl_phys;
  add t.sl_in;
  add t.sl_virt;
  add t.sl_svc;
  add t.sl_stitch;
  Rows.table_bytes t.rows + !cols
