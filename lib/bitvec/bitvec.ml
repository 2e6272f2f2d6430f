type t = { bits : int; data : Bytes.t }

(* Bytes rather than an int array keeps the representation identical to
   the wire format; the padding bits in the final byte are kept at zero
   as an invariant so that byte-wise comparison and popcount need no
   masking. *)

let bytes_for bits = (bits + 7) / 8

let create bits =
  if bits <= 0 then invalid_arg "Bitvec.create: length must be positive";
  { bits; data = Bytes.make (bytes_for bits) '\000' }

let length t = t.bits
let copy t = { bits = t.bits; data = Bytes.copy t.data }

let check_index t i =
  if i < 0 || i >= t.bits then invalid_arg "Bitvec: index out of range"

let get t i =
  check_index t i;
  Char.code (Bytes.get t.data (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check_index t i;
  let b = i lsr 3 in
  Bytes.set t.data b (Char.chr (Char.code (Bytes.get t.data b) lor (1 lsl (i land 7))))

let clear t i =
  check_index t i;
  let b = i lsr 3 in
  Bytes.set t.data b (Char.chr (Char.code (Bytes.get t.data b) land lnot (1 lsl (i land 7)) land 0xff))

let mask_padding t =
  (* Keep bits beyond [t.bits] in the last byte at zero. *)
  let rem = t.bits land 7 in
  if rem <> 0 then begin
    let last = Bytes.length t.data - 1 in
    let m = (1 lsl rem) - 1 in
    Bytes.set t.data last (Char.chr (Char.code (Bytes.get t.data last) land m))
  end

let set_all t =
  Bytes.fill t.data 0 (Bytes.length t.data) '\255';
  mask_padding t

let reset t = Bytes.fill t.data 0 (Bytes.length t.data) '\000'

(* The 4 bytes at [i .. i + 3] as one native int, from two checked
   16-bit reads: a compiler primitive returning a tagged int, so no
   compiler boxes it (the int64 accessors do).  The byte order inside
   the group is platform-dependent, which the bitwise kernels below
   (subset, intersects, popcount) never observe because both operands
   come through this helper; do not use it where the numeric value
   matters. *)
let[@inline always] get_u32 b i =
  Bytes.get_uint16_ne b i lor (Bytes.get_uint16_ne b (i + 2) lsl 16)

(* SWAR popcount on a native int holding at most 56 significant bits
   (a 4-byte group from get_u32 or a <4-byte tail).  Native int
   throughout: the int64 SWAR this replaced boxed one 3-word block per
   word read on non-flambda ocamlopt, which was the entire allocation
   budget of the forwarding hot path.  The masks fit OCaml's 63-bit int
   range, and the final multiply folds the per-byte counts into the top
   byte. *)
let[@inline always] [@lipsin.noalloc] popcount56 x =
  let x = x - ((x lsr 1) land 0x55555555555555) in
  let x = (x land 0x33333333333333) + ((x lsr 2) land 0x33333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F in
  ((x * 0x01010101010101) lsr 48) land 0xff

let[@lipsin.noalloc] popcount_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Bitvec.popcount_bytes: range out of bounds";
  let words = len lsr 2 in
  let count = ref 0 in
  for w = 0 to words - 1 do
    count := !count + popcount56 (get_u32 b (pos + (w lsl 2)))
  done;
  (* Assemble the <4-byte tail into one native int and SWAR it too,
     rather than walking it byte by byte. *)
  let tail = ref 0 and shift = ref 0 in
  for i = pos + (words lsl 2) to pos + len - 1 do
    tail := !tail lor (Char.code (Bytes.get b i) lsl !shift);
    shift := !shift + 8
  done;
  !count + popcount56 !tail

let[@lipsin.noalloc] popcount t =
  popcount_bytes t.data ~pos:0 ~len:(Bytes.length t.data)

let fill_ratio t = float_of_int (popcount t) /. float_of_int t.bits

let check_same_length a b =
  if a.bits <> b.bits then invalid_arg "Bitvec: length mismatch"

let logor a b =
  check_same_length a b;
  let out = copy a in
  for i = 0 to Bytes.length out.data - 1 do
    Bytes.set out.data i
      (Char.chr (Char.code (Bytes.get out.data i) lor Char.code (Bytes.get b.data i)))
  done;
  out

let logand a b =
  check_same_length a b;
  let out = copy a in
  for i = 0 to Bytes.length out.data - 1 do
    Bytes.set out.data i
      (Char.chr (Char.code (Bytes.get out.data i) land Char.code (Bytes.get b.data i)))
  done;
  out

let logor_into ~dst src =
  check_same_length dst src;
  for i = 0 to Bytes.length dst.data - 1 do
    Bytes.set dst.data i
      (Char.chr (Char.code (Bytes.get dst.data i) lor Char.code (Bytes.get src.data i)))
  done

let[@lipsin.noalloc] subset a ~of_ =
  check_same_length a of_;
  let n = Bytes.length a.data in
  let words = n / 4 in
  (* while/ref loops instead of local recursive functions: the closures
     those allocate are the only heap traffic on this path.  Native-int
     4-byte groups (get_u32): the int64 reads this replaced boxed
     on non-flambda ocamlopt. *)
  let ok = ref true in
  let w = ref 0 in
  while !ok && !w < words do
    let x = get_u32 a.data (4 * !w) in
    let y = get_u32 of_.data (4 * !w) in
    if x land y <> x then ok := false;
    incr w
  done;
  let i = ref (4 * words) in
  while !ok && !i < n do
    let x = Char.code (Bytes.get a.data !i) in
    let y = Char.code (Bytes.get of_.data !i) in
    if x land y <> x then ok := false;
    incr i
  done;
  !ok

let[@lipsin.noalloc] intersects a b =
  check_same_length a b;
  let n = Bytes.length a.data in
  let words = n / 4 in
  let hit = ref false in
  let w = ref 0 in
  while (not !hit) && !w < words do
    if get_u32 a.data (4 * !w) land get_u32 b.data (4 * !w) <> 0
    then hit := true;
    incr w
  done;
  let i = ref (4 * words) in
  while (not !hit) && !i < n do
    if Char.code (Bytes.get a.data !i) land Char.code (Bytes.get b.data !i) <> 0 then
      hit := true;
    incr i
  done;
  !hit

let equal a b = a.bits = b.bits && Bytes.equal a.data b.data

let compare a b =
  let c = Int.compare a.bits b.bits in
  if c <> 0 then c else Bytes.compare a.data b.data

let iter_set t f =
  for i = 0 to t.bits - 1 do
    if Char.code (Bytes.get t.data (i lsr 3)) land (1 lsl (i land 7)) <> 0 then f i
  done

let set_positions t =
  let acc = ref [] in
  iter_set t (fun i -> acc := i :: !acc);
  List.rev !acc

let of_positions n ps =
  let t = create n in
  List.iter (fun p -> set t p) ps;
  t

let to_hex t =
  let n = Bytes.length t.data in
  let buf = Buffer.create (2 * n) in
  for i = n - 1 downto 0 do
    Buffer.add_string buf (Printf.sprintf "%02x" (Char.code (Bytes.get t.data i)))
  done;
  Buffer.contents buf

let of_hex n s =
  let bytes = bytes_for n in
  if String.length s <> 2 * bytes then invalid_arg "Bitvec.of_hex: length mismatch";
  let t = create n in
  let hex_val c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bitvec.of_hex: not a hex digit"
  in
  for i = 0 to bytes - 1 do
    let hi = hex_val s.[2 * i] and lo = hex_val s.[(2 * i) + 1] in
    Bytes.set t.data (bytes - 1 - i) (Char.chr ((hi lsl 4) lor lo))
  done;
  let padded = copy t in
  mask_padding padded;
  if not (Bytes.equal padded.data t.data) then
    invalid_arg "Bitvec.of_hex: padding bits set";
  t

let to_bytes t = Bytes.copy t.data

let[@lipsin.noalloc] blit_into t dst ~pos =
  let n = Bytes.length t.data in
  if pos < 0 || pos + n > Bytes.length dst then
    invalid_arg "Bitvec.blit_into: range out of bounds";
  Bytes.blit t.data 0 dst pos n

let of_bytes n b =
  if Bytes.length b <> bytes_for n then invalid_arg "Bitvec.of_bytes: size mismatch";
  let t = { bits = n; data = Bytes.copy b } in
  let masked = copy t in
  mask_padding masked;
  if not (Bytes.equal masked.data t.data) then
    invalid_arg "Bitvec.of_bytes: padding bits set";
  t

(* FNV-1a over the backing bytes (plus the width), in native int
   arithmetic so hashing allocates nothing.  The offset basis is the
   64-bit FNV basis truncated to OCaml's 63-bit int range; wrap-around
   multiplication stands in for mod-2^64. *)
let fnv_offset = 0xcbf29ce484222
let fnv_prime = 0x100000001b3

let[@lipsin.noalloc] hash t =
  let h = ref fnv_offset in
  h := (!h lxor (t.bits land 0xff)) * fnv_prime;
  h := (!h lxor ((t.bits lsr 8) land 0xff)) * fnv_prime;
  for i = 0 to Bytes.length t.data - 1 do
    h := (!h lxor Char.code (Bytes.get t.data i)) * fnv_prime
  done;
  !h land max_int

let pp ppf t =
  Format.fprintf ppf "<%d bits, %d set: %s>" t.bits (popcount t) (to_hex t)
