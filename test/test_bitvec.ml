(* Tests for Lipsin_bitvec.Bitvec. *)

module Bitvec = Lipsin_bitvec.Bitvec
module Rng = Lipsin_util.Rng

let random_vec rng ~bits ~density =
  let v = Bitvec.create bits in
  for i = 0 to bits - 1 do
    if Rng.float rng 1.0 < density then Bitvec.set v i
  done;
  v

let test_create_zeroed () =
  let v = Bitvec.create 248 in
  Alcotest.(check int) "length" 248 (Bitvec.length v);
  Alcotest.(check int) "popcount 0" 0 (Bitvec.popcount v);
  for i = 0 to 247 do
    Alcotest.(check bool) "bit clear" false (Bitvec.get v i)
  done

let test_create_rejects_nonpositive () =
  Alcotest.check_raises "zero bits"
    (Invalid_argument "Bitvec.create: length must be positive") (fun () ->
      ignore (Bitvec.create 0))

let test_set_get_clear () =
  let v = Bitvec.create 100 in
  Bitvec.set v 0;
  Bitvec.set v 63;
  Bitvec.set v 64;
  Bitvec.set v 99;
  Alcotest.(check int) "popcount" 4 (Bitvec.popcount v);
  Alcotest.(check bool) "bit 63" true (Bitvec.get v 63);
  Bitvec.clear v 63;
  Alcotest.(check bool) "cleared" false (Bitvec.get v 63);
  Alcotest.(check int) "popcount after clear" 3 (Bitvec.popcount v)

let test_index_bounds () =
  let v = Bitvec.create 10 in
  Alcotest.check_raises "get out of range"
    (Invalid_argument "Bitvec: index out of range") (fun () ->
      ignore (Bitvec.get v 10));
  Alcotest.check_raises "set negative"
    (Invalid_argument "Bitvec: index out of range") (fun () -> Bitvec.set v (-1))

let test_set_all_respects_length () =
  let v = Bitvec.create 13 in
  Bitvec.set_all v;
  Alcotest.(check int) "popcount = length" 13 (Bitvec.popcount v);
  Alcotest.(check (float 1e-9)) "fill = 1.0" 1.0 (Bitvec.fill_ratio v)

let test_reset () =
  let v = Bitvec.create 50 in
  Bitvec.set_all v;
  Bitvec.reset v;
  Alcotest.(check int) "popcount 0" 0 (Bitvec.popcount v)

let test_logor_logand () =
  let a = Bitvec.of_positions 16 [ 0; 1; 2 ] in
  let b = Bitvec.of_positions 16 [ 2; 3 ] in
  Alcotest.(check (list int)) "or" [ 0; 1; 2; 3 ]
    (Bitvec.set_positions (Bitvec.logor a b));
  Alcotest.(check (list int)) "and" [ 2 ] (Bitvec.set_positions (Bitvec.logand a b))

let test_length_mismatch () =
  let a = Bitvec.create 8 and b = Bitvec.create 16 in
  Alcotest.check_raises "or mismatch" (Invalid_argument "Bitvec: length mismatch")
    (fun () -> ignore (Bitvec.logor a b));
  Alcotest.check_raises "subset mismatch"
    (Invalid_argument "Bitvec: length mismatch") (fun () ->
      ignore (Bitvec.subset a ~of_:b))

let test_logor_into () =
  let dst = Bitvec.of_positions 32 [ 5 ] in
  let src = Bitvec.of_positions 32 [ 7; 9 ] in
  Bitvec.logor_into ~dst src;
  Alcotest.(check (list int)) "accumulated" [ 5; 7; 9 ] (Bitvec.set_positions dst);
  Alcotest.(check (list int)) "src untouched" [ 7; 9 ] (Bitvec.set_positions src)

let test_subset_basic () =
  let small = Bitvec.of_positions 248 [ 3; 100; 200 ] in
  let big = Bitvec.of_positions 248 [ 3; 50; 100; 200; 240 ] in
  Alcotest.(check bool) "subset" true (Bitvec.subset small ~of_:big);
  Alcotest.(check bool) "not superset" false (Bitvec.subset big ~of_:small);
  Alcotest.(check bool) "self subset" true (Bitvec.subset small ~of_:small)

let test_subset_empty () =
  let empty = Bitvec.create 64 in
  let any = Bitvec.of_positions 64 [ 1 ] in
  Alcotest.(check bool) "empty subset of anything" true
    (Bitvec.subset empty ~of_:any)

let test_intersects () =
  let a = Bitvec.of_positions 100 [ 10; 20 ] in
  let b = Bitvec.of_positions 100 [ 20; 30 ] in
  let c = Bitvec.of_positions 100 [ 40 ] in
  Alcotest.(check bool) "a/b intersect" true (Bitvec.intersects a b);
  Alcotest.(check bool) "a/c disjoint" false (Bitvec.intersects a c)

let test_hex_roundtrip () =
  let rng = Rng.create 5L in
  for _ = 1 to 50 do
    let v = random_vec rng ~bits:248 ~density:0.3 in
    let back = Bitvec.of_hex 248 (Bitvec.to_hex v) in
    Alcotest.(check bool) "hex roundtrip" true (Bitvec.equal v back)
  done

let test_hex_rejects_garbage () =
  Alcotest.check_raises "bad digit" (Invalid_argument "Bitvec.of_hex: not a hex digit")
    (fun () -> ignore (Bitvec.of_hex 8 "zz"));
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Bitvec.of_hex: length mismatch") (fun () ->
      ignore (Bitvec.of_hex 16 "ff"))

let test_bytes_roundtrip () =
  let rng = Rng.create 15L in
  for _ = 1 to 50 do
    let v = random_vec rng ~bits:120 ~density:0.5 in
    let back = Bitvec.of_bytes 120 (Bitvec.to_bytes v) in
    Alcotest.(check bool) "bytes roundtrip" true (Bitvec.equal v back)
  done

let test_of_bytes_rejects_padding () =
  (* 13-bit vector = 2 bytes; bits 13..15 must be zero. *)
  let bad = Bytes.of_string "\xff\xff" in
  Alcotest.check_raises "padding set"
    (Invalid_argument "Bitvec.of_bytes: padding bits set") (fun () ->
      ignore (Bitvec.of_bytes 13 bad))

let test_copy_independent () =
  let a = Bitvec.of_positions 32 [ 1 ] in
  let b = Bitvec.copy a in
  Bitvec.set b 2;
  Alcotest.(check (list int)) "original unchanged" [ 1 ] (Bitvec.set_positions a);
  Alcotest.(check (list int)) "copy changed" [ 1; 2 ] (Bitvec.set_positions b)

let test_compare_consistent_with_equal () =
  let a = Bitvec.of_positions 64 [ 1; 2 ] in
  let b = Bitvec.of_positions 64 [ 1; 2 ] in
  let c = Bitvec.of_positions 64 [ 1; 3 ] in
  Alcotest.(check bool) "equal" true (Bitvec.equal a b);
  Alcotest.(check int) "compare equal" 0 (Bitvec.compare a b);
  Alcotest.(check bool) "hash equal" true (Bitvec.hash a = Bitvec.hash b);
  Alcotest.(check bool) "compare differs" true (Bitvec.compare a c <> 0)

let test_iter_set_ascending () =
  let v = Bitvec.of_positions 100 [ 90; 5; 33 ] in
  let seen = ref [] in
  Bitvec.iter_set v (fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "ascending order" [ 5; 33; 90 ] (List.rev !seen)

(* --- properties --- *)

let positions_gen bits =
  QCheck.Gen.(list_size (int_range 0 (bits / 2)) (int_range 0 (bits - 1)))

let vec_arb bits =
  QCheck.make
    ~print:(fun ps -> String.concat "," (List.map string_of_int ps))
    (positions_gen bits)

let prop_or_superset =
  QCheck.Test.make ~name:"a subset (a|b)" ~count:300
    (QCheck.pair (vec_arb 248) (vec_arb 248))
    (fun (pa, pb) ->
      let a = Bitvec.of_positions 248 pa and b = Bitvec.of_positions 248 pb in
      let o = Bitvec.logor a b in
      Bitvec.subset a ~of_:o && Bitvec.subset b ~of_:o)

let prop_and_subset =
  QCheck.Test.make ~name:"(a&b) subset a" ~count:300
    (QCheck.pair (vec_arb 248) (vec_arb 248))
    (fun (pa, pb) ->
      let a = Bitvec.of_positions 248 pa and b = Bitvec.of_positions 248 pb in
      let i = Bitvec.logand a b in
      Bitvec.subset i ~of_:a && Bitvec.subset i ~of_:b)

let prop_popcount_or_bounds =
  QCheck.Test.make ~name:"popcount(a|b) bounds" ~count:300
    (QCheck.pair (vec_arb 120) (vec_arb 120))
    (fun (pa, pb) ->
      let a = Bitvec.of_positions 120 pa and b = Bitvec.of_positions 120 pb in
      let o = Bitvec.popcount (Bitvec.logor a b) in
      o >= max (Bitvec.popcount a) (Bitvec.popcount b)
      && o <= Bitvec.popcount a + Bitvec.popcount b)

let prop_positions_roundtrip =
  QCheck.Test.make ~name:"set_positions/of_positions roundtrip" ~count:300
    (vec_arb 505)
    (fun ps ->
      let v = Bitvec.of_positions 505 ps in
      let v' = Bitvec.of_positions 505 (Bitvec.set_positions v) in
      Bitvec.equal v v')

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip arbitrary width" ~count:200
    (QCheck.pair (QCheck.int_range 1 400) QCheck.small_nat)
    (fun (bits, seed) ->
      let rng = Rng.of_int seed in
      let v = random_vec rng ~bits ~density:0.4 in
      Bitvec.equal v (Bitvec.of_hex bits (Bitvec.to_hex v)))

let prop_subset_transitive =
  QCheck.Test.make ~name:"subset transitivity via or-chain" ~count:200
    (QCheck.triple (vec_arb 248) (vec_arb 248) (vec_arb 248))
    (fun (pa, pb, pc) ->
      let a = Bitvec.of_positions 248 pa in
      let ab = Bitvec.logor a (Bitvec.of_positions 248 pb) in
      let abc = Bitvec.logor ab (Bitvec.of_positions 248 pc) in
      Bitvec.subset a ~of_:abc)

(* --- model-based properties: Bitvec vs a naive bool array ---

   The fast path trusts the word-wise kernels (subset, intersects,
   logor, logand, popcount, hash) on arbitrary — especially
   non-word-multiple — lengths, so check them against the
   obviously-correct per-bit model. *)

let model_of v = Array.init (Bitvec.length v) (Bitvec.get v)

let model_pair_arb =
  (* (length, positions for a, positions for b) with lengths straddling
     byte, 4-byte group and 64-bit word boundaries: 1..300 covers up to
     nine whole 4-byte groups plus every byte tail. *)
  QCheck.make
    ~print:(fun (len, pa, pb) ->
      Printf.sprintf "len=%d a=[%s] b=[%s]" len
        (String.concat "," (List.map string_of_int pa))
        (String.concat "," (List.map string_of_int pb)))
    QCheck.Gen.(
      int_range 1 300 >>= fun len ->
      let ps = list_size (int_range 0 len) (int_range 0 (len - 1)) in
      pair ps ps >>= fun (pa, pb) -> return (len, pa, pb))

let build len ps = Bitvec.of_positions len ps

let prop_model_subset =
  QCheck.Test.make ~name:"model: subset = per-bit implication" ~count:500
    model_pair_arb
    (fun (len, pa, pb) ->
      let a = build len pa and b = build len pb in
      let ma = model_of a and mb = model_of b in
      let expected = ref true in
      Array.iteri (fun i ai -> if ai && not mb.(i) then expected := false) ma;
      (* a | b makes the true verdict, which scans every group and tail
         byte, as common as the false one. *)
      Bitvec.subset a ~of_:b = !expected && Bitvec.subset a ~of_:(Bitvec.logor a b))

let prop_model_intersects =
  QCheck.Test.make ~name:"model: intersects = some per-bit and" ~count:500
    model_pair_arb
    (fun (len, pa, pb) ->
      let a = build len pa and b = build len pb in
      let ma = model_of a and mb = model_of b in
      let expected = ref false in
      Array.iteri (fun i ai -> if ai && mb.(i) then expected := true) ma;
      Bitvec.intersects a b = !expected)

let prop_model_logor =
  QCheck.Test.make ~name:"model: logor = per-bit or" ~count:500 model_pair_arb
    (fun (len, pa, pb) ->
      let a = build len pa and b = build len pb in
      let ma = model_of a and mb = model_of b in
      model_of (Bitvec.logor a b) = Array.init len (fun i -> ma.(i) || mb.(i)))

let prop_model_logand =
  QCheck.Test.make ~name:"model: logand = per-bit and" ~count:500 model_pair_arb
    (fun (len, pa, pb) ->
      let a = build len pa and b = build len pb in
      let ma = model_of a and mb = model_of b in
      model_of (Bitvec.logand a b) = Array.init len (fun i -> ma.(i) && mb.(i)))

let prop_model_logor_into =
  QCheck.Test.make ~name:"model: logor_into mutates dst only" ~count:500
    model_pair_arb
    (fun (len, pa, pb) ->
      let dst = build len pa and src = build len pb in
      let ma = model_of dst and mb = model_of src in
      Bitvec.logor_into ~dst src;
      model_of dst = Array.init len (fun i -> ma.(i) || mb.(i))
      && model_of src = mb)

let prop_model_popcount_fill =
  QCheck.Test.make ~name:"model: popcount and fill_ratio" ~count:500
    model_pair_arb
    (fun (len, pa, _) ->
      let a = build len pa in
      let expected = Array.fold_left (fun n b -> if b then n + 1 else n) 0 (model_of a) in
      Bitvec.popcount a = expected
      && Bitvec.fill_ratio a = float_of_int expected /. float_of_int len)

(* FNV-1a over the two width bytes then the backing bytes, with the
   64-bit offset basis truncated to OCaml's 63-bit int. *)
let fnv1a len bytes =
  let step h byte = (h lxor byte) * 0x100000001b3 in
  let h = step (step 0xcbf29ce484222 (len land 0xff)) ((len lsr 8) land 0xff) in
  Bytes.fold_left (fun h c -> step h (Char.code c)) h bytes land max_int

let prop_model_hash =
  QCheck.Test.make ~name:"model: hash" ~count:500 model_pair_arb
    (fun (len, pa, _) ->
      let a = build len pa in
      Bitvec.hash a = Bitvec.hash (build len (List.rev pa))
      && Bitvec.hash a = fnv1a len (Bitvec.to_bytes a))

let prop_model_blit_into =
  QCheck.Test.make ~name:"model: blit_into copies the backing bytes" ~count:300
    model_pair_arb
    (fun (len, pa, _) ->
      let a = build len pa in
      let bytes_len = (len + 7) / 8 in
      let dst = Bytes.make (bytes_len + 16) '\xff' in
      Bitvec.blit_into a dst ~pos:8;
      Bytes.equal (Bytes.sub dst 8 bytes_len) (Bitvec.to_bytes a)
      && Bytes.get dst 0 = '\xff'
      && Bytes.get dst (bytes_len + 8) = '\xff')

let () =
  Alcotest.run "bitvec"
    [
      ( "basics",
        [
          Alcotest.test_case "create zeroed" `Quick test_create_zeroed;
          Alcotest.test_case "create rejects" `Quick test_create_rejects_nonpositive;
          Alcotest.test_case "set/get/clear" `Quick test_set_get_clear;
          Alcotest.test_case "index bounds" `Quick test_index_bounds;
          Alcotest.test_case "set_all" `Quick test_set_all_respects_length;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "iter_set ascending" `Quick test_iter_set_ascending;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "or/and" `Quick test_logor_logand;
          Alcotest.test_case "length mismatch" `Quick test_length_mismatch;
          Alcotest.test_case "logor_into" `Quick test_logor_into;
          Alcotest.test_case "subset" `Quick test_subset_basic;
          Alcotest.test_case "empty subset" `Quick test_subset_empty;
          Alcotest.test_case "intersects" `Quick test_intersects;
          Alcotest.test_case "compare/equal/hash" `Quick
            test_compare_consistent_with_equal;
          QCheck_alcotest.to_alcotest prop_or_superset;
          QCheck_alcotest.to_alcotest prop_and_subset;
          QCheck_alcotest.to_alcotest prop_popcount_or_bounds;
          QCheck_alcotest.to_alcotest prop_subset_transitive;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "hex rejects" `Quick test_hex_rejects_garbage;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "bytes padding" `Quick test_of_bytes_rejects_padding;
          QCheck_alcotest.to_alcotest prop_positions_roundtrip;
          QCheck_alcotest.to_alcotest prop_hex_roundtrip;
        ] );
      ( "model",
        [
          QCheck_alcotest.to_alcotest prop_model_subset;
          QCheck_alcotest.to_alcotest prop_model_intersects;
          QCheck_alcotest.to_alcotest prop_model_logor;
          QCheck_alcotest.to_alcotest prop_model_logand;
          QCheck_alcotest.to_alcotest prop_model_logor_into;
          QCheck_alcotest.to_alcotest prop_model_popcount_fill;
          QCheck_alcotest.to_alcotest prop_model_hash;
          QCheck_alcotest.to_alcotest prop_model_blit_into;
        ] );
    ]
