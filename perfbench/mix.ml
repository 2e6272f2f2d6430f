(* Allocation-free integer hashing for op-sequence digests and
   per-publication fingerprints (a 63-bit SplitMix-style finaliser). *)

let mix x =
  let x = x lxor (x lsr 31) in
  let x = x * 0x4be98134a5976fd3 in
  let x = x lxor (x lsr 29) in
  let x = x * 0x3bc0993a5ad19a13 in
  x lxor (x lsr 32)

let step h x = mix (h lxor mix x)

let list h xs = List.fold_left step h xs

(* Order-independent digest of a node set. *)
let set_add acc node = acc + mix (node + 0x9e3779b9)

let to_hex h = Printf.sprintf "%016x" (h land max_int)
