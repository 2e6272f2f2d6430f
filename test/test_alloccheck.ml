(* Tests for Lipsin_linter.Alloccheck — the typed-tree allocation-
   freedom prover behind `lipsin_lint --alloc`.

   Fixtures are typed in memory with Typed.type_impl against the
   stdlib-only initial environment, seeded with the violations the
   checker must catch (escaping closures, boxed float returns, tuples,
   partial applications, heapified refs) and the idioms it must prove
   clean (elimref while/for loops, whitelisted primitives, abort
   heads).  The qcheck property pins the suppression contract: a
   [@lipsin.allow_alloc]-marked site never reports, whatever the
   construct or the reason string. *)

module Typed = Lipsin_linter.Typed
module Alloccheck = Lipsin_linter.Alloccheck
module Finding = Lipsin_linter.Finding

let counter = ref 0

let check text =
  (* unique unit names: the compiler-libs persistent env caches typed
     units by module name *)
  incr counter;
  let name = Printf.sprintf "Allocfix%d" !counter in
  let u = Typed.type_impl ~name text in
  let _roots, findings = Alloccheck.run_units [ u ] in
  findings

let messages findings =
  List.map (fun (f : Finding.t) -> f.Finding.message) findings

let has_finding ~substr findings =
  List.exists
    (fun m ->
      let n = String.length substr in
      let rec scan i =
        i + n <= String.length m
        && (String.equal (String.sub m i n) substr || scan (i + 1))
      in
      scan 0)
    (messages findings)

let test_clean_loops () =
  let findings =
    check
      "let[@lipsin.noalloc] f n =\n\
      \  let acc = ref 0 in\n\
      \  let i = ref 0 in\n\
      \  while !i < n do\n\
      \    acc := !acc + !i;\n\
      \    incr i\n\
      \  done;\n\
      \  for j = 0 to n - 1 do\n\
      \    acc := !acc lxor j\n\
      \  done;\n\
      \  !acc\n"
  in
  Alcotest.(check int) "elimref while/for loop proves clean" 0
    (List.length findings)

let test_whitelisted_primitives () =
  let findings =
    check
      "let[@lipsin.noalloc] f b i =\n\
      \  if i < 0 then invalid_arg \"f\";\n\
      \  Char.code (Bytes.get b i) land 0xff\n"
  in
  Alcotest.(check int) "Bytes/Char primitives and abort heads are clean" 0
    (List.length findings)

let test_bool_to_int () =
  let findings =
    check
      "let[@lipsin.noalloc] f a x =\n\
      \  let n = ref 0 in\n\
      \  for i = 0 to Array.length a - 1 do\n\
      \    n := !n + Bool.to_int (Array.get a i land x = 0)\n\
      \  done;\n\
      \  !n\n"
  in
  Alcotest.(check int) "Bool.to_int counts without a finding" 0
    (List.length findings)

let test_escaping_closure () =
  let findings =
    check
      "let[@lipsin.noalloc] f x =\n\
      \  let g = fun y -> x + y in\n\
      \  g 3\n"
  in
  Alcotest.(check bool) "closure allocation reported" true
    (has_finding ~substr:"closure allocation" findings)

let test_boxed_float_return () =
  let findings = check "let[@lipsin.noalloc] f x = x *. 2.0\n" in
  Alcotest.(check bool) "boxed float return reported" true
    (has_finding ~substr:"returns boxed float" findings)

let test_tuple_and_record () =
  let findings = check "let[@lipsin.noalloc] f x = (x, x)\n" in
  Alcotest.(check bool) "tuple allocation reported" true
    (has_finding ~substr:"tuple allocation" findings);
  let findings =
    check
      "type t = { a : int; b : int }\n\
       let[@lipsin.noalloc] f x = { a = x; b = x }\n"
  in
  Alcotest.(check bool) "record allocation reported" true
    (has_finding ~substr:"record allocation" findings)

let test_partial_application () =
  let findings =
    check "let g a b = a + b\nlet[@lipsin.noalloc] f x = g x\n"
  in
  Alcotest.(check bool) "partial application reported" true
    (has_finding ~substr:"partial application" findings)

let test_heapified_ref () =
  let findings =
    check
      "let[@lipsin.noalloc] f n =\n\
      \  let r = ref n in\n\
      \  ignore r;\n\
      \  !r\n"
  in
  Alcotest.(check bool) "escaping ref reported" true
    (has_finding ~substr:"escapes" findings)

let test_callgraph_chain () =
  let findings =
    check
      "let helper x = [| x |]\n\
       let[@lipsin.noalloc] f x = Array.length (helper x)\n"
  in
  Alcotest.(check bool) "allocation in callee reported" true
    (has_finding ~substr:"array allocation" findings);
  Alcotest.(check bool) "finding names the call chain" true
    (has_finding ~substr:"helper" findings)

let test_unknown_callee () =
  let findings =
    check "let[@lipsin.noalloc] f x = Printf.sprintf \"%d\" x\n"
  in
  Alcotest.(check bool) "unanalyzable external callee reported" true
    (has_finding ~substr:"neither whitelisted nor analyzable" findings)

let test_unannotated_ignored () =
  let findings = check "let f x = (x, x, [ x ])\n" in
  Alcotest.(check int) "no noalloc root, no findings" 0
    (List.length findings)

let test_binding_suppression () =
  let findings =
    check
      "let[@lipsin.noalloc] [@lipsin.allow_alloc \"test fixture\"] f x =\n\
      \  (x, x)\n"
  in
  Alcotest.(check int) "binding-level allow_alloc suppresses" 0
    (List.length findings)

let test_expression_suppression () =
  let findings =
    check
      "let[@lipsin.noalloc] f x =\n\
      \  let k = ((x, x) [@lipsin.allow_alloc \"sanctioned pair\"]) in\n\
      \  fst k\n"
  in
  Alcotest.(check int) "expression-level allow_alloc suppresses" 0
    (List.length findings)

(* Property: whatever allocating construct is seeded and whatever the
   reason string says, a suppressed site never reports. *)
let allocating_bodies =
  [|
    "(x, x)";
    "[ x; x ]";
    "[| x; x |]";
    "Some x";
    "(fun y -> y + x) 1";
    "ref (x + 1)";
    "lazy x";
  |]

let prop_suppressed_never_reports =
  QCheck.Test.make ~name:"allow_alloc-marked sites never report" ~count:40
    QCheck.(pair (int_bound (Array.length allocating_bodies - 1)) small_nat)
    (fun (pick, salt) ->
      let reason = Printf.sprintf "seeded reason %d" salt in
      let body = allocating_bodies.(pick) in
      let text =
        Printf.sprintf
          "let[@lipsin.noalloc] f x =\n\
          \  ignore ((%s) [@lipsin.allow_alloc %S]);\n\
          \  x + 1\n"
          body reason
      in
      let suppressed = check text in
      (* the same body without the attribute must report: the property
         is that the attribute, not the fixture, removes the finding *)
      let text_bare =
        Printf.sprintf
          "let[@lipsin.noalloc] g x =\n\
          \  ignore (%s);\n\
          \  x + 1\n"
          body
      in
      let bare = check text_bare in
      List.length suppressed = 0 && List.length bare > 0)

let () =
  Alcotest.run "alloccheck"
    [
      ( "proofs",
        [
          Alcotest.test_case "clean elimref loops" `Quick test_clean_loops;
          Alcotest.test_case "whitelisted primitives" `Quick
            test_whitelisted_primitives;
          Alcotest.test_case "Bool.to_int" `Quick test_bool_to_int;
        ] );
      ( "violations",
        [
          Alcotest.test_case "escaping closure" `Quick test_escaping_closure;
          Alcotest.test_case "boxed float return" `Quick
            test_boxed_float_return;
          Alcotest.test_case "tuple and record" `Quick test_tuple_and_record;
          Alcotest.test_case "partial application" `Quick
            test_partial_application;
          Alcotest.test_case "heapified ref" `Quick test_heapified_ref;
          Alcotest.test_case "call-graph chain" `Quick test_callgraph_chain;
          Alcotest.test_case "unknown callee" `Quick test_unknown_callee;
          Alcotest.test_case "unannotated ignored" `Quick
            test_unannotated_ignored;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "binding-level" `Quick test_binding_suppression;
          Alcotest.test_case "expression-level" `Quick
            test_expression_suppression;
          QCheck_alcotest.to_alcotest prop_suppressed_never_reports;
        ] );
    ]
