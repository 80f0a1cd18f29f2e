(* The runtime layer (S19): boxing/unboxing at the compiled-function
   boundary, the boxed primitive dispatch, checked arithmetic, and the
   deterministic PRNG shared by every execution path. *)

open Wolf_wexpr
open Wolf_runtime
open Wolf_base

let parse = Parser.parse
let expr = Alcotest.testable (Fmt.of_to_string Expr.to_string) Expr.equal

let test_boxing_roundtrip () =
  let cases =
    [ ("int", parse "42"); ("real", parse "2.5"); ("string", parse "\"hi\"");
      ("true", parse "True"); ("false", parse "False"); ("null", parse "Null");
      ("complex", parse "Complex[1.0, 2.0]"); ("packed ints", parse "{1, 2, 3}");
      ("packed reals", parse "{1.5, 2.5}"); ("matrix", parse "{{1, 2}, {3, 4}}");
      ("symbolic", parse "f[x, 1]") ]
  in
  List.iter
    (fun (name, e) ->
       Alcotest.check expr name e (Rtval.to_expr (Rtval.of_expr e)))
    cases

let test_unboxing_shapes () =
  Alcotest.(check string) "int" "Integer64" (Rtval.type_name (Rtval.of_expr (parse "5")));
  Alcotest.(check string) "real" "Real64" (Rtval.type_name (Rtval.of_expr (parse "5.0")));
  Alcotest.(check string) "bool" "Boolean" (Rtval.type_name (Rtval.of_expr (parse "True")));
  Alcotest.(check string) "complex" "ComplexReal64"
    (Rtval.type_name (Rtval.of_expr (parse "Complex[1.0, 0.5]")));
  Alcotest.(check string) "packed" "PackedArray[Integer64, 1]"
    (Rtval.type_name (Rtval.of_expr (parse "{1, 2}")));
  Alcotest.(check string) "heterogeneous stays Expression" "Expression"
    (Rtval.type_name (Rtval.of_expr (parse "{1, \"two\"}")))

let test_accessor_mismatches () =
  let is_rt = function Errors.Runtime_error _ -> true | _ -> false in
  let expect_raise name f =
    match f () with
    | _ -> Alcotest.failf "%s should raise" name
    | exception e ->
      Alcotest.(check bool) name true (is_rt e)
  in
  expect_raise "as_int of real" (fun () -> Rtval.as_int (Rtval.Real 1.0));
  expect_raise "as_str of int" (fun () -> Rtval.as_str (Rtval.Int 1));
  expect_raise "as_tensor of bool" (fun () -> Rtval.as_tensor (Rtval.Bool true));
  Alcotest.(check (float 0.0)) "as_real coerces int" 3.0 (Rtval.as_real (Rtval.Int 3))

let test_prims_dispatch () =
  let i n = Rtval.Int n and r x = Rtval.Real x in
  let cases =
    [ ("checked_binary_plus", [| i 2; i 3 |], i 5);
      ("binary_plus", [| r 1.5; r 2.0 |], r 3.5);
      ("binary_plus", [| i 1; r 2.5 |], r 3.5);
      ("binary_less", [| i 1; i 2 |], Rtval.Bool true);
      ("binary_equal", [| Rtval.Str "a"; Rtval.Str "a" |], Rtval.Bool true);
      ("unary_not", [| Rtval.Bool false |], Rtval.Bool true);
      ("binary_min", [| r 1.5; i 2 |], r 1.5);
      ("unary_floor", [| r 2.9 |], i 2);
      ("unary_round", [| r 2.5 |], i 2);    (* banker's rounding *)
      ("unary_round", [| r 3.5 |], i 4);
      ("string_length", [| Rtval.Str "abc" |], i 3);
      ("string_byte", [| Rtval.Str "A"; i 1 |], i 65);
      ("complex_abs", [| Rtval.Complex (3.0, 4.0) |], r 5.0);
      ("unary_boole", [| Rtval.Bool true |], i 1) ]
  in
  List.iter
    (fun (base, args, expected) ->
       Alcotest.(check bool)
         (Printf.sprintf "%s dispatch" base)
         true
         (Rtval.equal expected ((Prims.find base).impl args)))
    cases;
  (* unknown primitive is a programming error, not a runtime failure *)
  (match (Prims.find "no_such_primitive").impl [||] with
   | _ -> Alcotest.fail "unknown primitive accepted"
   | exception Invalid_argument _ -> ());
  (* numerical failures surface as Runtime_error for the soft fallback *)
  match (Prims.find "checked_binary_plus").impl [| Rtval.Int max_int; Rtval.Int 1 |] with
  | _ -> Alcotest.fail "overflow not detected"
  | exception Errors.Runtime_error Errors.Integer_overflow -> ()
  | exception e -> Alcotest.failf "wrong failure: %s" (Printexc.to_string e)

(* A row's boxed [impl] computes its scalar form's function: the threaded
   backend and the WVM call the form, everything else calls [impl].  The
   rows that keep their own [impl] (comparisons, identities) are the ones
   this can catch. *)
let test_scalar_forms_match_impl () =
  let ints = [ min_int; min_int + 1; -7; -1; 0; 1; 2; 63; max_int ] in
  let reals = [ neg_infinity; -2.5; -0.0; 0.0; 0.5; 3.0; infinity; Float.nan ] in
  let same what expected f =
    let got = match f () with v -> Ok v | exception Errors.Runtime_error e -> Error e in
    let expected = match expected () with v -> Ok v | exception Errors.Runtime_error e -> Error e in
    let ok =
      match expected, got with
      | Ok a, Ok b -> Rtval.equal a b || (match a, b with
          | Rtval.Real x, Rtval.Real y -> Float.is_nan x && Float.is_nan y
          | _ -> false)
      | Error a, Error b -> a = b
      | _ -> false
    in
    if not ok then Alcotest.failf "%s: impl differs from its scalar form" what
  in
  let pairs l = List.concat_map (fun a -> List.map (fun b -> (a, b)) l) l in
  let n = ref 0 in
  List.iter
    (fun (r : Prims.t) ->
       let impl args () = r.impl args in
       let i x = Rtval.Int x and re x = Rtval.Real x and b x = Rtval.Bool x in
       let each l f = List.iter (fun x -> incr n; f x) l in
       match r.scalar with
       | None -> ()
       | Some (Int1 f) -> each ints (fun a -> same r.name (fun () -> i (f a)) (impl [| i a |]))
       | Some (Int2 f) ->
         each (pairs ints) (fun (a, c) -> same r.name (fun () -> i (f a c)) (impl [| i a; i c |]))
       | Some (Real1 f) -> each reals (fun a -> same r.name (fun () -> re (f a)) (impl [| re a |]))
       | Some (Real2 f) ->
         each (pairs reals) (fun (a, c) -> same r.name (fun () -> re (f a c)) (impl [| re a; re c |]))
       | Some (Real_to_int f) ->
         each reals (fun a -> same r.name (fun () -> i (f a)) (impl [| re a |]))
       | Some (Int_to_real f) -> each ints (fun a -> same r.name (fun () -> re (f a)) (impl [| i a |]))
       | Some (Num2 (fi, fr)) ->
         each (pairs ints) (fun (a, c) -> same r.name (fun () -> i (fi a c)) (impl [| i a; i c |]));
         each (pairs reals) (fun (a, c) -> same r.name (fun () -> re (fr a c)) (impl [| re a; re c |]))
       | Some (Cmp2 (fi, fr)) ->
         each (pairs ints) (fun (a, c) -> same r.name (fun () -> b (fi a c)) (impl [| i a; i c |]));
         each (pairs reals) (fun (a, c) -> same r.name (fun () -> b (fr a c)) (impl [| re a; re c |]))
       | Some (Int_test f) -> each ints (fun a -> same r.name (fun () -> b (f a)) (impl [| i a |]))
       | Some (Bool1 f) -> each [ true; false ] (fun a -> same r.name (fun () -> b (f a)) (impl [| b a |]))
       | Some (Bool_to_int f) ->
         each [ true; false ] (fun a -> same r.name (fun () -> i (f a)) (impl [| b a |])))
    Prims.rows;
  Alcotest.(check bool) "the forms were exercised" true (!n > 1000);
  (* Abs of the minimum integer is out of range: the call must fall back *)
  match (Prims.find "checked_unary_abs").scalar with
  | Some (Int1 f) ->
    (match f min_int with
     | _ -> Alcotest.fail "Abs of the minimum integer did not overflow"
     | exception Errors.Runtime_error Errors.Integer_overflow -> ())
  | _ -> Alcotest.fail "checked_unary_abs has no Int1 form"

let test_checked_arithmetic_edges () =
  Alcotest.(check int) "add at boundary" max_int (Checked.add (max_int - 1) 1);
  (match Checked.neg min_int with
   | _ -> Alcotest.fail "neg min_int"
   | exception Errors.Runtime_error Errors.Integer_overflow -> ()
   | exception _ -> Alcotest.fail "wrong exn");
  (match Checked.quotient 1 0 with
   | _ -> Alcotest.fail "div by zero"
   | exception Errors.Runtime_error Errors.Division_by_zero -> ()
   | exception _ -> Alcotest.fail "wrong exn");
  Alcotest.(check int) "floored quotient" (-4) (Checked.quotient (-7) 2);
  Alcotest.(check int) "mod sign of divisor" 1 (Checked.modulo (-7) 2);
  Alcotest.(check int) "banker 0.5" 0 (Checked.round_half_even 0.5);
  Alcotest.(check int) "banker 1.5" 2 (Checked.round_half_even 1.5);
  Alcotest.(check int) "banker -2.5" (-2) (Checked.round_half_even (-2.5))

let prop_checked_matches_int =
  QCheck2.Test.make ~name:"checked ops = int ops in range" ~count:500
    QCheck2.Gen.(pair (int_range (-100000) 100000) (int_range (-100000) 100000))
    (fun (a, b) ->
       Checked.add a b = a + b
       && Checked.sub a b = a - b
       && Checked.mul a b = a * b)

let test_rand_determinism () =
  Rand.seed 123;
  let a = Array.init 16 (fun _ -> Rand.uniform ()) in
  Rand.seed 123;
  let b = Array.init 16 (fun _ -> Rand.uniform ()) in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  Rand.seed 124;
  let c = Array.init 16 (fun _ -> Rand.uniform ()) in
  Alcotest.(check bool) "different seed differs" false (a = c);
  Array.iter
    (fun x -> Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0))
    a;
  Rand.seed 9;
  for _ = 1 to 100 do
    let v = Rand.int_range 3 7 in
    Alcotest.(check bool) "int_range bounds" true (v >= 3 && v <= 7)
  done

let test_hooks_default () =
  (* the hooks module must not silently evaluate without a kernel; Session
     installs the real evaluator, which run-of-the-mill tests rely on *)
  Wolfram.init ();
  Alcotest.check expr "hook evaluates" (Expr.Int 3)
    (Hooks.eval (parse "1 + 2"))

(* a whole-array Real64 op allocates its result array (in the major heap
   at this size) and a few words more, never a boxed float per element *)
let test_real_array_ops_unboxed () =
  let n = 100_000 in
  let t = Tensor.create_real [| n |] (Array.init n (fun i -> float_of_int i)) in
  List.iter
    (fun (base, args, expect_at_7) ->
       ignore ((Prims.find base).impl args);
       let before = Gc.minor_words () in
       let r = (Prims.find base).impl args in
       let words = Gc.minor_words () -. before in
       Alcotest.(check bool)
         (Printf.sprintf "%s allocates %.0f minor words (< 10000)" base words)
         true (words < 10_000.0);
       let out = Rtval.as_tensor r in
       Alcotest.(check int) (base ^ " length") n (Tensor.flat_length out);
       Alcotest.(check (float 1e-12)) (base ^ " element") expect_at_7 (Tensor.get_real out 7))
    [ ("array_scalar_times", [| Rtval.Tensor t; Rtval.Real 0.5 |], 3.5);
      ("array_unary_sin", [| Rtval.Tensor t |], sin 7.0) ]

(* operands at and around the bounds of the checked multiply's fast path
   ([-2^30, 2^30)) and of the machine range *)
let mul_operands =
  let t30 = 1 lsl 30 and t31 = 1 lsl 31 in
  [ 0; 1; -1; 2; t30; -t30; t30 + 1; t30 - 1; -t30 + 1; -t30 - 1; t31; -t31; max_int; min_int ]

(* the division-based test the fast path guards *)
let mul_reference a b =
  let p = a * b in
  if a <> 0 && b <> 0 && (p / b <> a || (a = -1 && b = min_int) || (b = -1 && a = min_int))
  then None
  else Some p

let test_checked_mul_table () =
  let show = function Some p -> string_of_int p | None -> "overflow" in
  let raising a b =
    match Checked.mul a b with
    | p -> Some p
    | exception Errors.Runtime_error Errors.Integer_overflow -> None
  in
  List.iter
    (fun a ->
       List.iter
         (fun b ->
            let what = Printf.sprintf "%d * %d" a b in
            Alcotest.(check string) what (show (mul_reference a b)) (show (raising a b));
            Alcotest.(check string) (what ^ " (option)") (show (mul_reference a b))
              (show (Checked.mul_opt a b)))
         mul_operands)
    mul_operands;
  let t31 = 1 lsl 31 in
  Alcotest.(check string) "2^31 * 2^31 overflows" "overflow" (show (raising t31 t31));
  Alcotest.(check string) "-2^31 * 2^31 is min_int" (show (Some min_int)) (show (raising (-t31) t31));
  Alcotest.(check string) "min_int * -1 overflows" "overflow" (show (raising min_int (-1)));
  Alcotest.(check string) "min_int * 1" (show (Some min_int)) (show (raising min_int 1));
  Alcotest.(check string) "max_int * 1" (show (Some max_int)) (show (raising max_int 1));
  Alcotest.(check string) "max_int * 2 overflows" "overflow" (show (raising max_int 2))

(* Take, Append and Join copy by blit: the same elements, kind and length
   as an element-wise copy, at k = 0, k = Length and on empty operands;
   Take past the end and a mixed-kind Join still fail softly *)
let test_array_blit_rows () =
  let ints a = Rtval.Tensor (Tensor.of_int_array a) in
  let reals a = Rtval.Tensor (Tensor.of_real_array a) in
  let i k = Rtval.Int k and r x = Rtval.Real x in
  let cases =
    [ ("array_take", [| ints [| 1; 2; 3 |]; i 0 |], ints [||]);
      ("array_take", [| ints [| 1; 2; 3 |]; i 3 |], ints [| 1; 2; 3 |]);
      ("array_take", [| reals [| 1.5; 2.5 |]; i 1 |], reals [| 1.5 |]);
      ("array_take", [| reals [| 1.5; 2.5 |]; i 2 |], reals [| 1.5; 2.5 |]);
      ("array_append", [| ints [||]; i 7 |], ints [| 7 |]);
      ("array_append", [| ints [| 1; 2 |]; i 7 |], ints [| 1; 2; 7 |]);
      ("array_append", [| ints [| 1; 2 |]; r 0.5 |], reals [| 1.0; 2.0; 0.5 |]);
      ("array_append", [| reals [| 1.5 |]; i 2 |], reals [| 1.5; 2.0 |]);
      ("array_join", [| ints [||]; ints [||] |], ints [||]);
      ("array_join", [| ints [| 1 |]; ints [||] |], ints [| 1 |]);
      ("array_join", [| ints [| 1; 2 |]; ints [| 3 |] |], ints [| 1; 2; 3 |]);
      ("array_join", [| reals [||]; reals [| 2.5 |] |], reals [| 2.5 |]) ]
  in
  List.iter
    (fun (base, args, expected) ->
       let got = (Prims.find base).impl args in
       Alcotest.(check bool) (base ^ ": the same elements") true (Rtval.equal expected got);
       Alcotest.(check bool) (base ^ ": the same kind") true
         (Tensor.is_int (Rtval.as_tensor expected) = Tensor.is_int (Rtval.as_tensor got)))
    cases;
  List.iter
    (fun (base, args) ->
       match (Prims.find base).impl args with
       | _ -> Alcotest.failf "%s accepted bad operands" base
       | exception Errors.Runtime_error (Errors.Invalid_runtime_argument _) -> ())
    [ ("array_take", [| ints [| 1; 2 |]; i 3 |]);
      ("array_take", [| reals [| 1.5 |]; i (-1) |]);
      ("array_join", [| ints [| 1 |]; reals [| 2.5 |] |]) ]

let tests =
  [ Alcotest.test_case "boxing roundtrip" `Quick test_boxing_roundtrip;
    Alcotest.test_case "unboxing shapes" `Quick test_unboxing_shapes;
    Alcotest.test_case "accessor mismatches" `Quick test_accessor_mismatches;
    Alcotest.test_case "primitive dispatch" `Quick test_prims_dispatch;
    Alcotest.test_case "scalar forms match their boxed rows" `Quick test_scalar_forms_match_impl;
    Alcotest.test_case "checked arithmetic edges" `Quick test_checked_arithmetic_edges;
    Alcotest.test_case "checked multiply agrees with the division test" `Quick
      test_checked_mul_table;
    Alcotest.test_case "Take, Append and Join copy by blit" `Quick test_array_blit_rows;
    Alcotest.test_case "PRNG determinism" `Quick test_rand_determinism;
    Alcotest.test_case "kernel hook" `Quick test_hooks_default;
    Alcotest.test_case "Real64 array ops box no element" `Quick test_real_array_ops_unboxed;
    QCheck_alcotest.to_alcotest prop_checked_matches_int ]
