(* The type system (S14) and inference (S15): TypeSpecifier parsing,
   unification with class qualifiers, and whole-pipeline inference results. *)

open Wolf_wexpr
open Wolf_compiler

let parse = Parser.parse

let spec s = Types.parse_spec (parse s)

let test_atomic_specs () =
  let check name src expected =
    Alcotest.(check string) name expected (Types.to_string (spec src).Types.body)
  in
  check "machine integer alias" {|"MachineInteger"|} "\"Integer64\"";
  check "real alias" {|"Real"|} "\"Real64\"";
  check "boolean" {|"Boolean"|} "\"Boolean\"";
  check "string" {|"String"|} "\"String\"";
  check "expression" {|"Expression"|} "\"Expression\"";
  check "packed array" {|"PackedArray"["Real64", 2]|} "\"PackedArray\"[\"Real64\", 2]";
  check "tensor alias" {|"Tensor"["Integer64", 1]|} "\"PackedArray\"[\"Integer64\", 1]";
  check "function" {|{"Integer64", "Integer64"} -> "Real64"|}
    "{\"Integer64\", \"Integer64\"} -> \"Real64\""

let test_polymorphic_specs () =
  let s = spec {|TypeForAll[{"a"}, {"a"} -> "Real64"]|} in
  Alcotest.(check int) "one quantified var" 1 (List.length s.Types.vars);
  let s = spec {|TypeForAll[{"a"}, {Element["a", "Ordered"]}, {"a", "a"} -> "a"]|} in
  (match s.Types.vars with
   | [ (_, [ "Ordered" ]) ] -> ()
   | _ -> Alcotest.fail "qualifier not recorded");
  (* instantiation produces fresh variables each time *)
  let i1 = Types.instantiate s and i2 = Types.instantiate s in
  Alcotest.(check bool) "instances independent" false (Types.equal i1 i2)

let test_bad_specs () =
  List.iter
    (fun src ->
       match spec src with
       | exception Wolf_base.Errors.Compile_error _ -> ()
       | s -> Alcotest.failf "%s should be rejected, parsed %s" src
                (Types.to_string s.Types.body))
    [ "Typed[3]"; {|TypeForAll[{1}, "Integer64"]|} ]

let test_unify_basic () =
  let ok a b = Alcotest.(check bool) (a ^ " ~ " ^ b) true
      (Result.is_ok (Unify.unify (spec a).Types.body (spec b).Types.body))
  in
  let no a b = Alcotest.(check bool) (a ^ " !~ " ^ b) true
      (Result.is_error (Unify.unify (spec a).Types.body (spec b).Types.body))
  in
  ok {|"Integer64"|} {|"MachineInteger"|};
  no {|"Integer64"|} {|"Real64"|};
  no {|"PackedArray"["Real64", 1]|} {|"PackedArray"["Real64", 2]|};
  ok {|"PackedArray"["Real64", 2]|} {|"PackedArray"["Real64", 2]|};
  no {|{"Integer64"} -> "Integer64"|} {|{"Integer64", "Integer64"} -> "Integer64"|}

let test_unify_var_binding () =
  let v = Types.fresh_var () in
  Alcotest.(check bool) "var binds" true (Result.is_ok (Unify.unify v Types.int64));
  Alcotest.(check bool) "binding visible" true (Types.equal (Types.repr v) Types.int64);
  Alcotest.(check bool) "rebinding same ok" true (Result.is_ok (Unify.unify v Types.int64));
  Alcotest.(check bool) "conflicting fails" true (Result.is_error (Unify.unify v Types.real64))

let test_class_qualifiers () =
  Type_class.install_builtin ();
  let v = Types.fresh_var ~classes:[ "Ordered" ] () in
  Alcotest.(check bool) "ordered accepts Integer64" true
    (Result.is_ok (Unify.unify v Types.int64));
  let w = Types.fresh_var ~classes:[ "Ordered" ] () in
  Alcotest.(check bool) "ordered rejects Expression" true
    (Result.is_error (Unify.unify w Types.expression));
  let u = Types.fresh_var ~classes:[ "Integral" ] () in
  Alcotest.(check bool) "integral rejects Real64" true
    (Result.is_error (Unify.unify u Types.real64))

let test_speculation_rolls_back () =
  let v = Types.fresh_var () in
  ignore
    (Unify.speculate (fun () ->
         ignore (Unify.unify v Types.int64);
         None));
  Alcotest.(check bool) "binding rolled back" false (Types.is_ground v);
  ignore
    (Unify.speculate (fun () ->
         ignore (Unify.unify v Types.real64);
         Some ()));
  Alcotest.(check bool) "committed on Some" true (Types.equal (Types.repr v) Types.real64)

(* a -> b -> c: a [repr a] inside a speculation that binds c and is rolled
   back must not leave a linked to the rejected type *)
let test_speculation_path_compression () =
  let a = Types.fresh_var () and b = Types.fresh_var () and c = Types.fresh_var () in
  ignore (Unify.unify a b);
  ignore (Unify.unify b c);
  ignore
    (Unify.speculate (fun () ->
         ignore (Unify.unify c Types.int64);
         ignore (Types.repr a);
         None));
  Alcotest.(check bool) "c unbound again" false (Types.is_ground c);
  Alcotest.(check bool) "a unbound again" false (Types.is_ground a);
  Alcotest.(check bool) "a still c" true (Types.repr a == Types.repr c)

(* redeclaring an alpha-equivalent polymorphic scheme replaces the overload *)
let test_redeclare_polymorphic () =
  let env = Stdlib_decls.env () in
  let before = List.length (Type_env.lookup env "Min") in
  (* stdlib's Integer64 row, the polymorphic form and the container form,
     then the builtin Integer64 and Real64 rows *)
  Alcotest.(check int) "stdlib Min overloads" 5 before;
  Type_env.declare_wolfram env "Min"
    ~spec:(parse {|TypeForAll[{"a"}, {Element["a", "Ordered"]}, {"a", "a"} -> "a"]|})
    ~body:(parse "Function[{e1, e2}, If[e1 < e2, e1, e2]]");
  Alcotest.(check int) "replaced, not appended" before (List.length (Type_env.lookup env "Min"));
  (* a different qualifier is a different scheme *)
  Type_env.declare_wolfram env "Min"
    ~spec:(parse {|TypeForAll[{"a"}, {Element["a", "Number"]}, {"a", "a"} -> "a"]|})
    ~body:(parse "Function[{e1, e2}, If[e1 < e2, e1, e2]]");
  Alcotest.(check int) "other qualifier appended" (before + 1) (List.length (Type_env.lookup env "Min"))

(* A message names its type variables by first appearance, whatever ids the
   process drew before. *)
let test_message_type_variables () =
  let a = Types.fresh_var () and b = Types.fresh_var () in
  Alcotest.(check (list string)) "numbered across the list" [ "{α1} -> α2"; "α1" ]
    (Types.to_strings [ Types.fn [ b ] a; b ]);
  match Unify.unify Types.int64 (Types.fn [ a ] b) with
  | Ok () -> Alcotest.fail "Integer64 unified with a function type"
  | Error m -> Alcotest.(check string) "unify error" {|cannot unify "Integer64" with {α1} -> α2|} m

let test_mangle () =
  Alcotest.(check string) "scalar" "I64" (Types.mangle Types.int64);
  Alcotest.(check string) "array" "PA_R64_2" (Types.mangle (Types.packed Types.real64 2));
  Alcotest.(check string) "function" "FI64I64_B"
    (Types.mangle (Types.fn [ Types.int64; Types.int64 ] Types.boolean))

(* ---------------- whole-pipeline inference ---------------- *)

let infer_types src =
  let c = Pipeline.compile ~name:"t" (parse src) in
  let main = Wir.main c.Pipeline.program in
  ( Array.to_list
      (Array.map
         (fun (v : Wir.var) -> Types.to_string (Option.get v.Wir.vty))
         main.Wir.fparams),
    Types.to_string (Option.get main.Wir.ret_ty) )

let test_inference_results () =
  let check name src expected_ret =
    let _, ret = infer_types src in
    Alcotest.(check string) name expected_ret ret
  in
  check "int arith" {|Function[{Typed[n, "MachineInteger"]}, n + 1]|} "\"Integer64\"";
  check "promotion to real" {|Function[{Typed[n, "MachineInteger"]}, n + 0.5]|} "\"Real64\"";
  check "comparison" {|Function[{Typed[n, "MachineInteger"]}, n < 3]|} "\"Boolean\"";
  check "real function" {|Function[{Typed[x, "Real64"]}, Sin[x]]|} "\"Real64\"";
  check "int sin promotes" {|Function[{Typed[n, "MachineInteger"]}, Sin[n]]|} "\"Real64\"";
  check "string length" {|Function[{Typed[s, "String"]}, StringLength[s]]|} "\"Integer64\"";
  check "array element"
    {|Function[{Typed[v, "PackedArray"["Real64", 1]]}, v[[1]]]|} "\"Real64\"";
  check "array result"
    {|Function[{Typed[v, "PackedArray"["Integer64", 1]]}, Reverse[v]]|}
    "\"PackedArray\"[\"Integer64\", 1]";
  check "local inferred through loop"
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{s = 0.0, i = 1}, While[i <= n, s = s + 1.5; i = i + 1]; s]]|}
    "\"Real64\"";
  check "if joins branches" {|Function[{Typed[b, "Boolean"]}, If[b, 1, 2]]|}
    "\"Integer64\""

let test_inference_errors () =
  let fails name src =
    match Pipeline.compile ~name:"t" (parse src) with
    | exception Wolf_base.Errors.Compile_error _ -> ()
    | _ -> Alcotest.failf "%s should fail to type" name
  in
  fails "string plus int" {|Function[{Typed[s, "String"]}, s + 1]|};
  fails "branch type mismatch" {|Function[{Typed[b, "Boolean"]}, If[b, 1, "x"]]|};
  fails "condition not boolean" {|Function[{Typed[n, "MachineInteger"]}, If[n, 1, 2]]|};
  fails "unknown function" {|Function[{Typed[n, "MachineInteger"]}, mystery[n]]|};
  fails "unannotated parameter polymorphic at top level"
    {|Function[{n}, n]|}

let test_overload_choice () =
  (* Plus picks the checked integer primitive for ints and the float one for
     reals; verify via the resolved names in the printed TWIR *)
  let c = Pipeline.compile ~name:"t" (parse {|Function[{Typed[n, "MachineInteger"]}, n + 1]|}) in
  let text = Wir_print.program_to_string c.Pipeline.program in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "checked int plus" true
    (contains text "checked_binary_plus_I64_I64")

(* The builtin and stdlib declarations are built once per process; each
   call returns tables of its own.  Redeclaring an identical scheme replaces
   it in place, keeping the overload order, and no other copy sees it. *)
let test_shared_env_isolation () =
  let impls env name =
    List.map
      (fun d ->
         match d.Type_env.impl with
         | Type_env.Prim s -> s
         | Type_env.Wolfram e -> Expr.to_string e
         | Type_env.External s -> "external " ^ s)
      (Type_env.lookup env name)
  in
  let env = Type_env.builtin () in
  let before = impls env "Plus" in
  Type_env.declare env "Plus" (Types.mono (Types.fn [ Types.int64; Types.int64 ] Types.int64))
    (Type_env.Prim "my_plus");
  Type_env.declare env "MyFn" (Types.mono (Types.fn [ Types.int64 ] Types.int64))
    (Type_env.Prim "my_fn");
  Alcotest.(check (list string)) "replaced in place" ("my_plus" :: List.tl before)
    (impls env "Plus");
  List.iter
    (fun (what, other) ->
       Alcotest.(check (list string)) (what ^ ": Plus") before (impls other "Plus");
       Alcotest.(check (list string)) (what ^ ": MyFn") [] (impls other "MyFn"))
    [ ("second builtin", Type_env.builtin ()); ("stdlib", Stdlib_decls.env ()) ];
  let std = Stdlib_decls.env () in
  let sign_before = impls std "Sign" in
  Type_env.declare_wolfram std "Sign"
    ~spec:(parse {|TypeSpecifier[{"Integer64"} -> "Integer64"]|})
    ~body:(parse "Function[{x}, 0]");
  Alcotest.(check (list string)) "stdlib Sign: replaced in place"
    (Expr.to_string (parse "Function[{x}, 0]") :: List.tl sign_before)
    (impls std "Sign");
  Alcotest.(check (list string)) "second stdlib: Sign unchanged" sign_before
    (impls (Stdlib_decls.env ()) "Sign")

let tests =
  [ Alcotest.test_case "atomic TypeSpecifiers" `Quick test_atomic_specs;
    Alcotest.test_case "polymorphic TypeSpecifiers" `Quick test_polymorphic_specs;
    Alcotest.test_case "malformed specs rejected" `Quick test_bad_specs;
    Alcotest.test_case "unification" `Quick test_unify_basic;
    Alcotest.test_case "variable binding" `Quick test_unify_var_binding;
    Alcotest.test_case "type-class qualifiers" `Quick test_class_qualifiers;
    Alcotest.test_case "speculation rollback" `Quick test_speculation_rolls_back;
    Alcotest.test_case "no path compression while speculating" `Quick
      test_speculation_path_compression;
    Alcotest.test_case "redeclared polymorphic scheme replaces" `Quick
      test_redeclare_polymorphic;
    Alcotest.test_case "shared environments are isolated" `Quick test_shared_env_isolation;
    Alcotest.test_case "type variables in a message" `Quick test_message_type_variables;
    Alcotest.test_case "mangling" `Quick test_mangle;
    Alcotest.test_case "inference results" `Quick test_inference_results;
    Alcotest.test_case "inference errors" `Quick test_inference_errors;
    Alcotest.test_case "overload resolution" `Quick test_overload_choice ]
