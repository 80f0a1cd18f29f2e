(* The hygienic macro system (S9) and binding analysis (S10). *)

open Wolf_wexpr
open Wolf_compiler

let parse = Parser.parse
let expr = Alcotest.testable (Fmt.of_to_string Expr.to_string) Expr.equal

let expand src = Macro.expand (Macro.builtin_env ()) (parse src)

let test_and_desugaring () =
  (* the paper's worked example (§4.2) *)
  Alcotest.check expr "unary" (parse "x") (expand "And[x]");
  Alcotest.check expr "false shortcut" (parse "False") (expand "And[False, y]");
  Alcotest.check expr "true skipped" (parse "x") (expand "And[True, x]");
  Alcotest.check expr "binary to If" (parse "If[x, y, False]") (expand "And[x, y]");
  Alcotest.check expr "nary nests"
    (parse "If[If[a, b, False], c, False]")
    (expand "a && b && c")

let test_or_desugaring () =
  Alcotest.check expr "binary" (parse "If[x, True, y]") (expand "Or[x, y]");
  Alcotest.check expr "true shortcut" (parse "True") (expand "Or[True, z]")

let test_nary_arith () =
  Alcotest.check expr "plus" (parse "Plus[Plus[a, b], c]") (expand "a + b + c");
  Alcotest.check expr "times" (parse "Times[Times[a, b], c]") (expand "a*b*c")

let test_updates () =
  Alcotest.check expr "AddTo" (parse "x = Plus[x, 5]") (expand "x += 5");
  Alcotest.check expr "Increment keeps old value"
    (parse "CompoundExpression[Set[x, Plus[x, 1]], Subtract[x, 1]]")
    (expand "x++")

let test_safe_folds () =
  Alcotest.check expr "If[True]" (parse "a") (expand "If[True, a, b]");
  Alcotest.check expr "If[False]" (parse "b") (expand "If[False, a, b]");
  Alcotest.check expr "Power 1" (parse "x") (expand "x^1")

let test_loop_desugaring () =
  (* Do and For lower to While before the IR sees them *)
  let has_while e =
    let found = ref false in
    let rec go = function
      | Expr.Normal (Expr.Sym h, args) ->
        if Symbol.name h = "While" then found := true;
        Array.iter go args
      | _ -> ()
    in
    go e;
    !found
  in
  Alcotest.(check bool) "Do becomes While" true (has_while (expand "Do[f[i], {i, 1, 10}]"));
  Alcotest.(check bool) "For becomes While" true
    (has_while (expand "For[i = 0, i < 4, i++, f[i]]"))

let test_hygiene () =
  (* the Do macro introduces a loop counter; a user variable with the same
     textual name must not be captured *)
  let expanded = expand "Do[total = total + i$do, {3}]" in
  let user = Symbol.intern "i$do" in
  let rec binds_user = function
    | Expr.Normal (Expr.Sym m, [| Expr.Normal (_, inits); _ |])
      when Symbol.name m = "Module" ->
      Array.exists
        (function
          | Expr.Normal (_, [| Expr.Sym v; _ |]) -> Symbol.equal v user
          | Expr.Sym v -> Symbol.equal v user
          | _ -> false)
        inits
    | Expr.Normal (_, args) -> Array.exists binds_user args
    | _ -> false
  in
  Alcotest.(check bool) "macro counter renamed away from user symbol" false
    (binds_user expanded);
  (* and the body still references the user's symbol *)
  Alcotest.(check bool) "user symbol preserved" false
    (Pattern.free_of expanded user)

let test_user_macro () =
  (* §4.7: user-registered macros, optionally conditioned on options *)
  let env = Macro.create_env ~parent:(Macro.builtin_env ()) "user" in
  Macro.register env "Map"
    ~condition:(fun opts ->
        match List.assoc_opt "TargetSystem" opts with
        | Some (Expr.Str "CUDA") -> true
        | _ -> false)
    [ (parse "Map[f_, lst_]", parse "CUDAMap[f, lst]") ];
  Alcotest.check expr "condition off: unchanged"
    (parse "Map[f, lst]")
    (Macro.expand env ~options:[ ("TargetSystem", Expr.str "LLVM") ] (parse "Map[f, lst]"));
  Alcotest.check expr "condition on: rewritten"
    (parse "CUDAMap[f, lst]")
    (Macro.expand env ~options:[ ("TargetSystem", Expr.str "CUDA") ] (parse "Map[f, lst]"))

let test_nontermination_guard () =
  let env = Macro.create_env "loop" in
  Macro.register env "f" [ (parse "f[x_]", parse "f[f[x]]") ];
  match Macro.expand env (parse "f[1]") with
  | exception Wolf_base.Errors.Compile_error _ -> ()
  | e -> Alcotest.failf "diverging macro returned %s" (Expr.to_string e)

(* ---------------- binding analysis ---------------- *)

let analyze src = Binding.analyze_function (expand src)

let test_binding_flattening () =
  (* the paper's example: Module[{a=1,b=1}, a+b+Module[{a=3},a]] flattens
     with the inner a renamed *)
  let a = analyze "Function[{n}, Module[{a = 1, b = 1}, a + b + Module[{a = 3}, a]]]" in
  Alcotest.(check int) "three locals" 3 (List.length a.Binding.locals);
  let names = List.map Symbol.name a.Binding.locals in
  Alcotest.(check bool) "all renamed apart" true
    (List.length (List.sort_uniq compare names) = 3)

let test_binding_params () =
  let a = analyze {|Function[{Typed[x, "MachineInteger"], y}, x + y]|} in
  (match a.Binding.params with
   | [ p1; p2 ] ->
     Alcotest.(check bool) "first annotated" true (Option.is_some p1.Binding.pspec);
     Alcotest.(check bool) "second not" true (Option.is_none p2.Binding.pspec)
   | _ -> Alcotest.fail "two parameters expected")

let test_binding_slots () =
  let a = analyze "Function[#1 + #2]" in
  Alcotest.(check int) "slots become parameters" 2 (List.length a.Binding.params)

let test_escape_analysis () =
  let a =
    analyze "Function[{n}, Module[{k = n + 1}, Function[{x}, x + k]]]"
  in
  Alcotest.(check bool) "captured local marked escaped" true
    (List.exists (fun s -> String.length (Symbol.name s) >= 1) a.Binding.escaped
     && List.length a.Binding.escaped >= 1)

let test_with_substitutes () =
  let a = analyze "Function[{n}, With[{c = 4}, n + c]]" in
  Alcotest.(check int) "no residual locals" 0 (List.length a.Binding.locals)

(* The builtin rules are parsed once per process; each call returns tables
   of its own.  A rule registered on one copy is appended there (after the
   existing Power[x_, 1] rule) and seen by no other copy. *)
let test_shared_env_isolation () =
  let env = Macro.builtin_env () in
  Macro.register env "Power" [ (parse "Power[x_, 2]", parse "Times[x, x]") ];
  Alcotest.check expr "appended rule fires" (parse "Times[y, y]")
    (Macro.expand env (parse "Power[y, 2]"));
  Alcotest.check expr "earlier rule still first" (parse "y")
    (Macro.expand env (parse "Power[y, 1]"));
  List.iter
    (fun (what, other) ->
       Alcotest.check expr what (parse "Power[y, 2]")
         (Macro.expand other (parse "Power[y, 2]")))
    [ ("second builtin_env unaffected", Macro.builtin_env ());
      ("functional_env unaffected", Macro.functional_env ()) ];
  let fenv = Macro.functional_env () in
  Macro.register fenv "Nest" [ (parse "Nest[f_, x_, 0]", parse "x") ];
  Alcotest.check expr "functional copy: builtin rule reached" (parse "Times[a, b]")
    (Macro.expand fenv (parse "Times[a, b]"));
  Alcotest.(check bool) "second functional_env unaffected" false
    (Expr.equal (parse "x") (Macro.expand (Macro.functional_env ()) (parse "Nest[f, x, 0]")))

let tests =
  [ Alcotest.test_case "And desugaring (paper §4.2)" `Quick test_and_desugaring;
    Alcotest.test_case "shared environments are isolated" `Quick test_shared_env_isolation;
    Alcotest.test_case "Or desugaring" `Quick test_or_desugaring;
    Alcotest.test_case "n-ary arithmetic" `Quick test_nary_arith;
    Alcotest.test_case "update operators" `Quick test_updates;
    Alcotest.test_case "always-safe folds" `Quick test_safe_folds;
    Alcotest.test_case "loop desugaring" `Quick test_loop_desugaring;
    Alcotest.test_case "hygiene" `Quick test_hygiene;
    Alcotest.test_case "user macros with conditions" `Quick test_user_macro;
    Alcotest.test_case "non-termination guard" `Quick test_nontermination_guard;
    Alcotest.test_case "scope flattening" `Quick test_binding_flattening;
    Alcotest.test_case "typed parameters" `Quick test_binding_params;
    Alcotest.test_case "slot normalisation" `Quick test_binding_slots;
    Alcotest.test_case "escape analysis" `Quick test_escape_analysis;
    Alcotest.test_case "With substitutes" `Quick test_with_substitutes ]
