(* The interpreter substrate (S7): evaluation semantics the compiler must
   integrate with — infinite evaluation, scoping, attributes, mutability,
   numeric promotion, aborts, and the builtin library. *)

open Wolf_wexpr
module K = Wolf_kernel

let run src =
  K.Session.init ();
  Form.input_form (K.Session.run src)

let check name expected src = Alcotest.(check string) name expected (run src)

(* every case is (description, source, expected InputForm) *)
let eval_cases group cases =
  Alcotest.test_case group `Quick (fun () ->
      K.Session.reset ();
      List.iter (fun (name, src, expected) -> check name expected src) cases)

let arithmetic =
  eval_cases "arithmetic"
    [ ("add", "1 + 2", "3");
      ("mixed promotes", "1 + 2.5", "3.5");
      ("nary", "1 + 2 + 3 + 4", "10");
      ("times", "6*7", "42");
      ("machine overflow promotes", "2^62 + 2^62", "9223372036854775808");
      ("big times", "2^100", "1267650600228229401496703205376");
      ("negative power", "2^-1", "0.5");
      ("exact division", "10/2", "5");
      ("inexact division becomes real", "7/2", "3.5");
      ("subtract", "10 - 3 - 4", "3");
      ("unary minus", "-(3 + 4)", "-7");
      ("mod sign follows divisor", "Mod[-7, 3]", "2");
      ("quotient floors", "Quotient[-7, 2]", "-4");
      ("quotient of the minimum by -1 promotes", "Quotient[-4611686018427387903 - 1, -1]",
       "4611686018427387904");
      ("mod of a big integer", "Mod[2^70 + 1, 7]", "3");
      ("mod of a negative big integer", "Mod[-2^70 - 1, 7]", "4");
      ("mod of a big integer by a negative divisor", "Mod[2^70 + 1, -7]", "-4");
      ("mod by a big divisor", "Mod[-7, 2^70]", "1180591620717411303417");
      ("mod of a big integer that divides", "Mod[2^70, 2^35]", "0");
      ("quotient of a big integer fits a machine integer", "Quotient[2^70, 1024]",
       "1152921504606846976");
      ("quotient of a negative big integer floors", "Quotient[-2^70 - 1, 7]",
       "-168655945816773043347");
      ("quotient of a big integer by a negative divisor floors", "Quotient[2^70 + 1, -7]",
       "-168655945816773043347");
      ("quotient by a big divisor floors", "Quotient[-7, 2^70]", "-1");
      ("mod of a big integer by zero stays", "Mod[2^70, 0]", "Mod[1180591620717411303424, 0]");
      ("a list holding NaN reaches its fixpoint",
       "Module[{m = 3.625}, Do[m = m*m, {i, 30}]; Length[{m - m, 1}] ]", "2");
      ("NaN is the same as itself",
       "Module[{m = 3.625}, Do[m = m*m, {i, 30}]; SameQ[m - m, m - m] ]", "True");
      ("Sqrt of NaN evaluates", "Module[{m = 3.625}, Do[m = m*m, {i, 30}]; Sqrt[Abs[m - m] ] ]",
       "nan");
      ("abs", "Abs[-9]", "9");
      ("abs real", "Abs[-2.5]", "2.5");
      ("min flattens lists", "Min[{3, 1, 2}]", "1");
      ("max", "Max[5, 2, 9]", "9");
      ("floor", "Floor[2.7]", "2");
      ("ceiling", "Ceiling[2.1]", "3");
      ("round", "Round[2.5]", "2");
      ("sqrt perfect", "Sqrt[49]", "7");
      ("sqrt real", "Sqrt[2.0] > 1.41 && Sqrt[2.0] < 1.42", "True");
      ("bitand", "BitAnd[12, 10]", "8");
      ("bitxor", "BitXor[12, 10]", "6");
      ("shifts", "BitShiftLeft[1, 10]", "1024");
      ("boole", "Boole[3 > 2]", "1");
      ("evenq", "EvenQ[4]", "True");
      ("oddq big", "OddQ[2^100 + 1]", "True") ]

let comparisons =
  eval_cases "comparisons and logic"
    [ ("less", "1 < 2", "True");
      ("chain true", "1 < 2 < 3", "True");
      ("chain false", "1 < 3 < 2", "False");
      ("mixed int real", "1 < 1.5", "True");
      ("equal strings", "\"a\" == \"a\"", "True");
      ("unequal", "3 != 4", "True");
      ("symbolic stays", "x1 < y1", "x1 < y1");
      ("and shortcircuit", "False && (1/0 == 1)", "False");
      ("or shortcircuit", "True || (1/0 == 1)", "True");
      ("not", "!True", "False");
      ("sameq structural", "f[x1] === f[x1]", "True");
      ("sameq int real differ", "2 === 2.0", "False") ]

let infinite_evaluation =
  eval_cases "infinite evaluation"
    [ ("chained ownvalues", "y2 = x2; x2 = 1; y2", "1");
      ("fixed point reached", "z2 = z2; z2", "z2");
      ("deep chain", "a3 = b3; b3 = c3; c3 = 42; a3", "42") ]

let test_infinite_loop_hits_limit () =
  K.Session.reset ();
  match K.Session.run "xx = xx + 1; xx" with
  | exception Wolf_base.Errors.Eval_error _ -> ()
  | v -> Alcotest.failf "expected recursion limit, got %s" (Form.input_form v)

let scoping =
  eval_cases "scoping"
    [ ("module basic", "Module[{a = 1, b = 2}, a + b]", "3");
      ("module shadows nested", "Module[{a = 1, b = 1}, a + b + Module[{a = 3}, a]]", "5");
      ("module isolates globals", "g5 = 10; Module[{g5 = 1}, g5]; g5", "10");
      ("block dynamic scope", "v5 = 1; f5[] := v5; Block[{v5 = 99}, f5[]]", "99");
      ("block restores", "w5 = 1; Block[{w5 = 2}, Null]; w5", "1");
      ("with substitutes", "With[{c5 = 4}, c5*c5]", "16");
      ("module sequential inits", "Module[{p = 3, q = 0}, q = p + 1; {p, q}]", "{3, 4}") ]

let functions =
  eval_cases "functions and rewriting"
    [ ("pure slot", "(#^2 &)[5]", "25");
      ("pure named", "Function[{u}, u + 1][41]", "42");
      ("two slots", "(#1 + #2 &)[3, 4]", "7");
      ("nested pure isolated", "(# + (#&)[10] &)[1]", "11");
      ("downvalue", "sq6[n_] := n*n; sq6[9]", "81");
      ("literal rule first", "f6[0] = 99; f6[n_] := n; {f6[0], f6[5]}", "{99, 5}");
      ("pattern head restriction", "g6[n_Integer] := 1; g6[n_Real] := 2; {g6[1], g6[1.0]}",
       "{1, 2}");
      ("recursion",
       "fib6[n_] := If[n < 2, n, fib6[n-1] + fib6[n-2]]; fib6[15]", "610");
      ("redefinition replaces", "h6[x_] := 1; h6[x_] := 2; h6[0]", "2");
      ("hold prevents evaluation", "Hold[1 + 1]", "Hold[1 + 1]");
      ("evaluate pierces nothing here", "Head[Hold[1 + 1]]", "Hold") ]

let lists =
  eval_cases "lists"
    [ ("range", "Range[5]", "{1, 2, 3, 4, 5}");
      ("range bounds", "Range[2, 10, 3]", "{2, 5, 8}");
      ("table", "Table[i*i, {i, 4}]", "{1, 4, 9, 16}");
      ("table matrix", "Table[i + j, {i, 2}, {j, 2}]", "{{2, 3}, {3, 4}}");
      ("length", "Length[{a, b, c}]", "3");
      ("first last", "{First[{1, 2, 3}], Last[{1, 2, 3}]}", "{1, 3}");
      ("rest most", "{Rest[{1, 2, 3}], Most[{1, 2, 3}]}", "{{2, 3}, {1, 2}}");
      ("append", "Append[{1, 2}, 3]", "{1, 2, 3}");
      ("join", "Join[{1}, {2, 3}]", "{1, 2, 3}");
      ("reverse", "Reverse[Range[4]]", "{4, 3, 2, 1}");
      ("sort", "Sort[{3, 1, 2}]", "{1, 2, 3}");
      ("sort custom", "Sort[{1, 2, 3}, #1 > #2 &]", "{3, 2, 1}");
      ("total", "Total[Range[100]]", "5050");
      ("total matrix", "Total[{{1, 2}, {3, 4}}]", "{4, 6}");
      ("dot", "{1, 2, 3} . {4, 5, 6}", "32");
      ("part", "{10, 20, 30}[[2]]", "20");
      ("part negative", "{10, 20, 30}[[-1]]", "30");
      ("part nested", "{{1, 2}, {3, 4}}[[2, 1]]", "3");
      ("part head", "f[a, b][[0]]", "f");
      ("constant array", "ConstantArray[7, 3]", "{7, 7, 7}") ]

let higher_order =
  eval_cases "higher-order"
    [ ("map", "Map[#*10 &, {1, 2, 3}]", "{10, 20, 30}");
      ("map preserves head", "Map[f, g[1, 2]]", "g[f[1], f[2]]");
      ("apply", "Apply[Plus, {1, 2, 3}]", "6");
      ("fold", "Fold[Plus, 0, Range[10]]", "55");
      ("foldlist", "FoldList[Plus, 0, {1, 2, 3}]", "{0, 1, 3, 6}");
      ("nest", "Nest[#*2 &, 1, 10]", "1024");
      ("nestlist", "NestList[#+1 &, 0, 3]", "{0, 1, 2, 3}");
      ("nestwhile", "NestWhile[#*2 &, 1, # < 100 &]", "128");
      ("fixedpoint", "FixedPoint[Floor[#/2] &, 100]", "0");
      ("select", "Select[Range[10], EvenQ]", "{2, 4, 6, 8, 10}");
      ("count", "Count[{1, 2.0, 3, x}, _Integer]", "2");
      ("alltrue", "AllTrue[{2, 4}, EvenQ]", "True");
      ("anytrue", "AnyTrue[{1, 3}, EvenQ]", "False");
      ("mapindexed", "MapIndexed[f, {a, b}]", "{f[a, {1}], f[b, {2}]}") ]

let control_flow =
  eval_cases "control flow"
    [ ("if true", "If[1 < 2, \"yes\", \"no\"]", "\"yes\"");
      ("if false branch missing", "If[False, 5]", "Null");
      ("if symbolic stays", "If[c7, 1, 2]", "If[c7, 1, 2]");
      ("while", "i7 = 0; While[i7 < 5, i7++]; i7", "5");
      ("do", "s7 = 0; Do[s7 += i, {i, 10}]; s7", "55");
      ("for", "For[j7 = 0; t7 = 1, j7 < 4, j7++, t7 *= 2]; t7", "16");
      ("which", "Which[False, 1, True, 2]", "2");
      ("switch", "Switch[7, _Integer, \"int\", _, \"other\"]", "\"int\"");
      ("break", "k7 = 0; While[True, k7++; If[k7 > 2, Break[]]]; k7", "3");
      ("continue", "c8 = 0; n8 = 0; While[n8 < 5, n8++; If[EvenQ[n8], Continue[]]; c8++]; c8",
       "3");
      ("compound returns last", "1; 2; 3", "3");
      ("increment returns old", "m8 = 5; {m8++, m8}", "{5, 6}");
      ("preincrement returns new", "m9 = 5; {PreIncrement[m9], m9}", "{6, 6}") ]

let mutability =
  eval_cases "mutability semantics (F5)"
    [ ("list copy on part set", "a9 = {1, 2, 3}; b9 = a9; a9[[3]] = -20; {a9, b9}",
       "{{1, 2, -20}, {1, 2, 3}}");
      ("tensor copy on write", "t9 = Range[3]; u9 = t9; t9[[1]] = 9; {t9[[1]], u9[[1]]}",
       "{9, 1}");
      ("string replace copies",
       {|({#, StringReplace[#, "foo" -> "grok"]} &)["foobar"]|},
       "{\"foobar\", \"grokbar\"}");
      ("nested part set", "mx = {{1, 2}, {3, 4}}; mx[[2, 1]] = 9; mx", "{{1, 2}, {9, 4}}") ]

let strings =
  eval_cases "strings"
    [ ("length", "StringLength[\"hello\"]", "5");
      ("join", "\"foo\" <> \"bar\" <> \"baz\"", "\"foobarbaz\"");
      ("take drop", "{StringTake[\"abcdef\", 2], StringDrop[\"abcdef\", 2]}",
       "{\"ab\", \"cdef\"}");
      ("reverse", "StringReverse[\"abc\"]", "\"cba\"");
      ("characters", "Characters[\"ab\"]", "{\"a\", \"b\"}");
      ("char codes", "ToCharacterCode[\"AB\"]", "{65, 66}");
      ("from codes", "FromCharacterCode[{104, 105}]", "\"hi\"");
      ("tostring", "ToString[1 + 2]", "\"3\"") ]

let symbolic =
  eval_cases "symbolic computation (F8)"
    [ ("inert residue", "Sin[q9] + q9", "q9 + Sin[q9]");
      ("replace", "Sin[x9] /. x9 -> 0.0", "0.0");
      ("d sum", "D[x8 + Sin[x8], x8] /. x8 -> 0.0", "2.0");
      ("d product rule", "D[x7*x7, x7] /. x7 -> 3", "6");
      ("d chain rule", "D[Sin[2*x6], x6] /. x6 -> 0.0", "2.0");
      ("head", "Head[Sin[zz]]", "Sin");
      ("atomq", "{AtomQ[5], AtomQ[f[5]]}", "{True, False}");
      ("freeq", "{FreeQ[f[ab], cd], FreeQ[f[ab], ab]}", "{True, False}");
      ("matchq", "MatchQ[{1, 2}, {_Integer, _Integer}]", "True") ]

let random =
  eval_cases "random (deterministic stream)"
    [ ("seeded reproducible",
       "SeedRandom[7]; r1 = RandomReal[]; SeedRandom[7]; r1 == RandomReal[]", "True");
      ("range respected",
       "SeedRandom[1]; AllTrue[Table[RandomReal[{2, 3}], {20}], 2 <= # <= 3 &]", "True");
      ("integer bounds",
       "SeedRandom[2]; AllTrue[Table[RandomInteger[{5, 9}], {20}], 5 <= # <= 9 &]",
       "True");
      ("matrix dims", "SeedRandom[3]; Length[RandomReal[1, {4, 2}]]", "4");
      ("an empty range stays unevaluated", "RandomInteger[-1]", "RandomInteger[-1]");
      ("an empty pair range stays unevaluated", "RandomInteger[{3, 1}, 2]",
       "RandomInteger[{3, 1}, 2]") ]

let test_abort_interpreter () =
  K.Session.reset ();
  Wolf_base.Abort_signal.clear ();
  Wolf_base.Abort_signal.abort_after 100;
  (match K.Session.eval_protected (Parser.parse "i = 0; While[True, If[i > 3, i--, i++]]") with
   | Error Wolf_base.Abort_signal.Aborted -> ()
   | Error e -> Alcotest.failf "unexpected error %s" (Printexc.to_string e)
   | Ok v -> Alcotest.failf "infinite loop returned %s" (Form.input_form v));
  (* session state survives, possibly mutated by the aborted computation *)
  match K.Session.run "i" with
  | Expr.Int _ -> ()
  | v -> Alcotest.failf "session variable lost: %s" (Form.input_form v)

let test_findroot () =
  K.Session.reset ();
  Wolf_runtime.Hooks.auto_compile_enabled := false;
  let root =
    match K.Session.run "x0 /. FindRoot[Sin[x0] + E^x0, {x0, 0}]" with
    | Expr.Real r -> r
    | e -> Alcotest.failf "no numeric root: %s" (Form.input_form e)
  in
  Wolf_runtime.Hooks.auto_compile_enabled := true;
  (* the paper's example: root near -0.588533 *)
  Alcotest.(check (float 1e-5)) "paper's root" (-0.588533) root

let test_protected () =
  K.Session.reset ();
  match K.Session.run "Plus = 5" with
  | exception Wolf_base.Errors.Eval_error _ -> ()
  | v -> Alcotest.failf "assignment to Plus succeeded: %s" (Form.input_form v)

let tests =
  [ arithmetic; comparisons; infinite_evaluation;
    Alcotest.test_case "iteration limit" `Quick test_infinite_loop_hits_limit;
    scoping; functions; lists; higher_order; control_flow; mutability; strings;
    symbolic; random;
    Alcotest.test_case "abortable evaluation" `Quick test_abort_interpreter;
    Alcotest.test_case "FindRoot" `Quick test_findroot;
    Alcotest.test_case "protected symbols" `Quick test_protected ]
