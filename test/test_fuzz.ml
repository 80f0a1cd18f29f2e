(* Fuzzing subsystem tests: replay the checked-in corpus differentially on
   the fast backends, exercise the regression reproducers on the JIT too,
   and check the shrinker's contract with qcheck. *)

open Wolf_fuzz

let corpus_dir = "corpus"

let entries = lazy (Driver.read_corpus_dir corpus_dir)

let failure_str f =
  Printf.sprintf "%s: expected %s, got %s" f.Oracle.fwhere f.Oracle.fexpected
    f.Oracle.fgot

let arms names = Result.get_ok (Oracle.arms_of_string names)

let check_clean ?arms ?levels entry =
  match Driver.check_entry ?arms ?levels entry with
  | [] -> ()
  | fs ->
    Alcotest.failf "%s (%s): %s" entry.Driver.ce_path entry.Driver.ce_note
      (String.concat "; " (List.map failure_str fs))

let test_corpus_present () =
  let n = List.length (Lazy.force entries) in
  Alcotest.(check bool)
    (Printf.sprintf "corpus has >= 10 programs (found %d)" n)
    true (n >= 10)

(* every corpus program, interpreter vs threaded O0/O1/O2 and WVM (where
   representable), plus abort injection *)
let test_corpus_replay () =
  List.iter check_clean (Lazy.force entries)

let regressions () =
  List.filter
    (fun e -> String.starts_with ~prefix:"regress" (Filename.basename e.Driver.ce_path))
    (Lazy.force entries)

(* the shrunk miscompilation reproducers additionally run on the JIT, which
   shells out to ocamlopt and is therefore kept off the full-corpus sweep *)
let test_regressions_on_jit () =
  List.iter (check_clean ~arms:(arms "jit") ~levels:[ 1; 2 ]) (regressions ())

(* the par arm is the only one that calls a single compiled function more
   than once, so it alone catches state leaking across calls (e.g. the
   pooled-constant mutation regression) *)
let test_regressions_on_par () =
  List.iter (check_clean ~arms:(arms "par") ~levels:[ 1; 2 ]) (regressions ())

(* the wolfc-build product: regression reproducers replayed end-to-end as
   standalone executables (emit_standalone + cc + argv); the oracle skips
   entries whose shapes the standalone driver cannot parse or print, and
   the whole arm self-skips without a C toolchain *)
let test_regressions_on_binary () =
  List.iter (check_clean ~arms:(arms "binary") ~levels:[ 0; 2 ]) (regressions ())

(* the [count] corpus programs whose file name starts with [prefix],
   replayed on every arm, each with its campaign setup (the serve arm's
   daemon) *)
let replay_on_every_arm ~prefix ~count what =
  let shapes =
    List.filter
      (fun e -> String.starts_with ~prefix (Filename.basename e.Driver.ce_path))
      (Lazy.force entries)
  in
  Alcotest.(check int) what count (List.length shapes);
  let teardowns = List.map (fun a -> a.Oracle.setup ignore) Oracle.arms in
  Fun.protect ~finally:(fun () -> List.iter (fun t -> t ()) teardowns) @@ fun () ->
  List.iter (check_clean ~arms:Oracle.arms) shapes

(* the aliasing shapes: the loop stores of all but the call-in-loop one (a
   pure call with a scalar result) must keep copy-on-write *)
let test_alias_regressions_on_every_arm () =
  replay_on_every_arm ~prefix:"regress-alias" ~count:5 "five alias shapes"

(* loop stores run in place although the array reaches a pure call (Take,
   Append, Total after the loop, Total in the loop before the store) *)
let test_pure_call_regressions_on_every_arm () =
  replay_on_every_arm ~prefix:"regress-inplace-pure-call" ~count:4 "four pure-call shapes"

(* Min and Max of two machine integers as rows: a strip-mined loop bound
   and scalar results *)
let test_min_row_regression_on_every_arm () =
  replay_on_every_arm ~prefix:"regress-min-row" ~count:1 "the Min-row shape"

(* a String argument compared with a literal, which standalone C compared
   by pointer *)
let test_string_equal_regression_on_every_arm () =
  replay_on_every_arm ~prefix:"regress-c-string" ~count:1 "the string-equal shape"

(* a result that keeps an unevaluated Module variable, which the serve arm
   compared by the daemon's numbering of it *)
let test_module_symbol_regression_on_every_arm () =
  replay_on_every_arm ~prefix:"regress-serve" ~count:1 "the Module-symbol shape"

(* a compiled a*b at the bounds of the checked multiply's fast path and
   of the machine range, on the threaded, jit, wvm and c arms, and
   Take/Append/Join on both element kinds at k = 0, k = Length and on empty
   operands, there and as built binaries (the c arm runs scalar results
   only), against the interpreter *)
let test_mul_and_blit_edges_on_arms () =
  let open Wolf_wexpr in
  let check ?(names = "threaded,jit,wvm,c") src args =
    match
      Oracle.check ~arms:(arms names) ~levels:[ 0; 1 ] (Parser.parse src) (Array.of_list args)
    with
    | [] -> ()
    | fs -> Alcotest.failf "%s: %s" src (String.concat "; " (List.map failure_str fs))
  in
  let t30 = 1 lsl 30 and t31 = 1 lsl 31 in
  let operands =
    [ 0; 1; -1; t30; -t30; t30 + 1; t30 - 1; -t30 + 1; -t30 - 1; t31; -t31; max_int; min_int ]
  in
  let mul = {|Function[{Typed[a, "MachineInteger"], Typed[b, "MachineInteger"]}, a*b]|} in
  List.iter
    (fun (a, b) -> check mul [ Expr.Int a; Expr.Int b ])
    ((List.map (fun a -> (a, a)) operands)
     @ [ (t30, -t30); (-t31, t31); (min_int, -1); (min_int, 1); (max_int, 1); (max_int, 2);
         (t30 - 1, -t30); (-t30, -t30) ]);
  let ints = Parser.parse "{4, 5, 6}" and reals = Parser.parse "{0.5, 1.5, 2.5}" in
  List.iter
    (fun (ty, v, x) ->
       let fn body =
         Printf.sprintf
           {|Function[{Typed[v, "PackedArray"["%s", 1]], Typed[k, "MachineInteger"]}, %s]|} ty body
       in
       List.iter
         (fun k ->
            List.iter
              (fun body -> check ~names:"threaded,jit,wvm,c,binary" (fn body) [ v; Expr.Int k ])
              [ "Take[v, k]"; "Append[Take[v, k], " ^ x ^ "]"; "Join[Take[v, k], v]";
                "Join[v, Take[v, k]]"; "Join[Take[v, k], Take[v, k]]" ])
         [ 0; 1; 3 ])
    [ ("Integer64", ints, "7"); ("Real64", reals, "7.5") ]

(* the range analysis's proofs and versioned nests: reads proved in range,
   checks that must stay, and both copies of a versioned Blur *)
let test_range_regressions_on_every_arm () =
  replay_on_every_arm ~prefix:"regress-range" ~count:5 "five range shapes"

(* ---- the arm table ----------------------------------------------------- *)

let names = List.map (fun a -> a.Oracle.name)
let all_names = String.concat "," (names Oracle.arms)

let test_arm_names_roundtrip () =
  List.iter
    (fun a ->
       Alcotest.(check (list string)) a.Oracle.name [ a.Oracle.name ]
         (names (arms a.Oracle.name)))
    Oracle.arms;
  Alcotest.(check (list string)) "the whole table" (names Oracle.arms)
    (names (arms all_names))

let test_unknown_arm_lists_all () =
  match Oracle.arms_of_string "threaded,nosuch" with
  | Ok _ -> Alcotest.fail "an unknown arm name parsed"
  | Error e ->
    Alcotest.(check bool) (e ^ " lists every arm") true
      (String.ends_with ~suffix:("(" ^ all_names ^ ")") e)

(* WVM applicability is derived from the program itself; it must exclude
   exactly the corpus files annotated as not WVM-representable *)
let test_wvm_predicate () =
  let wvm = List.find (fun a -> a.Oracle.name = "wvm") Oracle.arms in
  let annotated e =
    let ic = open_in e.Driver.ce_path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    List.exists (fun l -> String.trim l = "(* wvm: false *)") (String.split_on_char '\n' text)
  in
  let base es = List.map (fun e -> Filename.basename e.Driver.ce_path) es in
  let excluded =
    List.filter
      (fun e -> not (wvm.Oracle.applies (Wolf_wexpr.Parser.parse e.Driver.ce_source)))
      (Lazy.force entries)
  in
  Alcotest.(check (list string)) "excluded = annotated"
    (base (List.filter annotated (Lazy.force entries))) (base excluded);
  Alcotest.(check int) "four annotated files" 4 (List.length excluded)

(* the par arm's coverage counters read each compile's own pipeline, so a
   sharded campaign counts exactly what a sequential one does *)
let test_par_counts_jobs () =
  let run jobs =
    let r =
      Driver.run
        { Driver.default_config with
          Driver.seed = 42; count = 100; arms = arms "par"; levels = [ 2 ]; jobs }
    in
    Alcotest.(check int) "no disagreements" 0 r.Driver.disagreements;
    (r.Driver.par_programs, r.Driver.par_loops)
  in
  let seq = run 1 in
  Alcotest.(check bool) "the pass fired" true (snd seq > 0);
  Alcotest.(check (pair int int)) "jobs 4 counts = jobs 1 counts" seq (run 4)

(* ---- shrinker properties --------------------------------------------- *)

let gen_case seed =
  Gen.case ~config:{ Gen.max_size = 40; strings = true } (Rng.create seed)

let arb_seed = QCheck.int_range 0 100_000

(* a deterministic pseudo-arbitrary predicate over programs: roughly half of
   all generated cases "fail", with no structure the shrinker could exploit *)
let hash_fails c = Hashtbl.hash (Ast.to_source c.Ast.fn) land 1 = 0

let prop_failure_preserving =
  QCheck.Test.make ~count:300 ~name:"shrink preserves the failure predicate"
    arb_seed (fun seed ->
      let case = gen_case seed in
      QCheck.assume (hash_fails case);
      hash_fails (Shrink.shrink ~fails:hash_fails case))

let prop_non_growing =
  QCheck.Test.make ~count:300 ~name:"shrink never grows the measure"
    arb_seed (fun seed ->
      let case = gen_case seed in
      Shrink.measure (Shrink.shrink ~fails:hash_fails case)
      <= Shrink.measure case)

let prop_fixpoint =
  QCheck.Test.make ~count:100 ~name:"shrink is a fixpoint (idempotent)"
    arb_seed (fun seed ->
      let case = gen_case seed in
      let once = Shrink.shrink ~fails:hash_fails case in
      Shrink.measure (Shrink.shrink ~fails:hash_fails once)
      = Shrink.measure once)

let prop_trivial_predicate_minimises =
  QCheck.Test.make ~count:100
    ~name:"an always-true predicate shrinks to a near-empty program"
    arb_seed (fun seed ->
      let case = gen_case seed in
      let small = Shrink.shrink ~fails:(fun _ -> true) case in
      Ast.size small.Ast.fn <= 4)

(* QCheck once drew seed 4770, whose always-true shrink stopped at
   [With[{w1 = ConstantArray[9, 4]}, Module[{m1 = w1}, m1]]] (size 6): no
   candidate replaced a scope whose body is its own bound variable *)
let test_shrink_seed_4770 () =
  let small = Shrink.shrink ~fails:(fun _ -> true) (gen_case 4770) in
  Alcotest.(check bool)
    (Printf.sprintf "size %d <= 4: %s" (Ast.size small.Ast.fn)
       (Ast.to_source small.Ast.fn))
    true
    (Ast.size small.Ast.fn <= 4)

(* a failure that shows once and never again (a flake) still reports what
   the oracle saw, and says that the shrunk case passed *)
let test_flaky_failure_report () =
  let calls = ref 0 in
  let seen =
    { Oracle.fwhere = "abort/threaded/O0/k=1"; fexpected = "Aborted"; fgot = "42" }
  in
  let check _ = incr calls; if !calls = 1 then [ seen ] else [] in
  match Driver.investigate ~check 7 (gen_case 1) with
  | None -> Alcotest.fail "the first check failed, so the case is reported"
  | Some f ->
    Alcotest.(check int) "shrunk case passes" 0 (List.length f.Driver.shrunk_failures);
    let text = Driver.describe f in
    let has sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
      go 0
    in
    List.iter
      (fun sub -> Alcotest.(check bool) ("report has " ^ sub) true (has sub))
      [ "program 7"; "did not reproduce after shrinking"; "abort/threaded/O0/k=1";
        "expected Aborted"; "got      42" ]

(* every one-step candidate strictly decreases the measure when accepted:
   the shrinker's termination argument, probed via the greedy chain length *)
let prop_candidates_same_type =
  QCheck.Test.make ~count:100
    ~name:"candidates preserve the result type"
    arb_seed (fun seed ->
      let case = gen_case seed in
      List.for_all
        (fun c ->
           c.Ast.fn.Ast.ret = case.Ast.fn.Ast.ret
           && Ast.expr_ty c.Ast.fn.Ast.result = case.Ast.fn.Ast.ret)
        (Shrink.candidates case))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_failure_preserving;
      prop_non_growing;
      prop_fixpoint;
      prop_trivial_predicate_minimises;
      prop_candidates_same_type ]

let tests =
  [ Alcotest.test_case "corpus present" `Quick test_corpus_present;
    Alcotest.test_case "corpus replay (threaded+wvm, O0-O2, abort)" `Slow
      test_corpus_replay;
    Alcotest.test_case "range regressions on every arm" `Slow test_range_regressions_on_every_arm;
    Alcotest.test_case "regressions on jit" `Slow test_regressions_on_jit;
    Alcotest.test_case "regressions on par (repeated calls)" `Quick
      test_regressions_on_par;
    Alcotest.test_case "regressions as built binaries" `Slow
      test_regressions_on_binary;
    Alcotest.test_case "alias regressions on every arm" `Slow
      test_alias_regressions_on_every_arm;
    Alcotest.test_case "pure-call regressions on every arm" `Slow
      test_pure_call_regressions_on_every_arm;
    Alcotest.test_case "Min-row regression on every arm" `Slow
      test_min_row_regression_on_every_arm;
    Alcotest.test_case "string-equal regression on every arm" `Slow
      test_string_equal_regression_on_every_arm;
    Alcotest.test_case "Module-symbol regression on every arm" `Slow
      test_module_symbol_regression_on_every_arm;
    Alcotest.test_case "multiply and blit edges on the compiled arms" `Slow
      test_mul_and_blit_edges_on_arms;
    Alcotest.test_case "arm names round-trip through --backends" `Quick
      test_arm_names_roundtrip;
    Alcotest.test_case "an unknown arm lists every arm" `Quick
      test_unknown_arm_lists_all;
    Alcotest.test_case "wvm applicability derived from the program" `Quick
      test_wvm_predicate;
    Alcotest.test_case "par counts equal at jobs 1 and 4" `Quick
      test_par_counts_jobs;
    Alcotest.test_case "always-true shrink of seed 4770 is near-empty" `Quick
      test_shrink_seed_4770;
    Alcotest.test_case "a failure that does not reproduce is still reported" `Quick
      test_flaky_failure_report ]
  @ qcheck_tests
