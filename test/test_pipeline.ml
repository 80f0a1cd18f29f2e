(* PR 1: the instrumented pass manager, the compile cache, and the
   differential corpus.

   The corpus locks the whole pipeline down: for each representative program
   (drawn from bench/programs.ml and examples/), the kernel interpreter, the
   threaded native backend, the ocamlopt JIT (the OCaml-emit backend) and —
   where the program is representable — the WVM bytecode baseline must all
   produce equal results, at optimisation levels 0, 1 and 2, with the SSA
   linter verifying the IR after every pass run. *)

open Wolf_wexpr
open Wolf_compiler
open Wolf_runtime
module B = Wolf_backends

let parse = Parser.parse
let expr = Alcotest.testable (Fmt.of_to_string Expr.to_string) Expr.equal

let jit_on = lazy (B.Jit.available ())

(* ------------------------------------------------------------------ *)
(* Differential corpus                                                 *)

type case = {
  cname : string;
  program : string;
  args : string list;
  wvm : bool;  (* representable on the bytecode compiler (no strings/closures) *)
}

let case ?(wvm = true) cname program args = { cname; program; args; wvm }

(* a small real matrix literal for the blur/image cases *)
let matrix_src n =
  let cell i j = Printf.sprintf "%.2f" (float_of_int ((i * n + j) mod 7) /. 4.0) in
  let row i =
    "{" ^ String.concat ", " (List.init n (fun j -> cell i j)) ^ "}"
  in
  "{" ^ String.concat ", " (List.init n row) ^ "}"

let corpus =
  [ (* scalar arithmetic *)
    case "addone" {|Function[{Typed[n, "MachineInteger"]}, n + 1]|} [ "41" ];
    case "poly"
      {|Function[{Typed[n, "MachineInteger"]}, (n*3 - 4)*(n + 2) - Mod[n, 5]]|}
      [ "-23" ];
    case "real-math"
      {|Function[{Typed[x, "Real64"]}, Sin[x]*Sin[x] + Cos[x] + Sqrt[Abs[x]]]|}
      [ "0.37" ];
    case "relational"
      {|Function[{Typed[n, "MachineInteger"]},
         If[n > 2 && (n < 10 || EvenQ[n]), Min[n, 7], Max[n, -7]]]|}
      [ "5" ];
    (* loops (bench/examples loop shapes) *)
    case "gauss"
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 1]; s]]|}
      [ "100" ];
    case "factorial-iter"
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{acc = 1, i = 1}, While[i <= n, acc = acc*i; i = i + 1]; acc]]|}
      [ "12" ];
    case "fib-iter"
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{a = 0, b = 1, t = 0, i = 0},
          While[i < n, t = a + b; a = b; b = t; i = i + 1]; a]]|}
      [ "30" ];
    case "collatz"
      {|Function[{Typed[n0, "MachineInteger"]},
         Module[{n = n0, steps = 0},
          While[n != 1,
           If[Mod[n, 2] == 0, n = Quotient[n, 2], n = 3*n + 1];
           steps = steps + 1];
          steps]]|}
      [ "27" ];
    case "gcd-loop"
      {|Function[{Typed[a0, "MachineInteger"], Typed[b0, "MachineInteger"]},
         Module[{a = a0, b = b0, t = 0},
          While[b != 0, t = Mod[a, b]; a = b; b = t]; a]]|}
      [ "252"; "198" ];
    (* Figure 2 kernels at test scale (bench/programs.ml) *)
    case "mandelbrot" Bench_support.Programs.mandelbrot_src
      [ "-0.5"; "0.5"; "-0.5"; "0.5"; "0.25" ];
    case "fnv1a-codes" Bench_support.Programs.fnv1a_wvm_src
      [ "{72, 101, 108, 108, 111, 33}" ];
    case "histogram"
      {|Function[{Typed[data, "PackedArray"["Integer64", 1]]},
         Module[{bins = ConstantArray[0, 4], i = 1, n = Length[data], b = 0},
          While[i <= n, b = data[[i]] + 1; bins[[b]] = bins[[b]] + 1; i = i + 1];
          bins]]|}
      [ "{0, 1, 2, 3, 1, 2, 2, 0, 3}" ];
    case "blur" Bench_support.Programs.blur_src [ matrix_src 5; "5" ];
    case "dot" Bench_support.Programs.dot_src
      [ "{{1.0, 2.0}, {3.0, 4.0}}"; "{{5.0, 6.0}, {7.0, 8.0}}" ];
    (* arrays *)
    case "array-reduce"
      {|Function[{Typed[v, "PackedArray"["Integer64", 1]]},
         Total[Reverse[v]]*10 + v[[1]] + v[[-1]]]|}
      [ "{3, 1, 4, 1, 5, 9, 2, 6}" ];
    case "insertion-sort"
      {|Function[{Typed[v0, "PackedArray"["Integer64", 1]]},
         Module[{v = v0, n = Length[v0], i = 2, j = 0, key = 0},
          While[i <= n,
           key = v[[i]]; j = i - 1;
           While[j >= 1 && v[[j]] > key, v[[j + 1]] = v[[j]]; j = j - 1];
           v[[j + 1]] = key;
           i = i + 1];
          v]]|}
      [ "{5, 2, 9, 1, 7, 3, 8, 2}" ];
    (* not WVM-representable (L1): strings and function values *)
    case ~wvm:false "strings"
      {|Function[{Typed[s, "String"]}, StringLength[s <> "!"] + Total[ToCharacterCode[s]]]|}
      [ {|"hello"|} ];
    case ~wvm:false "closure"
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{f = Function[{x}, x + n]}, f[10] + f[20]]]|}
      [ "5" ] ]

let opt_levels = [ 0; 1; 2 ]

let check_case { cname; program; args; wvm } =
  Wolfram.init ();
  B.Compiled_function.quiet := true;
  let fexpr = parse program in
  let args_a = Array.of_list (List.map parse args) in
  let reference = Wolf_kernel.Session.eval (Expr.Normal (fexpr, args_a)) in
  let vals = Array.map Rtval.of_expr args_a in
  List.iter
    (fun lvl ->
       (* lint forced on: every pass run is verified by Wir_verify *)
       let options = { Options.default with Options.opt_level = lvl; lint = true } in
       let c = Pipeline.compile ~options ~name:cname fexpr in
       let native = B.Native.compile c in
       Alcotest.check expr
         (Printf.sprintf "%s/native/O%d" cname lvl)
         reference
         (Rtval.to_expr (native.Rtval.call vals));
       if Lazy.force jit_on then begin
         match B.Jit.compile c with
         | Ok j ->
           Alcotest.check expr
             (Printf.sprintf "%s/ocaml-emit-jit/O%d" cname lvl)
             reference
             (Rtval.to_expr (j.Rtval.call vals))
         | Error e -> Alcotest.failf "%s/O%d: jit compile failed: %s" cname lvl e
       end)
    opt_levels;
  if wvm then begin
    let w = B.Wvm.compile fexpr in
    Alcotest.check expr (cname ^ "/wvm") reference (B.Wvm.call w args_a)
  end

let corpus_tests =
  List.map
    (fun c ->
       Alcotest.test_case (Printf.sprintf "corpus: %s" c.cname) `Quick (fun () ->
           check_case c))
    corpus

(* ------------------------------------------------------------------ *)
(* Compile cache correctness                                           *)

let simple_src = {|Function[{Typed[n, "MachineInteger"]}, n*n + 7]|}

let cache_stats () = Wolfram.compile_cache_stats ()

let test_cache_hit_identical () =
  Wolfram.init ();
  Wolfram.compile_cache_clear ();
  let cf1 = Wolfram.function_compile ~target:Wolfram.Threaded (parse simple_src) in
  let s1 = cache_stats () in
  Alcotest.(check (pair int int)) "first compile: 1 miss, 0 hits" (0, 1)
    (s1.Compile_cache.hits, s1.Compile_cache.misses);
  let cf2 = Wolfram.function_compile ~target:Wolfram.Threaded (parse simple_src) in
  let s2 = cache_stats () in
  Alcotest.(check (pair int int)) "second compile: 1 hit, 1 miss" (1, 1)
    (s2.Compile_cache.hits, s2.Compile_cache.misses);
  Alcotest.(check int) "every lookup is a hit or a miss" s2.Compile_cache.lookups
    (s2.Compile_cache.hits + s2.Compile_cache.misses);
  (* the hit returns the identical compiled function, program included *)
  Alcotest.(check bool) "physically identical compiled function" true (cf1 == cf2);
  (match Wolfram.pipeline_of cf1, Wolfram.pipeline_of cf2 with
   | Some c1, Some c2 ->
     Alcotest.(check bool) "identical program" true
       (c1.Pipeline.program == c2.Pipeline.program)
   | _ -> Alcotest.fail "pipelines missing");
  Alcotest.check expr "identical result" (Expr.Int 151)
    (Wolfram.call cf2 [ Expr.Int 12 ])

let test_cache_miss_on_changes () =
  Wolfram.init ();
  Wolfram.compile_cache_clear ();
  let compile ?(options = Options.default) ?(target = Wolfram.Threaded) src =
    ignore (Wolfram.function_compile ~options ~target (parse src))
  in
  compile simple_src;
  compile simple_src;
  let s = cache_stats () in
  Alcotest.(check (pair int int)) "warm" (1, 1) (s.Compile_cache.hits, s.Compile_cache.misses);
  (* changing the source text misses *)
  compile {|Function[{Typed[n, "MachineInteger"]}, n*n + 8]|};
  Alcotest.(check int) "source change misses" 2 (cache_stats ()).Compile_cache.misses;
  (* changing any Options.t field misses *)
  List.iter
    (fun options -> compile ~options simple_src)
    [ { Options.default with Options.abort_handling = false };
      { Options.default with Options.opt_level = 2 };
      { Options.default with Options.inline_level = 0 };
      { Options.default with Options.memory_management = false };
      { Options.default with Options.static_constants = false };
      { Options.default with Options.lint = false };
      { Options.default with Options.self_name = Some "self" };
      { Options.default with Options.target_system = "C" } ];
    Alcotest.(check int) "each option change misses" 10
      (cache_stats ()).Compile_cache.misses;
  (* changing the target misses *)
  compile ~target:Wolfram.Bytecode simple_src;
  Alcotest.(check int) "target change misses" 11 (cache_stats ()).Compile_cache.misses;
  (* and all of those were misses, not hits *)
  Alcotest.(check int) "hits unchanged" 1 (cache_stats ()).Compile_cache.hits;
  Alcotest.(check int) "no evictions" 0 (cache_stats ()).Compile_cache.evictions

let test_cache_bypass () =
  Wolfram.init ();
  Wolfram.compile_cache_clear ();
  (* use_cache = false bypasses: no counter movement, fresh result *)
  let options = { Options.default with Options.use_cache = false } in
  let cf1 = Wolfram.function_compile ~options ~target:Wolfram.Threaded (parse simple_src) in
  let cf2 = Wolfram.function_compile ~options ~target:Wolfram.Threaded (parse simple_src) in
  let s = cache_stats () in
  Alcotest.(check (pair int int)) "bypass leaves counters untouched" (0, 0)
    (s.Compile_cache.hits, s.Compile_cache.misses);
  Alcotest.(check bool) "fresh compilations" true (not (cf1 == cf2));
  (* user passes bypass the cache too *)
  let up = { Pipeline.pass_name = "noop"; pass_run = (fun _ -> ()) } in
  ignore
    (Wolfram.function_compile ~user_passes:[ up ] ~target:Wolfram.Threaded
       (parse simple_src));
  let s = cache_stats () in
  Alcotest.(check (pair int int)) "user passes bypass" (0, 0)
    (s.Compile_cache.hits, s.Compile_cache.misses)

let test_cache_lru_eviction () =
  (* unit-level: a capacity-2 cache evicts least-recently-used *)
  let c : int Compile_cache.t = Compile_cache.create ~capacity:2 () in
  let k n = Printf.sprintf "key%d" n in
  Compile_cache.add c (k 1) 1;
  Compile_cache.add c (k 2) 2;
  Alcotest.(check (option int)) "k1 resident" (Some 1) (Compile_cache.find c (k 1));
  (* k2 is now LRU; inserting k3 evicts it *)
  Compile_cache.add c (k 3) 3;
  Alcotest.(check int) "one eviction" 1 (Compile_cache.stats c).Compile_cache.evictions;
  Alcotest.(check (option int)) "k2 evicted" None (Compile_cache.find c (k 2));
  Alcotest.(check (option int)) "k1 survives" (Some 1) (Compile_cache.find c (k 1));
  Alcotest.(check (option int)) "k3 resident" (Some 3) (Compile_cache.find c (k 3));
  let s = Compile_cache.stats c in
  Alcotest.(check int) "hits" 3 s.Compile_cache.hits;
  Alcotest.(check int) "misses" 1 s.Compile_cache.misses;
  Alcotest.(check int) "entries" 2 s.Compile_cache.entries;
  Alcotest.(check int) "lookups = hits + misses" s.Compile_cache.lookups
    (s.Compile_cache.hits + s.Compile_cache.misses);
  Compile_cache.clear c;
  let s = Compile_cache.stats c in
  Alcotest.(check int) "cleared hits" 0 s.Compile_cache.hits;
  Alcotest.(check int) "cleared lookups" 0 s.Compile_cache.lookups;
  Alcotest.(check int) "cleared entries" 0 s.Compile_cache.entries

(* ------------------------------------------------------------------ *)
(* Pass-manager observability                                          *)

let test_pass_stats () =
  let fexpr = parse {|Function[{Typed[n, "MachineInteger"]}, (n + 0)*1 + 2*3]|} in
  let c = Pipeline.compile ~name:"stats" fexpr in
  let names = List.map (fun s -> s.Pass_manager.st_pass) c.Pipeline.stats in
  List.iter
    (fun expected ->
       Alcotest.(check bool) ("stat recorded for " ^ expected) true
         (List.mem expected names))
    [ "macro+binding+lower"; "type-inference"; "function-resolution"; "fold";
      "simplify-cfg"; "cse"; "licm"; "dce"; "bparam-elim"; "inline"; "mutability";
      "abort-insertion"; "abort-stride"; "memory-management"; "ground-check" ];
  List.iter
    (fun (s : Pass_manager.stat) ->
       (* checkpoint-only rows (e.g. "lower") exist to attribute verify
          time and legitimately have zero runs *)
       Alcotest.(check bool) (s.st_pass ^ " ran or was verified") true
         (s.st_runs >= 1 || s.st_verify > 0.0 || s.st_pass = "lower");
       Alcotest.(check bool) (s.st_pass ^ " time >= 0") true (s.st_time >= 0.0))
    c.Pipeline.stats;
  (* front-end stages have no IR delta; WIR passes do *)
  let stat name = List.find (fun s -> s.Pass_manager.st_pass = name) c.Pipeline.stats in
  Alcotest.(check bool) "front has no delta" true
    ((stat "macro+binding+lower").Pass_manager.st_delta = None);
  (match (stat "fold").Pass_manager.st_delta with
   | Some d ->
     (* 2*3 folds away: the fixpoint shrinks the instruction count *)
     Alcotest.(check bool) "fold shrinks instrs" true
       (d.Pass_manager.d_instrs_after < d.Pass_manager.d_instrs_before)
   | None -> Alcotest.fail "fold has no delta");
  (* optimisation reduces the final instruction count vs -O0 *)
  let c0 =
    Pipeline.compile ~options:{ Options.default with Options.opt_level = 0 }
      ~name:"stats0" fexpr
  in
  Alcotest.(check bool) "O1 program is no bigger than O0" true
    (Pass_manager.instr_count c.Pipeline.program
     <= Pass_manager.instr_count c0.Pipeline.program);
  (* the rows carry the seconds the passes ran *)
  Alcotest.(check bool) "timings populated" true
    (List.fold_left (fun t (s : Pass_manager.stat) -> t +. s.st_time) 0.0 c.Pipeline.stats > 0.0)

let test_dump_after_hook () =
  let fired = ref [] in
  let old = !Pipeline.dump_hook in
  Pipeline.dump_hook := (fun name _ -> fired := name :: !fired);
  Fun.protect
    ~finally:(fun () -> Pipeline.dump_hook := old)
    (fun () ->
       ignore
         (Pipeline.compile
            ~options:{ Options.default with Options.dump_after = [ "dce"; "lower" ] }
            ~name:"dump"
            (parse {|Function[{Typed[n, "MachineInteger"]}, n + 1]|})));
  Alcotest.(check bool) "dce dump fired" true (List.mem "dce" !fired);
  Alcotest.(check bool) "lower dump fired" true (List.mem "lower" !fired);
  Alcotest.(check bool) "undumped pass quiet" false (List.mem "mutability" !fired)

let test_user_pass_stats () =
  let seen = ref 0 in
  let up =
    { Pipeline.pass_name = "probe"; pass_run = (fun _ -> incr seen) }
  in
  let c =
    Pipeline.compile ~user_passes:[ up ] ~name:"user"
      (parse {|Function[{Typed[n, "MachineInteger"]}, n + 1]|})
  in
  Alcotest.(check int) "user pass ran once" 1 !seen;
  Alcotest.(check bool) "user pass instrumented" true
    (List.exists (fun s -> s.Pass_manager.st_pass = "user:probe") c.Pipeline.stats)

let test_opt_level2 () =
  (* -O2 widens inlining; results must not change (corpus covers this too) *)
  let fexpr =
    parse
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{s = 0, i = 1}, While[i <= n, s = s + Max[i, 2]*Min[i, 9]; i = i + 1]; s]]|}
  in
  let run lvl =
    let options = { Options.default with Options.opt_level = lvl } in
    let c = Pipeline.compile ~options ~name:"lvl" fexpr in
    Rtval.to_expr ((B.Native.compile c).Rtval.call [| Rtval.Int 20 |])
  in
  let r0 = run 0 in
  Alcotest.check expr "O1 = O0" r0 (run 1);
  Alcotest.check expr "O2 = O0" r0 (run 2)

(* The optimisation fixpoint stops once every pass has run once in a row
   without a change, even mid-round; its budget still counts rounds. *)
let test_fixpoint_quiet_cycle () =
  let runs = ref [] in
  let stub name changes =
    let left = ref changes in
    Pass_manager.mk name (fun _ ->
        runs := name :: !runs;
        if !left > 0 then (decr left; true) else false)
  in
  let prog = { Wir.funcs = []; pmeta = [] } in
  let run ?budget passes =
    runs := [];
    let any = Pass_manager.run_fixpoint ?budget (Pass_manager.create ()) passes prog in
    (any, List.rev !runs)
  in
  let check what (any, runs) (any', runs') =
    Alcotest.(check bool) (what ^ ": changed") any' any;
    Alcotest.(check (list string)) (what ^ ": runs") runs' runs
  in
  (* b changes twice; after its second change a, c and b itself run quiet *)
  check "last change mid-round"
    (run [ stub "a" 0; stub "b" 2; stub "c" 0 ])
    (true, [ "a"; "b"; "c"; "a"; "b"; "c"; "a"; "b" ]);
  check "quiet from the start" (run [ stub "a" 0; stub "b" 0 ]) (false, [ "a"; "b" ]);
  check "change in the last pass"
    (run [ stub "a" 0; stub "b" 1 ])
    (true, [ "a"; "b"; "a"; "b" ]);
  check "budget counts rounds"
    (run ~budget:2 [ stub "a" 0; stub "b" 99 ])
    (true, [ "a"; "b"; "a"; "b" ])

let tests =
  corpus_tests
  @ [ Alcotest.test_case "cache: identical compile hits" `Quick test_cache_hit_identical;
      Alcotest.test_case "cache: any change misses" `Quick test_cache_miss_on_changes;
      Alcotest.test_case "cache: bypass paths" `Quick test_cache_bypass;
      Alcotest.test_case "cache: LRU eviction counters" `Quick test_cache_lru_eviction;
      Alcotest.test_case "pass manager: stats and deltas" `Quick test_pass_stats;
      Alcotest.test_case "pass manager: fixpoint stops after a quiet cycle" `Quick
        test_fixpoint_quiet_cycle;
      Alcotest.test_case "pass manager: dump-after hook" `Quick test_dump_after_hook;
      Alcotest.test_case "pass manager: user pass stats" `Quick test_user_pass_stats;
      Alcotest.test_case "opt level 2 preserves semantics" `Quick test_opt_level2 ]
