(* IR analyses and passes (S11–S13, S16–S17): the SSA linter, CFG analyses,
   classical optimisations, and the language-obligation passes. *)

open Wolf_wexpr
open Wolf_compiler

let parse = Parser.parse

let compile ?(options = Options.default) ?type_env src =
  Pipeline.compile ~options ?type_env ~name:"p" (parse src)

let count_instrs pred (prog : Wir.program) =
  List.fold_left
    (fun acc f ->
       List.fold_left
         (fun acc (b : Wir.block) ->
            acc + List.length (List.filter pred b.Wir.instrs))
         acc f.Wir.blocks)
    0 prog.Wir.funcs

let is_call base = function
  | Wir.Call { callee = Wir.Resolved { base = b; _ }; _ } -> b = base
  | _ -> false

let fn_src =
  {|Function[{Typed[n, "MachineInteger"]},
     Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 1]; s]]|}

(* ---------------- linter ---------------- *)

let test_lint_accepts_pipeline_output () =
  let c = compile fn_src in
  match Wir_verify.check_program c.Pipeline.program with
  | Ok () -> ()
  | Error es -> Alcotest.failf "lint: %s" (String.concat "; " es)

let test_lint_catches_double_def () =
  let v = Wir.fresh_var ~ty:Types.int64 () in
  let blk =
    { Wir.label = 0; bparams = [||];
      instrs =
        [ Wir.Copy { dst = v; src = Wir.Oconst (Wir.Cint 1) };
          Wir.Copy { dst = v; src = Wir.Oconst (Wir.Cint 2) } ];
      term = Wir.Return (Wir.Ovar v) }
  in
  let f = { Wir.fname = "bad"; fparams = [||]; ret_ty = Some Types.int64;
            blocks = [ blk ]; finline = false; fsource = None } in
  match Wir_verify.check_func f with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double definition accepted"

let test_lint_catches_use_before_def () =
  let v = Wir.fresh_var ~ty:Types.int64 () in
  let w = Wir.fresh_var ~ty:Types.int64 () in
  let blk =
    { Wir.label = 0; bparams = [||];
      instrs = [ Wir.Copy { dst = w; src = Wir.Ovar v } ];
      term = Wir.Return (Wir.Ovar w) }
  in
  let f = { Wir.fname = "bad"; fparams = [||]; ret_ty = Some Types.int64;
            blocks = [ blk ]; finline = false; fsource = None } in
  match Wir_verify.check_func f with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "use before definition accepted"

(* ---------------- full verifier on malformed IR ---------------- *)

let mk_f ?(fparams = [||]) ?(ret_ty = Some Types.int64) blocks =
  { Wir.fname = "bad"; fparams; ret_ty; blocks; finline = false; fsource = None }

let expect_reject what f =
  match Wir_verify.check_func f with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "verifier accepted %s" what

let expect_error_mentions what needle f =
  match Wir_verify.check_func f with
  | Error es ->
    let contains hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s error mentions %S (got: %s)" what needle
         (String.concat "; " es))
      true
      (List.exists contains es)
  | Ok () -> Alcotest.failf "verifier accepted %s" what

let test_verify_use_before_def () =
  (* %v used in b0 but only defined in b1, which runs after the use *)
  let v = Wir.fresh_var ~ty:Types.int64 () in
  let w = Wir.fresh_var ~ty:Types.int64 () in
  let f =
    mk_f
      [ { Wir.label = 0; bparams = [||];
          instrs = [ Wir.Copy { dst = w; src = Wir.Ovar v } ];
          term = Wir.Jump { target = 1; jargs = [||] } };
        { Wir.label = 1; bparams = [||];
          instrs = [ Wir.Copy { dst = v; src = Wir.Oconst (Wir.Cint 1) } ];
          term = Wir.Return (Wir.Ovar w) } ]
  in
  expect_error_mentions "use before def" "uses" f

let test_verify_bad_jump_arity () =
  (* b0 passes one argument to a block declaring two parameters *)
  let p1 = Wir.fresh_var ~ty:Types.int64 () in
  let p2 = Wir.fresh_var ~ty:Types.int64 () in
  let f =
    mk_f
      [ { Wir.label = 0; bparams = [||]; instrs = [];
          term = Wir.Jump { target = 1; jargs = [| Wir.Oconst (Wir.Cint 1) |] } };
        { Wir.label = 1; bparams = [| p1; p2 |]; instrs = [];
          term = Wir.Return (Wir.Ovar p1) } ]
  in
  expect_error_mentions "bad jump arity" "expects" f

(* One resolved call [d = base(n, x)] of the arguments n : Integer64 and
   x : Real64, its result typed [ret]. *)
let prim_call_f ?(ret = Types.int64) ~base ~mangled pick =
  let n = Wir.fresh_var ~ty:Types.int64 () and x = Wir.fresh_var ~ty:Types.real64 () in
  let d = Wir.fresh_var ~ty:ret () in
  mk_f ~fparams:[| n; x |] ~ret_ty:(Some ret)
    [ { Wir.label = 0; bparams = [||];
        instrs =
          [ Wir.Load_argument { dst = n; index = 0 };
            Wir.Load_argument { dst = x; index = 1 };
            Wir.Call
              { dst = d; callee = Wir.Resolved { base; mangled };
                args = Array.map (fun v -> Wir.Ovar v) (pick n x) } ];
        term = Wir.Return (Wir.Ovar d) } ]

(* The strip-miner once subtracted a Real64 bound from the Integer64
   counter and typed the difference Integer64; no declaration of
   checked_binary_subtract takes a Real64 *)
let test_verify_mistyped_prim () =
  let both n x = [| n; x |] and ints n _ = [| n; n |] in
  expect_error_mentions "a strip-miner's mistyped subtract" "no declaration of checked_binary_subtract fits"
    (prim_call_f ~base:"checked_binary_subtract" ~mangled:"checked_binary_subtract_I64_R64" both);
  expect_error_mentions "operands differing from the mangled name" "match"
    (prim_call_f ~base:"checked_binary_subtract" ~mangled:"checked_binary_subtract_I64_I64" both);
  expect_error_mentions "a Real64 result of integer arithmetic" "no declaration"
    (prim_call_f ~ret:Types.real64 ~base:"checked_binary_plus"
       ~mangled:"checked_binary_plus_I64_I64" ints);
  expect_error_mentions "an unknown primitive" "unknown primitive"
    (prim_call_f ~base:"no_such_prim" ~mangled:"no_such_prim_I64_I64" ints);
  expect_error_mentions "a wrong arity" "takes 2 operands"
    (prim_call_f ~base:"checked_binary_plus" ~mangled:"checked_binary_plus_I64"
       (fun n _ -> [| n |]));
  (* the well-typed call passes *)
  (match
     Wir_verify.check_func
       (prim_call_f ~base:"checked_binary_subtract" ~mangled:"checked_binary_subtract_I64_I64" ints)
   with
   | Ok () -> ()
   | Error es -> Alcotest.failf "rejected a well-typed call: %s" (String.concat "; " es))

(* every primitive the builtin environment declares has a table row of the
   declared arity *)
let test_declared_prims_have_rows () =
  List.iter
    (fun (base, (scheme : Types.scheme)) ->
       match Wolf_runtime.Prims.find_opt base, Types.repr scheme.body with
       | None, _ -> Alcotest.failf "%s is declared but has no table row" base
       | Some r, Types.Fun (args, _) ->
         Alcotest.(check int) (base ^ " arity") (Array.length args) r.arity
       | Some _, _ -> Alcotest.failf "%s is declared with a non-function type" base)
    (Type_env.prims (Type_env.builtin ()))

let test_verify_jump_type_mismatch () =
  (* an integer constant flows into a Real64 block parameter *)
  let p = Wir.fresh_var ~ty:Types.real64 () in
  let f =
    mk_f ~ret_ty:(Some Types.real64)
      [ { Wir.label = 0; bparams = [||]; instrs = [];
          term = Wir.Jump { target = 1; jargs = [| Wir.Oconst (Wir.Cint 3) |] } };
        { Wir.label = 1; bparams = [| p |]; instrs = [];
          term = Wir.Return (Wir.Ovar p) } ]
  in
  expect_error_mentions "jump type mismatch" "type" f

let test_verify_copy_type_mismatch () =
  (* TWIR instruction operand check: Copy of a String into an Integer64 *)
  let d = Wir.fresh_var ~ty:Types.int64 () in
  let f =
    mk_f
      [ { Wir.label = 0; bparams = [||];
          instrs = [ Wir.Copy { dst = d; src = Wir.Oconst (Wir.Cstr "s") } ];
          term = Wir.Return (Wir.Ovar d) } ]
  in
  expect_error_mentions "copy type mismatch" "copy" f

let test_verify_orphan_block () =
  let f =
    mk_f
      [ { Wir.label = 0; bparams = [||]; instrs = [];
          term = Wir.Return (Wir.Oconst (Wir.Cint 0)) };
        { Wir.label = 7; bparams = [||]; instrs = [];
          term = Wir.Return (Wir.Oconst (Wir.Cint 1)) } ]
  in
  expect_error_mentions "orphan block" "orphan" f

let test_verify_bad_terminator () =
  (* branch on a string condition, arms targeting a missing block *)
  let f =
    mk_f
      [ { Wir.label = 0; bparams = [||]; instrs = [];
          term =
            Wir.Branch
              { cond = Wir.Oconst (Wir.Cstr "not a bool");
                if_true = { target = 9; jargs = [||] };
                if_false = { target = 9; jargs = [||] } } } ]
  in
  expect_error_mentions "bad terminator" "condition" f;
  expect_error_mentions "bad terminator" "missing block" f;
  (* jumping back to the entry block is malformed too *)
  let g =
    mk_f
      [ { Wir.label = 0; bparams = [||]; instrs = [];
          term = Wir.Jump { target = 0; jargs = [||] } } ]
  in
  expect_error_mentions "jump to entry" "entry" g

let test_verify_return_type_mismatch () =
  let f =
    mk_f ~ret_ty:(Some Types.int64)
      [ { Wir.label = 0; bparams = [||]; instrs = [];
          term = Wir.Return (Wir.Oconst (Wir.Creal 1.5)) } ]
  in
  expect_error_mentions "return type mismatch" "declared" f

let test_verify_load_argument_range () =
  let d = Wir.fresh_var ~ty:Types.int64 () in
  let f =
    mk_f
      [ { Wir.label = 0; bparams = [||];
          instrs = [ Wir.Load_argument { dst = d; index = 2 } ];
          term = Wir.Return (Wir.Ovar d) } ]
  in
  expect_error_mentions "load-argument range" "out of range" f

let test_verify_call_arity_program () =
  (* program-level: a Func call with the wrong argument count *)
  let d = Wir.fresh_var ~ty:Types.int64 () in
  let callee_param = Wir.fresh_var ~ty:Types.int64 () in
  let callee =
    { Wir.fname = "helper"; fparams = [| callee_param |]; ret_ty = Some Types.int64;
      blocks =
        [ { Wir.label = 0; bparams = [||];
            instrs = [ Wir.Load_argument { dst = callee_param; index = 0 } ];
            term = Wir.Return (Wir.Ovar callee_param) } ];
      finline = false; fsource = None }
  in
  let main =
    mk_f
      [ { Wir.label = 0; bparams = [||];
          instrs = [ Wir.Call { dst = d; callee = Wir.Func "helper"; args = [||] } ];
          term = Wir.Return (Wir.Ovar d) } ]
  in
  let prog = { Wir.funcs = [ main; callee ]; pmeta = [] } in
  (match Wir_verify.check_program prog with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "verifier accepted a call-arity mismatch");
  ignore (expect_reject : string -> Wir.func -> unit)

let test_verify_accepts_every_corpus_stage () =
  (* sanity: the verifier accepts the pipeline's final IR for a
     representative program at every opt level *)
  List.iter
    (fun lvl ->
       let options = { Options.default with Options.opt_level = lvl } in
       let c = compile ~options fn_src in
       match Wir_verify.check_program c.Pipeline.program with
       | Ok () -> ()
       | Error es -> Alcotest.failf "O%d: %s" lvl (String.concat "; " es))
    [ 0; 1; 2 ]

(* ---------------- verifier: dominance rows ---------------- *)

(* Each row is a hand-built function and the verifier's exact verdict:
   [Ok ()] or the full list of messages.  Variable ids come from the
   process-wide supply, so the messages are built from the row's vars. *)
let int_var () = Wir.fresh_var ~ty:Types.int64 ()
let copy dst src = Wir.Copy { dst; src }
let cint k = Wir.Oconst (Wir.Cint k)
let goto ?(args = [||]) target = Wir.Jump { target; jargs = args }

let branch if_true if_false =
  Wir.Branch { cond = Wir.Oconst (Wir.Cbool true);
               if_true = { target = if_true; jargs = [||] };
               if_false = { target = if_false; jargs = [||] } }

let block ?(params = [||]) label instrs term =
  { Wir.label; bparams = params; instrs; term }

let not_dominated label where (v : Wir.var) =
  Printf.sprintf "bad: b%d %s uses %%%d before its definition dominates it" label where
    v.Wir.vid

let dominance_rows () =
  let v = int_var () and w = int_var () in
  let same_block =
    ( "use before its definition in the same block",
      mk_f [ block 0 [ copy w (Wir.Ovar v); copy v (cint 1) ] (Wir.Return (Wir.Ovar w)) ],
      Error [ not_dominated 0 "instr" v ] )
  in
  let v = int_var () and w = int_var () in
  let other_arm =
    ( "use in one diamond arm of a value defined in the other",
      mk_f
        [ block 0 [] (branch 1 2);
          block 1 [ copy v (cint 1) ] (goto 3);
          block 2 [ copy w (Wir.Ovar v) ] (goto 3);
          block 3 [] (Wir.Return (cint 0)) ],
      Error [ not_dominated 2 "instr" v ] )
  in
  let v = int_var () in
  let join =
    ( "use at the join of a value defined in one arm",
      mk_f
        [ block 0 [] (branch 1 2);
          block 1 [ copy v (cint 1) ] (goto 3);
          block 2 [] (goto 3);
          block 3 [] (Wir.Return (Wir.Ovar v)) ],
      Error [ not_dominated 3 "terminator" v ] )
  in
  let v = int_var () in
  let orphan =
    ( "use of a value defined only in an orphan block",
      mk_f
        [ block 0 [] (Wir.Return (Wir.Ovar v));
          block 5 [ copy v (cint 1) ] (Wir.Return (Wir.Ovar v)) ],
      Error
        [ "bad: orphan block b5 is unreachable from the entry";
          not_dominated 0 "terminator" v ] )
  in
  let i = int_var () and v = int_var () and w = int_var () in
  let latch =
    ( "latch use of a value defined in the header",
      mk_f
        [ block 0 [] (goto ~args:[| cint 0 |] 1);
          block ~params:[| i |] 1 [ copy v (Wir.Ovar i) ] (branch 2 3);
          block 2 [ copy w (Wir.Ovar v) ] (goto ~args:[| Wir.Ovar w |] 1);
          block 3 [] (Wir.Return (Wir.Ovar v)) ],
      Ok () )
  in
  let x = int_var () and y = int_var () and z = int_var () in
  let irreducible =
    ( "irreducible two-entry loop with every use dominated",
      mk_f
        [ block 0 [ copy x (cint 1) ] (branch 1 2);
          block 1 [ copy y (Wir.Ovar x) ] (goto 2);
          block 2 [ copy z (Wir.Ovar x) ] (branch 1 3);
          block 3 [] (Wir.Return (Wir.Ovar x)) ],
      Ok () )
  in
  [ same_block; other_arm; join; orphan; latch; irreducible ]

let test_verify_dominance_rows () =
  List.iter
    (fun (what, f, expected) ->
       Alcotest.(check (result unit (list string))) what expected (Wir_verify.check_func f))
    (dominance_rows ())

let test_cfg_tolerates_malformed_ir () =
  (* a jump to a missing block, an edge into the entry and a duplicate
     label: build_cfg must not raise, and the verifier reports each *)
  let f =
    mk_f
      [ block 0 [] (branch 1 9);
        block 1 [] (branch 0 2);
        block 1 [] (Wir.Return (cint 1));
        block 2 [] (Wir.Return (cint 0)) ]
  in
  let cfg = Analysis.build_cfg f in
  Alcotest.(check int) "reachable blocks" 3 cfg.Analysis.nreach;
  Alcotest.(check bool) "b2 reachable" true (Analysis.reachable cfg 2);
  Alcotest.(check bool) "b9 absent" false (Analysis.reachable cfg 9);
  Alcotest.(check bool) "entry dominates b2" true (Analysis.dominates cfg 0 2);
  Alcotest.(check bool) "b1 dominates b2" true (Analysis.dominates cfg 1 2);
  Alcotest.(check bool) "b2 does not dominate b1" false (Analysis.dominates cfg 2 1);
  List.iter
    (fun needle -> expect_error_mentions "malformed CFG" needle f)
    [ "duplicate block b1"; "jumps to missing block b9"; "jumps to the entry block b0" ]

(* The 600 programs of the benchmark corpus, each compiled with the verifier
   after every pass: at -O1, and at -O2 with parallel loops. *)
let test_verify_accepts_benchmark_corpus () =
  let progs = Corpus_pool.programs () in
  Alcotest.(check int) "corpus size" 600 (List.length progs);
  let o2 = { Options.default with Options.opt_level = 2; parallel_loops = true } in
  List.iter
    (fun (tag, options) ->
       let options = { options with Options.lint = true } in
       List.iteri
         (fun i e ->
            match Pipeline.compile ~options ~name:"p" e with
            | _ -> ()
            | exception Wolf_base.Errors.Compile_error msg ->
              Alcotest.failf "%s program %d: %s" tag i msg)
         progs)
    [ ("O1", Options.default); ("O2+parallel", o2) ]

(* Nothing a compile leaves behind may accumulate; in particular the
   unifier's undo trail must be empty between inferences (a trail that kept
   every binding grew by about 850 live words per compile).  What remains
   is the interning of gensyms by [Symbol.fresh], about 95 words per
   compile, which the interpreter needs to find a [Module] symbol by
   name. *)
let test_live_heap_flat_over_compiles () =
  let progs = List.filteri (fun i _ -> i < 100) (Corpus_pool.programs ()) in
  let live_after_round () =
    List.iter (fun e -> ignore (Pipeline.compile ~name:"p" e)) progs;
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let rounds = Array.init 5 (fun _ -> live_after_round ()) in
  let per_compile = (rounds.(4) - rounds.(1)) / (3 * List.length progs) in
  Alcotest.(check bool)
    (Printf.sprintf "live words per compile, rounds 2 to 5: %d (< 300)" per_compile)
    true (per_compile < 300)

(* ---------------- CFG analyses ---------------- *)

let test_loop_headers () =
  (* the counted source loop is strip-mined at -O1+, so the compiled CFG has
     the original header plus the outer chunk-loop header *)
  let c = compile fn_src in
  let main = Wir.main c.Pipeline.program in
  let cfg = Analysis.build_cfg main in
  let headers = Analysis.loop_headers main cfg in
  Alcotest.(check int) "inner + chunk loop" 2 (List.length headers)

let test_nested_loop_headers () =
  let c =
    compile
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{s = 0, i = 1, j = 1},
          While[i <= n, j = 1; While[j <= n, s = s + 1; j = j + 1]; i = i + 1];
          s]]|}
  in
  let main = Wir.main c.Pipeline.program in
  let cfg = Analysis.build_cfg main in
  (* outer + inner + the inner loop's chunk loop from strip-mining *)
  Alcotest.(check int) "three loops" 3 (List.length (Analysis.loop_headers main cfg))

let test_dominance () =
  let c = compile fn_src in
  let main = Wir.main c.Pipeline.program in
  let cfg = Analysis.build_cfg main in
  let entry = (Wir.entry main).Wir.label in
  List.iter
    (fun (b : Wir.block) ->
       Alcotest.(check bool)
         (Printf.sprintf "entry dominates b%d" b.Wir.label)
         true
         (Analysis.dominates cfg entry b.Wir.label))
    main.Wir.blocks

(* ---------------- loop structure on hand-built CFGs ---------------- *)

let mk_func blocks =
  { Wir.fname = "cfg"; fparams = [||]; ret_ty = Some Types.int64;
    blocks; finline = false; fsource = None }

let jmp target = Wir.Jump { target; jargs = [||] }

let br if_true if_false =
  Wir.Branch { cond = Wir.Oconst (Wir.Cint 0);
               if_true = { target = if_true; jargs = [||] };
               if_false = { target = if_false; jargs = [||] } }

let blk label term = { Wir.label; bparams = [||]; instrs = []; term }

let ret = Wir.Return (Wir.Oconst (Wir.Cint 0))

let test_natural_loops_nested () =
  let f =
    mk_func
      [ blk 0 (jmp 1);
        blk 1 (br 2 5);  (* outer header *)
        blk 2 (br 3 4);  (* inner header *)
        blk 3 (jmp 2);   (* inner latch *)
        blk 4 (jmp 1);   (* outer latch *)
        blk 5 ret ]
  in
  let cfg = Analysis.build_cfg f in
  let loops = Analysis.natural_loops f cfg in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  let outer = List.find (fun (l : Analysis.loop) -> l.Analysis.lheader = 1) loops in
  let inner = List.find (fun (l : Analysis.loop) -> l.Analysis.lheader = 2) loops in
  Alcotest.(check (list int)) "outer body" [ 1; 2; 3; 4 ] outer.Analysis.lbody;
  Alcotest.(check (list int)) "inner body" [ 2; 3 ] inner.Analysis.lbody;
  Alcotest.(check (list int)) "outer latches" [ 4 ] outer.Analysis.latches;
  Alcotest.(check int) "outer depth" 1 outer.Analysis.ldepth;
  Alcotest.(check int) "inner depth" 2 inner.Analysis.ldepth;
  Alcotest.(check bool) "inner innermost" true (Analysis.innermost loops inner);
  Alcotest.(check bool) "outer not innermost" false (Analysis.innermost loops outer)

let test_retreating_edge_not_loop () =
  (* diamond with a retreating edge whose target does not dominate the
     source: no natural loop *)
  let f =
    mk_func
      [ blk 0 (br 1 2);
        blk 1 (jmp 3);
        blk 2 (jmp 3);
        blk 3 (br 1 4);  (* 3 -> 1 retreats but 1 does not dominate 3 *)
        blk 4 ret ]
  in
  let cfg = Analysis.build_cfg f in
  Alcotest.(check int) "no natural loops" 0
    (List.length (Analysis.natural_loops f cfg))

let test_self_loop () =
  let f = mk_func [ blk 0 (jmp 1); blk 1 (br 1 2); blk 2 ret ] in
  let cfg = Analysis.build_cfg f in
  let loops = Analysis.natural_loops f cfg in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let l = List.hd loops in
  Alcotest.(check (list int)) "body is just the header" [ 1 ] l.Analysis.lbody;
  Alcotest.(check (list int)) "self latch" [ 1 ] l.Analysis.latches;
  Alcotest.(check int) "depth" 1 l.Analysis.ldepth;
  Alcotest.(check bool) "innermost" true (Analysis.innermost loops l)

let test_preheader_reuse_and_insert () =
  (* a unique fall-through entry predecessor is reused as the preheader *)
  let f = mk_func [ blk 0 (jmp 1); blk 1 (br 1 2); blk 2 ret ] in
  Alcotest.(check int) "entry pred reused" 0
    (Analysis.ensure_preheader f ~header:1 ~latches:[ 1 ]);
  Alcotest.(check int) "no block added" 3 (List.length f.Wir.blocks);
  (* entry through a branch arm: the edge must be split with a fresh block
     that forwards the header's parameters *)
  let v = Wir.fresh_var ~ty:Types.int64 () in
  let g =
    mk_func
      [ { Wir.label = 0; bparams = [||]; instrs = [];
          term =
            Wir.Branch
              { cond = Wir.Oconst (Wir.Cint 0);
                if_true = { target = 1; jargs = [| Wir.Oconst (Wir.Cint 1) |] };
                if_false = { target = 2; jargs = [||] } } };
        { Wir.label = 1; bparams = [| v |]; instrs = [];
          term =
            Wir.Branch
              { cond = Wir.Oconst (Wir.Cint 0);
                if_true = { target = 1; jargs = [| Wir.Ovar v |] };
                if_false = { target = 2; jargs = [||] } } };
        blk 2 ret ]
  in
  let pre = Analysis.ensure_preheader g ~header:1 ~latches:[ 1 ] in
  Alcotest.(check int) "fresh label" 3 pre;
  Alcotest.(check int) "block inserted" 4 (List.length g.Wir.blocks);
  (match (Wir.find_block g pre).Wir.term with
   | Wir.Jump { target; jargs } ->
     Alcotest.(check int) "preheader jumps to header" 1 target;
     Alcotest.(check int) "forwards one param" 1 (Array.length jargs)
   | _ -> Alcotest.fail "preheader does not end in a jump");
  (match (Wir.find_block g 0).Wir.term with
   | Wir.Branch { if_true = { target; _ }; if_false = { target = other; _ }; _ } ->
     Alcotest.(check int) "entry edge retargeted" pre target;
     Alcotest.(check int) "exit edge untouched" 2 other
   | _ -> Alcotest.fail "entry terminator changed shape")

(* ---------------- optimisations ---------------- *)

let test_constant_folding () =
  (* 2 + 3*4 folds away entirely: no arithmetic calls should remain *)
  let c = compile {|Function[{Typed[n, "MachineInteger"]}, n + (2 + 3*4)]|} in
  let adds = count_instrs (is_call "checked_binary_plus") c.Pipeline.program in
  let muls = count_instrs (is_call "checked_binary_times") c.Pipeline.program in
  Alcotest.(check int) "one residual add" 1 adds;
  Alcotest.(check int) "no multiplies" 0 muls

(* The folder runs a primitive only when its result is a scalar: an array
   constructor on constant operands is left for runtime, where a branch
   that never runs never builds it (at compile time Range[10^15] ran out of
   memory). *)
let test_fold_builds_no_array () =
  List.iter
    (fun src ->
       let cf =
         Wolfram.function_compile ~options:{ Options.default with Options.use_cache = false }
           ~target:Wolfram.Threaded (parse src)
       in
       Alcotest.(check string) src "3" (Expr.to_string (Wolfram.call cf [ Expr.Int 3 ])))
    [ {|Function[{Typed[n, "MachineInteger"]}, If[False, Length[Range[10^15]], n]]|};
      {|Function[{Typed[n, "MachineInteger"]}, If[n > 100, Length[Range[10^15]], n]]|};
      {|Function[{Typed[n, "MachineInteger"]},
         If[n > 100, Module[{a = ConstantArray[0., 10^8, 10^8]}, a[[1, 1]]], 3.]; n]|} ]

let test_dead_branch_deletion () =
  let c = compile {|Function[{Typed[n, "MachineInteger"]}, If[2 > 1, n, n*n]]|} in
  let main = Wir.main c.Pipeline.program in
  Alcotest.(check int) "collapsed to one block" 1 (List.length main.Wir.blocks);
  Alcotest.(check int) "multiply eliminated" 0
    (count_instrs (is_call "checked_binary_times") c.Pipeline.program)

let test_cse () =
  let c =
    compile {|Function[{Typed[x, "Real64"]}, (x*x + 1.0) + (x*x + 2.0)]|}
  in
  Alcotest.(check int) "x*x computed once" 1
    (count_instrs (is_call "binary_times") c.Pipeline.program)

let test_dce () =
  let c =
    compile
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{unused = n*n*n, kept = n + 1}, kept]]|}
  in
  Alcotest.(check int) "dead cube removed" 0
    (count_instrs (is_call "checked_binary_times") c.Pipeline.program)

let loop_body_labels main =
  let cfg = Analysis.build_cfg main in
  let loops = Analysis.natural_loops main cfg in
  List.concat_map (fun (l : Analysis.loop) -> l.Analysis.lbody) loops

let count_in_labels pred (main : Wir.func) labels =
  List.fold_left
    (fun acc l ->
       acc
       + List.length (List.filter pred (Wir.find_block main l).Wir.instrs))
    0 labels

let test_licm_hoists_invariant () =
  (* x*x does not depend on the induction variable: LICM moves it out *)
  let c =
    compile
      {|Function[{Typed[n, "MachineInteger"], Typed[x, "Real64"]},
         Module[{s = 0.0, i = 1},
          While[i <= n, s = s + x*x; i = i + 1]; s]]|}
  in
  let main = Wir.main c.Pipeline.program in
  let body = loop_body_labels main in
  Alcotest.(check bool) "still has a loop" true (body <> []);
  Alcotest.(check int) "multiply hoisted out of the loop" 0
    (count_in_labels (is_call "binary_times") main body);
  Alcotest.(check int) "multiply still computed somewhere" 1
    (count_instrs (is_call "binary_times") c.Pipeline.program)

let test_licm_disabled () =
  let options = { Options.default with Options.loop_opts = false } in
  let c =
    compile ~options
      {|Function[{Typed[n, "MachineInteger"], Typed[x, "Real64"]},
         Module[{s = 0.0, i = 1},
          While[i <= n, s = s + x*x; i = i + 1]; s]]|}
  in
  let main = Wir.main c.Pipeline.program in
  let body = loop_body_labels main in
  Alcotest.(check bool) "multiply stays in the loop" true
    (count_in_labels (is_call "binary_times") main body >= 1)

(* Hoisting speculates: the preheader runs even when the loop does not.
   An invariant x + 1 that overflows must stay in a loop that runs zero
   times, or a program that returns 0 fails: in-process by rerunning the
   whole call in the interpreter, in a built binary by exiting with
   IntegerOverflow. *)
let test_licm_keeps_overflow_in_zero_trip_loop () =
  let src =
    {|Function[{Typed[x, "MachineInteger"], Typed[n, "MachineInteger"]},
       Module[{s = 0}, Do[s = s + (x + 1), {i, n}]; s]]|}
  in
  let cf =
    Wolfram.function_compile ~options:{ Options.default with Options.use_cache = false }
      ~target:Wolfram.Threaded (parse src)
  in
  Alcotest.(check string) "threaded result" "0"
    (Expr.to_string (Wolfram.call cf [ Expr.Int max_int; Expr.Int 0 ]));
  Alcotest.(check int) "threaded: no interpreter fallback" 0 (Wolfram.fallback_count cf);
  if Lazy.force Test_cemit.have_cc then
    match Wolf_backends.C_emit.emit_standalone (compile src) with
    | Error e -> Alcotest.failf "C emit: %s" e
    | Ok emitted ->
      (* machine integers are 64-bit in C *)
      let argv = [ Int64.to_string Int64.max_int; "0" ] in
      let code, line = Test_cemit.run_built emitted.Wolf_backends.C_emit.source ~argv in
      Alcotest.(check int) "built binary exit" 0 code;
      Alcotest.(check string) "built binary result" "0" line

let test_optimization_off () =
  let options = { Options.default with Options.opt_level = 0 } in
  let c = compile ~options {|Function[{Typed[n, "MachineInteger"]}, n + (2 + 3*4)]|} in
  Alcotest.(check bool) "unoptimised keeps the multiply" true
    (count_instrs (is_call "checked_binary_times") c.Pipeline.program >= 1)

let test_inlining_of_declared_function () =
  let env = Type_env.create ~parent:(Type_env.builtin ()) "t" in
  Type_env.declare_wolfram env "TinyTwice"
    ~spec:(parse {|TypeSpecifier[{"Integer64"} -> "Integer64"]|})
    ~body:(parse "Function[{x}, x + x]");
  let c =
    compile ~type_env:env {|Function[{Typed[n, "MachineInteger"]}, TinyTwice[n] + 1]|}
  in
  (* after inlining no Func call to the instance remains in main *)
  let main = Wir.main c.Pipeline.program in
  let calls_instance =
    List.exists
      (fun (b : Wir.block) ->
         List.exists
           (function Wir.Call { callee = Wir.Func _; _ } -> true | _ -> false)
           b.Wir.instrs)
      main.Wir.blocks
  in
  Alcotest.(check bool) "instance inlined into caller" false calls_instance

(* ---------------- obligation passes ---------------- *)

let has_abort (b : Wir.block) =
  List.exists (function Wir.Abort_check -> true | _ -> false) b.Wir.instrs

let has_poll (b : Wir.block) =
  List.exists (function Wir.Abort_poll _ -> true | _ -> false) b.Wir.instrs

let test_abort_placement () =
  let c = compile fn_src in
  let main = Wir.main c.Pipeline.program in
  let cfg = Analysis.build_cfg main in
  let loops = Analysis.natural_loops main cfg in
  let entry = Wir.entry main in
  Alcotest.(check bool) "prologue check" true (has_abort entry);
  (* the single counted loop is innermost and call-free, so at -O1+ it is
     strip-mined: the hot header carries no check at all and the new outer
     chunk-loop header runs the immediate check once per chunk *)
  Alcotest.(check int) "inner + chunk loop" 2 (List.length loops);
  let inner = List.find (fun l -> Analysis.innermost loops l) loops in
  let chunk =
    List.find (fun (l : Analysis.loop) -> l.lheader <> inner.Analysis.lheader) loops
  in
  let inner_hdr = Wir.find_block main inner.Analysis.lheader in
  Alcotest.(check bool) "hot header check-free" false
    (has_abort inner_hdr || has_poll inner_hdr);
  Alcotest.(check bool) "chunk header checks" true
    (has_abort (Wir.find_block main chunk.Analysis.lheader));
  Alcotest.(check int) "checks: prologue + chunk header" 2
    (count_instrs (function Wir.Abort_check -> true | _ -> false) c.Pipeline.program);
  Alcotest.(check int) "no polls on a counted loop" 0
    (count_instrs (function Wir.Abort_poll _ -> true | _ -> false) c.Pipeline.program)

let test_abort_stride_disabled () =
  (* stride 1 disables coalescing: every header keeps the immediate check *)
  let options = { Options.default with Options.abort_stride = 1 } in
  let c = compile ~options fn_src in
  let main = Wir.main c.Pipeline.program in
  let cfg = Analysis.build_cfg main in
  let headers = Analysis.loop_headers main cfg in
  List.iter
    (fun l ->
       Alcotest.(check bool)
         (Printf.sprintf "loop header b%d immediate" l)
         true
         (has_abort (Wir.find_block main l)))
    headers;
  Alcotest.(check int) "no polls" 0
    (count_instrs (function Wir.Abort_poll _ -> true | _ -> false) c.Pipeline.program)

let test_abort_stride_outer_keeps_check () =
  (* only innermost call-free loops are coalesced; the outer header stays
     immediate.  The counted inner loop is strip-mined, so the compiled CFG
     has three loops: outer (immediate check), the inner loop's chunk loop
     (immediate check, once per chunk) and the check-free hot loop. *)
  let c =
    compile
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{s = 0, i = 1, j = 1},
          While[i <= n, j = 1; While[j <= n, s = s + 1; j = j + 1]; i = i + 1];
          s]]|}
  in
  let main = Wir.main c.Pipeline.program in
  let cfg = Analysis.build_cfg main in
  let loops = Analysis.natural_loops main cfg in
  Alcotest.(check int) "three loops" 3 (List.length loops);
  List.iter
    (fun (l : Analysis.loop) ->
       let hdr = Wir.find_block main l.Analysis.lheader in
       if Analysis.innermost loops l then
         Alcotest.(check bool) "hot header check-free" false
           (has_abort hdr || has_poll hdr)
       else
         Alcotest.(check bool) "enclosing header checks" true (has_abort hdr))
    loops

let test_abort_disabled () =
  let options = { Options.default with Options.abort_handling = false } in
  let c = compile ~options fn_src in
  Alcotest.(check int) "no checks" 0
    (count_instrs (function Wir.Abort_check -> true | _ -> false) c.Pipeline.program)

(* ---------------- counted loops ---------------- *)

(* One table over the loop shapes {!Analysis.counted_loop} decides, checked
   through its three clients: abort-stride (strip-mined, or a fallback
   poll), bounds-check elimination, and the parloop decision at -O2 with
   parallel loops on.  Every row also runs on Threaded and Jit at default
   options and on Threaded with parallel loops, with no interpreter
   fallback and the result of the -O0 compile. *)

type counted_row = {
  shape : string;
  src : string;
  args : string list;
  strip_mined : bool;  (* false: the header falls back to an Abort_poll *)
  bce : bool;
  parloop : string;    (* prefix of the parloop decision *)
  thread_joins : bool; (* reshape the CFG first (see [thread_joins]) *)
}

(* a Real64 sum of 0.5*i over a loop with the given start and guard *)
let real_sum ~init ~guard =
  Printf.sprintf
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{s = 0.0, i = %d}, While[%s, s = s + 0.5*i; i = i + 1]; s]]|}
    init guard

(* Source has no way to spell a loop with two back edges: lowering always
   joins the arms of an If before the latch.  This pass forwards every
   empty join block to its successor, so each arm becomes a latch. *)
let thread_joins (p : Wir.program) =
  let open Wir in
  List.iter
    (fun f ->
       List.iter
         (fun b ->
            match b.instrs, b.term with
            | [], Jump fwd when Array.length b.bparams > 0 && fwd.target <> b.label ->
              let subst args = function
                | Ovar v as op ->
                  (match Array.find_index (fun p -> p.vid = v.vid) b.bparams with
                   | Some q -> args.(q)
                   | None -> op)
                | op -> op
              in
              List.iter
                (fun p ->
                   match p.term with
                   | Jump j when j.target = b.label ->
                     p.term <-
                       Jump { target = fwd.target;
                              jargs = Array.map (subst j.jargs) fwd.jargs }
                   | _ -> ())
                f.blocks
            | _ -> ())
         f.blocks;
       (* drop the forwarders, now unreachable *)
       let cfg = Analysis.build_cfg f in
       f.blocks <- List.filter (fun b -> Analysis.reachable cfg b.label) f.blocks)
    p.funcs

let counted_rows =
  let row ?(bce = false) ?(thread_joins = false) ?(args = [ "10" ]) shape src
      ~strip_mined ~parloop =
    { shape; src; args; strip_mined; bce; parloop; thread_joins }
  in
  [ row "i <= n from 1" ~bce:true ~args:[ "{3, 1, 4, 1, 5}" ]
      {|Function[{Typed[v, "PackedArray"["Integer64", 1]]},
         Module[{s = 0, i = 1},
          While[i <= Length[v], s = s + v[[i]]; i = i + 1]; s]]|}
      ~strip_mined:true ~parloop:"rejected: integer overflow order is observable";
    row "i < n from 0" (real_sum ~init:0 ~guard:"i < n")
      ~strip_mined:true ~parloop:"parallelized reduce";
    row "short-circuit && guard"
      (real_sum ~init:0 ~guard:"i < n && s < 10.0")
      ~strip_mined:true ~parloop:"rejected: no counted exit test";
    row "step 2"
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 2]; s]]|}
      ~strip_mined:false ~parloop:"rejected: induction step is not +1";
    row "start -1" (real_sum ~init:(-1) ~guard:"i <= n")
      ~strip_mined:false ~parloop:"parallelized reduce";
    row "bound redefined in the body" ~args:[ "{3, 1, 4, 1, 5}" ]
      {|Function[{Typed[v, "PackedArray"["Integer64", 1]]},
         Module[{s = 0, i = 1, m = Length[v]},
          While[i <= m, s = s + v[[i]]; m = m - 1; i = i + 1]; s]]|}
      ~strip_mined:false ~parloop:"rejected: not a counted loop";
    row "two latches" ~thread_joins:true
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{s = 0.0, i = 1},
          While[i <= n, If[EvenQ[i], s = s + 1.0; i = i + 1, s = s + 2.0; i = i + 1]];
          s]]|}
      ~strip_mined:true ~parloop:"rejected: multiple latches";
    row "induction variable through a Copy"
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{s = 0.0, i = 1, j = 1},
          While[(j = i; j <= n), s = s + 0.5*j; i = i + 1]; s]]|}
      ~strip_mined:true ~parloop:"parallelized reduce";
    row "Real64 bound (Do)" ~args:[ "10.5" ]
      {|Function[{Typed[x, "Real64"]}, Module[{s = 0}, Do[s = s + i, {i, x}]; s]]|}
      ~strip_mined:false ~parloop:"rejected: not a counted loop";
    row "Real64 bound (While)" ~args:[ "10.5" ]
      {|Function[{Typed[x, "Real64"]},
         Module[{s = 0.0, i = 1}, While[i <= x, s = s + 0.5*i; i = i + 1]; s]]|}
      ~strip_mined:false ~parloop:"rejected: not a counted loop" ]

let check_counted_row r () =
  let fexpr = parse r.src and args = List.map parse r.args in
  let reshape =
    if r.thread_joins then [ { Pipeline.pass_name = "thread-joins"; pass_run = thread_joins } ]
    else []
  in
  let run ~what ~options ?(user_passes = reshape) target =
    let cf =
      Wolfram.function_compile ~options:{ options with Options.use_cache = false }
        ~user_passes ~target fexpr
    in
    let v = Wolfram.call cf args in
    Alcotest.(check int) (what ^ ": no interpreter fallback") 0 (Wolfram.fallback_count cf);
    (cf, v)
  in
  let _, reference =
    run ~what:"-O0" ~options:{ Options.default with Options.opt_level = 0 } ~user_passes:[]
      Wolfram.Threaded
  in
  let check_value what v =
    let close =
      match reference, v with
      | Expr.Real a, Expr.Real b ->
        Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)
      | a, b -> Expr.equal a b
    in
    if not close then
      Alcotest.failf "%s: got %s, -O0 gives %s" what (Expr.to_string v)
        (Expr.to_string reference)
  in
  let cf, v = run ~what:"threaded" ~options:Options.default Wolfram.Threaded in
  check_value "threaded" v;
  let _, v = run ~what:"jit" ~options:Options.default Wolfram.Jit in
  check_value "jit" v;
  let prog = (Option.get (Wolfram.pipeline_of cf)).Pipeline.program in
  let main = Wir.main prog in
  let loops = Analysis.natural_loops main (Analysis.build_cfg main) in
  let hot_check_free =
    List.exists
      (fun (l : Analysis.loop) ->
         let hdr = Wir.find_block main l.Analysis.lheader in
         Analysis.innermost loops l && not (has_abort hdr || has_poll hdr))
      loops
  in
  let polls = count_instrs (function Wir.Abort_poll _ -> true | _ -> false) prog in
  Alcotest.(check bool) "strip-mined" r.strip_mined hot_check_free;
  Alcotest.(check int) "fallback polls" (if r.strip_mined then 0 else 1) polls;
  (* the prologue, plus the chunk header of a strip-mined loop *)
  Alcotest.(check int) "immediate checks" (if r.strip_mined then 2 else 1)
    (count_instrs (function Wir.Abort_check -> true | _ -> false) prog);
  let accesses suffix =
    count_instrs
      (fun i -> is_call ("part_get_1" ^ suffix) i || is_call ("string_byte" ^ suffix) i)
      prog
  in
  let unchecked = accesses "_unchecked" and checked = accesses "" in
  Alcotest.(check bool) "bounds checks removed" r.bce (unchecked > 0);
  if r.bce then Alcotest.(check int) "no checked access left" 0 checked;
  (* parloop runs before user passes, so a reshaped row runs it as the user
     pass after the reshape *)
  let par = { Options.default with Options.opt_level = 2; parallel_loops = true } in
  let cf, v =
    if r.thread_joins then
      let parloop =
        { Pipeline.pass_name = "parloop"; pass_run = (fun p -> ignore (Opt_parloop.run p)) }
      in
      run ~what:"parallel loops" ~options:{ par with Options.parallel_loops = false }
        ~user_passes:(reshape @ [ parloop ]) Wolfram.Threaded
    else run ~what:"parallel loops" ~options:par Wolfram.Threaded
  in
  check_value "parallel loops" v;
  let decisions =
    List.filter_map
      (fun (k, d) -> if String.starts_with ~prefix:"parloop." k then Some d else None)
      (Option.get (Wolfram.pipeline_of cf)).Pipeline.program.Wir.pmeta
  in
  match decisions with
  | [ d ] when String.starts_with ~prefix:r.parloop d -> ()
  | ds ->
    Alcotest.failf "parloop decisions [%s], want one starting %S"
      (String.concat "; " ds) r.parloop

let test_memory_pass_balance () =
  let c =
    compile
      {|Function[{Typed[v, "PackedArray"["Integer64", 1]]},
         Module[{a = v, b = 0}, b = a[[1]]; b]]|}
  in
  let acquires =
    count_instrs (function Wir.Mem_acquire _ -> true | _ -> false) c.Pipeline.program
  in
  let releases =
    count_instrs (function Wir.Mem_release _ -> true | _ -> false) c.Pipeline.program
  in
  Alcotest.(check bool) "aliasing copy acquires" true (acquires >= 1);
  Alcotest.(check int) "acquires balance releases" acquires releases

let test_memory_pass_skips_scalars () =
  let c = compile fn_src in
  Alcotest.(check int) "scalars unmanaged" 0
    (count_instrs
       (function Wir.Mem_acquire _ | Wir.Mem_release _ -> true | _ -> false)
       c.Pipeline.program)

let test_mutability_promotion () =
  (* fresh array, single update, dead afterwards -> proven in-place *)
  let c =
    compile
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{a = ConstantArray[0, n]}, a[[1]] = 7; 0]]|}
  in
  Alcotest.(check bool) "promoted" true ((Pipeline.inplace_updates c) >= 1);
  (* the store calls the in-place row, which every backend dispatches on *)
  Alcotest.(check int) "one in-place row" (Pipeline.inplace_updates c)
    (count_instrs
       (function
         | Wir.Call { callee = Wir.Resolved { base = "part_set_1_inplace"; mangled }; _ } ->
           String.starts_with ~prefix:"part_set_1_inplace_" mangled
         | _ -> false)
       c.Pipeline.program)

let test_mutability_blocked_by_alias () =
  (* the array is aliased by b which is still live: must stay checked *)
  let c =
    compile
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{a = ConstantArray[0, n], b = 0, keep = ConstantArray[0, n]},
          keep = a;
          a[[1]] = 7;
          b = keep[[1]] + a[[1]];
          b]]|}
  in
  let inplace =
    count_instrs
      (function
        | Wir.Call { callee = Wir.Resolved { base; _ }; _ } ->
          String.ends_with ~suffix:"_inplace" base
        | _ -> false)
      c.Pipeline.program
  in
  Alcotest.(check int) "aliased update stays checked" 0 inplace

(* The stores of a function, by the row they call, in program order. *)
let stores_of (f : Wir.func) =
  List.concat_map
    (fun (b : Wir.block) ->
       List.filter_map
         (function
           | Wir.Call { callee = Wir.Resolved { base; _ }; _ }
             when String.starts_with ~prefix:"part_set" base -> Some base
           | _ -> None)
         b.Wir.instrs)
    f.Wir.blocks

(* The stores of a corpus regression (replayed on every fuzz arm), and how
   many the mutability pass promoted. *)
let corpus_stores file =
  let c = compile (In_channel.with_open_bin ("corpus/" ^ file) In_channel.input_all) in
  (List.concat_map stores_of c.Pipeline.program.Wir.funcs, Pipeline.inplace_updates c)

(* b = a copies the array between its two stores, so the web of both
   stores has a use that is not a read, a store or a return: both keep the
   copy-on-write test (their constant indices are proved in range) *)
let test_mutability_corpus_regression () =
  Alcotest.(check (pair (list string) int)) "copy-on-write, twice"
    ([ "part_set_1_unchecked"; "part_set_1_unchecked" ], 0)
    (corpus_stores "regress-inplace-store-promotion.wl")

(* the store in the loop writes a copy of an array allocated before the
   loop; in place it would write that one array on every iteration (its
   index 1 + Mod[i, 3] is proved in range) *)
let test_mutability_loop_store_checked () =
  Alcotest.(check (pair (list string) int)) "copy-on-write" ([ "part_set_1_unchecked" ], 0)
    (corpus_stores "regress-inplace-store-in-loop.wl")

(* The Histogram shape on hand-built TWIR, and one variant per aliasing
   shape the mutability pass must reject:

   b0: a0 = constant_array_int(0, 3); a = Copy a0; Jump b1(a, 1)
   b1(p, i): c = i <= n; Branch c ? b2 : b3
   b2: x = p[[i]]; r = part_set_1(p, i, x + 1); Jump b1(r, i + 1)
   b3: Return p *)
type hist_variant =
  | Plain
  | Copied_before_loop   (* k = Copy a in b0, read in b3 *)
  | Captured             (* a closure in b2 captures p *)
  | Call_in_loop         (* t = Total[p] in b2: a pure row, scalar result *)
  | Pooled_literal       (* a = Copy of a constant array *)
  | Old_value_kept       (* p read after the store in b2 *)
  | Program_call         (* a program function g takes p in b2 *)
  | Closure_call         (* a closure value takes p in b2 *)
  | Calls_row            (* a row with the Calls effect takes p in b2 *)
  | Expr_result          (* Total[p] in b2 typed as an Expression *)

let hist_twir variant =
  let pa = Types.packed Types.int64 1 in
  let tensor () = Wir.fresh_var ~ty:pa () in
  let n = int_var () and a0 = tensor () and a = tensor () and k = tensor () in
  let p = tensor () and i = int_var () and c = Wir.fresh_var ~ty:Types.boolean () in
  let x = int_var () and y = int_var () and r = tensor () and i1 = int_var () in
  let extra = int_var () in
  let prim base mangled dst args =
    Wir.Call { dst; callee = Wir.Resolved { base; mangled }; args }
  in
  let v x = Wir.Ovar x in
  let alloc =
    match variant with
    | Pooled_literal ->
      [ copy a (Wir.Oconst (Wir.Cexpr (Expr.Tensor (Tensor.of_int_array [| 0; 0; 0 |])))) ]
    | _ ->
      [ prim "constant_array_int" "constant_array_int_I64_I64" a0 [| cint 0; cint 3 |];
        copy a (v a0) ]
  in
  let body_extra, after_store =
    match variant with
    | Captured -> ([ Wir.New_closure { dst = extra; fname = "g"; captured = [| v p |] } ], [])
    | Call_in_loop -> ([ prim "array_total" "array_total_PA_I64_1" extra [| v p |] ], [])
    | Program_call -> ([ Wir.Call { dst = extra; callee = Wir.Func "g"; args = [| v p |] } ], [])
    | Closure_call ->
      let g = Wir.fresh_var ~ty:(Types.fn [ pa ] Types.int64) () in
      ([ Wir.New_closure { dst = g; fname = "g"; captured = [||] };
         Wir.Call { dst = extra; callee = Wir.Indirect (v g); args = [| v p |] } ], [])
    | Calls_row ->
      ([ prim "parallel_reduce" "parallel_reduce" extra
           [| cint 0; v p; cint 1; v n; cint 0; cint 0 |] ], [])
    | Expr_result ->
      let e = Wir.fresh_var ~ty:Types.expression () in
      ([ prim "array_total" "array_total_PA_I64_1" e [| v p |] ], [])
    | Old_value_kept ->
      ([], [ prim "part_get_1" "part_get_1_PA_I64_1_I64" extra [| v p; cint 1 |] ])
    | Plain | Copied_before_loop | Pooled_literal -> ([], [])
  in
  let b0_extra, b3_instrs =
    match variant with
    | Copied_before_loop ->
      ([ copy k (v a) ], [ prim "part_get_1" "part_get_1_PA_I64_1_I64" extra [| v k; cint 1 |] ])
    | _ -> ([], [])
  in
  mk_f ~fparams:[| n |] ~ret_ty:(Some pa)
    [ block 0
        ([ Wir.Load_argument { dst = n; index = 0 } ] @ alloc @ b0_extra)
        (goto 1 ~args:[| v a; cint 1 |]);
      block 1 ~params:[| p; i |]
        [ prim "binary_less_equal" "binary_less_equal_I64_I64" c [| v i; v n |] ]
        (Wir.Branch { cond = v c; if_true = { target = 2; jargs = [||] };
                      if_false = { target = 3; jargs = [||] } });
      block 2
        (body_extra
         @ [ prim "part_get_1" "part_get_1_PA_I64_1_I64" x [| v p; v i |];
             prim "checked_binary_plus" "checked_binary_plus_I64_I64" y [| v x; cint 1 |];
             prim "part_set_1" "part_set_1_PA_I64_1_I64_I64" r [| v p; v i; v y |] ]
         @ after_store
         @ [ prim "checked_binary_plus" "checked_binary_plus_I64_I64" i1 [| v i; cint 1 |] ])
        (goto 1 ~args:[| v r; v i1 |]);
      block 3 b3_instrs (Wir.Return (v p)) ]

(* the plain shape, and a pure call in the loop that can neither keep p
   nor return it *)
let test_mutability_hist_promoted () =
  List.iter
    (fun (what, variant) ->
       let f = hist_twir variant in
       let promoted = Mutability_pass.run { Wir.funcs = [ f ]; pmeta = [] } in
       Alcotest.(check (list string)) (what ^ ": the store is in place") [ "part_set_1_inplace" ]
         (stores_of f);
       Alcotest.(check (list (pair (option int) int))) (what ^ ": one loop web, one store")
         [ (Some 1, 1) ]
         (List.map (fun p -> (p.Mutability_pass.pheader, p.Mutability_pass.pstores)) promoted);
       Alcotest.(check int) (what ^ ": the header carries only i") 1
         (Array.length (Wir.find_block f 1).Wir.bparams);
       (match (Wir.find_block f 0).Wir.term with
        | Wir.Jump { jargs; _ } ->
          Alcotest.(check int) (what ^ ": the entry passes only i") 1 (Array.length jargs)
        | _ -> Alcotest.fail "b0 no longer jumps");
       match Wir_verify.check_func f with
       | Ok () -> ()
       | Error es -> Alcotest.failf "%s: verifier: %s" what (String.concat "; " es))
    [ ("plain", Plain); ("passed to a pure call in the loop", Call_in_loop) ]

let test_mutability_alias_rows () =
  List.iter
    (fun (what, variant) ->
       let f = hist_twir variant in
       let promoted = Mutability_pass.run { Wir.funcs = [ f ]; pmeta = [] } in
       Alcotest.(check (pair (list string) int)) what ([ "part_set_1" ], 0)
         (stores_of f, List.length promoted);
       Alcotest.(check int) (what ^ ": the header still carries p") 2
         (Array.length (Wir.find_block f 1).Wir.bparams))
    [ ("copied before the loop", Copied_before_loop);
      ("captured by a closure", Captured);
      ("a pooled literal", Pooled_literal);
      ("the old value read after the store", Old_value_kept);
      ("passed to a program function", Program_call);
      ("passed to a closure", Closure_call);
      ("passed to a Calls row", Calls_row);
      ("passed to a call with an Expression result", Expr_result) ]

(* Min and Max of two Integer64 resolve to the rows, so a loop bounded by
   Min[w, Length[a]] is strip-mined and its read proved in range; Real64
   keeps the paper's polymorphic declaration, inlined as an If *)
let test_integer_min_max_rows () =
  let c =
    compile
      {|Function[{Typed[a, "PackedArray"["Integer64", 1]], Typed[w, "MachineInteger"]},
         Module[{c = 1, s = 0}, While[c <= Min[w, Length[a]], s = s + a[[c]]; c = c + 1];
          s + Max[w, 0]]]|}
  in
  let p = c.Pipeline.program in
  let calls base = count_instrs (is_call base) p in
  Alcotest.(check (list string)) "one function" [ "p" ]
    (List.map (fun (f : Wir.func) -> f.Wir.fname) p.Wir.funcs);
  Alcotest.(check bool) "Min and Max rows" true (calls "binary_min" >= 1 && calls "binary_max" = 1);
  Alcotest.(check int) "no abort poll" 0
    (count_instrs (function Wir.Abort_poll _ -> true | _ -> false) p);
  Alcotest.(check (pair int int)) "read proved" (1, 0)
    (calls "part_get_1_unchecked", calls "part_get_1");
  let r =
    compile {|Function[{Typed[x, "Real64"], Typed[y, "Real64"]}, Min[x, y] + Max[x, y]]|}
  in
  Alcotest.(check int) "Real64 Min/Max inlined, no row" 0
    (count_instrs (is_call "binary_min") r.Pipeline.program
     + count_instrs (is_call "binary_max") r.Pipeline.program)

(* QSort as a self-recursive function: Take reads left and right without
   keeping them, so their copies open no second reference *)
let test_memory_pass_pure_call_reads () =
  let module P = Bench_support.Programs in
  let options = { Options.default with Options.self_name = Some "qsort" } in
  let c = compile ~options P.qsort_src in
  Alcotest.(check int) "Take reads its argument" 2
    (count_instrs (is_call "array_take") c.Pipeline.program);
  Alcotest.(check int) "no acquire or release" 0
    (count_instrs
       (function Wir.Mem_acquire _ | Wir.Mem_release _ -> true | _ -> false)
       c.Pipeline.program)

(* QSort's partition loop: Take after the loop is a pure call with a fresh
   result, so both stores run in place and no loop header carries a tensor *)
let test_mutability_qsort_in_place () =
  let module P = Bench_support.Programs in
  let c = compile ~type_env:(P.qsort_type_env ()) P.qsort_driver_src in
  let f =
    List.find
      (fun (f : Wir.func) -> List.exists (String.starts_with ~prefix:"part_set") (stores_of f))
      c.Pipeline.program.Wir.funcs
  in
  Alcotest.(check (list string)) "both stores in place"
    [ "part_set_1_inplace"; "part_set_1_inplace" ] (stores_of f);
  let cfg = Analysis.build_cfg f in
  let headers = Analysis.loop_headers f cfg in
  Alcotest.(check bool) "a loop" true (headers <> []);
  List.iter
    (fun h ->
       let tensor (p : Wir.var) =
         match Option.map Types.repr p.Wir.vty with
         | Some (Types.Con ("PackedArray", _)) -> true
         | _ -> false
       in
       Alcotest.(check bool) (Printf.sprintf "b%d carries no tensor" h) false
         (Array.exists tensor (Wir.find_block f h).Wir.bparams))
    headers

(* the array is read in the loop and passed to Append after it *)
let test_mutability_append_after_loop () =
  let c =
    compile
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{bins = ConstantArray[0, 3], s = 0},
          Do[bins[[Mod[i, 3] + 1]] = bins[[Mod[i, 3] + 1]] + i; s = s + bins[[1]], {i, n}];
          Append[bins, s]]]|}
  in
  Alcotest.(check int) "one in-place store" 1 (Pipeline.inplace_updates c);
  let cf = Wolf_backends.Native.compile c in
  Alcotest.(check string) "the result at n = 10" (Expr.to_string (parse "{18, 22, 15, 72}"))
    (Expr.to_string
       (Wolf_runtime.Rtval.to_expr (cf.Wolf_runtime.Rtval.call [| Wolf_runtime.Rtval.Int 10 |])))

let test_user_pass_injection () =
  (* §4.7: users can inject passes into the pipeline *)
  let seen = ref 0 in
  let pass =
    { Pipeline.pass_name = "count-blocks";
      pass_run =
        (fun prog ->
           List.iter (fun f -> seen := !seen + List.length f.Wir.blocks) prog.Wir.funcs) }
  in
  let _ =
    Pipeline.compile ~user_passes:[ pass ] ~name:"p" (parse fn_src)
  in
  Alcotest.(check bool) "user pass ran" true (!seen > 0)

let test_pass_timings_recorded () =
  let c = compile fn_src in
  let names =
    List.filter_map
      (fun (s : Pass_manager.stat) -> if s.st_runs > 0 then Some s.st_pass else None)
      c.Pipeline.stats
  in
  List.iter
    (fun expected ->
       Alcotest.(check bool) expected true (List.mem expected names))
    [ "macro+binding+lower"; "type-inference"; "function-resolution";
      (* the optimisation fixpoint reports per-pass entries *)
      "fold"; "simplify-cfg"; "cse"; "licm"; "dce"; "bparam-elim"; "inline";
      "mutability"; "abort-insertion"; "abort-stride"; "memory-management" ]

(* The final TWIR and parloop decisions of the 600 corpus programs, at -O1
   and at -O2 with parallel loops, must match the checked-in digest.  A
   change that moves code generation on purpose regenerates it with
   [wolfc twir-digest > test/twir_digest.txt]; [--text-out] writes the
   digested text for a diff against the parent's. *)
let test_twir_digest () =
  let expected = String.trim (In_channel.with_open_bin "twir_digest.txt" In_channel.input_all) in
  Alcotest.(check string) "final-TWIR digest of perfbench/corpus.txt" expected
    (Wolf_fuzz.Twir_digest.digest (Corpus_pool.programs ()))

(* ---------------- range facts ---------------- *)

(* The program as the range analysis leaves it: a user pass runs after the
   optimisation fixpoint and before mutability and abort-stride rewrite
   the loops. *)
let at_range src probe =
  ignore
    (Pipeline.compile ~name:"p"
       ~user_passes:[ { Pipeline.pass_name = "probe"; pass_run = probe } ]
       (parse src))

let calls_in (f : Wir.func) labels =
  List.concat_map
    (fun (b : Wir.block) ->
       if List.mem b.Wir.label labels then
         List.filter_map
           (function Wir.Call { callee = Wir.Resolved { base; _ }; _ } -> Some base | _ -> None)
           b.Wir.instrs
       else [])
    f.Wir.blocks

let loops_of (f : Wir.func) = Analysis.natural_loops f (Analysis.build_cfg f)

let checked base =
  String.starts_with ~prefix:"checked_binary_" base
  || List.mem base [ "part_get_1"; "part_get_2"; "part_set_1"; "part_set_2"; "string_byte" ]

let fnv1a_src =
  {|Function[{Typed[s, "String"]},
     Module[{hash = 2166136261, i = 1, n = StringLength[s]},
      While[i <= n,
       hash = BitAnd[BitXor[hash, StringByte[s, i]] * 16777619, 4294967295];
       i = i + 1];
      hash]]|}

(* the byte read, the multiply and i + 1 are proved: the mask bounds the
   loop-carried hash, which bounds the product *)
let test_range_fnv1a () =
  let hash_range = ref false in
  at_range fnv1a_src (fun p ->
      let f = Wir.main p in
      List.iter
        (fun (l : Analysis.loop) ->
           Array.iter
             (fun v -> if Opt_range.bounds f v = (0, 4294967295) then hash_range := true)
             (Wir.find_block f l.Analysis.lheader).Wir.bparams)
        (loops_of f));
  Alcotest.(check bool) "the hash is in [0, 2^32 - 1]" true !hash_range;
  let f = Wir.main (compile fnv1a_src).Pipeline.program in
  let loops = loops_of f in
  let inner = List.filter (Analysis.innermost loops) loops in
  Alcotest.(check int) "one hot loop" 1 (List.length inner);
  let hot = calls_in f (List.hd inner).Analysis.lbody in
  Alcotest.(check (list string)) "no checked row in the hot loop" []
    (List.filter checked hot);
  Alcotest.(check bool) "the byte read is unchecked" true
    (List.mem "string_byte_unchecked" hot)

let blur_src =
  {|Function[{Typed[img, "PackedArray"["Real64", 2]], Typed[n, "MachineInteger"]},
     Module[{out = img*0.0, i = 2, j = 2},
      While[i < n,
       j = 2;
       While[j < n,
        out[[i, j]] =
          (img[[i-1, j-1]] + 2.0*img[[i-1, j]] + img[[i-1, j+1]]
           + 2.0*img[[i, j-1]] + 4.0*img[[i, j]] + 2.0*img[[i, j+1]]
           + img[[i+1, j-1]] + 2.0*img[[i+1, j]] + img[[i+1, j+1]]) / 16.0;
        j = j + 1];
       i = i + 1];
      out]]|}

(* Blur's nest is versioned on n <= Min[dims]: the guarded copy keeps no
   Part or overflow check, the fallback is the same code with all ten Part
   checks *)
let test_range_blur_versioned () =
  let nests = ref [] in
  at_range blur_src (fun p ->
      let f = Wir.main p in
      nests :=
        List.filter_map
          (fun (l : Analysis.loop) ->
             if l.Analysis.ldepth = 1 then Some (calls_in f l.Analysis.lbody) else None)
          (loops_of f));
  match List.partition (List.exists checked) !nests with
  | [ fallback ], [ guarded ] ->
    let count base calls = List.length (List.filter (( = ) base) calls) in
    Alcotest.(check (pair int int)) "fallback: nine checked reads, one checked store" (9, 1)
      (count "part_get_2" fallback, count "part_set_2" fallback);
    Alcotest.(check (pair int int)) "guarded: nine unchecked reads, one unchecked store" (9, 1)
      (count "part_get_2_unchecked" guarded, count "part_set_2_unchecked" guarded);
    let plain base =
      let base =
        if String.ends_with ~suffix:"_unchecked" base then
          String.sub base 0 (String.length base - 10)
        else base
      in
      if String.starts_with ~prefix:"checked_" base then
        String.sub base 8 (String.length base - 8)
      else base
    in
    Alcotest.(check (list string)) "the same rows but for the proofs"
      (List.map plain fallback) (List.map plain guarded)
  | checked_nests, clean ->
    Alcotest.failf "want one checked and one clean nest, got %d and %d"
      (List.length checked_nests) (List.length clean)

(* one copy runs per call: the guarded one when n fits the dims (a zero-trip
   nest either way), the checked one otherwise, which falls back to the
   interpreter and its Part error *)
let test_range_blur_runs () =
  let reference =
    Wolfram.function_compile_src ~options:{ Options.default with opt_level = 0 }
      ~target:Wolfram.Threaded blur_src
  in
  List.iter
    (fun target ->
       let f = Wolfram.function_compile_src ~target blur_src in
       List.iter
         (fun (image, n, fallbacks) ->
            let args = [ parse image; Expr.Int n ] in
            let run cf =
              match Wolfram.call cf args with
              | v -> Expr.to_string v
              | exception e -> Printexc.to_string e
            in
            let want = run reference in
            let before = Wolfram.fallback_count f in
            Alcotest.(check string) (Printf.sprintf "n = %d" n) want (run f);
            Alcotest.(check int) (Printf.sprintf "n = %d: fallbacks" n) fallbacks
              (Wolfram.fallback_count f - before))
         [ ("{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 9.0}}", 3, 0);
           ( "{{1.0, 2.0, 3.0, 4.0}, {5.0, 6.0, 7.0, 8.0}, {9.0, 1.0, 2.0, 3.0}, \
              {4.0, 5.0, 6.0, 7.0}}",
             4, 0 );
           ("{{1.0}}", 2, 0);
           ("{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 9.0}}", 4, 1) ])
    [ Wolfram.Threaded; Wolfram.Jit ]

(* checks a range fact must not remove *)
let test_range_keeps_checks () =
  let left src base =
    count_instrs (is_call base) (compile src).Pipeline.program
  in
  Alcotest.(check bool) "i <= 2^62 - 1 keeps its i + 1 check" true
    (left
       {|Function[{Typed[k, "MachineInteger"]},
          Module[{i = k, s = 0}, While[i <= 4611686018427387903, s = s + 1; i = i + 1]; s]]|}
       "checked_binary_plus"
     > 0);
  Alcotest.(check bool) "t[[-i]] keeps its check" true
    (left
       {|Function[{Typed[v, "PackedArray"["Integer64", 1]]},
          Module[{s = 0, i = 1}, While[i <= Length[v], s = s + v[[-i]]; i = i + 1]; s]]|}
       "part_get_1"
     > 0)

let tests =
  [ Alcotest.test_case "lint accepts pipeline output" `Quick test_lint_accepts_pipeline_output;
    Alcotest.test_case "final TWIR matches the checked-in digest" `Quick test_twir_digest;
    Alcotest.test_case "lint rejects double definition" `Quick test_lint_catches_double_def;
    Alcotest.test_case "lint rejects use before def" `Quick test_lint_catches_use_before_def;
    Alcotest.test_case "verify rejects use before def" `Quick test_verify_use_before_def;
    Alcotest.test_case "verify rejects bad jump arity" `Quick test_verify_bad_jump_arity;
    Alcotest.test_case "verify checks resolved calls against the primitive table" `Quick
      test_verify_mistyped_prim;
    Alcotest.test_case "declared primitives have table rows" `Quick
      test_declared_prims_have_rows;
    Alcotest.test_case "verify rejects jump type mismatch" `Quick test_verify_jump_type_mismatch;
    Alcotest.test_case "verify rejects copy type mismatch" `Quick test_verify_copy_type_mismatch;
    Alcotest.test_case "verify rejects orphan blocks" `Quick test_verify_orphan_block;
    Alcotest.test_case "verify rejects bad terminators" `Quick test_verify_bad_terminator;
    Alcotest.test_case "verify rejects return type mismatch" `Quick test_verify_return_type_mismatch;
    Alcotest.test_case "verify rejects load-argument range" `Quick test_verify_load_argument_range;
    Alcotest.test_case "verify rejects call-arity mismatch" `Quick test_verify_call_arity_program;
    Alcotest.test_case "verify accepts pipeline output at O0/1/2" `Quick test_verify_accepts_every_corpus_stage;
    Alcotest.test_case "verify dominance rows" `Quick test_verify_dominance_rows;
    Alcotest.test_case "cfg tolerates malformed IR" `Quick test_cfg_tolerates_malformed_ir;
    Alcotest.test_case "verify accepts the benchmark corpus" `Quick test_verify_accepts_benchmark_corpus;
    Alcotest.test_case "live heap flat over repeated compiles" `Quick
      test_live_heap_flat_over_compiles;
    Alcotest.test_case "loop headers" `Quick test_loop_headers;
    Alcotest.test_case "nested loop headers" `Quick test_nested_loop_headers;
    Alcotest.test_case "dominance" `Quick test_dominance;
    Alcotest.test_case "natural loops: nesting" `Quick test_natural_loops_nested;
    Alcotest.test_case "natural loops: retreating edge" `Quick test_retreating_edge_not_loop;
    Alcotest.test_case "natural loops: self loop" `Quick test_self_loop;
    Alcotest.test_case "preheader insertion" `Quick test_preheader_reuse_and_insert;
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "folding builds no array" `Quick test_fold_builds_no_array;
    Alcotest.test_case "dead-branch deletion" `Quick test_dead_branch_deletion;
    Alcotest.test_case "common subexpressions" `Quick test_cse;
    Alcotest.test_case "dead code elimination" `Quick test_dce;
    Alcotest.test_case "optimisation can be disabled" `Quick test_optimization_off;
    Alcotest.test_case "declared functions inline" `Quick test_inlining_of_declared_function;
    Alcotest.test_case "loop-invariant code motion" `Quick test_licm_hoists_invariant;
    Alcotest.test_case "licm can be disabled" `Quick test_licm_disabled;
    Alcotest.test_case "licm keeps an overflow in a zero-trip loop" `Quick
      test_licm_keeps_overflow_in_zero_trip_loop;
    Alcotest.test_case "abort checks at loop heads + prologue" `Quick test_abort_placement;
    Alcotest.test_case "abort stride 1 keeps immediate checks" `Quick test_abort_stride_disabled;
    Alcotest.test_case "abort stride spares outer headers" `Quick test_abort_stride_outer_keeps_check;
    Alcotest.test_case "abort handling off" `Quick test_abort_disabled;
    Alcotest.test_case "memory pass balance" `Quick test_memory_pass_balance;
    Alcotest.test_case "memory pass ignores scalars" `Quick test_memory_pass_skips_scalars;
    Alcotest.test_case "mutability promotion" `Quick test_mutability_promotion;
    Alcotest.test_case "aliased update stays checked" `Quick test_mutability_blocked_by_alias;
    Alcotest.test_case "in-place corpus regression" `Quick test_mutability_corpus_regression;
    Alcotest.test_case "store in a loop after an outer allocation stays checked" `Quick
      test_mutability_loop_store_checked;
    Alcotest.test_case "loop-carried array promoted (Histogram TWIR)" `Quick
      test_mutability_hist_promoted;
    Alcotest.test_case "aliased loop-carried arrays stay checked" `Quick
      test_mutability_alias_rows;
    Alcotest.test_case "QSort's stores run in place" `Quick test_mutability_qsort_in_place;
    Alcotest.test_case "integer Min and Max are rows" `Quick test_integer_min_max_rows;
    Alcotest.test_case "memory pass: a pure call reads" `Quick test_memory_pass_pure_call_reads;
    Alcotest.test_case "a store before Append after its loop runs in place" `Quick
      test_mutability_append_after_loop;
    Alcotest.test_case "user pass injection (§4.7)" `Quick test_user_pass_injection;
    Alcotest.test_case "range facts: FNV1a" `Quick test_range_fnv1a;
    Alcotest.test_case "range facts: Blur versioned" `Quick test_range_blur_versioned;
    Alcotest.test_case "range facts: Blur runs either copy" `Quick test_range_blur_runs;
    Alcotest.test_case "range facts keep checks" `Quick test_range_keeps_checks;
    Alcotest.test_case "per-pass timings (E8)" `Quick test_pass_timings_recorded ]
  @ List.map
      (fun r -> Alcotest.test_case ("counted loop: " ^ r.shape) `Quick (check_counted_row r))
      counted_rows
