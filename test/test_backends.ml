(* Backends (S21–S24): differential execution across the interpreter, the
   threaded backend, the ocamlopt JIT and the WVM, plus soft failure, abort
   behaviour, closures, and a random-program differential property. *)

open Wolf_wexpr
open Wolf_compiler
open Wolf_runtime
module B = Wolf_backends

let parse = Parser.parse
let expr = Alcotest.testable (Fmt.of_to_string Expr.to_string) Expr.equal

let jit_on = lazy (B.Jit.available ())

(* Compile [src] and run on every backend; every result must equal the
   interpreter's evaluation of the same application. *)
let differential ?options ?type_env ?(wvm = true) name src (args : Expr.t list) =
  Wolfram.init ();
  B.Compiled_function.quiet := true;
  let fexpr = parse src in
  let args_a = Array.of_list args in
  let reference = Wolf_kernel.Session.eval (Expr.Normal (fexpr, args_a)) in
  let c = Pipeline.compile ?options ?type_env ~name fexpr in
  let vals = Array.map Rtval.of_expr args_a in
  let native = B.Native.compile c in
  Alcotest.check expr (name ^ "/threaded") reference
    (Rtval.to_expr (native.Rtval.call vals));
  if Lazy.force jit_on then begin
    match B.Jit.compile c with
    | Ok j ->
      Alcotest.check expr (name ^ "/jit") reference (Rtval.to_expr (j.Rtval.call vals))
    | Error e -> Alcotest.failf "%s: jit compile failed: %s" name e
  end;
  if wvm then begin
    let w = B.Wvm.compile fexpr in
    Alcotest.check expr (name ^ "/wvm") reference (B.Wvm.call w args_a)
  end

let test_scalar_programs () =
  differential "addone" {|Function[{Typed[n, "MachineInteger"]}, n + 1]|} [ Expr.Int 41 ];
  differential "arith"
    {|Function[{Typed[n, "MachineInteger"]}, (n*3 - 4)*(n + 2)]|} [ Expr.Int 7 ];
  differential "reals" {|Function[{Typed[x, "Real64"]}, Sin[x]*Cos[x] + x^2]|}
    [ Expr.Real 0.37 ];
  differential "mixed promote" {|Function[{Typed[n, "MachineInteger"]}, n/2.0 + 1]|}
    [ Expr.Int 9 ];
  differential "mod quotient"
    {|Function[{Typed[n, "MachineInteger"]}, Mod[n, 7]*100 + Quotient[n, 7]]|}
    [ Expr.Int (-23) ];
  differential "bits"
    {|Function[{Typed[n, "MachineInteger"]}, BitXor[BitAnd[n, 255], BitShiftLeft[1, 4]]]|}
    [ Expr.Int 10_000 ];
  differential "booleans"
    {|Function[{Typed[n, "MachineInteger"]}, n > 2 && (n < 10 || EvenQ[n])]|}
    [ Expr.Int 5 ];
  differential "min max"
    {|Function[{Typed[a, "MachineInteger"], Typed[b, "MachineInteger"]}, Min[a, b]*Max[a, b]]|}
    [ Expr.Int 3; Expr.Int 8 ];
  differential "power int" {|Function[{Typed[n, "MachineInteger"]}, n^13]|} [ Expr.Int 3 ];
  differential "floor ceiling"
    {|Function[{Typed[x, "Real64"]}, Floor[x]*10 + Ceiling[x]]|} [ Expr.Real 2.3 ]

let test_control_flow_programs () =
  differential "if value" {|Function[{Typed[n, "MachineInteger"]}, If[n > 0, n, -n]]|}
    [ Expr.Int (-9) ];
  differential "sum loop"
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 1]; s]]|}
    [ Expr.Int 100 ];
  differential "nested loops"
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{s = 0, i = 1, j = 1},
        While[i <= n, j = 1; While[j <= i, s = s + j; j = j + 1]; i = i + 1];
        s]]|}
    [ Expr.Int 12 ];
  differential "do loop"
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{s = 1}, Do[s = s*2, {n}]; s]]|}
    [ Expr.Int 10 ];
  differential "for loop"
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{t = 0}, For[i = 1, i <= n, i++, t = t + i*i]; t]]|}
    [ Expr.Int 6 ];
  differential "early condition side effects"
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{i = 0, c = 0}, While[(i = i + 1) <= n, c = c + 1]; i*100 + c]]|}
    [ Expr.Int 5 ]

let test_string_programs () =
  (* strings are not WVM-representable (L1) *)
  differential ~wvm:false "string length"
    {|Function[{Typed[s, "String"]}, StringLength[s] + 1]|} [ Expr.Str "hello" ];
  differential ~wvm:false "string join"
    {|Function[{Typed[s, "String"]}, s <> "!"]|} [ Expr.Str "hi" ];
  differential ~wvm:false "char codes"
    {|Function[{Typed[s, "String"]}, Total[ToCharacterCode[s]]]|} [ Expr.Str "AB" ]

let test_array_programs () =
  let v = parse "{3, 1, 4, 1, 5, 9, 2, 6}" in
  differential "array sum"
    {|Function[{Typed[v, "PackedArray"["Integer64", 1]]},
       Module[{s = 0, i = 1, n = Length[v]}, While[i <= n, s = s + v[[i]]; i = i + 1]; s]]|}
    [ v ];
  differential "array total prim"
    {|Function[{Typed[v, "PackedArray"["Integer64", 1]]}, Total[v]]|} [ v ];
  differential "array reverse"
    {|Function[{Typed[v, "PackedArray"["Integer64", 1]]}, Reverse[v]]|} [ v ];
  differential "negative index"
    {|Function[{Typed[v, "PackedArray"["Integer64", 1]]}, v[[-1]] + v[[-2]]]|} [ v ];
  differential "range build"
    {|Function[{Typed[n, "MachineInteger"]}, Total[Range[n]]]|} [ Expr.Int 50 ];
  differential "matrix access"
    {|Function[{Typed[m, "PackedArray"["Real64", 2]]}, m[[2, 1]] + m[[1, 2]]]|}
    [ parse "{{1.0, 2.0}, {3.0, 4.0}}" ];
  differential "dot"
    {|Function[{Typed[a, "PackedArray"["Real64", 2]], Typed[b, "PackedArray"["Real64", 2]]},
       a . b]|}
    [ parse "{{1.0, 2.0}, {3.0, 4.0}}"; parse "{{5.0, 6.0}, {7.0, 8.0}}" ]

let test_array_mutation_program () =
  differential "histogram small"
    {|Function[{Typed[data, "PackedArray"["Integer64", 1]]},
       Module[{bins = ConstantArray[0, 4], i = 1, n = Length[data], b = 0},
        While[i <= n, b = data[[i]] + 1; bins[[b]] = bins[[b]] + 1; i = i + 1];
        bins]]|}
    [ parse "{0, 1, 2, 3, 1, 2, 2}" ]

let test_mutability_isolated () =
  (* compiled code must not mutate the interpreter's copy *)
  differential "caller array untouched"
    {|Function[{Typed[a0, "PackedArray"["Integer64", 1]]},
       Module[{a = a0, b = 0}, b = a[[3]]; a[[3]] = -20; b - a[[3]]]]|}
    [ parse "{1, 2, 3}" ]

let test_closures () =
  differential ~wvm:false "closure capture"
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{f = Function[{x}, x + n]}, f[10] + f[20]]]|}
    [ Expr.Int 5 ];
  differential ~wvm:false "closure over loop result"
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{k = 0, g = 0},
        k = n*2;
        Module[{f = Function[{x}, x*k]}, f[3]]]]|}
    [ Expr.Int 4 ]

let test_recursion () =
  (* the interpreter cannot be the reference here (cfib is only defined as a
     compiled self-reference), so assert the known value on both backends *)
  let options = { Options.default with Options.self_name = Some "cfib" } in
  let c =
    Pipeline.compile ~options ~name:"cfib"
      (parse {|Function[{Typed[n, "MachineInteger"]}, If[n < 1, 1, cfib[n-1] + cfib[n-2]]]|})
  in
  let nat = B.Native.compile c in
  Alcotest.check expr "threaded" (Expr.Int 1597)
    (Rtval.to_expr (nat.Rtval.call [| Rtval.Int 15 |]));
  if Lazy.force jit_on then
    match B.Jit.compile c with
    | Ok j ->
      Alcotest.check expr "jit" (Expr.Int 1597)
        (Rtval.to_expr (j.Rtval.call [| Rtval.Int 15 |]))
    | Error e -> Alcotest.failf "jit: %s" e

let test_soft_failure_both_backends () =
  Wolfram.init ();
  B.Compiled_function.quiet := true;
  let src =
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{acc = 1, i = 1}, While[i <= n, acc = acc*i; i = i + 1]; acc]]|}
  in
  List.iter
    (fun target ->
       let cf = Wolfram.function_compile ~target ~name:"factsf" (parse src) in
       (match Wolfram.call cf [ Expr.Int 20 ] with
        | Expr.Int 2432902008176640000 -> ()
        | v -> Alcotest.failf "20! wrong: %s" (Expr.to_string v));
       match Wolfram.call cf [ Expr.Int 25 ] with
       | Expr.Big b ->
         Alcotest.(check string) "25! exact via fallback"
           "15511210043330985984000000" (Wolf_base.Bignum.to_string b)
       | v -> Alcotest.failf "no fallback: %s" (Expr.to_string v))
    [ Wolfram.Threaded; (if Lazy.force jit_on then Wolfram.Jit else Wolfram.Threaded) ];
  (* the WVM also reverts (F2) *)
  let w = B.Wvm.compile (parse {|Function[{Typed[x, "MachineInteger"]}, x*x]|}) in
  match B.Wvm.call w [| Expr.Int 4611686018427387904 |] with
  | Expr.Big _ -> ()
  | v -> Alcotest.failf "WVM overflow did not revert: %s" (Expr.to_string v)

let test_part_error_soft_failure () =
  Wolfram.init ();
  B.Compiled_function.quiet := true;
  let cf =
    Wolfram.function_compile ~target:Wolfram.Threaded ~name:"oob"
      (parse
         {|Function[{Typed[v, "PackedArray"["Integer64", 1]], Typed[i, "MachineInteger"]},
            v[[i]]]|})
  in
  (* in range: compiled; out of range: falls back to the interpreter, which
     leaves the Part unevaluated (a Part head survives) *)
  Alcotest.check expr "in range" (Expr.Int 20)
    (Wolfram.call cf [ parse "{10, 20}"; Expr.Int 2 ]);
  match Wolfram.call cf [ parse "{10, 20}"; Expr.Int 5 ] with
  | exception Wolf_base.Errors.Runtime_error _ -> ()
  | v ->
    (* interpreter re-evaluation raises Part error too; accept symbolic *)
    Alcotest.(check bool) "not a bogus number" true
      (match v with Expr.Int _ -> false | _ -> true)

let test_abort_compiled () =
  Wolfram.init ();
  let src =
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{i = 0}, While[i < n, i = i + 1]; i]]|}
  in
  let check_backend name entry =
    Wolf_base.Abort_signal.clear ();
    Wolf_base.Abort_signal.abort_after 5;
    (match entry () with
     | exception Wolf_base.Abort_signal.Aborted -> ()
     | _ -> Alcotest.failf "%s: loop not aborted" name);
    Wolf_base.Abort_signal.clear ()
  in
  let c = Pipeline.compile ~name:"spin" (parse src) in
  let nat = B.Native.compile c in
  check_backend "threaded" (fun () -> nat.Rtval.call [| Rtval.Int max_int |]);
  if Lazy.force jit_on then begin
    match B.Jit.compile c with
    | Ok j -> check_backend "jit" (fun () -> j.Rtval.call [| Rtval.Int max_int |])
    | Error e -> Alcotest.failf "jit: %s" e
  end;
  let w = B.Wvm.compile (parse src) in
  check_backend "wvm" (fun () -> B.Wvm.call_values w [| Rtval.Int max_int |])

let test_abort_strided_loop () =
  (* at -O1+ the counted spin loop is strip-mined: no per-iteration check
     instruction remains, and the real check runs once per chunk in the new
     outer loop.  Abort[] must still interrupt it within one stride on every
     backend, and an unaborted run must return the exact trip count. *)
  Wolfram.init ();
  let src =
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{i = 0}, While[i < n, i = i + 1]; i]]|}
  in
  let c = Pipeline.compile ~name:"spin" (parse src) in
  let count pred =
    List.fold_left
      (fun acc (f : Wir.func) ->
         List.fold_left
           (fun acc (b : Wir.block) ->
              acc + List.length (List.filter pred b.Wir.instrs))
           acc f.Wir.blocks)
      0 c.Pipeline.program.Wir.funcs
  in
  Alcotest.(check int) "no per-iteration polls (strip-mined)" 0
    (count (function Wir.Abort_poll _ -> true | _ -> false));
  Alcotest.(check int) "checks: prologue + chunk header" 2
    (count (function Wir.Abort_check -> true | _ -> false));
  let stride = Options.default.Options.abort_stride in
  let run name entry =
    Wolf_base.Abort_signal.clear ();
    (match entry 10 with
     | Rtval.Int 10 -> ()
     | v -> Alcotest.failf "%s: unexpected %s" name (Rtval.type_name v)
     | exception e -> Alcotest.failf "%s: %s" name (Printexc.to_string e));
    Wolf_base.Abort_signal.clear ();
    Wolf_base.Abort_signal.abort_after 2;
    (match entry (10 * stride) with
     | exception Wolf_base.Abort_signal.Aborted -> ()
     | _ -> Alcotest.failf "%s: strided loop not aborted" name);
    Wolf_base.Abort_signal.clear ()
  in
  let nat = B.Native.compile c in
  run "threaded" (fun n -> nat.Rtval.call [| Rtval.Int n |]);
  if Lazy.force jit_on then begin
    match B.Jit.compile c with
    | Ok j -> run "jit" (fun n -> j.Rtval.call [| Rtval.Int n |])
    | Error e -> Alcotest.failf "jit: %s" e
  end;
  let w = B.Wvm.compile (parse src) in
  run "wvm" (fun n -> B.Wvm.call_values w [| Rtval.Int n |])

(* A real Abort[] — [request] from another domain, nothing armed — must
   stop compiled code through the one-load fast path of the check.  Two
   targets per backend: a spin loop, and a self-recursive function with no
   loops, which only prologue checks can stop (on the WVM, which has no
   prologue checks, the self-call escapes to the interpreter and its step
   polls stop it).  Each target finishes in bounded time if the abort is
   lost, so a broken fast path fails instead of hanging. *)
let test_abort_request_fast_path () =
  Wolfram.init ();
  B.Compiled_function.quiet := true;
  let spin_src =
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{i = 0}, While[i < n, i = i + 1]; i]]|}
  in
  let rec_src name =
    Printf.sprintf
      {|Function[{Typed[n, "MachineInteger"]}, If[n < 1, 1, %s[n-1] + %s[n-2]]]|}
      name name
  in
  let spin = Pipeline.compile ~name:"spin" (parse spin_src) in
  let recur =
    Pipeline.compile
      ~options:{ Options.default with Options.self_name = Some "crec" }
      ~name:"crec" (parse (rec_src "crec"))
  in
  let interrupt name entry =
    Wolf_base.Abort_signal.clear ();
    Alcotest.(check bool) (name ^ ": state word unarmed") false
      (Wolf_base.Abort_signal.armed ());
    let stopper =
      Domain.spawn (fun () -> Unix.sleepf 0.01; Wolf_base.Abort_signal.request ())
    in
    let outcome =
      match entry () with
      | exception Wolf_base.Abort_signal.Aborted -> `Aborted
      | _ -> `Finished
    in
    Domain.join stopper;
    Wolf_base.Abort_signal.clear ();
    Alcotest.(check bool) (name ^ ": stopped by a request") true
      (outcome = `Aborted)
  in
  (* sizes: each target runs for a second or more on its backend *)
  let on_backend backend ~spin ~recursion =
    interrupt (backend ^ "/spin") spin;
    interrupt (backend ^ "/recursion") recursion
  in
  let call1 (f : Rtval.closure) n () = f.Rtval.call [| Rtval.Int n |] in
  on_backend "threaded"
    ~spin:(call1 (B.Native.compile spin) (1 lsl 24))
    ~recursion:(call1 (B.Native.compile recur) 31);
  if Lazy.force jit_on then begin
    match B.Jit.compile spin, B.Jit.compile recur with
    | Ok js, Ok jr ->
      on_backend "jit" ~spin:(call1 js (1 lsl 29)) ~recursion:(call1 jr 38)
    | Error e, _ | _, Error e -> Alcotest.failf "jit: %s" e
  end;
  let wvm_rec =
    Wolfram.function_compile ~target:Wolfram.Bytecode (parse (rec_src "wrec"))
  in
  Wolfram.install "wrec" wvm_rec;
  let wvm_spin = B.Wvm.compile (parse spin_src) in
  on_backend "wvm"
    ~spin:(fun () -> B.Wvm.call_values wvm_spin [| Rtval.Int (1 lsl 25) |])
    ~recursion:(fun () -> Wolfram.call_values wvm_rec [ Rtval.Int 28 ])

let test_abort_disabled_runs_to_completion () =
  let options = { Options.default with Options.abort_handling = false } in
  let c =
    Pipeline.compile ~options ~name:"spin"
      (parse
         {|Function[{Typed[n, "MachineInteger"]},
            Module[{i = 0}, While[i < n, i = i + 1]; i]]|})
  in
  let nat = B.Native.compile c in
  Wolf_base.Abort_signal.clear ();
  Wolf_base.Abort_signal.abort_after 5;
  (* without inserted checks the loop cannot observe the abort *)
  (match nat.Rtval.call [| Rtval.Int 100_000 |] with
   | Rtval.Int 100_000 -> ()
   | v -> Alcotest.failf "unexpected %s" (Rtval.type_name v));
  Wolf_base.Abort_signal.clear ()

let test_wvm_limitations () =
  (* L1: strings and function values are not representable *)
  let rejects src =
    match B.Wvm.compile (parse src) with
    | exception Wolf_base.Errors.Compile_error _ -> ()
    | _ -> Alcotest.failf "WVM accepted: %s" src
  in
  rejects {|Function[{Typed[s, "String"]}, StringLength[s]]|};
  rejects {|Function[{Typed[n, "MachineInteger"]}, Module[{f = Function[{x}, x]}, f[n]]]|};
  (* untyped arguments assume Real (§2.2) *)
  let w = B.Wvm.compile (parse "Function[{x}, x + x]") in
  match B.Wvm.call w [| Expr.Int 2 |] with
  | Expr.Real 4.0 -> ()
  | v -> Alcotest.failf "untyped arg not treated as Real: %s" (Expr.to_string v)

let test_wvm_interpreter_escape () =
  (* unsupported expressions compile to interpreter escapes, not errors *)
  Wolfram.init ();
  ignore (Wolfram.interpret "escapee[x_] := x*100");
  let w =
    B.Wvm.compile (parse {|Function[{Typed[n, "MachineInteger"]}, escapee[n] + 1]|})
  in
  Alcotest.check expr "escape result" (Expr.Int 501) (B.Wvm.call w [| Expr.Int 5 |])

let test_kernel_function_escape () =
  (* KernelFunction only reduces in compiled code; assert the value *)
  Wolfram.init ();
  ignore (Wolfram.interpret "esc9[x_] := x + 1000");
  let c =
    Pipeline.compile ~name:"esc"
      (parse
         {|Function[{Typed[n, "MachineInteger"]},
            FromExpression[KernelFunction[esc9][n]] * 2]|})
  in
  let nat = B.Native.compile c in
  Alcotest.check expr "threaded" (Expr.Int 2002)
    (Rtval.to_expr (nat.Rtval.call [| Rtval.Int 1 |]));
  if Lazy.force jit_on then
    match B.Jit.compile c with
    | Ok j ->
      Alcotest.check expr "jit" (Expr.Int 2002)
        (Rtval.to_expr (j.Rtval.call [| Rtval.Int 1 |]))
    | Error e -> Alcotest.failf "jit: %s" e

(* the paper's A.7 Mandelbrot, verbatim modulo surface syntax: compiled
   ComplexReal64 arithmetic on all backends *)
let test_complex_mandelbrot () =
  let src =
    {|Function[{Typed[pixel0, "ComplexReal64"]},
       Module[{iters = 1, maxIters = 1000, pixel = pixel0},
        While[iters < maxIters && Abs[pixel] < 2,
         pixel = pixel^2 + pixel0;
         iters++];
        iters]]|}
  in
  (* hand-computed reference on (re, im) pairs *)
  let reference (cr, ci) =
    let zr = ref cr and zi = ref ci and iters = ref 1 in
    while !iters < 1000 && Float.hypot !zr !zi < 2.0 do
      let t = (!zr *. !zr) -. (!zi *. !zi) +. cr in
      zi := (2.0 *. !zr *. !zi) +. ci;
      zr := t;
      incr iters
    done;
    !iters
  in
  let c = Pipeline.compile ~name:"cmandel" (parse src) in
  let nat = B.Native.compile c in
  let jit = if Lazy.force jit_on then Result.to_option (B.Jit.compile c) else None in
  let w = B.Wvm.compile (parse src) in
  List.iter
    (fun (cr, ci) ->
       let expected = reference (cr, ci) in
       let p = [| Rtval.Complex (cr, ci) |] in
       Alcotest.(check int)
         (Printf.sprintf "threaded (%g,%g)" cr ci)
         expected (Rtval.as_int (nat.Rtval.call p));
       (match jit with
        | Some j ->
          Alcotest.(check int)
            (Printf.sprintf "jit (%g,%g)" cr ci)
            expected (Rtval.as_int (j.Rtval.call p))
        | None -> ());
       Alcotest.(check int)
         (Printf.sprintf "wvm (%g,%g)" cr ci)
         expected (Rtval.as_int (B.Wvm.call_values w p)))
    [ (-0.5, 0.5); (0.3, 0.6); (-1.0, 0.0); (0.0, 1.01); (0.25, 0.0) ]

let test_expression_type () =
  differential ~wvm:false "symbolic plus"
    {|Function[{Typed[a, "Expression"], Typed[b, "Expression"]}, a + b]|}
    [ parse "x"; parse "Cos[y] + Sin[z]" ]

(* random straight-line integer programs, differential against the kernel *)
let gen_int_program : (string * int) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let rec gen_expr depth =
    if depth = 0 then
      oneof [ return "n"; map string_of_int (int_range (-20) 20) ]
    else begin
      let sub = gen_expr (depth - 1) in
      oneof
        [ sub;
          map2 (Printf.sprintf "(%s + %s)") sub sub;
          map2 (Printf.sprintf "(%s - %s)") sub sub;
          map2 (Printf.sprintf "(%s * %s)") sub sub;
          map2 (Printf.sprintf "Min[%s, %s]") sub sub;
          map2 (Printf.sprintf "Max[%s, %s]") sub sub;
          map2 (Printf.sprintf "If[%s > %s, 1, 2]") sub sub;
          map (Printf.sprintf "Abs[%s]") sub ]
    end
  in
  pair
    (map
       (Printf.sprintf {|Function[{Typed[n, "MachineInteger"]}, %s]|})
       (gen_expr 4))
    (int_range (-50) 50)

let prop_differential =
  QCheck2.Test.make ~name:"random programs: compiled = interpreted" ~count:150
    gen_int_program
    (fun (src, n) ->
       Wolfram.init ();
       B.Compiled_function.quiet := true;
       let fexpr = parse src in
       let reference =
         Wolf_kernel.Session.eval (Expr.Normal (fexpr, [| Expr.Int n |]))
       in
       let cf = Wolfram.function_compile ~target:Wolfram.Threaded ~name:"rand" fexpr in
       (* the wrapper's soft fallback makes overflowing cases agree too *)
       Expr.equal reference (Wolfram.call cf [ Expr.Int n ]))

(* options must never change results: -O0 vs -O1, abort on/off, inlining
   on/off all agree on random programs *)
let prop_options_semantics_preserving =
  QCheck2.Test.make ~name:"optimisation/abort/inline options preserve semantics"
    ~count:100 gen_int_program
    (fun (src, n) ->
       Wolfram.init ();
       B.Compiled_function.quiet := true;
       let fexpr = parse src in
       let variants =
         [ Options.default;
           { Options.default with Options.opt_level = 0 };
           { Options.default with Options.abort_handling = false };
           { Options.default with Options.inline_level = 0 };
           { Options.default with Options.memory_management = false } ]
       in
       let results =
         List.map
           (fun options ->
              let c = Pipeline.compile ~options ~name:"opt" fexpr in
              let f = B.Native.compile c in
              match f.Rtval.call [| Rtval.Int n |] with
              | v -> Rtval.to_expr v
              | exception Wolf_base.Errors.Runtime_error _ -> Expr.sym "Overflow")
           variants
       in
       match results with
       | first :: rest -> List.for_all (Expr.equal first) rest
       | [] -> true)

let tests =
  [ Alcotest.test_case "scalar programs" `Quick test_scalar_programs;
    Alcotest.test_case "control flow" `Quick test_control_flow_programs;
    Alcotest.test_case "strings" `Quick test_string_programs;
    Alcotest.test_case "arrays" `Quick test_array_programs;
    Alcotest.test_case "array mutation" `Quick test_array_mutation_program;
    Alcotest.test_case "mutability isolation (F5)" `Quick test_mutability_isolated;
    Alcotest.test_case "closures" `Quick test_closures;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "soft numerical failure (F2)" `Quick test_soft_failure_both_backends;
    Alcotest.test_case "part-error soft failure" `Quick test_part_error_soft_failure;
    Alcotest.test_case "abortable compiled loops (F3)" `Quick test_abort_compiled;
    Alcotest.test_case "strided polls stay abortable" `Quick test_abort_strided_loop;
    Alcotest.test_case "Abort[] request via the unarmed fast path" `Quick
      test_abort_request_fast_path;
    Alcotest.test_case "abort handling disabled" `Quick test_abort_disabled_runs_to_completion;
    Alcotest.test_case "WVM limitations (L1)" `Quick test_wvm_limitations;
    Alcotest.test_case "WVM interpreter escape" `Quick test_wvm_interpreter_escape;
    Alcotest.test_case "KernelFunction escape (F9)" `Quick test_kernel_function_escape;
    Alcotest.test_case "complex Mandelbrot (A.7)" `Quick test_complex_mandelbrot;
    Alcotest.test_case "Expression type (F8)" `Quick test_expression_type;
    QCheck_alcotest.to_alcotest prop_differential;
    QCheck_alcotest.to_alcotest prop_options_semantics_preserving ]
