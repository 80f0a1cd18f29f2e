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
  differential "real array and scalar"
    {|Function[{Typed[m, "PackedArray"["Real64", 2]], Typed[s, "Real64"]},
       Module[{r = (m*s + s) - 0.25}, r[[1, 1]] + 10.0*r[[1, 2]] + 100.0*r[[2, 1]] + 1000.0*r[[2, 2]]]]|}
    [ parse "{{1.0, 2.0}, {3.0, 4.5}}"; Expr.Real 1.5 ];
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

(* an overflowed a*a reruns in the interpreter, whose Mod and Quotient
   of the big product are exact *)
let test_mod_quotient_after_fallback () =
  Wolfram.init ();
  B.Compiled_function.quiet := true;
  List.iter
    (fun (body, expected) ->
       let src = Printf.sprintf {|Function[{Typed[a, "MachineInteger"]}, %s]|} body in
       List.iter
         (fun target ->
            let cf = Wolfram.function_compile ~target ~name:"bigmod" (parse src) in
            Alcotest.check expr body (parse expected)
              (Wolfram.call cf [ Expr.Int 1099511627776 ]))
         [ Wolfram.Threaded; (if Lazy.force jit_on then Wolfram.Jit else Wolfram.Threaded) ])
    [ ("Mod[a*a + 1, 7]", "5"); ("Quotient[a*a, 1024]", "1180591620717411303424") ]

(* the row raises Runtime_error on an empty range, so the call reruns in
   the interpreter, which leaves it unevaluated *)
let test_random_integer_empty_range () =
  Wolfram.init ();
  B.Compiled_function.quiet := true;
  let src = {|Function[{Typed[n, "Integer64"]}, RandomInteger[n]]|} in
  List.iter
    (fun target ->
       let cf = Wolfram.function_compile ~target ~name:"randneg" (parse src) in
       (match Wolfram.call cf [ Expr.Int 0 ] with
        | Expr.Int 0 -> ()
        | v -> Alcotest.failf "RandomInteger[0]: %s" (Expr.to_string v));
       Alcotest.check expr "RandomInteger[-1] falls back" (parse "RandomInteger[-1]")
         (Wolfram.call cf [ Expr.Int (-1) ]))
    [ Wolfram.Threaded; (if Lazy.force jit_on then Wolfram.Jit else Wolfram.Threaded) ]

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

(* ---------------- JIT emitter: while loops, typed views, literals ---------- *)

let jit_of name src =
  Wolfram.init ();
  B.Compiled_function.quiet := true;
  let c = Pipeline.compile ~name (parse src) in
  let emitted =
    match B.Ocaml_emit.emit ~module_name:("Probe_" ^ name) c with
    | Ok e -> e
    | Error e -> Alcotest.failf "%s: emit declined: %s" name e
  in
  match B.Jit.compile c with
  | Ok j -> (c, j, emitted)
  | Error e -> Alcotest.failf "%s: jit compile failed: %s" name e

let all_while name (e : B.Ocaml_emit.emitted) =
  Alcotest.(check bool) (name ^ ": has loops") true (e.B.Ocaml_emit.loops <> []);
  let whiles =
    List.filter (String.ends_with ~suffix:" do") (String.split_on_char '\n' e.B.Ocaml_emit.source)
  in
  Alcotest.(check int) (name ^ ": a while per loop") (List.length e.B.Ocaml_emit.loops)
    (List.length whiles)

let outcome f =
  match f () with
  | v -> Ok (Rtval.to_expr v)
  | exception Wolf_base.Errors.Runtime_error e -> Error e

(* A loop that carries two floats allocates nothing per iteration: its
   header parameters live in local refs, which ocamlopt keeps unboxed. *)
let test_jit_float_loop_unboxed () =
  if Lazy.force jit_on then begin
    let c, j, e =
      jit_of "recur"
        {|Function[{Typed[n, "MachineInteger"]},
           Module[{x = 0.5, y = 0.25, i = 0},
            While[i < n, x = 0.5*x + 0.25*y; y = 0.75*y - 0.125*x + 1.0; i = i + 1];
            x + y]]|}
    in
    Alcotest.(check bool) "abort handling on" true c.Pipeline.coptions.Options.abort_handling;
    all_while "recur" e;
    let n = 200_000 in
    ignore (j.Rtval.call [| Rtval.Int 10 |]);
    let w0 = Gc.minor_words () in
    let r = j.Rtval.call [| Rtval.Int n |] in
    let words = Gc.minor_words () -. w0 in
    Alcotest.check expr "same as threaded"
      (Rtval.to_expr ((B.Native.compile c).Rtval.call [| Rtval.Int n |]))
      (Rtval.to_expr r);
    if words >= float_of_int n then
      Alcotest.failf "%.0f minor words for %d iterations" words n
  end

(* A store into a tensor that another variable started aliasing mid-loop
   copies: the alias keeps the values of the time it was taken, the
   caller's array is untouched, and the result is the interpreter's. *)
let test_jit_cow_mid_loop () =
  let src =
    {|Function[{Typed[v, "PackedArray"["Integer64", 1]]},
       Module[{a = v, b = v, i = 1, n = Length[v]},
        While[i <= n, If[i == 3, b = a]; a[[i]] = 10*a[[i]]; i = i + 1];
        1000*Total[b] + Total[a]]]|}
  in
  differential "alias taken mid-loop" src [ parse "{1, 2, 3, 4, 5}" ];
  if Lazy.force jit_on then begin
    let _, j, e = jit_of "cowloop" src in
    all_while "cowloop" e;
    let t = Tensor.of_int_array [| 1; 2; 3; 4; 5 |] in
    Alcotest.check expr "alias = {10, 20, 3, 4, 5}, a = 10 v" (Expr.Int 42150)
      (Rtval.to_expr (j.Rtval.call [| Rtval.Tensor t |]));
    Alcotest.(check (array int)) "argument untouched" [| 1; 2; 3; 4; 5 |]
      (Array.init 5 (Tensor.get_int t))
  end

(* Part out of range through a view fails with the generic helpers'
   payload, at rank 1 and 2, for reads and stores, on index 0, a negative
   index and n+1. *)
let test_jit_view_part_errors () =
  if Lazy.force jit_on then begin
    let v = Rtval.of_expr (parse "{1, 2, 3}") in
    let m = Rtval.of_expr (parse "{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}}") in
    let check name src cases =
      let c, j, e = jit_of name src in
      all_while name e;
      let nat = B.Native.compile c in
      List.iter
        (fun (args, expected) ->
           let label = Printf.sprintf "%s %s" name
               (String.concat "," (List.map (fun a -> Expr.to_string (Rtval.to_expr a)) args)) in
           let got = outcome (fun () -> j.Rtval.call (Array.of_list args)) in
           let threaded = outcome (fun () -> nat.Rtval.call (Array.of_list args)) in
           if got <> threaded then Alcotest.failf "%s: jit and threaded differ" label;
           match expected, got with
           | Some (i, n), Error (Wolf_base.Errors.Part_out_of_range (i', n')) ->
             Alcotest.(check (pair int int)) label (i, n) (i', n')
           | None, Ok _ -> ()
           | _, Error f ->
             Alcotest.failf "%s: unexpected %s" label (Wolf_base.Errors.describe_failure f)
           | Some _, Ok r -> Alcotest.failf "%s: no error, got %s" label (Expr.to_string r))
        cases
    in
    let int i = Rtval.Int i in
    check "read1"
      {|Function[{Typed[v, "PackedArray"["Integer64", 1]], Typed[i, "MachineInteger"]},
         Module[{s = 0, k = 0}, While[k < 2, s = s + v[[i]]; k = k + 1]; s]]|}
      [ ([ v; int 0 ], Some (0, 3)); ([ v; int (-4) ], Some (-4, 3));
        ([ v; int 4 ], Some (4, 3)); ([ v; int (-1) ], None); ([ v; int 3 ], None) ];
    check "store1"
      {|Function[{Typed[v, "PackedArray"["Integer64", 1]], Typed[i, "MachineInteger"]},
         Module[{a = v, k = 0}, While[k < 2, a[[i]] = k; k = k + 1]; a]]|}
      [ ([ v; int 0 ], Some (0, 3)); ([ v; int (-4) ], Some (-4, 3));
        ([ v; int 4 ], Some (4, 3)); ([ v; int (-3) ], None) ];
    check "read2"
      {|Function[{Typed[m, "PackedArray"["Real64", 2]], Typed[i, "MachineInteger"],
                  Typed[k, "MachineInteger"]},
         Module[{s = 0.0, t = 0}, While[t < 2, s = s + m[[i, k]]; t = t + 1]; s]]|}
      [ ([ m; int 0; int 1 ], Some (0, 2)); ([ m; int (-3); int 1 ], Some (-3, 2));
        ([ m; int 3; int 1 ], Some (3, 2)); ([ m; int 1; int 0 ], Some (0, 3));
        ([ m; int 1; int (-4) ], Some (-4, 3)); ([ m; int 2; int 4 ], Some (4, 3));
        ([ m; int (-1); int (-1) ], None) ];
    check "store2"
      {|Function[{Typed[m, "PackedArray"["Real64", 2]], Typed[i, "MachineInteger"],
                  Typed[k, "MachineInteger"]},
         Module[{a = m, t = 0}, While[t < 2, a[[i, k]] = 1.5; t = t + 1]; a]]|}
      [ ([ m; int 0; int 1 ], Some (0, 2)); ([ m; int 3; int 1 ], Some (3, 2));
        ([ m; int 1; int (-4) ], Some (-4, 3)); ([ m; int 2; int 4 ], Some (4, 3));
        ([ m; int 2; int 3 ], None) ];
    (* a literal operand is projected in line; a variable bound to a literal
       projects its own view *)
    check "literal read"
      {|Function[{Typed[i, "MachineInteger"]},
         Module[{s = 0, k = 0}, While[k < 2, s = s + {1, 2, 3}[[i]]; k = k + 1]; s]]|}
      [ ([ int 0 ], Some (0, 3)); ([ int (-4) ], Some (-4, 3)); ([ int 4 ], Some (4, 3));
        ([ int (-1) ], None) ];
    let literal_store =
      {|Function[{Typed[i, "MachineInteger"]},
         Module[{k = 0, s = 0},
          While[k < 2, Module[{a = {1, 2, 3}}, a[[i]] = 10; s = s + a[[1]]]; k = k + 1]; s]]|}
    in
    check "literal store" literal_store
      [ ([ int 0 ], Some (0, 3)); ([ int (-4) ], Some (-4, 3)); ([ int 4 ], Some (4, 3));
        ([ int (-3) ], None); ([ int 2 ], None) ];
    let _, _, e = jit_of "literal once" literal_store in
    Alcotest.(check int) "the literal is one module constant" 1
      (List.length e.B.Ocaml_emit.constants)
  end

(* The raw JIT entry skips admission: a tensor whose element type or rank is
   not its parameter's makes the view's projection raise, and counts in
   jit_view_mismatches_total. *)
let test_jit_view_mismatch () =
  if Lazy.force jit_on then begin
    let _, j, _ =
      jit_of "mismatch"
        {|Function[{Typed[v, "PackedArray"["Real64", 1]]}, v[[1]] + 0.5]|}
    in
    let count () = Wolf_obs.Metrics.counter_value Prims.view_mismatches in
    List.iter
      (fun (label, arg) ->
         let before = count () in
         (match outcome (fun () -> j.Rtval.call [| Rtval.of_expr (parse arg) |]) with
          | Error (Wolf_base.Errors.Invalid_runtime_argument _) -> ()
          | Error f -> Alcotest.failf "%s: %s" label (Wolf_base.Errors.describe_failure f)
          | Ok r -> Alcotest.failf "%s: no error, got %s" label (Expr.to_string r));
         Alcotest.(check int) (label ^ " counted") 1 (count () - before))
      [ ("Integer64 data", "{1, 2}"); ("rank 2", "{{1.5, 2.5}}") ];
    let before = count () in
    Alcotest.check expr "Real64 data" (Expr.Real 2.0)
      (Rtval.to_expr (j.Rtval.call [| Rtval.of_expr (parse "{1.5, 2.5}") |]));
    Alcotest.(check int) "not counted" 0 (count () - before)
  end

(* Real division by zero: the primitive raises Division_by_zero, so the JIT
   falls back to the interpreter as the threaded backend does, and a built
   binary panics with exit status 3. *)
let test_real_division_by_zero () =
  Wolfram.init ();
  B.Compiled_function.quiet := true;
  let src = {|Function[{Typed[x, "Real64"], Typed[y, "Real64"]}, x/y]|} in
  let args = [ Expr.Real 1.0; Expr.Real 0.0 ] in
  let reference = Wolf_kernel.Session.eval (Expr.Normal (parse src, Array.of_list args)) in
  List.iter
    (fun target ->
       match Wolfram.function_compile ~target ~name:"rdiv" (parse src) with
       | Wolfram.Native cf as compiled ->
         let fallbacks () = Atomic.get cf.B.Compiled_function.fallbacks in
         let before = fallbacks () in
         Alcotest.check expr "1./0." reference (Wolfram.call compiled args);
         Alcotest.(check int) "one fallback" 1 (fallbacks () - before)
       | _ -> Alcotest.fail "rdiv: not a native function")
    [ Wolfram.Threaded; (if Lazy.force jit_on then Wolfram.Jit else Wolfram.Threaded) ];
  if B.C_build.available () then begin
    match B.C_emit.emit_standalone (Pipeline.compile ~name:"rdiv" (parse src)) with
    | Error e -> Alcotest.fail e
    | Ok emitted ->
      let exe = Filename.temp_file "wolf_rdiv" "" in
      Fun.protect ~finally:(fun () -> Sys.remove exe) (fun () ->
          (match B.C_build.build ~source:emitted.B.C_emit.source ~output:exe () with
           | Ok () -> ()
           | Error e -> Alcotest.failf "cc failed: %s" e);
          Alcotest.(check int) "binary exits 3" 3
            (Sys.command (Filename.quote exe ^ " 1. 0. >/dev/null 2>&1")))
  end

(* Abort[] stops a while-form loop that carries a float, within a stride *)
let test_jit_abort_while_float () =
  if Lazy.force jit_on then begin
    let _, j, e =
      jit_of "fspin"
        {|Function[{Typed[n, "MachineInteger"]},
           Module[{x = 0.0, i = 0}, While[i < n, x = x + 0.5; i = i + 1]; x]]|}
    in
    all_while "fspin" e;
    Wolf_base.Abort_signal.clear ();
    Alcotest.check expr "unaborted" (Expr.Real 500.0)
      (Rtval.to_expr (j.Rtval.call [| Rtval.Int 1000 |]));
    Wolf_base.Abort_signal.abort_after 2;
    (match j.Rtval.call [| Rtval.Int (10 * Options.default.Options.abort_stride) |] with
     | exception Wolf_base.Abort_signal.Aborted -> ()
     | _ -> Alcotest.fail "while loop not aborted");
    Wolf_base.Abort_signal.clear ()
  end

(* A function is one structured walk from its entry block: no block
   functions, and a tensor bound from a literal has its view projected once,
   where it is bound, however many loops and merges follow. *)
let test_jit_one_walk () =
  if Lazy.force jit_on then begin
    let src =
      {|Function[{Typed[n, "Integer64"]},
         Module[{t = {10, 20, 30}, s = 0}, Do[s = s + t[[Mod[i, 3] + 1]], {i, n}]; t[[2]] = s; t]]|}
    in
    let c, j, e = jit_of "onewalk" src in
    all_while "onewalk" e;
    let lines = List.map String.trim (String.split_on_char '\n' e.B.Ocaml_emit.source) in
    let blk l =
      let rec go i = i + 3 <= String.length l && (String.sub l i 3 = "blk" || go (i + 1)) in
      go 0
    in
    Alcotest.(check (list string)) "no block function" [] (List.filter blk lines);
    let t =
      match
        List.find_map (fun l -> Scanf.sscanf_opt l "let v%d : Wolf_wexpr.Tensor.t = k0 in%!" Fun.id) lines
      with
      | Some t -> t
      | None -> Alcotest.fail "onewalk: no tensor bound from the literal"
    in
    Alcotest.(check int) "its view bound once" 1
      (List.length (List.filter (String.starts_with ~prefix:(Printf.sprintf "let v%d_a =" t)) lines));
    let threaded = B.Native.compile c in
    List.iter
      (fun n ->
         Alcotest.check expr (Printf.sprintf "n = %d" n)
           (Rtval.to_expr (threaded.Rtval.call [| Rtval.Int n |]))
           (Rtval.to_expr (j.Rtval.call [| Rtval.Int n |])))
      [ 0; 1; 2; 5; 100 ]
  end

(* After a loop, a tensor the loop carried is read through a view of its
   value at the exit, not of its value before the loop.  Three programs
   the JIT fuzz arm found at -O0, shrunk. *)
let test_jit_view_after_loop () =
  let options = { Options.default with Options.opt_level = 0 } in
  List.iteri
    (fun i src -> differential ~options ~wvm:false (Printf.sprintf "exit view %d" i) src [])
    [ {|Function[{}, Module[{m2 = {-1}}, m2 = Map[Function[{f2}, 0], m2]; m2[[1 + Mod[0, Length[m2]]]]]]|};
      {|Function[{},
         Module[{m2 = ConstantArray[(-5), 4], c6 = 1, c7 = 1, a8 = ConstantArray[(-1), 21]},
          Do[m2 = {0}, {d1, 1}];
          While[c6 <= 1, m2[[1 + Mod[0, Length[m2]]]] = m2[[1 + Mod[0, Length[m2]]]]; c6 = c6 + 1];
          a8[[c7]] = Total[m2];
          a8]]|};
      {|Function[{},
         Module[{m2 = ConstantArray[3, 4], c5 = 1},
          If[(0 == 3), Null, While[c5 <= 1, m2 = {0}; c5 = c5 + 1]];
          m2[[1 + Mod[7, Length[m2]]]]]]|} ]

(* ---------------- JIT loop forms ---------------- *)

let lead l = String.length l - String.length (String.trim l)

let has_sub s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Each guard loop of an emitted module, outermost first: its lines from
   [while] to its [done;], and the lines after it. *)
let guard_loops source =
  let rec go acc = function
    | [] -> List.rev acc
    | l :: rest when String.trim l = "while" ->
      let rec take body = function
        | m :: after when lead m = lead l && String.trim m = "done;" -> (List.rev body, after)
        | m :: after -> take (m :: body) after
        | [] -> Alcotest.fail "guard loop without its done;"
      in
      go (take [] rest :: acc) rest
    | _ :: rest -> go acc rest
  in
  go [] (String.split_on_char '\n' source)

let emitted_source ?(options = Options.default) name src =
  Wolfram.init ();
  match B.Ocaml_emit.emit ~module_name:("Forms_" ^ name) (Pipeline.compile ~options ~name (parse src)) with
  | Ok e -> e.B.Ocaml_emit.source
  | Error e -> Alcotest.failf "%s: emit declined: %s" name e

(* FNV1a's and Histogram's strip loops are [while <comparison> do]: no
   exit-state ref and no bool binding in the loop or its guard *)
let test_jit_guard_loop_fig2 () =
  let module P = Bench_support.Programs in
  List.iter
    (fun (name, src, args) ->
       (match guard_loops (emitted_source name src) with
        | [ (body, _) ] ->
          Alcotest.(check (list string)) (name ^ ": no exit-state ref") []
            (List.filter (fun l -> has_sub l "!st" || has_sub l "let st") body);
          Alcotest.(check (list string)) (name ^ ": no bool binding") []
            (List.filter (fun l -> has_sub l ": bool =") body)
        | loops -> Alcotest.failf "%s: %d guard loops, want the strip loop" name (List.length loops));
       List.iteri (fun i a -> differential ~wvm:false (Printf.sprintf "%s %d" name i) src [ a ]) args)
    [ ("fnv1a", P.fnv1a_src, [ Expr.Str ""; Expr.Str "hello, world" ]);
      ("histogram", P.histogram_src, [ parse "{0, 3, 255, 3}"; parse "{7}" ]) ]

(* PowerMod64's loop: the header polls, in the guard, and the code after
   the loop reads a header parameter (the result) from its ref *)
let test_jit_guard_loop_polls () =
  let src =
    {|Function[{Typed[b0, "MachineInteger"], Typed[e0, "MachineInteger"], Typed[m, "MachineInteger"]},
       Module[{result = 1, b = Mod[b0, m], e = e0},
        While[e > 0,
         If[Mod[e, 2] == 1, result = Mod[result*b, m]];
         b = Mod[b*b, m];
         e = Quotient[e, 2]];
        result]]|}
  in
  (match guard_loops (emitted_source "powmod" src) with
   | [ (body, after) ] ->
     let rec guard = function m :: rest when String.trim m <> "do" -> m :: guard rest | _ -> [] in
     let guard = guard body in
     Alcotest.(check bool) "the guard polls" true (List.exists (fun l -> has_sub l "wolf_poll") guard);
     Alcotest.(check bool) "the exit reads a parameter" true
       (List.exists (fun l -> has_sub l "= !rp") after)
   | loops -> Alcotest.failf "powmod: %d guard loops, want 1" (List.length loops));
  List.iter
    (fun (b, e, m) ->
       differential ~wvm:false (Printf.sprintf "powmod %d %d %d" b e m) src
         [ Expr.Int b; Expr.Int e; Expr.Int m ])
    [ (3, 200, 1000003); (2, 0, 7); (5, 1 lsl 40, 97); (-4, 3, 11) ]

(* At -O0 the loop carries the array: the guard loop keeps its view in
   refs, and the reads after the loop go through the view read from them *)
let test_jit_guard_loop_tensor_view () =
  let options = { Options.default with Options.opt_level = 0 } in
  let src =
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{a = ConstantArray[0, 5], b = {1}, i = 1},
        b = a;
        While[i <= n, a[[Mod[i, 5] + 1]] = i; i = i + 1];
        a[[2]] + a[[3]] + b[[1]]]]|}
  in
  (match guard_loops (emitted_source ~options "tview" src) with
   | [ (_, after) ] ->
     Alcotest.(check bool) "view read from its ref" true
       (List.exists (fun l -> has_sub l "_a = !rp") after)
   | loops -> Alcotest.failf "tview: %d guard loops, want 1" (List.length loops));
  List.iter
    (fun n -> differential ~options ~wvm:false (Printf.sprintf "tview %d" n) src [ Expr.Int n ])
    [ 0; 1; 7 ]

(* A loop with a second exit in its body (the && test) keeps the
   exit-state form.  No loop body returns: every block of a natural loop
   reaches its latch. *)
let test_jit_body_exit_state_form () =
  let src =
    {|Function[{Typed[n, "MachineInteger"]},
       Module[{i = 1, s = 0}, While[i <= n && s < 50, s = s + i; i = i + 1]; s - i]]|}
  in
  let source = emitted_source "bodyexit" src in
  Alcotest.(check int) "no guard loop" 0 (List.length (guard_loops source));
  Alcotest.(check bool) "an exit-state ref" true (has_sub source "while !st");
  List.iter
    (fun n -> differential ~wvm:false (Printf.sprintf "bodyexit %d" n) src [ Expr.Int n ])
    [ 0; 5; 100 ]

(* A loop whose header is the entry block (the verifier rejects a jump to
   the entry, so only a hand-built TWIR has one) is a [while] too.  Its
   state is the first element of the argument, stored in place. *)
let test_jit_entry_loop_header () =
  if Lazy.force jit_on then begin
    Wolfram.init ();
    let c =
      Pipeline.compile ~name:"entryloop"
        (parse {|Function[{Typed[v, "PackedArray"["Integer64", 1]]}, v[[1]]]|})
    in
    let int = Types.int64 and vec = Types.packed Types.int64 1 in
    let var ty = Wir.fresh_var ~ty () in
    let call dst base args = Wir.Call { dst; callee = Wir.Resolved { base; mangled = base }; args } in
    let t = var vec and x = var int and lt = var Types.boolean and x1 = var int and t2 = var vec in
    let one = Wir.Oconst (Wir.Cint 1) in
    let block label instrs term = { Wir.label; bparams = [||]; instrs; term } in
    let main =
      { (Wir.main c.Pipeline.program) with
        Wir.fparams = [| t |];
        ret_ty = Some int;
        blocks =
          [ block 0
              [ Wir.Load_argument { dst = t; index = 0 };
                call x "part_get_1" [| Ovar t; one |];
                call lt "binary_less" [| Ovar x; Oconst (Cint 10) |] ]
              (Wir.Branch { cond = Ovar lt; if_true = { target = 1; jargs = [||] };
                            if_false = { target = 2; jargs = [||] } });
            block 1
              [ call x1 "checked_binary_plus" [| Ovar x; one |];
                call t2 "part_set_1_inplace" [| Ovar t; one; Ovar x1 |] ]
              (Wir.Jump { target = 0; jargs = [||] });
            block 2 [] (Wir.Return (Ovar x)) ] }
    in
    let c = { c with Pipeline.program = { Wir.funcs = [ main ]; pmeta = [] } } in
    (match B.Ocaml_emit.emit ~module_name:"Entryloop" c with
     | Ok e ->
       Alcotest.(check (list (pair string int))) "the entry is a loop header"
         [ (main.Wir.fname, 0) ] e.B.Ocaml_emit.loops;
       all_while "entryloop" e
     | Error e -> Alcotest.fail e);
    let j = match B.Jit.compile c with Ok j -> j | Error e -> Alcotest.fail e in
    let threaded = B.Native.compile c in
    List.iter
      (fun start ->
         let run (f : Rtval.closure) =
           let v = Rtval.of_expr (parse (Printf.sprintf "{%d, 7}" start)) in
           let r = Rtval.to_expr (f.Rtval.call [| v |]) in
           (r, Rtval.to_expr v)
         in
         let r, v = run j in
         let r', v' = run threaded in
         Alcotest.check expr (Printf.sprintf "result from %d" start) r' r;
         Alcotest.check expr (Printf.sprintf "argument from %d" start) v' v)
      [ 3; 10; 12 ]
  end

(* The emitter declines an irreducible CFG, which source cannot spell:
   here the loop body has a second, retreating edge into one arm of its If
   (never taken at run time).  The JIT passes the error on, and the program
   runs on the threaded backend, which takes any CFG. *)
let test_jit_declines_irreducible_cfg () =
  Wolfram.init ();
  let c =
    Pipeline.compile ~name:"irr"
      (parse {|Function[{Typed[n, "MachineInteger"]}, n]|})
  in
  let int = Types.int64 and bool = Types.boolean in
  let var ty = Wir.fresh_var ~ty () in
  let prim base = Wir.Resolved { base; mangled = base } in
  let call dst base args = Wir.Call { dst; callee = prim base; args } in
  let jump target jargs = { Wir.target; jargs } in
  let n = var int and i = var int and s = var int and s1 = var int and s2 = var int in
  let s3 = var int and i1 = var int and lt = var bool and odd = var int in
  let even = var bool and neg = var bool in
  let block label ?(bparams = [||]) instrs term = { Wir.label; bparams; instrs; term } in
  let zero = Wir.Oconst (Wir.Cint 0) and one = Wir.Oconst (Wir.Cint 1) in
  let main =
    { (Wir.main c.Pipeline.program) with
      Wir.fparams = [| n |];
      ret_ty = Some int;
      blocks =
        [ block 0 [ Wir.Load_argument { dst = n; index = 0 } ] (Wir.Jump (jump 1 [| zero; zero |]));
          block 1 ~bparams:[| i; s |] [ call lt "binary_less" [| Ovar i; Ovar n |] ]
            (Wir.Branch { cond = Ovar lt; if_true = jump 2 [||]; if_false = jump 9 [||] });
          block 2
            [ call odd "binary_bitand" [| Ovar i; one |];
              call even "binary_equal" [| Ovar odd; zero |] ]
            (Wir.Branch { cond = Ovar even; if_true = jump 3 [||]; if_false = jump 4 [||] });
          block 3 [ call s1 "checked_binary_plus" [| Ovar s; one |] ]
            (Wir.Jump (jump 5 [| Ovar s1 |]));
          block 4 [ call s2 "checked_binary_plus" [| Ovar s; Oconst (Cint 2) |] ]
            (Wir.Jump (jump 5 [| Ovar s2 |]));
          block 5 ~bparams:[| s3 |]
            [ call i1 "checked_binary_plus" [| Ovar i; one |];
              call neg "binary_less" [| Ovar s3; zero |] ]
            (Wir.Branch { cond = Ovar neg; if_true = jump 3 [||]; if_false = jump 1 [| Ovar i1; Ovar s3 |] });
          block 9 [] (Wir.Return (Ovar s)) ] }
  in
  let c = { c with Pipeline.program = { Wir.funcs = [ main ]; pmeta = [] } } in
  let declined () =
    Wolf_obs.Metrics.counter_value (B.Ocaml_emit.loop_forms_counter "declined")
  in
  let before = declined () in
  let expected = Error ("irreducible loop b3 in " ^ main.Wir.fname) in
  let result_of r = Result.map ignore r in
  Alcotest.(check (result unit string)) "emit names the loop" expected
    (result_of (B.Ocaml_emit.emit ~module_name:"Irr" c));
  Alcotest.(check int) "one declined module counted" 1 (declined () - before);
  if Lazy.force jit_on then
    Alcotest.(check (result unit string)) "the JIT passes the error on" expected
      (result_of (B.Jit.compile c));
  Alcotest.check expr "5 even + 5 odd steps, threaded" (Expr.Int 15)
    (Rtval.to_expr ((B.Native.compile c).Rtval.call [| Rtval.Int 10 |]))

(* Checked arithmetic with a literal operand is open-coded as a range test;
   at and around each bound it must agree with Wolf_base.Checked, and so
   must the general add and subtract. *)
let test_jit_literal_arith () =
  if Lazy.force jit_on then begin
    let open Wolf_base in
    let lit c =
      if c = min_int then Printf.sprintf "((%d) - 1)" (min_int + 1)
      else if c < 0 then Printf.sprintf "(%d)" c
      else string_of_int c
    in
    (* (source of the branch, reference, bounds of x worth probing) *)
    let literal op c reference bounds =
      (Printf.sprintf "x %s %s" op (lit c), (fun x _ -> reference x c), bounds)
    in
    let cases =
      List.map
        (fun c ->
           literal "*" c Checked.mul
             (if c = 0 || c = 1 || c = -1 then [] else [ max_int / c; min_int / c ]))
        [ 0; 1; -1; 2; -2; 3; -3; 16777619; 1 lsl 40; -(1 lsl 40); max_int; min_int ]
      @ List.map (fun c -> literal "+" c Checked.add [ max_int - c; min_int - c ])
          [ 1; -1; 7; -7; 1 lsl 61 ]
      @ List.map (fun c -> literal "-" c Checked.sub [ max_int + c; min_int + c ]) [ 1; -1; 5; -5 ]
      @ [ ("x + y", Checked.add, []); ("x - y", Checked.sub, []); ("x * y", Checked.mul, []) ]
    in
    let body =
      List.fold_right
        (fun (k, (src, _, _)) acc -> Printf.sprintf "If[k == %d, %s, %s]" k src acc)
        (List.mapi (fun k case -> (k, case)) cases)
        "0"
    in
    let _, j, _ =
      jit_of "litarith"
        (Printf.sprintf
           {|Function[{Typed[x, "MachineInteger"], Typed[y, "MachineInteger"],
                       Typed[k, "MachineInteger"]}, %s]|} body)
    in
    let show = function Ok v -> string_of_int v | Error e -> Errors.describe_failure e in
    let ys = [ 0; 1; -1; 2; -2; 3; max_int; min_int; max_int / 2; min_int / 2 ] in
    List.iteri
      (fun k (src, reference, bounds) ->
         let xs =
           List.concat_map (fun b -> [ b - 1; b; b + 1 ]) bounds
           @ [ 0; 1; -1; 12345; -12345; max_int; min_int; max_int - 1; min_int + 1;
               max_int / 2; min_int / 2; (max_int / 2) + 1 ]
         in
         List.iter
           (fun x ->
              List.iter
                (fun y ->
                   let expected =
                     match reference x y with v -> Ok v | exception Errors.Runtime_error e -> Error e
                   in
                   let got =
                     match j.Rtval.call [| Rtval.Int x; Rtval.Int y; Rtval.Int k |] with
                     | v -> Ok (Rtval.as_int v)
                     | exception Errors.Runtime_error e -> Error e
                   in
                   if got <> expected then
                     Alcotest.failf "%s at x = %d, y = %d: got %s, expected %s" src x y (show got)
                       (show expected))
                ys)
           xs)
      cases
  end

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

(* A promoted loop hands back its array at refcount 1: the Module binding's
   copy takes over the fresh allocation's claim, and no store copies it. *)
let test_promoted_result_unshared () =
  Wolfram.init ();
  let c =
    Pipeline.compile ~name:"bins"
      (parse
         {|Function[{Typed[n, "MachineInteger"]},
            Module[{bins = ConstantArray[0, 4], i = 1},
             While[i <= n, bins[[Mod[i, 4] + 1]] = bins[[Mod[i, 4] + 1]] + i; i = i + 1];
             bins]]|})
  in
  Alcotest.(check int) "one store in place" 1 (Pipeline.inplace_updates c);
  let check what (f : Rtval.closure) =
    match f.Rtval.call [| Rtval.Int 6 |] with
    | Rtval.Tensor t ->
      Alcotest.check expr (what ^ " value") (parse "{4, 6, 8, 3}") (Rtval.to_expr (Rtval.Tensor t));
      Alcotest.(check int) (what ^ " refcount") 1 (Wolf_wexpr.Tensor.refcount t)
    | v -> Alcotest.failf "%s returned %s" what (Expr.to_string (Rtval.to_expr v))
  in
  check "threaded" (B.Native.compile c);
  if Lazy.force jit_on then
    match B.Jit.compile c with
    | Ok j -> check "jit" j
    | Error e -> Alcotest.failf "jit: %s" e

(* a loaded JIT module leaves none of its build products behind *)
let test_jit_removes_products () =
  if Lazy.force jit_on then begin
    let mine = Printf.sprintf "wolfjit_%d_" (Unix.getpid ()) in
    let count () =
      Array.fold_left
        (fun n f -> if String.starts_with ~prefix:mine f then n + 1 else n)
        0 (Sys.readdir (B.Jit.sessions_dir ()))
    in
    let before = count () in
    let c = Pipeline.compile ~name:"p" (parse {|Function[{Typed[n, "MachineInteger"]}, n + 1]|}) in
    (match B.Jit.compile c with
     | Ok j -> Alcotest.check expr "runs" (Expr.Int 8) (Rtval.to_expr (j.Rtval.call [| Rtval.Int 7 |]))
     | Error e -> Alcotest.failf "jit: %s" e);
    Alcotest.(check int) "files of this process in the sessions directory" before (count ())
  end

let tests =
  [ Alcotest.test_case "scalar programs" `Quick test_scalar_programs;
    Alcotest.test_case "control flow" `Quick test_control_flow_programs;
    Alcotest.test_case "strings" `Quick test_string_programs;
    Alcotest.test_case "arrays" `Quick test_array_programs;
    Alcotest.test_case "array mutation" `Quick test_array_mutation_program;
    Alcotest.test_case "mutability isolation (F5)" `Quick test_mutability_isolated;
    Alcotest.test_case "a promoted loop returns its array unshared" `Quick
      test_promoted_result_unshared;
    Alcotest.test_case "jit removes its build products" `Quick test_jit_removes_products;
    Alcotest.test_case "closures" `Quick test_closures;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "soft numerical failure (F2)" `Quick test_soft_failure_both_backends;
    Alcotest.test_case "part-error soft failure" `Quick test_part_error_soft_failure;
    Alcotest.test_case "Mod and Quotient of a product after the fallback" `Quick
      test_mod_quotient_after_fallback;
    Alcotest.test_case "RandomInteger of an empty range falls back" `Quick
      test_random_integer_empty_range;
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
    Alcotest.test_case "jit while loop keeps floats unboxed" `Quick test_jit_float_loop_unboxed;
    Alcotest.test_case "jit copy-on-write mid-loop" `Quick test_jit_cow_mid_loop;
    Alcotest.test_case "jit view Part errors" `Quick test_jit_view_part_errors;
    Alcotest.test_case "jit view of another representation raises" `Quick test_jit_view_mismatch;
    Alcotest.test_case "real division by zero falls back" `Quick test_real_division_by_zero;
    Alcotest.test_case "jit Abort[] in a float while loop" `Quick test_jit_abort_while_float;
    Alcotest.test_case "jit checked arithmetic by a literal" `Quick test_jit_literal_arith;
    Alcotest.test_case "jit function is one walk from its entry" `Quick test_jit_one_walk;
    Alcotest.test_case "jit loop headed by the entry block" `Quick test_jit_entry_loop_header;
    Alcotest.test_case "jit view of a tensor after its loop" `Quick test_jit_view_after_loop;
    Alcotest.test_case "jit guard loops of FNV1a and Histogram" `Quick test_jit_guard_loop_fig2;
    Alcotest.test_case "jit guard loop that polls" `Quick test_jit_guard_loop_polls;
    Alcotest.test_case "jit guard loop carrying a tensor" `Quick test_jit_guard_loop_tensor_view;
    Alcotest.test_case "jit loop exiting from its body" `Quick test_jit_body_exit_state_form;
    Alcotest.test_case "jit declines an irreducible CFG" `Quick test_jit_declines_irreducible_cfg;
    QCheck_alcotest.to_alcotest prop_differential;
    QCheck_alcotest.to_alcotest prop_options_semantics_preserving ]
