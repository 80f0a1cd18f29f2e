(* Data-parallel loop tests: deterministic recognizer decisions (which
   loop shapes parallelise, which reject and why), parallel == serial
   under every forced chunking, schedule-cache hit determinism (a second
   run with the same loop fingerprint measures nothing), error and abort
   propagation out of chunk workers, and the executor-sharing regressions
   — a saturated pool degrades a parallel-for to serial instead of
   deadlocking, including under a tier-promoted function. *)

open Wolf_wexpr
module PR = Wolf_runtime.Par_runtime
module Rtval = Wolf_runtime.Rtval
module Ex = Wolf_parallel.Executor
module A = Wolf_base.Abort_signal
module Options = Wolf_compiler.Options

let parse = Parser.parse

let par_options =
  { Options.default with
    Options.parallel_loops = true; opt_level = 2; use_cache = false }

let compile src =
  Wolfram.function_compile ~options:par_options ~target:Wolfram.Threaded
    (parse src)

let pmeta cf =
  match Wolfram.pipeline_of cf with
  | None -> Alcotest.fail "no pipeline instrumentation"
  | Some c -> c.Wolf_compiler.Pipeline.program.Wolf_compiler.Wir.pmeta

let decisions cf =
  List.filter_map
    (fun (k, v) ->
       if String.starts_with ~prefix:"parloop." k then Some v else None)
    (pmeta cf)

let expect_real what e =
  match e with
  | Expr.Real r -> r
  | Expr.Int i -> float_of_int i
  | e -> Alcotest.failf "%s: expected a number, got %s" what (Expr.to_string e)

let close a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= 1e-9 *. scale

(* ------------------------------------------------------------------ *)
(* Recognizer decisions are deterministic per loop shape              *)

let sum_src =
  "Function[{Typed[n, \"MachineInteger\"]}, \
   Module[{s = 0.0, i = 1}, While[i <= n, s = s + 0.5*i; i = i + 1]; s]]"

let prod_src =
  "Function[{Typed[n, \"MachineInteger\"]}, \
   Module[{s = 1.0, i = 1}, \
   While[i <= n, s = s * (1.0 + 0.001*i); i = i + 1]; s]]"

let map_src =
  "Function[{Typed[n, \"MachineInteger\"]}, \
   Module[{a = ConstantArray[0, 64], i = 1}, \
   While[i <= 64, a[[i]] = 3*i + 1; i = i + 1]; a]]"

let test_decisions () =
  let one_decision what src =
    match decisions (compile src) with
    | [ d ] -> d
    | ds ->
      Alcotest.failf "%s: expected one parloop decision, got [%s]" what
        (String.concat "; " ds)
  in
  let check what src prefix =
    let d = one_decision what src in
    if not (String.starts_with ~prefix d) then
      Alcotest.failf "%s: expected %S…, got %S" what prefix d
  in
  check "plus-real reduce" sum_src "parallelized reduce";
  check "times-real reduce" prod_src "parallelized reduce";
  check "iv-indexed map" map_src "parallelized map";
  check "minus reduce stays serial"
    "Function[{Typed[n, \"MachineInteger\"]}, \
     Module[{s = 0.0, i = 1}, While[i <= n, s = s - 0.5*i; i = i + 1]; s]]"
    "rejected: non-associative";
  check "checked int reduce stays serial"
    "Function[{Typed[n, \"MachineInteger\"]}, \
     Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 1]; s]]"
    "rejected: integer overflow";
  check "accumulator-controlled Min stays serial"
    "Function[{Typed[n, \"MachineInteger\"]}, \
     Module[{s = 0.0, i = 1}, \
     While[i <= n, s = Min[s, 7.5 - 0.5*i]; i = i + 1]; s]]"
    "rejected: control depends on the accumulator"

(* inner loop of a nest parallelises, the outer (now holding the
   outlined closure) stays serial *)
let test_nested_decision () =
  let cf =
    compile
      "Function[{Typed[n, \"MachineInteger\"]}, \
       Module[{s = 0.0, i = 1, j = 1}, \
       While[i <= n, j = 1; While[j <= n, s = s + 0.5*j; j = j + 1]; \
       i = i + 1]; s]]"
  in
  let ds = decisions cf in
  Alcotest.(check int) "two decisions" 2 (List.length ds);
  Alcotest.(check bool) "inner parallelised" true
    (List.exists (String.starts_with ~prefix:"parallelized reduce") ds);
  Alcotest.(check bool) "outer rejected" true
    (List.exists (String.starts_with ~prefix:"rejected:") ds)

(* ------------------------------------------------------------------ *)
(* Parallel == serial under every chunking                             *)

let forced_schedules =
  [ PR.Serial; PR.Static 2; PR.Static 4; PR.Dynamic 7; PR.Dynamic 16;
    PR.Dynamic 64 ]

let test_reduce_chunking_equivalence () =
  List.iter
    (fun (what, src, n) ->
       let cf = compile src in
       let serial =
         expect_real what
           (PR.with_jobs 1 (fun () -> Wolfram.call cf [ Expr.Int n ]))
       in
       List.iter
         (fun s ->
            let v =
              PR.with_jobs 4 (fun () ->
                  PR.with_forced_schedule s (fun () ->
                      Wolfram.call cf [ Expr.Int n ]))
            in
            let v = expect_real what v in
            if not (close serial v) then
              Alcotest.failf "%s under %s: %.17g <> serial %.17g" what
                (PR.schedule_to_string s) v serial)
         forced_schedules)
    [ ("plus reduce", sum_src, 10_000); ("times reduce", prod_src, 500) ]

let test_map_chunking_equivalence () =
  let cf = compile map_src in
  let serial = PR.with_jobs 1 (fun () -> Wolfram.call cf [ Expr.Int 0 ]) in
  List.iter
    (fun s ->
       let v =
         PR.with_jobs 4 (fun () ->
             PR.with_forced_schedule s (fun () ->
                 Wolfram.call cf [ Expr.Int 0 ]))
       in
       if not (Expr.equal serial v) then
         Alcotest.failf "map under %s: %s <> %s" (PR.schedule_to_string s)
           (Expr.to_string v) (Expr.to_string serial))
    forced_schedules

(* repeated calls of one compiled function must keep returning the same
   value: compiled constants are pooled across calls, so an in-function
   Part-store must COW (the regression the par fuzz arm found) *)
let test_repeated_calls_idempotent () =
  let cf =
    compile
      "Function[{}, Module[{m = {5, 7, 3}}, \
       m[[1 + Mod[Total[m], Length[m]]]] = 0; m]]"
  in
  let first = Wolfram.call cf [] in
  for k = 2 to 5 do
    let v = Wolfram.call cf [] in
    if not (Expr.equal first v) then
      Alcotest.failf "call %d returned %s, call 1 returned %s" k
        (Expr.to_string v) (Expr.to_string first)
  done

(* ------------------------------------------------------------------ *)
(* Schedule cache determinism                                          *)

let test_schedule_cache_hits () =
  PR.clear_schedules ();
  let cf = compile sum_src in
  let n = 4096 in
  let call c = ignore (PR.with_jobs 4 (fun () -> Wolfram.call c [ Expr.Int n ])) in
  call cf;
  let m0 = PR.measurements () in
  Alcotest.(check bool) "first call measured" true (m0 > 0);
  let size0 = PR.schedules_size () in
  Alcotest.(check bool) "a schedule was remembered" true (size0 >= 1);
  (* same compiled function, same trip count: cache hit, zero measurement *)
  call cf;
  Alcotest.(check int) "second call measures nothing" m0 (PR.measurements ());
  (* a fresh compile of the same source has the same structural
     fingerprint (ids are renumbered densely), so it also hits *)
  call (compile sum_src);
  Alcotest.(check int) "fresh compile still hits" m0 (PR.measurements ());
  Alcotest.(check int) "no new cache entry" size0 (PR.schedules_size ());
  (* same fingerprint, different trip-count shape class: a new search *)
  ignore (PR.with_jobs 4 (fun () -> Wolfram.call cf [ Expr.Int (64 * n) ]));
  Alcotest.(check bool) "new shape class re-measures" true
    (PR.measurements () > m0)

(* ------------------------------------------------------------------ *)
(* Error and abort propagation out of chunks                           *)

exception Boom of int

let range_reduce ?(fail_at = -1) ?(abort_at = -1) () =
  (* mirrors an outlined reduce body: fold [a..b] onto the carry *)
  Rtval.Fun
    { Rtval.arity = 3;
      call =
        (fun args ->
           match args with
           | [| carry; Rtval.Int a; Rtval.Int b |] ->
             let s = ref (Rtval.as_real carry) in
             for i = a to b do
               if i = fail_at then raise (Boom i);
               if i = abort_at then raise A.Aborted;
               s := !s +. (0.5 *. float_of_int i)
             done;
             Rtval.Real !s
           | _ -> assert false) }

let reduce_args f = [| f; Rtval.Real 0.0; Rtval.Int 1; Rtval.Int 1000;
                       Rtval.Int 1 (* Plus/Real *); Rtval.Str "test-fp" |]

let test_chunk_exception_propagates () =
  PR.with_jobs 4 @@ fun () ->
  PR.with_forced_schedule (PR.Dynamic 16) @@ fun () ->
  match PR.parallel_reduce (reduce_args (range_reduce ~fail_at:437 ())) with
  | exception Boom 437 -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | v ->
    Alcotest.failf "expected Boom, got %s" (Expr.to_string (Rtval.to_expr v))

let test_chunk_abort_wins () =
  (* one chunk aborts, another fails: Aborted must win the merge *)
  PR.with_jobs 4 @@ fun () ->
  PR.with_forced_schedule (PR.Dynamic 16) @@ fun () ->
  match
    PR.parallel_reduce (reduce_args (range_reduce ~fail_at:901 ~abort_at:77 ()))
  with
  | exception A.Aborted -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | v ->
    Alcotest.failf "expected Aborted, got %s"
      (Expr.to_string (Rtval.to_expr v))

let test_injected_abort_in_compiled_loop () =
  let cf = compile sum_src in
  A.clear ();
  (* checks are strided (1 per 1024 back-edges) and domain-local: keep the
     threshold well under the ~12 checks the caller's first chunk performs *)
  A.abort_after 3;
  let finally () = A.clear () in
  Fun.protect ~finally @@ fun () ->
  match
    PR.with_jobs 4 (fun () ->
        PR.with_forced_schedule (PR.Dynamic 8) (fun () ->
            Wolfram.call cf [ Expr.Int 100_000 ]))
  with
  | exception A.Aborted -> ()
  | v -> Alcotest.failf "expected Aborted, got %s" (Expr.to_string v)

(* the direct reduce opcodes the source language reaches only through
   min/max reductions: merge identity and chunk order *)
let test_reduce_opcodes () =
  let minmax op =
    Rtval.Fun
      { Rtval.arity = 3;
        call =
          (fun args ->
             match args with
             | [| carry; Rtval.Int a; Rtval.Int b |] ->
               let s = ref (Rtval.as_real carry) in
               for i = a to b do
                 let v = Float.abs (float_of_int (i - 137)) in
                 s := (if op = `Min then Float.min else Float.max) !s v
               done;
               Rtval.Real !s
             | _ -> assert false) }
  in
  PR.with_jobs 4 @@ fun () ->
  PR.with_forced_schedule (PR.Dynamic 16) @@ fun () ->
  let run op code init =
    Rtval.as_real
      (PR.parallel_reduce
         [| minmax op; Rtval.Real init; Rtval.Int 1; Rtval.Int 1000;
            Rtval.Int code; Rtval.Str "test-fp-minmax" |])
  in
  Alcotest.(check (float 0.0)) "min over chunks" 0.0 (run `Min 4 7.0);
  Alcotest.(check (float 0.0)) "max over chunks" 863.0 (run `Max 6 7.0)

(* ------------------------------------------------------------------ *)
(* Executor sharing: saturation degrades to serial, never deadlocks    *)

let blocked_executor () =
  (* a 1-worker, capacity-1 pool whose worker is parked and whose queue
     is full: every further submit is refused with [`Saturated] *)
  let e = Ex.create ~capacity:1 ~jobs:1 () in
  let release = Atomic.make false in
  let park () = while not (Atomic.get release) do Thread.yield () done in
  ignore (Ex.submit e park);
  while (Ex.stats e).Ex.running < 1 do Thread.yield () done;
  ignore (Ex.submit e park);
  (e, release)

let with_blocked_executor f =
  let e, release = blocked_executor () in
  PR.set_executor e;
  let finally () =
    Atomic.set release true;
    Ex.quiesce e;
    Ex.shutdown e;
    (* leave a healthy shared pool behind for whatever runs next *)
    PR.set_executor (Ex.create ~capacity:256 ~jobs:4 ())
  in
  Fun.protect ~finally (fun () -> f e)

let test_saturated_pool_degrades_to_serial () =
  with_blocked_executor @@ fun e ->
  let v =
    PR.with_jobs 4 @@ fun () ->
    PR.with_forced_schedule (PR.Dynamic 32) @@ fun () ->
    PR.parallel_reduce (reduce_args (range_reduce ()))
  in
  (* the caller claimed every chunk itself: exact serial sum *)
  Alcotest.(check (float 0.0)) "caller-only result" 250_250.0
    (Rtval.as_real v);
  let st = Ex.stats e in
  Alcotest.(check bool)
    (Printf.sprintf "saturation was counted (saturated=%d)" st.Ex.saturated)
    true (st.Ex.saturated >= 3)

let test_tier_promoted_parallel_for_no_deadlock () =
  with_blocked_executor @@ fun _ ->
  let cf =
    Wolfram.tiered ~options:par_options ~threshold:1
      ~promote_target:Wolfram.Threaded ~name:"parloop_tier" (parse sum_src)
  in
  let t = Option.get (Wolfram.tier_of cf) in
  ignore (Wolfram.call cf [ Expr.Int 100 ]);
  (match Wolfram.Tier.await_promotion t with
   | Wolfram.Tier.Promoted -> ()
   | s -> Alcotest.failf "promotion ended %s" (Wolfram.Tier.state_name s));
  (* promoted closure runs its parallel loop while the shared pool is
     starved: must complete on the caller alone *)
  let v =
    PR.with_jobs 4 (fun () ->
        PR.with_forced_schedule (PR.Dynamic 8) (fun () ->
            Wolfram.call cf [ Expr.Int 1000 ]))
  in
  Alcotest.(check (float 1e-6)) "promoted parallel result" 250_250.0
    (expect_real "tier+parloop" v);
  Wolfram.Tier.shutdown ()

let tests =
  [ Alcotest.test_case "recognizer decisions per shape" `Quick test_decisions;
    Alcotest.test_case "nested loop: inner only" `Quick test_nested_decision;
    Alcotest.test_case "reduce == serial under all chunkings" `Quick
      test_reduce_chunking_equivalence;
    Alcotest.test_case "map == serial under all chunkings" `Quick
      test_map_chunking_equivalence;
    Alcotest.test_case "repeated calls are idempotent" `Quick
      test_repeated_calls_idempotent;
    Alcotest.test_case "schedule cache hit determinism" `Quick
      test_schedule_cache_hits;
    Alcotest.test_case "chunk exception propagates" `Quick
      test_chunk_exception_propagates;
    Alcotest.test_case "abort beats other chunk errors" `Quick
      test_chunk_abort_wins;
    Alcotest.test_case "injected abort in compiled loop" `Quick
      test_injected_abort_in_compiled_loop;
    Alcotest.test_case "direct min/max reduce opcodes" `Quick
      test_reduce_opcodes;
    Alcotest.test_case "saturated pool degrades to serial" `Quick
      test_saturated_pool_degrades_to_serial;
    Alcotest.test_case "tier-promoted parallel-for, starved pool" `Quick
      test_tier_promoted_parallel_for_no_deadlock ]
