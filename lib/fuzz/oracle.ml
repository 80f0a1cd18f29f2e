open Wolf_wexpr
module B = Wolf_backends

type outcome =
  | Value of Expr.t
  | Aborted
  | Failed of string

type backend = Threaded | Jit | Wvm | C | Binary | Serve | Tier | Par

let backend_name = function
  | Threaded -> "threaded"
  | Jit -> "jit"
  | Wvm -> "wvm"
  | C -> "c"
  | Binary -> "binary"
  | Serve -> "serve"
  | Tier -> "tier"
  | Par -> "par"

let backends_of_string s =
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "threaded" :: r -> go (Threaded :: acc) r
    | "jit" :: r -> go (Jit :: acc) r
    | "wvm" :: r -> go (Wvm :: acc) r
    | "c" :: r -> go (C :: acc) r
    | "binary" :: r -> go (Binary :: acc) r
    | "serve" :: r -> go (Serve :: acc) r
    | "tier" :: r -> go (Tier :: acc) r
    | "par" :: r -> go (Par :: acc) r
    | x :: _ ->
      Error
        (Printf.sprintf
           "unknown backend %S (threaded,jit,wvm,c,binary,serve,tier,par)" x)
  in
  go [] parts

type failure = {
  fwhere : string;
  fexpected : string;
  fgot : string;
}

(* ---- outcome comparison --------------------------------------------- *)

let rtol = 1e-9

let close_float x y =
  x = y
  || (Float.is_nan x && Float.is_nan y)
  || Float.abs (x -. y) <= rtol *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))

(* Module-variable uniquification ("m1" -> "m1$8388") leaks into results
   when a failed binding leaves the variable symbolic, and the counter
   value depends on how many evaluations ran before — two interpreter
   runs of one program (e.g. the tier arm's tier-0 call vs the reference)
   differ textually.  Alpha-equivalence is the sound comparison: strip
   the counter, keep the base name and the '$' marker. *)
let strip_uniq name =
  let n = String.length name in
  match String.rindex_opt name '$' with
  | Some i when i > 0 && i < n - 1 ->
    let digits = ref true in
    for j = i + 1 to n - 1 do
      match name.[j] with '0' .. '9' -> () | _ -> digits := false
    done;
    if !digits then String.sub name 0 (i + 1) else name
  | _ -> name

(* normalise packed tensors to nested List expressions so Tensor-vs-List
   results (interpreter and backends box differently) compare structurally,
   and gensym'd symbols up to alpha-equivalence *)
let rec norm e =
  match e with
  | Expr.Tensor t -> norm (Wolf_runtime.Rtval.tensor_to_expr t)
  | Expr.Normal (h, args) -> Expr.Normal (norm h, Array.map norm args)
  | Expr.Sym s ->
    let n = Symbol.name s in
    let n' = strip_uniq n in
    if String.equal n n' then e else Expr.Sym (Symbol.intern n')
  | _ -> e

let rec close_expr a b =
  match a, b with
  | Expr.Real x, Expr.Real y -> close_float x y
  | Expr.Real x, Expr.Int y | Expr.Int y, Expr.Real x ->
    (* a fold can turn 2. * 3 into 6 while the interpreter keeps 6.; treat
       numerically-equal mixed kinds as agreement *)
    close_float x (float_of_int y)
  | Expr.Normal (ha, xa), Expr.Normal (hb, xb) ->
    Array.length xa = Array.length xb
    && close_expr ha hb
    && Array.for_all2 close_expr xa xb
  | _ -> Expr.equal a b

let agree a b =
  match a, b with
  | Value x, Value y -> close_expr (norm x) (norm y)
  | Aborted, Aborted -> true
  | Failed _, Failed _ -> true
  | _ -> false

let outcome_str = function
  | Value e -> Form.input_form e
  | Aborted -> "<aborted>"
  | Failed m -> "<failed: " ^ m ^ ">"

(* ---- running --------------------------------------------------------- *)

let guard f =
  match f () with
  | v -> Value v
  | exception Wolf_base.Abort_signal.Aborted ->
    Wolf_base.Abort_signal.clear ();
    Aborted
  | exception Wolf_base.Errors.Runtime_error fl ->
    Failed (Wolf_base.Errors.describe_failure fl)
  | exception Wolf_base.Errors.Eval_error m -> Failed m
  | exception Wolf_base.Errors.Compile_error m -> Failed ("compile: " ^ m)
  | exception e -> Failed (Printexc.to_string e)

let parse_case (case : Ast.case) =
  let src = Ast.to_source case.Ast.fn in
  match Parser.parse_opt src with
  | Ok fexpr ->
    let args =
      List.map (fun a -> Parser.parse (Ast.arg_source a)) case.Ast.args
    in
    Ok (fexpr, Array.of_list args)
  | Error e -> Error (Printf.sprintf "generated program does not parse: %s" e)

let reference case =
  match parse_case case with
  | Error e -> Failed e
  | Ok (fexpr, args) ->
    guard (fun () -> Wolfram.interpret_expr (Expr.Normal (fexpr, args)))

let fuzz_options level =
  { Wolf_compiler.Options.default with
    Wolf_compiler.Options.opt_level = level;
    verify_each = true;
    use_cache = false }

let target_of = function
  | Threaded -> Wolfram.Threaded
  | Jit -> Wolfram.Jit
  | Wvm -> Wolfram.Bytecode
  | C | Binary | Serve | Tier | Par ->
    Wolfram.Threaded  (* unused; these have own paths *)

let run_native backend level fexpr args =
  guard (fun () ->
      let cf =
        Wolfram.function_compile ~options:(fuzz_options level)
          ~target:(target_of backend) fexpr
      in
      Wolfram.call cf (Array.to_list args))

let run_wvm fexpr args =
  guard (fun () ->
      let w = B.Wvm.compile fexpr in
      B.Wvm.call w args)

(* C export: compile the emitted translation unit with the system compiler
   and run it; scalar params/results only (the driver prints one scalar). *)
(* memoized probe; NOT a [lazy]: concurrent forcing of a lazy from two
   domains raises CamlinternalLazy.Undefined.  0 = unknown, 1 = yes, 2 = no;
   a duplicated probe during the race window is harmless. *)
let have_cc_state = Atomic.make 0

let have_cc () =
  match Atomic.get have_cc_state with
  | 1 -> true
  | 2 -> false
  | _ ->
    let yes = Sys.command "cc --version >/dev/null 2>&1" = 0 in
    Atomic.set have_cc_state (if yes then 1 else 2);
    yes

(* A C-emitted program carries no interpreter, so unlike the in-process
   arms it cannot revert to uncompiled evaluation when the compiled code
   hits a runtime error (Wolfram.call's CompiledCodeFunction fallback).
   When such a program panics cleanly (exit 3/4), the panic is correct
   behaviour iff the very same compiled program also raises on the
   in-process native backend with no fallback — then the arm skips (the
   divergence from the interpreter reference is the fallback itself, by
   design).  If the native run succeeds where the emitted C panicked,
   that is an emitter bug and stays a reported failure. *)
let compiled_panics c args =
  match (B.Native.compile c).Wolf_runtime.Rtval.call
          (Array.map Wolf_runtime.Rtval.of_expr args)
  with
  | _ -> false
  | exception Wolf_base.Abort_signal.Aborted ->
    Wolf_base.Abort_signal.clear ();
    false
  | exception _ -> true

let run_c level fexpr args =
  let compiled =
    match
      Wolf_compiler.Pipeline.compile ~options:(fuzz_options level) ~name:"fz"
        fexpr
    with
    | c -> Ok c
    | exception e -> Error (guard (fun () -> raise e))
  in
  match compiled with
  | Error outcome -> Some outcome
  | Ok c ->
    let rargs = Array.to_list (Array.map Wolf_runtime.Rtval.of_expr args) in
    match B.C_emit.emit_with_driver c ~args:rargs with
    | Error e -> Some (Failed ("compile: " ^ e))
    | Ok emitted ->
      let dir = Filename.temp_file "wolf_fuzz" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let cfile = Filename.concat dir "fz.c" in
      let exe = Filename.concat dir "fz" in
      let oc = open_out cfile in
      output_string oc emitted.B.C_emit.source;
      close_out oc;
      let rm () = ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))) in
      Fun.protect ~finally:rm (fun () ->
          if Sys.command
              (Printf.sprintf "cc -O1 -o %s %s -lm 2>%s.log" exe cfile exe)
             <> 0
          then Some (Failed "compile: cc failed on exported C")
          else begin
            (* the emitted program reports panics on stderr (correct for a
               shipped binary, noise in a campaign): route them away, same
               courtesy as [Compiled_function.quiet] for in-process arms *)
            let ic = Unix.open_process_in (Filename.quote exe ^ " 2>/dev/null") in
            let line = try input_line ic with End_of_file -> "" in
            match Unix.close_process_in ic with
            | Unix.WEXITED 0 ->
              Some (guard (fun () -> Parser.parse (String.trim line)))
            | Unix.WEXITED (3 | 4) when compiled_panics c args -> None
            | Unix.WEXITED n ->
              Some (Failed (Printf.sprintf "exported C exited with code %d" n))
            | Unix.WSIGNALED n | Unix.WSTOPPED n ->
              Some (Failed (Printf.sprintf "exported C killed by signal %d" n))
          end)

(* Binary arm: the full [wolfc build] product, end to end.  Unlike the c
   arm (which bakes the arguments into an emitted [main]), this one goes
   through [emit_standalone] + [C_build.build] and passes the arguments on
   the command line, so the run-time argument parsers, the exit-code
   protocol and the shipped-binary printing all sit inside the tested
   surface.  Arguments travel as their InputForm (strings as raw bytes —
   the driver takes string parameters verbatim from argv). *)

let argv_of_expr = function
  | Expr.Str s -> s
  | e -> Form.input_form e

let run_binary level fexpr args =
  let compiled =
    match
      Wolf_compiler.Pipeline.compile ~options:(fuzz_options level) ~name:"fz"
        fexpr
    with
    | c -> Ok c
    | exception e -> Error (guard (fun () -> raise e))
  in
  match compiled with
  | Error outcome -> Some outcome   (* a compile failure is an outcome *)
  | Ok c ->
    match B.C_emit.emit_standalone c with
    | Error _ -> None
    (* capability gap (e.g. a shape the emitter declares unsupported), not
       a disagreement: the arm skips rather than fabricating a [Failed] the
       reference cannot match *)
    | Ok emitted ->
      let dir = Filename.temp_file "wolf_fuzz_bin" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let exe = Filename.concat dir "fz" in
      let rm () =
        ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))
      in
      Fun.protect ~finally:rm (fun () ->
          match
            B.C_build.build ~cflags:[ "-O1" ]
              ~source:emitted.B.C_emit.source ~output:exe ()
          with
          | Error e ->
            Some (Failed ("compile: cc failed on built binary: " ^ e))
          | Ok () ->
            let argv = Array.append [| exe |] (Array.map argv_of_expr args) in
            (* spawn without a shell (argument bytes must survive verbatim)
               and with stderr routed away: the binary reports panics there,
               which is right for a shipped executable and noise here *)
            let out_r, out_w = Unix.pipe () in
            let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
            let pid = Unix.create_process exe argv Unix.stdin out_w devnull in
            Unix.close out_w;
            Unix.close devnull;
            let ic = Unix.in_channel_of_descr out_r in
            let line = try input_line ic with End_of_file -> "" in
            (* drain the rest so the child never blocks on a full pipe *)
            (try
               while true do
                 ignore (input_line ic)
               done
             with End_of_file -> ());
            let _, status = Unix.waitpid [] pid in
            close_in ic;
            match status with
            | Unix.WEXITED 0 ->
              Some (guard (fun () -> Parser.parse (String.trim line)))
            | Unix.WEXITED 5 -> Some Aborted
            (* 3 runtime panic / 4 OOM: no fallback interpreter inside a
               shipped binary — correct iff the in-process native run of
               the same compiled program panics too (see [compiled_panics]) *)
            | Unix.WEXITED (3 | 4) when compiled_panics c args -> None
            | Unix.WEXITED n ->
              Some (Failed (Printf.sprintf "binary exited with code %d" n))
            | Unix.WSIGNALED n | Unix.WSTOPPED n ->
              Some (Failed (Printf.sprintf "binary killed by signal %d" n)))

(* ---- serve arm: replay through a wolfd daemon ------------------------

   The daemon evaluates with the very same interpreter, so unlike the
   backend arms the property is exact: the printed reply must be
   byte-identical to the reference's InputForm.  What the arm actually
   exercises is everything in between — protocol encode/decode, session
   state swapping, the executor, and concurrent clients (each fuzz worker
   domain keeps its own connection, so a sharded campaign is a concurrent
   protocol test for free). *)

let serve_socket : string option ref = ref None

(* one client per worker domain, reconnected if the socket path changes
   (a new embedded daemon for a new campaign) or the connection died *)
let serve_client_key : (string * Wolf_serve.Client.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let serve_connect path =
  let slot = Domain.DLS.get serve_client_key in
  (match !slot with
   | Some (p, c) when p <> path ->
     (try Wolf_serve.Client.close c with _ -> ());
     slot := None
   | _ -> ());
  match !slot with
  | Some (_, c) -> c
  | None ->
    let c = Wolf_serve.Client.connect path in
    slot := Some (path, c);
    c

let serve_eval source =
  match !serve_socket with
  | None -> failwith "serve backend requested but no daemon socket is set"
  | Some path ->
    (match Wolf_serve.Client.eval_string (serve_connect path) source with
     | r -> r
     | exception _ ->
       (* the daemon may have restarted since the last campaign; one fresh
          reconnect, then let failures surface *)
       (Domain.DLS.get serve_client_key) := None;
       Wolf_serve.Client.eval_string (serve_connect path) source)

let check_serve fexpr args ref_outcome =
  let source = Form.input_form (Expr.Normal (fexpr, args)) in
  let fail fgot = [ { fwhere = "serve"; fexpected = outcome_str ref_outcome; fgot } ] in
  match serve_eval source with
  | exception exn ->
    [ { fwhere = "serve"; fexpected = "a daemon reply";
        fgot = Printexc.to_string exn } ]
  | Error (kind, msg) ->
    (match ref_outcome with
     | Failed _ -> []   (* error reply <-> reference failure: same laxity as
                           Failed-vs-Failed between backends *)
     | _ -> fail (Printf.sprintf "<%s error: %s>" kind msg))
  | Ok "$Aborted" ->
    (match ref_outcome with Aborted -> [] | _ -> fail "$Aborted")
  | Ok printed ->
    (match ref_outcome with
     | Value v when Form.input_form v = printed -> []
     | _ -> fail printed)

let scalar = function Ast.TInt | Ast.TReal | Ast.TBool -> true | _ -> false

let c_applicable (case : Ast.case) =
  scalar case.Ast.fn.Ast.ret
  && List.for_all (fun (_, t) -> scalar t) case.Ast.fn.Ast.params
  (* the C emitter rejects residual function values, and at O0 nothing
     promotes a [Function] literal's closure to a direct call *)
  && not (Ast.uses_closures case.Ast.fn)

(* the standalone driver parses every generated parameter type (integers,
   reals, booleans, raw strings, rank-1 brace lists) but has no escaped
   string printer, so string-returning programs stay out of the arm *)
let binary_applicable (case : Ast.case) =
  case.Ast.fn.Ast.ret <> Ast.TStr
  && not (Ast.uses_closures case.Ast.fn)

(* ---- abort injection -------------------------------------------------

   A compiled call with an abort scheduled after the [k]-th check must
   either land on the reference value (the abort fired after the work, or
   inside the interpreter fallback which re-raises and is itself aborted)
   or observe the abort.  Check counts differ per backend and level — the
   strided abort optimisation exists precisely to change them — so exact
   agreement is not a sound property; membership is. *)
let abort_ks = [ 1; 5; 50 ]

let check_abort ~level fexpr args ref_outcome =
  List.filter_map
    (fun k ->
       let module A = Wolf_base.Abort_signal in
       A.clear ();
       A.abort_after k;
       let got =
         Fun.protect ~finally:(fun () -> A.clear ())
           (fun () -> run_native Threaded level fexpr args)
       in
       match got with
       | Aborted -> None
       | o when agree o ref_outcome -> None
       | o ->
         Some
           { fwhere = Printf.sprintf "abort/threaded/O%d/k=%d" level k;
             fexpected = outcome_str ref_outcome ^ " or <aborted>";
             fgot = outcome_str o })
    abort_ks

(* ---- tier arm: the full promotion lifecycle on every program ---------

   A fresh uncached controller with threshold 1: the first call runs at
   tier 0 (pure interpreter — must match the reference), crossing the
   threshold on its way out; we then wait for the background -O2 compile
   to land (promotion goes through Threaded so the arm needs no
   toolchain) and call again through the promoted closure — which must
   still match.  A promotion that ends [Failed] is legitimate only for
   programs whose compile legitimately fails; those keep interpreting,
   and the second call must still agree. *)

let fresh_tier fexpr =
  let cf =
    Wolfram.tiered ~options:(fuzz_options 2) ~threshold:1
      ~promote_target:Wolfram.Threaded ~name:"fz" fexpr
  in
  cf, Option.get (Wolfram.tier_of cf)

let check_tier fexpr args ref_outcome =
  let cf, t = fresh_tier fexpr in
  let call () = guard (fun () -> Wolfram.call cf (Array.to_list args)) in
  let mismatch where got =
    if agree got ref_outcome then None
    else
      Some
        { fwhere = where; fexpected = outcome_str ref_outcome;
          fgot = outcome_str got }
  in
  let pre = call () in
  let st = Wolfram.Tier.await_promotion ~timeout:60.0 t in
  let post = call () in
  Option.to_list (mismatch "tier/t0" pre)
  @ (match st with
     | Wolfram.Tier.Promoted | Wolfram.Tier.Failed -> []
     | s ->
       [ { fwhere = "tier/promotion"; fexpected = "promoted or failed";
           fgot = "<stuck in state " ^ Wolfram.Tier.state_name s ^ ">" } ])
  @ Option.to_list
      (mismatch
         (Printf.sprintf "tier/%s"
            (Wolfram.Tier.state_name (Wolfram.Tier.state t)))
         post)

(* Abort[] racing a promotion: schedule an abort after the k-th check and
   make the first call; the abort may land mid-tier-0 (call aborts), after
   the result (call agrees), or inside the background compile (promotion
   retreats to Cold and retries).  Whatever the interleaving: the settled
   function must still agree with the reference and the abort flag must
   not leak past the protection scope. *)
let check_tier_abort fexpr args ref_outcome =
  let module A = Wolf_base.Abort_signal in
  List.filter_map
    (fun k ->
       let cf, t = fresh_tier fexpr in
       let call () = guard (fun () -> Wolfram.call cf (Array.to_list args)) in
       A.clear ();
       A.abort_after k;
       let got = Fun.protect ~finally:(fun () -> A.clear ()) call in
       (* settle: a compile the abort shot down retries from Cold here *)
       ignore (Wolfram.Tier.force_promote t);
       let post = call () in
       let leaked = A.requested () in
       if leaked then A.clear ();
       let where what = Printf.sprintf "tier-abort/k=%d/%s" k what in
       if leaked then
         Some
           { fwhere = where "flag"; fexpected = "a clear abort flag";
             fgot = "<leaked abort request>" }
       else if not (agree post ref_outcome) then
         Some
           { fwhere = where (Wolfram.Tier.state_name (Wolfram.Tier.state t));
             fexpected = outcome_str ref_outcome; fgot = outcome_str post }
       else
         match got with
         | Aborted -> None
         | o when agree o ref_outcome -> None
         | o ->
           Some
             { fwhere = where "t0";
               fexpected = outcome_str ref_outcome ^ " or <aborted>";
               fgot = outcome_str o })
    abort_ks

(* ---- par arm: the parallel-loop backend ------------------------------

   Compile once with [parallel_loops] on, then call three ways: jobs=1
   (the runtime's serial degeneration), jobs=4 with measured schedule
   selection (exercises the measurement + cache path), and jobs=4 with a
   forced 16-way dynamic chunking (guarantees cross-domain chunked
   execution even when measurement would pick serial on this host).  All
   three must agree with the interpreter reference.  With [abort] on, the
   injected-abort membership property runs under forced chunking: a
   domain-local abort scheduled after the k-th poll must land on the
   reference value or <aborted> — the caller polls between chunk claims
   and inside the chunks it runs itself, so a mid-loop abort kills the
   parallel-for.  Unsafe loops (non-associative ops, cross-iteration
   reads) are rejected by the pass and simply run serial here — same
   property, no special-casing. *)

let par_options level =
  { (fuzz_options level) with Wolf_compiler.Options.parallel_loops = true }

(* campaign-wide coverage counters, so a par campaign can assert that the
   pass actually fired instead of silently rejecting everything *)
let par_loops_seen = Atomic.make 0
let par_programs_seen = Atomic.make 0

let reset_par_stats () =
  Atomic.set par_loops_seen 0;
  Atomic.set par_programs_seen 0

let par_stats () = (Atomic.get par_programs_seen, Atomic.get par_loops_seen)

let count_parallelized cf =
  match Wolfram.pipeline_of cf with
  | None -> ()
  | Some p ->
    let n =
      List.length
        (List.filter
           (fun (k, v) ->
              String.starts_with ~prefix:"parloop." k
              && String.starts_with ~prefix:"parallelized" v)
           p.Wolf_compiler.Pipeline.program.Wolf_compiler.Wir.pmeta)
    in
    if n > 0 then begin
      Atomic.incr par_programs_seen;
      ignore (Atomic.fetch_and_add par_loops_seen n)
    end

let check_par ~level ~abort fexpr args ref_outcome =
  let mismatch where got =
    if agree got ref_outcome then None
    else
      Some
        { fwhere = where; fexpected = outcome_str ref_outcome;
          fgot = outcome_str got }
  in
  match
    Wolfram.function_compile ~options:(par_options level)
      ~target:Wolfram.Threaded fexpr
  with
  | exception e ->
    let msg =
      match e with
      | Wolf_base.Errors.Compile_error m -> "compile: " ^ m
      | Wolf_base.Errors.Eval_error m -> m
      | e -> Printexc.to_string e
    in
    Option.to_list
      (mismatch (Printf.sprintf "par/O%d/compile" level) (Failed msg))
  | cf ->
    count_parallelized cf;
    let module P = Wolf_runtime.Par_runtime in
    let call () = guard (fun () -> Wolfram.call cf (Array.to_list args)) in
    let runs =
      [ (Printf.sprintf "par/O%d/j1" level, fun () -> P.with_jobs 1 call);
        (Printf.sprintf "par/O%d/j4" level, fun () -> P.with_jobs 4 call);
        (Printf.sprintf "par/O%d/j4-dyn16" level,
         fun () ->
           P.with_jobs 4 (fun () ->
               P.with_forced_schedule (P.Dynamic 16) call)) ]
    in
    let fs = List.filter_map (fun (w, r) -> mismatch w (r ())) runs in
    let afs =
      if not abort then []
      else
        List.filter_map
          (fun k ->
             let module A = Wolf_base.Abort_signal in
             A.clear ();
             A.abort_after k;
             let got =
               Fun.protect
                 ~finally:(fun () -> A.clear ())
                 (fun () ->
                    P.with_jobs 4 (fun () ->
                        P.with_forced_schedule (P.Dynamic 8) call))
             in
             match got with
             | Aborted -> None
             | o when agree o ref_outcome -> None
             | o ->
               Some
                 { fwhere = Printf.sprintf "par-abort/O%d/k=%d" level k;
                   fexpected = outcome_str ref_outcome ^ " or <aborted>";
                   fgot = outcome_str o })
          abort_ks
    in
    fs @ afs

(* ---- the oracle ------------------------------------------------------ *)

let check_parsed ?(backends = [ Threaded; Wvm ]) ?(levels = [ 0; 1; 2 ])
    ?(abort = true) ~wvm_ok ~c_ok ?(binary_ok = false) fexpr args =
  Wolfram.init ();
  B.Compiled_function.quiet := true;
  let ref_outcome =
    guard (fun () -> Wolfram.interpret_expr (Expr.Normal (fexpr, args)))
  in
  let mismatch where got =
    if agree got ref_outcome then None
    else
      Some
        { fwhere = where; fexpected = outcome_str ref_outcome;
          fgot = outcome_str got }
  in
  let failures =
    List.concat_map
      (fun b ->
         match b with
         | Wvm ->
           if not wvm_ok then []
           else Option.to_list (mismatch "wvm" (run_wvm fexpr args))
         | C ->
           if not c_ok || not (have_cc ()) then []
           else
             List.filter_map
               (fun lvl ->
                  Option.bind (run_c lvl fexpr args)
                    (mismatch (Printf.sprintf "c/O%d" lvl)))
               levels
         | Binary ->
           if not binary_ok || not (have_cc ()) then []
           else
             List.filter_map
               (fun lvl ->
                  Option.bind (run_binary lvl fexpr args)
                    (mismatch (Printf.sprintf "binary/O%d" lvl)))
               levels
         | Serve -> check_serve fexpr args ref_outcome
         | Tier -> check_tier fexpr args ref_outcome
         | Par ->
           (* the parallel-loops pass is gated on opt_level > 0 *)
           let lvls =
             match List.filter (fun l -> l > 0) levels with
             | [] -> [ 2 ]
             | ls -> ls
           in
           List.concat_map
             (fun lvl -> check_par ~level:lvl ~abort fexpr args ref_outcome)
             lvls
         | Threaded | Jit ->
           List.filter_map
             (fun lvl ->
                mismatch
                  (Printf.sprintf "%s/O%d" (backend_name b) lvl)
                  (run_native b lvl fexpr args))
             levels)
      backends
  in
  let abort_failures =
    if abort && List.mem Threaded backends then
      List.concat_map (fun lvl -> check_abort ~level:lvl fexpr args ref_outcome)
        [ 0; 2 ]
    else []
  in
  let tier_abort_failures =
    if abort && List.mem Tier backends then
      check_tier_abort fexpr args ref_outcome
    else []
  in
  failures @ abort_failures @ tier_abort_failures

let check_case ?backends ?levels ?abort (case : Ast.case) =
  match parse_case case with
  | Error e ->
    [ { fwhere = "parse"; fexpected = "parseable source"; fgot = e } ]
  | Ok (fexpr, args) ->
    let abort =
      match abort with Some a -> a | None -> Gen.has_loops case.Ast.fn
    in
    check_parsed ?backends ?levels ~abort
      ~wvm_ok:
        (not (Ast.uses_strings case.Ast.fn)
         && not (Ast.uses_closures case.Ast.fn))
      ~c_ok:(c_applicable case)
      ~binary_ok:(binary_applicable case) fexpr args
