open Wolf_wexpr
module B = Wolf_backends
module A = Wolf_base.Abort_signal

type outcome =
  | Value of Expr.t
  | Aborted
  | Failed of string

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

(* ---- shared machinery ------------------------------------------------ *)

let guard f =
  match f () with
  | v -> Value v
  | exception A.Aborted ->
    A.clear ();
    Aborted
  | exception Wolf_base.Errors.Runtime_error fl ->
    Failed (Wolf_base.Errors.describe_failure fl)
  | exception Wolf_base.Errors.Eval_error m -> Failed m
  | exception Wolf_base.Errors.Compile_error m -> Failed ("compile: " ^ m)
  | exception e -> Failed (Printexc.to_string e)

type program = {
  fn : Expr.t;
  args : Expr.t array;
  expected : outcome;
  levels : int list;
}

let mismatch p fwhere got =
  if agree got p.expected then []
  else [ { fwhere; fexpected = outcome_str p.expected; fgot = outcome_str got } ]

let per_level p name run =
  List.concat_map
    (fun l -> mismatch p (Printf.sprintf "%s/O%d" name l) (run l))
    p.levels

(* Abort injection: a call with an abort scheduled after the [k]-th check
   must either land on the expected value (the abort fired after the work,
   or inside the interpreter fallback which re-raises and is itself
   aborted) or observe the abort.  Check counts differ per backend and
   level — the strided abort optimisation exists precisely to change them —
   so exact agreement is not a sound property; membership is.  [after]
   runs once the flag is cleared again, for arms with more to check. *)
let abort_ks = [ 1; 5; 50 ]

let under_aborts ?(after = fun _ -> []) p where run =
  List.concat_map
    (fun k ->
       let where = Printf.sprintf "%s/k=%d" where k in
       A.clear ();
       A.abort_after k;
       let got = Fun.protect ~finally:A.clear run in
       (match got with
        | Aborted -> []
        | o when agree o p.expected -> []
        | o ->
          [ { fwhere = where; fexpected = outcome_str p.expected ^ " or <aborted>";
              fgot = outcome_str o } ])
       @ after where)
    abort_ks

let fuzz_options level =
  { Wolf_compiler.Options.default with
    Wolf_compiler.Options.opt_level = level;
    use_cache = false }

let call cf p = guard (fun () -> Wolfram.call cf (Array.to_list p.args))

let run_native target level p =
  match Wolfram.function_compile ~options:(fuzz_options level) ~target p.fn with
  | cf -> call cf p
  | exception e -> guard (fun () -> raise e)

(* ---- applicability, decided on the parsed [Function] ----------------- *)

let rec contains pred e =
  pred e
  || match e with
     | Expr.Normal (h, xs) -> contains pred h || Array.exists (contains pred) xs
     | _ -> false

let head_is name = function
  | Expr.Normal (Expr.Sym h, _) -> Symbol.name h = name
  | _ -> false

(* the parameter type annotations and the body of [Function[{…}, body]];
   an untyped parameter reads as [Null] *)
let signature fn =
  match fn with
  | Expr.Normal (_, [| Expr.Normal (_, params); body |]) ->
    let ty = function
      | Expr.Normal (_, [| _; ty |]) as p when head_is "Typed" p -> ty
      | _ -> Expr.Sym (Symbol.intern "Null")
    in
    Some (Array.to_list (Array.map ty params), body)
  | _ -> None

let scalar_ty = function
  | Expr.Str ("MachineInteger" | "Integer64" | "Real64" | "Boolean") -> true
  | _ -> false

(* parameter shapes the standalone driver can parse from argv: the scalar
   set plus raw strings and rank-1 packed arrays as brace lists *)
let argv_ty = function
  | Expr.Str "String" -> true
  | Expr.Normal
      (Expr.Str "PackedArray", [| Expr.Str ("Integer64" | "Real64"); Expr.Int 1 |]) ->
    true
  | t -> scalar_ty t

(* [ok] holds of every parameter type and the body has no [Function]
   literal: the C emitter rejects residual function values (at O0 nothing
   promotes a literal's closure to a direct call), and the legacy bytecode
   compiler has no function values at all *)
let plain ?(strings = true) ok fn =
  match signature fn with
  | Some (tys, body) ->
    List.for_all ok tys
    && not
         (contains
            (function
              | Expr.Str _ -> not strings
              | e -> head_is "Function" e)
            body)
  | None -> false

(* strings are not WVM-representable (L1) *)
let wvm_applies = plain ~strings:false (function Expr.Str "String" -> false | _ -> true)

(* ---- c and binary arms: emitted C, built and run out of process ------

   The c arm bakes the arguments into an emitted [main]; the binary arm is
   the [wolfc build] product ([emit_standalone]) and passes them on the
   command line (strings as raw bytes, everything else in InputForm), so
   the run-time argument parsers and the exit-code protocol are inside the
   tested surface.  A C program carries no interpreter, so unlike the
   in-process arms it cannot revert to uncompiled evaluation when the
   compiled code hits a runtime error.  A clean panic (exit 3/4) is correct
   iff the same compiled program also raises on the in-process native
   backend; then the arm skips.  If the native run succeeds where the C
   program panicked, that is an emitter bug and stays a failure. *)

let compiled_panics c args =
  match (B.Native.compile c).Wolf_runtime.Rtval.call
          (Array.map Wolf_runtime.Rtval.of_expr args)
  with
  | _ -> false
  | exception A.Aborted -> A.clear (); false
  | exception _ -> true

(* spawn without a shell (argument bytes must survive verbatim) and with
   stderr routed away: the program reports panics there, which is right
   for a shipped executable and noise in a campaign *)
let spawn exe argv =
  let out_r, out_w = Unix.pipe () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process exe (Array.append [| exe |] argv) Unix.stdin out_w devnull in
  Unix.close out_w;
  Unix.close devnull;
  let ic = Unix.in_channel_of_descr out_r in
  let line = try input_line ic with End_of_file -> "" in
  (* drain the rest so the child never blocks on a full pipe *)
  (try while true do ignore (input_line ic) done with End_of_file -> ());
  close_in ic;
  (snd (Unix.waitpid [] pid), line)

(* [returns] reads the compiled signature's result type; [emit] yields the
   C source and the command line, or [Error] to skip the program *)
let run_c ~returns ~emit p level =
  match Wolf_compiler.Pipeline.compile ~options:(fuzz_options level) ~name:"fz" p.fn with
  | exception e -> Some (guard (fun () -> raise e))
  | c
    when not
           (Option.fold ~none:false ~some:returns
              (Wolf_compiler.Wir.main c.Wolf_compiler.Pipeline.program).ret_ty) ->
    None
  | c ->
    match emit c with
    | Error skip -> skip
    | Ok (source, argv) ->
      let exe = Filename.temp_file "wolf_fuzz" "" in
      Fun.protect ~finally:(fun () -> try Sys.remove exe with Sys_error _ -> ())
      @@ fun () ->
      match B.C_build.build ~cflags:[ "-O1" ] ~source ~output:exe () with
      | Error e -> Some (Failed ("compile: cc failed: " ^ e))
      | Ok () ->
        match spawn exe argv with
        | Unix.WEXITED 0, line -> Some (guard (fun () -> Parser.parse (String.trim line)))
        | Unix.WEXITED 5, _ -> Some Aborted
        | Unix.WEXITED (3 | 4), _ when compiled_panics c p.args -> None
        | Unix.WEXITED n, _ -> Some (Failed (Printf.sprintf "exited with code %d" n))
        | (Unix.WSIGNALED n | Unix.WSTOPPED n), _ ->
          Some (Failed (Printf.sprintf "killed by signal %d" n))

let c_levels name ~returns ~emit p =
  if not (B.C_build.available ()) then []
  else
    List.concat_map
      (fun l ->
         match run_c ~returns ~emit p l with
         | None -> []
         | Some got -> mismatch p (Printf.sprintf "%s/O%d" name l) got)
      p.levels

let scalar_result t =
  match Wolf_compiler.Types.repr t with
  | Wolf_compiler.Types.Con (("Integer64" | "Real64" | "Boolean"), [||]) -> true
  | _ -> false

(* the standalone driver has no escaped string printer *)
let printable_result t =
  match Wolf_compiler.Types.repr t with
  | Wolf_compiler.Types.Con ("String", _) -> false
  | _ -> true

let check_c p =
  c_levels "c" p ~returns:scalar_result ~emit:(fun c ->
      let args = Array.to_list (Array.map Wolf_runtime.Rtval.of_expr p.args) in
      match B.C_emit.emit_with_driver c ~args with
      | Ok e -> Ok (e.B.C_emit.source, [||])
      | Error e -> Error (Some (Failed ("compile: " ^ e))))

let check_binary p =
  c_levels "binary" p ~returns:printable_result ~emit:(fun c ->
      match B.C_emit.emit_standalone c with
      | Ok e ->
        let argv = function Expr.Str s -> s | e -> Form.input_form e in
        Ok (e.B.C_emit.source, Array.map argv p.args)
      (* a capability gap (a shape the emitter declares unsupported), not a
         disagreement: skip rather than fabricate a failure *)
      | Error _ -> Error None)

(* ---- serve arm: replay through a wolfd daemon ------------------------

   The daemon evaluates with the very same interpreter, so unlike the
   backend arms the property is exact: the parsed reply must print as the
   reference does, up to the numbering of Module symbols ([norm]).  What
   the arm actually exercises is everything in between — protocol
   encode/decode, session state swapping, the executor, and concurrent
   clients (each fuzz worker domain keeps its own connection, so a sharded
   campaign is a concurrent protocol test for free). *)

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

let check_serve p =
  let fail fgot = [ { fwhere = "serve"; fexpected = outcome_str p.expected; fgot } ] in
  match serve_eval (Form.input_form (Expr.Normal (p.fn, p.args))) with
  | exception exn ->
    [ { fwhere = "serve"; fexpected = "a daemon reply"; fgot = Printexc.to_string exn } ]
  | Error (kind, msg) ->
    (match p.expected with
     | Failed _ -> []   (* error reply <-> reference failure: same laxity as
                           Failed-vs-Failed between backends *)
     | _ -> fail (Printf.sprintf "<%s error: %s>" kind msg))
  | Ok "$Aborted" -> (match p.expected with Aborted -> [] | _ -> fail "$Aborted")
  | Ok printed ->
    (* the daemon numbers Module symbols apart from the client: both sides
       are compared up to that numbering, exactly otherwise *)
    let reply = Result.map (fun e -> Form.input_form (norm e)) (Parser.parse_opt printed) in
    (match p.expected with
     | Value v when reply = Ok (Form.input_form (norm v)) -> []
     | _ -> fail printed)

(* bootstrap an embedded daemon unless the caller already pointed
   [serve_socket] at an external process *)
let serve_setup log =
  if !serve_socket <> None then ignore
  else begin
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "wolfd-fuzz-%d.sock" (Unix.getpid ()))
    in
    let srv = Wolf_serve.Server.start (Wolf_serve.Server.default_config ~socket_path:path ()) in
    serve_socket := Some path;
    log (Printf.sprintf "embedded wolfd on %s" path);
    fun () ->
      serve_socket := None;
      Wolf_serve.Server.stop srv
  end

(* ---- tier arm: the full promotion lifecycle on every program ---------

   A fresh uncached controller with threshold 1: the first call runs at
   tier 0 (pure interpreter — must match the reference), crossing the
   threshold on its way out; we then wait for the background -O2 compile
   to land (promotion goes through Threaded so the arm needs no
   toolchain) and call again through the promoted closure — which must
   still match.  A promotion that ends [Failed] is legitimate only for
   programs whose compile legitimately fails; those keep interpreting,
   and the second call must still agree.

   Then [Abort[]] races a promotion: the abort may land mid-tier-0 (call
   aborts), after the result (call agrees), or inside the background
   compile (promotion retreats to Cold and retries).  Whatever the
   interleaving: the settled function must still agree with the reference
   and the abort flag must not leak past the protection scope. *)

let fresh_tier p =
  let cf =
    Wolfram.tiered ~options:(fuzz_options 2) ~threshold:1
      ~promote_target:Wolfram.Threaded ~name:"fz" p.fn
  in
  cf, Option.get (Wolfram.tier_of cf)

let state_where t = "tier/" ^ Wolfram.Tier.state_name (Wolfram.Tier.state t)

let check_tier p =
  let cf, t = fresh_tier p in
  let pre = call cf p in
  let st = Wolfram.Tier.await_promotion ~timeout:60.0 t in
  let post = call cf p in
  mismatch p "tier/t0" pre
  @ (match st with
     | Wolfram.Tier.Promoted | Wolfram.Tier.Failed -> []
     | s ->
       [ { fwhere = "tier/promotion"; fexpected = "promoted or failed";
           fgot = "<stuck in state " ^ Wolfram.Tier.state_name s ^ ">" } ])
  @ mismatch p (state_where t) post

let check_tier_aborts p =
  let last = ref None in
  under_aborts p "tier-abort"
    (fun () ->
       let cf, t = fresh_tier p in
       last := Some (cf, t);
       call cf p)
    ~after:(fun where ->
        let cf, t = Option.get !last in
        (* settle: a compile the abort shot down retries from Cold here *)
        ignore (Wolfram.Tier.force_promote t);
        let post = call cf p in
        if A.requested () then begin
          A.clear ();
          [ { fwhere = where ^ "/flag"; fexpected = "a clear abort flag";
              fgot = "<leaked abort request>" } ]
        end
        else mismatch p (where ^ "/" ^ state_where t) post)

(* ---- par arm: the parallel-loop backend ------------------------------

   Compile once with [parallel_loops] on, then call three ways: jobs=1
   (the runtime's serial degeneration), jobs=4 with measured schedule
   selection (exercises the measurement + cache path), and jobs=4 with a
   forced 16-way dynamic chunking (guarantees cross-domain chunked
   execution even when measurement would pick serial on this host).  All
   three must agree with the interpreter reference.  Abort injection runs
   under forced chunking: the caller polls between chunk claims and inside
   the chunks it runs itself, so a mid-loop abort kills the parallel-for.
   Unsafe loops (non-associative ops, cross-iteration reads) are rejected
   by the pass and simply run serial here — same property, no
   special-casing. *)

(* campaign-wide coverage counters, so a par campaign can assert that the
   pass actually fired instead of silently rejecting everything *)
let par_loops_seen = Atomic.make 0
let par_programs_seen = Atomic.make 0

let reset_par_stats () =
  Atomic.set par_loops_seen 0;
  Atomic.set par_programs_seen 0

let par_stats () = (Atomic.get par_programs_seen, Atomic.get par_loops_seen)

let count_parallelized cf =
  let parallelized (k, v) =
    String.starts_with ~prefix:"parloop." k && String.starts_with ~prefix:"parallelized" v
  in
  match Wolfram.pipeline_of cf with
  | None -> ()
  | Some c ->
    let meta = c.Wolf_compiler.Pipeline.program.Wolf_compiler.Wir.pmeta in
    let n = List.length (List.filter parallelized meta) in
    if n > 0 then begin
      Atomic.incr par_programs_seen;
      ignore (Atomic.fetch_and_add par_loops_seen n)
    end

let check_par_level p level =
  let module P = Wolf_runtime.Par_runtime in
  let options = { (fuzz_options level) with Wolf_compiler.Options.parallel_loops = true } in
  let where = Printf.sprintf "par/O%d/%s" level in
  match Wolfram.function_compile ~options ~target:Wolfram.Threaded p.fn with
  | exception e -> mismatch p (where "compile") (guard (fun () -> raise e))
  | cf ->
    count_parallelized cf;
    let chunked n () =
      P.with_jobs 4 (fun () -> P.with_forced_schedule (P.Dynamic n) (fun () -> call cf p))
    in
    mismatch p (where "j1") (P.with_jobs 1 (fun () -> call cf p))
    @ mismatch p (where "j4") (P.with_jobs 4 (fun () -> call cf p))
    @ mismatch p (where "j4-dyn16") (chunked 16 ())
    @ under_aborts p (Printf.sprintf "par-abort/O%d" level) (chunked 8)

(* the parallel-loops pass is gated on opt_level > 0 *)
let check_par p =
  let levels = match List.filter (fun l -> l > 0) p.levels with [] -> [ 2 ] | ls -> ls in
  List.concat_map (check_par_level p) levels

(* ---- the arm table --------------------------------------------------- *)

type arm = {
  name : string;
  applies : Expr.t -> bool;
  check : program -> failure list;
  setup : (string -> unit) -> unit -> unit;
}

let arm ?(applies = fun _ -> true) ?(setup = fun _ () -> ()) name check =
  { name; applies; check; setup }

let arms =
  [ arm "threaded" (fun p ->
        per_level p "threaded" (fun l -> run_native Wolfram.Threaded l p)
        @ List.concat_map
            (fun l ->
               under_aborts p (Printf.sprintf "abort/threaded/O%d" l) (fun () ->
                   run_native Wolfram.Threaded l p))
            [ 0; 2 ]);
    arm "jit" (fun p -> per_level p "jit" (fun l -> run_native Wolfram.Jit l p));
    arm "wvm" ~applies:wvm_applies (fun p ->
        mismatch p "wvm" (guard (fun () -> B.Wvm.call (B.Wvm.compile p.fn) p.args)));
    arm "c" ~applies:(plain scalar_ty) check_c;
    arm "binary" ~applies:(plain argv_ty) check_binary;
    arm "serve" ~setup:serve_setup check_serve;
    arm "tier" ~setup:(fun _ () -> Wolfram.Tier.shutdown ()) (fun p ->
        check_tier p @ check_tier_aborts p);
    arm "par" check_par ]

let arm_names = String.concat "," (List.map (fun a -> a.name) arms)

let arms_of_string s =
  let names = String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) "") in
  let find n = List.find_opt (fun a -> a.name = n) arms in
  match List.find_opt (fun n -> find n = None) names with
  | Some n -> Error (Printf.sprintf "unknown backend %S (%s)" n arm_names)
  | None -> Ok (List.filter_map find names)

let check ~arms ~levels fn args =
  Wolfram.init ();
  B.Compiled_function.quiet := true;
  let expected = guard (fun () -> Wolfram.interpret_expr (Expr.Normal (fn, args))) in
  let p = { fn; args; expected; levels } in
  List.concat_map (fun a -> if a.applies fn then a.check p else []) arms
