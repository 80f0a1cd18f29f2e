(* The repository benchmark: one process per workload run.

   bench.exe --workload W --seed N --seconds S --trace 0|1 [--setup-only]
   bench.exe make-corpus --seed N --count K     (regenerates corpus.txt)
   bench.exe echo-server --socket PATH          (serve_mixed's reference)

   Every timing is taken here, around calls into the program's public
   functions, or read from counters the program already exports.  The last
   line of standard output is the result object; see README.md for the
   metrics and what each one should move. *)

open Wolf_wexpr
open Wolf_compiler
open Pb_util
module I = Pb_inputs

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let traced = ref false
let setup_only = ref false
let trace_out = ref ""

(* paths relative to the root of the checkout, where run.py starts us *)
let corpus_path = "perfbench/corpus.txt"
let wolfc = "_build/default/bin/wolfc.exe"

(* compile_cold: programs drawn from the pool *)
let pool_draw = 400

(* Process start, as recorded by the launcher just before it spawned us;
   serve_mixed's setup_s runs from there until the first timed op can
   run. *)
let t_start =
  match Sys.getenv_opt "PERFBENCH_T0" with
  | Some s -> (try float_of_string s with _ -> now ())
  | None -> now ()

(* The CPU time this process and its reaped children (the JIT's ocamlopt)
   have used since it started: setup_s of kernels_* and compile_cold, whose
   set-up runs one thing at a time.  Like the op times (Pb_util.cpu_time),
   it leaves out steal.  serve_mixed's set-up waits on the daemon, so it is
   wall-clock time from t_start. *)
let cpu_since_start () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* what the run is doing, for the watchdog's report *)
let phase = ref "start"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt
let info fmt = Printf.printf (fmt ^^ "\n%!")

let ms x = x *. 1e3

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)

let same_value (a : Expr.t) (b : Expr.t) =
  match a, b with
  | Expr.Tensor x, Expr.Tensor y -> Tensor.equal x y
  | _ -> a = b

(* ------------------------------------------------------------------ *)
(* Compiler attribution                                                *)

(* The pass rows of Pipeline.compiled.stats, each a metric of its own,
   and the stage each belongs to.  A row not listed here still counts
   towards its stage (an unknown row is an optimisation pass) and is
   reported on stdout. *)
let pass_rows =
  [ "macro+binding+lower"; "lower"; "type-inference"; "function-resolution"; "fold";
    "simplify-cfg"; "indirect"; "cse"; "licm"; "dce"; "bparam-elim"; "inline"; "mutability";
    "abort-insertion"; "abort-stride"; "memory-management"; "ground-check" ]

let stage_of = function
  | "macro+binding+lower" | "lower" -> "front"
  | "type-inference" | "function-resolution" -> "infer"
  | "mutability" | "abort-insertion" | "abort-stride" | "memory-management" | "ground-check" ->
    "obligations"
  | _ -> "opt"

let metric_key row =
  String.map (fun c -> match c with 'a' .. 'z' | '0' .. '9' -> c | _ -> '_') row

(* compile attribution summed over a run's compiles *)
type compile_attr = {
  mutable compiles : int;
  rows : (string, float) Hashtbl.t;   (* pass row -> seconds *)
  mutable verify : float;             (* the lint verifier, all rows *)
  mutable alloc_bytes : float;
}

let new_attr () = { compiles = 0; rows = Hashtbl.create 32; verify = 0.0; alloc_bytes = 0.0 }

let unknown_rows = Hashtbl.create 4

let row_time attr row = Option.value ~default:0.0 (Hashtbl.find_opt attr.rows row)

let add_stats attr (c : Pipeline.compiled) =
  attr.compiles <- attr.compiles + 1;
  List.iter
    (fun (st : Pass_manager.stat) ->
       let p = st.Pass_manager.st_pass in
       Hashtbl.replace attr.rows p (row_time attr p +. st.st_time);
       if not (List.mem p pass_rows) then Hashtbl.replace unknown_rows p ();
       attr.verify <- attr.verify +. st.st_verify)
    c.Pipeline.stats

(* counts that must repeat exactly for a given program *)
let fixpoint_runs (c : Pipeline.compiled) =
  List.fold_left
    (fun acc (st : Pass_manager.stat) ->
       if stage_of st.Pass_manager.st_pass = "opt" then acc + st.st_runs else acc)
    0 c.Pipeline.stats

let instrs_out (c : Pipeline.compiled) = Pass_manager.instr_count c.Pipeline.program

let compiler_metrics ?(instrs = 0) ?(fixpoint = 0) attr =
  (* mean per compile *)
  let per x = if attr.compiles = 0 then 0.0 else x /. float_of_int attr.compiles in
  let stage name =
    Hashtbl.fold (fun row t acc -> if stage_of row = name then acc +. t else acc) attr.rows 0.0
  in
  List.map (fun name -> m ("compiler." ^ name ^ "_ms") "ms" (ms (per (stage name))))
    [ "front"; "infer"; "opt"; "obligations" ]
  @ [ m "compiler.verify_ms" "ms" (ms (per attr.verify)) ]
  @ List.map
      (fun row -> m ("compiler.pass." ^ metric_key row ^ "_ms") "ms" (ms (per (row_time attr row))))
      pass_rows
  @ [ m "compiler.instrs_out" "count" (float_of_int instrs);
      m "compiler.fixpoint_runs" "count" (float_of_int fixpoint);
      m "compiler.alloc_mb" "MB" (per attr.alloc_bytes /. 1048576.0) ]

(* ------------------------------------------------------------------ *)
(* The per-layer metric set.  A traced run prints every one of them;
   layers a workload does not exercise read 0 (README.md lists which
   workload measures which metric). *)

let kernel_names = [ "fnv1a"; "mandelbrot"; "blur"; "histogram"; "primeq"; "qsort" ]

let serve_layer_names =
  [ "serve.eval_small_ms"; "serve.eval_moderate_ms"; "serve.compile_hit_ms";
    "serve.compile_miss_ms"; "serve.decode_p50_ms"; "serve.queue_wait_p50_ms";
    "serve.queue_wait_p99_ms"; "serve.lock_wait_p99_ms"; "serve.eval_p50_ms";
    "serve.encode_p50_ms"; "kernel.direct_eval_ms"; "serve.overhead_ms" ]

let per_layer_template () =
  [ m "wexpr.parse_ms" "ms" 0.0 ]
  @ compiler_metrics (new_attr ())
  @ [ m "backends.threaded_codegen_ms" "ms" 0.0 ]
  @ List.concat_map
      (fun k -> [ m ("backends." ^ k ^ "_ms") "ms" 0.0; m ("backends." ^ k ^ ".vs_hand") "ratio" 0.0 ])
      kernel_names
  @ List.map (fun k -> m ("runtime.abort_share." ^ k) "share" 0.0) kernel_names
  @ [ m "runtime.alloc_mb_per_op" "MB" 0.0; m "backends.jit_ms" "ms" 0.0 ]
  @ List.map (fun n -> m n "ms" 0.0) serve_layer_names
  @ [ m "compile_cache.hit_ratio" "share" 0.0; m "executor.saturated" "count" 0.0;
      m "serve.compile_summary_mismatch" "count" 0.0;
      m "host.ref_ms" "ms" 0.0; m "host.steal_pct" "%" 0.0; m "host.echo_us" "us" 0.0;
      m "trace.overhead_pct" "%" 0.0 ]

(* overlay measured values on the template, keeping its order *)
let per_layer measured =
  List.map
    (fun t -> match List.find_opt (fun x -> x.mname = t.mname) measured with
       | Some x -> x
       | None -> t)
    (per_layer_template ())

(* ------------------------------------------------------------------ *)
(* Result                                                              *)

(* child processes (wolfd), reaped on every exit path *)
let children : int list ref = ref []

let reap pid =
  children := List.filter (( <> ) pid) !children;
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let reap_children () = List.iter reap !children

let spawn prog args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) null null Unix.stderr in
  Unix.close null;
  children := pid :: !children;
  pid

(* Speed normalisation.  On a shared host the speed this process gets
   drifts by 10-15% over tens of seconds even without steal, and the
   memory-bound code of a compiler or a boxed kernel drifts with the memory
   system.  Every kernels_* and compile_cold run therefore times the host
   probe ([Pb_hand.host_probe], no repository code, no allocation) between
   its ops, and scales each op time to a host on which the probe takes its
   nominal time: t x nominal / r, where r is the median of the probe
   samples around that op.  setup_s is scaled by five samples taken right
   after set-up.  The unscaled values are printed on the line before the
   result; host.ref_ms is the median probe sample. *)
let probe_nominal_ms = 3.2

let host_samples : float list ref = ref []   (* newest first *)
let host_count = ref 0

let probe_once () =
  (* the first pass brings the buffer back into the caches, so that the
     timed one does not depend on what the last op left there *)
  ignore (Sys.opaque_identity (Pb_hand.host_probe ()));
  snd (cpu_time (fun () -> Sys.opaque_identity (Pb_hand.host_probe ())))

let host_sample () =
  let t = probe_once () in
  host_samples := t :: !host_samples;
  incr host_count

let host_ref () = median !host_samples

(* All CPU ticks so far, per /proc/stat field (Linux); field 7 is steal,
   the time the hypervisor ran another guest on one of our vCPUs. *)
let cpu_ticks () =
  In_channel.with_open_text "/proc/stat" (fun ic ->
      match List.filter (( <> ) "") (String.split_on_char ' ' (input_line ic)) with
      | "cpu" :: fields -> Array.of_list (List.map float_of_string fields)
      | _ -> die "unexpected first line in /proc/stat")

let ticks_marks : float array list ref = ref []

(* Called right before and right after the timed region: five probe
   samples and a /proc/stat reading. *)
let host_mark () =
  for _ = 1 to 5 do host_sample () done;
  ticks_marks := cpu_ticks () :: !ticks_marks

(* steal as a share of all CPU time between the first and last mark, in % *)
let steal_pct () =
  match !ticks_marks with
  | last :: _ :: _ ->
    let first = List.nth !ticks_marks (List.length !ticks_marks - 1) in
    let d = Array.map2 ( -. ) last first in
    100.0 *. d.(7) /. Float.max 1.0 (Array.fold_left ( +. ) 0.0 d)
  | _ -> 0.0

(* set-up time at the nominal host speed *)
let normalise_setup t =
  let r = median (List.init 5 (fun _ -> probe_once ())) in
  info "unscaled: setup_s %.4f probe_ms %.4f" t (ms r);
  t *. probe_nominal_ms /. ms r

type outcome = {
  attempted : int;
  failed : int;
  ops : (float * float) list;
      (* every timed op: seconds, and its factor to the nominal host
         speed *)
  rate : (float * float) option;
      (* ops per second as the workload measured them, unscaled and scaled
         (serve_mixed); [None] = ops / total op time *)
  setup : float;
  rss_mb : float;
  vs_hand : float option;
      (* kernels: compiled / hand-written; [None]: op_ms in units of
         [ref_ms] *)
  ref_ms : float;
  layers : metric list;
}

(* The factor to the nominal host speed of something timed after [h]
   reference samples, from the samples in order ([refs], seconds): the
   nominal sample time over the median of the samples within [window] of
   it. *)
let scale_at ~nominal refs ~window h =
  let lo = max 0 (h - window) and hi = min (Array.length refs - 1) (h + window - 1) in
  nominal /. median (Array.to_list (Array.sub refs lo (hi - lo + 1)))

(* the same for the host probe's samples *)
let probe_scale ~window =
  scale_at ~nominal:(probe_nominal_ms /. 1e3) (Array.of_list (List.rev !host_samples)) ~window

let finish o =
  if o.attempted < 1 then die "no op was attempted";
  Hashtbl.iter (fun p () -> info "note: pass row %S is not in the metric list" p) unknown_rows;
  let metrics =
    if !traced then per_layer o.layers
    else begin
      let raw = List.map fst o.ops in
      let ops = List.map (fun (t, f) -> t *. f) o.ops in
      let count = float_of_int (List.length ops) in
      let raw_tput, tput =
        match o.rate with
        | Some r -> r
        | None -> (count /. sum raw, count /. sum ops)
      in
      let raw_tail, _, _ = tail raw and tail_v, tail_p, n = tail ops in
      info "unscaled: op_ms %.4f op_tail_ms %.4f ops_per_s %.2f; host.ref_ms %.4f host.steal_pct %.2f"
        (ms (median raw)) (ms raw_tail) raw_tput (ms (host_ref ())) (steal_pct ());
      info "op_tail_ms is p%.2f over %d samples (10 beyond it)" tail_p n;
      [ m "setup_s" "s" o.setup;
        m "ops_per_s" "1/s" tput;
        m "op_ms" "ms" (ms (median ops));
        m "op_tail_ms" "ms" (ms tail_v);
        m "peak_rss_mb" "MB" o.rss_mb;
        m "vs_hand" "ratio"
          (Option.value o.vs_hand ~default:(ms (median ops) /. o.ref_ms)) ]
    end
  in
  List.iter
    (fun x -> if not (Float.is_finite x.value) then die "metric %s is not finite" x.mname)
    metrics;
  print_endline
    (result_line ~correct:(o.failed = 0) ~attempted:o.attempted ~failed:o.failed metrics);
  exit 0

let self_rss () = peak_rss_mb "self"

(* ------------------------------------------------------------------ *)
(* kernels_loop / kernels_call                                         *)

let compile_kernel ?options (k : I.kernel) =
  Wolfram.function_compile ?options
    ?type_env:(Option.map (fun f -> f ()) k.I.type_env)
    ~target:Wolfram.Jit ~name:("pb_" ^ k.I.kname) (I.kernel_expr k)

(* A JIT-compiled function's entry is the closure its plugin registered
   under "Wolfjit_<pid>_<serial>:entry"; a threaded fallback's is not. *)
let is_jit cf =
  match cf with
  | Wolfram.Native t ->
    let call = t.Wolf_backends.Compiled_function.entry.Wolf_runtime.Rtval.call in
    let pid = Unix.getpid () in
    let rec scan n =
      n <= 10_000
      && (match Wolf_plugin.lookup (Printf.sprintf "Wolfjit_%d_%d:entry" pid n) with
          | Some o -> (Obj.obj o : Wolf_runtime.Rtval.t array -> Wolf_runtime.Rtval.t) == call
                      || scan (n + 1)
          | None -> scan (n + 1))
    in
    scan 1
  | _ -> false

let pin_jit (k : I.kernel) cf =
  if not (is_jit cf) then
    die "kernel %s did not land on the JIT backend (silent Threaded fallback)" k.I.kname

let kernels_setup kernels =
  if not (Wolf_backends.Jit.available ()) then
    die "Jit.available () is false: no ocamlopt or no dune build tree";
  Wolfram.init ();
  List.map (fun k -> let cf = compile_kernel k in pin_jit k cf; cf) kernels

let run_kernels kernels =
  let shapes = List.map fst kernels in
  let cfs = kernels_setup shapes in
  let setup = normalise_setup (cpu_since_start ()) in
  if !setup_only then (`Setup setup)
  else begin
    Wolf_backends.Compiled_function.quiet := true;
    let ks = I.with_inputs kernels !seed in
    let n = List.length ks in
    let attr = new_attr () in
    let jit_ms = ref [] and noabort = ref [] in
    if !traced then begin
      (* compile attribution of the setup compiles, and the JIT's own
         share (ocamlopt + dynlink) on a fresh pipeline per kernel *)
      List.iter2
        (fun k cf ->
           Option.iter (add_stats attr) (Wolfram.pipeline_of cf);
           let c =
             Pipeline.compile ?type_env:(Option.map (fun f -> f ()) k.I.type_env)
               ~name:("pbj_" ^ k.I.kname) (I.kernel_expr k)
           in
           match time (fun () -> Wolf_backends.Jit.compile c) with
           | Ok _, t -> jit_ms := t :: !jit_ms
           | Error e, _ -> die "JIT compile of %s failed: %s" k.I.kname e)
        shapes cfs;
      let opts = { Options.default with Options.abort_handling = false } in
      noabort :=
        List.map (fun k -> let cf = compile_kernel ~options:opts k in pin_jit k cf; cf) shapes
    end;
    let instrs, fix =
      List.fold_left
        (fun (a, b) cf -> match Wolfram.pipeline_of cf with
           | Some c -> (a + instrs_out c, b + fixpoint_runs c)
           | None -> (a, b))
        (0, 0) cfs
    in
    (* one record per timed round: per-kernel compiled and hand times *)
    let plain_rounds = ref [] and traced_rounds = ref [] in
    let noabort_t = Array.make n [] and alloc = ref [] in
    let attempted = ref 0 and failed = ref 0 in
    let round ~timed ~spans =
      incr attempted;
      let ok = ref true and bytes = ref 0.0 in
      let tc = Array.make n 0.0 and th = Array.make n 0.0 in
      List.iteri
        (fun i ((k, (x : I.instance)), cf) ->
           let name = k.I.kname in
           let a0 = Gc.allocated_bytes () in
           let res, t =
             cpu_time (fun () ->
                 Spans.record ("backends." ^ name) (fun () ->
                     try Some (Wolfram.call cf x.I.args) with _ -> None))
           in
           bytes := !bytes +. (Gc.allocated_bytes () -. a0);
           tc.(i) <- t;
           let expected, t = cpu_time (fun () -> Spans.record ("hand." ^ name) x.I.hand) in
           th.(i) <- t;
           (match res with
            | Some r when same_value r expected -> ()
            | _ -> ok := false);
           if spans then begin
             let cfn = List.nth !noabort i in
             let r2, tn =
               cpu_time (fun () -> Spans.record ("noabort." ^ name) (fun () -> Wolfram.call cfn x.I.args))
             in
             if not (same_value r2 expected) then ok := false;
             noabort_t.(i) <- tn :: noabort_t.(i)
           end)
        (List.combine ks cfs);
      if not !ok then incr failed;
      if timed then begin
        if spans then begin
          traced_rounds := (tc, th, !host_count) :: !traced_rounds;
          alloc := !bytes :: !alloc
        end
        else plain_rounds := (tc, th, !host_count) :: !plain_rounds
      end
    in
    phase := "timed rounds";
    (* warm-up: fill caches, settle the heap; checked, not timed *)
    for _ = 1 to 3 do round ~timed:false ~spans:false done;
    host_mark ();
    let deadline = now () +. !seconds in
    let r = ref 0 in
    while now () < deadline do
      (* a traced run alternates untraced and traced rounds, so the
         tracing overhead is measured under the same host conditions *)
      let spans = !traced && !r mod 2 = 1 in
      Spans.on := spans;
      round ~timed:true ~spans;
      Spans.on := false;
      host_sample ();
      incr r
    done;
    host_mark ();
    List.iter2
      (fun (k, _) cf ->
         if Wolfram.fallback_count cf <> 0 then
           die "kernel %s fell back to the interpreter %d time(s)" k.I.kname
             (Wolfram.fallback_count cf))
      ks cfs;
    let rounds = if !traced then !traced_rounds else !plain_rounds in
    let total a = Array.fold_left ( +. ) 0.0 a in
    (* per kernel: the median compiled time, and the median over rounds of
       compiled time / hand time in the same round *)
    let kernel_stats rounds i =
      (median (List.map (fun (tc, _, _) -> tc.(i)) rounds),
       median (List.map (fun (tc, th, _) -> tc.(i) /. th.(i)) rounds))
    in
    let per_kernel = List.mapi (fun i k -> (i, k.I.kname, kernel_stats rounds i)) shapes in
    let vs_hand = geomean (List.map (fun (_, _, (_, r)) -> r) per_kernel) in
    let layers =
      if not !traced then []
      else begin
        let op_of rounds = median (List.map (fun (tc, _, _) -> total tc) rounds) in
        compiler_metrics ~instrs ~fixpoint:fix attr
        @ List.concat_map
            (fun (i, name, (c, r)) ->
               [ m ("backends." ^ name ^ "_ms") "ms" (ms c);
                 m ("backends." ^ name ^ ".vs_hand") "ratio" r;
                 m ("runtime.abort_share." ^ name) "share"
                   (1.0 -. (median noabort_t.(i) /. c)) ])
            per_kernel
        @ [ m "runtime.alloc_mb_per_op" "MB" (mean !alloc /. 1048576.0);
            m "backends.jit_ms" "ms" (ms (mean !jit_ms));
            m "host.ref_ms" "ms" (ms (host_ref ()));
            m "host.steal_pct" "%" (steal_pct ());
            m "trace.overhead_pct" "%"
              (100.0 *. ((op_of !traced_rounds /. op_of !plain_rounds) -. 1.0)) ]
      end
    in
    `Done
      { attempted = !attempted; failed = !failed;
        ops = (let scale = probe_scale ~window:5 in
               List.map (fun (tc, _, h) -> (total tc, scale h)) rounds);
        rate = None;
        setup; rss_mb = self_rss (); vs_hand = Some vs_hand; ref_ms = probe_nominal_ms; layers }
  end

(* ------------------------------------------------------------------ *)
(* compile_cold                                                        *)

let cold_options = { Options.default with Options.use_cache = false }

(* Peak RSS is read after a fixed number of compiles (about 3 s on a 2-core
   host), as it keeps growing with the number of compiles. *)
let rss_compiles = 1200

(* a probe sample after every [host_every] compiles *)
let host_every = 20

type program = {
  pname : string;
  psrc : string;
  of_parsed : Expr.t -> Expr.t;
  penv : (unit -> Type_env.t) option;
  pargs : Expr.t list;
}

let corpus () =
  let fig2 =
    List.map
      (fun ((k : I.kernel), args) ->
         { pname = k.I.kname; psrc = k.I.src; of_parsed = k.I.of_parsed; penv = k.I.type_env;
           pargs = args })
      I.figure2_programs
  in
  let pool = Array.of_list (I.read_pool corpus_path) in
  if Array.length pool < pool_draw then
    die "corpus pool %s holds %d programs, %d needed" corpus_path (Array.length pool) pool_draw;
  let rng = I.Rng.create !seed in
  let idx = Array.init (Array.length pool) Fun.id in
  I.Rng.shuffle rng idx;
  let drawn =
    List.init pool_draw (fun j ->
        let src, args = pool.(idx.(j)) in
        { pname = Printf.sprintf "gen%d" idx.(j); psrc = src; of_parsed = Fun.id;
          penv = None; pargs = args })
  in
  let all = Array.of_list (fig2 @ drawn) in
  I.Rng.shuffle rng all;
  all

(* one op: parse the source, then an uncached threaded compile *)
let compile_op p =
  let fexpr = p.of_parsed (Parser.parse p.psrc) in
  Wolfram.function_compile ~options:cold_options
    ?type_env:(Option.map (fun f -> f ()) p.penv)
    ~target:Wolfram.Threaded ~name:"pb_cold" fexpr

(* The same op, decomposed into the layers it crosses.  A traced run times
   this path in both of its halves, so that Spans.on is the only thing that
   differs between them; the untraced half adds its stats to a discarded
   record. *)
let compile_op_decomposed attr p =
  Spans.record "op" @@ fun () ->
  let a0 = Gc.allocated_bytes () in
  let fexpr = Spans.record "wexpr.parse" (fun () -> p.of_parsed (Parser.parse p.psrc)) in
  let type_env = Option.map (fun f -> f ()) p.penv in
  let c =
    Spans.record "compiler.pipeline" (fun () ->
        Pipeline.compile ~options:cold_options ?type_env ~name:"pb_cold" fexpr)
  in
  ignore (Spans.record "backends.threaded_codegen" (fun () -> Wolf_backends.Native.compile c));
  attr.alloc_bytes <- attr.alloc_bytes +. (Gc.allocated_bytes () -. a0);
  add_stats attr c

let interpreter_agrees p cf =
  let run f =
    match f () with
    | v -> Wolf_fuzz.Oracle.Value v
    | exception Wolf_base.Abort_signal.Aborted ->
      Wolf_base.Abort_signal.clear ();
      Wolf_fuzz.Oracle.Aborted
    | exception e -> Wolf_fuzz.Oracle.Failed (Printexc.to_string e)
  in
  let got = run (fun () -> Wolfram.call cf p.pargs) in
  let want =
    run (fun () ->
        Wolfram.interpret_expr
          (Expr.Normal (p.of_parsed (Parser.parse p.psrc), Array.of_list p.pargs)))
  in
  Wolf_fuzz.Oracle.agree got want

let run_compile_cold () =
  Wolfram.init ();
  (* first compile pays the lazy set-up (builtin type environment, …) *)
  ignore (Wolfram.function_compile_src ~options:cold_options ~target:Wolfram.Threaded
            "Function[{Typed[x, \"MachineInteger\"]}, x + 1]");
  let setup = normalise_setup (cpu_since_start ()) in
  if !setup_only then `Setup setup
  else begin
    Wolf_backends.Compiled_function.quiet := true;
    let progs = corpus () in
    let n = Array.length progs in
    List.iter (fun d -> ignore (Wolfram.interpret d)) I.interpreter_defs;
    phase := "correctness pass";
    (* one-off correctness and determinism pass, outside the timed region *)
    let failed = ref 0 and instrs = ref 0 and fix = ref 0 in
    Array.iter
      (fun p ->
         match compile_op p with
         | cf ->
           let c = Option.get (Wolfram.pipeline_of cf) in
           (* a second compile must produce exactly the same counts *)
           let again =
             Pipeline.compile ~options:cold_options
               ?type_env:(Option.map (fun f -> f ()) p.penv) ~name:"pb_det"
               (p.of_parsed (Parser.parse p.psrc))
           in
           if instrs_out again <> instrs_out c || fixpoint_runs again <> fixpoint_runs c
           then begin
             info "nondeterministic compile: %s" p.pname;
             incr failed
           end;
           instrs := !instrs + instrs_out c;
           fix := !fix + fixpoint_runs c;
           if not (interpreter_agrees p cf) then begin
             info "compiled result differs from the interpreter: %s" p.pname;
             incr failed
           end
         | exception e ->
           info "compile failed: %s: %s" p.pname (Printexc.to_string e);
           incr failed)
      progs;
    let attempted = ref n in
    let plain = ref [] and traced_ops = ref [] in
    let attr = new_attr () and discard = new_attr () and rss = ref nan in
    phase := "timed compiles";
    (* warm-up pass over a tenth of the corpus *)
    for i = 0 to (n / 10) - 1 do ignore (compile_op progs.(i)) done;
    host_mark ();
    let deadline = now () +. !seconds in
    let i = ref 0 in
    while now () < deadline do
      let p = progs.(!i mod n) in
      (* a traced run alternates untraced and traced passes *)
      let spans = !traced && (!i / n) mod 2 = 1 in
      Spans.on := spans;
      incr attempted;
      (match cpu_time (fun () ->
           if !traced then compile_op_decomposed (if spans then attr else discard) p
           else ignore (compile_op p)) with
       | (), t ->
         let op = (t, !host_count) in
         if spans then traced_ops := op :: !traced_ops else plain := op :: !plain
       | exception e ->
         info "compile failed: %s: %s" p.pname (Printexc.to_string e);
         incr failed);
      Spans.on := false;
      incr i;
      if !i mod host_every = 0 then host_sample ();
      if !i = rss_compiles then rss := self_rss ()
    done;
    host_mark ();
    if Float.is_nan !rss then rss := self_rss ();
    let ops = if !traced then !traced_ops else !plain in
    let layers =
      if not !traced then []
      else
        let per name = ms (mean (Spans.durations name)) in
        [ m "wexpr.parse_ms" "ms" (per "wexpr.parse");
          m "backends.threaded_codegen_ms" "ms" (per "backends.threaded_codegen");
          m "host.ref_ms" "ms" (ms (host_ref ()));
          m "host.steal_pct" "%" (steal_pct ());
          m "trace.overhead_pct" "%"
            (100.0 *. ((median (List.map fst !traced_ops) /. median (List.map fst !plain))
                       -. 1.0)) ]
        @ compiler_metrics ~instrs:!instrs ~fixpoint:!fix attr
    in
    `Done
      { attempted = !attempted; failed = !failed;
        ops = (let scale = probe_scale ~window:3 in List.map (fun (t, h) -> (t, scale h)) ops);
        rate = None; setup;
        rss_mb = !rss; vs_hand = None; ref_ms = probe_nominal_ms; layers }
  end

(* ------------------------------------------------------------------ *)
(* serve_mixed                                                         *)

let rec dial ~deadline connect =
  match connect () with
  | c -> c
  | exception _ when now () < deadline -> Unix.sleepf 0.002; dial ~deadline connect
  | exception e -> die "cannot connect: %s" (Printexc.to_string e)

let rpc_text c req =
  match Wolf_serve.Client.rpc c req with
  | { Wolf_serve.Protocol.rsp = Ok (Wolf_serve.Protocol.Text s); _ } -> Ok s
  | { rsp = Ok (Wolf_serve.Protocol.Json _); _ } -> Error "unexpected JSON reply"
  | { rsp = Error (k, msg); _ } -> Error (Wolf_serve.Protocol.error_kind_name k ^ ": " ^ msg)
  | exception e -> Error (Printexc.to_string e)

(* start the daemon in its default configuration; returns once it has
   answered its first request *)
let start_daemon sock =
  if not (Sys.file_exists wolfc) then die "no wolfc executable at %s" wolfc;
  let pid = spawn wolfc [ "wolfd"; "--socket"; sock; "--quiet" ] in
  let c = dial ~deadline:(now () +. 30.0) (fun () -> Wolf_serve.Client.connect sock) in
  (match rpc_text c (Wolf_serve.Protocol.Eval { code = "1 + 1"; deadline_ms = None }) with
   | Ok "2" -> ()
   | Ok s -> die "wolfd first reply was %S" s
   | Error e -> die "wolfd first reply failed: %s" e);
  (pid, c)

(* ask the daemon to shut down; kill it if it has not exited within 10 s *)
let stop_daemon pid c =
  ignore (try Some (Wolf_serve.Client.shutdown c) with _ -> None);
  Wolf_serve.Client.close c;
  let deadline = now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.01; wait ()
    | 0, _ -> info "wolfd did not exit after shutdown; killing it"; reap pid
    | _ -> children := List.filter (( <> ) pid) !children
  in
  wait ()

(* Class shares, per mille.  Evals and compiles split 900/100 as in
   [wolfc bench serve]; the compile_miss share only places the tail (see
   README.md); eval_moderate's share is chosen, not observed. *)
let mix =
  [ (I.Eval_small, 800); (I.Eval_moderate, 100); (I.Compile_hit, 98); (I.Compile_miss, 2) ]

let block_size = List.fold_left (fun acc (_, w) -> acc + w) 0 mix

(* [expect] is the reply the in-process reference gave ([None] for a
   never-seen compile) *)
type request = { cls : I.req_class; code : string; expect : string option }

(* Every block of [block_size] requests holds each class exactly as often
   as its share says, in an order drawn with the seed: the counts, the slow
   compile_miss class's above all, do not vary between seeds or runs. *)
let serve_requests rng ~small ~moderate ~hits ~miss_base count =
  let block = Array.of_list (List.concat_map (fun (c, w) -> List.init w (fun _ -> c)) mix) in
  let order = Array.copy block in
  let miss = ref miss_base in
  Array.init count (fun i ->
      if i mod block_size = 0 then begin
        Array.blit block 0 order 0 block_size;
        I.Rng.shuffle rng order
      end;
      match order.(i mod block_size) with
      | (I.Eval_small | I.Eval_moderate | I.Compile_hit) as cls ->
        let pool =
          match cls with I.Eval_small -> small | I.Eval_moderate -> moderate | _ -> hits
        in
        let code, out = pool.(I.Rng.int rng (Array.length pool)) in
        { cls; code; expect = Some out }
      | I.Compile_miss ->
        incr miss;
        { cls = I.Compile_miss; code = I.miss_compile_src !miss; expect = None })

let serve_rss_requests = 20_000

(* The load is one closed-loop connection, in blocks of the mix.  After
   each block the connection is idle, and the hand-written echo
   ([Pb_hand.echo_round_trips]) takes a sample of [echo_trips] round trips.
   Each request and each block is scaled to a host on which an echo round
   trip takes [echo_nominal_s], by the median of the echo samples within
   [serve_window] blocks of it.  run.py pins the load generator, wolfd and
   the echo server to one CPU, where a second connection would only make
   two requests take turns on it (README.md, How ops are timed). *)
let echo_trips = 500
let echo_nominal_s = 10e-6
let serve_window = 3
let serve_warmup_blocks = 3

let serve_compile_opts = { Options.default with Options.opt_level = 1 }

(* the daemon's compile reply, computed in-process *)
let compile_summary code =
  let cf =
    Wolfram.function_compile ~options:serve_compile_opts ~target:Wolfram.Threaded
      ~name:"Serve" (Parser.parse code)
  in
  match Wolfram.pipeline_of cf with
  | Some c ->
    Printf.sprintf "ok: %d instrs, %d blocks" (Pass_manager.instr_count c.Pipeline.program)
      (Pass_manager.block_count c.Pipeline.program)
  | None -> "ok: bytecode"

let to_request r =
  match r.cls with
  | I.Eval_small | I.Eval_moderate ->
    Wolf_serve.Protocol.Eval { code = r.code; deadline_ms = None }
  | I.Compile_hit | I.Compile_miss ->
    Wolf_serve.Protocol.Compile { code = r.code; target = "threaded"; opt = 1 }

let jnum path j =
  let rec go j = function
    | [] -> Wolf_obs.Json_min.num j
    | k :: rest -> Option.bind (Wolf_obs.Json_min.member k j) (fun j -> go j rest)
  in
  match go j path with Some v -> v | None -> die "daemon stats lack %s" (String.concat "." path)

let run_serve () =
  let tmp = Filename.get_temp_dir_name () in
  let sock = Filename.concat tmp "wolfd.sock" in
  phase := "daemon start";
  let pid, c0 = start_daemon sock in
  let setup = now () -. t_start in
  if !setup_only then begin
    stop_daemon pid c0;
    `Setup setup
  end
  else begin
    phase := "references";
    (* references, computed in-process before the timed region *)
    let rng = I.Rng.create !seed in
    let printed code = Form.input_form (Wolfram.interpret code) in
    let small = Array.init 48 (fun i -> let s = I.small_eval_src rng i in (s, printed s)) in
    let moderate = Array.init 8 (fun _ -> let s = I.moderate_eval_src rng in (s, printed s)) in
    let hits =
      Array.init I.hit_sources (fun i ->
          let s = I.hit_compile_src i in (s, compile_summary s))
    in
    (* more requests than a run sends (under 10 000/s), so that every
       never-seen source is sent once *)
    let reqs =
      serve_requests rng ~small ~moderate ~hits ~miss_base:(1000 + (1_000_000 * (!seed mod 1000)))
        (int_of_float (40_000.0 *. (!seconds +. 1.0)))
    in
    let nreq = Array.length reqs in
    (* the daemon's peak RSS is read after a fixed number of requests, as
       its caches fill with the never-seen compiles *)
    (* the echo reference, in a process of its own *)
    let echo_sock = Filename.concat tmp "echo.sock" in
    let echo_pid = spawn Sys.executable_name [ "echo-server"; "--socket"; echo_sock ] in
    let echo =
      dial ~deadline:(now () +. 30.0) (fun () ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          try Unix.connect fd (Unix.ADDR_UNIX echo_sock); fd
          with e -> Unix.close fd; raise e)
    in
    let echo_samples = ref [] and echo_count = ref 0 in
    let echo_sample () =
      let (), t = time (fun () -> Pb_hand.echo_round_trips echo echo_trips) in
      echo_samples := t :: !echo_samples;
      incr echo_count
    in
    let rss = ref nan and rss_at = ref max_int in
    let next = ref 0 and sent = ref 0 in
    (* (class, seconds, traced, echo samples before) per timed request *)
    let results = ref [] and failures = ref [] in
    (* An eval reply must equal the interpreter's printed result.  A compile
       reply must succeed with a well-formed summary.  A cache hit's counts
       are also compared with an in-process compile, but wolfd reads them
       from the last pipeline compiled under the shared name "Serve", so a
       hit can report another program's counts (a known wolfd defect, see
       README.md): those are counted, not failed. *)
    let summary_mismatch = ref 0 and compile_replies = ref 0 in
    let check_summary got want =
      incr compile_replies;
      if got <> want then incr summary_mismatch
    in
    let check r reply =
      match reply, r.cls, r.expect with
      | Error e, _, _ -> Some (r.code ^ ": " ^ e)
      | Ok s, (I.Eval_small | I.Eval_moderate), Some want ->
        if s = want then None else Some (Printf.sprintf "%s: got %s, want %s" r.code s want)
      | Ok s, (I.Compile_hit | I.Compile_miss), want ->
        (match Scanf.sscanf s "ok: %d instrs, %d blocks%!" (fun _ _ -> ()) with
         | () -> Option.iter (check_summary s) want; None
         | exception _ -> Some (Printf.sprintf "%s: malformed compile reply %S" r.code s))
      | Ok _, _, None -> Some (r.code ^ ": no reference")
    in
    let send c ~record =
      let i = !next in
      incr next;
      incr sent;
      if record && i = !rss_at then rss := peak_rss_mb (string_of_int pid);
      let r = reqs.(i mod nreq) in
      let reply, t =
        time (fun () ->
            Spans.record ("serve." ^ I.class_name r.cls) (fun () -> rpc_text c (to_request r)))
      in
      Option.iter (fun e -> failures := e :: !failures) (check r reply);
      if record then results := (r.cls, t, !Spans.on, !echo_count) :: !results
    in
    (* seconds and echo samples before, per timed block *)
    let blocks = ref [] in
    let drive c ~timed ~until =
      let k = ref 0 in
      while not (until !k) do
        (* a traced run alternates untraced and traced blocks *)
        Spans.on := timed && !traced && !k mod 2 = 1;
        let (), t = time (fun () -> for _ = 1 to block_size do send c ~record:timed done) in
        Spans.on := false;
        if timed then begin
          blocks := (t, !echo_count) :: !blocks;
          echo_sample ()
        end;
        incr k
      done
    in
    (* warm-up: every hit source is compiled once, the daemon's heap and
       sessions settle *)
    Array.iter
      (fun (code, want) ->
         incr sent;
         let r = { cls = I.Compile_hit; code; expect = Some want } in
         Option.iter (fun e -> failures := e :: !failures) (check r (rpc_text c0 (to_request r))))
      hits;
    let c = Wolf_serve.Client.connect sock in
    phase := "warm-up load";
    drive c ~timed:false ~until:(fun k -> k = serve_warmup_blocks);
    rss_at := !next + serve_rss_requests;
    host_mark ();
    phase := "timed load";
    let deadline = now () +. !seconds in
    drive c ~timed:true ~until:(fun _ -> now () >= deadline);
    host_mark ();
    Wolf_serve.Client.close c;
    Unix.close echo;
    reap echo_pid;
    let echo_refs = Array.of_list (List.rev !echo_samples) in
    let scale =
      scale_at ~nominal:(echo_nominal_s *. float_of_int echo_trips) echo_refs ~window:serve_window
    in
    (* requests per second: a block over the median block time *)
    let block_time f = median (List.map (fun (t, h) -> t *. f h) !blocks) in
    let rate =
      (float_of_int block_size /. block_time (fun _ -> 1.0),
       float_of_int block_size /. block_time scale)
    in
    phase := "daemon stats and shutdown";
    let stats =
      match Wolf_serve.Client.stats c0 with
      | { Wolf_serve.Protocol.rsp = Ok (Wolf_serve.Protocol.Json frame); _ } ->
        (match Wolf_obs.Json_min.member "data" (Wolf_obs.Json_min.parse_exn frame) with
         | Some d -> d
         | None -> die "stats reply carries no data")
      | _ -> die "stats request failed"
    in
    if Float.is_nan !rss then rss := peak_rss_mb (string_of_int pid);
    stop_daemon pid c0;
    List.iter (fun e -> info "wrong reply: %s" e) (List.filteri (fun i _ -> i < 5) !failures);
    info "cache-hit compile replies whose counts name another program: %d of %d"
      !summary_mismatch !compile_replies;
    let results = !results in
    let layers =
      if not !traced then []
      else begin
        let cls_ms name = ms (median (Spans.durations ("serve." ^ name))) in
        let direct =
          List.init 400 (fun i ->
              let code, _ = small.(i mod Array.length small) in
              snd (time (fun () -> ignore (Wolfram.interpret code))))
        in
        let lat phase q = jnum [ "latency"; phase; q ] stats in
        let small_ms = cls_ms "eval_small" in
        let plain = List.filter_map (fun (_, t, tr, _) -> if tr then None else Some t) results
        and traced_t = List.filter_map (fun (_, t, tr, _) -> if tr then Some t else None) results in
        [ m "serve.eval_small_ms" "ms" small_ms;
          m "serve.eval_moderate_ms" "ms" (cls_ms "eval_moderate");
          m "serve.compile_hit_ms" "ms" (cls_ms "compile_hit");
          m "serve.compile_miss_ms" "ms" (cls_ms "compile_miss");
          m "serve.decode_p50_ms" "ms" (lat "decode" "p50_ms");
          m "serve.queue_wait_p50_ms" "ms" (lat "queue_wait" "p50_ms");
          m "serve.queue_wait_p99_ms" "ms" (lat "queue_wait" "p99_ms");
          m "serve.lock_wait_p99_ms" "ms" (lat "lock_wait" "p99_ms");
          m "serve.eval_p50_ms" "ms" (lat "eval" "p50_ms");
          m "serve.encode_p50_ms" "ms" (lat "encode" "p50_ms");
          m "kernel.direct_eval_ms" "ms" (ms (median direct));
          m "serve.overhead_ms" "ms" (small_ms -. ms (median direct));
          m "compile_cache.hit_ratio" "share"
            (jnum [ "cache"; "hits" ] stats /. Float.max 1.0 (jnum [ "cache"; "lookups" ] stats));
          m "executor.saturated" "count" (jnum [ "overloaded" ] stats);
          m "serve.compile_summary_mismatch" "count" (float_of_int !summary_mismatch);
          m "host.ref_ms" "ms" (ms (host_ref ()));
          m "host.steal_pct" "%" (steal_pct ());
          m "host.echo_us" "us" (1e6 *. median !echo_samples /. float_of_int echo_trips);
          m "trace.overhead_pct" "%" (100.0 *. ((median traced_t /. median plain) -. 1.0)) ]
      end
    in
    if jnum [ "overloaded" ] stats > 0.0 then
      info "wolfd refused %.0f request(s) as overloaded" (jnum [ "overloaded" ] stats);
    `Done
      { attempted = !sent; failed = List.length !failures;
        ops = List.map (fun (_, t, _, h) -> (t, scale h)) results; rate = Some rate;
        setup; rss_mb = !rss; vs_hand = None; ref_ms = ms echo_nominal_s;
        layers }
  end

(* ------------------------------------------------------------------ *)
(* Corpus generation (run once; the result is checked in)              *)

let make_corpus ~seed ~count =
  let root = Wolf_fuzz.Rng.create seed in
  for i = 0 to count - 1 do
    let case = Wolf_fuzz.Gen.case (Wolf_fuzz.Rng.split root i) in
    let args = List.map Wolf_fuzz.Ast.arg_source case.Wolf_fuzz.Ast.args in
    Printf.printf "%%%% %s\n%s\n" (String.concat "\t" args)
      (String.trim (Wolf_fuzz.Ast.to_source case.Wolf_fuzz.Ast.fn))
  done

(* ------------------------------------------------------------------ *)

let () =
  at_exit reap_children;
  (* a daemon that hung up must show as a failed request, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s ->
       Sys.set_signal s
         (Sys.Signal_handle
            (fun _ ->
               prerr_endline ("perfbench: terminated in phase " ^ !phase);
               reap_children ();
               exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let count = ref 1000 and socket = ref "" in
  let mode = ref "run" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed region");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1 traced run");
      ("--setup-only", Arg.Set setup_only, " set up, report setup_s, exit");
      ("--trace-out", Arg.Set_string trace_out, "PATH write the spans (traced run)");
      ("--count", Arg.Set_int count, "N programs (make-corpus)");
      ("--socket", Arg.Set_string socket, "PATH socket to listen on (echo-server)") ]
  in
  Arg.parse spec (fun a -> mode := a) "bench.exe [make-corpus] --workload W --seed N ...";
  if !mode = "make-corpus" then (make_corpus ~seed:!seed ~count:!count; exit 0);
  if !mode = "echo-server" then (Pb_hand.echo_server !socket; exit 0);
  (* a run that hangs fails with a report instead of being killed silently *)
  ignore
    (Thread.create
       (fun () ->
          Thread.delay (!seconds +. 100.0);
          die "watchdog: still running after %.0f s, in phase %s" (!seconds +. 100.0) !phase)
       ());
  let r =
    match !workload with
    | "kernels_loop" -> run_kernels I.loop_kernels
    | "kernels_call" -> run_kernels I.call_kernels
    | "compile_cold" -> run_compile_cold ()
    | "serve_mixed" -> run_serve ()
    | w -> die "unknown workload %S" w
  in
  match r with
  | `Setup s -> Printf.printf "{\"setup_s\": %.17g}\n" s
  | `Done o ->
    if !traced && !trace_out <> "" then Spans.write !trace_out;
    finish o
