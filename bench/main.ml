(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (see DESIGN.md experiments E1–E9 and EXPERIMENTS.md for
   paper-vs-measured).  Min-of-batches timing per measured arm; custom printing
   reproduces the paper's normalised presentation.

   Usage: see [usage] at the end of this file. *)

open Wolf_wexpr
open Wolf_compiler
open Wolf_runtime
module B = Wolf_backends
module P = Bench_support.Programs
module H = Bench_support.Baselines

(* ------------------------------------------------------------------ *)
(* Measurement: min of batch means.

   This VM is noisy (shared cores; load spikes of tens of percent between
   runs), which made OLS-over-samples estimates swing far more than the
   effects being measured.  The minimum over several fixed-size batches is
   the classical robust statistic for that regime: a load spike can only
   inflate a batch, never deflate it, so the minimum converges on the
   undisturbed cost. *)

let quota = ref 0.6
let batches = 5

(* the noise band of the arms measured since the last reset: the largest
   relative distance from an arm's best batch to its median batch *)
let noise = ref 0.0

(* Arms that will be compared against each other (a benchmark's hand /
   compiled / no-abort variants) are timed interleaved — one batch of every
   arm per round — so drift slower than a round hits all of them equally
   and cancels out of the ratios. *)
let measure_group (arms : (unit -> unit) list) : float list =
  let calibrated =
    List.map
      (fun f ->
         f (); (* warm-up: JIT plugs, caches, branch predictors *)
         let t0 = Unix.gettimeofday () in
         f ();
         let once = Unix.gettimeofday () -. t0 in
         let n =
           max 1
             (int_of_float (!quota /. float_of_int batches /. Float.max once 1e-9))
         in
         (f, n, ref []))
      arms
  in
  for _ = 1 to batches do
    List.iter
      (fun (f, n, times) ->
         let t0 = Unix.gettimeofday () in
         for _ = 1 to n do f () done;
         times := ((Unix.gettimeofday () -. t0) /. float_of_int n) :: !times)
      calibrated
  done;
  List.map
    (fun (_, _, times) ->
       let sorted = List.sort compare !times in
       let best = List.hd sorted and median = List.nth sorted (batches / 2) in
       noise := Float.max !noise ((median -. best) /. best);
       best)
    calibrated

let measure _name (f : unit -> unit) : float =
  match measure_group [ f ] with [ t ] -> t | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Workload sizes                                                      *)

type sizes = {
  fnv_len : int;
  dot_n : int;
  blur_n : int;
  hist_n : int;
  primeq_limit : int;
  qsort_n : int;
  walk_len : int;
}

(* Paper scale: FNV1a 10^6 chars, Dot 1000², Blur 1000², Histogram 10^6,
   PrimeQ range 10^6, QSort 2^15, random walk 10^5. *)
let paper_sizes =
  { fnv_len = 1_000_000; dot_n = 1000; blur_n = 1000; hist_n = 1_000_000;
    primeq_limit = 1_000_000; qsort_n = 32768; walk_len = 100_000 }

let default_sizes =
  { fnv_len = 300_000; dot_n = 300; blur_n = 400; hist_n = 300_000;
    primeq_limit = 120_000; qsort_n = 2048; walk_len = 20_000 }

let quick_sizes =
  { fnv_len = 50_000; dot_n = 100; blur_n = 120; hist_n = 50_000;
    primeq_limit = 20_000; qsort_n = 512; walk_len = 4_000 }

let sizes = ref default_sizes

(* ------------------------------------------------------------------ *)

let compile_pipeline ?(options = Options.default) ?type_env ~name src_or_expr =
  match src_or_expr with
  | `Src src -> Pipeline.compile ~options ?type_env ~name (Parser.parse src)
  | `Expr e -> Pipeline.compile ~options ?type_env ~name e

(* --jobs=N: compile each benchmark's arms (default / no-loop-opts /
   no-abort) on separate domains.  Compilation is the only parallel part —
   measurement stays serial and interleaved, since concurrent timing on
   shared cores would measure contention, not the compiler. *)
let bench_jobs = ref 1

let compile3 a b c =
  match Wolf_parallel.Pool.map_list ~jobs:!bench_jobs [ a; b; c ] (fun f -> f ()) with
  | [ x; y; z ] -> (x, y, z)
  | _ -> assert false

(* --json: each measured command writes its record, BENCH_<name>.json, in
   the one bench record shape (Metrics.write_record) *)
let json = ref false
let command_line = ref ""

let write_record name ~info metrics =
  if !json then begin
    let path = Printf.sprintf "BENCH_%s.json" name in
    Wolf_obs.Metrics.write_record path ~record:name ~command:!command_line ~info metrics;
    Printf.printf "wrote %s\n%!" path
  end

let best_native c =
  match B.Jit.compile c with
  | Ok f -> (f, "jit")
  | Error _ -> (B.Native.compile c, "threaded")

let print_table ~title ~columns rows =
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%-14s" "benchmark";
  List.iter (fun c -> Printf.printf " %14s" c) columns;
  Printf.printf "\n";
  List.iter
    (fun (name, cells) ->
       Printf.printf "%-14s" name;
       List.iter (fun c -> Printf.printf " %14s" c) cells;
       Printf.printf "\n")
    rows;
  Printf.printf "%!"

let ratio base = function
  | None -> "not repr."
  | Some s ->
    if base <= 0.0 then "-"
    else Printf.sprintf "%.2fx" (s /. base)

let secs = function
  | None -> "not repr."
  | Some s ->
    if s < 1e-3 then Printf.sprintf "%.1fus" (s *. 1e6)
    else if s < 1.0 then Printf.sprintf "%.2fms" (s *. 1e3)
    else Printf.sprintf "%.2fs" s

(* ------------------------------------------------------------------ *)
(* Instructions per inner loop                                         *)

(* The innermost loop of a function in ocamlopt's assembly: the shortest
   range from a label to a jump back to it.  [instrs] counts the
   instructions in it, jump included, but not those that allocate and
   raise an exception (a cold path ocamlopt lays out in line); [taken] its
   unconditional jumps, plus the closing jump when that one is conditional
   (taken on every iteration): a static count of the jumps one iteration
   takes. *)
type asm_loop = { instrs : int; taken : int }

(* the lines of the function whose symbol is caml<Module>.<name>_<digits> *)
let asm_function asm name =
  let is_entry l =
    String.starts_with ~prefix:"caml" l && String.ends_with ~suffix:":" l
    &&
    match String.rindex_opt l '.' with
    | Some i ->
      let p = name ^ "_" and f = String.sub l (i + 1) (String.length l - i - 2) in
      String.starts_with ~prefix:p f
      && String.length f > String.length p
      && String.for_all (fun c -> c >= '0' && c <= '9')
           (String.sub f (String.length p) (String.length f - String.length p))
    | None -> false
  in
  let rec drop = function [] -> [] | l :: rest -> if is_entry l then rest else drop rest in
  let rec take acc = function
    | [] -> List.rev acc
    | l :: rest -> if String.trim l = ".cfi_endproc" then List.rev acc else take (String.trim l :: acc) rest
  in
  take [] (drop (String.split_on_char '\n' asm))

let innermost_loop lines =
  let is_label l = String.ends_with ~suffix:":" l in
  (* labels and instructions; no directives *)
  let lines =
    Array.of_list
      (List.filter (fun l -> l <> "" && (is_label l || not (String.starts_with ~prefix:"." l))) lines)
  in
  let label_at = Hashtbl.create 16 in
  Array.iteri
    (fun i l -> if is_label l then Hashtbl.replace label_at (String.sub l 0 (String.length l - 1)) i)
    lines;
  let jump l =
    match
      String.split_on_char '\t' l |> List.concat_map (String.split_on_char ' ') |> List.filter (( <> ) "")
    with
    | [ op; target ] when op.[0] = 'j' && target.[0] = '.' -> Some (op, target)
    | _ -> None
  in
  let is_instr l = not (is_label l) in
  (* [range] without its raises: each from the exception's allocation
     ([subq $n, %r15], its GC test and the GC's return label) to the
     indirect jump to the handler *)
  let rec hot = function
    | l :: rest when String.starts_with ~prefix:"subq\t$" l && String.ends_with ~suffix:", %r15" l ->
      let rec raise_end labels jumps = function
        | "jmp\t*%r11" :: after -> Some after
        | m :: after when not (is_instr m) -> if labels = 0 then raise_end 1 jumps after else None
        | m :: after when m.[0] = 'j' -> if jumps = 0 then raise_end labels 1 after else None
        | m :: after
          when not (String.starts_with ~prefix:"call" m || String.starts_with ~prefix:"ret" m) ->
          raise_end labels jumps after
        | _ -> None
      in
      (match raise_end 0 0 rest with Some after -> hot after | None -> l :: hot rest)
    | l :: rest -> l :: hot rest
    | [] -> []
  in
  (* the jump back from a GC poll's out-of-line call closes no loop *)
  let gc_stub i =
    let rec prev k = if k < 0 || is_instr lines.(k) then k else prev (k - 1) in
    let k = prev (i - 1) in
    k >= 0 && String.starts_with ~prefix:"call\tcaml_call_gc" lines.(k)
  in
  let best = ref None in
  Array.iteri
    (fun i l ->
       match jump l with
       | Some (op, target) when not (gc_stub i) ->
         (match Hashtbl.find_opt label_at target with
          | Some s when s < i ->
            let range = Array.sub lines s (i - s + 1) |> Array.to_list |> hot in
            let instrs = List.length (List.filter is_instr range) in
            let jmps =
              List.length
                (List.filter (fun l -> match jump l with Some ("jmp", _) -> true | _ -> false) range)
            in
            let taken = if op = "jmp" then jmps else jmps + 1 in
            (match !best with
             | Some b when b.instrs <= instrs -> ()
             | _ -> best := Some { instrs; taken })
          | _ -> ())
       | _ -> ())
    lines;
  !best

(* Each Figure-2 kernel with a loop: its program, the emitted function that
   holds the hot loop, and the perfbench hand function of the same shape *)
let loop_kernels () =
  [ ("fnv1a", "fn_fnv1a", "fnv1a", fun () -> compile_pipeline ~name:"fnv1a" (`Src P.fnv1a_src));
    ("mandelbrot", "fn_mandel", "mandelbrot",
     fun () -> compile_pipeline ~name:"mandel" (`Src P.mandelbrot_src));
    ("blur", "fn_blur", "blur", fun () -> compile_pipeline ~name:"blur" (`Src P.blur_src));
    ("histogram", "fn_hist", "histogram",
     fun () -> compile_pipeline ~name:"hist" (`Src P.histogram_src));
    ("primeq", "fn_PowerMod64", "powmod",
     fun () -> compile_pipeline ~type_env:(P.primeq_type_env ()) ~name:"primeq" (`Expr (P.primeq_expr ())));
    ("qsort", "fn_QSortI64", "qsort",
     fun () ->
       compile_pipeline ~type_env:(P.qsort_type_env ()) ~name:"qsortmain" (`Src P.qsort_driver_src)) ]

(* the emitted function whose name starts with [prefix]: the symbol
   carries the sanitized name and a suffix ocamlopt adds *)
let emitted_fn source prefix =
  List.find_map
    (fun l ->
       match String.split_on_char ' ' l with
       | ("let" :: "rec" :: n :: _ | "and" :: n :: _) when String.starts_with ~prefix n -> Some n
       | _ -> None)
    (String.split_on_char '\n' source)

(* loops the JIT emitter writes in each form over a batch of emits *)
let loop_forms emit_all =
  let count form = Wolf_obs.Metrics.counter_value (B.Ocaml_emit.loop_forms_counter form) in
  let w0 = count "while" and g0 = count "guard" in
  emit_all ();
  let g = count "guard" - g0 in
  (g, count "while" - w0 - g)

let loop_asm () =
  let rows = ref [] and metrics = ref [] in
  let add name v unit = metrics := (name, float_of_int v, unit) :: !metrics in
  let hand =
    match In_channel.with_open_bin "perfbench/pb_hand.ml" In_channel.input_all with
    | src -> (match B.Jit.assembly ~args:"-I +unix" ~file:"pb_hand.ml" src with Ok s -> Some s | Error _ -> None)
    | exception Sys_error _ -> None
  in
  if hand = None then print_endline "no hand loops: run from the repository root (perfbench/pb_hand.ml)";
  let fig2_forms = ref (0, 0) in
  List.iter
    (fun (name, fn, hand_fn, compile) ->
       let c = compile () in
       let src = ref None in
       let g, s =
         loop_forms (fun () ->
             match B.Ocaml_emit.emit ~module_name:("Loopasm_" ^ name) c with
             | Ok e -> src := Some e.B.Ocaml_emit.source
             | Error _ -> ())
       in
       fig2_forms := (fst !fig2_forms + g, snd !fig2_forms + s);
       let jit =
         Option.bind !src (fun source ->
             Option.bind (emitted_fn source fn) (fun f ->
                 match B.Jit.assembly ~file:("loopasm_" ^ name ^ ".ml") source with
                 | Ok asm -> innermost_loop (asm_function asm f)
                 | Error _ -> None))
       in
       let hand = Option.bind hand (fun asm -> innermost_loop (asm_function asm hand_fn)) in
       let cell = function Some l -> (string_of_int l.instrs, string_of_int l.taken) | None -> ("-", "-") in
       let ji, jt = cell jit and hi, ht = cell hand in
       rows := (name, [ ji; jt; hi; ht; string_of_int g; string_of_int s ]) :: !rows;
       Option.iter (fun l -> add (name ^ ".compiled_loop_instrs") l.instrs "count";
                     add (name ^ ".compiled_loop_taken_jumps") l.taken "count") jit;
       Option.iter (fun l -> add (name ^ ".hand_loop_instrs") l.instrs "count";
                     add (name ^ ".hand_loop_taken_jumps") l.taken "count") hand;
       add (name ^ ".guard_loops") g "count";
       add (name ^ ".state_loops") s "count")
    (loop_kernels ());
  print_table ~title:"Innermost loop: instructions and taken jumps (ocamlopt -S, the JIT's flags)"
    ~columns:[ "instrs"; "taken jmps"; "hand instrs"; "hand taken"; "guard loops"; "state loops" ]
    (List.rev !rows);
  (* the loop forms over the benchmark corpus, as wolfc twir-digest compiles it *)
  (match Wolf_fuzz.Twir_digest.read_corpus "perfbench/corpus.txt" with
   | programs ->
     List.iter
       (fun (cname, options) ->
          let g, s =
            loop_forms (fun () ->
                List.iter
                  (fun fexpr ->
                     match Pipeline.compile ~options ~name:"p" fexpr with
                     | c -> ignore (B.Ocaml_emit.emit ~module_name:"Loopforms" c)
                     | exception _ -> ())
                  programs)
          in
          Printf.printf "corpus %s: %d guard loop(s), %d state loop(s)\n" cname g s;
          add ("corpus." ^ cname ^ ".guard_loops") g "count";
          add ("corpus." ^ cname ^ ".state_loops") s "count")
       Wolf_fuzz.Twir_digest.configs
   | exception Sys_error _ -> print_endline "no corpus: run from the repository root");
  Printf.printf "Figure-2 programs: %d guard loop(s), %d state loop(s)\n%!" (fst !fig2_forms)
    (snd !fig2_forms);
  write_record "loop_asm"
    ~info:[ ("innermost_loop", "shortest label-to-backward-jump range of the function");
            ("taken_jumps", "unconditional jumps in it, plus its closing jump when conditional") ]
    (List.rev !metrics)

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)

type fig2_row = {
  bname : string;
  hand : float;
  compiled : float;         (* new compiler, abort checks on *)
  compiled_noloop : float;  (* loop layer (LICM/range facts/strided polls) off *)
  compiled_noabort : float;
  hand_alloc : float;       (* MB one call allocates *)
  compiled_alloc : float;
  bytecode : float option;
  backend_used : string;
  paper_note : string;
}

let run_with f args () = ignore (f args)

(* MB one call of [f] allocates, all heaps *)
let alloc_mb f =
  let before = Gc.allocated_bytes () in
  f ();
  (Gc.allocated_bytes () -. before) /. 1048576.0

(* [measure_group] of a kernel's arms, the first two of which are the
   hand-written baseline and the compiled code; after timing, one more
   call of each measures what it allocates *)
let measure_kernel arms =
  let times = measure_group arms in
  match arms with
  | hand :: compiled :: _ -> (times, alloc_mb hand, alloc_mb compiled)
  | _ -> assert false

let fig2_benchmarks () =
  let s = !sizes in
  let no_abort = { Options.default with abort_handling = false } in
  let no_loop = { Options.default with loop_opts = false } in
  let rows = ref [] in
  let add row = rows := row :: !rows in

  (* FNV1a *)
  let str = P.fnv_string s.fnv_len in
  let codes = Tensor.of_int_array (Array.init s.fnv_len (fun i -> Char.code str.[i])) in
  let c, cl, cn =
    compile3
      (fun () -> compile_pipeline ~name:"fnv1a" (`Src P.fnv1a_src))
      (fun () -> compile_pipeline ~options:no_loop ~name:"fnv1a" (`Src P.fnv1a_src))
      (fun () -> compile_pipeline ~options:no_abort ~name:"fnv1a" (`Src P.fnv1a_src))
  in
  let f, backend = best_native c in
  let fl, _ = best_native cl in
  let fn, _ = best_native cn in
  let w = B.Wvm.compile (Parser.parse P.fnv1a_wvm_src) in
  (match
     measure_kernel
       [ (fun () -> ignore (H.fnv1a str));
         run_with f.call [| Rtval.Str str |];
         run_with fl.call [| Rtval.Str str |];
         run_with fn.call [| Rtval.Str str |];
         run_with (B.Wvm.call_values w) [| Rtval.Tensor codes |] ]
   with
   | [ hand; compiled; compiled_noloop; compiled_noabort; bc ], hand_alloc, compiled_alloc ->
     add
       { bname = "FNV1a"; hand; compiled; compiled_noloop; compiled_noabort;
         hand_alloc; compiled_alloc;
         bytecode = Some bc; backend_used = backend;
         paper_note = "~1x; bytecode needs the int64-vector workaround" }
   | _ -> assert false);

  (* Mandelbrot *)
  let margs = [| Rtval.Real (-1.0); Rtval.Real 1.0; Rtval.Real (-1.0); Rtval.Real 0.5;
                 Rtval.Real 0.1 |] in
  let c, cl, cn =
    compile3
      (fun () -> compile_pipeline ~name:"mandel" (`Src P.mandelbrot_src))
      (fun () -> compile_pipeline ~options:no_loop ~name:"mandel" (`Src P.mandelbrot_src))
      (fun () -> compile_pipeline ~options:no_abort ~name:"mandel" (`Src P.mandelbrot_src))
  in
  let f, backend = best_native c in
  let fl, _ = best_native cl in
  let fn, _ = best_native cn in
  let w = B.Wvm.compile (Parser.parse P.mandelbrot_src) in
  (match
     measure_kernel
       [ (fun () -> ignore (H.mandelbrot (-1.0) 1.0 (-1.0) 0.5 0.1));
         run_with f.call margs;
         run_with fl.call margs;
         run_with fn.call margs;
         run_with (B.Wvm.call_values w) margs ]
   with
   | [ hand; compiled; compiled_noloop; compiled_noabort; bc ], hand_alloc, compiled_alloc ->
     add
       { bname = "Mandelbrot"; hand; compiled; compiled_noloop; compiled_noabort;
         hand_alloc; compiled_alloc;
         bytecode = Some bc; backend_used = backend;
         paper_note = "~1x; abort overhead insignificant" }
   | _ -> assert false);

  (* Dot *)
  let m = P.random_matrix s.dot_n in
  let dargs = [| Rtval.Tensor m; Rtval.Tensor m |] in
  let c, cl, cn =
    compile3
      (fun () -> compile_pipeline ~name:"dot" (`Src P.dot_src))
      (fun () -> compile_pipeline ~options:no_loop ~name:"dot" (`Src P.dot_src))
      (fun () -> compile_pipeline ~options:no_abort ~name:"dot" (`Src P.dot_src))
  in
  let f, backend = best_native c in
  let fl, _ = best_native cl in
  let fn, _ = best_native cn in
  let w = B.Wvm.compile (Parser.parse P.dot_src) in
  (match
     measure_kernel
       [ (fun () -> ignore (H.dot m m));
         run_with f.call dargs;
         run_with fl.call dargs;
         run_with fn.call dargs;
         run_with (B.Wvm.call_values w) dargs ]
   with
   | [ hand; compiled; compiled_noloop; compiled_noabort; bc ], hand_alloc, compiled_alloc ->
     add
       { bname = "Dot"; hand; compiled; compiled_noloop; compiled_noabort;
         hand_alloc; compiled_alloc;
         bytecode = Some bc; backend_used = backend;
         paper_note = "all ~1x: every path calls the same dgemm (the MKL role)" }
   | _ -> assert false);

  (* Blur *)
  let img = P.random_image s.blur_n in
  let c, cl, cn =
    compile3
      (fun () -> compile_pipeline ~name:"blur" (`Src P.blur_src))
      (fun () -> compile_pipeline ~options:no_loop ~name:"blur" (`Src P.blur_src))
      (fun () -> compile_pipeline ~options:no_abort ~name:"blur" (`Src P.blur_src))
  in
  let f, backend = best_native c in
  let fl, _ = best_native cl in
  let fn, _ = best_native cn in
  let w = B.Wvm.compile (Parser.parse P.blur_src) in
  let bargs () = [| Rtval.Tensor (Tensor.copy img); Rtval.Int s.blur_n |] in
  (match
     measure_kernel
       [ (fun () -> ignore (H.blur img s.blur_n));
         (fun () -> ignore (f.call (bargs ())));
         (fun () -> ignore (fl.call (bargs ())));
         (fun () -> ignore (fn.call (bargs ())));
         (fun () -> ignore (B.Wvm.call_values w (bargs ()))) ]
   with
   | [ hand; compiled; compiled_noloop; compiled_noabort; bc ], hand_alloc, compiled_alloc ->
     add
       { bname = "Blur"; hand; compiled; compiled_noloop; compiled_noabort;
         hand_alloc; compiled_alloc;
         bytecode = Some bc; backend_used = backend;
         paper_note = "abort checking adds considerable overhead (paper)" }
   | _ -> assert false);

  (* Histogram *)
  let data = P.histogram_data s.hist_n in
  let hargs = [| Rtval.Tensor data |] in
  let c, cl, cn =
    compile3
      (fun () -> compile_pipeline ~name:"hist" (`Src P.histogram_src))
      (fun () -> compile_pipeline ~options:no_loop ~name:"hist" (`Src P.histogram_src))
      (fun () -> compile_pipeline ~options:no_abort ~name:"hist" (`Src P.histogram_src))
  in
  let f, backend = best_native c in
  let fl, _ = best_native cl in
  let fn, _ = best_native cn in
  let w = B.Wvm.compile (Parser.parse P.histogram_src) in
  (match
     measure_kernel
       [ (fun () -> ignore (H.histogram data));
         run_with f.call hargs;
         run_with fl.call hargs;
         run_with fn.call hargs;
         run_with (B.Wvm.call_values w) hargs ]
   with
   | [ hand; compiled; compiled_noloop; compiled_noabort; bc ], hand_alloc, compiled_alloc ->
     add
       { bname = "Histogram"; hand; compiled; compiled_noloop; compiled_noabort;
         hand_alloc; compiled_alloc;
         bytecode = Some bc; backend_used = backend;
         paper_note = "abort checks inhibit vectorised loads (paper)" }
   | _ -> assert false);

  (* PrimeQ *)
  let seed = P.make_seed_table () in
  let env = P.primeq_type_env () in
  (* each arm gets its own type env and expression: compiling mutates the
     unification variables inside them, so sharing across domains would race *)
  let c, cl, cn =
    compile3
      (fun () -> compile_pipeline ~type_env:env ~name:"primeq" (`Expr (P.primeq_expr ())))
      (fun () ->
         compile_pipeline ~options:no_loop ~type_env:(P.primeq_type_env ())
           ~name:"primeq" (`Expr (P.primeq_expr ())))
      (fun () ->
         compile_pipeline ~options:no_abort ~type_env:(P.primeq_type_env ())
           ~name:"primeq" (`Expr (P.primeq_expr ())))
  in
  let f, backend = best_native c in
  let fl, _ = best_native cl in
  let fn, _ = best_native cn in
  let pargs = [| Rtval.Int s.primeq_limit |] in
  (match
     measure_kernel
       [ (fun () -> ignore (H.primeq_count ~seed s.primeq_limit));
         run_with f.call pargs;
         run_with fl.call pargs;
         run_with fn.call pargs ]
   with
   | [ hand; compiled; compiled_noloop; compiled_noabort ], hand_alloc, compiled_alloc ->
     add
       { bname = "PrimeQ"; hand; compiled; compiled_noloop; compiled_noabort;
         hand_alloc; compiled_alloc;
         bytecode = None; (* user-declared helper functions: not bytecode-compilable *)
         backend_used = backend;
         paper_note = "paper: 1.5x (constant-array handling; see ablation-consts)" }
   | _ -> assert false);

  (* QSort: one program unit (driver creating the comparator + the
     recursive sort declared in the type environment), as the paper
     compiles it; the bytecode compiler rejects the function value. *)
  let lst = P.sorted_list s.qsort_n in
  let no_abort = { Options.default with Options.abort_handling = false } in
  let c, cl, cn =
    compile3
      (fun () ->
         compile_pipeline ~type_env:(P.qsort_type_env ()) ~name:"qsortmain"
           (`Src P.qsort_driver_src))
      (fun () ->
         compile_pipeline ~options:no_loop ~type_env:(P.qsort_type_env ())
           ~name:"qsortmain" (`Src P.qsort_driver_src))
      (fun () ->
         compile_pipeline ~options:no_abort ~type_env:(P.qsort_type_env ())
           ~name:"qsortmain" (`Src P.qsort_driver_src))
  in
  let f, backend = best_native c in
  let fl, _ = best_native cl in
  let fn, _ = best_native cn in
  let qargs = [| Rtval.Tensor lst |] in
  let arr = Array.init s.qsort_n (fun i -> i + 1) in
  (match
     measure_kernel
       [ (fun () -> ignore (H.qsort ( < ) arr));
         run_with f.call qargs;
         run_with fl.call qargs;
         run_with fn.call qargs ]
   with
   | [ hand; compiled; compiled_noloop; compiled_noabort ], hand_alloc, compiled_alloc ->
     add
       { bname = "QSort"; hand; compiled; compiled_noloop; compiled_noabort;
         hand_alloc; compiled_alloc;
         bytecode = None; (* function values are not representable (paper L1) *)
         backend_used = backend;
         paper_note = "paper: 1.2x (immutability copies); bytecode not repr." }
   | _ -> assert false);

  List.rev !rows

(* "no-loopopt" is the pre-loop-layer compiler (LICM, range facts and
   strided abort polls all disabled), so compiled vs
   no-loopopt is this layer's effect and compiled vs no-abort is the
   residual abortability overhead. *)
let fig2_record rows =
  write_record "fig2"
    ~info:
      (("abort_stride", string_of_int Options.default.Options.abort_stride)
       :: ("batches", Printf.sprintf "%d per arm, best kept" batches)
       :: ("batch_quota_s", Printf.sprintf "%g per arm" !quota)
       :: List.map (fun r -> (String.lowercase_ascii r.bname ^ ".backend", r.backend_used)) rows)
    (("noise_band", !noise, "ratio")
     :: List.concat_map
       (fun r ->
          let m name v unit = (String.lowercase_ascii r.bname ^ "." ^ name, v, unit) in
          [ m "hand_s" r.hand "s"; m "compiled_s" r.compiled "s";
            m "compiled_no_loop_opts_s" r.compiled_noloop "s";
            m "compiled_no_abort_s" r.compiled_noabort "s" ]
          @ Option.to_list (Option.map (fun b -> m "bytecode_s" b "s") r.bytecode)
          @ [ m "hand_alloc_mb" r.hand_alloc "MB"; m "compiled_alloc_mb" r.compiled_alloc "MB";
              m "vs_hand" (r.compiled /. r.hand) "ratio";
              m "abort_overhead" (r.compiled /. r.compiled_noabort) "ratio";
              m "loop_layer_speedup" (r.compiled_noloop /. r.compiled) "ratio" ])
       rows)

let fig2 () =
  B.Compiled_function.quiet := true;
  noise := 0.0;
  let rows = fig2_benchmarks () in
  print_table ~title:"Figure 2: slowdown normalised to the hand-written baseline"
    ~columns:
      [ "hand"; "compiled"; "no-loopopt"; "no-abort"; "bytecode"; "backend"; "hand MB";
        "compiled MB" ]
    (List.map
       (fun r ->
          ( r.bname,
            [ secs (Some r.hand);
              ratio r.hand (Some r.compiled);
              ratio r.hand (Some r.compiled_noloop);
              ratio r.hand (Some r.compiled_noabort);
              ratio r.hand r.bytecode;
              r.backend_used;
              Printf.sprintf "%.2f" r.hand_alloc;
              Printf.sprintf "%.2f" r.compiled_alloc ] ))
       rows);
  Printf.printf "\npaper expectations:\n";
  List.iter (fun r -> Printf.printf "  %-10s %s\n" r.bname r.paper_note) rows;
  Printf.printf
    "(the paper caps bytecode bars at 2.5x in the plot; raw ratios shown here)\n%!";
  fig2_record rows

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)

let table1 () =
  Printf.printf "\n== Table 1: features and objectives (probed, not asserted) ==\n";
  Printf.printf "%-36s %-14s %s\n" "Objective" "New Compiler" "Bytecode Compiler";
  List.iter
    (fun (name, nw, wv) ->
       let pretty = function
         | Bench_support.Features.Full -> "yes"
         | Bench_support.Features.Partial -> "limited (*)"
         | Bench_support.Features.None_ -> "no (x)"
       in
       Printf.printf "%-36s %-14s %s\n" name (pretty nw) (pretty wv))
    (Bench_support.Features.all ());
  Printf.printf "%!"

(* ------------------------------------------------------------------ *)
(* Figure 1 / E3: random walk                                          *)

let fig1 () =
  B.Compiled_function.quiet := true;
  let len = !sizes.walk_len in
  let interp_fn = Wolfram.interpret_expr (Parser.parse P.random_walk_interpreted_src) in
  let t_interp =
    measure "walk/interp" (fun () ->
        Rand.seed 5;
        ignore (Wolfram.interpret_expr (Expr.Normal (interp_fn, [| Expr.Int len |]))))
  in
  let w = B.Wvm.compile (Parser.parse P.random_walk_compiled_src) in
  let t_wvm =
    measure "walk/wvm" (fun () ->
        Rand.seed 5;
        ignore (B.Wvm.call_values w [| Rtval.Int len |]))
  in
  let c = compile_pipeline ~name:"walk" (`Src P.random_walk_compiled_src) in
  let f, backend = best_native c in
  let t_new =
    measure "walk/new" (fun () ->
        Rand.seed 5;
        ignore (f.call [| Rtval.Int len |]))
  in
  let t_hand =
    measure "walk/hand" (fun () ->
        Rand.seed 5;
        ignore (H.random_walk len))
  in
  print_table ~title:(Printf.sprintf "Figure 1 (E3): random walk, len = %d" len)
    ~columns:[ "seconds"; "speedup" ]
    [ ("interpreted", [ secs (Some t_interp); "1.00x" ]);
      ("bytecode", [ secs (Some t_wvm); Printf.sprintf "%.2fx" (t_interp /. t_wvm) ]);
      (Printf.sprintf "compiled/%s" backend,
       [ secs (Some t_new); Printf.sprintf "%.2fx" (t_interp /. t_new) ]);
      ("hand-written", [ secs (Some t_hand); Printf.sprintf "%.2fx" (t_interp /. t_hand) ]) ];
  Printf.printf "paper: bytecode ~2x over interpreted at len 100000\n%!"

(* ------------------------------------------------------------------ *)
(* E4: FindRoot auto-compilation                                       *)

let findroot () =
  let eq = P.findroot_src in
  Wolf_runtime.Hooks.auto_compile_enabled := false;
  let t_off = measure "findroot/off" (fun () -> ignore (Wolfram.interpret eq)) in
  Wolf_runtime.Hooks.auto_compile_enabled := true;
  let t_on = measure "findroot/on" (fun () -> ignore (Wolfram.interpret eq)) in
  print_table ~title:"FindRoot[Sin[x] + E^x, {x, 0}] auto-compilation (E4)"
    ~columns:[ "seconds"; "speedup" ]
    [ ("interpreted", [ secs (Some t_off); "1.00x" ]);
      ("auto-compiled", [ secs (Some t_on); Printf.sprintf "%.2fx" (t_off /. t_on) ]) ];
  Printf.printf "paper: 1.6x\n%!"

(* ------------------------------------------------------------------ *)
(* E5: inlining ablation (Mandelbrot)                                  *)

let ablation_inline () =
  let margs = [| Rtval.Real (-1.0); Rtval.Real 1.0; Rtval.Real (-1.0); Rtval.Real 0.5;
                 Rtval.Real 0.1 |] in
  let c = compile_pipeline ~name:"mandel" (`Src P.mandelbrot_src) in
  let c0 =
    compile_pipeline
      ~options:{ Options.default with inline_level = 0 }
      ~name:"mandel" (`Src P.mandelbrot_src)
  in
  (* both arms use the best backend; with inlining off, every primitive goes
     through the boxed runtime dispatch — the paper's function-call overhead *)
  let f, _ = best_native c in
  let f0, _ = best_native c0 in
  let t = measure "inline/on" (run_with f.call margs) in
  let t0 = measure "inline/off" (run_with f0.call margs) in
  print_table ~title:"Mandelbrot with primitive inlining disabled (E5)"
    ~columns:[ "seconds"; "slowdown" ]
    [ ("inlining on", [ secs (Some t); "1.00x" ]);
      ("inlining off", [ secs (Some t0); Printf.sprintf "%.2fx" (t0 /. t) ]) ];
  Printf.printf "paper: ~10x\n%!"

(* ------------------------------------------------------------------ *)
(* E6: abort-handling ablation                                         *)

let ablation_abort () =
  B.Compiled_function.quiet := true;
  let rows = fig2_benchmarks () in
  print_table ~title:"Abort-check overhead per benchmark (E6)"
    ~columns:[ "with abort"; "without"; "overhead" ]
    (List.map
       (fun r ->
          ( r.bname,
            [ secs (Some r.compiled);
              secs (Some r.compiled_noabort);
              Printf.sprintf "%.1f%%"
                (100.0 *. ((r.compiled /. r.compiled_noabort) -. 1.0)) ] ))
       rows);
  Printf.printf
    "paper: considerable for Blur, vector-load inhibition for Histogram, \
     insignificant for Mandelbrot\n%!"

(* ------------------------------------------------------------------ *)
(* E7: constant-array handling (PrimeQ)                                *)

let ablation_consts () =
  (* The Fig 2 PrimeQ benchmark with the constant seed table re-materialised
     on every evaluation instead of kept static.  The paper does not specify
     the engine's exact re-materialisation granularity; ours is per function
     entry, so the magnitude differs (see EXPERIMENTS.md), but the direction
     and the fix (static constants) are the paper's. *)
  let env = P.primeq_type_env () in
  let limit = !sizes.primeq_limit in
  let c_static = compile_pipeline ~type_env:env ~name:"primeq" (`Expr (P.primeq_expr ())) in
  let c_dynamic =
    compile_pipeline
      ~options:{ Options.default with static_constants = false }
      ~type_env:(P.primeq_type_env ()) ~name:"primeq" (`Expr (P.primeq_expr ()))
  in
  let f, _ = best_native c_static in
  let f0, _ = best_native c_dynamic in
  let t = measure "consts/static" (run_with f.call [| Rtval.Int limit |]) in
  let t0 = measure "consts/dynamic" (run_with f0.call [| Rtval.Int limit |]) in
  print_table ~title:"PrimeQ constant-array handling (E7)"
    ~columns:[ "seconds"; "slowdown" ]
    [ ("static consts", [ secs (Some t); "1.00x" ]);
      ("per-call copy", [ secs (Some t0); Printf.sprintf "%.2fx" (t0 /. t) ]) ];
  Printf.printf
    "paper: 1.5x degradation from non-optimal constant arrays (our per-call \
     mode; static mode is the paper's 'fixed in the upcoming version')\n%!"

(* ------------------------------------------------------------------ *)
(* E8: compilation time and per-pass breakdown                         *)

let compile_time () =
  let specs =
    [ ("fnv1a", `Src P.fnv1a_src, None);
      ("mandelbrot", `Src P.mandelbrot_src, None);
      ("dot", `Src P.dot_src, None);
      ("blur", `Src P.blur_src, None);
      ("histogram", `Src P.histogram_src, None);
      ("primeq", `Expr (P.primeq_expr ()), Some (P.primeq_type_env ())) ]
  in
  Printf.printf "\n== Compilation time per benchmark (E8) ==\n";
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (name, src, env) ->
       let t0 = Unix.gettimeofday () in
       let c = compile_pipeline ?type_env:env ~name src in
       let total = Unix.gettimeofday () -. t0 in
       Printf.printf "%-12s total %8.2fms  (%d program functions)\n" name (total *. 1e3)
         (List.length c.Pipeline.program.Wir.funcs);
       List.iter
         (fun (st : Pass_manager.stat) ->
            if st.st_runs > 0 then
              Hashtbl.replace totals st.st_pass
                (st.st_time +. Option.value ~default:0.0 (Hashtbl.find_opt totals st.st_pass)))
         c.Pipeline.stats)
    specs;
  Printf.printf "\nper-pass totals across benchmarks:\n";
  Hashtbl.fold (fun pass t acc -> (pass, t) :: acc) totals []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.iter (fun (pass, t) -> Printf.printf "  %-22s %8.2fms\n" pass (t *. 1e3));
  (* the compile cache: a second identical in-process compile is a hit and
     near-free, so repeated Compile/run traffic pays compile cost once *)
  Printf.printf "\ncompile cache (mandelbrot, default target):\n";
  Wolfram.compile_cache_clear ();
  let fexpr = Parser.parse P.mandelbrot_src in
  let t0 = Unix.gettimeofday () in
  ignore (Wolfram.function_compile fexpr);
  let cold = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  ignore (Wolfram.function_compile fexpr);
  let hit = Unix.gettimeofday () -. t0 in
  let s = Wolfram.compile_cache_stats () in
  Printf.printf
    "  cold %8.2fms   cache-hit %8.4fms   speedup %8.0fx   (%d hits / %d misses)\n"
    (cold *. 1e3) (hit *. 1e3)
    (if hit > 0.0 then cold /. hit else infinity)
    s.Wolf_compiler.Compile_cache.hits s.Wolf_compiler.Compile_cache.misses;
  Printf.printf "%!"

(* ------------------------------------------------------------------ *)
(* E14: tiered execution — time-to-first-result and steady state.

   Three programs small enough that the interpreted arm stays feasible.
   TTFR is what a first-time caller waits for an answer: the interpreter
   evaluates immediately, the tier arm adds only controller creation on
   top of that, an AOT -O2 compile pays the whole pipeline first.
   Steady state compares the promoted tier closure against the same AOT
   compile — the difference is tier dispatch (one atomic load and a
   state check per call). *)

let time_once f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let min_over n f =
  let best = ref infinity in
  for _ = 1 to n do
    let t = f () in
    if t < !best then best := t
  done;
  !best

type tier_row = {
  tname : string;
  ttfr_interp : float;
  ttfr_tier : float;
  ttfr_aot : float;
  promote_seconds : float;
  steady_interp : float;
  steady_tier : float;
  steady_aot : float;
}

let tier_programs quick =
  let sum_src =
    "Function[{Typed[n, \"MachineInteger\"]}, \
     Module[{s = 0}, Do[s = s + i*i, {i, 1, n}]; s]]"
  in
  [ ("SumLoop", sum_src, [ Expr.Int (if quick then 1500 else 4000) ]);
    ("FNV1a", P.fnv1a_src,
     [ Expr.Str (P.fnv_string (if quick then 600 else 2000)) ]);
    ("Mandelbrot", P.mandelbrot_src,
     [ Expr.Real (-1.0); Expr.Real 1.0; Expr.Real (-1.0); Expr.Real 0.5;
       Expr.Real (if quick then 0.5 else 0.25) ]) ]

let tier_bench_rows () =
  let quick = !quota < 0.5 in
  List.map
    (fun (tname, src, argl) ->
       let fexpr = Parser.parse src in
       let args_a = Array.of_list argl in
       (* the cache is off for every compiling arm: each TTFR rep must pay
          the real pipeline, not a lookup *)
       let uncached = { Options.default with Options.use_cache = false } in
       let aot_opts = { uncached with Options.opt_level = 2 } in
       let reps = 3 in
       let ttfr_interp =
         min_over reps (fun () ->
             time_once (fun () ->
                 ignore (Wolfram.interpret_expr (Expr.Normal (fexpr, args_a)))))
       in
       let ttfr_tier =
         min_over reps (fun () ->
             time_once (fun () ->
                 let cf = Wolfram.tiered ~options:uncached ~name:tname fexpr in
                 ignore (Wolfram.call cf argl)))
       in
       let ttfr_aot =
         min_over reps (fun () ->
             time_once (fun () ->
                 let cf =
                   Wolfram.function_compile ~options:aot_opts
                     ~target:Wolfram.Jit ~name:tname fexpr
                 in
                 ignore (Wolfram.call cf argl)))
       in
       (* steady state: one tier instance driven to promotion vs one AOT
          compile, measured interleaved *)
       let tcf = Wolfram.tiered ~options:uncached ~name:tname fexpr in
       let tc = Option.get (Wolfram.tier_of tcf) in
       ignore (Wolfram.call tcf argl);
       let promote_seconds =
         time_once (fun () -> ignore (Wolfram.Tier.force_promote tc))
       in
       (match Wolfram.Tier.state tc with
        | Wolfram.Tier.Promoted -> ()
        | s ->
          Printf.printf "tier bench: %s promotion ended %s\n%!" tname
            (Wolfram.Tier.state_name s));
       let acf =
         Wolfram.function_compile ~options:aot_opts ~target:Wolfram.Jit
           ~name:tname fexpr
       in
       match
         measure_group
           [ (fun () ->
                ignore (Wolfram.interpret_expr (Expr.Normal (fexpr, args_a))));
             (fun () -> ignore (Wolfram.call tcf argl));
             (fun () -> ignore (Wolfram.call acf argl)) ]
       with
       | [ steady_interp; steady_tier; steady_aot ] ->
         { tname; ttfr_interp; ttfr_tier; ttfr_aot; promote_seconds;
           steady_interp; steady_tier; steady_aot }
       | _ -> assert false)
    (tier_programs quick)

let tier_bench () =
  B.Compiled_function.quiet := true;
  let rows = tier_bench_rows () in
  print_table
    ~title:"Tiered execution (E14): time-to-first-result and steady state"
    ~columns:[ "ttfr-interp"; "ttfr-tier"; "ttfr-aot"; "promote";
               "steady-tier"; "steady-aot"; "tier/aot" ]
    (List.map
       (fun r ->
          ( r.tname,
            [ secs (Some r.ttfr_interp); secs (Some r.ttfr_tier);
              secs (Some r.ttfr_aot); secs (Some r.promote_seconds);
              secs (Some r.steady_tier); secs (Some r.steady_aot);
              Printf.sprintf "%.2fx" (r.steady_tier /. r.steady_aot) ] ))
       rows);
  let worst f = List.fold_left (fun acc r -> Float.max acc (f r)) 0.0 rows in
  let worst_ttfr = worst (fun r -> r.ttfr_tier /. r.ttfr_interp)
  and worst_steady = worst (fun r -> r.steady_tier /. r.steady_aot) in
  Printf.printf
    "\nworst TTFR tier-vs-interpreter: %.2fx (target <= 1.3x)\n\
     worst steady tier-vs-AOT: %.2fx (target <= ~1.05x, i.e. >= 0.95x \
     AOT throughput)\n%!"
    worst_ttfr worst_steady;
  write_record "tier" ~info:[]
    (List.concat_map
       (fun r ->
          let m name v unit = (String.lowercase_ascii r.tname ^ "." ^ name, v, unit) in
          [ m "ttfr_interp_s" r.ttfr_interp "s"; m "ttfr_tier_s" r.ttfr_tier "s";
            m "ttfr_aot_s" r.ttfr_aot "s"; m "promote_s" r.promote_seconds "s";
            m "steady_interp_s" r.steady_interp "s"; m "steady_tier_s" r.steady_tier "s";
            m "steady_aot_s" r.steady_aot "s";
            m "ttfr_tier_vs_interp" (r.ttfr_tier /. r.ttfr_interp) "ratio";
            m "steady_tier_vs_aot" (r.steady_tier /. r.steady_aot) "ratio";
            m "steady_speedup_vs_interp" (r.steady_interp /. r.steady_tier) "ratio" ])
       rows
     @ [ ("max_ttfr_tier_vs_interp", worst_ttfr, "ratio");
         ("max_steady_tier_vs_aot", worst_steady, "ratio") ]);
  Wolfram.Tier.shutdown ()

(* ------------------------------------------------------------------ *)
(* E15: data-parallel loops — map / reduce / fused map+reduce timed at
   jobs 1/2/4 with the measured schedule the runtime settled on.  The
   schedule cache is cleared per jobs level so every level pays (and
   reports) its own search; output equality between jobs=4 and jobs=1 is
   part of the record because on a single-core host the honest result is
   "no speedup, same answers" (the E11 caveat). *)

module PR = Wolf_runtime.Par_runtime

type parloop_row = {
  pname : string;
  pkind : string;                            (* map | reduce | fused *)
  per_jobs : (int * float * string) list;    (* jobs, seconds, schedule *)
  pequal : bool;                             (* jobs=4 value = jobs=1 value *)
}

let parloop_programs quick =
  let map_src =
    "Function[{Typed[n, \"MachineInteger\"]}, \
     Module[{a = ConstantArray[0.0, n], i = 1}, \
     While[i <= n, a[[i]] = 0.5*i + 1.0; i = i + 1]; a[[n]]]]"
  in
  let reduce_src =
    "Function[{Typed[n, \"MachineInteger\"]}, \
     Module[{s = 0.0, i = 1}, \
     While[i <= n, s = s + Sin[0.001*i]; i = i + 1]; s]]"
  in
  let fused_src =
    "Function[{Typed[n, \"MachineInteger\"]}, \
     Module[{a = ConstantArray[0.0, n], i = 1, s = 0.0}, \
     While[i <= n, a[[i]] = 0.5*i + 1.0; i = i + 1]; \
     i = 1; \
     While[i <= n, s = s + a[[i]]; i = i + 1]; s]]"
  in
  let k = if quick then 1 else 8 in
  [ ("MapFill", "map", map_src, 250_000 * k);
    ("SinSum", "reduce", reduce_src, 250_000 * k);
    ("FillThenSum", "fused", fused_src, 200_000 * k) ]

let parloop_jobs_levels = [ 1; 2; 4 ]

let parloop_bench_rows () =
  let quick = !quota < 0.5 in
  let options =
    { Options.default with
      Options.parallel_loops = true; opt_level = 2; use_cache = false }
  in
  let programs =
    List.map
      (fun (pname, pkind, src, n) ->
         let cf =
           Wolfram.function_compile ~options ~target:Wolfram.Threaded
             ~name:pname (Parser.parse src)
         in
         (pname, pkind, fun () -> Wolfram.call cf [ Expr.Int n ]))
      (parloop_programs quick)
  in
  (* one (jobs, seconds, schedule) cell and the value the program returned *)
  let measure call j =
    PR.clear_schedules ();
    PR.with_jobs j @@ fun () ->
    let v = call () in  (* pays the schedule search, fills cache *)
    let sched =
      match PR.last_schedule () with
      | Some s -> PR.schedule_to_string s
      | None -> "none"
    in
    let t = min_over 5 (fun () -> time_once (fun () -> ignore (call ()))) in
    ((j, t, sched), v)
  in
  (* jobs=1 runs for every program before any jobs>1 run, so before the
     runtime spawns its first helper domain (when this is the process's
     first bench): once a second domain exists every GC pays multi-domain
     synchronisation, and timing jobs=1 after that inflates the ratio *)
  let serial = List.map (fun (_, _, call) -> measure call 1) programs in
  List.map2
    (fun (pname, pkind, call) (cell1, v1) ->
       let cells =
         List.map (fun j -> measure call j) (List.filter (fun j -> j <> 1) parloop_jobs_levels)
       in
       let v4 = PR.with_jobs 4 call in
       let pequal =
         match (v1, v4) with
         | Expr.Real a, Expr.Real b ->
           Float.abs (a -. b)
           <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))
         | a, b -> Expr.equal a b
       in
       { pname; pkind; per_jobs = cell1 :: List.map fst cells; pequal })
    programs serial

let parloop_speedup4 r =
  match
    ( List.find_opt (fun (j, _, _) -> j = 1) r.per_jobs,
      List.find_opt (fun (j, _, _) -> j = 4) r.per_jobs )
  with
  | Some (_, t1, _), Some (_, t4, _) when t4 > 0.0 -> t1 /. t4
  | _ -> nan

let parloop_bench () =
  B.Compiled_function.quiet := true;
  let rows = parloop_bench_rows () in
  print_table ~title:"Data-parallel loops (E15): jobs scaling per schedule"
    ~columns:[ "jobs-1"; "jobs-2"; "jobs-4"; "speedup-4"; "sched-4"; "j4=j1" ]
    (List.map
       (fun r ->
          let t j =
            match List.find_opt (fun (j', _, _) -> j' = j) r.per_jobs with
            | Some (_, t, _) -> secs (Some t)
            | None -> "-"
          in
          let sched4 =
            match List.find_opt (fun (j, _, _) -> j = 4) r.per_jobs with
            | Some (_, _, s) -> s
            | None -> "-"
          in
          ( Printf.sprintf "%s (%s)" r.pname r.pkind,
            [ t 1; t 2; t 4;
              Printf.sprintf "%.2fx" (parloop_speedup4 r); sched4;
              (if r.pequal then "yes" else "NO") ] ))
       rows);
  let cores = Wolf_parallel.Pool.default_jobs () in
  if cores <= 1 then
    Printf.printf
      "\nsingle-core host (%d core): speedup <= 1.0x is expected here; the \
       record proves jobs=4 output equality instead (E11 caveat)\n%!"
      cores;
  if not (List.for_all (fun r -> r.pequal) rows) then begin
    Printf.printf "parloop bench: jobs=4 output DIVERGED from jobs=1\n%!";
    exit 1
  end;
  write_record "parloop"
    ~info:
      (("host_cores", string_of_int cores)
       :: List.concat_map
            (fun r ->
               let n = String.lowercase_ascii r.pname in
               (n ^ ".kind", r.pkind)
               :: List.map (fun (j, _, sched) -> (Printf.sprintf "%s.jobs%d.schedule" n j, sched))
                    r.per_jobs)
            rows)
    (List.concat_map
       (fun r ->
          let n = String.lowercase_ascii r.pname in
          List.map (fun (j, t, _) -> (Printf.sprintf "%s.jobs%d_s" n j, t, "s")) r.per_jobs
          @ [ (n ^ ".speedup_jobs4", parloop_speedup4 r, "ratio") ])
       rows)

(* ------------------------------------------------------------------ *)
(* E16: shipped standalone binaries (wolfc build).

   The C-supportable Figure-2 subset built into self-contained executables
   and raced against the in-process arms.  The binary arm spawns one
   process per run — fork/exec and argv parsing are part of what shipping
   a binary costs, so they stay inside the measurement and the JSON says
   so.  Arguments travel on the command line (FNV1a's string is capped
   well under the kernel's per-argument limit); PrimeQ carries its 2^14
   seed table as static constant data, so the constant pool is exercised
   at real size.  The interpreter arm is omitted where the program leans
   on type-environment helper functions the interpreter cannot see. *)

type build_row = {
  uname : string;
  binterp : float option;
  bnative : float;
  bbinary : float;          (* includes one process spawn per run *)
  bbuild : float;           (* pipeline + emit + cc -O2, one-off *)
  bnbackend : string;
  bagree : bool;            (* binary stdout = in-process result *)
}

let run_binary_once exe argv =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: argv)) in
  let line = try input_line ic with End_of_file -> "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> line
  | Unix.WEXITED n -> Printf.sprintf "<exit %d>" n
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> "<killed>"

let build_bench () =
  B.Compiled_function.quiet := true;
  if not (B.C_build.available ()) then
    Printf.printf "build bench (E16): no C compiler available; skipped\n%!"
  else begin
    let s = !sizes in
    let dir = Filename.temp_file "wolf_bench_build" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o755;
    let rm () =
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))
    in
    Fun.protect ~finally:rm @@ fun () ->
    let progs =
      [ (let str = P.fnv_string (min s.fnv_len 30_000) in
         ( "FNV1a",
           (fun () -> compile_pipeline ~name:"fnv1a" (`Src P.fnv1a_src)),
           [| Rtval.Str str |], [ str ],
           Some (P.fnv1a_src, [| Expr.Str str |]) ));
        ( "Mandelbrot",
          (fun () -> compile_pipeline ~name:"mandel" (`Src P.mandelbrot_src)),
          [| Rtval.Real (-1.0); Rtval.Real 1.0; Rtval.Real (-1.0);
             Rtval.Real 0.5; Rtval.Real 0.1 |],
          [ "-1.0"; "1.0"; "-1.0"; "0.5"; "0.1" ],
          Some
            ( P.mandelbrot_src,
              [| Expr.Real (-1.0); Expr.Real 1.0; Expr.Real (-1.0);
                 Expr.Real 0.5; Expr.Real 0.1 |] ) );
        ( "PrimeQ",
          (fun () ->
             compile_pipeline ~type_env:(P.primeq_type_env ()) ~name:"primeq"
               (`Expr (P.primeq_expr ()))),
          [| Rtval.Int s.primeq_limit |],
          [ string_of_int s.primeq_limit ],
          None ) ]
    in
    let rows =
      List.filter_map
        (fun (uname, compile, rargs, argv, interp) ->
           let t0 = Unix.gettimeofday () in
           let c = compile () in
           match B.C_emit.emit_standalone c with
           | Error e ->
             Printf.printf "build bench: %s skipped (%s)\n%!" uname e;
             None
           | Ok em ->
             let exe = Filename.concat dir uname in
             (match
                B.C_build.build ~source:em.B.C_emit.source ~output:exe ()
              with
              | Error e ->
                Printf.printf "build bench: %s cc failed: %s\n%!" uname e;
                None
              | Ok () ->
                let bbuild = Unix.gettimeofday () -. t0 in
                let f, bnbackend = best_native c in
                let expected =
                  match f.call rargs with
                  | Rtval.Int i -> string_of_int i
                  | v -> Rtval.type_name v
                in
                let bagree = String.trim (run_binary_once exe argv) = expected in
                let interp_thunk =
                  Option.map
                    (fun (src, eargs) ->
                       let fexpr = Parser.parse src in
                       fun () ->
                         ignore
                           (Wolfram.interpret_expr (Expr.Normal (fexpr, eargs))))
                    interp
                in
                let arms =
                  (match interp_thunk with Some t -> [ t ] | None -> [])
                  @ [ run_with f.call rargs;
                      (fun () -> ignore (run_binary_once exe argv)) ]
                in
                (match measure_group arms, interp_thunk with
                 | [ i; n; b ], Some _ ->
                   Some
                     { uname; binterp = Some i; bnative = n; bbinary = b;
                       bbuild; bnbackend; bagree }
                 | [ n; b ], None ->
                   Some
                     { uname; binterp = None; bnative = n; bbinary = b;
                       bbuild; bnbackend; bagree }
                 | _ -> assert false)))
        progs
    in
    print_table ~title:"Standalone binaries (E16): shipped vs in-process"
      ~columns:[ "interp"; "native"; "binary"; "vs-native"; "build"; "agree" ]
      (List.map
         (fun r ->
            ( r.uname,
              [ secs r.binterp; secs (Some r.bnative); secs (Some r.bbinary);
                ratio r.bnative (Some r.bbinary); secs (Some r.bbuild);
                (if r.bagree then "yes" else "NO") ] ))
         rows);
    if not (List.for_all (fun r -> r.bagree) rows) then begin
      Printf.printf "build bench: binary output DIVERGED from in-process\n%!";
      exit 1
    end;
    write_record "build"
      ~info:
        (("note", "binary_s includes one fork/exec and argv parse per run; build_s is \
                   pipeline + emit + cc -O2")
         :: List.map
              (fun r -> (String.lowercase_ascii r.uname ^ ".native_backend", r.bnbackend))
              rows)
      (List.concat_map
         (fun r ->
            let m name v = (String.lowercase_ascii r.uname ^ "." ^ name, v, "s") in
            Option.to_list (Option.map (m "interpreter_s") r.binterp)
            @ [ m "native_s" r.bnative; m "binary_s" r.bbinary; m "build_s" r.bbuild ])
         rows)
  end

(* ------------------------------------------------------------------ *)

let usage () =
  print_endline
    "usage: main.exe [all|fig2|table1|fig1|findroot|ablation-inline|\n\
    \                 ablation-abort|ablation-consts|compile-time|tier|\n\
    \                 parloop|build|loop-asm|smoke]\n\
    \                [--quick|--paper] [--json] [--jobs=N]\n\
    \                (--json: fig2, tier, parloop, build and loop-asm each write\n\
    \                 BENCH_<command>.json, one bench record of named\n\
    \                 metrics with units, the shape wolfc obs-check checks;\n\
    \                 --jobs=N: compile benchmark arms on N domains, 0 = cores)"

(* smoke: the fast tier-1 gate arm (make check) — feature probes plus the
   compile-time/cache report, no long measurement loops *)
let smoke () =
  sizes := quick_sizes;
  quota := 0.1;
  table1 ();
  compile_time ()

let () =
  Wolfram.init ();
  let args = Array.to_list Sys.argv in
  let args = List.map (fun a -> if a = "--smoke" then "smoke" else a) args in
  if List.mem "--paper" args then sizes := paper_sizes;
  if List.mem "--quick" args then begin
    sizes := quick_sizes;
    quota := 0.25
  end;
  json := List.mem "--json" args;
  command_line := String.concat " " ("bench/main.exe" :: List.tl args);
  List.iter
    (fun a ->
       match String.index_opt a '=' with
       | Some i when String.sub a 0 i = "--jobs" ->
         let n = String.sub a (i + 1) (String.length a - i - 1) in
         (match int_of_string_opt n with
          | Some 0 -> bench_jobs := Wolf_parallel.Pool.default_jobs ()
          | Some j when j > 0 -> bench_jobs := j
          | _ -> Printf.printf "bad --jobs value %s\n" n; usage (); exit 2)
       | _ -> ())
    args;
  let commands =
    List.filter
      (fun a -> not (String.starts_with ~prefix:"--" a))
      (List.tl args)
  in
  let run = function
    | "fig2" -> fig2 ()
    | "table1" -> table1 ()
    | "fig1" -> fig1 ()
    | "findroot" -> findroot ()
    | "ablation-inline" -> ablation_inline ()
    | "ablation-abort" -> ablation_abort ()
    | "ablation-consts" -> ablation_consts ()
    | "compile-time" -> compile_time ()
    | "tier" -> tier_bench ()
    | "parloop" -> parloop_bench ()
    | "build" -> build_bench ()
    | "smoke" -> smoke ()
    | "loop-asm" -> loop_asm ()
    | "all" ->
      table1 ();
      fig2 ();
      fig1 ();
      findroot ();
      ablation_inline ();
      ablation_abort ();
      ablation_consts ();
      compile_time ();
      tier_bench ()
    | "help" | "-h" | "--help" -> usage ()
    | other ->
      Printf.printf "unknown command %s\n" other;
      usage ();
      exit 2
  in
  match commands with
  | [] -> run "all"
  | cmds -> List.iter run cmds
