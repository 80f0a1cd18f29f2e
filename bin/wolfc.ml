(* wolfc — command-line front end to the compiler, mirroring the artifact
   appendix workflow:

     wolfc emit  --stage ast|wir|twir|bytecode|c|ocaml  [-e EXPR | FILE]
     wolfc run   [-e EXPR | FILE] --args 1,2.5,...      (compile and call)
     wolfc eval  [-e EXPR | FILE]                       (interpret)
     wolfc repl                                         (interactive session)
*)

open Cmdliner
open Wolf_wexpr

let read_program expr_opt file_opt =
  match expr_opt, file_opt with
  | Some e, _ -> e
  | None, Some f ->
    let ic = open_in f in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  | None, None -> failwith "provide a program with -e or a FILE argument"

let options_of ~no_abort ~no_inline ~opt_level ~self ~dump_after =
  { Wolf_compiler.Options.default with
    abort_handling = not no_abort;
    inline_level = (if no_inline then 0 else 1);
    opt_level;
    self_name = self;
    dump_after }

(* shared flags *)
let expr_arg =
  Arg.(value & opt (some string) None & info [ "e"; "expression" ] ~docv:"EXPR"
         ~doc:"Program text (otherwise read from FILE).")

let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE")

let no_abort = Arg.(value & flag & info [ "no-abort" ] ~doc:"Disable abort checks (F3).")
let no_inline = Arg.(value & flag & info [ "no-inline" ] ~doc:"Disable inlining (E5).")
let opt_level = Arg.(value & opt int 1 & info [ "O" ] ~docv:"N" ~doc:"Optimisation level (0/1/2).")
let self = Arg.(value & opt (some string) None & info [ "self" ] ~docv:"NAME"
                  ~doc:"Treat calls to NAME as recursive self-references (e.g. cfib).")

let dump_after_arg =
  Arg.(value & opt_all string [] & info [ "dump-after" ] ~docv:"PASS"
         ~doc:"Dump the IR to stderr after $(docv) (repeatable; 'all' = every pass).")

let stage_arg =
  let stages =
    [ ("ast", `Ast); ("wir", `Wir); ("twir", `Twir); ("bytecode", `Bytecode);
      ("c", `C); ("ocaml", `OCaml) ]
  in
  Arg.(value & opt (enum stages) `Twir & info [ "stage" ] ~docv:"STAGE"
         ~doc:"Representation to print: ast, wir, twir, bytecode, c, ocaml.")

let emit_cmd =
  let run stage expr file no_abort no_inline opt_level self dump_after =
    Wolfram.init ();
    let src = read_program expr file in
    let options = options_of ~no_abort ~no_inline ~opt_level ~self ~dump_after in
    (match stage with
     | `Ast -> print_endline (Wolfram.compile_to_ast ~options src)
     | `Wir -> print_string (Wolfram.compile_to_ir ~options ~optimize:false src)
     | `Twir -> print_string (Wolfram.compile_to_ir ~options ~optimize:true src)
     | `Bytecode ->
       print_string (Wolf_backends.Wvm.dump (Wolf_backends.Wvm.compile (Parser.parse src)))
     | `C ->
       (match Wolfram.export_string ~options ~format:`C src with
        | Ok s -> print_string s
        | Error e -> prerr_endline e; exit 1)
     | `OCaml ->
       (match Wolfram.export_string ~options ~format:`OCaml src with
        | Ok s -> print_string s
        | Error e -> prerr_endline e; exit 1));
    0
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Print an intermediate representation (CompileToAST/CompileToIR/FunctionCompileExportString).")
    Term.(const run $ stage_arg $ expr_arg $ file_arg $ no_abort $ no_inline
          $ opt_level $ self $ dump_after_arg)

let parse_call_args s =
  if s = "" then []
  else
    String.split_on_char ',' s
    |> List.map (fun a ->
        let a = String.trim a in
        match int_of_string_opt a with
        | Some i -> Expr.Int i
        | None ->
          (match float_of_string_opt a with
           | Some r -> Expr.Real r
           | None ->
             if String.length a >= 2 && a.[0] = '{' then Parser.parse a
             else Expr.Str a))

let target_arg =
  let targets =
    [ ("jit", Wolfram.Jit); ("threaded", Wolfram.Threaded);
      ("bytecode", Wolfram.Bytecode); ("tier", Wolfram.Tier) ]
  in
  Arg.(value & opt (enum targets) Wolfram.Jit & info [ "target" ] ~docv:"T"
         ~doc:"Backend: jit (default), threaded, bytecode, tier.")

(* --timings/--stats/--json reports for the run command *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let cache_json (s : Wolf_compiler.Compile_cache.stats) =
  Printf.sprintf
    "{\"hits\":%d,\"misses\":%d,\"inflight_waits\":%d,\"evictions\":%d,\
     \"entries\":%d,\"bytes\":%d}"
    s.hits s.misses s.waits s.evictions s.entries s.bytes

let print_cache_stats () =
  let s = Wolfram.compile_cache_stats () in
  Printf.printf
    "compile cache: %d hits, %d misses, %d in-flight waits, %d evictions, \
     %d entries (~%d bytes)\n"
    s.Wolf_compiler.Compile_cache.hits s.misses s.waits s.evictions s.entries
    s.bytes

(* ---- the persistent disk cache and tiered execution ------------------- *)

let disk_cache_json (s : Wolf_compiler.Disk_cache.stats) =
  Printf.sprintf
    "{\"lookups\":%d,\"hits\":%d,\"misses\":%d,\"writes\":%d,\
     \"evictions\":%d,\"errors\":%d,\"entries\":%d,\"bytes\":%d}"
    s.Wolf_compiler.Disk_cache.lookups s.hits s.misses s.writes s.evictions
    s.errors s.entries s.bytes

let disk_cache_arg =
  Arg.(value & opt ~vopt:(Some "") (some string) None
       & info [ "disk-cache" ] ~docv:"DIR"
         ~doc:"Attach the persistent on-disk compile cache at $(docv); a \
               bare $(b,--disk-cache) uses \\$WOLFC_CACHE_DIR, else \
               \\$XDG_CACHE_HOME/wolfc, else ~/.cache/wolfc.")

let resolve_disk_cache = function
  | None -> None
  | Some "" -> Some (Wolf_compiler.Disk_cache.default_dir ())
  | Some dir -> Some dir

let attach_disk_cache dir_opt =
  match resolve_disk_cache dir_opt with
  | None -> ()
  | Some dir ->
    Wolfram.set_disk_cache (Some (Wolf_compiler.Disk_cache.open_dir dir));
    (* measured parallel-loop schedules ride along as a sidecar file *)
    Wolf_runtime.Par_runtime.set_persist_path
      (Filename.concat dir "parloop-schedules.bin")

(* ---- data-parallel loops (--parallel-loops[=jobs]) -------------------- *)

let parallel_loops_arg =
  Arg.(value & opt ~vopt:(Some 0) (some int) None
       & info [ "parallel-loops" ] ~docv:"JOBS"
         ~doc:"Recognise data-parallel counted loops (maps over packed \
               arrays, associative reductions) and run them chunked on the \
               domain pool, with the chunking chosen by measurement.  \
               $(docv) sets the worker count; bare flag or 0 uses one per \
               core.")

let parallel_report_arg =
  Arg.(value & flag & info [ "parallel-report" ]
         ~doc:"After the run, print the per-loop parallelisation decisions \
               (parallelized/rejected with the reason, outlined function, \
               schedule-cache fingerprint).")

let apply_parallel_loops popt (options : Wolf_compiler.Options.t) =
  match popt with
  | None -> options
  | Some j ->
    Wolf_runtime.Par_runtime.set_jobs
      (if j <= 0 then Wolf_parallel.Pool.default_jobs () else j);
    { options with Wolf_compiler.Options.parallel_loops = true }

let print_parallel_report (pipeline : Wolf_compiler.Pipeline.compiled option) =
  Printf.printf "\n== parallel loops ==\n";
  match pipeline with
  | None -> print_endline "(no pipeline instrumentation for this target)"
  | Some c ->
    let entries =
      List.filter
        (fun (k, _) -> String.starts_with ~prefix:"parloop." k)
        c.Wolf_compiler.Pipeline.program.Wolf_compiler.Wir.pmeta
    in
    if entries = [] then print_endline "(no loops considered)"
    else
      List.iter
        (fun (k, v) ->
           Printf.printf "%s: %s\n" (String.sub k 8 (String.length k - 8)) v)
        entries

let tier_flag =
  Arg.(value & flag & info [ "tier" ]
         ~doc:"Tiered execution: start in the interpreter and promote to a \
               background -O2 compile once the function is hot (shorthand \
               for $(b,--target tier)).")

let tier_threshold_arg =
  Arg.(value & opt int 12 & info [ "tier-threshold" ] ~docv:"H"
         ~doc:"Heat (invocations + loop backedges/64) at which a tiered \
               function queues its background promotion.")

(* observability flags shared by run/compile/fuzz (DESIGN.md
   "Observability"): tracing records only when --trace-out asks for a file,
   so the default path keeps its one-atomic-load cost per site *)

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Record spans and write a Chrome trace_event JSON to $(docv) \
               (open in Perfetto or chrome://tracing).")

let metrics_out_arg =
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE"
         ~doc:"Write the metrics registry to $(docv) when the command \
               finishes.")

let metrics_format_arg =
  Arg.(value & opt (enum [ ("json", `Json); ("prometheus", `Prometheus) ]) `Json
       & info [ "metrics-format" ] ~docv:"F"
         ~doc:"Metrics output format: json (default) or prometheus.")

let with_obs ~trace_out ~metrics_out ~metrics_format f =
  if trace_out <> None then Wolf_obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
        (match trace_out with
         | Some path ->
           Wolf_obs.Trace.write_file path;
           Wolf_obs.Trace.disable ()
         | None -> ());
        match metrics_out with
        | Some path -> Wolf_obs.Metrics.write_file ~format:metrics_format path
        | None -> ())
    f

let print_program_stats (c : Wolf_compiler.Pipeline.compiled) =
  let open Wolf_compiler in
  Printf.printf "program: %d functions, %d instructions, %d blocks, %d in-place updates\n"
    (List.length c.Pipeline.program.Wir.funcs)
    (Pass_manager.instr_count c.Pipeline.program)
    (Pass_manager.block_count c.Pipeline.program)
    (Pipeline.inplace_updates c);
  List.iter
    (fun (p : Mutability_pass.promotion) ->
       Printf.printf "  in place: %s %s, %d store(s)\n" p.pfunc
         (match p.pheader with
          | Some l -> Printf.sprintf "loop at b%d" l
          | None -> "straight-line")
         p.pstores)
    c.Pipeline.promotions;
  let r = c.Pipeline.ranges in
  Printf.printf
    "  range facts: %d overflow check(s) and %d Part check(s) proved in range, %d loop nest(s) versioned\n"
    r.Opt_range.overflow r.Opt_range.bounds r.Opt_range.versioned

let run_cmd =
  let run expr file args target tier tier_threshold disk_cache parallel_loops
      parallel_report no_abort
      no_inline opt_level self dump_after timings stats json
      repeat profile profile_out trace_out metrics_out metrics_format =
    Wolfram.init ();
    let target = if tier then Wolfram.Tier else target in
    Atomic.set Wolfram.Tier.default_threshold tier_threshold;
    attach_disk_cache disk_cache;
    let src = read_program expr file in
    let profiling = profile || profile_out <> None in
    let options =
      apply_parallel_loops parallel_loops
        { (options_of ~no_abort ~no_inline ~opt_level ~self ~dump_after)
          with Wolf_compiler.Options.profile = profiling }
    in
    if profiling then Wolf_obs.Profile.set_enabled true;
    with_obs ~trace_out ~metrics_out ~metrics_format @@ fun () ->
    let fexpr = Wolf_obs.Trace.with_span ~cat:"stage" "parse" (fun () -> Parser.parse src) in
    let t0 = Unix.gettimeofday () in
    let cf = Wolfram.function_compile ~options ~target fexpr in
    let compile_seconds = Unix.gettimeofday () -. t0 in
    let call_args = parse_call_args args in
    let result = Form.input_form (Wolfram.call cf call_args) in
    (* --repeat N applies the function N times total.  The compiled value
       is resolved exactly once above — cache lookups grow by 1, not N —
       so the loop measures steady-state dispatch, and under --tier it is
       what feeds the heat counters that trigger promotion. *)
    for _ = 2 to max 1 repeat do
      ignore (Wolfram.call cf call_args)
    done;
    let tier_mismatch = ref false in
    (* a tiered run promotes before reporting — the state in the report is
       deterministic, and the promoted closure is exercised at least once
       and checked against the tier-0 answer *)
    (match Wolfram.tier_of cf with
     | Some tc ->
       ignore (Wolfram.Tier.force_promote tc);
       if Wolfram.Tier.state tc = Wolfram.Tier.Promoted then begin
         let promoted = Form.input_form (Wolfram.call cf call_args) in
         if promoted <> result then begin
           tier_mismatch := true;
           Printf.eprintf
             "tier: promoted result %s differs from tier-0 result %s\n"
             promoted result
         end
       end
     | None -> ());
    let pipeline = Wolfram.pipeline_of cf in
    if json then begin
      let open Wolf_compiler in
      let fields =
        [ Printf.sprintf "\"result\":\"%s\"" (json_escape result);
          Printf.sprintf "\"compile_seconds\":%.6f" compile_seconds ]
        @ (match pipeline with
           | Some c ->
             [ "\"passes\":" ^ Pass_manager.stats_to_json c.Pipeline.stats;
               Printf.sprintf "\"instructions\":%d"
                 (Pass_manager.instr_count c.Pipeline.program);
               Printf.sprintf "\"blocks\":%d"
                 (Pass_manager.block_count c.Pipeline.program);
               Printf.sprintf "\"inplace_updates\":%d" (Pipeline.inplace_updates c) ]
           | None -> [])
        @ [ "\"cache\":" ^ cache_json (Wolfram.compile_cache_stats ()) ]
        @ (match Wolfram.tier_of cf with
           | Some tc ->
             [ Printf.sprintf
                 "\"tier\":{\"state\":\"%s\",\"calls\":%d,\"backedges\":%d,\
                  \"threshold\":%d,\"promoted_at\":%s}"
                 (Wolfram.Tier.state_name (Wolfram.Tier.state tc))
                 (Wolfram.Tier.calls tc) (Wolfram.Tier.backedges tc)
                 (Wolfram.Tier.threshold tc)
                 (match Wolfram.Tier.promoted_at tc with
                  | Some n -> string_of_int n
                  | None -> "null") ]
           | None -> [])
        @ (match Wolfram.disk_cache_stats () with
           | Some s -> [ "\"disk_cache\":" ^ disk_cache_json s ]
           | None -> [])
        @ (if profiling then [ "\"profile\":" ^ Wolf_obs.Profile.to_json () ]
           else [])
      in
      print_endline ("{" ^ String.concat "," fields ^ "}")
    end
    else begin
      print_endline result;
      if profile then begin
        Printf.printf "\n== runtime profile ==\n";
        print_string (Wolf_obs.Profile.report ())
      end;
      (match Wolfram.tier_of cf with
       | Some tc when stats || timings ->
         Printf.printf
           "tier: %s after %d call(s), ~%d backedge(s) (threshold %d%s)\n"
           (Wolfram.Tier.state_name (Wolfram.Tier.state tc))
           (Wolfram.Tier.calls tc) (Wolfram.Tier.backedges tc)
           (Wolfram.Tier.threshold tc)
           (match Wolfram.Tier.promoted_at tc with
            | Some n -> Printf.sprintf "; promoted at call %d" n
            | None -> "")
       | _ -> ());
      (match Wolfram.disk_cache_stats () with
       | Some s when stats ->
         Printf.printf
           "disk cache: %d lookups, %d hits, %d misses, %d writes, \
            %d entries (%d bytes)\n"
           s.Wolf_compiler.Disk_cache.lookups s.hits s.misses s.writes
           s.entries s.bytes
       | _ -> ());
      (match pipeline with
       | Some c ->
         if timings then begin
           Printf.printf "\n== per-pass timings and IR deltas ==\n";
           print_string (Wolf_compiler.Pass_manager.stats_to_string c.Wolf_compiler.Pipeline.stats)
         end;
         if stats then begin
           Printf.printf "\n== compilation stats ==\n";
           Printf.printf "compile time: %.2fms%s\n" (compile_seconds *. 1e3)
             (if repeat > 1 then Printf.sprintf " (first of %d; the rest hit the cache)" repeat
              else "");
           print_program_stats c;
           print_cache_stats ()
         end
       | None ->
         if timings || stats then begin
           if stats then print_cache_stats ();
           prerr_endline "(no pipeline instrumentation for the bytecode target)"
         end)
    end;
    if parallel_report then print_parallel_report pipeline;
    (match profile_out with
     | Some path ->
       let oc = open_out path in
       output_string oc (Wolf_obs.Profile.to_json ());
       output_char oc '\n';
       close_out oc
     | None -> ());
    Wolfram.Tier.shutdown ();
    if !tier_mismatch then 1 else 0
  in
  let args_arg =
    Arg.(value & opt string "" & info [ "args" ] ~docv:"A,B,…"
           ~doc:"Comma-separated arguments (ints, reals, strings, {lists}).")
  in
  let timings_arg =
    Arg.(value & flag & info [ "timings" ]
           ~doc:"Print per-pass wall-clock timings and IR-size deltas.")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print program statistics and compile-cache hit/miss counters.")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the result and all reports as one JSON object.")
  in
  let repeat_arg =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Apply the compiled function $(docv) times (the compile \
                 itself is resolved once; with $(b,--tier) the calls feed \
                 the heat counters).")
  in
  let profile_arg =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Compile with per-function instrumentation and print the \
                 hot-function table (calls, self/total time) plus abort-poll, \
                 kernel-escape and copy-on-write counters after the run.")
  in
  let profile_out_arg =
    Arg.(value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE"
           ~doc:"Like $(b,--profile), but write the profile as JSON to \
                 $(docv).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"FunctionCompile a program and apply it.")
    Term.(const run $ expr_arg $ file_arg $ args_arg $ target_arg $ tier_flag
          $ tier_threshold_arg $ disk_cache_arg $ parallel_loops_arg
          $ parallel_report_arg $ no_abort
          $ no_inline $ opt_level $ self $ dump_after_arg
          $ timings_arg $ stats_arg $ json_arg $ repeat_arg $ profile_arg
          $ profile_out_arg $ trace_out_arg $ metrics_out_arg
          $ metrics_format_arg)

let eval_cmd =
  let run expr file =
    Wolfram.init ();
    let src = read_program expr file in
    print_endline (Form.input_form (Wolfram.interpret src));
    0
  in
  Cmd.v (Cmd.info "eval" ~doc:"Evaluate with the interpreter (no compilation).")
    Term.(const run $ expr_arg $ file_arg)

let build_cmd =
  let run expr file output cc cflags keep_c no_abort no_inline opt_level self
      dump_after =
    Wolfram.init ();
    let src = read_program expr file in
    let options = options_of ~no_abort ~no_inline ~opt_level ~self ~dump_after in
    let output =
      match output, file with
      | Some o, _ -> o
      | None, Some f -> Filename.remove_extension (Filename.basename f)
      | None, None -> "a.out"
    in
    let compiled = Wolf_compiler.Pipeline.compile ~options ~name:output (Parser.parse src) in
    (match Wolf_backends.C_emit.emit_standalone compiled with
       | Error e -> Printf.eprintf "wolfc build: %s\n" e; 1
       | Ok emitted ->
         let cflags =
           match cflags with
           | None -> []
           | Some s ->
             String.split_on_char ' ' s |> List.filter (fun f -> f <> "")
         in
         if not (Wolf_backends.C_build.available ?cc ()) then begin
           Printf.eprintf
             "wolfc build: no working C compiler (tried %s; set $WOLF_CC or --cc)\n"
             (match cc with Some c -> c | None -> Wolf_backends.C_build.default_cc ());
           1
         end
         else
           match
             Wolf_backends.C_build.build ?cc ~cflags ?keep_c
               ~source:emitted.Wolf_backends.C_emit.source ~output ()
           with
           | Ok () -> Printf.printf "%s\n" output; 0
           | Error e -> Printf.eprintf "wolfc build: %s\n" e; 1)
  in
  let output_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
           ~doc:"Executable to produce (default: FILE without extension, or \
                 a.out).")
  in
  let cc_arg =
    Arg.(value & opt (some string) None & info [ "cc" ] ~docv:"CC"
           ~doc:"C compiler to invoke (default: \\$WOLF_CC or cc).")
  in
  let cflags_arg =
    Arg.(value & opt (some string) None & info [ "cflags" ] ~docv:"FLAGS"
           ~doc:"Extra space-separated flags appended to the cc invocation.")
  in
  let keep_c_arg =
    Arg.(value & opt (some string) None & info [ "keep-c" ] ~docv:"PATH"
           ~doc:"Also write the generated C translation unit to $(docv).")
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:"Compile a program to a standalone native executable through the \
             C backend: the emitted translation unit bundles a refcounted \
             copy-on-write tensor runtime and an argv driver (one typed \
             argument per parameter, result printed in InputForm, SIGINT \
             aborts with exit code 5), then the system C compiler links it \
             self-contained.")
    Term.(const run $ expr_arg $ file_arg $ output_arg $ cc_arg $ cflags_arg
          $ keep_c_arg $ no_abort $ no_inline $ opt_level $ self
          $ dump_after_arg)

let jobs_arg =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Shard the work over $(docv) domains (0 = one per core). \
               Output is identical at every $(docv).")

let resolve_jobs j = if j <= 0 then Wolf_parallel.Pool.default_jobs () else j

let fuzz_cmd =
  let run seed count max_size backends serve_socket no_strings corpus quiet
      show jobs trace_out metrics_out metrics_format =
    let open Wolf_fuzz in
    Wolfram.init ();
    with_obs ~trace_out ~metrics_out ~metrics_format @@ fun () ->
    let arms =
      match Oracle.arms_of_string backends with
      | Ok [] -> prerr_endline "fuzz: no backends selected"; exit 2
      | Ok arms -> arms
      | Error e -> prerr_endline e; exit 2
    in
    Oracle.serve_socket := serve_socket;
    let cfg =
      { Driver.default_config with
        Driver.seed; count; max_size; strings = not no_strings; arms;
        corpus_dir = corpus;
        log = (if quiet then ignore else prerr_endline);
        jobs = resolve_jobs jobs }
    in
    let print_case (case : Ast.case) header =
      Printf.printf "%s\n%s\n" header (Ast.to_source case.fn)
    in
    if show then begin
      for i = 0 to count - 1 do
        let case = Driver.case_for cfg i in
        print_case case
          (Printf.sprintf "(* program %d, size %d, args: {%s} *)" i (Ast.size case.fn)
             (String.concat ", " (List.map Ast.arg_source case.args)));
        print_newline ()
      done;
      0
    end
    else
    let jit_loops form =
      Wolf_obs.Metrics.counter_value (Wolf_backends.Ocaml_emit.loop_forms_counter form)
    in
    let whiles_before = jit_loops "while" and guards_before = jit_loops "guard" in
    let declined_before = jit_loops "declined" in
    let rejected_before = Wolf_backends.Jit.rejected () in
    let mismatches () = Wolf_obs.Metrics.counter_value Wolf_runtime.Prims.view_mismatches in
    let mismatches_before = mismatches () in
    let report = Driver.run cfg in
    let jit_selected = List.exists (fun a -> a.Oracle.name = "jit") arms in
    let jit_whiles = jit_loops "while" - whiles_before in
    let jit_guards = jit_loops "guard" - guards_before in
    let jit_declined = jit_loops "declined" - declined_before in
    let jit_rejected = Wolf_backends.Jit.rejected () - rejected_before in
    let jit_mismatches = mismatches () - mismatches_before in
    if jit_selected then
      Printf.printf
        "fuzz: jit arm emitted %d while loop(s), %d of them guard loop(s), declined %d \
         module(s); ocamlopt rejected %d module(s); %d view mismatch(es)\n"
        jit_whiles jit_guards jit_declined jit_rejected jit_mismatches;
    Printf.printf "fuzz: %d programs, %d disagreement(s)\n" report.generated
      report.disagreements;
    Printf.printf
      "fuzz: promoted %d store(s) in place in %d program(s), %d of them in loops; \
       %d promoted web(s) reach a pure call\n"
      report.promoted_stores report.promoted_programs report.promoted_loop_stores
      report.promoted_pure_call_webs;
    Printf.printf
      "fuzz: range analysis proved %d overflow check(s) and %d Part check(s) in range, \
       versioned %d loop nest(s)\n"
      report.range_overflow report.range_bounds report.range_versioned;
    let par_selected = List.exists (fun a -> a.Oracle.name = "par") arms in
    if par_selected then
      Printf.printf "fuzz: par arm parallelised %d loop(s) in %d program(s)\n"
        report.par_loops report.par_programs;
    List.iter (fun f -> print_endline (Driver.describe f)) report.failures;
    if report.disagreements <> 0 then 1
    else if par_selected && count >= 300 && report.par_loops = 0 then begin
      (* a sizeable par campaign that never parallelised anything means the
         pass is rejecting every loop — that is a failure of the arm, not a
         clean run *)
      prerr_endline "fuzz: par arm parallelised zero loops in a >=300-program campaign";
      1
    end
    else if count >= 200 && report.promoted_loop_stores = 0 then begin
      (* the same guard for the mutability pass: no loop-carried array
         proven unique in a sizeable campaign means the proof rejects every
         loop *)
      prerr_endline
        "fuzz: the mutability pass promoted no loop store in a >=200-program campaign";
      1
    end
    else if count >= 200 && report.promoted_pure_call_webs = 0 then begin
      (* and for its pure-call rule: no promoted web reaching a pure call
         means the rule admits nothing the generator makes *)
      prerr_endline
        "fuzz: no promoted web reached a pure call in a >=200-program campaign";
      1
    end
    else if count >= 200 && report.range_bounds = 0 then begin
      (* the same guard for the range analysis: no Part check proved in a
         sizeable campaign means it proves nothing *)
      prerr_endline "fuzz: the range analysis proved no Part check in a >=200-program campaign";
      1
    end
    else if jit_selected && jit_rejected > 0 then begin
      (* a module ocamlopt rejects falls back to the threaded backend
         without a word, so the arm would have compared threaded code *)
      prerr_endline
        "fuzz: ocamlopt rejected generated code (each module and its .ml.log are in \
         $TMPDIR/wolfram-compiler-jit)";
      1
    end
    else if jit_selected && jit_declined > 0 then begin
      (* a module the emitter declines (an irreducible CFG) runs on the
         threaded backend, so the arm would have compared threaded code *)
      prerr_endline "fuzz: the jit emitter declined a module with an irreducible loop";
      1
    end
    else if jit_selected && jit_mismatches > 0 then begin
      (* a view bound to a tensor of another element type or rank falls back
         to the interpreter: the values agree, but some producer returned a
         representation its TWIR type does not declare *)
      prerr_endline
        "fuzz: jit code bound an array view to a tensor of another element type or \
         rank (jit_view_mismatches_total)";
      1
    end
    else if jit_selected && count >= 100 && jit_whiles = 0 then begin
      (* the same guard for the JIT emitter: a campaign in which no loop
         became a while loop means the emitter rejects every loop *)
      prerr_endline "fuzz: jit arm emitted zero while loops in a >=100-program campaign";
      1
    end
    else if jit_selected && count >= 100 && jit_guards = 0 then begin
      (* and for the guard-exit form: none in a sizeable campaign means
         every loop fell back to the exit-state form *)
      prerr_endline "fuzz: jit arm emitted zero guard loops in a >=100-program campaign";
      1
    end
    else 0
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N"
           ~doc:"Campaign seed; program $(i,i) depends on (seed, i) only.")
  in
  let count_arg =
    Arg.(value & opt int 200 & info [ "count" ] ~docv:"N"
           ~doc:"Number of programs to generate and check.")
  in
  let max_size_arg =
    Arg.(value & opt int 60 & info [ "max-size" ] ~docv:"N"
           ~doc:"Node budget per generated program.")
  in
  let backends_arg =
    Arg.(value & opt string "threaded,wvm" & info [ "backends" ] ~docv:"B,B"
           ~doc:("Comma-separated arms to check differentially: "
                 ^ String.concat ", " (List.map (fun a -> a.Wolf_fuzz.Oracle.name)
                                         Wolf_fuzz.Oracle.arms)
                 ^ ".  The c and binary arms skip without a C toolchain; \
                    serve replays through an embedded wolfd unless \
                    $(b,--serve-socket) names one."))
  in
  let no_strings_arg =
    Arg.(value & flag & info [ "no-strings" ]
           ~doc:"Disable string operations in generated programs.")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR"
           ~doc:"Write shrunk failing programs to $(docv) as replayable .wl files.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress output.")
  in
  let show_arg =
    Arg.(value & flag & info [ "show" ]
           ~doc:"Print the generated programs and their arguments instead of \
                 fuzzing.")
  in
  let serve_socket_arg =
    Arg.(value & opt (some string) None & info [ "serve-socket" ] ~docv:"PATH"
           ~doc:"With the serve backend: replay through the wolfd daemon at \
                 $(docv) instead of bootstrapping an embedded one.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differentially fuzz the compiler: random typed programs are run \
             on every selected backend at O0/O1/O2 with the IR verifier on, \
             results compared against the interpreter, and failures shrunk \
             to minimal reproducers.")
    Term.(const run $ seed_arg $ count_arg $ max_size_arg $ backends_arg
          $ serve_socket_arg $ no_strings_arg $ corpus_arg $ quiet_arg
          $ show_arg $ jobs_arg $ trace_out_arg $ metrics_out_arg $ metrics_format_arg)

let compile_cmd =
  let run files target no_abort no_inline opt_level jobs stats trace_out
      metrics_out metrics_format =
    if files = [] then begin prerr_endline "compile: no input files"; exit 2 end;
    Wolfram.init ();
    with_obs ~trace_out ~metrics_out ~metrics_format @@ fun () ->
    let jobs = resolve_jobs jobs in
    let options =
      options_of ~no_abort ~no_inline ~opt_level ~self:None ~dump_after:[]
    in
    let t0 = Unix.gettimeofday () in
    (* Each file compiles on its own domain; identical sources collapse to
       one compilation through the cache's in-flight dedup, and results
       report in input order whatever the schedule. *)
    let results =
      Wolf_parallel.Pool.map_list ~jobs files (fun file ->
          match
            let src = read_program None (Some file) in
            (* the file's base name names the compiled function *)
            let name = Filename.remove_extension (Filename.basename file) in
            Wolfram.function_compile ~options ~target ~name (Parser.parse src)
          with
          | cf -> Ok cf
          | exception exn -> Error (Printexc.to_string exn))
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    let failed = ref 0 in
    List.iter2
      (fun file res ->
         match res with
         | Ok cf ->
           let extra =
             match Wolfram.pipeline_of cf with
             | Some c ->
               Printf.sprintf " (%d instrs, %d blocks)"
                 (Wolf_compiler.Pass_manager.instr_count
                    c.Wolf_compiler.Pipeline.program)
                 (Wolf_compiler.Pass_manager.block_count
                    c.Wolf_compiler.Pipeline.program)
             | None -> ""
           in
           Printf.printf "%s: ok%s\n" file extra
         | Error e -> incr failed; Printf.printf "%s: FAILED %s\n" file e)
      files results;
    Printf.printf "compiled %d file(s) in %.2fms with %d job(s)\n"
      (List.length files) (elapsed *. 1e3) jobs;
    if stats then print_cache_stats ();
    if !failed = 0 then 0 else 1
  in
  let files_arg =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print compile-cache hit/miss counters afterwards.")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"FunctionCompile several programs, optionally in parallel \
             ($(b,--jobs)); duplicate sources deduplicate through the \
             compile cache's in-flight tracking.")
    Term.(const run $ files_arg $ target_arg $ no_abort $ no_inline
          $ opt_level $ jobs_arg $ stats_arg $ trace_out_arg $ metrics_out_arg
          $ metrics_format_arg)

(* live daemon view: fetch the stats op over the wire and render a
   one-screen panel — `wolfc stats --socket` (one-shot or --watch) and
   `wolfc top` (watch by default) share this loop *)

let fetch_daemon_stats socket =
  match Wolf_serve.Client.connect socket with
  | exception e -> Error (Printexc.to_string e)
  | c ->
    Fun.protect ~finally:(fun () -> Wolf_serve.Client.close c) @@ fun () ->
    (match Wolf_serve.Client.stats c with
     | { Wolf_serve.Protocol.rsp = Ok (Wolf_serve.Protocol.Json frame); _ } ->
       (match Wolf_obs.Json_min.parse frame with
        | Ok j ->
          (match Wolf_obs.Json_min.member "data" j with
           | Some d -> Ok d
           | None -> Error "stats reply carries no data")
        | Error e -> Error ("stats reply is not JSON: " ^ e))
     | { rsp = Ok _; _ } -> Error "unexpected stats payload"
     | { rsp = Error (k, m); _ } ->
       Error (Wolf_serve.Protocol.error_kind_name k ^ ": " ^ m)
     | exception e -> Error (Printexc.to_string e))

let jnum j name =
  Option.value ~default:0.0
    (Option.bind (Wolf_obs.Json_min.member name j) Wolf_obs.Json_min.num)

let jint j name = int_of_float (jnum j name)

let jget j name =
  Option.value ~default:Wolf_obs.Json_min.Null (Wolf_obs.Json_min.member name j)

let render_daemon_stats ~prev j =
  let b = Buffer.create 1024 in
  let uptime = jnum j "uptime_seconds" in
  let evals = jint j "evals" and compiles = jint j "compiles" in
  (* per-op rates come from the delta against the previous poll; the first
     render (or a one-shot) averages over the daemon's whole uptime *)
  let pe, pc, pt = Option.value ~default:(0, 0, 0.0) prev in
  let dt = uptime -. pt in
  let rate now before = if dt <= 0.0 then 0.0 else float_of_int (now - before) /. dt in
  Printf.bprintf b "wolfd  uptime %.1fs  sessions %d\n" uptime (jint j "sessions");
  Printf.bprintf b
    "ops     evals %d (%.1f/s)   compiles %d (%.1f/s)   errors %d\n"
    evals (rate evals pe) compiles (rate compiles pc) (jint j "errors");
  Printf.bprintf b "refused overloaded %d   cancelled %d   deadline %d\n"
    (jint j "overloaded") (jint j "cancelled") (jint j "deadline");
  let q = jget j "queue" in
  Printf.bprintf b "queue   depth %d/%d   running %d/%d workers\n"
    (jint q "depth") (jint q "capacity") (jint q "running") (jint q "jobs");
  let lat = jget j "latency" in
  Printf.bprintf b "latency (ms)         p50        p99\n";
  List.iter
    (fun phase ->
       let e = jget lat phase in
       Printf.bprintf b "  %-12s %9.3f  %9.3f\n" phase
         (jnum e "p50_ms") (jnum e "p99_ms"))
    [ "total"; "decode"; "queue_wait"; "lock_wait"; "eval"; "compile"; "encode" ];
  let f = jget j "flight" in
  Printf.bprintf b "flight  records %d  dumps %d  suppressed %d\n"
    (jint f "records") (jint f "dumps") (jint f "suppressed");
  (Buffer.contents b, (evals, compiles, uptime))

let daemon_stats_loop ~socket ~watch ~interval ~iterations =
  let prev = ref None in
  let rec go i =
    match fetch_daemon_stats socket with
    | Error e -> Printf.eprintf "stats: %s\n" e; 1
    | Ok j ->
      let out, cur = render_daemon_stats ~prev:!prev j in
      if watch then print_string "\027[H\027[2J";
      print_string out;
      flush Stdlib.stdout;
      prev := Some cur;
      if (not watch) || (iterations > 0 && i >= iterations) then 0
      else begin
        Thread.delay interval;
        go (i + 1)
      end
  in
  go 1

let watch_flag =
  Arg.(value & flag & info [ "watch" ]
         ~doc:"Keep polling and redraw the panel every $(b,--interval) \
               seconds.")

let interval_arg =
  Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS"
         ~doc:"Polling interval for watch mode.")

let iterations_arg =
  Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N"
         ~doc:"Stop watch mode after $(docv) polls (0 = until interrupted); \
               useful for scripted runs.")

let stats_cmd =
  let run expr file target opt_level format out socket watch interval
      iterations =
    match socket with
    | Some socket -> daemon_stats_loop ~socket ~watch ~interval ~iterations
    | None ->
    Wolfram.init ();
    (* compiling the given program (if any) populates the registry; with no
       program this prints the instruments in their initial state, which is
       still useful to see the metric names *)
    (match expr, file with
     | None, None -> ()
     | _ ->
       let src = read_program expr file in
       let options = { Wolf_compiler.Options.default with opt_level } in
       ignore (Wolfram.function_compile ~options ~target (Parser.parse src)));
    (match out with
     | Some path -> Wolf_obs.Metrics.write_file ~format path
     | None ->
       print_string
         (match format with
          | `Json -> Wolf_obs.Metrics.to_json () ^ "\n"
          | `Prometheus -> Wolf_obs.Metrics.to_prometheus ()));
    0
  in
  let socket_opt_arg =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Poll a running wolfd daemon's stats op instead of \
                 exporting the local registry; combine with $(b,--watch) \
                 for a live panel.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Compile a program (optional) and export the metrics registry — \
             pass timings, cache occupancy, runtime event counters — as JSON \
             or Prometheus text.  With $(b,--socket), poll a running wolfd \
             instead and render its live stats (sessions, rates, queue, \
             per-phase latency, flight recorder).")
    Term.(const run $ expr_arg $ file_arg $ target_arg $ opt_level
          $ metrics_format_arg $ metrics_out_arg $ socket_opt_arg
          $ watch_flag $ interval_arg $ iterations_arg)

(* obs-check: validate observability outputs (used by `make obs-smoke`).
   Trace files get structural checks on top of JSON well-formedness: every
   event carries the trace_event fields, begin/end depths balance per
   track, and the track count can be bounded from below (--min-tracks). *)

let check_trace ~min_tracks ~require_outcomes json =
  let events = Option.value ~default:Wolf_obs.Json_min.Null
      (Wolf_obs.Json_min.member "traceEvents" json) in
  let events = Wolf_obs.Json_min.to_list events in
  (* per-track open-span stacks: depth balance as before, plus enough
     structure to match each request span's outcome annotation (the
     outcome may sit on the B or — the usual case — the E event) *)
  let stacks : (int, (string * string * string option) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let outcomes : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let requests = ref 0 in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iteri
    (fun i ev ->
       let open Wolf_obs.Json_min in
       let field name = member name ev in
       let sfield name = Option.bind (field name) str in
       let nfield name = Option.bind (field name) num in
       let outcome_arg () =
         Option.bind (field "args") (fun a -> Option.bind (member "outcome" a) str)
       in
       (match sfield "name", sfield "ph", nfield "ts", nfield "pid", nfield "tid" with
        | Some name, Some ph, Some _, Some _, Some tid ->
          let tid = int_of_float tid in
          let stack =
            match Hashtbl.find_opt stacks tid with
            | Some s -> s
            | None ->
              let s = ref [] in
              Hashtbl.replace stacks tid s;
              s
          in
          (match ph with
           | "B" ->
             let cat = Option.value ~default:"" (sfield "cat") in
             stack := (name, cat, outcome_arg ()) :: !stack
           | "E" ->
             (match !stack with
              | [] -> err "event %d: E with no open span on tid %d" i tid
              | (bname, bcat, boutcome) :: rest ->
                stack := rest;
                if bname <> name then
                  err "event %d: E %S closes B %S on tid %d" i name bname tid;
                if bcat = "serve" && bname = "request" then begin
                  incr requests;
                  match (match boutcome with Some o -> Some o | None -> outcome_arg ()) with
                  | Some o ->
                    Hashtbl.replace outcomes o
                      (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes o))
                  | None ->
                    if require_outcomes then
                      err "event %d: request span without args.outcome" i
                end)
           | "i" -> ()
           | "s" | "f" ->
             (* flow events stitch cross-domain spans; an id is what makes
                the pair a pair, so its absence is structural breakage *)
             if nfield "id" = None then
               err "event %d: flow event (%s) without id" i ph
           | ph -> err "event %d: unexpected phase %S" i ph)
        | _ -> err "event %d: missing name/ph/ts/pid/tid" i))
    events;
  Hashtbl.iter
    (fun tid s ->
       if !s <> [] then err "tid %d: %d unclosed span(s)" tid (List.length !s))
    stacks;
  let tracks = Hashtbl.length stacks in
  if tracks < min_tracks then
    err "expected at least %d track(s), found %d" min_tracks tracks;
  if require_outcomes && !requests = 0 then
    err "--require-outcomes: no request spans in trace";
  let outcome_list =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcomes [])
  in
  (List.length events, tracks, outcome_list, List.rev !errors)

let obs_check_cmd =
  let run min_tracks require_outcomes files =
    if files = [] then begin prerr_endline "obs-check: no input files"; exit 2 end;
    let failed = ref false in
    List.iter
      (fun file ->
         let contents = read_program None (Some file) in
         match Wolf_obs.Json_min.parse contents with
         | Error e ->
           failed := true;
           Printf.printf "%s: INVALID JSON (%s)\n" file e
         | Ok json ->
           let open Wolf_obs.Json_min in
           if member "traceEvents" json <> None then begin
             let events, tracks, outcomes, errors =
               check_trace ~min_tracks ~require_outcomes json
             in
             let outcome_summary =
               match outcomes with
               | [] -> ""
               | os ->
                 ", outcomes "
                 ^ String.concat " "
                     (List.map (fun (o, n) -> Printf.sprintf "%s=%d" o n) os)
             in
             if errors = [] then
               Printf.printf "%s: ok (trace, %d events, %d tracks%s)\n" file
                 events tracks outcome_summary
             else begin
               failed := true;
               Printf.printf "%s: FAILED\n" file;
               List.iter (fun e -> Printf.printf "  %s\n" e) errors
             end
           end
           else
             match member "metrics" json with
             | Some m ->
               (match Wolf_obs.Metrics.check_metrics m with
                | Ok summary -> Printf.printf "%s: ok (%s)\n" file summary
                | Error e ->
                  failed := true;
                  Printf.printf "%s: FAILED (%s)\n" file e)
             | None ->
               (* plain JSON (e.g. a --profile-out file): well-formedness
                  is the contract *)
               Printf.printf "%s: ok (json)\n" file)
      files;
    if !failed then 1 else 0
  in
  let min_tracks_arg =
    Arg.(value & opt int 1 & info [ "min-tracks" ] ~docv:"N"
           ~doc:"Require trace files to contain at least $(docv) distinct \
                 track (tid) values.")
  in
  let require_outcomes_arg =
    Arg.(value & flag & info [ "require-outcomes" ]
           ~doc:"Require every $(i,request) span in a trace to carry an \
                 $(i,args.outcome) annotation (and at least one request \
                 span to exist); outcome counts are printed either way.")
  in
  let files_arg = Arg.(value & pos_all file [] & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "obs-check"
       ~doc:"Validate observability outputs: JSON well-formedness for any \
             file, plus per-track span balance, flow-event ids, minimum \
             track count and request outcomes for Chrome traces, and shape \
             checks for metrics exports and bench records.")
    Term.(const run $ min_tracks_arg $ require_outcomes_arg $ files_arg)

let repl_cmd =
  let run () =
    Wolfram.init ();
    Printf.printf "Wolfram Language compiler reproduction — compiler v%s, engine v%s\n"
      (fst Wolf_backends.Compiled_function.versions)
      (snd Wolf_backends.Compiled_function.versions);
    print_endline "Ctrl-D to quit; expressions are interpreted; \
                   FunctionCompile via the library API.";
    let n = ref 0 in
    (try
       while true do
         incr n;
         Printf.printf "In[%d]:= %!" !n;
         let line = input_line stdin in
         if String.trim line <> "" then begin
           match
             Wolf_base.Abort_signal.with_abort_protection (fun () ->
                 Wolfram.interpret line)
           with
           | Ok v -> Printf.printf "Out[%d]= %s\n\n" !n (Form.input_form v)
           | Error e -> Printf.printf "Error: %s\n\n" (Printexc.to_string e)
         end
       done
     with End_of_file -> print_newline ());
    0
  in
  Cmd.v (Cmd.info "repl" ~doc:"Interactive interpreter session.")
    Term.(const run $ const ())

(* ---- wolfc cache: manage the persistent on-disk compile cache --------- *)

let cache_dir_arg =
  Arg.(value & opt string "" & info [ "dir" ] ~docv:"DIR"
         ~doc:"Cache directory (default: \\$WOLFC_CACHE_DIR, else \
               \\$XDG_CACHE_HOME/wolfc, else ~/.cache/wolfc).")

let open_cache dir =
  let dir = if dir = "" then Wolf_compiler.Disk_cache.default_dir () else dir in
  Wolf_compiler.Disk_cache.open_dir dir

let cache_stat_cmd =
  let run dir json =
    let d = open_cache dir in
    let s = Wolf_compiler.Disk_cache.stats d in
    if json then
      Printf.printf "{\"dir\":\"%s\",\"stats\":%s}\n"
        (json_escape (Wolf_compiler.Disk_cache.dir d)) (disk_cache_json s)
    else
      Printf.printf "cache %s: %d entries, %d bytes\n"
        (Wolf_compiler.Disk_cache.dir d)
        s.Wolf_compiler.Disk_cache.entries s.bytes;
    0
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  Cmd.v
    (Cmd.info "stat" ~doc:"Report entry count and size of the disk cache.")
    Term.(const run $ cache_dir_arg $ json_arg)

let cache_clear_cmd =
  let run dir =
    let d = open_cache dir in
    let n = Wolf_compiler.Disk_cache.clear d in
    Printf.printf "cache %s: removed %d file(s)\n"
      (Wolf_compiler.Disk_cache.dir d) n;
    0
  in
  Cmd.v
    (Cmd.info "clear" ~doc:"Remove every artifact, blob and temp file.")
    Term.(const run $ cache_dir_arg)

let cache_verify_cmd =
  let run dir fix =
    let d = open_cache dir in
    let intact, problems = Wolf_compiler.Disk_cache.verify ~fix d in
    Printf.printf "cache %s: %d intact entr%s, %d problem(s)%s\n"
      (Wolf_compiler.Disk_cache.dir d) intact
      (if intact = 1 then "y" else "ies") (List.length problems)
      (if fix && problems <> [] then " (removed)" else "");
    List.iter (fun (path, what) -> Printf.printf "  %s: %s\n" path what)
      problems;
    if problems = [] || fix then 0 else 1
  in
  let fix_arg =
    Arg.(value & flag & info [ "fix" ] ~doc:"Delete the offending entries.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Integrity-walk the disk cache: magic, header and payload \
             digest of every entry; non-zero exit if problems remain.")
    Term.(const run $ cache_dir_arg $ fix_arg)

let cache_cmd =
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Manage the persistent on-disk compile cache (see \
             $(b,--disk-cache) on run/wolfd).")
    [ cache_stat_cmd; cache_clear_cmd; cache_verify_cmd ]

(* ---- the service layer: wolfd / connect / bench serve ----------------- *)

let socket_arg =
  Arg.(value & opt string "/tmp/wolfd.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path of the daemon.")

let flight_dir_arg =
  Arg.(value & opt (some string) None & info [ "flight-dir" ] ~docv:"DIR"
         ~doc:"Enable the flight recorder: requests that end cancelled, \
               deadline-exceeded or overloaded (or breach \
               $(b,--flight-threshold-ms)) dump the recent-request rings \
               to $(docv) as compact binary files readable with \
               $(b,wolfc flight).")

let flight_threshold_arg =
  Arg.(value & opt float 0.0 & info [ "flight-threshold-ms" ] ~docv:"MS"
         ~doc:"Also dump when a request's total latency exceeds $(docv) \
               milliseconds (0 = outcome-based triggers only).")

let wolfd_cmd =
  let run socket jobs queue max_frame quiet tier tier_threshold disk_cache
      parallel_loops flight_dir flight_threshold_ms trace_out metrics_out
      metrics_format =
    with_obs ~trace_out ~metrics_out ~metrics_format @@ fun () ->
    (match parallel_loops with
     | Some j when j > 0 -> Wolf_runtime.Par_runtime.set_jobs j
     | _ -> ());
    let cfg =
      { Wolf_serve.Server.socket_path = socket;
        jobs = (if jobs <= 0 then Wolf_parallel.Pool.default_jobs () else jobs);
        queue_capacity = queue;
        max_frame;
        log = (if quiet then ignore else prerr_endline);
        tier;
        tier_threshold;
        disk_cache_dir = resolve_disk_cache disk_cache;
        parallel_loops = parallel_loops <> None;
        flight_dir;
        flight_threshold_ms }
    in
    let srv = Wolf_serve.Server.start cfg in
    (* runs until a client sends the shutdown op (or the process is killed;
       the stale socket file is replaced on the next start) *)
    Wolf_serve.Server.wait srv;
    Wolf_serve.Server.stop srv;
    0
  in
  let jobs_arg =
    Arg.(value & opt int 2 & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains executing compiles and evals (0 = one per \
                 core).")
  in
  let queue_arg =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N"
           ~doc:"Admission-queue bound; requests beyond it are answered \
                 $(i,overloaded) immediately.")
  in
  let max_frame_arg =
    Arg.(value & opt int Wolf_serve.Protocol.default_max_frame
         & info [ "max-frame" ] ~docv:"BYTES" ~doc:"Per-frame size limit.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the connection log.")
  in
  Cmd.v
    (Cmd.info "wolfd"
       ~doc:"Run the compile-and-eval daemon: sessions are isolated (each \
             connection owns its kernel values), the compile cache is \
             shared, admission is a bounded queue, and requests support \
             deadlines and cancellation.")
    Term.(const run $ socket_arg $ jobs_arg $ queue_arg $ max_frame_arg
          $ quiet_arg $ tier_flag $ tier_threshold_arg $ disk_cache_arg
          $ parallel_loops_arg $ flight_dir_arg $ flight_threshold_arg
          $ trace_out_arg $ metrics_out_arg $ metrics_format_arg)

let connect_cmd =
  let run socket expr file deadline_ms shutdown =
    let c = Wolf_serve.Client.connect socket in
    Fun.protect ~finally:(fun () -> Wolf_serve.Client.close c) @@ fun () ->
    let eval_one src =
      match Wolf_serve.Client.eval_string ?deadline_ms c src with
      | Ok printed -> print_endline printed; true
      | Error (kind, msg) -> Printf.printf "Error (%s): %s\n" kind msg; false
    in
    let do_shutdown () =
      (* the daemon acks before it stops accepting, so this is a clean rpc *)
      match Wolf_serve.Client.shutdown c with
      | { Wolf_serve.Protocol.rsp = Ok _; _ } -> true
      | { rsp = Error (kind, msg); _ } ->
        Printf.eprintf "shutdown failed (%s): %s\n"
          (Wolf_serve.Protocol.error_kind_name kind) msg;
        false
    in
    match expr, file with
    | None, None when shutdown -> if do_shutdown () then 0 else 1
    | None, None ->
      (* line-oriented remote REPL *)
      let n = ref 0 in
      (try
         while true do
           incr n;
           Printf.printf "In[%d]:= %!" !n;
           let line = input_line stdin in
           if String.trim line <> "" then ignore (eval_one line)
         done
       with End_of_file | Wolf_serve.Protocol.Closed -> print_newline ());
      0
    | _ ->
      let ok = eval_one (read_program expr file) in
      let ok = (not shutdown || do_shutdown ()) && ok in
      if ok then 0 else 1
  in
  let deadline_arg =
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-request deadline forwarded to the daemon.")
  in
  let shutdown_arg =
    Arg.(value & flag & info [ "shutdown" ]
           ~doc:"Send the shutdown op (after the evaluation, if one was \
                 given) so scripts can stop a daemon without kill(1).")
  in
  Cmd.v
    (Cmd.info "connect"
       ~doc:"Evaluate through a running wolfd daemon: one-shot with $(b,-e) \
             or FILE, interactive otherwise; $(b,--shutdown) stops the \
             daemon.")
    Term.(const run $ socket_arg $ expr_arg $ file_arg $ deadline_arg
          $ shutdown_arg)

let flight_cmd =
  let run files =
    if files = [] then begin prerr_endline "flight: no input files"; exit 2 end;
    let failed = ref false in
    List.iter
      (fun file ->
         match Wolf_obs.Flight.read_file file with
         | Error e ->
           failed := true;
           Printf.printf "%s: FAILED (%s)\n" file e
         | Ok d -> Printf.printf "%s:\n%s" file (Wolf_obs.Flight.describe d))
      files;
    if !failed then 1 else 0
  in
  let files_arg = Arg.(value & pos_all file [] & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "flight"
       ~doc:"Pretty-print wolfd flight-recorder dumps ($(i,*.wfr) files \
             written under $(b,--flight-dir)): dump reason, the triggering \
             request, and each recent request's per-phase timeline with the \
             domain that ran it.")
    Term.(const run $ files_arg)

let top_cmd =
  let run socket interval iterations =
    daemon_stats_loop ~socket ~watch:true ~interval ~iterations
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live view of a running wolfd daemon: sessions, request rates, \
             queue depth, per-phase latency percentiles and flight-recorder \
             activity, redrawn every $(b,--interval) seconds (equivalent to \
             $(b,wolfc stats --socket … --watch)).")
    Term.(const run $ socket_arg $ interval_arg $ iterations_arg)

(* bench serve: the protocol load generator (EXPERIMENTS.md E13).  N client
   threads share one daemon; each request's latency is measured around the
   full rpc round-trip, so queueing shows up in the percentiles exactly as a
   client would feel it. *)

let bench_serve_cmd =
  let run socket clients requests jobs queue json_out flight_dir
      flight_threshold_ms trace_out metrics_out metrics_format =
    if clients <= 0 || requests <= 0 then begin
      prerr_endline "bench serve: --clients and --requests must be positive";
      exit 2
    end;
    with_obs ~trace_out ~metrics_out ~metrics_format @@ fun () ->
    (* embedded daemon unless pointed at an external socket *)
    let embedded, path =
      match socket with
      | Some p -> None, p
      | None ->
        let p =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "wolfd-bench-%d.sock" (Unix.getpid ()))
        in
        let srv =
          Wolf_serve.Server.start
            { (Wolf_serve.Server.default_config ~socket_path:p ()) with
              jobs = (if jobs <= 0 then 2 else jobs);
              queue_capacity = queue;
              flight_dir;
              flight_threshold_ms }
        in
        Some srv, p
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Wolf_serve.Server.stop embedded)
    @@ fun () ->
    (* the workload mixes interpreter evals with a rotating trio of compile
       requests, so the shared cache (and its in-flight dedup) is on the
       benched path, not just the kernel *)
    let eval_src i =
      Printf.sprintf "Total[Table[i * %d, {i, 1, 40}]]" ((i mod 7) + 1)
    in
    let compile_src i =
      Printf.sprintf
        "Function[{Typed[x, \"MachineInteger\"]}, x * x + %d]" (i mod 3)
    in
    let base = requests / clients and extra = requests mod clients in
    let lat = Array.make requests 0.0 in
    let errors = Atomic.make 0 in
    let next = Atomic.make 0 in
    let worker k () =
      let mine = base + (if k < extra then 1 else 0) in
      let c = Wolf_serve.Client.connect path in
      Fun.protect ~finally:(fun () -> Wolf_serve.Client.close c) @@ fun () ->
      for _ = 1 to mine do
        let i = Atomic.fetch_and_add next 1 in
        let req =
          if i mod 10 = 9 then
            Wolf_serve.Protocol.Compile
              { code = compile_src i; target = "threaded"; opt = 1 }
          else Wolf_serve.Protocol.Eval { code = eval_src i; deadline_ms = None }
        in
        let t0 = Wolf_obs.Clock.now () in
        (match Wolf_serve.Client.rpc c req with
         | { Wolf_serve.Protocol.rsp = Ok _; _ } -> ()
         | { rsp = Error (kind, msg); _ } ->
           Atomic.incr errors;
           Printf.eprintf "request %d failed (%s): %s\n"
             i (Wolf_serve.Protocol.error_kind_name kind) msg
         | exception e ->
           Atomic.incr errors;
           Printf.eprintf "request %d: %s\n" i (Printexc.to_string e));
        lat.(i) <- Wolf_obs.Clock.now () -. t0
      done
    in
    let t0 = Wolf_obs.Clock.now () in
    (* the load-generation span lives on the main domain, so a daemon trace
       always shows the client track next to the worker tracks *)
    Wolf_obs.Trace.with_span ~cat:"bench" "bench-serve"
      ~args:[ ("clients", Wolf_obs.Trace.arg_int clients);
              ("requests", Wolf_obs.Trace.arg_int requests) ]
      (fun () ->
         let threads =
           List.init clients (fun k -> Thread.create (worker k) ())
         in
         List.iter Thread.join threads);
    let duration = Wolf_obs.Clock.now () -. t0 in
    (* server-side phase attribution, while the daemon is still up: the gap
       between client-felt p99 and eval_p99 is framing + queueing, and
       queue_wait_p99 names the queueing share directly *)
    let queue_wait_p99, eval_p99 =
      match fetch_daemon_stats path with
      | Error _ -> 0.0, 0.0
      | Ok data ->
        let lat = jget data "latency" in
        (jnum (jget lat "queue_wait") "p99_ms", jnum (jget lat "eval") "p99_ms")
    in
    Array.sort compare lat;
    let pctl p =
      lat.(int_of_float (float_of_int (requests - 1) *. p /. 100.0)) *. 1e3
    in
    let req_per_s = float_of_int requests /. duration in
    let cache = Wolfram.compile_cache_stats () in
    let count name v = (name, float_of_int v, "count") in
    Wolf_obs.Metrics.write_record json_out ~record:"serve"
      ~command:
        (Printf.sprintf "wolfc bench serve --clients %d --requests %d" clients
           requests)
      ~info:
        [ ("clients", string_of_int clients); ("requests", string_of_int requests);
          ("daemon", if embedded = None then "external" else "embedded") ]
      [ count "errors" (Atomic.get errors); ("duration_s", duration, "s");
        ("req_per_s", req_per_s, "1/s"); ("p50_ms", pctl 50.0, "ms");
        ("p99_ms", pctl 99.0, "ms"); ("max_ms", lat.(requests - 1) *. 1e3, "ms");
        ("queue_wait_p99_ms", queue_wait_p99, "ms"); ("eval_p99_ms", eval_p99, "ms");
        count "cache.hits" cache.hits; count "cache.misses" cache.misses;
        count "cache.inflight_waits" cache.waits;
        count "cache.evictions" cache.evictions;
        count "cache.entries" cache.entries;
        ("cache.bytes", float_of_int cache.bytes, "B") ];
    Printf.printf
      "bench serve: %d clients, %d requests, %d error(s)\n\
       %.1f req/s; latency p50 %.2fms, p99 %.2fms; wrote %s\n"
      clients requests (Atomic.get errors) req_per_s (pctl 50.0) (pctl 99.0)
      json_out;
    if Atomic.get errors = 0 then 0 else 1
  in
  let socket_opt_arg =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Bench an already-running daemon at $(docv) instead of an \
                 embedded one.")
  in
  let clients_arg =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N"
           ~doc:"Concurrent client connections.")
  in
  let requests_arg =
    Arg.(value & opt int 200 & info [ "requests" ] ~docv:"N"
           ~doc:"Total requests, split across clients.")
  in
  let queue_arg =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N"
           ~doc:"Admission-queue bound of the embedded daemon.")
  in
  let json_arg =
    Arg.(value & opt string "BENCH_serve.json" & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the latency/throughput bench record to $(docv).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Load-test the wolfd daemon: concurrent clients, a mixed \
             eval/compile workload, p50/p99 latency and req/s published as \
             JSON.")
    Term.(const run $ socket_opt_arg $ clients_arg $ requests_arg $ jobs_arg
          $ queue_arg $ json_arg $ flight_dir_arg $ flight_threshold_arg
          $ trace_out_arg $ metrics_out_arg $ metrics_format_arg)

(* ---- wolfc twir-digest: the final-TWIR identity check --------------- *)

let twir_digest_cmd =
  let corpus =
    Arg.(value & pos 0 string "perfbench/corpus.txt" & info [] ~docv:"CORPUS"
           ~doc:"Corpus file: programs separated by \"%% <args>\" lines.")
  in
  let text_out =
    Arg.(value & opt (some string) None & info [ "text-out" ] ~docv:"FILE"
           ~doc:"Also write the digested text (diff two of these to see what moved).")
  in
  let run corpus text_out =
    let programs = Wolf_fuzz.Twir_digest.read_corpus corpus in
    let text = Wolf_fuzz.Twir_digest.corpus_text programs in
    Option.iter
      (fun f -> Out_channel.with_open_bin f (fun oc -> output_string oc text))
      text_out;
    print_endline (Digest.to_hex (Digest.string text));
    0
  in
  Cmd.v
    (Cmd.info "twir-digest"
       ~doc:"Digest the final TWIR and parloop decisions of every corpus program \
             at -O1 and at -O2 with parallel loops. test/twir_digest.txt holds \
             the digest of perfbench/corpus.txt.")
    Term.(const run $ corpus $ text_out)

let bench_cmd =
  Cmd.group (Cmd.info "bench" ~doc:"Benchmarks with published JSON results.")
    [ bench_serve_cmd ]

let () =
  let info =
    Cmd.info "wolfc" ~version:(fst Wolf_backends.Compiled_function.versions)
      ~doc:"Wolfram Language compiler reproduction (CGO 2020)."
  in
  let cmd =
    Cmd.group info
      [ emit_cmd; run_cmd; compile_cmd; build_cmd; eval_cmd; fuzz_cmd;
        stats_cmd; obs_check_cmd; repl_cmd; cache_cmd;
        wolfd_cmd; connect_cmd; flight_cmd; top_cmd;
        bench_cmd; twir_digest_cmd ]
  in
  (* a program the user got wrong is one line and exit 1, not a crash *)
  let fail kind msg = Printf.eprintf "wolfc: %s: %s\n" kind msg; 1 in
  exit
    (match Cmd.eval' ~catch:false cmd with
     | code -> code
     | exception Parser.Parse_error m -> fail "parse error" m
     | exception Wolf_base.Errors.Compile_error m -> fail "compile error" m
     | exception e ->
       Printf.eprintf "wolfc: internal error, uncaught exception:\n%s\n%s" (Printexc.to_string e)
         (Printexc.get_backtrace ());
       Cmd.Exit.internal_error)
