type pass = {
  pass_name : string;
  pass_run : Wir.program -> bool;
}

let mk name run = { pass_name = name; pass_run = run }
let of_unit name run = { pass_name = name; pass_run = (fun prog -> run prog; true) }

type delta = {
  d_instrs_before : int;
  d_instrs_after : int;
  d_blocks_before : int;
  d_blocks_after : int;
}

type stat = {
  st_pass : string;
  st_runs : int;
  st_changed : int;
  st_time : float;
  st_verify : float;
  st_delta : delta option;
}

(* mutable accumulator behind the exposed immutable [stat] *)
type acc = {
  a_pass : string;
  mutable a_runs : int;
  mutable a_changed : int;
  mutable a_time : float;
  mutable a_verify : float;
  mutable a_delta : delta option;
}

type t = {
  lint : bool;
  dump_after : string list;
  dump : string -> Wir.program -> unit;
  accs : (string, acc) Hashtbl.t;
  mutable order : string list;          (* reverse first-seen order *)
}

let instr_count (prog : Wir.program) =
  List.fold_left
    (fun n (f : Wir.func) ->
       List.fold_left (fun n (b : Wir.block) -> n + List.length b.Wir.instrs) n f.Wir.blocks)
    0 prog.Wir.funcs

let block_count (prog : Wir.program) =
  List.fold_left (fun n (f : Wir.func) -> n + List.length f.Wir.blocks) 0 prog.Wir.funcs

let default_dump name prog =
  Printf.eprintf "; ---- IR after %s ----\n%s\n%!" name (Wir_print.program_to_string prog)

let create ?(lint = false) ?(dump_after = []) ?(dump = default_dump) () =
  { lint; dump_after; dump; accs = Hashtbl.create 16; order = [] }

(* Registry instruments shared by every pass-manager instance: the central
   place later perf PRs read compile-side costs from.  Created at module
   init, not as a shared [Lazy.t]: domains forcing one lazy at once raise
   [CamlinternalLazy.Undefined] (DESIGN.md "Threading model"). *)
let m_pass_seconds =
  Wolf_obs.Metrics.histogram
    ~help:"wall-clock seconds per pass execution" "compile_pass_seconds"

let m_pass_runs =
  Wolf_obs.Metrics.counter ~help:"pass executions" "compile_pass_runs"

let m_verify_seconds =
  Wolf_obs.Metrics.histogram
    ~help:"wall-clock seconds per post-pass IR verification"
    "compile_verify_seconds"

let acc_of t name =
  match Hashtbl.find_opt t.accs name with
  | Some a -> a
  | None ->
    let a = { a_pass = name; a_runs = 0; a_changed = 0; a_time = 0.0;
              a_verify = 0.0; a_delta = None } in
    Hashtbl.replace t.accs name a;
    t.order <- name :: t.order;
    a

let wants_dump t name = List.mem name t.dump_after || List.mem "all" t.dump_after

(* Post-pass invariant checking: [lint] runs the full {!Wir_verify}
   checker; the time is attributed to the pass that produced the IR so the
   verifier's overhead is visible in the report. *)
let run_check t a name prog =
  if t.lint then begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
          let dt = Unix.gettimeofday () -. t0 in
          a.a_verify <- a.a_verify +. dt;
          Wolf_obs.Metrics.observe m_verify_seconds dt)
      (fun () ->
         Wolf_obs.Trace.with_span ~cat:"verify" ("verify:" ^ name) (fun () ->
             Wir_verify.assert_ok name prog))
  end

let run_pass t pass prog =
  let a = acc_of t pass.pass_name in
  let ib = instr_count prog and bb = block_count prog in
  let t0 = Unix.gettimeofday () in
  let changed =
    Wolf_obs.Trace.with_span ~cat:"pass" pass.pass_name (fun () ->
        pass.pass_run prog)
  in
  let dt = Unix.gettimeofday () -. t0 in
  Wolf_obs.Metrics.observe m_pass_seconds dt;
  Wolf_obs.Metrics.incr m_pass_runs;
  let ia = instr_count prog and ba = block_count prog in
  a.a_runs <- a.a_runs + 1;
  if changed then a.a_changed <- a.a_changed + 1;
  a.a_time <- a.a_time +. dt;
  a.a_delta <-
    Some
      (match a.a_delta with
       | None ->
         { d_instrs_before = ib; d_instrs_after = ia;
           d_blocks_before = bb; d_blocks_after = ba }
       | Some d -> { d with d_instrs_after = ia; d_blocks_after = ba });
  (* a pass reporting no change (corroborated by identical instruction and
     block counts) left the already-verified IR of the previous step in
     place; re-verifying the same structure would only inflate the
     overhead — fixpoint loops end every pass with one unchanged run *)
  if changed || ia <> ib || ba <> bb then run_check t a pass.pass_name prog;
  if wants_dump t pass.pass_name then t.dump pass.pass_name prog;
  changed

let run_list t passes prog = List.iter (fun p -> ignore (run_pass t p prog)) passes

(* Stop as soon as every pass has run once, in a row, on the current IR
   without reporting a change: the IR is then a fixed point of all of them.
   That is one full cycle after the last change, wherever in a round it
   fell, rather than the rest of that round plus one more round. *)
let run_fixpoint ?(budget = 16) t passes prog =
  let n = List.length passes in
  let any = ref false in
  let quiet = ref 0 in
  let rec round rounds_left =
    if rounds_left > 0 then begin
      List.iter
        (fun p ->
           if !quiet < n then
             if run_pass t p prog then begin
               any := true;
               quiet := 0
             end
             else incr quiet)
        passes;
      if !quiet < n then round (rounds_left - 1)
    end
  in
  round budget;
  !any

let record t name f =
  let a = acc_of t name in
  let t0 = Unix.gettimeofday () in
  let r = Wolf_obs.Trace.with_span ~cat:"stage" name f in
  let dt = Unix.gettimeofday () -. t0 in
  Wolf_obs.Metrics.observe m_pass_seconds dt;
  Wolf_obs.Metrics.incr m_pass_runs;
  a.a_runs <- a.a_runs + 1;
  a.a_time <- a.a_time +. dt;
  r

let checkpoint t name prog =
  (* Every verifier run is attributed to exactly one stats row — stage
     boundaries without one (e.g. "lower") get a zero-run row — so the
     per-pass verify column always sums to the verifier total in the
     report footer (asserted by a unit test). *)
  if t.lint then run_check t (acc_of t name) name prog;
  if wants_dump t name then t.dump name prog

let stats t =
  List.rev_map
    (fun name ->
       let a = Hashtbl.find t.accs name in
       { st_pass = a.a_pass; st_runs = a.a_runs; st_changed = a.a_changed;
         st_time = a.a_time; st_verify = a.a_verify; st_delta = a.a_delta })
    t.order

(* The one source of truth for report footers: pass seconds and verify
   seconds are disjoint by construction ([run_pass] times the pass body
   only; [run_check] times the verifier only), so the report total is their
   fold over the rows — verify time is counted exactly once, in the verify
   column, never inside the per-pass ms column. *)
type totals = { tot_pass : float; tot_verify : float }

let totals stats =
  List.fold_left
    (fun acc s ->
       { tot_pass = acc.tot_pass +. s.st_time;
         tot_verify = acc.tot_verify +. s.st_verify })
    { tot_pass = 0.0; tot_verify = 0.0 }
    stats

let stats_to_string stats =
  let b = Buffer.create 512 in
  let verifying = List.exists (fun s -> s.st_verify > 0.0) stats in
  Buffer.add_string b
    (Printf.sprintf "%-24s %5s %8s %10s%s %14s %12s\n" "pass" "runs" "changed" "ms"
       (if verifying then Printf.sprintf " %10s" "verify-ms" else "")
       "instrs" "blocks");
  List.iter
    (fun s ->
       let instrs, blocks =
         match s.st_delta with
         | None -> ("-", "-")
         | Some d ->
           ( Printf.sprintf "%d->%d" d.d_instrs_before d.d_instrs_after,
             Printf.sprintf "%d->%d" d.d_blocks_before d.d_blocks_after )
       in
       Buffer.add_string b
         (Printf.sprintf "%-24s %5d %8d %10.3f%s %14s %12s\n" s.st_pass s.st_runs
            s.st_changed (s.st_time *. 1e3)
            (if verifying then Printf.sprintf " %10.3f" (s.st_verify *. 1e3) else "")
            instrs blocks))
    stats;
  let t = totals stats in
  Buffer.add_string b
    (Printf.sprintf "%-24s %5s %8s %10.3f%s\n" "total" "" ""
       (t.tot_pass *. 1e3)
       (if verifying then Printf.sprintf " %10.3f" (t.tot_verify *. 1e3) else ""));
  if verifying then
    Buffer.add_string b
      (Printf.sprintf
         "verifier total: %.3fms over %.3fms of passes (%.1f%% overhead)\n"
         (t.tot_verify *. 1e3) (t.tot_pass *. 1e3)
         (if t.tot_pass > 0.0 then 100.0 *. t.tot_verify /. t.tot_pass else 0.0));
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let stats_to_json stats =
  let field_list s =
    let base =
      [ Printf.sprintf "\"pass\":\"%s\"" (json_escape s.st_pass);
        Printf.sprintf "\"runs\":%d" s.st_runs;
        Printf.sprintf "\"changed\":%d" s.st_changed;
        Printf.sprintf "\"seconds\":%.6f" s.st_time;
        Printf.sprintf "\"verify_seconds\":%.6f" s.st_verify ]
    in
    match s.st_delta with
    | None -> base
    | Some d ->
      base
      @ [ Printf.sprintf "\"instrs_before\":%d" d.d_instrs_before;
          Printf.sprintf "\"instrs_after\":%d" d.d_instrs_after;
          Printf.sprintf "\"blocks_before\":%d" d.d_blocks_before;
          Printf.sprintf "\"blocks_after\":%d" d.d_blocks_after ]
  in
  "["
  ^ String.concat ","
      (List.map (fun s -> "{" ^ String.concat "," (field_list s) ^ "}") stats)
  ^ "]"
