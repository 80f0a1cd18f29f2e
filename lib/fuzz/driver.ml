open Wolf_wexpr

type config = {
  seed : int;
  count : int;
  max_size : int;
  strings : bool;
  arms : Oracle.arm list;
  levels : int list;
  corpus_dir : string option;
  log : string -> unit;
  jobs : int;  (** domains to shard the campaign over; 1 = sequential *)
}

let default_config =
  { seed = 0; count = 200; max_size = 60; strings = true;
    arms = Result.get_ok (Oracle.arms_of_string "threaded,wvm"); levels = [ 0; 1; 2 ];
    corpus_dir = None; log = ignore; jobs = 1 }

(* one disagreeing program: the shrunk case and what it failed with, plus
   the failures of the program as generated.  [shrunk_failures = []] means
   the shrunk case passed when re-checked (a flaky failure); the unshrunk
   failures are then the only evidence, so they are kept. *)
type failure = {
  index : int;
  shrunk : Ast.case;
  shrunk_failures : Oracle.failure list;
  unshrunk_failures : Oracle.failure list;
}

type report = {
  generated : int;
  disagreements : int;
  failures : failure list;
  written : string list;
  par_programs : int;
  par_loops : int;
  promoted_programs : int;
  promoted_stores : int;
  promoted_loop_stores : int;
  promoted_pure_call_webs : int;
  range_overflow : int;
  range_bounds : int;
  range_versioned : int;
}

(* program i depends on (seed, i) only: regenerating one program never
   requires replaying the campaign up to it *)
let case_for cfg i =
  let rng = Rng.split (Rng.create cfg.seed) i in
  Gen.case
    ~config:{ Gen.max_size = cfg.max_size; strings = cfg.strings }
    rng

(* ---- corpus persistence ---------------------------------------------- *)

let write_corpus ~dir ~name ~note (case : Ast.case) =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let path = Filename.concat dir (name ^ ".wl") in
  let oc = open_out path in
  Printf.fprintf oc "(* %s *)\n" note;
  Printf.fprintf oc "(* args: {%s} *)\n"
    (String.concat ", " (List.map Ast.arg_source case.Ast.args));
  output_string oc (Ast.to_source case.Ast.fn);
  output_char oc '\n';
  close_out oc;
  path

type corpus_entry = {
  ce_path : string;
  ce_source : string;
  ce_args : Expr.t list;
  ce_note : string;
}

(* leading [(* … *)] lines are headers: [args:] gives the arguments, the
   first other one is the note *)
let read_corpus_file path =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let note = ref "" and args = ref None in
  let rec headers = function
    | line :: rest when String.starts_with ~prefix:"(*" (String.trim line) ->
      let body = String.trim line in
      let inner = String.trim (String.sub body 2 (String.length body - 4)) in
      if String.starts_with ~prefix:"args:" inner then
        args := Some (String.trim (String.sub inner 5 (String.length inner - 5)))
      else if !note = "" then note := inner;
      headers rest
    | rest -> rest
  in
  let source = String.trim (String.concat "\n" (headers (String.split_on_char '\n' text))) in
  match !args with
  | None -> Error (path ^ ": missing (* args: {...} *) header")
  | Some a ->
    (match Parser.parse_opt a with
     | Error e -> Error (Printf.sprintf "%s: bad args %S: %s" path a e)
     | Ok (Expr.Normal (Expr.Sym l, items)) when Symbol.name l = "List" ->
       Ok { ce_path = path; ce_source = source; ce_args = Array.to_list items;
            ce_note = !note }
     | Ok _ -> Error (path ^ ": args header is not a {…} list"))

let read_corpus_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".wl")
  |> List.sort compare
  |> List.map (fun f ->
      match read_corpus_file (Filename.concat dir f) with
      | Ok e -> e
      | Error m -> failwith m)

let check_source ?(arms = default_config.arms) ?(levels = default_config.levels) source
    args =
  match Parser.parse_opt source with
  | Ok fn -> Oracle.check ~arms ~levels fn (Array.of_list args)
  | Error e -> [ { Oracle.fwhere = "parse"; fexpected = "parseable source"; fgot = e } ]

let check_entry ?arms ?levels e = check_source ?arms ?levels e.ce_source e.ce_args

let check_case cfg (case : Ast.case) =
  check_source ~arms:cfg.arms ~levels:cfg.levels (Ast.to_source case.Ast.fn)
    (List.map (fun a -> Parser.parse (Ast.arg_source a)) case.Ast.args)

(* ---- the campaign ----------------------------------------------------- *)

(* Check one program and, on disagreement, shrink it and re-check the
   shrunk case.  [check] is the oracle ([check_case cfg] in a campaign). *)
let investigate ~check ?(progress = ignore) i case =
  match check case with
  | [] -> None
  | fs ->
    progress
      (Printf.sprintf "program %d DISAGREES (%s); shrinking …" i
         (String.concat ", " (List.map (fun f -> f.Oracle.fwhere) fs)));
    let small = Shrink.shrink ~fails:(fun c -> check c <> []) case in
    Some { index = i; shrunk = small; shrunk_failures = check small;
           unshrunk_failures = fs }

(* The report of one failure.  Each oracle failure names its arm and level
   ([fwhere], e.g. "abort/threaded/O0/k=1"). *)
let describe (f : failure) =
  let lines fs =
    List.concat_map
      (fun (x : Oracle.failure) ->
         [ Printf.sprintf "  %s:" x.fwhere;
           Printf.sprintf "    expected %s" x.fexpected;
           Printf.sprintf "    got      %s" x.fgot ])
      fs
  in
  let program case header = [ header; Ast.to_source case.Ast.fn ] in
  String.concat "\n"
    (match f.shrunk_failures with
     | [] ->
       program f.shrunk
         (Printf.sprintf "\n== program %d: did not reproduce after shrinking ==" f.index)
       @ [ "  failures of the unshrunk program:" ]
       @ lines f.unshrunk_failures
     | fs ->
       program f.shrunk
         (Printf.sprintf "\n== program %d (shrunk to %d nodes) ==" f.index
            (Ast.size f.shrunk.Ast.fn))
       @ lines fs)

(* What one -O1 compile of the program does: the stores the mutability
   pass puts in place, as (in loops, in straight-line code, promoted webs
   that reach a pure call), and what the range analysis proves. *)
let compile_stats (case : Ast.case) =
  match
    Wolf_compiler.Pipeline.compile ~name:"fz" (Parser.parse (Ast.to_source case.Ast.fn))
  with
  | exception _ -> ((0, 0, 0), Wolf_compiler.Opt_range.tally ())
  | c ->
    ( List.fold_left
        (fun (l, b, w) (p : Wolf_compiler.Mutability_pass.promotion) ->
           let w = if p.pcalls > 0 then w + 1 else w in
           if p.pheader = None then (l, b + p.pstores, w) else (l + p.pstores, b, w))
        (0, 0, 0) c.Wolf_compiler.Pipeline.promotions,
      c.Wolf_compiler.Pipeline.ranges )

(* Per-program work unit: generate, check, and (on disagreement) shrink.
   Everything here depends on (seed, i) only, so the array of outcomes is
   the same whatever the domain count; all IO (progress, corpus writes) is
   kept out of the workers and done in the deterministic merge below. *)
let check_one cfg ~progress i =
  let case = case_for cfg i in
  let outcome = investigate ~check:(check_case cfg) ~progress i case in
  progress "";  (* tick *)
  (outcome, compile_stats case)

let run cfg =
  (* Force one-time initialisation on this domain before sharding: kernel
     builtins and the stdlib declarations.  Workers then only touch state
     behind the locks/atomics of the domain-safe core. *)
  Wolfram.init ();
  let teardowns = List.map (fun a -> a.Oracle.setup cfg.log) cfg.arms in
  Fun.protect ~finally:(fun () -> List.iter (fun f -> f ()) teardowns) @@ fun () ->
  Oracle.reset_par_stats ();
  let done_count = Atomic.make 0 in
  let progress msg =
    if msg = "" then begin
      let d = Atomic.fetch_and_add done_count 1 + 1 in
      if d mod 50 = 0 then
        cfg.log (Printf.sprintf "  … %d/%d checked" d cfg.count)
    end
    else cfg.log msg
  in
  let outcomes =
    Wolf_parallel.Pool.map ~jobs:(max 1 cfg.jobs) cfg.count
      (check_one cfg ~progress)
  in
  (* deterministic merge, in program order *)
  let failures = ref [] in
  let written = ref [] in
  let disagreements = ref 0 in
  let promoted_programs = ref 0 and promoted_stores = ref 0 and loop_stores = ref 0 in
  let pure_call_webs = ref 0 in
  let ranges = Wolf_compiler.Opt_range.tally () in
  Array.iter
    (fun (_, ((l, b, w), (r : Wolf_compiler.Opt_range.tally))) ->
       if l + b > 0 then incr promoted_programs;
       pure_call_webs := !pure_call_webs + w;
       promoted_stores := !promoted_stores + l + b;
       loop_stores := !loop_stores + l;
       ranges.overflow <- ranges.overflow + r.overflow;
       ranges.bounds <- ranges.bounds + r.bounds;
       ranges.versioned <- ranges.versioned + r.versioned)
    outcomes;
  Array.iteri
    (fun i (outcome, _) ->
       match outcome with
       | None -> ()
       | Some f ->
         incr disagreements;
         failures := f :: !failures;
         (match cfg.corpus_dir with
          | None -> ()
          | Some dir ->
            let f0 =
              match f.shrunk_failures @ f.unshrunk_failures with
              | x :: _ -> x.Oracle.fwhere
              | [] -> "unknown"
            in
            let path =
              write_corpus ~dir
                ~name:(Printf.sprintf "shrunk-seed%d-%d" cfg.seed i)
                ~note:(Printf.sprintf "fuzz: %s disagrees (seed %d/%d)" f0
                         cfg.seed i)
                f.shrunk
            in
            written := path :: !written;
            cfg.log ("  wrote " ^ path)))
    outcomes;
  let par_programs, par_loops = Oracle.par_stats () in
  { generated = cfg.count; disagreements = !disagreements;
    failures = List.rev !failures; written = List.rev !written;
    par_programs; par_loops; promoted_programs = !promoted_programs;
    promoted_stores = !promoted_stores; promoted_loop_stores = !loop_stores;
    promoted_pure_call_webs = !pure_call_webs;
    range_overflow = ranges.overflow; range_bounds = ranges.bounds;
    range_versioned = ranges.versioned }
