(* Chunked parallel-for: the runtime half of {!Wolf_compiler.Opt_parloop}.

   The compiler outlines a recognised map/reduce loop into a closure
   [f(carry, lo, hi)] that runs iterations [lo..hi] (inclusive) serially, and
   replaces the loop with a call to [parallel_for_map] / [parallel_reduce].
   This module decides how to cut [lo..hi] into chunks, runs the chunks on
   the shared domain pool, and merges the results:

   - map: the carry is a packed tensor.  One private copy of the initial
     tensor is taken up front (exactly what serial copy-on-write would do at
     the first write when the input is aliased), every chunk writes its
     disjoint index range into that copy in place, and the copy is the
     result.
   - reduce: the carry is a scalar.  Each chunk folds its range onto the
     operator's identity; the per-chunk partials are merged in chunk order
     and folded onto the real initial value, which equals the serial fold
     up to reassociation (the compiler only parallelises ops where that is
     observationally safe: float [Plus]/[Times] within the oracle tolerance,
     [Min]/[Max] exactly).

   Deadlock-freedom by construction: the caller never blocks on the pool.
   Helper workers are *offered* to the executor ([submit] is non-blocking;
   [`Saturated] just means fewer helpers), while the calling domain claims
   chunks from the same atomic cursor until the range is drained.  A
   parallel-for inside a tier-promoted function therefore completes even if
   the shared executor is busy compiling — worst case it runs serially on
   the caller.

   Abort semantics: chunk bodies are compiled code and poll the global abort
   flag themselves; the caller additionally polls between chunk claims (so a
   domain-local injected abort fires at chunk granularity).  [Aborted] from
   any chunk wins over any other failure; otherwise the lowest failing chunk
   wins, which is exactly the serial first-failure because chunks are
   contiguous ascending ranges and every lower chunk completed cleanly.

   Schedule search: per loop (identified by a compiler fingerprint) and
   per shape class (log2 of the trip count) the first execution measures
   3–4 candidate schedules — serial, one chunk per worker ("static"), and
   4×/16× oversubscribed chunking ("dynamic", claimed from the atomic
   cursor) — and caches the winner, optionally persisting it next to the
   disk compile cache.  Cache hits never re-measure. *)

open Wolf_wexpr
open Rtval

type schedule = Serial | Static of int | Dynamic of int

let schedule_to_string = function
  | Serial -> "serial"
  | Static k -> Printf.sprintf "static/%d" k
  | Dynamic k -> Printf.sprintf "dynamic/%d" k

(* ------------------------------------------------------------------ *)
(* Configuration: global defaults with domain-local overrides, so the
   fuzz oracle can compare jobs=1 and jobs=4 on one domain while a
   campaign runs other programs on sibling domains. *)

let jobs_default = Atomic.make 1

let dls_jobs : int option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let dls_force : schedule option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let set_jobs j = Atomic.set jobs_default (max 1 j)
let current_jobs () =
  match !(Domain.DLS.get dls_jobs) with
  | Some j -> j
  | None -> Atomic.get jobs_default

let with_jobs j f =
  let cell = Domain.DLS.get dls_jobs in
  let saved = !cell in
  cell := Some (max 1 j);
  Fun.protect ~finally:(fun () -> cell := saved) f

let with_forced_schedule s f =
  let cell = Domain.DLS.get dls_force in
  let saved = !cell in
  cell := Some s;
  Fun.protect ~finally:(fun () -> cell := saved) f

(* ------------------------------------------------------------------ *)
(* Helper executor.  Either injected (to share domains with the tier
   compiler or wolfd) or grown on demand to [jobs - 1] workers. *)

let exec : Wolf_parallel.Executor.t option ref = ref None
let exec_injected = ref false
let exec_lock = Mutex.create ()

let set_executor e =
  Mutex.lock exec_lock;
  exec := Some e;
  exec_injected := true;
  Mutex.unlock exec_lock

let ensure_executor n =
  Mutex.lock exec_lock;
  let e =
    match !exec with
    | Some e when !exec_injected -> e
    | Some e when (Wolf_parallel.Executor.stats e).Wolf_parallel.Executor.jobs >= n
      -> e
    | prev ->
      (match prev with
       | Some old -> Wolf_parallel.Executor.shutdown old
       | None -> ());
      let e = Wolf_parallel.Executor.create ~capacity:256 ~jobs:n () in
      Wolf_parallel.Executor.register_metrics ~name:"parloop" e;
      exec := Some e;
      e
  in
  Mutex.unlock exec_lock;
  e

(* ------------------------------------------------------------------ *)
(* Metrics *)

(* created at module init: a shared Lazy.t raises when domains force it at
   once *)
let m_chunks =
  Wolf_obs.Metrics.counter
    ~help:"chunks executed by the parallel-loop runtime" "parloop_chunks_total"

let m_measurements =
  Wolf_obs.Metrics.counter
    ~help:"schedule candidates measured (cache misses only)"
    "parloop_measurements_total"

let measurements () = Wolf_obs.Metrics.counter_value m_measurements

(* ------------------------------------------------------------------ *)
(* Chunked execution *)

let ranges lo hi k =
  let n = hi - lo + 1 in
  if n <= 0 then [||]
  else begin
    let k = max 1 (min k n) in
    Array.init k (fun i -> (lo + n * i / k, lo + (n * (i + 1) / k) - 1))
  end

let chunk_count = function
  | Serial -> 1
  | Static k | Dynamic k -> max 1 k

let run_chunks ~jobs (chunks : (int * int) array) (body : int -> int -> int -> unit) =
  let n = Array.length chunks in
  Wolf_obs.Metrics.add m_chunks n;
  if n = 0 then ()
  else if jobs <= 1 || n = 1 then begin
    (* in ascending order on the caller: a failure in chunk i is already
       the serial first failure *)
    Array.iteri (fun i (a, b) -> body i a b) chunks
  end
  else begin
    let cursor = Atomic.make 0 in
    let finished = Atomic.make 0 in
    let errs = Array.make n None in
    let worker ~caller () =
      let continue = ref true in
      while !continue do
        if caller then Wolf_base.Abort_signal.check ();
        let i = Atomic.fetch_and_add cursor 1 in
        if i >= n then continue := false
        else begin
          let a, b = chunks.(i) in
          (try body i a b with e -> errs.(i) <- Some e);
          ignore (Atomic.fetch_and_add finished 1)
        end
      done
    in
    let e = ensure_executor (jobs - 1) in
    for _ = 2 to jobs do
      (* best effort: [`Saturated]/[`Stopped] just means fewer helpers *)
      ignore (Wolf_parallel.Executor.submit e (fun () -> worker ~caller:false ()))
    done;
    worker ~caller:true ();
    (* the caller drained the cursor; wait for helpers mid-chunk so the
       output tensor is quiescent before anyone reads it *)
    while Atomic.get finished < n do Domain.cpu_relax () done;
    let aborted = ref false in
    let first = ref None in
    for i = n - 1 downto 0 do
      match errs.(i) with
      | Some Wolf_base.Abort_signal.Aborted -> aborted := true
      | Some e -> first := Some e
      | None -> ()
    done;
    if !aborted then raise Wolf_base.Abort_signal.Aborted;
    match !first with Some e -> raise e | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Schedule cache: (loop fingerprint, shape class) -> winner.  Optionally
   persisted as a sidecar of the disk compile cache. *)

let cache : (string * int, schedule) Hashtbl.t = Hashtbl.create 32
let cache_lock = Mutex.create ()
let persist_path : string option ref = ref None

let persist_magic = "wolf-parloop-schedules-v1"

let shape_class n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 (max n 1)

let save_cache_locked () =
  match !persist_path with
  | None -> ()
  | Some p ->
    let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) cache [] in
    let tmp = p ^ ".tmp" in
    (try
       let oc = open_out_bin tmp in
       output_string oc persist_magic;
       Marshal.to_channel oc (entries : ((string * int) * schedule) list) [];
       close_out oc;
       Sys.rename tmp p
     with _ -> (try Sys.remove tmp with _ -> ()))

let load_cache_locked p =
  try
    let ic = open_in_bin p in
    let magic = really_input_string ic (String.length persist_magic) in
    if magic <> persist_magic then begin
      close_in ic;
      raise Exit
    end;
    let entries : ((string * int) * schedule) list = Marshal.from_channel ic in
    close_in ic;
    List.iter (fun (k, v) -> Hashtbl.replace cache k v) entries
  with _ -> (try Sys.remove p with _ -> ())

let set_persist_path p =
  Mutex.lock cache_lock;
  persist_path := Some p;
  if Sys.file_exists p then load_cache_locked p;
  Mutex.unlock cache_lock

let clear_schedules () =
  Mutex.lock cache_lock;
  Hashtbl.reset cache;
  Mutex.unlock cache_lock

let schedules_size () =
  Mutex.lock cache_lock;
  let n = Hashtbl.length cache in
  Mutex.unlock cache_lock;
  n

let cached_schedule ~fp ~n =
  Mutex.lock cache_lock;
  let r = Hashtbl.find_opt cache (fp, shape_class n) in
  Mutex.unlock cache_lock;
  r

let remember_schedule ~fp ~n s =
  Mutex.lock cache_lock;
  Hashtbl.replace cache (fp, shape_class n) s;
  save_cache_locked ();
  Mutex.unlock cache_lock

(* Candidate schedules for [n] iterations on [jobs] workers, serial first
   (its time is the speedup baseline).  Chunk counts clamp to [n]; drop
   candidates that collapse to one chunk or to each other. *)
let candidates ~n ~jobs =
  if jobs <= 1 then [ Serial ]
  else begin
    let seen = Hashtbl.create 8 in
    Serial
    :: List.filter
         (fun s ->
            let k = min n (chunk_count s) in
            if k <= 1 || Hashtbl.mem seen k then false
            else begin
              Hashtbl.add seen k ();
              true
            end)
         [ Static jobs; Dynamic (4 * jobs); Dynamic (16 * jobs) ]
  end

(* last schedule this domain ran a loop under, for bench/report tooling *)
let dls_last : schedule option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let last_schedule () = !(Domain.DLS.get dls_last)

(* Pick a schedule: forced (tests/fuzz) > cached > measured.  [run] executes
   the whole loop under a given schedule and is re-entrant; measurement is
   safe because the compiler only parallelises pure bodies. *)
let choose_schedule_inner ~fp ~n ~jobs ~run =
  match !(Domain.DLS.get dls_force) with
  | Some s -> s
  | None ->
    (match cached_schedule ~fp ~n with
     | Some s -> s
     | None ->
       let cs = candidates ~n ~jobs in
       let timed s =
         let t0 = Wolf_obs.Clock.now_ns () in
         run s;
         (s, Wolf_obs.Clock.now_ns () - t0)
       in
       let measured = List.map timed cs in
       Wolf_obs.Metrics.add m_measurements (List.length measured);
       let best, best_t =
         List.fold_left
           (fun (bs, bt) (s, t) -> if t < bt then (s, t) else (bs, bt))
           (Serial, max_int) measured
       in
       (match measured with
        | (Serial, serial_t) :: _ when best_t > 0 ->
          let g =
            Wolf_obs.Metrics.gauge
              ~help:"serial time / best schedule time, per loop"
              ~labels:
                [ ("loop", String.sub fp 0 (min 8 (String.length fp))) ]
              "parloop_speedup"
          in
          Wolf_obs.Metrics.set_gauge g
            (float_of_int serial_t /. float_of_int best_t)
        | _ -> ());
       remember_schedule ~fp ~n best;
       best)

let choose_schedule ~fp ~n ~jobs ~run =
  let s = choose_schedule_inner ~fp ~n ~jobs ~run in
  Domain.DLS.get dls_last := Some s;
  s

(* ------------------------------------------------------------------ *)
(* The two primitives.  Uniform argument shape (see Opt_parloop):
   [| Fun f; carry; Int lo; Int hi; Int opcode; Str fingerprint |]. *)

let bad args =
  raise
    (Wolf_base.Errors.Runtime_error
       (Wolf_base.Errors.Invalid_runtime_argument
          (Printf.sprintf "parallel_for: bad arguments (%s)"
             (String.concat ", "
                (Array.to_list (Array.map type_name args))))))

let exec_schedule ~jobs ~lo ~hi s (chunk : int -> int -> int -> unit) =
  match s with
  | Serial -> run_chunks ~jobs:1 [| (lo, hi) |] chunk
  | _ -> run_chunks ~jobs (ranges lo hi (chunk_count s)) chunk

let parallel_for_map args =
  match args with
  | [| Fun f; Tensor init; Int lo; Int hi; Int _; Str fp |] ->
    if hi < lo then Tensor init
    else begin
      let jobs = current_jobs () in
      let n = hi - lo + 1 in
      let run s =
        (* one private copy up front = serial COW at the first write *)
        let out = Tensor.copy init in
        exec_schedule ~jobs ~lo ~hi s (fun _ a b ->
            ignore (f.call [| Tensor out; Int a; Int b |]));
        out
      in
      let s =
        choose_schedule ~fp ~n ~jobs ~run:(fun s -> ignore (run s))
      in
      Wolf_obs.Trace.with_span ~cat:"parloop"
        ~args:(("schedule", Wolf_obs.Trace.arg_str (schedule_to_string s))
               :: Wolf_obs.Request_ctx.args_of_current ())
        "parallel_for_map"
        (fun () -> Tensor (run s))
    end
  | _ -> bad args

(* opcode: 1 = Plus (Real64), 2 = Times (Real64), 3 = Min Int, 4 = Min Real,
   5 = Max Int, 6 = Max Real.  Int Plus/Times are never emitted: checked
   overflow makes their result order-observable. *)
let identity = function
  | 1 -> Real 0.0
  | 2 -> Real 1.0
  | 3 -> Int max_int
  | 4 -> Real infinity
  | 5 -> Int min_int
  | 6 -> Real neg_infinity
  | _ -> invalid_arg "Par_runtime: bad reduce opcode"

let merge opcode a b =
  let r v = match v with Int i -> float_of_int i | Real r -> r | _ -> nan in
  match (opcode, a, b) with
  | 1, _, _ -> Real (r a +. r b)
  | 2, _, _ -> Real (r a *. r b)
  | 3, Int x, Int y -> Int (min x y)
  | 4, _, _ -> Real (Float.min (r a) (r b))
  | 5, Int x, Int y -> Int (max x y)
  | 6, _, _ -> Real (Float.max (r a) (r b))
  | _ -> invalid_arg "Par_runtime: bad reduce merge"

let parallel_reduce args =
  match args with
  | [| Fun f; init; Int lo; Int hi; Int opcode; Str fp |] ->
    if hi < lo then init
    else begin
      let jobs = current_jobs () in
      let n = hi - lo + 1 in
      let run s =
        match s with
        | Serial -> f.call [| init; Int lo; Int hi |]
        | _ ->
          let chunks = ranges lo hi (chunk_count s) in
          let partials = Array.make (Array.length chunks) None in
          run_chunks ~jobs chunks (fun i a b ->
              partials.(i) <- Some (f.call [| identity opcode; Int a; Int b |]));
          Array.fold_left
            (fun acc p ->
               match p with Some v -> merge opcode acc v | None -> acc)
            init partials
      in
      let s = choose_schedule ~fp ~n ~jobs ~run:(fun s -> ignore (run s)) in
      Wolf_obs.Trace.with_span ~cat:"parloop"
        ~args:(("schedule", Wolf_obs.Trace.arg_str (schedule_to_string s))
               :: Wolf_obs.Request_ctx.args_of_current ())
        "parallel_reduce"
        (fun () -> run s)
    end
  | _ -> bad args
