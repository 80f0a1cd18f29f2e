(* Tiered adaptive execution: tier 0 is the interpreter, tier 1 a -O2
   compiled closure produced on a background domain and hot-swapped in.

   A tiered function starts life as a thunk over [Hooks.eval] — creating
   one costs a hashtable insert, so time-to-first-result is the
   interpreter's.  Every tier-0 call contributes heat: one unit per
   invocation plus a loop-backedge estimate read from the interpreter's
   step delta ([Eval.steps] — the interpreter takes at least one step per
   loop iteration, so the per-domain step counter is a backedge counter).
   Crossing the threshold submits one compile job to a shared
   single-worker executor; the caller never blocks on it.

   Publication protocol: the callable is an [Atomic.t] closure slot.
   Callers read the slot exactly once per call, so an in-flight tier-0
   activation finishes on the code it started with while the next call
   picks up the compiled closure — no pause, no lock on the call path.
   The state word ([Cold | Queued | Promoted | Failed]) is advisory
   bookkeeping: correctness needs only the slot swap, which is a single
   atomic store.  A compile killed by a stray in-flight Abort[] resets to
   [Cold] (heat re-accumulates and promotion retries); any other compile
   failure parks the function at [Failed], interpreting forever. *)

open Wolf_base

type state = Cold | Queued | Promoted | Failed

type t = {
  tr_name : string;
  tr_source : Wolf_wexpr.Expr.t;
  tr_arity : int;
  tr_threshold : int;
  slot : (Wolf_wexpr.Expr.t array -> Wolf_wexpr.Expr.t) Atomic.t;
  st : int Atomic.t;
  calls : int Atomic.t;
  backedges : int Atomic.t;
  promoted_at : int Atomic.t;    (* calls completed when the swap landed *)
  promote : unit -> Wolf_wexpr.Expr.t array -> Wolf_wexpr.Expr.t;
}

let st_cold = 0
let st_queued = 1
let st_promoted = 2
let st_failed = 3

let state_of_int = function
  | 0 -> Cold
  | 1 -> Queued
  | 2 -> Promoted
  | _ -> Failed

let state_name = function
  | Cold -> "cold"
  | Queued -> "queued"
  | Promoted -> "promoted"
  | Failed -> "failed"

(* one loop iteration ~ one interpreter step; weight backedges so a single
   call spinning a long loop promotes about as fast as many short calls *)
let backedge_weight = 64

let default_threshold = Atomic.make 12

(* ------------------------------------------------------------------ *)
(* The shared background compile pool: one worker domain, created on the
   first promotion request (a plain wolfc run with tiering off must not
   spawn domains).  Not Lazy.t — concurrent forcing of a lazy raises. *)

let exec_lock = Mutex.create ()
let exec_ref : Wolf_parallel.Executor.t option ref = ref None
let exec_jobs = Atomic.make 1

let set_jobs n = Atomic.set exec_jobs (max 1 n)

let executor () =
  Mutex.lock exec_lock;
  let e =
    match !exec_ref with
    | Some e -> e
    | None ->
      let e =
        Wolf_parallel.Executor.create ~capacity:256 ~jobs:(Atomic.get exec_jobs) ()
      in
      Wolf_parallel.Executor.register_metrics ~name:"tier" e;
      exec_ref := Some e;
      e
  in
  Mutex.unlock exec_lock;
  e

let executor_stats () =
  Mutex.lock exec_lock;
  let r = Option.map Wolf_parallel.Executor.stats !exec_ref in
  Mutex.unlock exec_lock;
  r

let drain () =
  Mutex.lock exec_lock;
  let e = !exec_ref in
  Mutex.unlock exec_lock;
  Option.iter Wolf_parallel.Executor.quiesce e

let shutdown () =
  Mutex.lock exec_lock;
  let e = !exec_ref in
  exec_ref := None;
  Mutex.unlock exec_lock;
  Option.iter Wolf_parallel.Executor.shutdown e

(* ------------------------------------------------------------------ *)

let m_promotions =
  Wolf_obs.Metrics.counter ~help:"tier-1 promotions landed" "tier_promotions"

let m_failures =
  Wolf_obs.Metrics.counter ~help:"background promotions that failed" "tier_promotion_failures"

let m_seconds =
  Wolf_obs.Metrics.histogram ~help:"background -O2 promotion latency" "tier_promotion_seconds"

let create ?threshold ~name ~source ~promote () =
  let arity =
    match source with
    | Wolf_wexpr.Expr.Normal (_, [| params; _ |]) ->
      (match params with
       | Wolf_wexpr.Expr.Normal (Wolf_wexpr.Expr.Sym l, items)
         when Wolf_wexpr.Symbol.equal l Wolf_wexpr.Expr.Sy.list ->
         Array.length items
       | _ -> 1)
    | _ -> 0
  in
  let tier0 args =
    Wolf_runtime.Hooks.eval (Wolf_wexpr.Expr.Normal (source, args))
  in
  { tr_name = name; tr_source = source; tr_arity = arity;
    tr_threshold =
      max 1 (Option.value ~default:(Atomic.get default_threshold) threshold);
    slot = Atomic.make tier0; st = Atomic.make st_cold;
    calls = Atomic.make 0; backedges = Atomic.make 0;
    promoted_at = Atomic.make (-1); promote }

let promote_now t =
  (* runs on the background worker (or inline from [force_promote]); must
     not leak any exception — a failed promotion only deoptimises *)
  let t0 = Unix.gettimeofday () in
  match
    Wolf_obs.Trace.with_span ~cat:"tier" "tier-promote"
      ~args:(("function", Wolf_obs.Trace.arg_str t.tr_name)
             :: Wolf_obs.Request_ctx.args_of_current ())
      t.promote
  with
  | fn ->
    (* order matters only loosely: the slot swap is the publication; the
       state/stat stores after it are bookkeeping for observers *)
    Atomic.set t.slot fn;
    Atomic.set t.promoted_at (Atomic.get t.calls);
    Atomic.set t.st st_promoted;
    Wolf_obs.Metrics.incr m_promotions;
    Wolf_obs.Metrics.observe m_seconds (Unix.gettimeofday () -. t0)
  | exception Abort_signal.Aborted ->
    (* a program Abort[] raced the compile's kernel escapes: not the
       function's fault — cool down and let heat requeue it *)
    Wolf_obs.Metrics.incr m_failures;
    Atomic.set t.st st_cold
  | exception _ ->
    Wolf_obs.Metrics.incr m_failures;
    Atomic.set t.st st_failed

let enqueue t =
  if Atomic.compare_and_set t.st st_cold st_queued then begin
    match Wolf_parallel.Executor.submit (executor ()) (fun () -> promote_now t) with
    | `Accepted -> ()
    | `Saturated ->
      (* queue full: uncommit and let a later call retry *)
      Atomic.set t.st st_cold
    | `Stopped -> Atomic.set t.st st_failed
  end

let heat t = Atomic.get t.calls + (Atomic.get t.backedges / backedge_weight)

let call t args =
  let fn = Atomic.get t.slot in
  if Atomic.get t.st >= st_promoted then fn args
  else begin
    let steps0 = Wolf_kernel.Eval.steps () in
    let account () =
      let steps = Wolf_kernel.Eval.steps () - steps0 in
      if steps > 0 then ignore (Atomic.fetch_and_add t.backedges steps);
      ignore (Atomic.fetch_and_add t.calls 1);
      if heat t >= t.tr_threshold then enqueue t
    in
    (* heat counts even when the call aborts: the function is still hot *)
    Fun.protect ~finally:account (fun () -> fn args)
  end

let state t = state_of_int (Atomic.get t.st)
let calls t = Atomic.get t.calls
let backedges t = Atomic.get t.backedges
let promoted_at t =
  match Atomic.get t.promoted_at with -1 -> None | n -> Some n
let name t = t.tr_name
let source t = t.tr_source
let arity t = t.tr_arity
let threshold t = t.tr_threshold

let await_promotion ?(timeout = 30.0) t =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    let s = Atomic.get t.st in
    if s = st_promoted || s = st_failed then state_of_int s
    else if Unix.gettimeofday () > deadline then state_of_int s
    else begin
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ()

let force_promote t =
  (* tests and `wolfc run --tier` teardown: make the outcome deterministic *)
  if Atomic.compare_and_set t.st st_cold st_queued then promote_now t;
  (match Atomic.get t.st with
   | s when s = st_queued -> ignore (await_promotion t)
   | _ -> ());
  state t
