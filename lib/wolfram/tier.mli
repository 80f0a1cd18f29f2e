(** Tiered adaptive execution: interpret first, compile hot functions at
    -O2 on a background domain, hot-swap the closure in.

    The callable lives in an atomic closure slot read once per call —
    in-flight tier-0 activations finish on the code they started with,
    new calls pick up the promoted closure; nothing ever pauses.  Heat =
    invocations + loop backedges (estimated from the interpreter's step
    count, {!Wolf_kernel.Eval.steps}, which grows with every loop
    iteration).  See DESIGN.md "Tiered execution". *)

type t

type state = Cold | Queued | Promoted | Failed

val state_name : state -> string

val default_threshold : int Atomic.t
(** Heat needed to queue a promotion when [create] gets no [?threshold]
    (initially 12). *)

val set_jobs : int -> unit
(** Worker domains for the shared background compile pool; must be set
    before the first promotion is queued (the pool is created lazily). *)

val create :
  ?threshold:int ->
  name:string ->
  source:Wolf_wexpr.Expr.t ->
  promote:(unit -> Wolf_wexpr.Expr.t array -> Wolf_wexpr.Expr.t) ->
  unit ->
  t
(** A tier-0 callable over [source] (a [Function[…]] expression, applied
    via the interpreter).  [promote] runs on a background domain when the
    function gets hot and must return the replacement closure; if it
    raises, the function keeps interpreting ([Failed] — or back to [Cold]
    when the exception was a stray [Abort[]], which is the caller's
    program racing the compile, not a compile bug). *)

val call : t -> Wolf_wexpr.Expr.t array -> Wolf_wexpr.Expr.t
(** Apply through the current tier.  Never blocks on promotion. *)

val state : t -> state
val calls : t -> int
val backedges : t -> int
(** Loop-backedge estimate accumulated during tier-0 calls. *)

val promoted_at : t -> int option
(** Tier-0 call count when the compiled closure was published. *)

val heat : t -> int
val name : t -> string
val source : t -> Wolf_wexpr.Expr.t
val arity : t -> int
val threshold : t -> int

val await_promotion : ?timeout:float -> t -> state
(** Wait (polling) until the pending promotion lands or fails; returns the
    state reached.  Times out after [timeout] seconds (default 30). *)

val force_promote : t -> state
(** Promote synchronously if still cold, else await the in-flight job —
    for tests and for deterministic teardown in `wolfc run --tier`. *)

val executor_stats : unit -> Wolf_parallel.Executor.stats option
(** Stats of the shared background pool, once it exists. *)

val drain : unit -> unit
(** Block until every queued promotion has run (no-op if the pool was
    never created). *)

val shutdown : unit -> unit
(** Join the background worker domains; later promotions recreate the
    pool. *)
