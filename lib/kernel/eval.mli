(** The Wolfram Engine evaluator (the paper's host interpreter, Section 2).

    Implements infinite evaluation: expressions are rewritten until a fixed
    point or a limit is reached, so [y = x; x = 1; y] evaluates to [1].
    Builtins are registered by the [Builtins_*] modules; user definitions are
    down values ({!Values}); compiled functions short-circuit rewriting via
    {!Values.compiled_value} (objective F1). *)

open Wolf_wexpr

type evaluator = Expr.t -> Expr.t

type builtin = evaluator -> Expr.t array -> Expr.t option
(** [fn eval args] returns [None] when the builtin leaves the expression
    unevaluated (symbolic residue), [Some e] to rewrite.  [args] have already
    been evaluated according to the head's Hold attributes. *)

val register : string -> ?attrs:Attributes.t list -> builtin -> unit
val is_builtin : Symbol.t -> bool

val eval : Expr.t -> Expr.t
(** @raise Wolf_base.Abort_signal.Aborted on user abort
    @raise Wolf_base.Errors.Eval_error on exceeded recursion/iteration limits *)

val steps : unit -> int
(** Evaluation steps taken so far on the calling domain.  The interpreter
    polls for aborts once per step, so this is also its poll count; tiered
    execution reads its delta as a loop-backedge estimate. *)

val recursion_limit : int ref
val iteration_limit : int ref

exception Return_value of Expr.t
(** Raised by the [Return] builtin; caught at function application. *)

exception Break_loop
exception Continue_loop

val apply_function : evaluator -> Expr.t -> Expr.t array -> Expr.t
(** Beta-reduce a [Function[…]] expression applied to (already evaluated)
    arguments.  Exposed for [Map]/[Fold]/… builtins. *)
