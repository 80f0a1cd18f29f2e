(** The staged compilation pipeline (paper §4):

    MExpr → macro expansion → binding analysis → WIR (SSA) → type inference
    (TWIR) → function resolution → optimisation → mutability / abort /
    memory-management passes → a typed program ready for any backend.

    Users can inject passes (§4.7) and supply their own macro and type
    environments.  Every stage runs through the instrumented
    {!Pass_manager}: wall-clock time, instruction/block-count deltas,
    post-pass linting and dump-IR-after-pass hooks are recorded uniformly
    (the paper's benchmark suite measures per-pass times, experiment E8). *)

open Wolf_wexpr

type user_pass = {
  pass_name : string;
  pass_run : Wir.program -> unit;
}

type compiled = {
  program : Wir.program;
  coptions : Options.t;
  source : Expr.t;
  stats : Pass_manager.stat list;
      (** aggregated per-pass instrumentation (runs, time, IR deltas) *)
  promotions : Mutability_pass.promotion list;
      (** the webs whose stores {!Mutability_pass} put in place *)
  ranges : Opt_range.tally;
      (** the checks {!Opt_range} proved away and the nests it versioned *)
}

val inplace_updates : compiled -> int
(** The stores of all [promotions]. *)

val dump_hook : (string -> Wir.program -> unit) ref
(** Sink for [Options.dump_after] IR dumps (default: print to stderr). *)

val opt_passes : ranges:Opt_range.tally -> options:Options.t -> Pass_manager.pass list
(** The optimisation-fixpoint members for the given options (level ≥ 2
    widens the inlining budget); [ranges] collects what {!Opt_range}
    proves. *)

val compile :
  ?options:Options.t ->
  ?type_env:Type_env.t ->
  ?macro_env:Macro.env ->
  ?user_passes:user_pass list ->
  name:string ->
  Expr.t ->
  compiled
(** [compile ~name fexpr] compiles a [Function[…]] expression.
    @raise Wolf_base.Errors.Compile_error on any front-end failure. *)

val compile_to_ast :
  ?options:Options.t -> ?macro_env:Macro.env -> Expr.t -> Mexpr.t
(** The artifact's [CompileToAST]: macro expansion only. *)

val compile_to_wir :
  ?options:Options.t -> ?macro_env:Macro.env -> name:string -> Expr.t ->
  Wir.program
(** The artifact's [CompileToIR[…, "OptimizationLevel" -> None]]: untyped
    WIR before inference. *)
