(** CompiledCodeFunction: the wrapper the interpreter actually calls
    (paper §4.5 "Expression Boxing and Unboxing" and §4.5 "Soft Numerical
    Failure").

    To the Wolfram interpreter every function is Expression → Expression;
    this wrapper unpacks the input expressions, checks the argument count
    and types against the compiled signature, calls the compiled entry, and
    packs the result.  On a runtime numerical error (integer overflow,
    division by zero, part range) it prints the paper's warning and
    re-evaluates the original function with the interpreter — which promotes
    to arbitrary precision (cfib[200] returns the exact integer).  Argument
    type mismatches skip the compiled path silently (F1). *)

open Wolf_wexpr
open Wolf_runtime
open Wolf_compiler

type t = {
  cf_name : string;
  arg_tys : Types.t array;
  ret_ty : Types.t;
  cf_source : Expr.t;                (** original Function, for fallback *)
  entry : Rtval.closure;
  compiler_version : string;
  engine_version : string;
  fallbacks : int Atomic.t;          (** soft-failure reverts so far *)
  pipeline : Pipeline.compiled option;
      (** the compile that produced [entry], for tooling; [None] when it
          was revived from the disk cache *)
}

val versions : string * string
(** (compiler version, engine version) baked into every compiled function;
    checked at call time like the paper's CompiledFunction header. *)

val wrap :
  ?pipeline:Pipeline.compiled -> name:string -> source:Expr.t ->
  arg_tys:Types.t array -> ret_ty:Types.t -> Rtval.closure -> t

val call : t -> Expr.t array -> Expr.t
(** Evaluate on expressions, with unbox/typecheck/soft-fallback semantics.
    Requires an installed kernel ({!Wolf_runtime.Hooks}). *)

val call_values : t -> Rtval.t array -> Rtval.t
(** Raw compiled entry (no fallback): raises on runtime failures. *)

val kernel_closure : t -> Rtval.closure
(** Closure suitable for {!Wolf_kernel.Values.set_compiled_value}: performs
    the full wrapper semantics, so the interpreter transparently runs
    compiled definitions. *)

val quiet : bool ref
(** Suppress the soft-failure warning line (benchmarks). *)
