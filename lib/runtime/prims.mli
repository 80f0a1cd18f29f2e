(** The runtime primitives: one table row per primitive, holding what the
    compiler needs to know about it and its boxed implementation.

    Passes ask a row's facts instead of keeping their own name lists; the
    IR verifier checks every resolved call against the table; backends look
    a row up once, when they compile a call, and call its [impl] after that.
    The boxed implementations serve every primitive a backend does not
    open-code: the WVM for all its operations, the native backends when
    inlining is disabled (the paper's 10× Mandelbrot ablation reproduces
    exactly this dispatch overhead), and as the reference semantics for the
    open-coded fast paths.

    Numerical failures raise [Wolf_base.Errors.Runtime_error], which the
    compiled-function wrapper turns into the soft interpreter fallback. *)

type effect =
  | Pure
  | Random        (** draws on the random stream shared with the interpreter *)
  | Mutates_arg0  (** may update its first operand in place *)
  | Calls
      (** runs code the table does not describe: the closures of
          [parallel_*], the kernel evaluator of the [expr_] arithmetic *)

type failure =
  | Never
  | Overflow_only
      (** raises only on integer overflow.  The soft fallback then reruns
          the call in the interpreter, whose bignum result is what the
          program computes without the primitive, so a dead one may go. *)
  | May_fail  (** division by zero, bounds, dimensions, coercions, ... *)

type t = {
  name : string;                (** base name, e.g. ["checked_binary_plus"] *)
  arity : int;
  effect : effect;
  fails : failure;              (** on well-typed operands *)
  fresh : bool;                 (** the result is a new, unaliased value *)
  specialises : string option;
      (** a pass-made variant ([_unchecked], [_inplace]) names the primitive
          it stands in for; it has that primitive's types *)
  impl : Rtval.t array -> Rtval.t;
      (** dispatches on the runtime shapes of the arguments.
          @raise Wolf_base.Errors.Runtime_error on numerical failure or
          shape mismatch *)
}

val find : string -> t
(** The row of a base name.  @raise Invalid_argument on unknown names. *)

val find_opt : string -> t option

val holds : string -> (t -> bool) -> bool
(** [holds base p]: [base] names a row and [p] holds of it.  The question a
    pass asks of a primitive, e.g. [holds base (fun r -> r.effect = Pure)]. *)
