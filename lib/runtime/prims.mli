(** The runtime primitives: one table row per primitive, holding what the
    compiler needs to know about it and its boxed implementation.

    Passes ask a row's facts instead of keeping their own name lists; the
    IR verifier checks every resolved call against the table; backends look
    a row up once, when they compile a call, and call its [impl] or its
    [scalar] function after that.  The boxed implementations serve every
    primitive a backend does not open-code: the WVM for its cold
    operations, the native backends when inlining is disabled (the paper's
    10× Mandelbrot ablation reproduces exactly this dispatch overhead), and
    as the reference semantics for the text emitters' open-coded fast paths.

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

(** The unboxed function of a scalar primitive, by its machine types.  A
    row's [impl] applies the same function to the unboxed operands, so the
    threaded backend and the WVM, which call it directly, compute what the
    boxed primitive does. *)
type scalar =
  | Int1 of (int -> int)
  | Int2 of (int -> int -> int)
  | Real1 of (float -> float)
  | Real2 of (float -> float -> float)
  | Real_to_int of (float -> int)
  | Int_to_real of (int -> float)
  | Num2 of (int -> int -> int) * (float -> float -> float)
      (** two [Integer64] operands give an [Integer64], any other pair of
          numbers a [Real64] *)
  | Cmp2 of (int -> int -> bool) * (float -> float -> bool)
      (** the same choice for a comparison; the row's [impl] also orders
          strings, booleans, expressions and complex numbers *)
  | Int_test of (int -> bool)
  | Bool1 of (bool -> bool)
  | Bool_to_int of (bool -> int)

(** The operations of {!op}. *)
type arith = Add | Sub | Mul | Div | Mod | Quotient | Pow | Neg | Abs | Min | Max

type cmp = Lt | Gt | Le | Ge | Eq | Ne

type bit = And | Or | Xor | Shift_left | Shift_right

(** C math library functions; OCaml's Stdlib names each the same *)
type libm = Sin | Cos | Tan | Exp | Log | Sqrt | Floor | Ceil | Trunc

(** What a row computes, independent of any target: the text emitters
    render a row from its [op], one printer each, and the row's [scalar]
    function is derived from it. *)
type op =
  | Checked of arith
      (** on [Integer64]; raises on overflow and on a zero divisor *)
  | Machine of arith
      (** [Add], [Sub], [Mul], [Min], [Max]: two [Integer64] operands give
          an [Integer64] (the proved variants of the checked rows: a range
          proof put the result in range), any other numbers a [Real64];
          [Div], [Pow], [Neg], [Abs]: on [Real64], [Div] raising on a zero
          divisor *)
  | Complex_arith of arith | Re | Im | Make_complex  (** on [ComplexReal64] *)
  | Power_ri                    (** {!pow_ri} *)
  | Cmp of cmp                  (** of two numbers, booleans or strings *)
  | Bit of bit | Not            (** on [Integer64]; on [Boolean] *)
  | Libm of libm                (** on [Real64] *)
  | To_int of libm              (** a [Real64] function, then truncation *)
  | Round                       (** to the nearest, a tie to the even one *)
  | To_real | Identity | Even | Odd | Boole
  | Part_get of { rank : int; checked : bool }
      (** an element; [checked = false]: a range proof put the index in range *)
  | Part_set of { rank : int; checked : bool; inplace : bool }
      (** a store into a copy unless [inplace] *)
  | Length | Dim                (** the first dimension; the [k]-th *)
  | String_length | String_byte of { checked : bool } | String_join
  | Total | Reverse | Take | Append | Join | Range | Constant_array | To_codes
      (** [Range]: [1 .. n]; [Constant_array]: of rank 1; [To_codes]:
          ToCharacterCode *)

val libm_name : libm -> string

type t = {
  name : string;                (** base name, e.g. ["checked_binary_plus"] *)
  arity : int;
  effect : effect;
  fails : failure;              (** on well-typed operands *)
  fresh : bool;                 (** the result is a new, unaliased value *)
  specialises : string option;
      (** a pass-made variant ([_unchecked], [_inplace]) names the primitive
          it stands in for; it has that primitive's types *)
  op : op option;               (** what the row computes; the text emitters render it *)
  scalar : scalar option;
      (** the machine function of a scalar primitive: the rows of machine
          arithmetic, comparison, rounding and the predicates; the [op]'s,
          except for the identities *)
  impl : Rtval.t array -> Rtval.t;
      (** dispatches on the runtime shapes of the arguments.
          @raise Wolf_base.Errors.Runtime_error on numerical failure or
          shape mismatch *)
}

val rows : t list
(** The whole table, one row per primitive. *)

val find : string -> t
(** The row of a base name.  @raise Invalid_argument on unknown names. *)

val find_opt : string -> t option

val holds : string -> (t -> bool) -> bool
(** [holds base p]: [base] names a row and [p] holds of it.  The question a
    pass asks of a primitive, e.g. [holds base (fun r -> r.effect = Pure)]. *)

val op_of : string -> op option
(** The op of a base name's row; [None] for an unknown name or a row
    without one. *)

val set_flat : Wolf_wexpr.Tensor.t -> int -> Rtval.t -> unit
(** [set_flat t j v] stores the number [v] at flat position [j] of [t], as
    [Part] assignment does (an integer into a real tensor converts).
    @raise Wolf_base.Errors.Runtime_error when [v] is not a number. *)

val view_mismatch : unit -> 'a
(** What JIT code calls when it binds a typed array view to a tensor whose
    element type or rank is not the view's: counts [view_mismatches] and
    raises [Runtime_error (Invalid_runtime_argument _)], so the call falls
    back to the interpreter. *)

val view_mismatches : Wolf_obs.Metrics.counter
(** [jit_view_mismatches_total]: the calls of {!view_mismatch}. *)

val pow_ri : float -> int -> float
(** [x ^ e] for an integer exponent by repeated squaring: the
    [binary_power_ri] primitive. *)
