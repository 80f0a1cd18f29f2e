(** The Wolfram compiler IR (paper §4.3).

    SSA from construction (the paper lowers directly to SSA, citing Braun et
    al.); join points use basic-block parameters rather than phi
    instructions, which keeps passes and the linter simple.  A WIR whose
    variables all carry types is the TWIR (§4.5) — same representation, as
    the paper requires so that passes may introduce untyped instructions and
    re-run inference. *)

open Wolf_wexpr

type var = {
  vid : int;
  vname : string;
  mutable vty : Types.t option;  (** None = WIR; Some = TWIR *)
}

type const =
  | Cvoid
  | Cint of int
  | Creal of float
  | Cbool of bool
  | Cstr of string
  | Cexpr of Expr.t  (** embedded expression constants, incl. constant arrays *)

type operand =
  | Ovar of var
  | Oconst of const

type callee =
  | Prim of string      (** unresolved language-level operation, e.g. "Plus" *)
  | Resolved of { base : string; mangled : string }
      (** runtime primitive after function resolution *)
  | Func of string      (** program function by name (user or instantiated) *)
  | Indirect of operand (** first-class function value *)

type instr =
  | Load_argument of { dst : var; index : int }
  | Copy of { dst : var; src : operand }
  | Call of { dst : var; callee : callee; args : operand array }
  | New_closure of { dst : var; fname : string; captured : operand array }
  | Kernel_call of { dst : var; head : Expr.t; args : operand array }
      (** escape to the interpreter (KernelFunction / gradual compilation) *)
  | Abort_check                        (** inserted by {!Abort_pass} *)
  | Abort_poll of { stride : int; site : int }
      (** strided abort poll: runs the real check every [stride] executions;
          [site] identifies the per-loop counter.  Inserted by
          {!Opt_abort_stride}. *)
  | Mem_acquire of operand
  | Mem_release of operand             (** inserted by {!Memory_pass} *)

type jump = { target : int; jargs : operand array }

type terminator =
  | Jump of jump
  | Branch of { cond : operand; if_true : jump; if_false : jump }
  | Return of operand
  | Unreachable

type block = {
  label : int;
  mutable bparams : var array;
  mutable instrs : instr list;   (** in execution order *)
  mutable term : terminator;
}

type func = {
  fname : string;
  mutable fparams : var array;
  mutable ret_ty : Types.t option;
  mutable blocks : block list;   (** entry first *)
  mutable finline : bool;        (** eligible/marked for inlining *)
  mutable fsource : Expr.t option;  (** originating MExpr (debug/errors) *)
}

type program = {
  mutable funcs : func list;    (** main first *)
  mutable pmeta : (string * string) list;
}

val fresh_var : ?name:string -> ?ty:Types.t -> unit -> var
(** Draw from one atomic process-wide id supply: variable ids are unique
    across all compilations on all domains.  (There is deliberately no
    counter reset; see the note in the implementation.) *)

val const_ty : const -> Types.t
val operand_ty : operand -> Types.t option

val entry : func -> block
val find_block : func -> int -> block
val find_func : program -> string -> func option
val main : program -> func

val instr_defs : instr -> var list
val instr_uses : instr -> operand list
val term_uses : terminator -> operand list
val successors : terminator -> int list

val iter_instr_defs : (var -> unit) -> instr -> unit
val iter_instr_uses : (operand -> unit) -> instr -> unit
val iter_term_uses : (operand -> unit) -> terminator -> unit
(** The same variables and operands, in the same order, as [instr_defs],
    [instr_uses] and [term_uses], without building lists. *)

val map_instr_operands : (operand -> operand) -> instr -> instr
val map_term_operands : (operand -> operand) -> terminator -> terminator

val iter_vars : func -> (var -> unit) -> unit
(** Every SSA variable defined in the function (params, block params,
    instruction defs). *)
