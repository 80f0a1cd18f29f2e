(** Lowering MExpr → WIR (paper §4.3).

    The input has been macro-expanded and binding-analysed: scoping is
    flattened, locals are unique symbols, control flow is [If] / [While] /
    [CompoundExpression] / [Set].  Lowering goes straight to SSA: mutable
    locals become block parameters at control-flow joins (the block-argument
    formulation of the on-the-fly SSA construction the paper cites). *)

open Wolf_wexpr

val lower_function :
  options:Options.t ->
  name:string ->
  Binding.analyzed ->
  source:Expr.t ->
  Wir.program
(** Produces a program whose first function is [name]; nested [Function]s
    are lambda-lifted into additional program functions with their captured
    variables prepended (closure conversion, §4.2's escape analysis feeds
    this).  @raise Wolf_base.Errors.Compile_error on unsupported constructs. *)
