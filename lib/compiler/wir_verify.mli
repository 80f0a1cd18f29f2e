(** The full WIR/TWIR verifier (ISSUE 3; MLIR-style IR contracts as
    checkable invariants).

    Grown out of the original structural SSA lint, this module checks every
    invariant the passes and backends rely on:

    {ol
    {- {b Structure}: non-empty block list, unique block labels, unique SSA
       definitions, jump targets exist, the entry block has no parameters
       and is never a jump target, [Load_argument] appears only in the entry
       block with an in-range index.}
    {- {b Dominance}: every use of an SSA variable is dominated by its
       definition: the definition comes earlier in the same block, or its
       block dominates the use's block.  Checked in one walk of the
       dominator tree of {!Analysis.build_cfg}, with each block's
       definitions in scope over its subtree, so the cost is linear in the
       size of the function.}
    {- {b Jump agreement}: every jump passes exactly as many arguments as
       the target declares parameters, and each argument's type agrees with
       the parameter's type wherever both are ground.}
    {- {b TWIR types}: [Copy] source and destination agree,
       branch conditions are Boolean, [Return] operands agree with the
       function's return type, [Load_argument] destinations agree with the
       declared parameter types — all modulo gradual typing: a check only
       fires when both sides carry ground types, because passes may
       introduce untyped instructions and re-run inference (paper §4.5).}
    {- {b Terminators}: every reachable block ends in a well-formed
       terminator (this is structural in the IR type, but arm agreement and
       operand types are checked here).}
    {- {b No orphans}: every block is reachable from the entry block.}
    {- {b Primitive calls}: every [Resolved] call names a row of
       {!Wolf_runtime.Prims} with that row's arity; once its types are
       ground, its mangled name spells its operand types and those and its
       result type fit a builtin declaration of the primitive (or of the
       one a pass-made variant specialises).  Memoised per mangled name.}
    {- {b Program level}: [Func] callees and [New_closure] targets resolve
       to program functions, and call arity matches the callee's parameter
       count.}}

    The verifier is pure: it never mutates the program and reports every
    violation it finds (not just the first), each prefixed with the
    function and block. *)

val check_func : Wir.func -> (unit, string list) result

val check_program : Wir.program -> (unit, string list) result

val assert_ok : string -> Wir.program -> unit
(** Raise [Wolf_base.Errors.Compile_error] naming [pass] when
    [check_program] fails — the hook {!Pass_manager} runs after every pass
    under [Options.lint] so a pass that breaks an invariant is named in
    the error. *)
