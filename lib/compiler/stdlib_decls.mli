(** The compiler's standard library of Wolfram-implemented declarations
    (paper §4.4's worked examples): polymorphic, qualifier-constrained
    functions written in the Wolfram Language and monomorphised on demand by
    function resolution — exactly how users extend the compiler (F6). *)

val env : unit -> Type_env.t
(** The default environment used by {!Pipeline.compile}: the primitive
    builtin environment extended with [Min]/[Max] (the paper's example),
    [Clip], [Sign], [Mean], [Norm], [Fibonacci] and [GCD].  Built once per
    process, under a lock, on the first call (the Wolfram bodies are parsed
    once); every call returns a {!Type_env.copy}, so the contract of
    {!Type_env.builtin} holds: nothing one caller declares is visible to
    another. *)
