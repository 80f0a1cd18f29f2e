(** Hygienic pattern-based macro system (paper §4.2).

    Macros desugar high-level constructs to primitive forms and perform
    always-safe AST-level optimisations.  Rules are registered per head in an
    environment; expansion is depth-first and runs to a fixed point.
    Hygiene: scoping constructs introduced by a rule's right-hand side get
    fresh variable names at each expansion, so macro-introduced bindings
    cannot capture user variables. *)

open Wolf_wexpr

type env

type options = (string * Expr.t) list
(** FunctionCompile options macros can be predicated on (e.g. the paper's
    [Conditioned[#TargetSystem === "CUDA" &]] example). *)

val create_env : ?parent:env -> string -> env

val register :
  env -> string -> ?condition:(options -> bool) -> (Expr.t * Expr.t) list -> unit
(** [register env "And" rules] attaches rewrite rules to head [And]; rules
    are tried in order (Wolfram pattern-specificity ordering is the
    registration order, as in {!Wolf_kernel.Values}). *)

val expand : env -> ?options:options -> Expr.t -> Expr.t
(** @raise Wolf_base.Errors.Compile_error if expansion exceeds 10,000
    rewrites (non-terminating macro set). *)

val builtin_env : unit -> env
(** The default environment bundled with the compiler: And/Or
    short-circuiting, n-ary arithmetic flattening, increment/update
    desugaring, comparison chains, and always-safe If/arithmetic folds.
    The rules are parsed once per process, under a lock, on the first call;
    every call returns fresh tables and cells over them, so it behaves
    exactly like a freshly built environment: [register] appends, and
    nothing one caller registers is visible to another. *)

val functional_env : unit -> env
(** [builtin_env] extended with loop desugarings for the functional
    primitives ([Nest], [Fold], [Map] over packed arrays with
    element-preserving functions); the pipeline's default.  Built once and
    copied per call, like [builtin_env]. *)
