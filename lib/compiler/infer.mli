(** Constraint-based type inference over the WIR (paper §4.4).

    Phase 1 walks the IR generating constraints: equalities (unified eagerly),
    and AlternativeConstraints for overloaded operations, linked through
    shared type variables.  Phase 2 solves: each round speculatively unifies
    every remaining candidate of every alternative, discarding candidates
    that can no longer apply; singleton alternatives commit.  When a round
    makes no progress, the most specific (first-declared) surviving candidate
    of the most-constrained alternative commits — the paper's ordering of
    matched types.  Remaining ambiguity or emptiness is a compile error.

    Resolution results are written back: [Call Prim] callees become
    [Call Resolved] with their mangled monomorphic name, and the returned
    table maps mangled names to the declaration chosen, for function
    resolution (§4.5) to instantiate. *)

type resolved = {
  rdecl : Type_env.decl;
  rarg_tys : Types.t array;
  rret_ty : Types.t;
}

val infer :
  env:Type_env.t -> Wir.program ->
  (string, resolved) Hashtbl.t
(** Mutates variable types in place (WIR → TWIR).
    @raise Wolf_base.Errors.Compile_error on type errors. *)

val check_ground : Wir.program -> unit
(** Code generation precondition: every variable's type is fully resolved
    ("a compile error is issued if any variable type is missing", §4.6). *)
