(** Destructive unification with an undo trail, the engine beneath the
    EqualityConstraint solver.  Binding a qualified type variable checks its
    type-class qualifiers; variable-variable bindings merge qualifiers. *)

val unify : Types.t -> Types.t -> (unit, string) result

val speculate : (unit -> 'a option) -> 'a option
(** Run a thunk; when it returns [None] (or raises), roll back all bindings
    it made.  Used to test AlternativeConstraint candidates.  Only bindings
    made inside a speculation are recorded, and the outermost commit drops
    them, so nothing is retained between inferences. *)

