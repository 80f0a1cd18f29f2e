(** Seeded random generator of typed Wolfram-subset programs.

    Programs are generated with their call arguments and are terminating by
    construction: every loop is counted with a constant bound and a dedicated
    counter no other statement assigns, and every [Part] index is clamped
    into range by the {!Ast} renderer.  Integer overflow, [Mod[_, 0]] and
    friends are deliberately *not* prevented — they exercise the soft-failure
    fallback (F2), where every backend must agree with the interpreter. *)

type config = {
  max_size : int;       (** approximate node budget per program *)
  strings : bool;       (** generate string params/ops (not WVM-representable) *)
}

val default_config : config

val case : ?config:config -> Rng.t -> Ast.case
(** Generate one program with matching literal arguments. *)
