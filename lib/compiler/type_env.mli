(** Function/type declaration environments (paper §4.4).

    Declarations are polymorphic, qualified, and overloadable by arity and
    type.  Multiple environments can be resident; users extend the builtin
    environment (objective F6) and pass theirs at FunctionCompile time. *)

open Wolf_wexpr

type impl =
  | Prim of string
      (** runtime primitive; the backend dispatches on the primitive's base
          name plus the resolved argument types (mangled like the paper's
          [checked_binary_plus_Integer64_Integer64]) *)
  | Wolfram of Expr.t
      (** implementation written in the Wolfram Language, compiled and
          monomorphised on demand by function resolution (like the paper's
          [Min] example) *)
  | External of string  (** resolved by name only (already-compiled code) *)

type decl = {
  dname : string;
  scheme : Types.scheme;
  impl : impl;
  inline : bool;        (** eligible for the inlining pass *)
}

type t

val create : ?parent:t -> string -> t
val name : t -> string

val copy : t -> t
(** An independent copy of every layer: [declare] on the copy is invisible
    to the original and the other way round.  Declarations themselves are
    immutable and shared. *)

val declare : t -> string -> ?inline:bool -> Types.scheme -> impl -> unit
(** Overloads accumulate; redeclaring an identical scheme replaces. *)

val declare_wolfram : t -> string -> spec:Expr.t -> body:Expr.t -> unit
(** The paper's [tyEnv["declareFunction", f, Typed[spec]@Function[…]]]. *)

val lookup : t -> string -> decl list
(** All overloads, own declarations first (more specific environments win),
    in declaration order (the specificity order used by
    AlternativeConstraint resolution). *)

val prims : t -> (string * Types.scheme) list
(** Every declaration implemented by a runtime primitive, in every layer:
    the primitive's base name and the declared scheme. *)

val builtin : unit -> t
(** The default environment bundled with the compiler: arithmetic,
    comparisons, packed-array / string / expression primitives.  The
    declarations are built once per process, under a lock, on the first
    call; every call returns a {!copy} of them, which behaves exactly like a
    freshly built environment: an identical-scheme [declare] replaces in
    place, and nothing one caller declares is visible to another. *)
