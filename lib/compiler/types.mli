(** The compiler's type language (paper Section 4.4).

    TypeSpecifiers are atomic constructors ("Integer64"), compound
    constructors ("PackedArray"["Real64", 1]), type-level literals, function
    types, and (qualified) polymorphic types.  Type variables are mutable
    unification cells carrying their pending type-class qualifiers. *)

type t =
  | Con of string * t array      (** constructor application *)
  | Lit of int                   (** type-level integer literal (ranks) *)
  | Fun of t array * t
  | Var of tv ref

and tv =
  | Unbound of { id : int; mutable classes : string list }
  | Link of t

(** A polymorphic declaration: quantified variable ids with their class
    qualifiers, and the body.  Schemes are closed: every [Var] in [body]
    refers to a quantified id. *)
type scheme = { vars : (int * string list) list; body : t }

val int64 : t
val real64 : t
val complex64 : t
val boolean : t
val string_ : t
val expression : t
val void : t
val packed : t -> int -> t
val packed_t : t -> t -> t
val fn : t list -> t -> t

val fresh_var : ?classes:string list -> unit -> t
val mono : t -> scheme

val forall : string list list -> (t list -> t) -> scheme
(** [forall [cls_a; cls_b] (fun [a; b] -> …)] builds a polymorphic scheme
    with one quantified variable per qualifier list. *)

val repr : t -> t
(** Follow [Link]s to the representative, compressing the path unless a
    speculation is running on this domain. *)

val speculation_depth : int ref Domain.DLS.key
(** Nesting of {!Unify.speculate} on this domain. *)

val occurs : int -> t -> bool

val parse_spec : Wolf_wexpr.Expr.t -> scheme
(** Parse a TypeSpecifier expression:
    ["Integer64"], ["MachineInteger"] (alias), ["PackedArray"["Real64", 1]],
    [{"Integer64","Integer64"} -> "Real64"],
    [TypeForAll[{"a"}, {"a"} -> "Real64"]],
    [TypeForAll[{"a"}, {Element["a", "Ordered"]}, {"a","a"} -> "a"]],
    [TypeLiteral[n, "Integer64"]].
    @raise Wolf_base.Errors.Compile_error on malformed specs. *)

val instantiate : scheme -> t
(** Replace quantified variables with fresh unification variables that carry
    the scheme's qualifiers. *)

val equal : t -> t -> bool
(** Structural equality after [repr] (no unification). *)

val is_ground : t -> bool
val to_string : t -> string
(** Unbound variables print as [α<id>], their process-wide id. *)

val to_strings : t list -> string list
(** The types of one message, printed in order: unbound variables are
    named [α1], [α2], … by first appearance across the list, so the text
    does not depend on how many variables the process made before. *)

val pp : Format.formatter -> t -> unit
val mangle : t -> string
(** Stable name component for monomorphisation ("I64", "PA_R64_1", …). *)

val mangled : ?sep:string -> string -> t array -> string
(** [mangled base tys] is [base_T1_..._Tn], the name of the instance of
    [base] at operand types [tys]; a Wolfram-implemented instance uses
    [~sep:"$"]. *)
