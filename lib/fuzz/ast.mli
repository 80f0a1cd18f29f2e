(** Typed mini-AST for generated Wolfram-subset programs.

    The fuzzer generates, shrinks and persists programs in this form; the
    oracle renders them to concrete Wolfram source ({!to_source}) and parses
    that with the production {!Wolf_wexpr.Parser}, so the fuzz pipeline
    exercises exactly the text a user would write. *)

type ty = TInt | TReal | TBool | TStr | TArr
(** [TArr] is a rank-1 ["PackedArray"["Integer64", 1]]. *)

type expr =
  | Int of int
  | Real of float
  | Bool of bool
  | Str of string                      (** non-empty ASCII *)
  | Arr of int list                    (** non-empty literal list *)
  | Var of string * ty
  | Bin of string * ty * expr * expr   (** op, result type; ["/"] on reals is
                                           rendered with a guarded divisor *)
  | Un of string * ty * expr           (** Abs, Minus, Sin, Cos, SqrtAbs,
                                           EvenQ, Not, StringLength, Length,
                                           Total, Reverse, Chars *)
  | Cmp of string * ty * expr * expr   (** comparison; [ty] is operand type *)
  | And of expr * expr
  | Or of expr * expr
  | If of ty * expr * expr * expr
  | Part of string * expr              (** [v[[1 + Mod[idx, Length[v]]]]] *)
  | StrJoin of expr * expr
  | ConstArr of expr * int             (** [ConstantArray[e, k]], k >= 1 *)
  | MapArr of string * expr * expr     (** [Map[Function[{x}, body], arr]];
                                           body is [TInt] and may use [x] *)
  | FoldMM of string * string * string * expr * expr
      (** [FoldMM (op, s, x, init, arr)] renders
          [Fold[Function[{s, x}, op[s, x]], init, arr]]; [op] is [Min]/[Max] *)

type stmt =
  | Assign of string * ty * expr
  | PartSet of string * expr * expr    (** clamped index, int value *)
  | PartSetIv of string * string * expr
      (** [v[[i]] = e] with a raw counter index the generator keeps in
          bounds — the store shape the parallel-loops pass recognises *)
  | SIf of expr * stmt list * stmt list
  | While of string * int * stmt list
      (** dedicated counter, constant bound; a bound above [max_int / 2]
          also tests [c > 0] *)
  | DoLoop of string * int * stmt list (** [Do[body, {i, k}]] *)
  | RawSum of string * string * string * string option * int * int
      (** [RawSum (c, a, r, cap, delta, off)] renders
          [c = 1 - Min[off, 0]; While[c <= cap && c <= Length[a] + delta,
          r = r + a[[c + off]]; c = c + 1]]: an unclamped read that is in range or not by the
          bounds and offset, for the range analysis's proofs; with a cap,
          a read the length bound does not prove makes the loop a
          candidate for versioning on [cap <= Length[a] - off] *)

type local = { lname : string; lty : ty; linit : expr }

type fn = {
  params : (string * ty) list;
  withs : local list;    (** immutable bindings, rendered as [With] *)
  locals : local list;   (** mutable bindings, rendered as [Module] *)
  body : stmt list;
  result : expr;
  ret : ty;
}

type case = {
  fn : fn;
  args : expr list;      (** literals matching [fn.params] *)
}

val expr_ty : expr -> ty
val ty_name : ty -> string
(** The [Typed] annotation string for a parameter of this type. *)

val to_source : fn -> string
(** Render to parseable Wolfram source. *)

val arg_source : expr -> string
(** Render one argument literal. *)

val size : fn -> int
(** Node count (statements + expressions); the shrinker must never grow it. *)

val expr_size : expr -> int
