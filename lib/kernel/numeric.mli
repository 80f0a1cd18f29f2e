(** The interpreter's numeric tower: machine integers that promote to
    arbitrary precision on overflow (the behaviour compiled code falls back
    to under soft failure, F2), reals, complexes, and packed-tensor fast
    paths for elementwise arithmetic. *)

open Wolf_wexpr

val of_big : Wolf_base.Bignum.t -> Expr.t
(** A machine integer when the value fits, else a big one. *)

val is_numeric : Expr.t -> bool
(** Machine/big integers, reals and [Complex[re, im]] with numeric parts. *)

val add2 : Expr.t -> Expr.t -> Expr.t option
val sub2 : Expr.t -> Expr.t -> Expr.t option
val mul2 : Expr.t -> Expr.t -> Expr.t option
val div2 : Expr.t -> Expr.t -> Expr.t option
(** Integer division is exact when it divides evenly, otherwise produces a
    Real (this repo's substitute for Wolfram rationals; see DESIGN.md). *)

val pow2 : Expr.t -> Expr.t -> Expr.t option
val neg : Expr.t -> Expr.t option
val abs : Expr.t -> Expr.t option

val compare2 : Expr.t -> Expr.t -> int option
(** Numeric comparison; [None] when either side is not a real number. *)

val to_real : Expr.t -> Expr.t option
(** Wolfram's [N]. *)
