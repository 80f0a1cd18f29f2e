(** The final-TWIR identity check: every program of a corpus compiled at
    -O1 and at -O2 with parallel loops, its final TWIR and its
    ["parloop.*"] decisions printed and digested.  A refactor that should
    not change code generation shows it by leaving the digest unchanged. *)

val read_corpus : string -> Wolf_wexpr.Expr.t list
(** The programs of a corpus file, whose records are separated by
    ["%% <args>"] lines. *)

val configs : (string * Wolf_compiler.Options.t) list
(** The option sets, named: -O1, and -O2 with parallel loops, both without
    the compile cache. *)

val renumber : string -> string
(** Number the [%N] variables of printed IR by first appearance, so the
    same program compiled anywhere in a process prints the same text. *)

val corpus_text : Wolf_wexpr.Expr.t list -> string
(** The digested text: one section per option set and program. *)

val digest : Wolf_wexpr.Expr.t list -> string
(** Hex digest of {!corpus_text}. *)
