(** Fuzzing campaign driver: generate, compare, shrink, persist.

    Every failure is minimised with {!Shrink} against the full differential
    predicate and written to the corpus directory in a replayable text
    format — the same format [test/corpus/*.wl] uses:

    {v
    (* fuzz: <where the oracle disagreed> *)
    (* seed: 42/17 *)
    (* args: {1, {2, 3}} *)
    Function[{Typed[p1, "MachineInteger"]}, ...]
    v}

    Which arms apply to an entry is decided from its program text by
    {!Oracle.arm.applies}, exactly as for generated programs. *)

type config = {
  seed : int;
  count : int;
  max_size : int;
  strings : bool;
  arms : Oracle.arm list;      (** each one's setup/teardown brackets {!run} *)
  levels : int list;
  corpus_dir : string option;  (** write shrunk failures here *)
  log : string -> unit;        (** progress/diagnostics sink *)
  jobs : int;
      (** domains to shard the campaign over.  Any [jobs] produces the
          same report (per-program work depends on [(seed, i)] only and
          results merge in program order); [1] runs inline. *)
}

val default_config : config
(** seed 0, 200 programs, max size 60, threaded+wvm, levels 0–2, no corpus
    dir, silent, 1 job. *)

type failure = {
  index : int;                          (** program index in the campaign *)
  shrunk : Ast.case;                    (** the ALREADY-SHRUNK case *)
  shrunk_failures : Oracle.failure list;
      (** the shrunk case's failures when re-checked; [[]] when it passed,
          i.e. the failure did not reproduce after shrinking *)
  unshrunk_failures : Oracle.failure list;  (** the generated program's *)
}

type report = {
  generated : int;
  disagreements : int;             (** programs with >= 1 oracle failure *)
  failures : failure list;
  written : string list;           (** corpus files persisted *)
  par_programs : int;
      (** programs where the [par] arm parallelised >= 1 loop (0 when the
          par arm was not selected) *)
  par_loops : int;                 (** total loops parallelised by the arm *)
  promoted_programs : int;
      (** generated programs in which the mutability pass put >= 1 store in
          place, compiled once at -O1 whatever the arms *)
  promoted_stores : int;           (** their stores on the in-place row *)
  promoted_loop_stores : int;      (** of those, the stores of loop webs *)
  promoted_pure_call_webs : int;
      (** promoted webs whose array is an argument of a pure call *)
  range_overflow : int;
      (** checked arithmetic the range analysis proved in range, in the
          same -O1 compiles *)
  range_bounds : int;              (** element accesses it proved in range *)
  range_versioned : int;           (** loop nests it versioned *)
}

val case_for : config -> int -> Ast.case
(** The [i]-th generated program of a campaign — deterministic in
    [(seed, i)] alone, so one program can be regenerated without running
    the campaign. *)

val run : config -> report

val investigate :
  check:(Ast.case -> Oracle.failure list) -> ?progress:(string -> unit) ->
  int -> Ast.case -> failure option
(** [investigate ~check i case]: [None] when [check case] passes, else the
    case shrunk against [check] and re-checked.  {!run} uses it with the
    campaign's oracle. *)

val describe : failure -> string
(** The printed report of one failure: the shrunk program and each failure
    with its arm/level, expected and got.  When the shrunk case passed, it
    says "did not reproduce after shrinking" and prints the unshrunk
    program's failures instead. *)

(* {2 Corpus persistence} *)

type corpus_entry = {
  ce_path : string;
  ce_source : string;              (** program text *)
  ce_args : Wolf_wexpr.Expr.t list;
  ce_note : string;                (** first header comment *)
}

val write_corpus :
  dir:string -> name:string -> note:string -> Ast.case -> string
(** Returns the path written. *)

val read_corpus_file : string -> (corpus_entry, string) result
val read_corpus_dir : string -> corpus_entry list
(** All [*.wl] files, sorted by name; raises on malformed entries. *)

val check_entry :
  ?arms:Oracle.arm list -> ?levels:int list -> corpus_entry ->
  Oracle.failure list
(** Replay one corpus entry differentially; [arms] and [levels] default to
    {!default_config}'s. *)
