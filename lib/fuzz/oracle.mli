(** Differential oracle: the interpreter is ground truth; every backend at
    every optimisation level must agree with it (up to a relative numeric
    tolerance), and under injected aborts a compiled call may only return
    the agreed value or raise {!Wolf_base.Abort_signal.Aborted}.

    Each backend is one {!arm} in the {!arms} table; the [--backends]
    parser, the campaign driver and the corpus replay all loop over it, so
    adding a target means adding one record. *)

type outcome =
  | Value of Wolf_wexpr.Expr.t
  | Aborted
  | Failed of string
  (** Two [Failed] outcomes always agree: the failure path is the soft
      fallback (F2) re-raising through the interpreter, and the exact
      message depends on the backend's entry point. *)

type failure = {
  fwhere : string;   (** e.g. ["threaded/O2"], ["wvm"], ["abort/threaded/O0/k=5"] *)
  fexpected : string;
  fgot : string;
}

val outcome_str : outcome -> string
val agree : outcome -> outcome -> bool

type program = {
  fn : Wolf_wexpr.Expr.t;        (** the parsed [Function[…]] *)
  args : Wolf_wexpr.Expr.t array;
  expected : outcome;            (** the interpreter's run of [fn[args]] *)
  levels : int list;             (** requested optimisation levels *)
}

type arm = {
  name : string;                 (** its [--backends] spelling *)
  applies : Wolf_wexpr.Expr.t -> bool;
      (** decided once, on the parsed [Function], for generated programs
          and corpus entries alike *)
  check : program -> failure list;
      (** runs the arm's own levels, variants and abort injection; every
          compile has the verifier on and the cache off, and a verifier or
          compile failure is an outcome like any other *)
  setup : (string -> unit) -> unit -> unit;
      (** campaign setup (given the log sink), returning its teardown *)
}

val arms : arm list
(** In order:
    - [threaded], [jit]: [Wolfram.function_compile] at each level; the
      threaded arm also injects aborts at O0 and O2.
    - [wvm]: the legacy bytecode compiler; skips programs with strings or
      [Function] literals.
    - [c]: [C_emit.emit_with_driver] with the arguments baked into [main];
      scalar parameters and (read from the compiled signature) results
      only.
    - [binary]: the [wolfc build] product end to end: [emit_standalone] +
      [C_build.build], the arguments on the command line (strings as raw
      bytes, everything else in InputForm), exit 5 read as [Aborted];
      string results are skipped (no escaped string printer).  Both C arms
      skip without a C compiler, and accept a clean runtime panic (exit
      3/4) iff the same compiled program also raises in process: a C
      program carries no interpreter to fall back to.
    - [serve]: the printed reply of a [wolfd] daemon must be byte-identical
      to the reference's InputForm.
    - [tier]: a fresh controller (threshold 1, promotion via threaded); the
      tier-0 call, the promotion and the promoted call must agree, also
      with an [Abort[]] raced against the background promotion.
    - [par]: compiled with [parallel_loops] at each level > 0 and called at
      jobs=1, jobs=4 and jobs=4 under forced dynamic chunking, then with
      aborts injected under forced chunking. *)

val arms_of_string : string -> (arm list, string) result
(** Parse a comma-separated [--backends] value of arm names; the error for
    an unknown name lists every arm. *)

val serve_socket : string option ref
(** Socket path of the [wolfd] daemon the [serve] arm replays through.  Its
    setup bootstraps an embedded daemon when this is [None]; point it at a
    running daemon to fuzz an external process. *)

val reset_par_stats : unit -> unit
val par_stats : unit -> int * int
(** [(programs, loops)] where the [par] arm's compile actually
    parallelised at least one loop (read from the pipeline's ["parloop."]
    pass decisions), accumulated across every check since the last
    {!reset_par_stats}.  A par campaign uses this to assert the pass fired
    rather than silently rejecting every loop. *)

val check :
  arms:arm list -> levels:int list ->
  Wolf_wexpr.Expr.t -> Wolf_wexpr.Expr.t array -> failure list
(** Differential check of a parsed [Function[…]] applied to [args] on every
    arm that applies. *)
