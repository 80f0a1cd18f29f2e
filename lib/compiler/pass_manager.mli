(** Instrumented pass manager (paper §4: the compiler is a sequence of WIR
    passes with language-obligation passes interleaved).

    Every transformation of a {!Wir.program} — optimisation passes, the
    language-obligation passes, type inference, user-injected passes — runs
    through one uniform [pass] record.  The manager owns, per pass:

    - wall-clock time (cumulative over repeated runs in a fixpoint),
    - before/after instruction- and basic-block-count deltas,
    - post-pass {!Wir_verify} verification when linting is enabled,
    - dump-IR-after-pass hooks ([--dump-after] in wolfc).

    Front-end stages that do not yet have a program (macro expansion,
    lowering) are timed with {!record} and appear in the same report with no
    IR delta. *)

type pass = {
  pass_name : string;
  pass_run : Wir.program -> bool;
      (** Returns [true] when the program may have changed (drives the
          optimisation fixpoint). *)
}

val mk : string -> (Wir.program -> bool) -> pass

val of_unit : string -> (Wir.program -> unit) -> pass
(** Wrap a pass without a change report; treated as always-changing. *)

type delta = {
  d_instrs_before : int;
  d_instrs_after : int;
  d_blocks_before : int;
  d_blocks_after : int;
}
(** Instruction/basic-block counts at the pass's first run (before) and its
    most recent run (after). *)

type stat = {
  st_pass : string;
  st_runs : int;      (** executions (a fixpoint pass runs many times) *)
  st_changed : int;   (** runs that reported a change *)
  st_time : float;    (** cumulative seconds *)
  st_verify : float;  (** cumulative seconds spent in the post-pass
                          {!Wir_verify} run, attributed to this pass *)
  st_delta : delta option;  (** [None] for {!record}ed front-end stages *)
}

type t

val create :
  ?lint:bool ->
  ?dump_after:string list ->
  ?dump:(string -> Wir.program -> unit) ->
  unit ->
  t
(** [lint] (default false) runs the full {!Wir_verify.assert_ok} after
    every pass, timed per pass in {!stats} ([Options.lint]).
    [dump_after] names passes after which [dump] fires; the name ["all"]
    matches every pass.  The default [dump] prints the IR to stderr. *)

val run_pass : t -> pass -> Wir.program -> bool
(** Run one pass with full instrumentation; returns the pass's change
    report. *)

val run_list : t -> pass list -> Wir.program -> unit
(** Run each pass once, in order. *)

val run_fixpoint : ?budget:int -> t -> pass list -> Wir.program -> bool
(** Iterate the pass list until every pass has run once in a row without
    reporting a change (one full cycle after the last change, which may end
    mid-round) or [budget] (default 16) rounds elapse; returns [true] if
    any run changed the program. *)

val record : t -> string -> (unit -> 'a) -> 'a
(** Time a stage that is not a WIR-to-WIR pass (e.g. macro expansion +
    lowering); contributes to {!stats} without an IR delta. *)

val checkpoint : t -> string -> Wir.program -> unit
(** Lint and run the dump hook for a stage boundary that was not executed
    via {!run_pass} (e.g. right after lowering). *)

val stats : t -> stat list
(** Aggregated per-pass statistics in first-execution order.  A stage that
    was only {!checkpoint}ed (verified but never run as a pass) appears as
    a zero-run row carrying its verify time, so the verify column is
    complete. *)

type totals = { tot_pass : float; tot_verify : float }

val totals : stat list -> totals
(** The report footer's numbers, derived from the per-pass rows and nothing
    else.  Pass time and verify time are disjoint by construction —
    [st_time] never includes verification — so each is reported exactly
    once: [tot_pass] is the fold of the ms column, [tot_verify] the fold of
    the verify-ms column. *)

val instr_count : Wir.program -> int
val block_count : Wir.program -> int

val stats_to_string : stat list -> string
(** Human-readable table: runs, changed, cumulative ms, instr/block deltas. *)

val stats_to_json : stat list -> string
(** The same report as a JSON array (one object per pass). *)
