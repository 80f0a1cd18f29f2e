(** Range facts: an interval analysis over the [Integer64] values of TWIR
    that proves checked [Plus]/[Subtract]/[Times] and element-access index
    checks away (rewriting them to their unchecked siblings) and versions
    an outermost loop nest behind one dims guard when that clears every
    range check in it.  Runs in the -O1+ fixpoint right after
    {!Opt_licm}, in its fixpoint member, when [Options.loop_opts] is set. *)

type tally = {
  mutable overflow : int;   (** checked arithmetic proved in range *)
  mutable bounds : int;     (** element accesses proved in range *)
  mutable versioned : int;  (** loop nests cloned behind a dims guard *)
}
(** What one compile proved; the process-wide counters are
    [range_proved_total{kind="overflow"|"bounds"}] and
    [loops_versioned_total]. *)

val tally : unit -> tally

val run : tally -> Wir.program -> bool

val bounds : Wir.func -> Wir.var -> int * int
(** The constant range the analysis gives [v] wherever it is in scope (no
    branch facts), [min_int]/[max_int] when unbounded. *)
