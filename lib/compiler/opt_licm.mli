(** Loop-invariant code motion into preheaders.  Runs in the -O1+
    fixpoint when [Options.loop_opts] is set, followed by {!Opt_range} in
    the same fixpoint member ([licm]). *)

val run : Wir.program -> bool
