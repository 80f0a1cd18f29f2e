(** Opt-in runtime profiling of compiled code.

    When a program is compiled with [Options.profile], the backend wraps
    every emitted function in {!wrap_fn}, which records call counts plus
    cumulative total and {e self} time (total minus time spent in profiled
    callees, tracked by a per-domain shadow stack — recursion is safe,
    though a recursive function's total time double-counts nested
    activations, as in every flat profiler).

    Alongside the per-function table, three always-compiled-in event
    counters cover the runtime costs the paper's abort/memory machinery
    introduces: abort polls, compiled→kernel escapes, and tensor
    copy-on-write copies.  All of it is disabled by default: the only cost
    at each site is an atomic load and branch. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val on_toggle : (bool -> unit) -> unit
(** Install the one hook {!set_enabled} calls with the new value when it
    flips the switch.  [Abort_signal] installs it to arm its slow path,
    which is where compiled-code abort polls are counted. *)

val reset : unit -> unit
(** Zero every per-function cell and event counter. *)

type fn_stat = {
  pf_name : string;
  pf_calls : int;
  pf_self : float;    (** seconds, excluding profiled callees *)
  pf_total : float;   (** seconds, including them *)
}

val wrap_fn : string -> ('a -> 'b) -> 'a -> 'b
(** Instrument one emitted function.  The cell is resolved once, at wrap
    time; the per-call cost when profiling is off is one atomic load. *)

(* event counters *)

val note_abort_poll : unit -> unit
val note_kernel_escape : unit -> unit
val note_cow_copy : unit -> unit

val abort_polls : unit -> int
val kernel_escapes : unit -> int
val cow_copies : unit -> int

(* reporting *)

val stats : unit -> fn_stat list
(** Hottest first (by self time). *)

val report : unit -> string
(** The hot-function table plus the event counters, human-readable. *)

val to_json : unit -> string
(** Same data as a JSON object. *)

val register_metrics : unit -> unit
(** Expose the event counters and per-function totals through
    {!Metrics.register_source} under the ["runtime_profile"] source. *)
