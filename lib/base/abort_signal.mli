(** User-abort signalling (objective F3).

    The Wolfram Notebook lets the user abort a running evaluation without
    killing the session.  The interpreter polls between rewrite steps;
    compiled code polls at loop headers and function prologues (inserted by
    {!Wolf_compiler.Abort_pass}).

    State word: one cross-domain [int Atomic.t], {!state}.  Bit 0 is the
    abort request — {!request} from any domain is observed by the next
    {!check} on every domain, never lost or torn.  The bits above it count
    {e arms}: hooks that need the slow path to run at every check.  The
    word is nonzero only when an abort is requested or something is armed,
    so a check is one atomic load and a branch; only a nonzero word calls
    {!slow}, which notes the profiler poll, counts the check on the calling
    domain, fires a scheduled injection and raises.

    What arms the word (each one holds one arm until it is given back):
    - {!abort_after}, until {!clear} on the same domain (a fired trigger
      keeps its arm while the injected abort is sticky);
    - {!reset_stats}, until {!clear} on the same domain;
    - [Wolf_obs.Profile.set_enabled true], until [set_enabled false].
    A domain that exits gives back the arms it holds.  Several domains can
    arm at once, so arms are counted, not flagged.

    The {!abort_after}/{!checks_performed} machinery exists only for tests
    and ablations and is domain-local (see below). *)

exception Aborted

val request : unit -> unit
(** Ask every running evaluation, on any domain, to stop at its next abort
    check.  Safe to call from a different domain than the one evaluating. *)

val clear : unit -> unit
(** Clear the global request bit and this domain's injected-abort state,
    and give back every arm this domain holds. *)

val requested : unit -> bool
(** Bit 0 of the state word only; arms do not count as a request. *)

val armed : unit -> bool
(** Whether any hook, on any domain, holds the slow path armed.  Read-only;
    for tests asserting that arming is scoped. *)

val check : unit -> unit
(** [if Atomic.get state <> 0 then slow ()].
    @raise Aborted if an abort was requested (the request stays set so nested
    evaluations unwind; the session clears it when it regains control). *)

val interp_check : unit -> unit
(** The interpreter's per-step check: {!check}, except that the profiler
    does not count it as a compiled-code poll. *)

val state : int Atomic.t
(** The state word.  Exposed only so generated code (the JIT prelude) can
    inline {!check}'s load; never write it. *)

val slow : unit -> unit
(** {!check}'s slow path, for generated code that inlined the load. *)

(** {2 Test hooks — domain-local}

    These exist only for tests and the abort-overhead ablation.  Each domain
    has its own poll counter and injection trigger: scheduling an injected
    abort or calling [reset_stats] on one domain can never race with, abort,
    or skew the counts of a compiled function polling on another domain.
    A real cross-domain abort is delivered via {!request} only. *)

val checks_performed : unit -> int
(** Number of checks on the calling domain since its last [reset_stats]
    that ran while the state word was armed (an unarmed check is one load
    and counts nothing).  [reset_stats] arms the word, so every check after
    it counts until [clear]. *)

val reset_stats : unit -> unit
(** Zero the calling domain's poll counter and arm the state word until
    this domain's next {!clear}. *)

val abort_after : int -> unit
(** Test hook: arrange for the [n]-th subsequent check {e on the calling
    domain} to raise, simulating a user pressing interrupt mid-evaluation.
    The injected abort is confined to the scheduling domain.  Arms the state
    word until this domain's next {!clear}. *)

val with_abort_protection : (unit -> 'a) -> ('a, exn) result
(** Run a thunk, catching [Aborted] (and clearing the flag), so a session can
    return to its prompt with its state intact. *)
