(** Mutability semantics (paper §4.5, objective F5).

    [x = {…}; …; y[[1]] = 3] must copy only if the target aliases another
    value that is used later.  Every [SetPart] keeps the runtime
    copy-on-write test, made exact by the reference counts of
    {!Memory_pass}, unless this pass proves its array unique; then the store
    calls its [part_set_*_inplace] row, which skips even the test.

    The proof is over {e webs}: the tensor variables linked by a jump
    argument to the block parameter it feeds, and by a store's operand to
    the store's result.  A web is promoted when
    - it has exactly one entry value (a member that is neither a block
      parameter nor a store result), which reaches a fresh allocation
      through single-use [Copy]s in the one block that passes it on;
    - every use of every member is an element read with a scalar result,
      [Length], a store's operand, a jump argument (into the web's own
      parameter), [Return], or an argument of a [Pure] row whose result is
      a machine scalar ([Integer64], [Real64], [Boolean]) or a [fresh]
      tensor: such a call can neither keep the array nor return it; and
    - no member other than a store's result is live after that store.

    Then every member is replaced by the entry value, the web's block
    parameters and their jump arguments are deleted, and its stores take
    the in-place row: a loop no longer carries the array.  A straight-line
    update is the web without parameters. *)

val reads : string -> Wir.var -> bool
(** [reads base dst]: the primitive [base] with result [dst] reads its
    array argument without keeping it: an element read with a scalar
    result, or [Length]. *)

val pure_call : string -> Wir.var -> bool
(** [pure_call base dst]: [base] is a pure row whose result [dst] is a
    machine scalar or a fresh tensor, so it neither keeps an array
    argument nor hands it back. *)

val is_in_place_store : string -> bool
(** [part_set_{1,2}_inplace], with or without a range proof's
    [_unchecked]. *)

type promotion = {
  pfunc : string;        (** the function *)
  pheader : int option;
      (** the first block that carried the web as a parameter (a loop
          header); [None] for a web without parameters *)
  pstores : int;         (** the web's stores, now in place *)
  pcalls : int;          (** the web's uses as a pure call's argument *)
}

val run : Wir.program -> promotion list
(** Rewrite every promoted web; one entry each, in function order.  Adds
    the stores to the counter [mutability_promoted_total{form="block"|"loop"}]. *)
