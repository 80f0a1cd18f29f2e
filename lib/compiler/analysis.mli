(** CFG analyses shared by the optimisation and obligation passes:
    dominators (Cooper–Harvey–Kennedy), the loop headers derived from back
    edges (used by {!Abort_pass}, paper §4.5), per-block liveness (used
    by {!Memory_pass} and {!Mutability_pass}), and the counted-loop view
    the loop optimisations share. *)

(** The control-flow graph with blocks numbered in reverse postorder from
    the entry (the entry is 0), followed by the unreachable blocks in list
    order.  Every array is indexed by that number. *)
type cfg = {
  nodes : Wir.block array;        (** the block with each number *)
  nreach : int;                   (** numbers [0 .. nreach-1] are reachable *)
  index : (int, int) Hashtbl.t;   (** label -> number *)
  succs : int array array;        (** successors, in terminator order *)
  preds : int array array;        (** predecessors, reachable or not *)
  idom : int array;
      (** immediate dominator; [idom.(0) = 0], [-1] when unreachable *)
}

val build_cfg : Wir.func -> cfg
(** Cooper–Harvey–Kennedy dominators.  Never raises on malformed IR: a jump
    to a missing label adds no edge, an edge into the entry is an ordinary
    predecessor, and a duplicate label names its first block (the later
    ones count as unreachable). *)

val number : cfg -> int -> int
(** The number of the reachable block with this label, or [-1]. *)

val reachable : cfg -> int -> bool
(** Whether the block with this label is reachable from the entry. *)

val dominates : cfg -> int -> int -> bool
(** The same on labels; a label always dominates itself. *)

val loop_headers : Wir.func -> cfg -> int list
(** Labels that are the target of a back edge (their source being dominated
    by the target): the natural-loop headers where abort checks go. *)

type loop = {
  lheader : int;       (** header block label *)
  latches : int list;  (** back-edge sources, sorted *)
  lbody : int list;    (** body labels including the header, sorted *)
  ldepth : int;        (** nesting depth, 1 = outermost *)
}

val natural_loops : Wir.func -> cfg -> loop list
(** Natural loops from back edges; loops sharing a header are merged.
    Sorted by header label. *)

val loop_contains : loop -> int -> bool

val innermost : loop list -> loop -> bool
(** [innermost loops l]: no distinct loop of [loops] is nested inside [l]. *)

val ensure_preheader : Wir.func -> header:int -> latches:int list -> int
(** Label of the loop's preheader, creating one (splitting the entry edges
    with a fresh block that forwards the header's parameters) unless a
    unique fall-through entry predecessor already qualifies.  Must not be
    called on the entry block. *)

val def_table : Wir.func -> (int, Wir.instr) Hashtbl.t
(** Defining instruction of each variable id (block parameters excluded). *)

val chase_copies : (int, Wir.instr) Hashtbl.t -> Wir.var -> Wir.var
(** Follow SSA [Copy] chains from [def_table] to the root variable. *)

val resolved_def : (int, Wir.instr) Hashtbl.t -> Wir.var -> Wir.instr option
(** The defining instruction after chasing copies. *)

val incoming_jumps : Wir.func -> int -> (int * Wir.jump) list
(** All (source label, jump) edges in the function targeting a label. *)

val loop_defs : Wir.func -> loop -> (int, unit) Hashtbl.t
(** Ids defined in the loop: its blocks' parameters and instruction results. *)

(** {2 Counted loops}

    The one recogniser behind strip-mining ({!Opt_abort_stride}) and
    {!Opt_parloop}.  It matches a loop whose header ends in
    [Branch c ? body : _] where [c] is defined as
    [binary_less{,_equal}(i, n)]: [i] chases through copies to a header
    parameter and [n] is an [Integer64] variable defined outside the loop or
    an integer constant.  The integer-bound rule exists because every client
    rewrites the loop with arithmetic on [n] at the guard's type suffix (chunk
    limits, [Length]-relative ranges, parallel [hi]); a [Real64] bound would
    make those primitives mixed-type with an [Integer64] result.  The other
    facts are reported, not required: each pass adds its own conditions. *)

type counted_loop = {
  defs : (int, unit) Hashtbl.t;       (** {!loop_defs} *)
  invariant : Wir.operand -> bool;    (** a constant, or defined outside the loop *)
  def_of : (int, Wir.instr) Hashtbl.t;  (** {!def_table} of the function *)
  guard : Wir.var;                    (** the header branch condition [c] *)
  guard_prim : Wir.callee;            (** [c]'s resolved comparison *)
  strict : bool;                      (** [i < n] rather than [i <= n] *)
  iv : Wir.var;                       (** the header parameter [i] *)
  iv_pos : int;                       (** [i]'s position among the header parameters *)
  bound : Wir.operand;                (** [n] *)
  on_true : Wir.jump;                 (** the header's arm into the body *)
  on_false : Wir.jump;                (** the header's other arm *)
  exits : bool;                       (** [on_false] leaves the loop *)
  guard_in_header : bool;             (** [c] is computed in the header *)
  guard_single_use : bool;            (** [c] has no use besides the branch *)
  steps_by_one : bool;
      (** every latch passes [i + 1] (checked, or proved in range) for [i] *)
  starts_at_least : int -> bool;
      (** [starts_at_least k]: every entry value of [i] is an integer
          constant [>= k] (through up to three forwarding blocks) *)
}

val counted_loop : Wir.func -> loop -> (counted_loop, string) result
(** Match [loop] once; [Error] says which part of the shape is missing. *)

val sibling : Wir.callee -> string -> Wir.callee
(** [sibling prim base]: the resolved primitive [base] at the same type
    suffix as the resolved [prim]. *)

val live_out : ?only:(int -> bool) -> Wir.func -> (int, (int, unit) Hashtbl.t) Hashtbl.t
(** Variable ids live out of each block; with [only], just the ids it
    accepts. *)

val live_in : Wir.func -> (int, (int, unit) Hashtbl.t) Hashtbl.t
(** Variable ids live into each block (excluding the block's own
    parameters). *)

val use_counts : Wir.func -> (int, int) Hashtbl.t
(** Total number of uses of each variable id in the function. *)
