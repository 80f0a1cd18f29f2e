(** OCaml source emission from TWIR — the code generator behind the
    ocamlopt JIT ({!Jit}) and the [FunctionCompileExportString[…,"OCaml"]]
    analogue.

    Each program function becomes a typed OCaml function.  A reducible
    natural loop becomes a [while] loop over local refs inside its header's
    code, its blocks written out in structured form along the dominator
    tree; the other basic blocks become mutually recursive local functions
    whose parameters are the block parameters plus the block's live-in
    variables, so SSA dominance maps onto lexical scope and jumps become
    tail calls.  Machine numbers stay unboxed; packed arrays of machine
    numbers are read and written through typed views bound once per
    binding; open-coded primitives mirror {!Native}'s fast paths; anything
    else dispatches through [Wolf_runtime.Prims].  Each emit counts the
    loops by form in the metric [jit_loops_total{form="while"|"blocks"}]. *)

type emitted = {
  source : string;            (** complete OCaml compilation unit *)
  entry_symbol : string;      (** Wolf_plugin registration key of the entry *)
  constants : (string * Wolf_runtime.Rtval.t) list;
      (** plugin-table constants the host must register before loading *)
  loops : (string * int * string option) list;
      (** every natural loop: function, header label, and [None] when it
          became a [while] loop or why it stayed block functions *)
}

val emit : module_name:string -> Wolf_compiler.Pipeline.compiled -> emitted

val loop_forms_counter : string -> Wolf_obs.Metrics.counter
(** [jit_loops_total{form}] for [form] = ["while"] or ["blocks"]. *)
