(** OCaml source emission from TWIR — the code generator behind the
    ocamlopt JIT ({!Jit}) and the [FunctionCompileExportString[…,"OCaml"]]
    analogue.

    Each program function becomes a typed OCaml function whose body is one
    structured walk from the entry block along the dominator tree: a block
    with one forward in-edge is inlined at that edge, a merge block is a
    local function defined in its immediate dominator's code (every jump to
    it a tail call, which ocamlopt compiles as a static handler), and a
    natural loop is a [while] loop over local refs inside its header's
    code: [while <header> do <body> done] when its only exit is its
    header's Branch, else a loop on an exit-state ref.  A comparison only
    its block's Branch uses is written into the condition.  SSA dominance maps onto lexical scope, so no variable is
    threaded through a call.  Machine numbers stay unboxed; packed arrays
    of machine numbers are read and written through typed views, a
    parameter's projected once per call; open-coded primitives mirror
    {!Native}'s fast paths; anything else dispatches through
    [Wolf_runtime.Prims].  Each emit counts the loops in the metric
    [jit_loops_total{form="while"}], the guard loops among them in
    [{form="guard"}], and each declined module (the first
    irreducible function declines the whole module) in
    [jit_loops_total{form="declined"}]. *)

type emitted = {
  source : string;            (** complete OCaml compilation unit *)
  entry_symbol : string;      (** Wolf_plugin registration key of the entry *)
  constants : (string * Wolf_runtime.Rtval.t) list;
      (** plugin-table constants the host must register before loading *)
  loops : (string * int) list;
      (** every natural loop, each a [while] loop: function and header label *)
}

val emit : module_name:string -> Wolf_compiler.Pipeline.compiled -> (emitted, string) result
(** [Error "irreducible loop bN in F"] when a function's CFG is irreducible
    (only a hand-built TWIR or a user pass can make one): [bN] is the
    target of a retreating edge that does not dominate its source.  Such a
    program runs on the threaded backend, which takes any CFG. *)

val loop_forms_counter : string -> Wolf_obs.Metrics.counter
(** [jit_loops_total{form}] for [form] = ["while"] (loops), ["guard"]
    (the loops written [while <header> do]) or ["declined"] (modules). *)
