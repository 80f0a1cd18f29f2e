(** The ocamlopt JIT — this repo's stand-in for the paper's LLVM ORC JIT
    (see DESIGN.md substitutions).

    The emitted OCaml module ({!Ocaml_emit}) is compiled to a native shared
    object with [ocamlopt -shared] against the host build's interfaces and
    loaded with [Dynlink]; its entry point registers itself through
    {!Wolf_plugin}.  Compilation happens once per FunctionCompile, like an
    LLVM JIT's module finalisation.

    [available] is false when the toolchain or the build tree cannot be
    found (e.g. an installed binary far from its _build directory); callers
    fall back to the {!Native} threaded backend. *)

open Wolf_runtime

val available : unit -> bool

val rejected : unit -> int
(** How many emitted modules ocamlopt has rejected in this process (the
    metric [jit_ocamlopt_failures_total]).  Such a compile deoptimises to
    the threaded backend without an error, so a test of the JIT checks
    that this did not move. *)

(** Everything needed to relink a JIT-compiled module in another process of
    the same build, short of the .cmxs bytes themselves: the entry symbol,
    the host-side constants its initialiser reads, and the entry arity.
    This is what the persistent compile cache marshals; symbols inside
    [a_constants] must be re-interned after unmarshaling, before
    {!link_artifact}. *)
type artifact = {
  a_entry_symbol : string;
  a_constants : (string * Rtval.t) list;
  a_arity : int;
}

val compile :
  ?persist:(artifact -> cmxs:string -> unit) ->
  Wolf_compiler.Pipeline.compiled ->
  (Rtval.closure, string) result
(** Returns [Error reason] (toolchain missing, compile failure with the
    ocamlopt diagnostic) rather than raising; JIT failures must never break
    compilation, only deoptimise it.  [persist] sees a loaded module's
    relink recipe and its .cmxs (for the disk cache to slurp); then the
    module's build products leave {!sessions_dir}.  A module ocamlopt
    rejected keeps its .ml and .ml.log there. *)

val link_artifact : cmxs:string -> artifact -> (Rtval.closure, string) result
(** Register the constants, dynlink [cmxs] privately, look up the entry.
    Only meaningful for a .cmxs produced by the same executable build —
    the disk cache enforces that with an executable digest. *)

val export_library : Wolf_compiler.Pipeline.compiled -> path:string -> (string, string) result
(** [FunctionCompileExportLibrary] analogue: leave the compiled shared
    object at [path] and return the entry symbol; the object can be loaded
    into a later session with [Dynlink]. *)

val assembly : ?args:string -> file:string -> string -> (string, string) result
(** [assembly ~file source]: the assembly ocamlopt makes of [source],
    saved as [file] in {!sessions_dir}, with the JIT's own flags plus
    [args] ([-S -c]; nothing is linked).  The files it leaves there are
    deleted. *)

val sessions_dir : unit -> string
(** Scratch directory for each module's source and build products while it
    compiles. *)
