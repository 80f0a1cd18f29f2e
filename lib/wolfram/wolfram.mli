(** Public API of the Wolfram Language compiler reproduction.

    Mirrors the paper's user-visible surface: [FunctionCompile] (§4.1),
    the intermediate-representation inspectors from the artifact appendix
    ([CompileToAST] / [CompileToIR]), export ([FunctionCompileExportString],
    [FunctionCompileExportLibrary]), the legacy [Compile] (bytecode, §2.2),
    and seamless interpreter integration (F1): compiled functions install
    into the kernel and are then called like any other definition. *)

open Wolf_wexpr

type target =
  | Jit              (** ocamlopt native JIT (default; the LLVM stand-in) *)
  | Threaded         (** closure-threaded native backend (no toolchain needed) *)
  | Bytecode         (** the legacy WVM bytecode compiler (the baseline) *)
  | Tier             (** interpret now, promote to -O2 in the background *)

(** Tiering controller (re-export; see DESIGN.md "Tiered execution"). *)
module Tier : module type of Tier

type compiled =
  | Native of Wolf_backends.Compiled_function.t
  | Wvm of Wolf_backends.Wvm.compiled_function
  | Tiered of Tier.t

val init : unit -> unit
(** Start the kernel session, and install the compiler's auto-compilation
    hook used by numerical solvers such as [FindRoot] (E4).  Idempotent. *)

val function_compile :
  ?options:Wolf_compiler.Options.t ->
  ?type_env:Wolf_compiler.Type_env.t ->
  ?macro_env:Wolf_compiler.Macro.env ->
  ?user_passes:Wolf_compiler.Pipeline.user_pass list ->
  ?target:target ->
  ?name:string ->
  Expr.t ->
  compiled
(** Compile a [Function[…]].  With [target = Jit], silently falls back to
    [Threaded] when the toolchain is unavailable. *)

val function_compile_src :
  ?options:Wolf_compiler.Options.t -> ?target:target -> ?name:string ->
  string -> compiled
(** Parse then compile. *)

val tiered :
  ?options:Wolf_compiler.Options.t ->
  ?threshold:int ->
  ?promote_target:target ->
  ?name:string ->
  Expr.t ->
  compiled
(** A [Tiered] callable without touching any cache: tier 0 is the
    interpreter, and once heat crosses [threshold] (default
    {!Tier.default_threshold}) a background domain compiles at -O2 via
    [promote_target] (default [Jit]; [Tier] coerces to [Jit]) and
    hot-swaps the closure.  [function_compile ~target:Tier] is the cached
    variant: the instance — heat, state, promoted closure — is shared by
    everyone who asks for the same (source, options, name). *)

val tier_of : compiled -> Tier.t option
(** The controller behind a [Tiered] value (state, counters, await). *)

val call : compiled -> Expr.t list -> Expr.t
(** Apply with full language semantics (boxing, soft failure, abort). *)

val call_values :
  compiled -> Wolf_runtime.Rtval.t list -> Wolf_runtime.Rtval.t
(** Raw entry: raises on runtime failures (used by benchmarks to measure
    without the fallback wrapper). *)

val install : string -> compiled -> unit
(** Bind a compiled function to a symbol so interpreted code calls it
    transparently (F1): [install "f" cf] makes [f[…]] use compiled code. *)

val interpret : string -> Expr.t
val interpret_expr : Expr.t -> Expr.t

val compile_to_ast : ?options:Wolf_compiler.Options.t -> string -> string
(** The artifact's [CompileToAST[…]["toString"]]. *)

val compile_to_ir :
  ?options:Wolf_compiler.Options.t -> ?optimize:bool -> ?name:string ->
  string -> string
(** The artifact's [CompileToIR[…]["toString"]]: untyped WIR with
    [optimize:false]; typed, resolved, optimised TWIR otherwise. *)

val export_string :
  ?options:Wolf_compiler.Options.t -> ?name:string ->
  format:[ `C | `OCaml ] -> string -> (string, string) result
(** [FunctionCompileExportString] analogue. *)

val export_library :
  ?options:Wolf_compiler.Options.t -> ?name:string -> path:string -> string ->
  (string, string) result
(** [FunctionCompileExportLibrary]: native shared object on disk. *)

val pipeline_of : compiled -> Wolf_compiler.Pipeline.compiled option
(** Per-pass instrumentation stats and the final IR — for tooling and the
    E8 benchmark.  The pipeline travels with the compiled function, so it
    is this compile's own; [None] for WVM and tiered functions and for a
    JIT function revived from the disk cache. *)

val fallback_count : compiled -> int

val compile_cache_stats : unit -> Wolf_compiler.Compile_cache.stats
(** Hit/miss/eviction counters of the facade's compile cache.  A second
    identical [function_compile] in-process is a cache hit; any change to
    the source text, any {!Wolf_compiler.Options.t} field, the target, or
    the name misses.  Compiles with custom environments or user passes
    bypass the cache entirely (counters untouched). *)

val compile_cache_clear : unit -> unit
(** Drop all cached compilations and zero the counters. *)

val set_disk_cache : Wolf_compiler.Disk_cache.t option -> unit
(** Attach (or detach) a persistent on-disk compile cache.  While attached,
    cacheable compiles probe it between the in-memory cache and the
    pipeline — WVM images and JIT artifacts (.cmxs + relink recipe) are
    loaded/stored by the same fingerprint keys; threaded results stay
    memory-only (closure trees don't marshal).  Attaching registers the
    cache's metrics source ([disk_cache_*]). *)

val disk_cache : unit -> Wolf_compiler.Disk_cache.t option

val disk_cache_stats : unit -> Wolf_compiler.Disk_cache.stats option
