(** FunctionCompile options (paper §4.7: macro rules, passes and type-system
    definitions can be predicated on these). *)

type t = {
  abort_handling : bool;     (** insert abort checks (F3); "AbortHandling" *)
  inline_level : int;        (** 0 = off (the paper's 10× Mandelbrot ablation) *)
  opt_level : int;           (** 0 = none, 1 = standard TWIR optimisations *)
  static_constants : bool;   (** false = re-materialise constant arrays per
                                 call (the paper's PrimeQ 1.5× issue, E7) *)
  memory_management : bool;  (** insert acquire/release (F7) *)
  lint : bool;               (** run the full {!Wir_verify} IR verifier after
                                 every pass that changes the IR and record
                                 its time per pass (on by default) *)
  self_name : string option; (** name for recursive self-reference (cfib) *)
  target_system : string;    (** e.g. "LLVM", "WVM", "C"; macros may condition on it *)
  dump_after : string list;  (** dump IR after these passes ("all" = every pass) *)
  use_cache : bool;          (** consult the compile cache ({!Compile_cache}) *)
  loop_opts : bool;          (** natural-loop optimisations (LICM, bounds-check
                                 elimination, strided abort polling) at -O1+ *)
  abort_stride : int;        (** back-edges between real abort checks in
                                 innermost call-free loops (1 = every
                                 iteration) *)
  profile : bool;            (** instrument emitted functions with call
                                 counts and self-time
                                 ({!Wolf_obs.Profile}; wolfc
                                 [run --profile]) *)
  parallel_loops : bool;     (** recognise parallelisable counted loops and
                                 lower them onto the domain pool
                                 ({!Opt_parloop}; wolfc
                                 [run --parallel-loops]) *)
}

val default : t
val to_macro_options : t -> (string * Wolf_wexpr.Expr.t) list

val fingerprint : t -> string
(** Stable textual rendering of every field — the options component of a
    compile-cache key. *)
