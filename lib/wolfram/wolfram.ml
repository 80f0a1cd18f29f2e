open Wolf_wexpr
open Wolf_compiler
open Wolf_backends

type target =
  | Jit
  | Threaded
  | Bytecode
  | Tier

type compiled =
  | Native of Compiled_function.t
  | Wvm of Wvm.compiled_function
  | Tiered of Tier.t

module Tier = Tier

(* The auto-compilation service used by numerical solvers (paper §1 / E4):
   compile a scalar real expression in one free variable into float -> float.
   The threaded backend keeps auto-compilation latency small, like the
   bytecode compiler the engine historically used for this. *)
let auto_compile_scalar expr sym =
  let fexpr =
    Expr.normal (Expr.Sym Expr.Sy.function_)
      [ Expr.list
          [ Expr.normal (Expr.Sym Expr.Sy.typed) [ Expr.Sym sym; Expr.Str "Real64" ] ];
        expr ]
  in
  match
    Pipeline.compile
      ~options:{ Options.default with abort_handling = false; lint = false }
      ~name:"autocompiled" fexpr
  with
  | c ->
    let f = Native.compile c in
    Some
      (fun (x : float) ->
         match f.Wolf_runtime.Rtval.call [| Wolf_runtime.Rtval.Real x |] with
         | Wolf_runtime.Rtval.Real r -> r
         | Wolf_runtime.Rtval.Int i -> float_of_int i
         | _ -> raise (Wolf_base.Errors.Eval_error "autocompile: non-numeric"))
  | exception _ -> None

(* once-only init, race-free: the first caller wins, concurrent callers wait
   until installation has finished rather than observing a half-built kernel *)
let initialized = Atomic.make false
let init_lock = Mutex.create ()

let init () =
  if not (Atomic.get initialized) then begin
    Mutex.lock init_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock init_lock) (fun () ->
        if not (Atomic.get initialized) then begin
          Wolf_kernel.Session.init ();
          Wolf_runtime.Hooks.auto_compile_scalar := auto_compile_scalar;
          Atomic.set initialized true
        end)
  end

(* The content-addressed compile cache (DESIGN.md "Pass manager & compile
   cache"): repeated Compile/run calls on identical (source, options,
   target, name) are near-free.  Only the plain path is cached — a custom
   type/macro environment or user passes can change the result in ways the
   key cannot see. *)
(* Occupancy estimate for the metrics registry: the words reachable from a
   cached closure (compiled code, captured IR, constants).  Only paid once
   per insert, against a multi-millisecond compile. *)
let weigh_compiled (c : compiled) = 8 * Obj.reachable_words (Obj.repr c)

let compile_cache : compiled Compile_cache.t =
  Compile_cache.create ~capacity:256 ~weigh:weigh_compiled ()

let () = Compile_cache.register_metrics ~prefix:"compile_cache" compile_cache
let () = Wolf_obs.Profile.register_metrics ()

let compile_cache_stats () = Compile_cache.stats compile_cache
let compile_cache_clear () = Compile_cache.clear compile_cache

let target_name = function
  | Jit -> "jit"
  | Threaded -> "threaded"
  | Bytecode -> "bytecode"
  | Tier -> "tier"

(* The persistent layer: when a directory is attached, cacheable compiles
   probe it between the in-memory cache and the pipeline, and publish
   what they build.  Facade-level so wolfc, wolfd and the bench harness
   share one switch. *)
let set_disk_cache dc = Disk_store.set dc
let disk_cache () = Disk_store.get ()
let disk_cache_stats () = Option.map Disk_cache.stats (Disk_store.get ())

let rec function_compile ?options ?type_env ?macro_env ?user_passes
    ?(target = Jit) ?(name = "Main") fexpr =
  init ();
  let opts = Option.value ~default:Options.default options in
  let cacheable =
    opts.Options.use_cache && Option.is_none type_env && Option.is_none macro_env
    && (match user_passes with None | Some [] -> true | Some _ -> false)
  in
  let key =
    if cacheable then
      Some
        (Compile_cache.key ~source:fexpr ~options:opts
           ~target:(target_name target ^ ":" ^ name))
    else None
  in
  let disk = if cacheable then Disk_store.get () else None in
  let build () =
    Wolf_obs.Trace.with_span ~cat:"compile" "function-compile"
      ~args:[ ("name", Wolf_obs.Trace.arg_str name);
              ("target", Wolf_obs.Trace.arg_str (target_name target)) ]
    @@ fun () ->
    (* the disk probe sits under the in-memory layer: an in-memory hit
       never touches disk, a disk hit skips the whole pipeline *)
    let disk_hit =
      match disk, key with
      | Some d, Some k ->
        (match target with
         | Bytecode ->
           (match Disk_store.load_wvm d ~key:k with
            | Some w -> Some (Wvm w)
            | None -> None)
         | Jit when not opts.Options.profile ->
           (match Disk_store.load_jit d ~key:k ~name ~source:fexpr with
            | Some cf -> Some (Native cf)
            | None -> None)
         | Jit | Threaded | Tier -> None)
      | _ -> None
    in
    match disk_hit with
    | Some r -> r
    | None ->
      match target with
      | Tier -> Tiered (make_tiered ~options:opts ~name fexpr)
      | Bytecode ->
        let w = Wvm.compile ~name fexpr in
        (match disk, key with
         | Some d, Some k -> Disk_store.store_wvm d ~key:k w
         | _ -> ());
        Wvm w
      | Jit | Threaded ->
        let c = Pipeline.compile ~options:opts ?type_env ?macro_env ?user_passes ~name fexpr in
        let main = Wir.main c.Pipeline.program in
        let arg_tys =
          Array.map
            (fun (v : Wir.var) -> Option.value ~default:Types.expression v.Wir.vty)
            main.Wir.fparams
        in
        let ret_ty = Option.value ~default:Types.expression main.Wir.ret_ty in
        let closure =
          match target with
          | Jit when not opts.Options.profile ->
            let persist art ~cmxs =
              match disk, key with
              | Some d, Some k -> Disk_store.store_jit d ~key:k ~art ~cmxs ~arg_tys ~ret_ty
              | _ -> ()
            in
            (match Jit.compile ~persist c with
             | Ok f -> f
             | Error _ -> Native.compile c)
          | Jit | Threaded | Bytecode | Tier ->
            (* profiling instruments per function, which only the threaded
               backend's closure tree supports — a profiled jit request runs
               threaded so the hot-function table is per-function, not one
               opaque entry *)
            Native.compile c
        in
        let wrapped =
          Compiled_function.wrap ~pipeline:c ~name ~source:fexpr ~arg_tys ~ret_ty closure
        in
        Native wrapped
  in
  match key with
  | None -> build ()
  | Some key ->
    (* per-key in-flight dedup: two domains compiling the same source see
       one compile; the second blocks briefly and shares the result.
       Tiered entries are cached too: the instance (with its heat and its
       promoted closure) is shared by every requester of the same
       (source, options, name), so one wolfd session's heat promotes for
       all of them. *)
    Compile_cache.find_or_compute compile_cache key ~build

(* Build a tiered callable: tier 0 applies the source through the
   interpreter; the promotion thunk runs the normal compile path (at
   opt_level 2, through both cache layers) on the background domain and
   returns a closure with identical call semantics (admission, soft
   fallback, abort) to an AOT compile. *)
and make_tiered ?threshold ?(promote_target = Jit) ~options ~name fexpr =
  let promote () =
    let popts = { options with Options.opt_level = 2 } in
    let target = match promote_target with Tier -> Jit | t -> t in
    let cf = function_compile ~options:popts ~target ~name fexpr in
    (* unwrap the common case so a promoted call costs exactly an AOT
       call: no list round-trip, no re-dispatch through the facade *)
    (match cf with
     | Native t -> fun args -> Compiled_function.call t args
     | Wvm w -> fun args -> Wvm.call w args
     | Tiered _ -> fun args -> call cf (Array.to_list args))
  in
  Tier.create ?threshold ~name ~source:fexpr ~promote ()

and call cf args =
  init ();
  match cf with
  | Native t -> Compiled_function.call t (Array.of_list args)
  | Wvm w -> Wvm.call w (Array.of_list args)
  | Tiered t -> Tier.call t (Array.of_list args)

let tiered ?options ?threshold ?promote_target ?(name = "Main") fexpr =
  init ();
  let opts = Option.value ~default:Options.default options in
  Tiered (make_tiered ?threshold ?promote_target ~options:opts ~name fexpr)

let tier_of = function
  | Tiered t -> Some t
  | Native _ | Wvm _ -> None

let function_compile_src ?options ?target ?name src =
  function_compile ?options ?target ?name (Parser.parse src)

let call_values cf args =
  match cf with
  | Native t -> Compiled_function.call_values t (Array.of_list args)
  | Wvm w -> Wvm.call_values w (Array.of_list args)
  | Tiered t ->
    Wolf_runtime.Rtval.of_expr
      (Tier.call t
         (Array.of_list (List.map Wolf_runtime.Rtval.to_expr args)))

let install name cf =
  init ();
  let sym = Symbol.intern name in
  match cf with
  | Native t ->
    Wolf_kernel.Values.set_compiled_value sym (Compiled_function.kernel_closure t)
  | Wvm w ->
    Wolf_kernel.Values.set_compiled_value sym
      { Wolf_runtime.Rtval.arity = Wvm.arity w;
        call = (fun vals -> Wvm.call_values w vals) }
  | Tiered t ->
    Wolf_kernel.Values.set_compiled_value sym
      { Wolf_runtime.Rtval.arity = Tier.arity t;
        call =
          (fun vals ->
            Wolf_runtime.Rtval.of_expr
              (Tier.call t (Array.map Wolf_runtime.Rtval.to_expr vals))) }

let interpret src =
  init ();
  Wolf_kernel.Session.run src

let interpret_expr e =
  init ();
  Wolf_kernel.Session.eval e

let compile_to_ast ?options src =
  Mexpr.to_string (Pipeline.compile_to_ast ?options (Parser.parse src))

let compile_to_ir ?options ?(optimize = true) ?(name = "Main") src =
  let fexpr = Parser.parse src in
  if optimize then begin
    let c = Pipeline.compile ?options ~name fexpr in
    Wir_print.program_to_string c.Pipeline.program
  end
  else
    Wir_print.program_to_string (Pipeline.compile_to_wir ?options ~name fexpr)

let export_string ?options ?(name = "Main") ~format src =
  init ();
  let c = Pipeline.compile ?options ~name (Parser.parse src) in
  match format with
  | `C ->
    (match C_emit.emit c with
     | Ok e -> Ok e.C_emit.source
     | Error _ as e -> e)
  | `OCaml -> Result.map (fun e -> e.Ocaml_emit.source) (Ocaml_emit.emit ~module_name:"Exported" c)

let export_library ?options ?(name = "Main") ~path src =
  init ();
  let c = Pipeline.compile ?options ~name (Parser.parse src) in
  Jit.export_library c ~path

let pipeline_of = function
  | Native t -> t.Compiled_function.pipeline
  | Wvm _ | Tiered _ -> None

let fallback_count = function
  | Native t -> Atomic.get t.Compiled_function.fallbacks
  | Wvm _ | Tiered _ -> 0
