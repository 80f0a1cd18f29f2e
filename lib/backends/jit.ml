open Wolf_runtime

(* module-name serial: atomic so concurrent JIT compiles on different
   domains never write the same .ml/.cmxs path *)
let counter = Atomic.make 0

(* Dynlink gives no thread-safety guarantee, and a load publishes entries in
   the Wolf_plugin registry; serialize load+lookup so two domains plugging
   modules concurrently can't interleave *)
let dynlink_lock = Mutex.create ()

(* Locate the dune build tree to find the host libraries' .cmi files. *)
let find_build_root () =
  let rec search dir depth =
    if depth > 8 then None
    else begin
      let candidate = Filename.concat dir "_build/default/lib" in
      if Sys.file_exists candidate && Sys.is_directory candidate then
        Some (Filename.concat dir "_build/default")
      else begin
        let parent = Filename.dirname dir in
        if parent = dir then None else search parent (depth + 1)
      end
    end
  in
  let from_exe =
    let exe = Sys.executable_name in
    search (Filename.dirname exe) 0
  in
  match from_exe with
  | Some _ as r -> r
  | None -> search (Sys.getcwd ()) 0

let include_dirs () =
  match find_build_root () with
  | None -> None
  | Some root ->
    let libs =
      [ "lib/base/.wolf_base.objs/byte";
        "lib/wexpr/.wolf_wexpr.objs/byte";
        "lib/runtime/.wolf_runtime.objs/byte";
        "lib/plugin_api/.wolf_plugin_api.objs/byte" ]
    in
    let dirs = List.map (Filename.concat root) libs in
    if List.for_all Sys.file_exists dirs then Some dirs else None

let ocamlopt () =
  let candidates = [ "ocamlfind ocamlopt"; "ocamlopt.opt"; "ocamlopt" ] in
  List.find_opt
    (fun c ->
       let cmd = Printf.sprintf "%s -version >/dev/null 2>&1" c in
       Sys.command cmd = 0)
    (List.tl candidates) (* prefer plain ocamlopt; ocamlfind adds noise *)
  |> function
  | Some c -> Some c
  | None -> List.find_opt (fun c -> Sys.command (c ^ " -version >/dev/null 2>&1") = 0) candidates

let sessions_dir () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "wolfram-compiler-jit" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  dir

let available () =
  Dynlink.is_native && Option.is_some (include_dirs ()) && Option.is_some (ocamlopt ())

let rejected_counter () =
  Wolf_obs.Metrics.counter ~help:"JIT modules that ocamlopt rejected"
    "jit_ocamlopt_failures_total"

let rejected () = Wolf_obs.Metrics.counter_value (rejected_counter ())

(* Delete what compiling the module [ml] left in the sessions directory
   (a loaded module needs none of it), all but the source and its ocamlopt
   log when [keep_source]. *)
let remove_products ~keep_source ml =
  let base = Filename.remove_extension ml in
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    ((if keep_source then [] else [ ml; ml ^ ".log" ])
     @ List.map (( ^ ) base) [ ".cmi"; ".cmx"; ".o"; ".cmxs" ])

(* Run ocamlopt with the JIT's flags and [args] on [ml], its output in
   [log]; -O2 only exists under flambda, so a failure retries without it *)
let run_ocamlopt compiler dirs args ml log =
  let includes = String.concat " " (List.map (Printf.sprintf "-I %s") dirs) in
  let run o2 =
    Sys.command
      (Printf.sprintf "%s -w -a%s %s %s %s >%s 2>&1" compiler (if o2 then " -O2" else "") includes
         args (Filename.quote ml) (Filename.quote log))
    = 0
  in
  run true || run false

let assembly ?(args = "") ~file source =
  match include_dirs (), ocamlopt () with
  | None, _ -> Error "JIT unavailable: cannot locate the dune build tree (.cmi files)"
  | _, None -> Error "JIT unavailable: no ocamlopt on PATH"
  | Some dirs, Some compiler ->
    let ml = Filename.concat (sessions_dir ()) file in
    Out_channel.with_open_bin ml (fun oc -> output_string oc source);
    let base = Filename.remove_extension ml in
    let ok = run_ocamlopt compiler dirs ("-S -c " ^ args) ml (ml ^ ".log") in
    let s = if ok then Some (In_channel.with_open_bin (base ^ ".s") In_channel.input_all) else None in
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ())
      (ml :: (ml ^ ".log") :: List.map (( ^ ) base) [ ".s"; ".cmi"; ".cmx"; ".o" ]);
    Option.to_result ~none:("ocamlopt failed on " ^ file) s

let compile_to_cmxs (c : Wolf_compiler.Pipeline.compiled) =
  Wolf_obs.Trace.with_span ~cat:"codegen" "jit-codegen" @@ fun () ->
  match include_dirs (), ocamlopt () with
  | None, _ -> Error "JIT unavailable: cannot locate the dune build tree (.cmi files)"
  | _, None -> Error "JIT unavailable: no ocamlopt on PATH"
  | Some dirs, Some compiler ->
    let serial = Atomic.fetch_and_add counter 1 + 1 in
    let module_name = Printf.sprintf "Wolfjit_%d_%d" (Unix.getpid ()) serial in
    Result.bind (Ocaml_emit.emit ~module_name c) @@ fun emitted ->
    let dir = sessions_dir () in
    let ml = Filename.concat dir (String.lowercase_ascii module_name ^ ".ml") in
    let cmxs = Filename.concat dir (String.lowercase_ascii module_name ^ ".cmxs") in
    let oc = open_out ml in
    output_string oc emitted.source;
    close_out oc;
    let log = ml ^ ".log" in
    (match run_ocamlopt compiler dirs ("-shared -o " ^ Filename.quote cmxs) ml log with
     | false ->
       let diag =
         try
           let ic = open_in log in
           let n = in_channel_length ic in
           let s = really_input_string ic (min n 2000) in
           close_in ic;
           s
         with _ -> "(no diagnostic)"
       in
       Wolf_obs.Metrics.incr (rejected_counter ());
       (* a rejected module keeps its source and diagnostic for the report *)
       remove_products ~keep_source:true ml;
       Error (Printf.sprintf "ocamlopt failed:\n%s" diag)
     | true -> Ok (emitted, ml, cmxs))

(* Everything needed to relink a compiled module in another process of the
   same build: the .cmxs on disk plus the host-side state its entry needs.
   The persistent compile cache stores [a_constants] marshaled — callers
   must re-intern any symbols inside before handing the artifact here. *)
type artifact = {
  a_entry_symbol : string;
  a_constants : (string * Rtval.t) list;
  a_arity : int;
}

let link_artifact ~cmxs art =
  Wolf_obs.Trace.with_span ~cat:"codegen" "jit-dynlink" @@ fun () ->
  Mutex.lock dynlink_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock dynlink_lock) @@ fun () ->
  (* host-side constants must be visible before the module initialises;
     the linked module pools each constant for its lifetime, so hold a
     claim on tensors — a COW store then copies instead of mutating the
     pooled value on the next call *)
  List.iter
    (fun (key, rt) ->
       (match rt with
        | Rtval.Tensor t -> Wolf_wexpr.Tensor.acquire t
        | _ -> ());
       Wolf_plugin.register key (Obj.repr (rt : Rtval.t)))
    art.a_constants;
  (match Dynlink.loadfile_private cmxs with
   | () ->
     (match Wolf_plugin.lookup art.a_entry_symbol with
      | Some entry ->
        let call : Rtval.t array -> Rtval.t = Obj.obj entry in
        Ok { Rtval.arity = art.a_arity; call }
      | None -> Error "JIT: plugin loaded but entry symbol missing")
   | exception Dynlink.Error e -> Error ("Dynlink: " ^ Dynlink.error_message e)
   | exception e -> Error ("Dynlink: " ^ Printexc.to_string e))

let compile ?(persist = fun _ ~cmxs:_ -> ()) c =
  match compile_to_cmxs c with
  | Error e -> Error e
  | Ok (emitted, ml, cmxs) ->
    Fun.protect ~finally:(fun () -> remove_products ~keep_source:false ml) @@ fun () ->
    let main = Wolf_compiler.Wir.main c.Wolf_compiler.Pipeline.program in
    let art =
      { a_entry_symbol = emitted.Ocaml_emit.entry_symbol;
        a_constants = emitted.Ocaml_emit.constants;
        a_arity = Array.length main.Wolf_compiler.Wir.fparams }
    in
    let linked = link_artifact ~cmxs art in
    if Result.is_ok linked then persist art ~cmxs;
    linked

let export_library c ~path =
  match compile_to_cmxs c with
  | Error _ as e -> e
  | Ok (emitted, ml, cmxs) ->
    Fun.protect ~finally:(fun () -> remove_products ~keep_source:false ml) @@ fun () ->
    let ic = open_in_bin cmxs in
    let n = in_channel_length ic in
    let contents = really_input_string ic n in
    close_in ic;
    let oc = open_out_bin path in
    output_string oc contents;
    close_out oc;
    Ok emitted.Ocaml_emit.entry_symbol
