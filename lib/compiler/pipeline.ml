open Wolf_wexpr

type user_pass = {
  pass_name : string;
  pass_run : Wir.program -> unit;
}

type compiled = {
  program : Wir.program;
  coptions : Options.t;
  source : Expr.t;
  stats : Pass_manager.stat list;
  promotions : Mutability_pass.promotion list;
  ranges : Opt_range.tally;
}

let inplace_updates c =
  List.fold_left (fun n p -> n + p.Mutability_pass.pstores) 0 c.promotions

(* Overridable sink for --dump-after IR dumps (tests capture it; wolfc keeps
   the stderr default so dumps do not mix with the printed result). *)
let dump_hook : (string -> Wir.program -> unit) ref =
  ref (fun name prog ->
      Printf.eprintf "; ---- IR after %s ----\n%s\n%!" name
        (Wir_print.program_to_string prog))

(* Front half shared by the main entry and Wolfram-implementation
   instantiation: macro expand, bind, lower. *)
let front ~options ~macro_env ~name fexpr =
  let expanded = Macro.expand macro_env ~options:(Options.to_macro_options options) fexpr in
  let analyzed = Binding.analyze_function expanded in
  Lower.lower_function ~options ~name analyzed ~source:fexpr

(* The optimisation fixpoint members (paper §4.5).  Level 2 widens the
   inlining budget and lets the fixpoint run longer. *)
let opt_passes ~ranges ~(options : Options.t) =
  let max_instrs = if options.Options.opt_level >= 2 then 96 else 48 in
  [ Pass_manager.mk "fold" Opt_fold.run;
    Pass_manager.mk "simplify-cfg" Opt_simplify_cfg.run;
    Pass_manager.mk "indirect" Opt_indirect.run;
    Pass_manager.mk "cse" Opt_cse.run ]
  (* the loop layer: LICM, then range facts on the hoisted code, as one
     fixpoint member.  The analysis runs on the first round and after a
     round that hoisted something: what other passes change rarely lets it
     prove more, and skipping a round proves less, never wrongly *)
  @ (if options.Options.loop_opts then
       let analysed = ref false in
       [ Pass_manager.mk "licm" (fun prog ->
             let hoisted = Opt_licm.run prog in
             if hoisted || not !analysed then begin
               analysed := true;
               Opt_range.run ranges prog || hoisted
             end
             else false) ]
     else [])
  @ [ Pass_manager.mk "dce" Opt_dce.run;
      Pass_manager.mk "bparam-elim" Opt_bparam.run ]
  @ (if options.Options.inline_level > 0 then
       [ Pass_manager.mk "inline" (fun prog -> Opt_inline.run ~max_instrs prog) ]
     else [])

let fixpoint_budget (options : Options.t) =
  if options.Options.opt_level >= 2 then 32 else 16

let compile ?(options = Options.default) ?type_env ?macro_env ?(user_passes = []) ~name
    fexpr =
  let env = match type_env with Some e -> e | None -> Stdlib_decls.env () in
  let menv = match macro_env with Some m -> m | None -> Macro.functional_env () in
  let lint = options.Options.lint in
  let mgr =
    Pass_manager.create ~lint ~dump_after:options.Options.dump_after
      ~dump:(fun n p -> !dump_hook n p) ()
  in
  let prog =
    Pass_manager.record mgr "macro+binding+lower" (fun () ->
        front ~options ~macro_env:menv ~name fexpr)
  in
  Pass_manager.checkpoint mgr "lower" prog;
  let resolution_ref = ref None in
  ignore
    (Pass_manager.run_pass mgr
       (Pass_manager.mk "type-inference" (fun prog ->
            resolution_ref := Some (Infer.infer ~env prog);
            true))
       prog);
  let resolution =
    match !resolution_ref with Some t -> t | None -> assert false
  in
  (* function resolution: instantiate Wolfram-implemented declarations *)
  let compile_instance ~name body arg_tys ret_ty =
    let iprog = front ~options ~macro_env:menv ~name body in
    let main = Wir.main iprog in
    if Array.length main.Wir.fparams <> Array.length arg_tys then
      Wolf_base.Errors.compile_errorf
        "instantiating %s: arity mismatch (%d parameters, %d argument types)" name
        (Array.length main.Wir.fparams) (Array.length arg_tys);
    Array.iteri
      (fun i (v : Wir.var) -> v.Wir.vty <- Some arg_tys.(i))
      main.Wir.fparams;
    main.Wir.ret_ty <- Some ret_ty;
    let sub_table = Infer.infer ~env iprog in
    Hashtbl.iter (Hashtbl.replace resolution) sub_table;
    iprog.Wir.funcs
  in
  ignore
    (Pass_manager.run_pass mgr
       (Pass_manager.of_unit "function-resolution" (fun prog ->
            Resolve.run ~compile_instance ~table:resolution prog))
       prog);
  let ranges = Opt_range.tally () in
  if options.Options.opt_level > 0 then
    ignore
      (Pass_manager.run_fixpoint ~budget:(fixpoint_budget options) mgr
         (opt_passes ~options ~ranges) prog);
  if options.Options.parallel_loops && options.Options.opt_level > 0 then
    ignore
      (Pass_manager.run_pass mgr
         (Pass_manager.mk "parallel-loops" Opt_parloop.run)
         prog);
  List.iter
    (fun up ->
       ignore
         (Pass_manager.run_pass mgr
            (Pass_manager.of_unit ("user:" ^ up.pass_name) up.pass_run)
            prog))
    user_passes;
  let promotions = ref [] in
  ignore
    (Pass_manager.run_pass mgr
       (Pass_manager.mk "mutability" (fun prog ->
            promotions := Mutability_pass.run prog;
            !promotions <> []))
       prog);
  if options.Options.abort_handling then begin
    ignore
      (Pass_manager.run_pass mgr
         (Pass_manager.of_unit "abort-insertion" Abort_pass.run)
         prog);
    if
      options.Options.opt_level > 0 && options.Options.loop_opts
      && options.Options.abort_stride > 1
    then
      ignore
        (Pass_manager.run_pass mgr
           (Pass_manager.of_unit "abort-stride"
              (Opt_abort_stride.run ~stride:options.Options.abort_stride))
           prog)
  end;
  if options.Options.memory_management then
    ignore
      (Pass_manager.run_pass mgr
         (Pass_manager.of_unit "memory-management" Memory_pass.run)
         prog);
  ignore
    (Pass_manager.run_pass mgr
       (Pass_manager.mk "ground-check" (fun prog ->
            Infer.check_ground prog;
            false))
       prog);
  prog.Wir.pmeta <-
    [ ("AbortHandling", string_of_bool options.Options.abort_handling);
      ("InlineLevel", string_of_int options.Options.inline_level);
      ("OptimizationLevel", string_of_int options.Options.opt_level) ]
    @ List.filter
        (fun (k, _) -> String.starts_with ~prefix:"parloop." k)
        prog.Wir.pmeta;
  {
    program = prog;
    coptions = options;
    source = fexpr;
    stats = Pass_manager.stats mgr;
    promotions = !promotions;
    ranges;
  }

let compile_to_ast ?(options = Options.default) ?macro_env fexpr =
  let menv = match macro_env with Some m -> m | None -> Macro.builtin_env () in
  Mexpr.of_expr (Macro.expand menv ~options:(Options.to_macro_options options) fexpr)

let compile_to_wir ?(options = Options.default) ?macro_env ~name fexpr =
  let menv = match macro_env with Some m -> m | None -> Macro.builtin_env () in
  front ~options ~macro_env:menv ~name fexpr
