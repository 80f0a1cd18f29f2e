open Wolf_base
open Wir

type resolved = {
  rdecl : Type_env.decl;
  rarg_tys : Types.t array;
  rret_ty : Types.t;
}

(* A pending AlternativeConstraint: an overloaded call awaiting resolution. *)
type alternative = {
  aname : string;                       (* language-level operation name *)
  afunc : string;                       (* enclosing function, for errors *)
  ablock : int;
  aindex : int;                         (* instruction index within block *)
  asig : Types.t;                       (* Fun(arg types, result type) *)
  aret : Types.t;
  mutable candidates : Type_env.decl list;
  mutable chosen : Type_env.decl option;
}

let var_ty v =
  match v.vty with
  | Some t -> t
  | None ->
    let t = Types.fresh_var () in
    v.vty <- Some t;
    t

let op_ty op =
  match op with
  | Ovar v -> var_ty v
  | Oconst c -> Wir.const_ty c

let unify_or_fail ~where a b =
  match Unify.unify a b with
  | Ok () -> ()
  | Error msg -> Errors.compile_errorf "type error in %s: %s" where msg

(* ------------------------------------------------------------------ *)
(* Constraint generation                                               *)

let rec generate ~env (p : program) =
  let alternatives : alternative list ref = ref [] in
  let func_ret f =
    match f.ret_ty with
    | Some t -> t
    | None ->
      let t = Types.fresh_var () in
      f.ret_ty <- Some t;
      t
  in
  List.iter
    (fun f ->
       Array.iter (fun v -> ignore (var_ty v)) f.fparams;
       ignore (func_ret f))
    p.funcs;
  List.iter
    (fun f ->
       let where = f.fname in
       List.iter
         (fun b ->
            Array.iter (fun v -> ignore (var_ty v)) b.bparams;
            List.iteri
              (fun idx i ->
                 match i with
                 | Load_argument { dst; index } ->
                   if index < Array.length f.fparams then
                     unify_or_fail ~where (var_ty dst) (var_ty f.fparams.(index))
                 | Copy { dst; src } ->
                   unify_or_fail ~where (var_ty dst) (op_ty src)
                 | Call { dst; callee = Prim name; args } ->
                   let ret = var_ty dst in
                   let sig_ = Types.Fun (Array.map op_ty args, ret) in
                   (match name with
                    | "MaterializeConstant" ->
                      unify_or_fail ~where ret (op_ty args.(0))
                    | _ ->
                      let candidates = Type_env.lookup env name in
                      let arity_ok d =
                        match d.Type_env.scheme.Types.body with
                        | Types.Fun (ps, _) -> Array.length ps = Array.length args
                        | _ -> false
                      in
                      let candidates = List.filter arity_ok candidates in
                      alternatives :=
                        { aname = name; afunc = f.fname; ablock = b.label;
                          aindex = idx; asig = sig_; aret = ret; candidates;
                          chosen = None }
                        :: !alternatives)
                 | Call { callee = Resolved _; _ } -> ()
                 | Call { dst; callee = Func name; args } ->
                   (match Wir.find_func p name with
                    | Some callee ->
                      Array.iteri
                        (fun k a ->
                           if k < Array.length callee.fparams then
                             unify_or_fail ~where (op_ty a) (var_ty callee.fparams.(k)))
                        args;
                      unify_or_fail ~where (var_ty dst) (func_ret callee)
                    | None ->
                      Errors.compile_errorf "call to unknown function %s" name)
                 | Call { dst; callee = Indirect fop; args } ->
                   unify_or_fail ~where (op_ty fop)
                     (Types.Fun (Array.map op_ty args, var_ty dst))
                 | New_closure { dst; fname; captured } ->
                   (match Wir.find_func p fname with
                    | Some lifted ->
                      let ncap = Array.length captured in
                      Array.iteri
                        (fun k c ->
                           unify_or_fail ~where (op_ty c) (var_ty lifted.fparams.(k)))
                        captured;
                      let rest =
                        Array.sub lifted.fparams ncap (Array.length lifted.fparams - ncap)
                      in
                      unify_or_fail ~where (var_ty dst)
                        (Types.Fun (Array.map var_ty rest, func_ret lifted))
                    | None -> Errors.compile_errorf "closure over unknown function %s" fname)
                 | Kernel_call { dst; _ } ->
                   unify_or_fail ~where (var_ty dst) Types.expression
                 | Abort_check | Abort_poll _ | Mem_acquire _ | Mem_release _ -> ())
              b.instrs;
            (match b.term with
             | Jump j -> unify_jump ~where f j
             | Branch { cond; if_true; if_false } ->
               unify_or_fail ~where (op_ty cond) Types.boolean;
               unify_jump ~where f if_true;
               unify_jump ~where f if_false
             | Return op -> unify_or_fail ~where (op_ty op) (func_ret f)
             | Unreachable -> ()))
         f.blocks)
    p.funcs;
  List.rev !alternatives

and unify_jump ~where f j =
  let tgt = Wir.find_block f j.target in
  Array.iteri
    (fun k a ->
       if k < Array.length tgt.bparams then
         unify_or_fail ~where (op_ty a) (var_ty tgt.bparams.(k)))
    j.jargs

(* ------------------------------------------------------------------ *)
(* Alternative solving                                                 *)

(* Feasibility test: can this declaration still unify with the call
   signature?  Always rolled back. *)
let candidate_fits alt decl =
  let fits = ref false in
  ignore
    (Unify.speculate (fun () ->
         let inst = Types.instantiate decl.Type_env.scheme in
         (match Unify.unify inst alt.asig with
          | Ok () -> fits := true
          | Error _ -> ());
         None));
  !fits

let commit alt decl =
  let inst = Types.instantiate decl.Type_env.scheme in
  (match Unify.unify inst alt.asig with
   | Ok () -> ()
   | Error msg ->
     Errors.compile_errorf "resolution of %s in %s failed: %s" alt.aname alt.afunc msg);
  alt.chosen <- Some decl

let solve alternatives =
  let pending = ref alternatives in
  let progress = ref true in
  while !pending <> [] && !progress do
    progress := false;
    let still = ref [] in
    List.iter
      (fun alt ->
         let viable = List.filter (candidate_fits alt) alt.candidates in
         if List.length viable < List.length alt.candidates then progress := true;
         alt.candidates <- viable;
         match viable with
         | [] ->
           Errors.compile_errorf
             "no matching definition for %s in %s (signature %s); \
              declare it in the type environment"
             alt.aname alt.afunc (List.hd (Types.to_strings [ alt.asig ]))
         | [ only ] ->
           commit alt only;
           progress := true
         | _ -> still := alt :: !still)
      !pending;
    pending := List.rev !still;
    if (not !progress) && !pending <> [] then begin
      (* No more information will arrive: commit the most specific surviving
         candidate (declaration order = the computed ordering, §4.4) of the
         first pending alternative, then resume propagation. *)
      match !pending with
      | alt :: rest ->
        (match alt.candidates with
         | best :: _ ->
           commit alt best;
           pending := rest;
           progress := true
         | [] -> assert false)
      | [] -> ()
    end
  done

(* ------------------------------------------------------------------ *)
(* Write-back                                                          *)

let mangled_name decl arg_tys =
  match decl.Type_env.impl with
  | Type_env.Prim base -> Types.mangled base arg_tys
  | Type_env.Wolfram _ -> Types.mangled ~sep:"$" decl.Type_env.dname arg_tys
  | Type_env.External name -> name

let write_back p alternatives table =
  List.iter
    (fun alt ->
       let f = List.find (fun f -> String.equal f.fname alt.afunc) p.funcs in
       let b = Wir.find_block f alt.ablock in
       b.instrs <-
         List.mapi
           (fun idx i ->
              if idx <> alt.aindex then i
              else
                match i, alt.chosen with
                | Call { dst; callee = Prim _; args }, Some decl ->
                  let arg_tys = Array.map op_ty args in
                  let ret_ty = var_ty dst in
                  let mangled = mangled_name decl arg_tys in
                  Hashtbl.replace table mangled
                    { rdecl = decl; rarg_tys = arg_tys; rret_ty = ret_ty };
                  let base =
                    match decl.Type_env.impl with
                    | Type_env.Prim base -> base
                    | Type_env.Wolfram _ -> decl.Type_env.dname
                    | Type_env.External name -> name
                  in
                  Call { dst; callee = Resolved { base; mangled }; args }
                | other, _ -> other)
           b.instrs)
    alternatives

let infer ~env p =
  let alternatives = generate ~env p in
  solve alternatives;
  let table : (string, resolved) Hashtbl.t = Hashtbl.create 32 in
  write_back p alternatives table;
  (* the constant-materialisation pseudo-primitive resolves to itself *)
  List.iter
    (fun f ->
       List.iter
         (fun b ->
            b.instrs <-
              List.map
                (function
                  | Call { dst; callee = Prim "MaterializeConstant"; args } ->
                    Call
                      { dst;
                        callee =
                          Resolved
                            { base = "materializeconstant";
                              mangled = "materializeconstant" };
                        args }
                  | i -> i)
                b.instrs)
         f.blocks)
    p.funcs;
  table

let check_ground p =
  List.iter
    (fun f ->
       Wir.iter_vars f (fun v ->
           match v.vty with
           | Some t when Types.is_ground t -> ()
           | Some t ->
             Errors.compile_errorf
               "variable %%%d in %s has unresolved type %s (annotate with Typed)"
               v.vid f.fname (List.hd (Types.to_strings [ t ]))
           | None ->
             Errors.compile_errorf "variable %%%d in %s has no type" v.vid f.fname))
    p.funcs
