open Wir

(* Constant evaluation: a pure primitive on scalar constant operands runs
   its table implementation at compile time.  When it fails (overflow
   included; an [_unchecked] variant's index out of range) the fold is
   abandoned, so the failure happens at runtime with its soft-failure
   semantics; so is a result that is not a scalar constant of the
   destination's type.  The destination's type is asked first: a primitive
   whose result is an array (Range[10^15], a ConstantArray) never runs at
   compile time, where it would allocate even in a branch that never runs. *)
let fold_prim base dst (args : const array) : const option =
  let open Wolf_runtime in
  let rt = function
    | Cint i -> Rtval.Int i
    | Creal r -> Rtval.Real r
    | Cbool b -> Rtval.Bool b
    | Cstr s -> Rtval.Str s
    | Cvoid | Cexpr _ -> raise Exit
  in
  match dst.vty, Prims.find_opt base with
  | Some t, Some row
    when row.effect = Pure
         && List.exists (Types.equal t) Types.[ int64; real64; boolean; string_ ] -> (
    let c =
      match row.impl (Array.map rt args) with
      | Rtval.Int i -> Some (Cint i)
      | Rtval.Real r -> Some (Creal r)
      | Rtval.Bool b -> Some (Cbool b)
      | Rtval.Str s -> Some (Cstr s)
      | _ -> None
      | exception (Exit | Wolf_base.Errors.Runtime_error _ | Invalid_argument _) -> None
    in
    match c with
    | Some k when Types.equal (const_ty k) t -> c
    | _ -> None)
  | _ -> None

(* Only immutable scalar constants may be propagated through Copy chains.
   A [Cexpr] constant can hold a packed tensor: propagating it would replace
   distinct materialisations (each its own runtime value under the memory
   pass's acquire/release discipline) with one shared static tensor, and an
   in-place [part_set] on one alias would then corrupt the others — and the
   constant itself — across calls (the paper's E7 static-constants issue,
   found by the differential fuzzer). *)
let propagatable = function
  | Cvoid | Cint _ | Creal _ | Cbool _ | Cstr _ -> true
  | Cexpr _ -> false

let run (p : program) =
  let changed = ref false in
  List.iter
    (fun f ->
       (* map vid -> constant for vars defined as Copy of a constant *)
       let consts : (int, const) Hashtbl.t = Hashtbl.create 16 in
       let subst op =
         match op with
         | Ovar v ->
           (match Hashtbl.find_opt consts v.vid with
            | Some c -> changed := true; Oconst c
            | None -> op)
         | Oconst _ -> op
       in
       (* collect + rewrite until stable inside the function *)
       let folded_branch = ref false in
       let local_changed = ref true in
       while !local_changed do
         local_changed := false;
         List.iter
           (fun b ->
              b.instrs <-
                List.map
                  (fun i ->
                     let i = map_instr_operands subst i in
                     match i with
                     | Copy { dst; src = Oconst c } when propagatable c ->
                       if not (Hashtbl.mem consts dst.vid) then begin
                         Hashtbl.replace consts dst.vid c;
                         local_changed := true
                       end;
                       i
                     | Call { dst; callee = Resolved { base; _ }; args }
                       when Array.for_all (function Oconst _ -> true | Ovar _ -> false) args ->
                       let cargs =
                         Array.map (function Oconst c -> c | Ovar _ -> assert false) args
                       in
                       (match fold_prim base dst cargs with
                        | Some c ->
                          if not (Hashtbl.mem consts dst.vid) then begin
                            Hashtbl.replace consts dst.vid c;
                            local_changed := true;
                            changed := true
                          end;
                          Copy { dst; src = Oconst c }
                        | None -> i)
                     | _ -> i)
                  b.instrs;
              b.term <- map_term_operands subst b.term;
              (match b.term with
               | Branch { cond = Oconst (Cbool c); if_true; if_false } ->
                 b.term <- Jump (if c then if_true else if_false);
                 folded_branch := true;
                 changed := true;
                 local_changed := true
               | _ -> ()))
           f.blocks
       done;
       (* a folded branch can cut blocks off the CFG; drop them at once so
          the no-orphan invariant holds after every pass, not only after
          the next simplify-cfg run *)
       if !folded_branch then ignore (Opt_simplify_cfg.drop_unreachable f))
    p.funcs;
  !changed
