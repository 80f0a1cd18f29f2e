(* Loop-invariant code motion plus bounds-check elimination (the loop
   optimisation layer).

   LICM hoists pure instructions whose operands are defined outside the
   loop (or themselves hoisted) into the loop's preheader.  Hoisting is
   speculative — the preheader executes even for zero-trip loops — so only
   instructions that cannot fail are moved: Copy, and the pure primitives
   the table says never fail.  Checked integer arithmetic (an overflow in
   the preheader of a loop that never runs would fail a program that
   succeeds), division, element accesses (range traps) and the like stay
   put.

   BCE then takes the counted loops of {!Analysis.counted_loop}

     i = k (k >= 1); While[i <= n (or i < n), ... t[[i]] ..., i = i + 1]

   whose false arm leaves the loop and whose bound n = Length[t] (or
   StringLength[s]) of a loop-invariant container — after LICM has hoisted
   it when needed — and rewrites the guarded accesses to their _unchecked
   primitives.  Safety argument: i is an SSA header parameter, so it is
   fixed within an iteration; the false arm of the guard leaves the loop,
   so every body block executes only under i <= n; initial values on all
   entry edges are integer constants >= 1 and every latch steps the
   parameter by exactly +1, so 1 <= i <= Length holds at each rewritten
   access. *)

open Wir

(* Same restriction as CSE: hoist only scalar results so packed-array
   aliasing and the memory pass are untouched. *)
let scalar_result v =
  match v.vty with
  | Some t ->
    (match Types.repr t with
     | Types.Con (("Integer64" | "Real64" | "Boolean" | "String" | "ComplexReal64"), _) ->
       true
     | _ -> false)
  | None -> false

let licm_loop f (l : Analysis.loop) =
  let in_body label = Analysis.loop_contains l label in
  let loop_defs = Analysis.loop_defs f l in
  let hoisted_defs = Hashtbl.create 8 in
  let invariant_op = function
    | Oconst _ -> true
    | Ovar v -> (not (Hashtbl.mem loop_defs v.vid)) || Hashtbl.mem hoisted_defs v.vid
  in
  let hoistable = function
    | Copy { src; _ } -> invariant_op src
    | Call { dst; callee = Resolved { base; _ }; args } ->
      Wolf_runtime.Prims.holds base (fun r -> r.effect = Pure && r.fails = Never)
      && scalar_result dst && Array.for_all invariant_op args
    | _ -> false
  in
  let hoisted = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun b ->
         if in_body b.label then
           b.instrs <-
             List.filter
               (fun i ->
                  if hoistable i then begin
                    List.iter
                      (fun v -> Hashtbl.replace hoisted_defs v.vid ())
                      (instr_defs i);
                    hoisted := i :: !hoisted;
                    progress := true;
                    false
                  end
                  else true)
               b.instrs)
      f.blocks
  done;
  match List.rev !hoisted with
  | [] -> false
  | instrs ->
    let pre_label = Analysis.ensure_preheader f ~header:l.lheader ~latches:l.latches in
    let pre = find_block f pre_label in
    pre.instrs <- pre.instrs @ instrs;
    true

(* ------------------------------------------------------------------ *)
(* Bounds-check elimination. *)

let bce_loop f (l : Analysis.loop) =
  match Analysis.counted_loop f l with
  | Ok v when v.exits && v.steps_by_one && v.starts_at_least 1 -> (
    let chase = Analysis.chase_copies v.def_of in
    (* the access primitive the bound covers, and its container *)
    let covered =
      match v.bound with
      | Ovar n -> (
        match Analysis.resolved_def v.def_of n with
        | Some
            (Call
               { callee =
                   Resolved { base = ("array_length" | "string_length") as len; _ };
                 args = [| Ovar t |];
                 _ })
          when v.invariant (Ovar (chase t)) ->
          Some ((if len = "array_length" then "part_get_1" else "string_byte"), chase t)
        | _ -> None)
      | Oconst _ -> None
    in
    match covered with
    | None -> false
    | Some (access, t) ->
      let changed = ref false in
      List.iter
        (fun b ->
           if Analysis.loop_contains l b.label && b.label <> l.lheader then
             b.instrs <-
               List.map
                 (function
                   | Call
                       { dst;
                         callee = Resolved { base; _ } as callee;
                         args = [| Ovar t'; Ovar i' |] }
                     when base = access && (chase t').vid = t.vid
                          && (chase i').vid = v.iv.vid ->
                     changed := true;
                     Call
                       { dst;
                         callee = Analysis.sibling callee (access ^ "_unchecked");
                         args = [| Ovar t'; Ovar i' |] }
                   | i -> i)
                 b.instrs)
        f.blocks;
      !changed)
  | _ -> false

let run (p : program) =
  let changed = ref false in
  List.iter
    (fun f ->
       let entry_label = (entry f).label in
       let cfg = Analysis.build_cfg f in
       let loops = Analysis.natural_loops f cfg in
       (* outermost first, so invariants leave nested loops in one sweep and
          fresh inner preheaders never precede their operands' defs *)
       let loops = List.sort (fun a b -> compare a.Analysis.ldepth b.Analysis.ldepth) loops in
       List.iter
         (fun (l : Analysis.loop) ->
            if l.lheader <> entry_label && licm_loop f l then changed := true)
         loops;
       (* the CFG may have gained preheaders; recompute for BCE *)
       let cfg = Analysis.build_cfg f in
       let loops = Analysis.natural_loops f cfg in
       List.iter
         (fun (l : Analysis.loop) ->
            if l.lheader <> entry_label && bce_loop f l then changed := true)
         loops)
    p.funcs;
  !changed
