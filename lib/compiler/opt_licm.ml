(* Loop-invariant code motion (the loop optimisation layer).

   LICM hoists pure instructions whose operands are defined outside the
   loop (or themselves hoisted) into the loop's preheader.  Hoisting is
   speculative — the preheader executes even for zero-trip loops — so only
   instructions that cannot fail are moved: Copy, and the pure primitives
   the table says never fail.  Checked integer arithmetic (an overflow in
   the preheader of a loop that never runs would fail a program that
   succeeds), division, element accesses (range traps) and the like stay
   put — until {!Opt_range}, which runs right after it in the same
   fixpoint member, proves a checked [i + 1] or [i - 1] in range and gives
   it the unchecked row, which never fails and is hoisted on the next
   round.  Bounds checks are that analysis's business too. *)

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
         loops)
    p.funcs;
  !changed
