open Wir

let managed_var v =
  match v.vty with
  | Some t -> Type_class.member "MemoryManaged" ~ty:t
  | None -> false

let managed_op = function
  | Ovar v -> managed_var v
  | Oconst _ -> false

let run (p : program) =
  List.iter
    (fun f ->
       (* the copies of managed values, and the variables they copy or
          define: the only ones whose definitions and uses matter below *)
       let copies = ref [] in
       let tracked : (int, unit) Hashtbl.t = Hashtbl.create 8 in
       List.iter
         (fun b ->
            List.iter
              (function
                | Copy { dst; src = Ovar u as src } when managed_var dst && managed_op src ->
                  copies := (dst, u) :: !copies;
                  Hashtbl.replace tracked dst.vid ();
                  Hashtbl.replace tracked u.vid ()
                | _ -> ())
              b.instrs)
         f.blocks;
       let defs : (int, int * instr) Hashtbl.t = Hashtbl.create 8 in
       (* every instruction using a tracked variable, and whether a
          terminator does: [true] when each such use is a [Return] *)
       let uses : (int, instr) Hashtbl.t = Hashtbl.create 8 in
       let term_use : (int, bool) Hashtbl.t = Hashtbl.create 8 in
       if !copies <> [] then
         List.iter
           (fun b ->
              List.iter
                (fun i ->
                   iter_instr_defs
                     (fun v ->
                        if Hashtbl.mem tracked v.vid then Hashtbl.replace defs v.vid (b.label, i))
                     i;
                   iter_instr_uses
                     (function
                       | Ovar v when Hashtbl.mem tracked v.vid -> Hashtbl.add uses v.vid i
                       | Ovar _ | Oconst _ -> ())
                     i)
                b.instrs;
              let ret = match b.term with Return _ -> true | _ -> false in
              iter_term_uses
                (function
                  | Ovar v when Hashtbl.mem tracked v.vid ->
                    if not (ret && Hashtbl.mem term_use v.vid) then
                      Hashtbl.replace term_use v.vid ret
                  | Ovar _ | Oconst _ -> ())
                b.term)
           f.blocks;
       let single_use (u : var) =
         List.length (Hashtbl.find_all uses u.vid) = 1 && not (Hashtbl.mem term_use u.vid)
       in
       (* [u] is defined in block [l] by a fresh allocation, or by a chain of
          single-use Copys from one *)
       let rec fresh_in l (u : var) =
         match Hashtbl.find_opt defs u.vid with
         | Some (l', Call { callee = Resolved { base; _ }; _ }) ->
           l' = l && Wolf_runtime.Prims.holds base (fun r -> r.fresh)
         | Some (l', Copy { src = Ovar w; _ }) -> l' = l && single_use w && fresh_in l w
         | _ -> false
       in
       (* The copy [dst] of [u] takes over [u]'s claim, opening no second
          reference, when [u] is such a fresh array with no other use, in
          the copy's block, and [dst] is never written copy-on-write nor
          passed on: its uses read it, pass it to a pure call, store into
          it in place, copy it the same way or return it.  A copy in another block can run more than
          once per allocation (in a loop); a copy-on-write store relies on a
          live operand's second claim; a parameter or a call's result may be
          held elsewhere. *)
       let rec transfers (dst : var) (u : var) =
         match Hashtbl.find_opt defs dst.vid with
         | Some (l, _) -> single_use u && fresh_in l u && linear dst
         | None -> false
       and linear (v : var) =
         Hashtbl.find_opt term_use v.vid <> Some false
         && List.for_all
              (function
                | Call { dst; callee = Resolved { base; _ }; _ } when Mutability_pass.pure_call base dst ->
                  true
                | Call { dst; callee = Resolved { base; _ }; args }
                  when Mutability_pass.reads base dst || Mutability_pass.is_in_place_store base ->
                  Array.for_all (function Ovar u -> u.vid <> v.vid | Oconst _ -> true)
                    (Array.sub args 1 (Array.length args - 1))
                | Copy { dst; _ } -> transfers dst v
                | _ -> false)
              (Hashtbl.find_all uses v.vid)
       in
       (* only aliasing copies open a new reference; releasing anything else
          (parameters, fresh results) would decrement counts the caller or
          the allocation itself still owns *)
       let acquired : (int, unit) Hashtbl.t = Hashtbl.create 8 in
       List.iter
         (fun (dst, u) -> if not (transfers dst u) then Hashtbl.replace acquired dst.vid ())
         !copies;
       if Hashtbl.length acquired > 0 then begin
         let live_out = Analysis.live_out ~only:(Hashtbl.mem acquired) f in
         List.iter
           (fun b ->
              let out = Hashtbl.find live_out b.label in
              (* last textual use index of each acquired var within this block *)
              let last_use : (int, int) Hashtbl.t = Hashtbl.create 8 in
              List.iteri
                (fun idx i ->
                   iter_instr_uses
                     (function
                       | Ovar v when Hashtbl.mem acquired v.vid ->
                         Hashtbl.replace last_use v.vid idx
                       | _ -> ())
                     i)
                b.instrs;
              (* uses in the terminator transfer ownership along the edge *)
              iter_term_uses
                (function
                  | Ovar v -> Hashtbl.remove last_use v.vid
                  | Oconst _ -> ())
                b.term;
              let new_instrs = ref [] in
              List.iteri
                (fun idx i ->
                   (* an aliasing definition opens a second reference *)
                   (match i with
                    | Copy { dst; _ } when Hashtbl.mem acquired dst.vid ->
                      new_instrs := Mem_acquire (Ovar dst) :: i :: !new_instrs
                    | _ -> new_instrs := i :: !new_instrs);
                   (* close intervals that end here *)
                   iter_instr_uses
                     (function
                       | Ovar v
                         when Hashtbl.mem acquired v.vid
                           && Hashtbl.find_opt last_use v.vid = Some idx
                           && not (Hashtbl.mem out v.vid) ->
                         new_instrs := Mem_release (Ovar v) :: !new_instrs
                       | _ -> ())
                     i)
                b.instrs;
              b.instrs <- List.rev !new_instrs)
           f.blocks
       end)
    p.funcs
