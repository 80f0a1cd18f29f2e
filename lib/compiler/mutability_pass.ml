open Wir

let run (p : program) =
  let promoted = ref 0 in
  List.iter
    (fun f ->
       (* defs of each var with their block, counts of uses, and whether a
          var is ever aliased (used by a Copy, closure capture, jump argument
          or call that could retain it beyond this update) *)
       let def_instr : (int, int * instr) Hashtbl.t = Hashtbl.create 32 in
       let aliased : (int, unit) Hashtbl.t = Hashtbl.create 16 in
       List.iter
         (fun b ->
            List.iter
              (fun i ->
                 List.iter (fun v -> Hashtbl.replace def_instr v.vid (b.label, i)) (instr_defs i);
                 match i with
                 | Copy { src = Ovar v; _ } ->
                   Hashtbl.replace aliased v.vid ()
                 | New_closure { captured; _ } ->
                   Array.iter
                     (function Ovar v -> Hashtbl.replace aliased v.vid () | _ -> ())
                     captured
                 | _ -> ())
              b.instrs;
            List.iter
              (function Ovar v -> Hashtbl.replace aliased v.vid () | Oconst _ -> ())
              (term_uses b.term))
         f.blocks;
       let counts = Analysis.use_counts f in
       List.iter
         (fun b ->
            b.instrs <-
              List.map
                (fun i ->
                   match i with
                   | Call
                       { dst;
                         callee = Resolved { base = ("part_set_1" | "part_set_2") as base; _ } as callee;
                         args } ->
                     let rec root_def v =
                       match Hashtbl.find_opt def_instr v with
                       | Some (_, Copy { src = Ovar u; _ })
                         when Hashtbl.find_opt counts u.vid = Some 1 ->
                         root_def u.vid
                       | d -> d
                     in
                     (match args.(0) with
                      | Ovar target
                        when Hashtbl.find_opt counts target.vid = Some 1
                          && (not (Hashtbl.mem aliased target.vid))
                          && (match root_def target.vid with
                              (* the allocation is in the store's block, so
                                 each run of the store has its own fresh
                                 array: a store in a loop after an
                                 allocation before it would write one array
                                 on every iteration *)
                              | Some (l, Call { callee = Resolved { base; _ }; _ }) ->
                                l = b.label && Wolf_runtime.Prims.holds base (fun r -> r.fresh)
                              | _ -> false) ->
                        incr promoted;
                        Call { dst; callee = Analysis.sibling callee (base ^ "_inplace"); args }
                      | _ -> i)
                   | i -> i)
                b.instrs)
         f.blocks)
    p.funcs;
  !promoted
