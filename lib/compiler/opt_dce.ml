open Wir

(* A dead instruction may go when neither running nor skipping it can be
   observed: a pure primitive that never fails, or fails only on integer
   overflow, whose soft fallback reruns the call in the interpreter and
   computes what the program computes without the dead primitive.  One
   that can fail otherwise stays: the interpreter reports that failure, so
   compiled code must reach it too (the differential fuzzer found a dead
   Quotient[x, 0] folded away, which turned a Failed run into a value). *)
let pure_instr = function
  | Copy _ | New_closure _ -> true
  | Call { callee = Resolved { base; _ }; _ } ->
    Wolf_runtime.Prims.holds base (fun r -> r.effect = Pure && r.fails <> May_fail)
  | Call _ -> false
  | Load_argument _ -> true
  | Kernel_call _ -> false
  | Abort_check | Abort_poll _ | Mem_acquire _ | Mem_release _ -> false

let run (p : program) =
  let changed = ref false in
  List.iter
    (fun f ->
       let pass () =
         let counts = Analysis.use_counts f in
         let used v = Option.value ~default:0 (Hashtbl.find_opt counts v.vid) > 0 in
         let local = ref false in
         (* drop dead pure instructions (never function parameters) *)
         let param_ids =
           Array.to_list f.fparams |> List.map (fun v -> v.vid)
         in
         List.iter
           (fun b ->
              let before = List.length b.instrs in
              b.instrs <-
                List.filter
                  (fun i ->
                     match instr_defs i with
                     | [ dst ]
                       when pure_instr i && (not (used dst))
                         && not (List.mem dst.vid param_ids) ->
                       false
                     | _ -> true)
                  b.instrs;
              if List.length b.instrs <> before then local := true)
           f.blocks;
         (* drop unused block parameters *)
         let counts = Analysis.use_counts f in
         let used_id vid = Option.value ~default:0 (Hashtbl.find_opt counts vid) > 0 in
         List.iter
           (fun b ->
              let keep = Array.map (fun v -> used_id v.vid) b.bparams in
              if Array.exists not keep then begin
                local := true;
                let filter_args args =
                  Array.of_list
                    (List.filteri (fun i _ -> keep.(i)) (Array.to_list args))
                in
                b.bparams <- filter_args b.bparams;
                (* fix all jumps into b *)
                List.iter
                  (fun src ->
                     let fix j =
                       if j.target = b.label then { j with jargs = filter_args j.jargs }
                       else j
                     in
                     src.term <-
                       (match src.term with
                        | Jump j -> Jump (fix j)
                        | Branch { cond; if_true; if_false } ->
                          Branch { cond; if_true = fix if_true; if_false = fix if_false }
                        | t -> t))
                  f.blocks
              end)
           f.blocks;
         !local
       in
       let rec fix () = if pass () then begin changed := true; fix () end in
       fix ())
    p.funcs;
  !changed
