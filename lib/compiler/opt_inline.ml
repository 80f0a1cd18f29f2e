open Wir

let func_size f =
  List.fold_left (fun acc b -> acc + List.length b.instrs + 1) 0 f.blocks

let calls_func f name =
  List.exists
    (fun b ->
       List.exists
         (fun i -> match i with Call { callee = Func n; _ } -> n = name | _ -> false)
         b.instrs)
    f.blocks

(* Clone a callee body for splicing: fresh variables and labels. *)
let clone_for_inline (callee : func) ~label_base =
  let var_map : (int, var) Hashtbl.t = Hashtbl.create 32 in
  let label_map : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iteri
    (fun i b -> Hashtbl.replace label_map b.label (label_base + i))
    callee.blocks;
  let clone_var v =
    match Hashtbl.find_opt var_map v.vid with
    | Some w -> w
    | None ->
      let w = fresh_var ~name:v.vname ?ty:v.vty () in
      Hashtbl.replace var_map v.vid w;
      w
  in
  let clone_op = function
    | Ovar v -> Ovar (clone_var v)
    | Oconst c -> Oconst c
  in
  let clone_jump j =
    { target = Hashtbl.find label_map j.target; jargs = Array.map clone_op j.jargs }
  in
  let clone_instr i =
    match i with
    | Load_argument { dst; index } -> Load_argument { dst = clone_var dst; index }
    | Copy { dst; src } -> Copy { dst = clone_var dst; src = clone_op src }
    | Call { dst; callee; args } ->
      let callee = match callee with
        | Indirect op -> Indirect (clone_op op)
        | c -> c
      in
      Call { dst = clone_var dst; callee; args = Array.map clone_op args }
    | New_closure { dst; fname; captured } ->
      New_closure { dst = clone_var dst; fname; captured = Array.map clone_op captured }
    | Kernel_call { dst; head; args } ->
      Kernel_call { dst = clone_var dst; head; args = Array.map clone_op args }
    | Abort_check -> Abort_check
    | Abort_poll _ as i -> i
    | Mem_acquire op -> Mem_acquire (clone_op op)
    | Mem_release op -> Mem_release (clone_op op)
  in
  let blocks =
    List.map
      (fun b ->
         {
           label = Hashtbl.find label_map b.label;
           bparams = Array.map clone_var b.bparams;
           instrs = List.map clone_instr b.instrs;
           term =
             (match b.term with
              | Jump j -> Jump (clone_jump j)
              | Branch { cond; if_true; if_false } ->
                Branch
                  { cond = clone_op cond;
                    if_true = clone_jump if_true;
                    if_false = clone_jump if_false }
              | Return op -> Return (clone_op op)
              | Unreachable -> Unreachable);
         })
      callee.blocks
  in
  (blocks, var_map)

let next_label f =
  List.fold_left (fun acc b -> max acc b.label) 0 f.blocks + 1

(* Inline the first eligible call found in [f]; true if one was inlined. *)
let inline_one (p : program) ~max_instrs (f : func) =
  let eligible name =
    match Wir.find_func p name with
    | Some callee ->
      if callee.fname = f.fname then None
      else if not callee.finline then None
      else if func_size callee > max_instrs then None
      else if calls_func callee callee.fname || calls_func callee f.fname then None
      else Some callee
    | None -> None
  in
  let found = ref false in
  let blocks_snapshot = f.blocks in
  List.iter
    (fun b ->
       if not !found then begin
         let rec split acc = function
           | [] -> ()
           | (Call { dst; callee = Func name; args } as i) :: rest ->
             (match eligible name with
              | Some callee ->
                found := true;
                let base = next_label f in
                let cloned, _ = clone_for_inline callee ~label_base:base in
                (* continuation block receives the return value as parameter *)
                let cont_label = base + List.length cloned in
                let cont =
                  { label = cont_label; bparams = [| dst |]; instrs = rest; term = b.term }
                in
                (* returns in cloned blocks jump to cont; argument loads copy *)
                let cloned =
                  List.map
                    (fun cb ->
                       cb.instrs <-
                         List.map
                           (fun ci ->
                              match ci with
                              | Load_argument { dst; index } when index < Array.length args ->
                                Copy { dst; src = args.(index) }
                              | ci -> ci)
                           cb.instrs;
                       (match cb.term with
                        | Return op ->
                          cb.term <- Jump { target = cont_label; jargs = [| op |] }
                        | _ -> ());
                       cb)
                    cloned
                in
                b.instrs <- List.rev acc;
                (match cloned with
                 | first :: _ ->
                   b.term <- Jump { target = first.label; jargs = [||] }
                 | [] -> ());
                f.blocks <- f.blocks @ cloned @ [ cont ]
              | None -> split (i :: acc) rest)
           | i :: rest -> split (i :: acc) rest
         in
         split [] b.instrs
       end)
    blocks_snapshot;
  !found

let run ~max_instrs (p : program) =
  let changed = ref false in
  List.iter
    (fun f ->
       let budget = ref 64 in
       while !budget > 0 && inline_one p ~max_instrs f do
         changed := true;
         decr budget
       done)
    p.funcs;
  !changed
