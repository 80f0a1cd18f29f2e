open Wir

type promotion = { pfunc : string; pheader : int option; pstores : int; pcalls : int }

let promoted_counter form =
  Wolf_obs.Metrics.counter ~labels:[ ("form", form) ]
    ~help:"stores the mutability pass put on the in-place row, by web: form=block has no block parameter, form=loop carries the array through a loop"
    "mutability_promoted_total"

let promoted_block = promoted_counter "block"
let promoted_loop = promoted_counter "loop"

(* [Some inplace] for a store, [None] for any other primitive *)
let store base =
  match Wolf_runtime.Prims.op_of base with Some (Part_set { inplace; _ }) -> Some inplace | _ -> None

let is_store base = store base = Some false

(* the in-place row of a store, keeping a range proof's [_unchecked] *)
let in_place base =
  if String.ends_with ~suffix:"_unchecked" base then
    String.sub base 0 (String.length base - 10) ^ "_inplace_unchecked"
  else base ^ "_inplace"

let is_in_place_store base = store base = Some true

let is_tensor (v : var) =
  match v.vty with
  | Some t -> (match Types.repr t with Types.Con ("PackedArray", _) -> true | _ -> false)
  | None -> false

let reads base (dst : var) =
  match Wolf_runtime.Prims.op_of base with
  | Some (Part_get _ | Length | Dim) -> not (is_tensor dst)
  | _ -> false

let machine_scalar (v : var) =
  match v.vty with
  | Some t -> List.exists (Types.equal t) [ Types.int64; Types.real64; Types.boolean ]
  | None -> false

(* a pure row whose result is a machine scalar or a fresh tensor can
   neither keep its array argument nor hand it back *)
let pure_call base dst =
  Wolf_runtime.Prims.holds base (fun r ->
      r.effect = Pure && (machine_scalar dst || (r.fresh && is_tensor dst)))

let jumps b =
  match b.term with
  | Jump j -> [ j ]
  | Branch { if_true; if_false; _ } -> [ if_true; if_false ]
  | Return _ | Unreachable -> []

type web = {
  mutable members : var list;
  mutable nparams : int;
  mutable nstores : int;
  mutable ncalls : int;  (* uses as a pure call's argument *)
  mutable entry : var option;  (* the member that is neither a block
                                  parameter nor a store result *)
  mutable ok : bool;
}

let promote_func (f : func) =
  let blocks = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace blocks b.label b) f.blocks;
  (* union-find over the tensor variables; an edge links a jump argument to
     the block parameter it feeds, and a store's operand to its result *)
  let parent : (int, var) Hashtbl.t = Hashtbl.create 16 in
  let vars : (int, var) Hashtbl.t = Hashtbl.create 16 in
  let rec find (v : var) =
    match Hashtbl.find_opt parent v.vid with
    | None ->
      Hashtbl.replace parent v.vid v;
      Hashtbl.replace vars v.vid v;
      v
    | Some p when p.vid = v.vid -> v
    | Some p ->
      let r = find p in
      Hashtbl.replace parent v.vid r;
      r
  in
  (* variables whose web cannot be promoted: fed a constant (a pooled
     array) *)
  let spoiled = ref [] in
  let link (a : operand) (b : var) =
    match a with
    | Ovar v ->
      let ra = find v and rb = find b in
      if ra.vid <> rb.vid then Hashtbl.replace parent ra.vid rb
    | Oconst _ -> spoiled := b :: !spoiled
  in
  let params : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let stores : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  (* the block and instruction defining each tensor variable *)
  let def : (int, int * instr) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun b ->
       List.iter
         (fun i ->
            iter_instr_defs
              (fun v -> if is_tensor v then Hashtbl.replace def v.vid (b.label, i))
              i;
            match i with
            | Call { dst; callee = Resolved { base; _ }; args } when is_store base ->
              Hashtbl.replace stores dst.vid ();
              link args.(0) dst
            | _ -> ())
         b.instrs;
       List.iter
         (fun (j : jump) ->
            match Hashtbl.find_opt blocks j.target with
            | Some t when Array.length t.bparams = Array.length j.jargs ->
              Array.iteri
                (fun k p ->
                   if is_tensor p then begin
                     Hashtbl.replace params p.vid ();
                     link j.jargs.(k) p
                   end)
                t.bparams
            | _ -> ())
         (jumps b))
    f.blocks;
  let webs : (int, web) Hashtbl.t = Hashtbl.create 8 in
  let web_of (v : var) =
    let r = find v in
    match Hashtbl.find_opt webs r.vid with
    | Some w -> w
    | None ->
      let w = { members = []; nparams = 0; nstores = 0; ncalls = 0; entry = None; ok = true } in
      Hashtbl.replace webs r.vid w;
      w
  in
  Hashtbl.iter
    (fun _ (v : var) ->
       let w = web_of v in
       w.members <- v :: w.members;
       if Hashtbl.mem params v.vid then w.nparams <- w.nparams + 1
       else if Hashtbl.mem stores v.vid then w.nstores <- w.nstores + 1
       else if w.entry = None then w.entry <- Some v
       else w.ok <- false)
    vars;
  List.iter (fun v -> (web_of v).ok <- false) !spoiled;
  Hashtbl.iter (fun _ w -> if w.nstores = 0 || w.entry = None then w.ok <- false) webs;
  let member (v : var) = if Hashtbl.mem parent v.vid then Some (web_of v) else None in
  (* every use of a member is an element read, [Length], a store's operand,
     an argument of a pure call, a jump argument (into the web's own
     parameter, by construction) or a [Return]; on the way, count the uses
     of each tensor and note the blocks that pass each member along an edge *)
  let uses : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let count = function
    | Ovar v when is_tensor v ->
      Hashtbl.replace uses v.vid (1 + Option.value ~default:0 (Hashtbl.find_opt uses v.vid))
    | Ovar _ | Oconst _ -> ()
  in
  let passed : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun b ->
       List.iter
         (fun i ->
            iter_instr_uses count i;
            match i with
            | Call { dst; callee = Resolved { base; _ }; args } ->
              Array.iteri
                (fun pos -> function
                   | Ovar v ->
                     (match member v with
                      | Some _ when pos = 0 && (is_store base || reads base dst) -> ()
                      | Some w when pure_call base dst -> w.ncalls <- w.ncalls + 1
                      | Some w -> w.ok <- false
                      | None -> ())
                   | Oconst _ -> ())
                args
            | i ->
              iter_instr_uses
                (function
                  | Ovar v -> Option.iter (fun w -> w.ok <- false) (member v)
                  | Oconst _ -> ())
                i)
         b.instrs;
       iter_term_uses count b.term;
       List.iter
         (fun (j : jump) ->
            Array.iter
              (function
                | Ovar v when Hashtbl.mem parent v.vid -> Hashtbl.add passed v.vid b.label
                | Ovar _ | Oconst _ -> ())
              j.jargs)
         (jumps b))
    f.blocks;
  (* the entry reaches a fresh allocation through single-use Copys, all in
     one block, which is the only block that passes the entry on *)
  let rec fresh_in l (v : var) =
    match Hashtbl.find_opt def v.vid with
    | Some (l', Copy { src = Ovar u; _ }) ->
      l' = l && Hashtbl.find_opt uses u.vid = Some 1 && fresh_in l u
    | Some (l', Call { callee = Resolved { base; _ }; _ }) ->
      l' = l && Wolf_runtime.Prims.holds base (fun r -> r.fresh)
    | _ -> false
  in
  Hashtbl.iter
    (fun _ w ->
       match w.entry with
       | Some e when w.ok ->
         (match Hashtbl.find_opt def e.vid with
          | Some (l, _) ->
            w.ok <- fresh_in l e && List.for_all (( = ) l) (Hashtbl.find_all passed e.vid)
          | None -> w.ok <- false)
       | _ -> ())
    webs;
  let ok_member vid =
    match Hashtbl.find_opt vars vid with Some v -> (web_of v).ok | None -> false
  in
  let candidate = function
    | Call { callee = Resolved { base; _ }; dst; _ } when is_store base -> (web_of dst).ok
    | _ -> false
  in
  if Hashtbl.fold (fun _ w any -> any || w.ok) webs false then begin
    (* no member other than a store's result is live after that store *)
    let live_out = Analysis.live_out ~only:ok_member f in
    List.iter
      (fun b ->
         if List.exists candidate b.instrs then begin
           let live =
             Option.fold ~none:(Hashtbl.create 8) ~some:Hashtbl.copy
               (Hashtbl.find_opt live_out b.label)
           in
           let use = function
             | Ovar v when ok_member v.vid -> Hashtbl.replace live v.vid ()
             | Ovar _ | Oconst _ -> ()
           in
           iter_term_uses use b.term;
           List.iter
             (fun i ->
                (match i with
                 | Call { dst; _ } when candidate i ->
                   let w = web_of dst in
                   let other (m : var) = m.vid <> dst.vid && Hashtbl.mem live m.vid in
                   if List.exists other w.members then w.ok <- false
                 | _ -> ());
                iter_instr_defs (fun v -> Hashtbl.remove live v.vid) i;
                iter_instr_uses use i)
             (List.rev b.instrs)
         end)
      f.blocks
  end;
  let promoted = Hashtbl.fold (fun _ w acc -> if w.ok then w :: acc else acc) webs [] in
  if promoted = [] then []
  else begin
    (* the rewrite: every member becomes the entry value, the stores take
       the in-place row, and the web's parameters and their jump arguments
       go *)
    let subst : (int, operand) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun w ->
         let e = Option.get w.entry in
         List.iter
           (fun (m : var) -> if m.vid <> e.vid then Hashtbl.replace subst m.vid (Ovar e))
           w.members)
      promoted;
    let gone (p : var) = Hashtbl.mem subst p.vid && Hashtbl.mem params p.vid in
    let rename = function
      | Ovar v as o -> Option.value ~default:o (Hashtbl.find_opt subst v.vid)
      | o -> o
    in
    let prune (j : jump) =
      match Hashtbl.find_opt blocks j.target with
      | Some t when Array.exists gone t.bparams ->
        let keep = List.filteri (fun k _ -> not (gone t.bparams.(k))) (Array.to_list j.jargs) in
        { j with jargs = Array.of_list keep }
      | _ -> j
    in
    (* each web is reported at the first block (in layout order) that
       carried it as a parameter *)
    let header w =
      List.find_map
        (fun b ->
           if Array.exists (fun p -> gone p && web_of p == w) b.bparams then Some b.label
           else None)
        f.blocks
    in
    let report =
      List.map
        (fun w ->
           { pfunc = f.fname; pheader = (if w.nparams > 0 then header w else None);
             pstores = w.nstores; pcalls = w.ncalls })
        promoted
    in
    List.iter
      (fun b ->
         b.instrs <-
           List.map
             (fun i ->
                match map_instr_operands rename i with
                | Call { dst; callee = Resolved { base; _ } as callee; args } when candidate i ->
                  Call { dst; callee = Analysis.sibling callee (in_place base); args }
                | i -> i)
             b.instrs;
         b.term <-
           (match map_term_operands rename b.term with
            | Jump j -> Jump (prune j)
            | Branch br ->
              Branch { br with if_true = prune br.if_true; if_false = prune br.if_false }
            | t -> t))
      f.blocks;
    List.iter
      (fun b ->
         let kept = List.filter (fun p -> not (gone p)) (Array.to_list b.bparams) in
         b.bparams <- Array.of_list kept)
      f.blocks;
    List.sort compare report
  end

let has_store f =
  List.exists
    (fun b ->
       List.exists
         (function Call { callee = Resolved { base; _ }; _ } -> is_store base | _ -> false)
         b.instrs)
    f.blocks

let run (p : program) =
  let promoted = List.concat_map promote_func (List.filter has_store p.funcs) in
  List.iter
    (fun pr ->
       Wolf_obs.Metrics.add
         (if pr.pheader = None then promoted_block else promoted_loop)
         pr.pstores)
    promoted;
  promoted
