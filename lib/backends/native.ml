open Wolf_base
open Wolf_wexpr
open Wolf_runtime
open Wolf_compiler
open Wir

type bank = I | R | O

type frame = {
  ri : int array;
  rr : float array;
  ro : Rtval.t array;
  mutable ret : Rtval.t;
}

type slot = { bank : bank; idx : int }

let bank_of_ty ty =
  match Types.repr ty with
  | Types.Con ("Integer64", _) | Types.Con ("Boolean", _) -> I
  | Types.Con ("Real64", _) -> R
  | _ -> O

let bank_of_var v =
  match v.vty with
  | Some t -> bank_of_ty t
  | None -> O

(* ------------------------------------------------------------------ *)

type fctx = {
  slots : (int, slot) Hashtbl.t;      (* var id -> register slot *)
  funcs : (string, (Rtval.t array -> Rtval.t) ref) Hashtbl.t;
  inline : bool;
}

let slot_of ctx v =
  match Hashtbl.find_opt ctx.slots v.vid with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "native: unallocated %%%d" v.vid)

let const_rtval = function
  | Cvoid -> Rtval.Unit
  | Cint i -> Rtval.Int i
  | Creal r -> Rtval.Real r
  | Cbool b -> Rtval.Bool b
  | Cstr s -> Rtval.Str s
  | Cexpr e -> Rtval.of_expr e

(* typed operand getters *)
let get_i ctx op : frame -> int =
  match op with
  | Oconst (Cint i) -> fun _ -> i
  | Oconst (Cbool b) -> let v = if b then 1 else 0 in fun _ -> v
  | Oconst c -> let v = Rtval.as_int (const_rtval c) in fun _ -> v
  | Ovar v ->
    let s = slot_of ctx v in
    (match s.bank with
     | I -> let i = s.idx in fun fr -> fr.ri.(i)
     | R -> let i = s.idx in fun fr -> int_of_float fr.rr.(i)
     | O -> let i = s.idx in fun fr -> Rtval.as_int fr.ro.(i))

let get_r ctx op : frame -> float =
  match op with
  | Oconst (Creal r) -> fun _ -> r
  | Oconst (Cint i) -> let v = float_of_int i in fun _ -> v
  | Oconst c -> let v = Rtval.as_real (const_rtval c) in fun _ -> v
  | Ovar v ->
    let s = slot_of ctx v in
    (match s.bank with
     | R -> let i = s.idx in fun fr -> fr.rr.(i)
     | I -> let i = s.idx in fun fr -> float_of_int fr.ri.(i)
     | O -> let i = s.idx in fun fr -> Rtval.as_real fr.ro.(i))

let get_o ctx op : frame -> Rtval.t =
  match op with
  | Oconst c ->
    let v = const_rtval c in
    (* the closure pools this value across calls: hold a claim so a COW
       store inside the function copies instead of mutating the pool *)
    (match v with Rtval.Tensor t -> Tensor.acquire t | _ -> ());
    fun _ -> v
  | Ovar v ->
    let s = slot_of ctx v in
    (match s.bank with
     | O -> let i = s.idx in fun fr -> fr.ro.(i)
     | I ->
       let i = s.idx in
       let is_bool =
         match v.vty with
         | Some t -> Types.equal (Types.repr t) Types.boolean
         | None -> false
       in
       if is_bool then fun fr -> Rtval.Bool (fr.ri.(i) <> 0)
       else fun fr -> Rtval.Int fr.ri.(i)
     | R -> let i = s.idx in fun fr -> Rtval.Real fr.rr.(i))

(* typed destination setters *)
let set_var ctx v : frame -> Rtval.t -> unit =
  let s = slot_of ctx v in
  match s.bank with
  | I ->
    let i = s.idx in
    fun fr value ->
      fr.ri.(i) <-
        (match value with
         | Rtval.Int x -> x
         | Rtval.Bool b -> if b then 1 else 0
         | v -> Rtval.as_int v)
  | R ->
    let i = s.idx in
    fun fr value -> fr.rr.(i) <- Rtval.as_real value
  | O ->
    let i = s.idx in
    fun fr value -> fr.ro.(i) <- value

let set_i ctx v =
  let s = slot_of ctx v in
  match s.bank with
  | I -> let i = s.idx in fun (fr : frame) (x : int) -> fr.ri.(i) <- x
  | R -> let i = s.idx in fun fr x -> fr.rr.(i) <- float_of_int x
  | O -> let i = s.idx in fun fr x -> fr.ro.(i) <- Rtval.Int x

let set_b ctx v =
  let s = slot_of ctx v in
  match s.bank with
  | I -> let i = s.idx in fun (fr : frame) b -> fr.ri.(i) <- (if b then 1 else 0)
  | R -> invalid_arg "native: boolean into real bank"
  | O -> let i = s.idx in fun fr b -> fr.ro.(i) <- Rtval.Bool b

let set_r ctx v =
  let s = slot_of ctx v in
  match s.bank with
  | R -> let i = s.idx in fun (fr : frame) (x : float) -> fr.rr.(i) <- x
  | I -> let i = s.idx in fun fr x -> fr.ri.(i) <- int_of_float x
  | O -> let i = s.idx in fun fr x -> fr.ro.(i) <- Rtval.Real x

let operand_bank ctx = function
  | Ovar v -> (slot_of ctx v).bank
  | Oconst c -> bank_of_ty (Wir.const_ty c)

(* ------------------------------------------------------------------ *)
(* Open-coded primitives                                               *)

(* A row with a scalar form runs its function on the register banks its
   machine types name; other operand banks take the boxed [impl]. *)
let compile_scalar ctx (form : Prims.scalar) ~dst ~(args : operand array) =
  let ints = Array.for_all (fun a -> operand_bank ctx a = I) args in
  let nums = Array.for_all (fun a -> operand_bank ctx a <> O) args in
  let int_lit = function Oconst (Cint c) -> Some c | _ -> None in
  let real_lit = function
    | Oconst (Creal c) -> Some c
    | Oconst (Cint c) -> Some (float_of_int c)
    | _ -> None
  in
  (* a literal operand is captured rather than read through a getter *)
  let binary get lit f set =
    match lit args.(0), lit args.(1) with
    | _, Some c -> let ga = get ctx args.(0) in Some (fun fr -> set fr (f (ga fr) c))
    | Some c, None -> let gb = get ctx args.(1) in Some (fun fr -> set fr (f c (gb fr)))
    | None, None ->
      let ga = get ctx args.(0) and gb = get ctx args.(1) in
      Some (fun fr -> set fr (f (ga fr) (gb fr)))
  in
  let unary get f set = let ga = get ctx args.(0) in Some (fun fr -> set fr (f (ga fr))) in
  (* a Boolean operand is 0 or 1 in the integer bank *)
  let of_bool f set = let ga = get_i ctx args.(0) in Some (fun fr -> set fr (f (ga fr <> 0))) in
  match form, bank_of_var dst with
  | Prims.Int1 f, I when ints -> unary get_i f (set_i ctx dst)
  | (Int2 f | Num2 (f, _)), I when ints -> binary get_i int_lit f (set_i ctx dst)
  | Real1 f, R when nums -> unary get_r f (set_r ctx dst)
  | (Real2 f | Num2 (_, f)), R when nums -> binary get_r real_lit f (set_r ctx dst)
  | Real_to_int f, I when nums -> unary get_r f (set_i ctx dst)
  | Int_to_real f, R when ints -> unary get_i f (set_r ctx dst)
  | Cmp2 (f, _), I when ints -> binary get_i int_lit f (set_b ctx dst)
  | Cmp2 (_, f), I when nums -> binary get_r real_lit f (set_b ctx dst)
  | Int_test f, I when ints -> unary get_i f (set_b ctx dst)
  | Bool1 f, I when ints -> of_bool f (set_b ctx dst)
  | Bool_to_int f, I when ints -> of_bool f (set_i ctx dst)
  | _ -> None

(* A row with a scalar form goes to [compile_scalar]; the rest are
   open-coded by name: the structural primitives (Part reads and stores,
   string bytes, lengths) and the [x^2] shape of [binary_power_ri]. *)
let compile_prim ctx ~base ~dst ~(args : operand array) : (frame -> unit) option =
  if not ctx.inline then None
  else
    match (Prims.find base).scalar with
    | Some form -> compile_scalar ctx form ~dst ~args
    | None ->
    let dst_bank = bank_of_var dst in
    match base, dst_bank with
    | "binary_power_ri", R ->
      (match args.(1) with
       | Oconst (Cint 2) ->
         let ga = get_r ctx args.(0) and set = set_r ctx dst in
         Some (fun fr -> let x = ga fr in set fr (x *. x))
       | _ ->
         let ga = get_r ctx args.(0) and gb = get_i ctx args.(1) and set = set_r ctx dst in
         Some (fun fr -> set fr (Prims.pow_ri (ga fr) (gb fr))))
    | "string_length", I ->
      let g = get_o ctx args.(0) and set = set_i ctx dst in
      Some (fun fr -> set fr (String.length (Rtval.as_str (g fr))))
    | "string_byte", I ->
      let gs = get_o ctx args.(0) and gi = get_i ctx args.(1) and set = set_i ctx dst in
      Some
        (fun fr ->
           let s = Rtval.as_str (gs fr) in
           set fr (Char.code (String.unsafe_get s (Tensor.part_index (String.length s) (gi fr)))))
    | "string_byte_unchecked", I ->
      let gs = get_o ctx args.(0) and gi = get_i ctx args.(1) and set = set_i ctx dst in
      Some
        (fun fr ->
           set fr (Char.code (String.unsafe_get (Rtval.as_str (gs fr)) (gi fr - 1))))
    | "array_length", I ->
      let g = get_o ctx args.(0) and set = set_i ctx dst in
      Some (fun fr -> set fr (Tensor.dims (Rtval.as_tensor (g fr))).(0))
    | "part_get_1", I ->
      let gt = get_o ctx args.(0) and gi = get_i ctx args.(1) and set = set_i ctx dst in
      Some
        (fun fr ->
           let t = Rtval.as_tensor (gt fr) in
           set fr (Tensor.get_int t (Tensor.normalize_index t (gi fr))))
    | "part_get_1", R ->
      let gt = get_o ctx args.(0) and gi = get_i ctx args.(1) and set = set_r ctx dst in
      Some
        (fun fr ->
           let t = Rtval.as_tensor (gt fr) in
           set fr (Tensor.get_real t (Tensor.normalize_index t (gi fr))))
    (* [_unchecked]: bounds proven by the loop optimiser, so only positive
       in-range indices reach it *)
    | "part_get_1_unchecked", I ->
      let gt = get_o ctx args.(0) and gi = get_i ctx args.(1) and set = set_i ctx dst in
      Some (fun fr -> set fr (Tensor.get_int (Rtval.as_tensor (gt fr)) (gi fr - 1)))
    | "part_get_1_unchecked", R ->
      let gt = get_o ctx args.(0) and gi = get_i ctx args.(1) and set = set_r ctx dst in
      Some (fun fr -> set fr (Tensor.get_real (Rtval.as_tensor (gt fr)) (gi fr - 1)))
    (* the range analysis's matrix and store variants keep the check *)
    | ("part_get_2" | "part_get_2_unchecked"), (I | R) ->
      let gt = get_o ctx args.(0) and gi = get_i ctx args.(1) and gk = get_i ctx args.(2) in
      if dst_bank = I then begin
        let set = set_i ctx dst in
        Some
          (fun fr ->
             let t = Rtval.as_tensor (gt fr) in
             set fr (Tensor.get_int t (Tensor.flat_index2 t (gi fr) (gk fr))))
      end
      else begin
        let set = set_r ctx dst in
        Some
          (fun fr ->
             let t = Rtval.as_tensor (gt fr) in
             set fr (Tensor.get_real t (Tensor.flat_index2 t (gi fr) (gk fr))))
      end
    | ( ( "part_set_1" | "part_set_1_inplace" | "part_set_2" | "part_set_2_inplace"
        | "part_set_1_unchecked" | "part_set_1_inplace_unchecked" | "part_set_2_unchecked"
        | "part_set_2_inplace_unchecked" ),
        O ) ->
      let inplace = Wolf_compiler.Mutability_pass.is_in_place_store base in
      let last = Array.length args - 1 in
      let two = last = 3 in
      let gt = get_o ctx args.(0) and gi = get_i ctx args.(1) in
      let gk = if two then get_i ctx args.(2) else gi in
      let set = set_var ctx dst in
      (match operand_bank ctx args.(last) with
       | I ->
         let gv = get_i ctx args.(last) in
         Some
           (fun fr ->
              let t = Rtval.as_tensor (gt fr) in
              let t = if inplace then t else Tensor.ensure_unique t in
              let j = if two then Tensor.flat_index2 t (gi fr) (gk fr) else Tensor.normalize_index t (gi fr) in
              Tensor.set_int t j (gv fr);
              set fr (Rtval.Tensor t))
       | R ->
         let gv = get_r ctx args.(last) in
         Some
           (fun fr ->
              let t = Rtval.as_tensor (gt fr) in
              let t = if inplace then t else Tensor.ensure_unique t in
              let j = if two then Tensor.flat_index2 t (gi fr) (gk fr) else Tensor.normalize_index t (gi fr) in
              Tensor.set_real t j (gv fr);
              set fr (Rtval.Tensor t))
       | O -> None)
    | _ -> None

(* ------------------------------------------------------------------ *)

let compile_instr ctx (i : instr) : frame -> unit =
  match i with
  | Load_argument _ -> fun _ -> () (* handled at function entry *)
  | Abort_check -> fun _ -> Abort_signal.check ()
  | Abort_poll { stride; _ } ->
    (* the budget cell is captured by this site's closure, so it persists
       across iterations and calls: one real check per [stride] executions.
       Atomic because the same compiled function may run on several domains
       at once (e.g. out of the compile cache); a plain ref would lose
       decrements under contention and stretch the poll interval. *)
    let budget = Atomic.make stride in
    fun _ ->
      if Atomic.fetch_and_add budget (-1) <= 1 then begin
        Atomic.set budget stride;
        Abort_signal.check ()
      end
  | Copy { dst; src } ->
    (match (slot_of ctx dst).bank with
     | I -> let g = get_i ctx src and set = set_i ctx dst in fun fr -> set fr (g fr)
     | R -> let g = get_r ctx src and set = set_r ctx dst in fun fr -> set fr (g fr)
     | O -> let g = get_o ctx src and set = set_var ctx dst in fun fr -> set fr (g fr))
  | Mem_acquire op ->
    let g = get_o ctx op in
    fun fr ->
      (match g fr with
       | Rtval.Tensor t -> Tensor.acquire t
       | _ -> ())
  | Mem_release op ->
    let g = get_o ctx op in
    fun fr ->
      (match g fr with
       | Rtval.Tensor t -> Tensor.release t
       | _ -> ())
  | Kernel_call { dst; head; args } ->
    let getters = Array.map (get_o ctx) args in
    let set = set_var ctx dst in
    fun fr ->
      let arg_exprs = Array.map (fun g -> Rtval.to_expr (g fr)) getters in
      let result = Hooks.eval (Expr.Normal (head, arg_exprs)) in
      set fr (Rtval.Expr result)
  | New_closure { dst; fname; captured } ->
    let target =
      match Hashtbl.find_opt ctx.funcs fname with
      | Some r -> r
      | None -> invalid_arg ("native: unknown closure target " ^ fname)
    in
    let getters = Array.map (get_o ctx) captured in
    let set = set_var ctx dst in
    fun fr ->
      let cap = Array.map (fun g -> g fr) getters in
      set fr
        (Rtval.Fun
           { arity = -1; call = (fun args -> !target (Array.append cap args)) })
  | Call { dst; callee = Indirect fop; args } ->
    let gf = get_o ctx fop in
    let getters = Array.map (get_o ctx) args in
    let set = set_var ctx dst in
    fun fr ->
      let f = Rtval.as_fun (gf fr) in
      set fr (f.call (Array.map (fun g -> g fr) getters))
  | Call { dst; callee = Func name; args } ->
    let target =
      match Hashtbl.find_opt ctx.funcs name with
      | Some r -> r
      | None -> invalid_arg ("native: unknown function " ^ name)
    in
    let getters = Array.map (get_o ctx) args in
    let set = set_var ctx dst in
    fun fr -> set fr (!target (Array.map (fun g -> g fr) getters))
  | Call { dst; callee = Resolved { base; _ }; args } ->
    (match compile_prim ctx ~base ~dst ~args with
     | Some fast -> fast
     | None ->
       let impl = (Prims.find base).impl in
       let getters = Array.map (get_o ctx) args in
       let set = set_var ctx dst in
       fun fr -> set fr (impl (Array.map (fun g -> g fr) getters)))
  | Call { callee = Prim name; _ } ->
    invalid_arg ("native: unresolved primitive " ^ name)

(* Parallel move for jump arguments: read everything, then write. *)
let compile_jump ctx (target_params : var array) (j : jump) : frame -> unit =
  let moves =
    Array.mapi
      (fun i arg ->
         let param = target_params.(i) in
         match (slot_of ctx param).bank with
         | I ->
           let g = get_i ctx arg and s = set_i ctx param in
           `I (g, s)
         | R ->
           let g = get_r ctx arg and s = set_r ctx param in
           `R (g, s)
         | O ->
           let g = get_o ctx arg and s = set_var ctx param in
           `O (g, s))
      j.jargs
  in
  let n = Array.length moves in
  if n = 0 then fun _ -> ()
  else
    fun fr ->
      (* stage reads before writes (loop-carried params may swap) *)
      let staged_i = Array.make n 0 in
      let staged_r = Array.make n 0.0 in
      let staged_o = Array.make n Rtval.Unit in
      Array.iteri
        (fun i m ->
           match m with
           | `I (g, _) -> staged_i.(i) <- g fr
           | `R (g, _) -> staged_r.(i) <- g fr
           | `O (g, _) -> staged_o.(i) <- g fr)
        moves;
      Array.iteri
        (fun i m ->
           match m with
           | `I (_, s) -> s fr staged_i.(i)
           | `R (_, s) -> s fr staged_r.(i)
           | `O (_, s) -> s fr staged_o.(i))
        moves

let compile_func ctx (f : func) : Rtval.t array -> Rtval.t =
  (* allocate slots *)
  let counts = [| 0; 0; 0 |] in
  let alloc v =
    if not (Hashtbl.mem ctx.slots v.vid) then begin
      let bank = bank_of_var v in
      let k = match bank with I -> 0 | R -> 1 | O -> 2 in
      Hashtbl.replace ctx.slots v.vid { bank; idx = counts.(k) };
      counts.(k) <- counts.(k) + 1
    end
  in
  Wir.iter_vars f alloc;
  let ni = counts.(0) and nr = counts.(1) and no = counts.(2) in
  (* compile blocks *)
  let labels = List.map (fun b -> b.label) f.blocks in
  let index_of l =
    let rec go i = function
      | [] -> invalid_arg "native: missing block"
      | x :: rest -> if x = l then i else go (i + 1) rest
    in
    go 0 labels
  in
  let compile_term (t : terminator) : frame -> int =
    match t with
    | Return op ->
      let g = get_o ctx op in
      fun fr ->
        fr.ret <- g fr;
        -1
    | Jump j ->
      let tgt = Wir.find_block f j.target in
      let move = compile_jump ctx tgt.bparams j in
      let idx = index_of j.target in
      fun fr -> move fr; idx
    | Branch { cond; if_true; if_false } ->
      let g = get_i ctx cond in
      let tb = Wir.find_block f if_true.target in
      let fb = Wir.find_block f if_false.target in
      let tmove = compile_jump ctx tb.bparams if_true in
      let fmove = compile_jump ctx fb.bparams if_false in
      let ti = index_of if_true.target and fi = index_of if_false.target in
      fun fr ->
        if g fr <> 0 then begin tmove fr; ti end
        else begin fmove fr; fi end
    | Unreachable -> fun _ -> invalid_arg ("native: unreachable block in " ^ f.fname)
  in
  let blocks =
    Array.of_list
      (List.map
         (fun b ->
            let body =
              List.fold_left
                (fun acc i ->
                   let ci = compile_instr ctx i in
                   match acc with
                   | None -> Some ci
                   | Some prev -> Some (fun fr -> prev fr; ci fr))
                None b.instrs
            in
            let term = compile_term b.term in
            match body with
            | None -> term
            | Some body -> fun fr -> body fr; term fr)
         f.blocks)
  in
  (* argument binding: Load_argument instructions of the entry block *)
  let binders =
    List.concat_map
      (fun b ->
         List.filter_map
           (fun i ->
              match i with
              | Load_argument { dst; index } ->
                let set = set_var ctx dst in
                Some (fun fr (args : Rtval.t array) -> set fr args.(index))
              | _ -> None)
           b.instrs)
      f.blocks
  in
  fun args ->
    let fr = { ri = Array.make (max ni 1) 0;
               rr = Array.make (max nr 1) 0.0;
               ro = Array.make (max no 1) Rtval.Unit;
               ret = Rtval.Unit }
    in
    List.iter (fun bind -> bind fr args) binders;
    let pc = ref 0 in
    while !pc >= 0 do
      pc := blocks.(!pc) fr
    done;
    fr.ret

let compile (c : Pipeline.compiled) : Rtval.closure =
  Wolf_obs.Trace.with_span ~cat:"codegen" "native-codegen" @@ fun () ->
  let prog = c.Pipeline.program in
  let funcs : (string, (Rtval.t array -> Rtval.t) ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun f ->
       Hashtbl.replace funcs f.fname
         (ref (fun _ -> invalid_arg ("native: " ^ f.fname ^ " not yet compiled"))))
    prog.funcs;
  let inline = c.Pipeline.coptions.Options.inline_level > 0 in
  let profile = c.Pipeline.coptions.Options.profile in
  List.iter
    (fun f ->
       let ctx = { slots = Hashtbl.create 64; funcs; inline } in
       let compiled = compile_func ctx f in
       (* under --profile every WIR function body is wrapped at its call
          boundary, so the hot-function table sees calls/self-time per
          function, including recursive and cross-function calls through
          the [funcs] indirection *)
       let compiled =
         if profile then Wolf_obs.Profile.wrap_fn f.fname compiled else compiled
       in
       Hashtbl.find funcs f.fname := compiled)
    prog.funcs;
  let main = Wir.main prog in
  let entry = !(Hashtbl.find funcs main.fname) in
  { Rtval.arity = Array.length main.fparams; call = entry }
