open Wir

let const_key = function
  | Cvoid -> "v"
  | Cint i -> "i" ^ string_of_int i
  | Creal r -> "r" ^ string_of_float r
  | Cbool b -> "b" ^ string_of_bool b
  | Cstr s -> "s" ^ s
  | Cexpr e -> "e" ^ Wolf_wexpr.Expr.to_string e

let op_key = function
  | Ovar v -> "%" ^ string_of_int v.vid
  | Oconst c -> const_key c

(* Value types where sharing is unobservable (scalars). Packed arrays and
   expressions are excluded: de-duplicating them would change aliasing. *)
let scalar_result v =
  match v.vty with
  | Some t ->
    (match Types.repr t with
     | Types.Con (("Integer64" | "Real64" | "Boolean" | "String" | "ComplexReal64"), _) ->
       true
     | _ -> false)
  | None -> false

let run (p : program) =
  let changed = ref false in
  List.iter
    (fun f ->
       let cfg = Analysis.build_cfg f in
       (* available expressions propagate down the dominator tree: a value
          computed in a dominator is in scope at every dominated use *)
       let replacements : (int, var) Hashtbl.t = Hashtbl.create 8 in
       let subst op =
         match op with
         | Ovar v ->
           (match Hashtbl.find_opt replacements v.vid with
            | Some w -> changed := true; Ovar w
            | None -> op)
         | Oconst _ -> op
       in
       let avail_at = Array.make cfg.Analysis.nreach (Hashtbl.create 0) in
       for n = 0 to cfg.Analysis.nreach - 1 do
         let b = cfg.Analysis.nodes.(n) in
         let available =
           if n = 0 then Hashtbl.create 16 else Hashtbl.copy avail_at.(cfg.Analysis.idom.(n))
         in
         b.instrs <-
           List.map
             (fun i ->
                let i = map_instr_operands subst i in
                match i with
                | Call { dst; callee = Resolved { mangled; base }; args }
                  (* a pure primitive computes the same value again; if
                     the first call failed, control never reaches this one *)
                  when Wolf_runtime.Prims.holds base (fun r -> r.effect = Pure)
                       && scalar_result dst ->
                  let key =
                    mangled ^ "("
                    ^ String.concat "," (Array.to_list (Array.map op_key args))
                    ^ ")"
                  in
                  (match Hashtbl.find_opt available key with
                   | Some prior ->
                     (* keep a Copy so uses in later blocks stay defined *)
                     Hashtbl.replace replacements dst.vid prior;
                     changed := true;
                     Copy { dst; src = Ovar prior }
                   | None ->
                     Hashtbl.replace available key dst;
                     i)
                | _ -> i)
             b.instrs;
         b.term <- map_term_operands subst b.term;
         avail_at.(n) <- available
       done)
    p.funcs;
  !changed
