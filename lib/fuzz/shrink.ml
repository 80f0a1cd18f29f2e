open Ast

(* ---- variable-use scan (for safe binder removal) --------------------- *)

let rec expr_used v e =
  match e with
  | Var (n, _) -> n = v
  | Part (n, i) -> n = v || expr_used v i
  | Int _ | Real _ | Bool _ | Str _ | Arr _ -> false
  | Bin (_, _, a, b) | Cmp (_, _, a, b) | And (a, b) | Or (a, b)
  | StrJoin (a, b) ->
    expr_used v a || expr_used v b
  | Un (_, _, a) | ConstArr (a, _) -> expr_used v a
  | If (_, c, t, f) -> expr_used v c || expr_used v t || expr_used v f
  | MapArr (x, b, a) -> x = v || expr_used v b || expr_used v a
  | FoldMM (_, sv, xv, i, a) ->
    sv = v || xv = v || expr_used v i || expr_used v a

let rec stmt_used v s =
  match s with
  | Assign (n, _, e) -> n = v || expr_used v e
  | PartSet (n, i, e) -> n = v || expr_used v i || expr_used v e
  | PartSetIv (n, i, e) -> n = v || i = v || expr_used v e
  | SIf (c, ts, fs) ->
    expr_used v c || List.exists (stmt_used v) ts || List.exists (stmt_used v) fs
  | While (n, _, body) -> n = v || List.exists (stmt_used v) body
  | DoLoop (n, _, body) -> n = v || List.exists (stmt_used v) body
  | RawSum (c, a, r, cap, _, _) -> c = v || a = v || r = v || cap = Some v

let fn_uses fn v =
  List.exists (fun l -> expr_used v l.linit) (fn.withs @ fn.locals)
  || List.exists (stmt_used v) fn.body
  || expr_used v fn.result

(* whether any statement writes [v] (assignment, indexed store, or use as a
   loop counter/iterator) — inlining a literal for such a name is unsound *)
let rec assigns v s =
  match s with
  | Assign (n, _, _) -> n = v
  | PartSet (n, _, _) | PartSetIv (n, _, _) -> n = v
  | SIf (_, ts, fs) -> List.exists (assigns v) ts || List.exists (assigns v) fs
  | While (n, _, body) | DoLoop (n, _, body) ->
    n = v || List.exists (assigns v) body
  | RawSum (c, _, r, _, _, _) -> c = v || r = v

let fn_assigns fn v = List.exists (assigns v) fn.body

(* whether [v] appears in a [Part] target position, where only a variable
   name (not a substituted literal) is representable *)
let rec expr_part_target v e =
  match e with
  | Part (n, i) -> n = v || expr_part_target v i
  | Int _ | Real _ | Bool _ | Str _ | Arr _ | Var _ -> false
  | Bin (_, _, a, b) | Cmp (_, _, a, b) | And (a, b) | Or (a, b)
  | StrJoin (a, b) ->
    expr_part_target v a || expr_part_target v b
  | Un (_, _, a) | ConstArr (a, _) -> expr_part_target v a
  | If (_, c, t, f) ->
    expr_part_target v c || expr_part_target v t || expr_part_target v f
  | MapArr (_, b, a) -> expr_part_target v b || expr_part_target v a
  | FoldMM (_, _, _, i, a) -> expr_part_target v i || expr_part_target v a

let rec stmt_part_target v s =
  match s with
  | Assign (_, _, e) -> expr_part_target v e
  | PartSet (n, i, e) -> n = v || expr_part_target v i || expr_part_target v e
  | PartSetIv (n, i, e) -> n = v || i = v || expr_part_target v e
  | SIf (c, ts, fs) ->
    expr_part_target v c
    || List.exists (stmt_part_target v) ts
    || List.exists (stmt_part_target v) fs
  | While (_, _, body) | DoLoop (_, _, body) ->
    List.exists (stmt_part_target v) body
  (* names only: neither the array nor the cap may become a literal *)
  | RawSum (_, a, _, cap, _, _) -> a = v || cap = Some v

let fn_part_target fn v =
  List.exists (fun l -> expr_part_target v l.linit) (fn.withs @ fn.locals)
  || List.exists (stmt_part_target v) fn.body
  || expr_part_target v fn.result

let rec subst_expr v r e =
  match e with
  | Var (n, _) when n = v -> r
  | Int _ | Real _ | Bool _ | Str _ | Arr _ | Var _ -> e
  | Bin (op, t, a, b) -> Bin (op, t, subst_expr v r a, subst_expr v r b)
  | Un (op, t, a) -> Un (op, t, subst_expr v r a)
  | Cmp (op, t, a, b) -> Cmp (op, t, subst_expr v r a, subst_expr v r b)
  | And (a, b) -> And (subst_expr v r a, subst_expr v r b)
  | Or (a, b) -> Or (subst_expr v r a, subst_expr v r b)
  | If (t, c, x, y) ->
    If (t, subst_expr v r c, subst_expr v r x, subst_expr v r y)
  | Part (n, i) -> Part (n, subst_expr v r i)
  | StrJoin (a, b) -> StrJoin (subst_expr v r a, subst_expr v r b)
  | ConstArr (a, k) -> ConstArr (subst_expr v r a, k)
  | MapArr (x, b, a) ->
    MapArr (x, (if x = v then b else subst_expr v r b), subst_expr v r a)
  | FoldMM (op, sv, xv, i, a) ->
    FoldMM (op, sv, xv, subst_expr v r i, subst_expr v r a)

let rec subst_stmt v r s =
  match s with
  | Assign (n, t, e) -> Assign (n, t, subst_expr v r e)
  | PartSet (n, i, e) -> PartSet (n, subst_expr v r i, subst_expr v r e)
  | PartSetIv (n, i, e) -> PartSetIv (n, i, subst_expr v r e)
  | SIf (c, ts, fs) ->
    SIf (subst_expr v r c, List.map (subst_stmt v r) ts,
         List.map (subst_stmt v r) fs)
  | While (n, k, body) -> While (n, k, List.map (subst_stmt v r) body)
  | DoLoop (n, k, body) -> DoLoop (n, k, List.map (subst_stmt v r) body)
  | RawSum _ -> s

let subst_fn v r fn =
  { fn with
    withs = List.map (fun l -> { l with linit = subst_expr v r l.linit }) fn.withs;
    locals = List.map (fun l -> { l with linit = subst_expr v r l.linit }) fn.locals;
    body = List.map (subst_stmt v r) fn.body;
    result = subst_expr v r fn.result }

let is_literal = function
  | Int _ | Real _ | Bool _ | Str _ | Arr _ -> true
  | Var _ | Bin _ | Un _ | Cmp _ | And _ | Or _ | If _ | Part _ | StrJoin _
  | ConstArr _ | MapArr _ | FoldMM _ -> false

(* ---- expression reductions ------------------------------------------ *)

let default_lit = function
  | TInt -> Int 0
  | TReal -> Real 0.0
  | TBool -> Bool true
  | TStr -> Str "a"
  | TArr -> Arr [ 0 ]

(* strict one-step reductions of [e], all of the same type and all of
   strictly smaller node count *)
let rec expr_variants e =
  let t = expr_ty e in
  let sub_same xs = List.filter (fun s -> expr_ty s = t) xs in
  let lit =
    let l = default_lit t in
    if expr_size e > expr_size l then [ l ] else []
  in
  let direct =
    match e with
    | Int _ | Real _ | Bool _ | Str _ | Var _ -> []
    | Arr xs -> if List.length xs > 1 then [ Arr [ List.hd xs ] ] else []
    | Bin (_, _, a, b) | Cmp (_, _, a, b) | And (a, b) | Or (a, b)
    | StrJoin (a, b) ->
      sub_same [ a; b ]
    | Un (_, _, a) | ConstArr (a, _) -> sub_same [ a ]
    | Part (_, i) -> sub_same [ i ]
    | If (_, _, a, b) -> sub_same [ a; b ]
    | MapArr (_, _, a) -> sub_same [ a ]
    | FoldMM (_, _, _, i, _) -> sub_same [ i ]
  in
  let rebuilt =
    match e with
    | Int _ | Real _ | Bool _ | Str _ | Arr _ | Var _ -> []
    | Bin (op, t, a, b) ->
      List.map (fun a' -> Bin (op, t, a', b)) (expr_variants a)
      @ List.map (fun b' -> Bin (op, t, a, b')) (expr_variants b)
    | Un (op, t, a) -> List.map (fun a' -> Un (op, t, a')) (expr_variants a)
    | Cmp (op, t, a, b) ->
      List.map (fun a' -> Cmp (op, t, a', b)) (expr_variants a)
      @ List.map (fun b' -> Cmp (op, t, a, b')) (expr_variants b)
    | And (a, b) ->
      List.map (fun a' -> And (a', b)) (expr_variants a)
      @ List.map (fun b' -> And (a, b')) (expr_variants b)
    | Or (a, b) ->
      List.map (fun a' -> Or (a', b)) (expr_variants a)
      @ List.map (fun b' -> Or (a, b')) (expr_variants b)
    | If (t, c, x, y) ->
      List.map (fun c' -> If (t, c', x, y)) (expr_variants c)
      @ List.map (fun x' -> If (t, c, x', y)) (expr_variants x)
      @ List.map (fun y' -> If (t, c, x, y')) (expr_variants y)
    | Part (v, i) -> List.map (fun i' -> Part (v, i')) (expr_variants i)
    | StrJoin (a, b) ->
      List.map (fun a' -> StrJoin (a', b)) (expr_variants a)
      @ List.map (fun b' -> StrJoin (a, b')) (expr_variants b)
    | ConstArr (a, k) -> List.map (fun a' -> ConstArr (a', k)) (expr_variants a)
    | MapArr (x, b, a) ->
      List.map (fun b' -> MapArr (x, b', a)) (expr_variants b)
      @ List.map (fun a' -> MapArr (x, b, a')) (expr_variants a)
    | FoldMM (op, sv, xv, i, a) ->
      List.map (fun i' -> FoldMM (op, sv, xv, i', a)) (expr_variants i)
      @ List.map (fun a' -> FoldMM (op, sv, xv, i, a')) (expr_variants a)
  in
  lit @ direct @ rebuilt

(* ---- statement reductions -------------------------------------------- *)

(* each variant of a statement is a replacement *list* of statements:
   [[]] drops it, a loop body unwraps it, … *)
let rec stmt_variants s : stmt list list =
  let drop = [ [] ] in
  match s with
  | Assign (v, t, e) ->
    drop @ List.map (fun e' -> [ Assign (v, t, e') ]) (expr_variants e)
  | PartSet (v, i, e) ->
    drop
    @ List.map (fun i' -> [ PartSet (v, i', e) ]) (expr_variants i)
    @ List.map (fun e' -> [ PartSet (v, i, e') ]) (expr_variants e)
  | PartSetIv (v, i, e) ->
    drop @ List.map (fun e' -> [ PartSetIv (v, i, e') ]) (expr_variants e)
  | SIf (c, ts, fs) ->
    drop @ [ ts ]
    @ (if fs <> [] then [ fs ] else [])
    @ List.map (fun c' -> [ SIf (c', ts, fs) ]) (expr_variants c)
    @ List.map (fun ts' -> [ SIf (c, ts', fs) ]) (stmts_variants ts)
    @ List.map (fun fs' -> [ SIf (c, ts, fs') ]) (stmts_variants fs)
  | While (v, k, body) ->
    drop @ [ body ]
    @ (if k > 1 then [ [ While (v, 1, body) ] ] else [])
    @ List.map (fun b' -> [ While (v, k, b') ]) (stmts_variants body)
  | DoLoop (v, k, body) ->
    drop
    @ (if List.exists (stmt_used v) body then [] else [ body ])
    @ (if k > 1 then [ [ DoLoop (v, 1, body) ] ] else [])
    @ List.map (fun b' -> [ DoLoop (v, k, b') ]) (stmts_variants body)
  | RawSum _ -> drop

and stmts_variants ss : stmt list list =
  (* replace one statement at a time by each of its variants *)
  let rec go before after =
    match after with
    | [] -> []
    | s :: rest ->
      List.map (fun repl -> List.rev_append before (repl @ rest)) (stmt_variants s)
      @ go (s :: before) rest
  in
  go [] ss

(* ---- whole-case reductions ------------------------------------------- *)

let measure (case : case) =
  let rec bounds_stmt s =
    match s with
    | While (_, k, body) | DoLoop (_, k, body) ->
      (* a counter may start near the top of the machine range *)
      min k 64 + List.fold_left (fun a s -> a + bounds_stmt s) 0 body
    | SIf (_, ts, fs) ->
      List.fold_left (fun a s -> a + bounds_stmt s) 0 (ts @ fs)
    | Assign _ | PartSet _ | PartSetIv _ | RawSum _ -> 0
  in
  let args_size =
    List.fold_left (fun a e -> a + Ast.expr_size e) 0 case.args
  in
  ( Ast.size case.fn + args_size,
    List.fold_left (fun a s -> a + bounds_stmt s) 0 case.fn.body )

let candidates (case : case) : case list =
  let fn = case.fn in
  let with_fn fn' = { case with fn = fn' } in
  let result_vs =
    List.map (fun r -> with_fn { fn with result = r }) (expr_variants fn.result)
  in
  let body_vs =
    List.map (fun b -> with_fn { fn with body = b }) (stmts_variants fn.body)
  in
  let binding_vs mk get =
    (* drop an unused binding, or shrink one binding's init *)
    let ls = get fn in
    List.concat
      (List.mapi
         (fun i l ->
            let others = List.filteri (fun j _ -> j <> i) ls in
            let fn_without = mk fn others in
            let dropped =
              if fn_uses fn_without l.lname then []
              else [ with_fn fn_without ]
            in
            dropped
            @ List.map
                (fun e' ->
                   with_fn
                     (mk fn
                        (List.mapi (fun j l' -> if j = i then { l' with linit = e' } else l')
                           ls)))
                (expr_variants l.linit))
         ls)
  in
  let local_vs = binding_vs (fun fn ls -> { fn with locals = ls }) (fun f -> f.locals) in
  let with_vs = binding_vs (fun fn ls -> { fn with withs = ls }) (fun f -> f.withs) in
  (* a scoping form whose body is one of its own bound variables becomes
     that variable's initialiser: [Module[{m = e}, m]] -> [e].  Replacing the
     Var alone never shrinks (a Var is as small as any literal), so the
     binding goes in the same step, when nothing else reads it. *)
  let result_binding_vs mk get =
    match fn.result with
    | Var (v, _) ->
      let ls = get fn in
      List.concat
        (List.mapi
           (fun i l ->
              if l.lname <> v then []
              else
                let fn' =
                  { (mk fn (List.filteri (fun j _ -> j <> i) ls)) with
                    result = l.linit }
                in
                if fn_uses fn' v then [] else [ with_fn fn' ])
           ls)
    | _ -> []
  in
  let result_local_vs =
    result_binding_vs (fun fn ls -> { fn with locals = ls }) (fun f -> f.locals)
  in
  let result_with_vs =
    result_binding_vs (fun fn ls -> { fn with withs = ls }) (fun f -> f.withs)
  in
  (* inline a literal-initialised binding into its uses and drop it; for
     mutable (Module) bindings only when nothing ever writes the name, and
     never when the name is a Part/indexed-store target (a literal is not
     representable there).  This collapses Var chains the pure drop/replace
     reductions cannot (replacing a Var by an equal-sized literal never
     strictly shrinks, so greedy shrinking would otherwise get stuck). *)
  let inline_vs mk get ~mutable_ =
    let ls = get fn in
    List.concat
      (List.mapi
         (fun i l ->
            if not (is_literal l.linit) then []
            else if (mutable_ && fn_assigns fn l.lname)
                 || fn_part_target fn l.lname then []
            else
              let others = List.filteri (fun j _ -> j <> i) ls in
              [ with_fn (subst_fn l.lname l.linit (mk fn others)) ])
         ls)
  in
  let inline_local_vs =
    inline_vs (fun fn ls -> { fn with locals = ls }) (fun f -> f.locals)
      ~mutable_:true
  in
  let inline_with_vs =
    inline_vs (fun fn ls -> { fn with withs = ls }) (fun f -> f.withs)
      ~mutable_:false
  in
  (* likewise inline a call argument (always a literal) for its parameter *)
  let inline_param_vs =
    List.concat
      (List.mapi
         (fun i (p, _) ->
            let arg = List.nth case.args i in
            if not (is_literal arg) || fn_assigns fn p || fn_part_target fn p
            then []
            else
              let fn' =
                { fn with params = List.filteri (fun j _ -> j <> i) fn.params }
              in
              [ { fn = subst_fn p arg fn';
                  args = List.filteri (fun j _ -> j <> i) case.args } ])
         fn.params)
  in
  let param_vs =
    List.concat
      (List.mapi
         (fun i (p, _) ->
            let fn' = { fn with params = List.filteri (fun j _ -> j <> i) fn.params } in
            if fn_uses fn' p then []
            else
              [ { fn = fn'; args = List.filteri (fun j _ -> j <> i) case.args } ])
         fn.params)
  in
  let arg_vs =
    List.concat
      (List.mapi
         (fun i a ->
            match a with
            | Arr xs when List.length xs > 1 ->
              [ { case with
                  args =
                    List.mapi (fun j a' -> if j = i then Arr [ List.hd xs ] else a')
                      case.args } ]
            | _ -> [])
         case.args)
  in
  result_vs @ body_vs @ local_vs @ with_vs @ result_local_vs @ result_with_vs
  @ param_vs @ arg_vs
  @ inline_local_vs @ inline_with_vs @ inline_param_vs

let rec shrink ~fails case =
  let m = measure case in
  let next =
    List.find_opt
      (fun c -> measure c < m && fails c)
      (candidates case)
  in
  match next with
  | Some c -> shrink ~fails c
  | None -> case
