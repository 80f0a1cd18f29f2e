open Wolf_wexpr
open Wolf_base

let ( let* ) = Option.bind

let sym_of = function Expr.Sym s -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Part access                                                         *)

let list_index args i = Tensor.part_index (Array.length args) i

let rec part_get e idxs =
  match idxs with
  | [] -> e
  | i :: rest ->
    (match e with
     | Expr.Tensor t ->
       let j = Tensor.normalize_index t i in
       if Tensor.rank t = 1 then begin
         if rest <> [] then
           Errors.eval_errorf "Part: depth exceeds tensor rank";
         if Tensor.is_int t then Expr.Int (Tensor.get_int t j)
         else Expr.Real (Tensor.get_real t j)
       end
       else part_get (Expr.Tensor (Tensor.slice t j)) rest
     | Expr.Normal (h, args) ->
       if i = 0 then begin
         if rest <> [] then Errors.eval_errorf "Part: cannot index into head";
         h
       end
       else part_get args.(list_index args i) rest
     | _ -> Errors.eval_errorf "Part: %s has no parts" (Expr.to_string e))

let rec part_set e idxs v =
  match idxs with
  | [] -> v
  | i :: rest ->
    (match e with
     | Expr.Tensor t ->
       (* copy-on-write: mutate in place only when we hold the sole ref *)
       let t = Tensor.ensure_unique t in
       let j = Tensor.normalize_index t i in
       if Tensor.rank t = 1 then begin
         if rest <> [] then Errors.eval_errorf "Part: depth exceeds tensor rank";
         (match v with
          | Expr.Int x -> Tensor.set_int t j x
          | Expr.Real x -> Tensor.set_real t j x
          | _ -> Errors.eval_errorf "Part: cannot store %s in packed array"
                   (Expr.to_string v));
         Expr.Tensor t
       end
       else begin
         let sub = part_set (Expr.Tensor (Tensor.slice t j)) rest v in
         (match sub with
          | Expr.Tensor st -> Tensor.set_slice t j st
          | _ -> Errors.eval_errorf "Part: bad packed-array update");
         Expr.Tensor t
       end
     | Expr.Normal (h, args) ->
       let j = list_index args i in
       let copy = Array.copy args in
       copy.(j) <- part_set args.(j) rest v;
       Expr.Normal (h, copy)
     | _ -> Errors.eval_errorf "Part: %s has no parts" (Expr.to_string e))

(* ------------------------------------------------------------------ *)
(* Assignment                                                          *)

let eval_indices ev idxs =
  List.map
    (fun ix ->
       match Expr.int_of (ev ix) with
       | Some i -> i
       | None -> Errors.eval_errorf "Part: non-integer index %s" (Expr.to_string ix))
    idxs

let do_set ev ~delayed lhs rhs =
  match lhs with
  | Expr.Sym s ->
    if Symbol.has_attribute s Attributes.Protected then
      Errors.eval_errorf "Set: symbol %s is Protected" (Symbol.name s);
    let value = if delayed then rhs else ev rhs in
    Values.set_own_value s value;
    Some (if delayed then Expr.null else value)
  | Expr.Normal (Expr.Sym p, pargs)
    when Symbol.equal p Expr.Sy.part && Array.length pargs >= 2 ->
    (* a[[i]] = v mutates the symbol's stored value *)
    let* target = sym_of pargs.(0) in
    let current =
      match Values.own_value target with
      | Some v -> v
      | None -> Errors.eval_errorf "Part: %s has no value" (Symbol.name target)
    in
    let idxs = eval_indices ev (Array.to_list (Array.sub pargs 1 (Array.length pargs - 1))) in
    let value = ev rhs in
    let updated = part_set current idxs value in
    Values.set_own_value target updated;
    Some value
  | Expr.Normal (Expr.Sym f, _) ->
    if Eval.is_builtin f && Symbol.has_attribute f Attributes.Protected then
      Errors.eval_errorf "Set: %s is Protected" (Symbol.name f);
    let value = if delayed then rhs else ev rhs in
    Values.add_down_value f { Values.lhs; rhs = value };
    Some (if delayed then Expr.null else value)
  | _ -> Errors.eval_errorf "Set: invalid assignment target %s" (Expr.to_string lhs)

let numeric_update name op ev args =
  match args with
  | [| Expr.Sym s; amount |] ->
    let current =
      match Values.own_value s with
      | Some v -> v
      | None -> Errors.eval_errorf "%s: %s has no value" name (Symbol.name s)
    in
    let amount = ev amount in
    (match op current amount with
     | Some updated ->
       Values.set_own_value s updated;
       Some updated
     | None -> Errors.eval_errorf "%s: non-numeric value" name)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Scoping                                                             *)

let scope_bindings ev inits =
  match inits with
  | Expr.Normal (Expr.Sym l, items) when Symbol.equal l Expr.Sy.list ->
    Array.to_list items
    |> List.map (function
        | Expr.Sym v -> (v, None)
        | Expr.Normal (Expr.Sym st, [| Expr.Sym v; init |])
          when Symbol.equal st Expr.Sy.set ->
          (v, Some (ev init))
        | e -> Errors.eval_errorf "invalid scoping binding %s" (Expr.to_string e))
  | e -> Errors.eval_errorf "invalid scoping variable list %s" (Expr.to_string e)

let module_builtin ev args =
  match args with
  | [| inits; body |] ->
    let bindings = scope_bindings ev inits in
    let renames =
      List.map
        (fun (v, init) ->
           let fresh = Symbol.fresh (Symbol.name v) in
           (match init with
            | Some value -> Values.set_own_value fresh value
            | None -> ());
           (v, Expr.Sym fresh))
        bindings
    in
    Some (ev (Pattern.substitute renames body))
  | _ -> None

let block_builtin ev args =
  match args with
  | [| inits; body |] ->
    let bindings = scope_bindings ev inits in
    let snapshot = Values.save (List.map fst bindings) in
    List.iter
      (fun (v, init) ->
         Values.clear_down_values v;
         match init with
         | Some value -> Values.set_own_value v value
         | None -> Values.clear_own_value v)
      bindings;
    let restore () = Values.restore snapshot in
    (match ev body with
     | result -> restore (); Some result
     | exception e -> restore (); raise e)
  | _ -> None

let with_builtin ev args =
  match args with
  | [| inits; body |] ->
    let bindings = scope_bindings ev inits in
    let substs =
      List.map
        (function
          | (v, Some value) -> (v, value)
          | (v, None) ->
            Errors.eval_errorf "With: %s needs an initial value" (Symbol.name v))
        bindings
    in
    Some (ev (Pattern.substitute substs body))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Control flow                                                        *)

let if_builtin ev args =
  match args with
  | [| cond; then_ |] ->
    let c = ev cond in
    if Expr.is_true c then Some (ev then_)
    else if Expr.is_false c then Some Expr.null
    else None
  | [| cond; then_; else_ |] ->
    let c = ev cond in
    if Expr.is_true c then Some (ev then_)
    else if Expr.is_false c then Some (ev else_)
    else None
  | [| cond; then_; else_; other |] ->
    let c = ev cond in
    if Expr.is_true c then Some (ev then_)
    else if Expr.is_false c then Some (ev else_)
    else Some (ev other)
  | _ -> None

let while_builtin ev args =
  let cond, body =
    match args with
    | [| cond |] -> (cond, Expr.null)
    | [| cond; body |] -> (cond, body)
    | _ -> Errors.eval_errorf "While: wrong argument count"
  in
  let rec loop () =
    if Expr.is_true (ev cond) then begin
      (match ev body with
       | _ -> ()
       | exception Eval.Continue_loop -> ());
      loop ()
    end
  in
  (match loop () with () -> () | exception Eval.Break_loop -> ());
  Some Expr.null

(* Iterator spec: {i, n} | {i, lo, hi} | {i, lo, hi, step} | {n}. *)
let iterator_spec ev spec =
  match spec with
  | Expr.Normal (Expr.Sym l, items) when Symbol.equal l Expr.Sy.list ->
    let num e =
      match ev e with
      | Expr.Int i -> `I i
      | Expr.Real r -> `R r
      | e -> Errors.eval_errorf "iterator bound %s is not numeric" (Expr.to_string e)
    in
    (match items with
     | [| Expr.Sym v; hi |] -> (Some v, `I 1, num hi, `I 1)
     | [| Expr.Sym v; lo; hi |] -> (Some v, num lo, num hi, `I 1)
     | [| Expr.Sym v; lo; hi; step |] -> (Some v, num lo, num hi, num step)
     | [| hi |] -> (None, `I 1, num hi, `I 1)
     | _ -> Errors.eval_errorf "invalid iterator %s" (Expr.to_string spec))
  | hi ->
    (match ev hi with
     | Expr.Int n -> (None, `I 1, `I n, `I 1)
     | e -> Errors.eval_errorf "invalid iterator %s" (Expr.to_string e))

let iterate ev spec f =
  let var, lo, hi, step = iterator_spec ev spec in
  let as_r = function `I i -> float_of_int i | `R r -> r in
  let all_int = match lo, hi, step with `I _, `I _, `I _ -> true | _ -> false in
  if all_int then begin
    let lo = (match lo with `I i -> i | `R _ -> 0) in
    let hi = (match hi with `I i -> i | `R _ -> 0) in
    let step = (match step with `I i -> i | `R _ -> 1) in
    if step = 0 then Errors.eval_errorf "iterator step is zero";
    let i = ref lo in
    while (step > 0 && !i <= hi) || (step < 0 && !i >= hi) do
      f var (Expr.Int !i);
      i := !i + step
    done
  end
  else begin
    let lo = as_r lo and hi = as_r hi and step = as_r step in
    if step = 0.0 then Errors.eval_errorf "iterator step is zero";
    let x = ref lo in
    while (step > 0.0 && !x <= hi +. 1e-12) || (step < 0.0 && !x >= hi -. 1e-12) do
      f var (Expr.Real !x);
      x := !x +. step
    done
  end

let loop_body ev var value body =
  let expr =
    match var with
    | Some v -> Pattern.substitute [ (v, value) ] body
    | None -> body
  in
  match ev expr with
  | _ -> ()
  | exception Eval.Continue_loop -> ()

let do_builtin ev args =
  match args with
  | [| body; spec |] ->
    (match iterate ev spec (fun var value -> loop_body ev var value body) with
     | () -> ()
     | exception Eval.Break_loop -> ());
    Some Expr.null
  | _ -> None

let for_builtin ev args =
  match args with
  | [| init; cond; incr |] | [| init; cond; incr; _ |] ->
    let body = if Array.length args = 4 then args.(3) else Expr.null in
    ignore (ev init);
    let rec loop () =
      if Expr.is_true (ev cond) then begin
        (match ev body with
         | _ -> ()
         | exception Eval.Continue_loop -> ());
        ignore (ev incr);
        loop ()
      end
    in
    (match loop () with () -> () | exception Eval.Break_loop -> ());
    Some Expr.null
  | _ -> None

let install () =
  Eval.register "CompoundExpression" ~attrs:[ Attributes.Hold_all ] (fun ev args ->
      let n = Array.length args in
      let result = ref Expr.null in
      Array.iteri (fun i a -> if i < n then result := ev a) args;
      Some !result);
  Eval.register "Set" ~attrs:[ Attributes.Hold_first; Attributes.Sequence_hold ] (fun ev args ->
      match args with
      | [| lhs; rhs |] -> do_set ev ~delayed:false lhs rhs
      | _ -> None);
  Eval.register "SetDelayed" ~attrs:[ Attributes.Hold_all; Attributes.Sequence_hold ] (fun ev args ->
      match args with
      | [| lhs; rhs |] -> do_set ev ~delayed:true lhs rhs
      | _ -> None);
  Eval.register "Increment" ~attrs:[ Attributes.Hold_first ] (fun ev args ->
      match args with
      | [| Expr.Sym _ |] ->
        let old = ref Expr.null in
        let r =
          numeric_update "Increment"
            (fun c a -> old := c; Numeric.add2 c a)
            ev
            [| args.(0); Expr.Int 1 |]
        in
        (match r with Some _ -> Some !old | None -> None)
      | _ -> None);
  Eval.register "Decrement" ~attrs:[ Attributes.Hold_first ] (fun ev args ->
      match args with
      | [| Expr.Sym _ |] ->
        let old = ref Expr.null in
        let r =
          numeric_update "Decrement"
            (fun c a -> old := c; Numeric.sub2 c a)
            ev
            [| args.(0); Expr.Int 1 |]
        in
        (match r with Some _ -> Some !old | None -> None)
      | _ -> None);
  Eval.register "PreIncrement" ~attrs:[ Attributes.Hold_first ] (fun ev args ->
      match args with
      | [| target |] -> numeric_update "PreIncrement" Numeric.add2 ev [| target; Expr.Int 1 |]
      | _ -> None);
  Eval.register "AddTo" ~attrs:[ Attributes.Hold_first ] (numeric_update "AddTo" Numeric.add2);
  Eval.register "SubtractFrom" ~attrs:[ Attributes.Hold_first ]
    (numeric_update "SubtractFrom" Numeric.sub2);
  Eval.register "TimesBy" ~attrs:[ Attributes.Hold_first ] (numeric_update "TimesBy" Numeric.mul2);
  Eval.register "DivideBy" ~attrs:[ Attributes.Hold_first ] (numeric_update "DivideBy" Numeric.div2);
  Eval.register "Unset" ~attrs:[ Attributes.Hold_first ] (fun _ args ->
      match args with
      | [| Expr.Sym s |] -> Values.clear_own_value s; Some Expr.null
      | _ -> None);
  Eval.register "Clear" ~attrs:[ Attributes.Hold_all ] (fun _ args ->
      Array.iter
        (function
          | Expr.Sym s -> Values.clear_own_value s; Values.clear_down_values s
          | _ -> ())
        args;
      Some Expr.null);
  Eval.register "Part" (fun ev args ->
      if Array.length args < 2 then None
      else begin
        let target = args.(0) in
        match target with
        | Expr.Sym _ -> None (* unevaluated symbol: stay symbolic *)
        | _ ->
          let idxs = eval_indices ev (Array.to_list (Array.sub args 1 (Array.length args - 1))) in
          Some (part_get target idxs)
      end);
  Eval.register "Module" ~attrs:[ Attributes.Hold_all ] module_builtin;
  Eval.register "Block" ~attrs:[ Attributes.Hold_all ] block_builtin;
  Eval.register "With" ~attrs:[ Attributes.Hold_all ] with_builtin;
  Eval.register "If" ~attrs:[ Attributes.Hold_rest ] if_builtin;
  Eval.register "While" ~attrs:[ Attributes.Hold_all ] while_builtin;
  Eval.register "Do" ~attrs:[ Attributes.Hold_all ] do_builtin;
  Eval.register "For" ~attrs:[ Attributes.Hold_all ] for_builtin;
  Eval.register "Which" ~attrs:[ Attributes.Hold_all ] (fun ev args ->
      let n = Array.length args in
      if n mod 2 <> 0 then None
      else begin
        let rec go i =
          if i >= n then Some Expr.null
          else begin
            let c = ev args.(i) in
            if Expr.is_true c then Some (ev args.(i + 1))
            else if Expr.is_false c then go (i + 2)
            else None
          end
        in
        go 0
      end);
  Eval.register "Switch" ~attrs:[ Attributes.Hold_rest ] (fun ev args ->
      if Array.length args < 3 then None
      else begin
        let subject = args.(0) in
        let rec go i =
          if i + 1 >= Array.length args then Some Expr.null
          else
            match Pattern.match_expr ~eval:ev ~pattern:args.(i) subject with
            | Some binds -> Some (ev (Pattern.substitute binds args.(i + 1)))
            | None -> go (i + 2)
        in
        go 1
      end);
  Eval.register "Return" (fun _ args ->
      match args with
      | [||] -> raise (Eval.Return_value Expr.null)
      | [| v |] -> raise (Eval.Return_value v)
      | _ -> None);
  Eval.register "Break" (fun _ _ -> raise Eval.Break_loop);
  Eval.register "Continue" (fun _ _ -> raise Eval.Continue_loop);
  Eval.register "Abort" (fun _ _ ->
      Abort_signal.request ();
      Abort_signal.interp_check ();
      None);
  Eval.register "Hold" ~attrs:[ Attributes.Hold_all ] (fun _ _ -> None);
  Eval.register "HoldComplete" ~attrs:[ Attributes.Hold_all ] (fun _ _ -> None);
  Eval.register "Evaluate" (fun _ args ->
      match args with [| e |] -> Some e | _ -> None);
  Eval.register "Identity" (fun _ args ->
      match args with [| e |] -> Some e | _ -> None);
  (* Function is inert but must hold its parameters and body. *)
  Eval.register "Function" ~attrs:[ Attributes.Hold_all ] (fun _ _ -> None)
