open Wolf_wexpr
open Wolf_base

type evaluator = Expr.t -> Expr.t
type builtin = evaluator -> Expr.t array -> Expr.t option

exception Return_value of Expr.t
exception Break_loop
exception Continue_loop

let builtins : (int, builtin) Hashtbl.t = Hashtbl.create 256

let register name ?(attrs = []) fn =
  let s = Symbol.intern name in
  Symbol.set_attributes s (Attributes.of_list attrs);
  Hashtbl.replace builtins (Symbol.id s) fn

let is_builtin s = Hashtbl.mem builtins (Symbol.id s)

let recursion_limit = ref 4096
let iteration_limit = ref 1_000_000

(* Substitute slots in a pure-function body; does not descend into nested
   Function bodies (their slots belong to the inner function). *)
let rec subst_slots args e =
  match e with
  | Expr.Normal (Expr.Sym s, [| Expr.Int i |]) when Symbol.equal s Expr.Sy.slot ->
    if i >= 1 && i <= Array.length args then args.(i - 1)
    else Errors.eval_errorf "Slot %d out of range (%d arguments)" i (Array.length args)
  | Expr.Normal (Expr.Sym s, _) when Symbol.equal s Expr.Sy.function_ -> e
  | Expr.Normal (h, xs) ->
    Expr.Normal (subst_slots args h, Array.map (subst_slots args) xs)
  | Expr.Int _ | Expr.Big _ | Expr.Real _ | Expr.Str _ | Expr.Sym _ | Expr.Tensor _ -> e

let subst_vars pairs body =
  Pattern.substitute (List.map (fun (s, v) -> (s, v)) pairs) body

let apply_function ev fexpr args =
  match fexpr with
  | Expr.Normal (Expr.Sym f, [| body |]) when Symbol.equal f Expr.Sy.function_ ->
    ev (subst_slots args body)
  | Expr.Normal (Expr.Sym f, [| params; body |]) when Symbol.equal f Expr.Sy.function_ ->
    (* Typed annotations are compiler metadata; the interpreter ignores them *)
    let param_sym = function
      | Expr.Sym s -> s
      | Expr.Normal (Expr.Sym t, [| Expr.Sym s; _ |]) when Symbol.equal t Expr.Sy.typed ->
        s
      | p -> Errors.eval_errorf "Function: invalid parameter %s" (Expr.to_string p)
    in
    let param_syms =
      match params with
      | Expr.Normal (Expr.Sym l, ps) when Symbol.equal l Expr.Sy.list ->
        Array.map param_sym ps
      | p -> [| param_sym p |]
    in
    if Array.length param_syms <> Array.length args then
      Errors.eval_errorf "Function: expected %d arguments, got %d"
        (Array.length param_syms) (Array.length args);
    let pairs = Array.to_list (Array.map2 (fun s a -> (s, a)) param_syms args) in
    ev (subst_vars pairs body)
  | _ -> Errors.eval_errorf "cannot apply %s" (Expr.to_string fexpr)

let splice_sequences args =
  let has_seq =
    Array.exists
      (function
        | Expr.Normal (Expr.Sym s, _) -> Symbol.equal s Expr.Sy.sequence
        | _ -> false)
      args
  in
  if not has_seq then args
  else
    Array.of_list
      (Array.to_list args
       |> List.concat_map (function
           | Expr.Normal (Expr.Sym s, xs) when Symbol.equal s Expr.Sy.sequence ->
             Array.to_list xs
           | a -> [ a ]))

let flatten_same_head head args =
  let needs =
    Array.exists
      (function
        | Expr.Normal (Expr.Sym s, _) -> Symbol.equal s head
        | _ -> false)
      args
  in
  if not needs then args
  else
    Array.of_list
      (Array.to_list args
       |> List.concat_map (function
           | Expr.Normal (Expr.Sym s, xs) when Symbol.equal s head -> Array.to_list xs
           | a -> [ a ]))

let is_list = function
  | Expr.Normal (Expr.Sym s, _) -> Symbol.equal s Expr.Sy.list
  | _ -> false

(* Listable threading over unpacked List arguments. *)
let thread_listable h args =
  let lengths =
    Array.to_list args
    |> List.filter_map (function
        | Expr.Normal (Expr.Sym s, xs) when Symbol.equal s Expr.Sy.list ->
          Some (Array.length xs)
        | _ -> None)
  in
  match lengths with
  | [] -> None
  | n :: rest ->
    if List.exists (fun m -> m <> n) rest then None
    else
      Some
        (Expr.list_a
           (Array.init n (fun i ->
                Expr.Normal
                  ( h,
                    Array.map
                      (fun a ->
                         match a with
                         | Expr.Normal (Expr.Sym s, xs) when Symbol.equal s Expr.Sy.list ->
                           xs.(i)
                         | _ -> a)
                      args ))))

(* per-domain: a tier-0 call reads the delta on the domain running it *)
let steps_key = Domain.DLS.new_key (fun () -> ref 0)
let steps () = !(Domain.DLS.get steps_key)

let rec eval_at depth e =
  if depth > !recursion_limit then
    Errors.eval_errorf "RecursionLimit exceeded at depth %d" depth;
  incr (Domain.DLS.get steps_key);
  Abort_signal.interp_check ();
  match e with
  | Expr.Int _ | Expr.Big _ | Expr.Real _ | Expr.Str _ | Expr.Tensor _ -> e
  | Expr.Sym s ->
    (match Values.own_value s with
     | Some v -> if Expr.equal v e then e else eval_at (depth + 1) v
     | None -> e)
  | Expr.Normal _ ->
    let rec fixpoint iters e =
      if iters > !iteration_limit then
        Errors.eval_errorf "IterationLimit exceeded";
      let e' = step depth e in
      if e' == e then e
      else if Expr.is_atom e' then eval_at (depth + 1) e'
      else if Expr.equal e' e then e'
      else fixpoint (iters + 1) e'
    in
    fixpoint 0 e

and step depth e =
  match e with
  | Expr.Normal (h0, args0) ->
    let h = eval_at (depth + 1) h0 in
    let attrs =
      match h with
      | Expr.Sym s -> Symbol.attributes s
      | _ -> Attributes.empty
    in
    let hold_all = Attributes.mem Attributes.Hold_all attrs in
    let hold_first = Attributes.mem Attributes.Hold_first attrs in
    let hold_rest = Attributes.mem Attributes.Hold_rest attrs in
    let args =
      Array.mapi
        (fun i a ->
           let held =
             hold_all || (hold_first && i = 0) || (hold_rest && i > 0)
           in
           if held then a else eval_at (depth + 1) a)
        args0
    in
    let args =
      if Attributes.mem Attributes.Sequence_hold attrs then args
      else splice_sequences args
    in
    let args =
      match h with
      | Expr.Sym s when Attributes.mem Attributes.Flat attrs ->
        flatten_same_head s args
      | _ -> args
    in
    let args =
      if Attributes.mem Attributes.Orderless attrs then begin
        let copy = Array.copy args in
        Array.sort Expr.compare copy;
        copy
      end
      else args
    in
    (* Listable threading (unpacked lists; packed tensors are handled by the
       numeric builtins' fast paths). *)
    let threaded =
      if Attributes.mem Attributes.Listable attrs && Array.exists is_list args then
        thread_listable h args
      else None
    in
    (match threaded with
     | Some e' -> e'
     | None ->
       let applied =
         match h with
         | Expr.Sym s -> apply_symbol depth s h args
         | Expr.Normal (Expr.Sym f, _) when Symbol.equal f Expr.Sy.function_ ->
           Some (apply_function (eval_at (depth + 1)) h args)
         | _ -> None
       in
       (match applied with
        | Some e' -> e'
        | None ->
          (* no rewrite: rebuild only when something changed underneath *)
          if h == h0 && args == args0 then e
          else Expr.Normal (h, args)))
  | _ -> e

and apply_symbol depth s h args =
  let ev = eval_at (depth + 1) in
  (* 1. compiled definitions (FunctionCompile integration, F1) *)
  let compiled_result =
    match Values.compiled_value s with
    | Some closure when closure.Wolf_runtime.Rtval.arity = Array.length args ->
      (match closure.Wolf_runtime.Rtval.call (Array.map Wolf_runtime.Rtval.of_expr args) with
       | v -> Some (Wolf_runtime.Rtval.to_expr v)
       | exception Errors.Runtime_error _ -> None (* wrapper handles fallback *))
    | _ -> None
  in
  match compiled_result with
  | Some _ as r -> r
  | None ->
    (* 2. builtin implementations *)
    let builtin_result =
      match Hashtbl.find_opt builtins (Symbol.id s) with
      | Some fn -> fn ev args
      | None -> None
    in
    (match builtin_result with
     | Some _ as r -> r
     | None ->
       (* 3. user down values *)
       let whole = Expr.Normal (h, args) in
       let rec try_rules = function
         | [] -> None
         | { Values.lhs; rhs } :: rest ->
           (match Pattern.match_expr ~eval:ev ~pattern:lhs whole with
            | Some binds ->
              (match ev (Pattern.substitute binds rhs) with
               | v -> Some v
               | exception Return_value v -> Some v)
            | None -> try_rules rest)
       in
       try_rules (Values.down_values s))

let eval e = eval_at 0 e
