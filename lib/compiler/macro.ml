open Wolf_wexpr
open Wolf_base

type options = (string * Expr.t) list

type rule = {
  lhs : Expr.t;
  rhs : Expr.t;
  condition : (options -> bool) option;
}

type env = {
  menv_name : string;
  parent : env option;
  rules : (string, rule list ref) Hashtbl.t;
}

let create_env ?parent name = { menv_name = name; parent; rules = Hashtbl.create 32 }

(* Fresh tables and cells at every layer, so [register] on one copy is
   invisible to the others; the rules themselves are immutable and shared. *)
let rec copy_env env =
  let rules = Hashtbl.copy env.rules in
  Hashtbl.filter_map_inplace (fun _ cell -> Some (ref !cell)) rules;
  { env with parent = Option.map copy_env env.parent; rules }

let register env head ?condition pairs =
  let rules = List.map (fun (lhs, rhs) -> { lhs; rhs; condition }) pairs in
  match Hashtbl.find_opt env.rules head with
  | Some cell -> cell := !cell @ rules
  | None -> Hashtbl.add env.rules head (ref rules)

let rec rules_for env head =
  let own =
    match Hashtbl.find_opt env.rules head with
    | Some cell -> !cell
    | None -> []
  in
  match env.parent with
  | Some p -> own @ rules_for p head
  | None -> own

(* Pattern-variable names of a rule's left-hand side: binders in the
   template that are pattern variables belong to the user's code and must
   not be renamed (e.g. the Do iterator rule intentionally binds [var]). *)
let rec pattern_vars e acc =
  match e with
  | Expr.Normal (Expr.Sym p, [| Expr.Sym name; sub |])
    when Symbol.equal p Expr.Sy.pattern ->
    pattern_vars sub (Symbol.id name :: acc)
  | Expr.Normal (h, args) ->
    Array.fold_left (fun acc a -> pattern_vars a acc) (pattern_vars h acc) args
  | Expr.Int _ | Expr.Big _ | Expr.Real _ | Expr.Str _ | Expr.Sym _ | Expr.Tensor _ ->
    acc

(* Hygiene: rename every macro-introduced binder in the TEMPLATE before user
   code is substituted in, so macro-introduced bindings can never capture
   user variables and vice versa. *)
let hygienify ~keep rhs =
  let rec rename_scopes e =
    match e with
    | Expr.Normal (Expr.Sym h, [| vars; body |])
      when Symbol.equal h Expr.Sy.module_ || Symbol.equal h Expr.Sy.with_ ->
      let bindings =
        match vars with
        | Expr.Normal (Expr.Sym l, items) when Symbol.equal l Expr.Sy.list ->
          Array.to_list items
          |> List.filter_map (function
              | Expr.Sym v -> Some v
              | Expr.Normal (Expr.Sym st, [| Expr.Sym v; _ |])
                when Symbol.equal st Expr.Sy.set ->
                Some v
              | _ -> None)
        | _ -> []
      in
      let bindings =
        List.filter (fun v -> not (List.mem (Symbol.id v) keep)) bindings
      in
      let renames = List.map (fun v -> (v, Expr.Sym (Symbol.fresh (Symbol.name v)))) bindings in
      let vars' = Pattern.substitute renames vars in
      let body' = Pattern.substitute renames body in
      Expr.Normal (Expr.Sym h, [| rename_scopes vars'; rename_scopes body' |])
    | Expr.Normal (h, args) -> Expr.Normal (rename_scopes h, Array.map rename_scopes args)
    | Expr.Int _ | Expr.Big _ | Expr.Real _ | Expr.Str _ | Expr.Sym _ | Expr.Tensor _ -> e
  in
  rename_scopes rhs

let try_rules env options e =
  match Expr.head_name e with
  | None -> None
  | Some head ->
    let applicable = rules_for env head in
    List.find_map
      (fun r ->
         let enabled = match r.condition with None -> true | Some c -> c options in
         if not enabled then None
         else
           match Pattern.match_expr ~pattern:r.lhs e with
           | Some binds ->
             let template = hygienify ~keep:(pattern_vars r.lhs []) r.rhs in
             Some (Pattern.substitute binds template)
           | None -> None)
      applicable

let expand env ?(options = []) expr =
  let budget = ref 10_000 in
  let spend () =
    decr budget;
    if !budget < 0 then
      Errors.compile_errorf "macro expansion did not terminate (10000 rewrites)"
  in
  (* Depth-first: expand children to fixpoint, then the node itself; if the
     node rewrites, recurse on the result. *)
  let rec expand_node e =
    let e =
      match e with
      | Expr.Normal (h, args) ->
        let h' = expand_node h in
        let args' = Array.map expand_node args in
        if h' == h && Array.for_all2 ( == ) args' args then e
        else Expr.Normal (h', args')
      | _ -> e
    in
    match try_rules env options e with
    | Some e' ->
      spend ();
      expand_node e'
    | None -> e
  in
  expand_node expr

(* ------------------------------------------------------------------ *)
(* Builtin rules                                                       *)

let p src = Parser.parse src

let build_builtin () =
  let env = create_env "builtin-macros" in
  (* And/Or short-circuiting (the paper's worked example, §4.2) *)
  register env "And"
    [ (p "And[x_]", p "x");
      (p "And[False, ___]", p "False");
      (p "And[True, rest__]", p "And[rest]");
      (p "And[x_, y_]", p "If[x, y, False]");
      (p "And[x_, y_, rest__]", p "And[And[x, y], rest]") ];
  register env "Or"
    [ (p "Or[x_]", p "x");
      (p "Or[True, ___]", p "True");
      (p "Or[False, rest__]", p "Or[rest]");
      (p "Or[x_, y_]", p "If[x, True, y]");
      (p "Or[x_, y_, rest__]", p "Or[Or[x, y], rest]") ];
  (* n-ary arithmetic to binary *)
  register env "Plus"
    [ (p "Plus[x_]", p "x");
      (p "Plus[x_, y_, rest__]", p "Plus[Plus[x, y], rest]") ];
  register env "Times"
    [ (p "Times[x_]", p "x");
      (p "Times[x_, y_, rest__]", p "Times[Times[x, y], rest]") ];
  register env "StringJoin"
    [ (p "StringJoin[x_, y_, rest__]", p "StringJoin[StringJoin[x, y], rest]") ];
  (* update-operator desugaring; the extra read-back is dead-code-eliminated
     when the operator's value is unused *)
  register env "Increment"
    [ (p "Increment[x_Symbol]", p "CompoundExpression[Set[x, Plus[x, 1]], Subtract[x, 1]]") ];
  register env "Decrement"
    [ (p "Decrement[x_Symbol]", p "CompoundExpression[Set[x, Subtract[x, 1]], Plus[x, 1]]") ];
  register env "PreIncrement"
    [ (p "PreIncrement[x_Symbol]", p "CompoundExpression[Set[x, Plus[x, 1]], x]") ];
  register env "AddTo" [ (p "AddTo[x_Symbol, v_]", p "Set[x, Plus[x, v]]") ];
  register env "SubtractFrom" [ (p "SubtractFrom[x_Symbol, v_]", p "Set[x, Subtract[x, v]]") ];
  register env "TimesBy" [ (p "TimesBy[x_Symbol, v_]", p "Set[x, Times[x, v]]") ];
  register env "DivideBy" [ (p "DivideBy[x_Symbol, v_]", p "Set[x, Divide[x, v]]") ];
  (* comparison chains *)
  List.iter
    (fun name ->
       register env name
         [ (p (Printf.sprintf "%s[a_, b_, rest__]" name),
            p (Printf.sprintf "And[%s[a, b], %s[b, rest]]" name name)) ])
    [ "Less"; "Greater"; "LessEqual"; "GreaterEqual"; "Equal" ];
  (* always-safe AST-level optimisations *)
  register env "If"
    [ (p "If[True, t_]", p "t");
      (p "If[True, t_, _]", p "t");
      (p "If[False, _, e_]", p "e");
      (p "If[False, _]", p "Null") ];
  register env "Power" [ (p "Power[x_, 1]", p "x") ];
  (* loop sugar *)
  register env "Do"
    [ (p "Do[body_, {var_Symbol, n_}]", p "Do[body, {var, 1, n, 1}]");
      (p "Do[body_, {var_Symbol, lo_, hi_}]", p "Do[body, {var, lo, hi, 1}]");
      (p "Do[body_, {var_Symbol, lo_, hi_, step_}]",
       p "Module[{var = lo}, While[var <= hi, body; var = var + step]]");
      (p "Do[body_, {n_}]",
       p "Module[{i$do = 0}, While[i$do < n, body; i$do = i$do + 1]]");
      (p "Do[body_, n_Integer]",
       p "Module[{i$do = 0}, While[i$do < n, body; i$do = i$do + 1]]") ];
  register env "For"
    [ (p "For[init_, cond_, incr_, body_]",
       p "CompoundExpression[init, While[cond, CompoundExpression[body, incr]]]");
      (p "For[init_, cond_, incr_]",
       p "CompoundExpression[init, While[cond, incr]]") ];
  env

let builtin_base = Once.make build_builtin
let builtin_env () = copy_env (Once.get builtin_base)

(* Functional constructs compile by desugaring to loops; Map keeps the
   element type (the a -> a form), which covers the common numeric uses.
   Separate from [builtin_env] so tools inspecting pure desugaring (and user
   environments layered on the builtins) are unaffected. *)
let build_functional () =
  let env = create_env ~parent:(builtin_env ()) "functional-macros" in
  register env "Nest"
    [ (p "Nest[f_, x0_, n_]",
       p "Module[{acc$m = x0, i$m = 0}, \
            While[i$m < n, acc$m = f[acc$m]; i$m = i$m + 1]; \
            acc$m]") ];
  register env "Fold"
    [ (p "Fold[f_, init_, lst_]",
       p "Module[{acc$m = init, i$m = 1, n$m = Length[lst]}, \
            While[i$m <= n$m, acc$m = f[acc$m, lst[[i$m]]]; i$m = i$m + 1]; \
            acc$m]") ];
  register env "Map"
    [ (p "Map[f_, lst_]",
       p "Module[{out$m = lst, i$m = 1, n$m = Length[lst]}, \
            While[i$m <= n$m, out$m[[i$m]] = f[lst[[i$m]]]; i$m = i$m + 1]; \
            out$m]") ];
  env

let functional_base = Once.make build_functional
let functional_env () = copy_env (Once.get functional_base)
