open Wolf_wexpr
open Wolf_base

type t =
  | Con of string * t array
  | Lit of int
  | Fun of t array * t
  | Var of tv ref

and tv =
  | Unbound of { id : int; mutable classes : string list }
  | Link of t

type scheme = { vars : (int * string list) list; body : t }

let con0 name = Con (name, [||])
let int64 = con0 "Integer64"
let real64 = con0 "Real64"
let complex64 = con0 "ComplexReal64"
let boolean = con0 "Boolean"
let string_ = con0 "String"
let expression = con0 "Expression"
let void = con0 "Void"
let packed elt rank = Con ("PackedArray", [| elt; Lit rank |])
let packed_t elt rank = Con ("PackedArray", [| elt; rank |])
let fn args ret = Fun (Array.of_list args, ret)

let counter = Id_gen.create ()

let fresh_var ?(classes = []) () =
  Var (ref (Unbound { id = Id_gen.next counter; classes }))

let mono t = { vars = []; body = t }

let forall class_lists build =
  let entries =
    List.map
      (fun classes ->
         let id = Id_gen.next counter in
         ((id, classes), Var (ref (Unbound { id; classes }))))
      class_lists
  in
  let body = build (List.map snd entries) in
  { vars = List.map fst entries; body }

(* Path compression in [repr] writes links that [Unify.speculate] does not
   record, so a rolled-back speculation would leave a variable linked to the
   rejected candidate's type: it is skipped while this domain speculates. *)
let speculation_depth : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let rec find t =
  match t with
  | Var { contents = Link u } -> find u
  | _ -> t

let rec compress t rep =
  match t with
  | Var ({ contents = Link u } as r) when u != rep ->
    r := Link rep;
    compress u rep
  | _ -> ()

let repr t =
  match t with
  | Var { contents = Link u } ->
    let rep = find u in
    if rep != u && !(Domain.DLS.get speculation_depth) = 0 then compress t rep;
    rep
  | _ -> t

let rec occurs id t =
  match repr t with
  | Var { contents = Unbound u } -> u.id = id
  | Var { contents = Link _ } -> assert false
  | Con (_, args) -> Array.exists (occurs id) args
  | Fun (args, ret) -> Array.exists (occurs id) args || occurs id ret
  | Lit _ -> false

(* ------------------------------------------------------------------ *)
(* TypeSpecifier parsing                                               *)

let atomic_alias = function
  | "MachineInteger" | "Integer" | "Integer64" -> Some "Integer64"
  | "Real" | "Real64" | "MachineReal" -> Some "Real64"
  | "ComplexReal64" | "Complex" -> Some "ComplexReal64"
  | "Boolean" | "Bool" -> Some "Boolean"
  | "String" | "UTF8String" -> Some "String"
  | "Expression" | "InertExpression" -> Some "Expression"
  | "Void" | "Null" -> Some "Void"
  | _ -> None

let rec parse_spec spec =
  let bad e = Errors.compile_errorf "invalid TypeSpecifier: %s" (Expr.to_string e) in
  (* Collect type-variable names (strings bound by TypeForAll). *)
  let rec parse env e =
    match e with
    | Expr.Str name ->
      (match List.assoc_opt name env with
       | Some v -> v
       | None ->
         (match atomic_alias name with
          | Some canonical -> con0 canonical
          | None -> con0 name))
    | Expr.Normal (Expr.Str name, args) ->
      let name = Option.value (atomic_alias name) ~default:name in
      let name = if name = "Tensor" then "PackedArray" else name in
      Con (name, Array.map (parse env) args)
    | Expr.Int n -> Lit n
    | Expr.Normal (Expr.Sym r, [| Expr.Normal (Expr.Sym l, args); ret |])
      when Symbol.equal r Expr.Sy.rule && Symbol.equal l Expr.Sy.list ->
      Fun (Array.map (parse env) args, parse env ret)
    | Expr.Normal (Expr.Sym r, [| arg; ret |]) when Symbol.equal r Expr.Sy.rule ->
      Fun ([| parse env arg |], parse env ret)
    | Expr.Normal (Expr.Sym tl, [| Expr.Int n; _ |]) when Symbol.name tl = "TypeLiteral" ->
      Lit n
    | Expr.Normal (Expr.Sym ts, [| inner |]) when Symbol.name ts = "TypeSpecifier" ->
      parse env inner
    | _ -> bad e
  in
  let var_names list_expr =
    match list_expr with
    | Expr.Normal (Expr.Sym l, names) when Symbol.equal l Expr.Sy.list ->
      Array.to_list names
      |> List.map (function Expr.Str n -> n | e -> bad e)
    | Expr.Str n -> [ n ]
    | e -> bad e
  in
  let quals quals_expr =
    (* {Element["a", "Ordered"], ...} *)
    let one = function
      | Expr.Normal (Expr.Sym el, [| Expr.Str v; Expr.Str c |])
        when Symbol.name el = "Element" ->
        (v, c)
      | e -> bad e
    in
    match quals_expr with
    | Expr.Normal (Expr.Sym l, items) when Symbol.equal l Expr.Sy.list ->
      Array.to_list items |> List.map one
    | e -> [ one e ]
  in
  let build names qualifiers body_expr =
    let env_entries =
      List.map
        (fun n ->
           let classes =
             List.filter_map (fun (v, c) -> if v = n then Some c else None) qualifiers
           in
           let id = Id_gen.next counter in
           (n, id, classes))
        names
    in
    let env =
      List.map
        (fun (n, id, classes) -> (n, Var (ref (Unbound { id; classes }))))
        env_entries
    in
    let body = parse env body_expr in
    (* Re-express as a closed scheme: quantified ids with their classes. *)
    { vars = List.map (fun (_, id, classes) -> (id, classes)) env_entries; body }
  in
  match spec with
  | Expr.Normal (Expr.Sym fa, [| names; body |]) when Symbol.name fa = "TypeForAll" ->
    build (var_names names) [] body
  | Expr.Normal (Expr.Sym fa, [| names; qs; body |]) when Symbol.name fa = "TypeForAll" ->
    build (var_names names) (quals qs) body
  | Expr.Normal (Expr.Sym ts, [| inner |]) when Symbol.name ts = "TypeSpecifier" ->
    parse_spec inner
  | e -> { vars = []; body = parse [] e }

(* ------------------------------------------------------------------ *)

let instantiate scheme =
  match scheme.vars with
  | [] -> scheme.body
  | vars ->
    let mapping =
      List.map (fun (id, classes) -> (id, fresh_var ~classes ())) vars
    in
    let rec go t =
      match repr t with
      | Var { contents = Unbound u } ->
        (match List.assoc_opt u.id mapping with
         | Some fresh -> fresh
         | None -> t)
      | Var { contents = Link _ } -> assert false
      | Con (name, args) -> Con (name, Array.map go args)
      | Fun (args, ret) -> Fun (Array.map go args, go ret)
      | Lit _ as t -> t
    in
    go scheme.body

let rec equal a b =
  match repr a, repr b with
  | Con (n1, a1), Con (n2, a2) ->
    String.equal n1 n2 && Array.length a1 = Array.length a2
    && (let rec go i = i >= Array.length a1 || (equal a1.(i) a2.(i) && go (i + 1)) in
        go 0)
  | Lit x, Lit y -> x = y
  | Fun (a1, r1), Fun (a2, r2) ->
    Array.length a1 = Array.length a2
    && (let rec go i = i >= Array.length a1 || (equal a1.(i) a2.(i) && go (i + 1)) in
        go 0)
    && equal r1 r2
  | Var r1, Var r2 -> r1 == r2
  | (Con _ | Lit _ | Fun _ | Var _), _ -> false

let rec is_ground t =
  match repr t with
  | Var _ -> false
  | Lit _ -> true
  | Con (_, args) -> Array.for_all is_ground args
  | Fun (args, ret) -> Array.for_all is_ground args && is_ground ret

(* [var_name id] numbers an unbound variable; arguments print left to
   right, so a numbering by first appearance follows the text *)
let rec print var_name t =
  let all ts = String.concat ", " (List.map (print var_name) (Array.to_list ts)) in
  match repr t with
  | Con (name, [||]) -> Printf.sprintf "%S" name
  | Con (name, args) -> Printf.sprintf "%S[%s]" name (all args)
  | Lit n -> string_of_int n
  | Fun (args, ret) ->
    let args = all args in
    Printf.sprintf "{%s} -> %s" args (print var_name ret)
  | Var { contents = Unbound u } ->
    let quals = match u.classes with
      | [] -> ""
      | cs -> Printf.sprintf "∈%s" (String.concat "&" cs)
    in
    Printf.sprintf "α%d%s" (var_name u.id) quals
  | Var { contents = Link _ } -> assert false

let to_string t = print Fun.id t

let to_strings ts =
  let seen = ref [] in
  let var_name id =
    match List.assoc_opt id !seen with
    | Some k -> k
    | None ->
      let k = List.length !seen + 1 in
      seen := (id, k) :: !seen;
      k
  in
  List.map (print var_name) ts

let pp fmt t = Format.pp_print_string fmt (to_string t)

let short_name = function
  | "Integer64" -> "I64"
  | "Real64" -> "R64"
  | "ComplexReal64" -> "C64"
  | "Boolean" -> "B"
  | "String" -> "S"
  | "Expression" -> "E"
  | "Void" -> "V"
  | n -> n

let rec mangle t =
  match repr t with
  | Con ("PackedArray", [| elt; Lit r |]) -> Printf.sprintf "PA_%s_%d" (mangle elt) r
  | Con (name, [||]) -> short_name name
  | Con (name, args) ->
    Printf.sprintf "%s_%s" (short_name name)
      (String.concat "_" (Array.to_list (Array.map mangle args)))
  | Lit n -> string_of_int n
  | Fun (args, ret) ->
    Printf.sprintf "F%s_%s"
      (String.concat "" (Array.to_list (Array.map mangle args)))
      (mangle ret)
  | Var { contents = Unbound u } -> Printf.sprintf "a%d" u.id
  | Var { contents = Link _ } -> assert false

let mangled ?(sep = "_") base tys =
  base ^ sep ^ String.concat "_" (Array.to_list (Array.map mangle tys))
