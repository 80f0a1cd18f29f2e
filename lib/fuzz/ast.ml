type ty = TInt | TReal | TBool | TStr | TArr

type expr =
  | Int of int
  | Real of float
  | Bool of bool
  | Str of string
  | Arr of int list
  | Var of string * ty
  | Bin of string * ty * expr * expr
  | Un of string * ty * expr
  | Cmp of string * ty * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | If of ty * expr * expr * expr
  | Part of string * expr
  | StrJoin of expr * expr
  | ConstArr of expr * int
  | MapArr of string * expr * expr
  | FoldMM of string * string * string * expr * expr

type stmt =
  | Assign of string * ty * expr
  | PartSet of string * expr * expr
  | PartSetIv of string * string * expr
  | SIf of expr * stmt list * stmt list
  | While of string * int * stmt list
  | DoLoop of string * int * stmt list
  | RawSum of string * string * string * string option * int * int

type local = { lname : string; lty : ty; linit : expr }

type fn = {
  params : (string * ty) list;
  withs : local list;
  locals : local list;
  body : stmt list;
  result : expr;
  ret : ty;
}

type case = {
  fn : fn;
  args : expr list;
}

let expr_ty = function
  | Int _ -> TInt
  | Real _ -> TReal
  | Bool _ -> TBool
  | Str _ -> TStr
  | Arr _ -> TArr
  | Var (_, t) -> t
  | Bin (_, t, _, _) -> t
  | Un (_, t, _) -> t
  | Cmp _ | And _ | Or _ -> TBool
  | If (t, _, _, _) -> t
  | Part _ -> TInt
  | StrJoin _ -> TStr
  | ConstArr _ -> TArr
  | MapArr _ -> TArr
  | FoldMM _ -> TInt

let ty_name = function
  | TInt -> {|"MachineInteger"|}
  | TReal -> {|"Real64"|}
  | TBool -> {|"Boolean"|}
  | TStr -> {|"String"|}
  | TArr -> {|"PackedArray"["Integer64", 1]|}

(* ---- rendering ------------------------------------------------------ *)

let real_lit r =
  (* a parseable literal that round-trips: always keep a decimal point *)
  if Float.is_integer r && Float.abs r < 1e15 then Printf.sprintf "%.1f" r
  else Printf.sprintf "%.17g" r

(* string literal the lexer round-trips byte-for-byte: escape only what it
   un-escapes (double quote, backslash, newline, tab) and pass every other
   byte raw — OCaml's [%S] would write non-ASCII bytes as decimal escapes,
   which the lexer reads as literal digits *)
let str_lit s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b {|\"|}
       | '\\' -> Buffer.add_string b {|\\|}
       | '\n' -> Buffer.add_string b {|\n|}
       | '\t' -> Buffer.add_string b {|\t|}
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec expr_src e =
  match e with
  | Int i -> if i < 0 then Printf.sprintf "(%d)" i else string_of_int i
  | Real r -> if r < 0.0 then Printf.sprintf "(%s)" (real_lit r) else real_lit r
  | Bool b -> if b then "True" else "False"
  | Str s -> str_lit s
  | Arr xs -> "{" ^ String.concat ", " (List.map string_of_int xs) ^ "}"
  | Var (v, _) -> v
  | Bin (op, _, a, b) -> bin_src op a b
  | Un (op, _, a) -> un_src op a
  | Cmp (op, _, a, b) -> Printf.sprintf "(%s %s %s)" (expr_src a) op (expr_src b)
  | And (a, b) -> Printf.sprintf "(%s && %s)" (expr_src a) (expr_src b)
  | Or (a, b) -> Printf.sprintf "(%s || %s)" (expr_src a) (expr_src b)
  | If (_, c, t, f) ->
    Printf.sprintf "If[%s, %s, %s]" (expr_src c) (expr_src t) (expr_src f)
  | Part (v, i) -> Printf.sprintf "%s[[%s]]" v (clamped_index v i)
  | StrJoin (a, b) -> Printf.sprintf "(%s <> %s)" (expr_src a) (expr_src b)
  | ConstArr (e, k) -> Printf.sprintf "ConstantArray[%s, %d]" (expr_src e) k
  | MapArr (x, b, a) ->
    Printf.sprintf "Map[Function[{%s}, %s], %s]" x (expr_src b) (expr_src a)
  | FoldMM (op, s, x, init, a) ->
    Printf.sprintf "Fold[Function[{%s, %s}, %s[%s, %s]], %s, %s]" s x op s x
      (expr_src init) (expr_src a)

and clamped_index v i =
  (* always in [1, Length[v]]: arrays are non-empty by construction *)
  Printf.sprintf "1 + Mod[%s, Length[%s]]" (expr_src i) v

and bin_src op a b =
  match op with
  | "+" | "-" | "*" ->
    Printf.sprintf "(%s %s %s)" (expr_src a) op (expr_src b)
  | "/" ->
    (* guarded real division: the divisor is bounded away from zero so the
       oracle never has to compare infinities *)
    Printf.sprintf "(%s / (0.5 + Abs[%s]))" (expr_src a) (expr_src b)
  | _ -> Printf.sprintf "%s[%s, %s]" op (expr_src a) (expr_src b)

and un_src op a =
  match op with
  | "Minus" -> Printf.sprintf "(-%s)" (expr_src a)
  | "SqrtAbs" -> Printf.sprintf "Sqrt[Abs[%s]]" (expr_src a)
  | "Chars" -> Printf.sprintf "ToCharacterCode[%s]" (expr_src a)
  | "Identity" -> Printf.sprintf "Function[{x}, x][%s]" (expr_src a)
  | _ -> Printf.sprintf "%s[%s]" op (expr_src a)

let rec stmt_src ind s =
  let pad = String.make ind ' ' in
  match s with
  | Assign (v, _, e) -> Printf.sprintf "%s%s = %s" pad v (expr_src e)
  | PartSet (v, i, e) ->
    Printf.sprintf "%s%s[[%s]] = %s" pad v (clamped_index v i) (expr_src e)
  | PartSetIv (v, i, e) ->
    (* raw induction-variable index: the generator guarantees the counter
       stays within the array bounds, so no clamp — this is the store shape
       the parallel-loops pass recognises *)
    Printf.sprintf "%s%s[[%s]] = %s" pad v i (expr_src e)
  | SIf (c, ts, []) ->
    Printf.sprintf "%sIf[%s,\n%s]" pad (expr_src c) (stmts_src (ind + 1) ts)
  | SIf (c, ts, fs) ->
    Printf.sprintf "%sIf[%s,\n%s,\n%s]" pad (expr_src c) (stmts_src (ind + 1) ts)
      (stmts_src (ind + 1) fs)
  | While (c, k, body) ->
    (* a bound at the top of the machine range also stops a counter that
       wrapped (an unsound overflow proof) instead of running ~2^63 times *)
    let stop = if k > max_int / 2 then Printf.sprintf " && %s > 0" c else "" in
    Printf.sprintf "%sWhile[%s <= %d%s,\n%s;\n%s%s = %s + 1]" pad c k stop
      (stmts_src (ind + 1) body) (String.make (ind + 1) ' ') c c
  | DoLoop (i, k, body) ->
    Printf.sprintf "%sDo[\n%s,\n%s{%s, %d}]" pad (stmts_src (ind + 1) body)
      (String.make (ind + 1) ' ') i k
  | RawSum (c, a, r, cap, delta, off) ->
    (* the one unclamped read: in range or not, by the bound and offset *)
    let len = Printf.sprintf "%s <= Length[%s] + %s" c a (expr_src (Int delta)) in
    let test = match cap with Some w -> Printf.sprintf "%s <= %s && %s" c w len | None -> len in
    let index = if off = 0 then c else Printf.sprintf "%s + %s" c (expr_src (Int off)) in
    (* the first index is 1: index 0 would read the head, a symbol, and
       the result would carry the interpreter's Module symbol numbering *)
    Printf.sprintf "%s%s = %d; While[%s, %s = %s + %s[[%s]]; %s = %s + 1]" pad c
      (1 - min off 0) test r r a index c c

and stmts_src ind ss =
  match ss with
  | [] -> String.make ind ' ' ^ "Null"
  | _ -> String.concat ";\n" (List.map (stmt_src ind) ss)

let local_src l = Printf.sprintf "%s = %s" l.lname (expr_src l.linit)

let to_source f =
  let params =
    String.concat ", "
      (List.map (fun (p, t) -> Printf.sprintf "Typed[%s, %s]" p (ty_name t)) f.params)
  in
  let core =
    match f.body with
    | [] -> " " ^ expr_src f.result
    | _ -> Printf.sprintf "\n%s;\n %s" (stmts_src 1 f.body) (expr_src f.result)
  in
  let inner =
    match f.locals with
    | [] -> core
    | ls ->
      Printf.sprintf "Module[{%s},%s]"
        (String.concat ", " (List.map local_src ls)) core
  in
  let wrapped =
    match f.withs with
    | [] -> inner
    | ws ->
      Printf.sprintf "With[{%s}, %s]"
        (String.concat ", " (List.map local_src ws)) inner
  in
  Printf.sprintf "Function[{%s},\n %s]" params wrapped

let arg_source = expr_src

(* ---- size ----------------------------------------------------------- *)

let rec expr_size e =
  1
  + (match e with
     | Int _ | Real _ | Bool _ | Str _ | Var _ -> 0
     | Arr xs -> List.length xs
     | Bin (_, _, a, b) | Cmp (_, _, a, b) | And (a, b) | Or (a, b)
     | StrJoin (a, b) ->
       expr_size a + expr_size b
     | Un (_, _, a) | Part (_, a) | ConstArr (a, _) -> expr_size a
     | If (_, c, t, f) -> expr_size c + expr_size t + expr_size f
     | MapArr (_, b, a) -> expr_size b + expr_size a
     | FoldMM (_, _, _, i, a) -> expr_size i + expr_size a)

let rec stmt_size s =
  1
  + (match s with
     | Assign (_, _, e) -> expr_size e
     | PartSet (_, i, e) -> expr_size i + expr_size e
     | PartSetIv (_, _, e) -> expr_size e
     | SIf (c, ts, fs) -> expr_size c + stmts_size ts + stmts_size fs
     | While (_, _, body) | DoLoop (_, _, body) -> stmts_size body
     | RawSum _ -> 3)

and stmts_size ss = List.fold_left (fun a s -> a + stmt_size s) 0 ss

let size f =
  List.length f.params
  + List.fold_left (fun a l -> a + 1 + expr_size l.linit) 0 (f.withs @ f.locals)
  + stmts_size f.body + expr_size f.result
