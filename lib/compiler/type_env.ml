open Wolf_wexpr

type impl =
  | Prim of string
  | Wolfram of Expr.t
  | External of string

type decl = {
  dname : string;
  scheme : Types.scheme;
  impl : impl;
  inline : bool;
}

type t = {
  env_name : string;
  parent : t option;
  decls : (string, decl list ref) Hashtbl.t;
}

let create ?parent name = { env_name = name; parent; decls = Hashtbl.create 64 }
let name t = t.env_name

(* Fresh tables and fresh cells at every layer: [declare] and a second copy
   never see each other's changes.  The decl records are immutable and
   shared. *)
let rec copy t =
  let decls = Hashtbl.copy t.decls in
  Hashtbl.filter_map_inplace (fun _ cell -> Some (ref !cell)) decls;
  { t with parent = Option.map copy t.parent; decls }

(* Equal up to a renaming of the bound variables, which must agree on
   their class qualifiers; free variables must be the same variable. *)
let scheme_equal (a : Types.scheme) (b : Types.scheme) =
  let renamed = Hashtbl.create 4 and taken = Hashtbl.create 4 in
  let classes (s : Types.scheme) id =
    Option.map (List.sort_uniq String.compare) (List.assoc_opt id s.vars)
  in
  let rec eq x y =
    match Types.repr x, Types.repr y with
    | Types.Var { contents = Types.Unbound u }, Types.Var { contents = Types.Unbound v } ->
      (match classes a u.id, classes b v.id with
       | None, None -> u.id = v.id
       | Some ca, Some cb ->
         (match Hashtbl.find_opt renamed u.id with
          | Some v' -> v' = v.id
          | None ->
            ca = cb && (not (Hashtbl.mem taken v.id))
            && (Hashtbl.replace renamed u.id v.id;
                Hashtbl.replace taken v.id ();
                true))
       | _ -> false)
    | Types.Con (n, xs), Types.Con (m, ys) -> String.equal n m && all xs ys
    | Types.Lit i, Types.Lit j -> i = j
    | Types.Fun (xs, r), Types.Fun (ys, s) -> all xs ys && eq r s
    | _ -> false
  and all xs ys = Array.length xs = Array.length ys && Array.for_all2 eq xs ys in
  List.length a.vars = List.length b.vars && eq a.body b.body

let declare t name ?(inline = false) scheme impl =
  let d = { dname = name; scheme; impl; inline } in
  match Hashtbl.find_opt t.decls name with
  | Some cell ->
    let replaced = ref false in
    let updated =
      List.map
        (fun existing ->
           if scheme_equal existing.scheme scheme then begin
             replaced := true;
             d
           end
           else existing)
        !cell
    in
    cell := if !replaced then updated else !cell @ [ d ]
  | None -> Hashtbl.add t.decls name (ref [ d ])

let declare_wolfram t name ~spec ~body =
  declare t name ~inline:true (Types.parse_spec spec) (Wolfram body)

let rec lookup t name =
  let own =
    match Hashtbl.find_opt t.decls name with
    | Some cell -> !cell
    | None -> []
  in
  match t.parent with
  | Some p -> own @ lookup p name
  | None -> own

let rec prims t =
  Hashtbl.fold
    (fun _ cell acc ->
       List.fold_left
         (fun acc d -> match d.impl with Prim base -> (base, d.scheme) :: acc | _ -> acc)
         acc !cell)
    t.decls
    (match t.parent with Some p -> prims p | None -> [])

(* ------------------------------------------------------------------ *)
(* Builtin environment                                                 *)

let i64 = Types.int64
let r64 = Types.real64
let c64 = Types.complex64
let bool_t = Types.boolean
let str_t = Types.string_
let expr_t = Types.expression
let _void_t = Types.void
let pa elt rank = Types.packed elt rank
let fn args ret = Types.mono (Types.fn args ret)

let numeric_binary env name prim =
  (* overload order = specificity order used when alternatives remain *)
  declare env name (fn [ i64; i64 ] i64) (Prim ("checked_binary_" ^ prim));
  declare env name (fn [ r64; r64 ] r64) (Prim ("binary_" ^ prim));
  declare env name (fn [ c64; c64 ] c64) (Prim ("complex_binary_" ^ prim));
  declare env name (fn [ expr_t; expr_t ] expr_t) (Prim ("expr_binary_" ^ prim));
  (* mixed int/real promote *)
  declare env name (fn [ i64; r64 ] r64) (Prim ("binary_" ^ prim));
  declare env name (fn [ r64; i64 ] r64) (Prim ("binary_" ^ prim));
  (* elementwise packed-array forms *)
  let pa_scheme =
    Types.forall [ [ "Number" ]; [] ] (function
        | [ a; n ] -> Types.fn [ Types.packed_t a n; Types.packed_t a n ] (Types.packed_t a n)
        | _ -> assert false)
  in
  declare env name pa_scheme (Prim ("array_binary_" ^ prim));
  let pa_scalar =
    Types.forall [ [ "Number" ]; [] ] (function
        | [ a; n ] -> Types.fn [ Types.packed_t a n; a ] (Types.packed_t a n)
        | _ -> assert false)
  in
  declare env name pa_scalar (Prim ("array_scalar_" ^ prim))

let unary_real env name prim =
  declare env name (fn [ r64 ] r64) (Prim ("unary_" ^ prim));
  declare env name (fn [ i64 ] r64) (Prim ("unary_" ^ prim));
  declare env name (fn [ expr_t ] expr_t) (Prim ("expr_unary_" ^ prim));
  let pa_scheme =
    Types.forall [ [ "Reals" ]; [] ] (function
        | [ a; n ] -> Types.fn [ Types.packed_t a n ] (Types.packed_t r64 n)
        | _ -> assert false)
  in
  declare env name pa_scheme (Prim ("array_unary_" ^ prim))

let comparison env name prim =
  let scheme =
    Types.forall [ [ "Ordered" ] ] (function
        | [ a ] -> Types.fn [ a; a ] bool_t
        | _ -> assert false)
  in
  declare env name scheme (Prim ("binary_" ^ prim));
  declare env name (fn [ i64; r64 ] bool_t) (Prim ("binary_" ^ prim));
  declare env name (fn [ r64; i64 ] bool_t) (Prim ("binary_" ^ prim))

let build_builtin () =
  Type_class.install_builtin ();
  let env = create "builtin" in
  numeric_binary env "Plus" "plus";
  numeric_binary env "Subtract" "subtract";
  numeric_binary env "Times" "times";
  (* Divide: real division; exact integer division is Quotient *)
  declare env "Divide" (fn [ r64; r64 ] r64) (Prim "binary_divide");
  declare env "Divide" (fn [ i64; r64 ] r64) (Prim "binary_divide");
  declare env "Divide" (fn [ r64; i64 ] r64) (Prim "binary_divide");
  declare env "Divide" (fn [ c64; c64 ] c64) (Prim "complex_binary_divide");
  declare env "Minus" (fn [ i64 ] i64) (Prim "checked_unary_minus");
  declare env "Minus" (fn [ r64 ] r64) (Prim "unary_minus");
  declare env "Power" (fn [ i64; i64 ] i64) (Prim "checked_binary_power");
  declare env "Power" (fn [ r64; i64 ] r64) (Prim "binary_power_ri");
  declare env "Power" (fn [ r64; r64 ] r64) (Prim "binary_power");
  declare env "Power" (fn [ c64; i64 ] c64) (Prim "complex_binary_power");
  declare env "Mod" (fn [ i64; i64 ] i64) (Prim "checked_binary_mod");
  declare env "Quotient" (fn [ i64; i64 ] i64) (Prim "checked_binary_quotient");
  comparison env "Less" "less";
  comparison env "Greater" "greater";
  comparison env "LessEqual" "less_equal";
  comparison env "GreaterEqual" "greater_equal";
  let equatable name prim =
    let scheme =
      Types.forall [ [ "Equatable" ] ] (function
          | [ a ] -> Types.fn [ a; a ] bool_t
          | _ -> assert false)
    in
    declare env name scheme (Prim ("binary_" ^ prim));
    declare env name (fn [ i64; r64 ] bool_t) (Prim ("binary_" ^ prim));
    declare env name (fn [ r64; i64 ] bool_t) (Prim ("binary_" ^ prim))
  in
  equatable "Equal" "equal";
  equatable "Unequal" "unequal";
  equatable "SameQ" "equal";
  equatable "UnsameQ" "unequal";
  declare env "Not" (fn [ bool_t ] bool_t) (Prim "unary_not");
  declare env "Abs" (fn [ i64 ] i64) (Prim "checked_unary_abs");
  declare env "Abs" (fn [ r64 ] r64) (Prim "unary_abs");
  declare env "Abs" (fn [ c64 ] r64) (Prim "complex_abs");
  declare env "Re" (fn [ c64 ] r64) (Prim "complex_re");
  declare env "Im" (fn [ c64 ] r64) (Prim "complex_im");
  declare env "Complex" (fn [ r64; r64 ] c64) (Prim "complex_make");
  unary_real env "Sin" "sin";
  unary_real env "Cos" "cos";
  unary_real env "Tan" "tan";
  unary_real env "Exp" "exp";
  unary_real env "Log" "log";
  unary_real env "Sqrt" "sqrt";
  declare env "Floor" (fn [ r64 ] i64) (Prim "unary_floor");
  declare env "Floor" (fn [ i64 ] i64) (Prim "unary_identity_int");
  declare env "Ceiling" (fn [ r64 ] i64) (Prim "unary_ceiling");
  declare env "Ceiling" (fn [ i64 ] i64) (Prim "unary_identity_int");
  declare env "Round" (fn [ r64 ] i64) (Prim "unary_round");
  declare env "Round" (fn [ i64 ] i64) (Prim "unary_identity_int");
  declare env "IntegerPart" (fn [ r64 ] i64) (Prim "unary_truncate");
  declare env "N" (fn [ i64 ] r64) (Prim "int_to_real");
  declare env "N" (fn [ r64 ] r64) (Prim "unary_identity_real");
  declare env "Min" (fn [ i64; i64 ] i64) (Prim "binary_min");
  declare env "Min" (fn [ r64; r64 ] r64) (Prim "binary_min");
  declare env "Max" (fn [ i64; i64 ] i64) (Prim "binary_max");
  declare env "Max" (fn [ r64; r64 ] r64) (Prim "binary_max");
  List.iter
    (fun (nm, prim) -> declare env nm (fn [ i64; i64 ] i64) (Prim prim))
    [ ("BitAnd", "binary_bitand"); ("BitOr", "binary_bitor");
      ("BitXor", "binary_bitxor"); ("BitShiftLeft", "binary_shiftleft");
      ("BitShiftRight", "binary_shiftright") ];
  declare env "EvenQ" (fn [ i64 ] bool_t) (Prim "unary_evenq");
  declare env "OddQ" (fn [ i64 ] bool_t) (Prim "unary_oddq");
  declare env "Boole" (fn [ bool_t ] i64) (Prim "unary_boole");
  (* packed arrays *)
  let pa1 =
    Types.forall [ [ "Number" ] ] (function
        | [ a ] -> Types.fn [ pa a 1; i64 ] a
        | _ -> assert false)
  in
  declare env "Part" pa1 (Prim "part_get_1");
  let pa2 =
    Types.forall [ [ "Number" ] ] (function
        | [ a ] -> Types.fn [ pa a 2; i64; i64 ] a
        | _ -> assert false)
  in
  declare env "Part" pa2 (Prim "part_get_2");
  let pa2row =
    Types.forall [ [ "Number" ] ] (function
        | [ a ] -> Types.fn [ pa a 2; i64 ] (pa a 1)
        | _ -> assert false)
  in
  declare env "Part" pa2row (Prim "part_get_row");
  declare env "Part" (fn [ expr_t; i64 ] expr_t) (Prim "expr_part");
  let set1 =
    Types.forall [ [ "Number" ] ] (function
        | [ a ] -> Types.fn [ pa a 1; i64; a ] (pa a 1)
        | _ -> assert false)
  in
  declare env "SetPart" set1 (Prim "part_set_1");
  let set2 =
    Types.forall [ [ "Number" ] ] (function
        | [ a ] -> Types.fn [ pa a 2; i64; i64; a ] (pa a 2)
        | _ -> assert false)
  in
  declare env "SetPart" set2 (Prim "part_set_2");
  let len =
    Types.forall [ [ "Number" ]; [] ] (function
        | [ a; n ] -> Types.fn [ Types.packed_t a n ] i64
        | _ -> assert false)
  in
  declare env "Length" len (Prim "array_length");
  declare env "Length" (fn [ expr_t ] i64) (Prim "expr_length");
  let total =
    Types.forall [ [ "Number" ] ] (function
        | [ a ] -> Types.fn [ pa a 1 ] a
        | _ -> assert false)
  in
  declare env "Total" total (Prim "array_total");
  declare env "Dot" (fn [ pa r64 2; pa r64 2 ] (pa r64 2)) (Prim "dot_mm");
  declare env "Dot" (fn [ pa r64 2; pa r64 1 ] (pa r64 1)) (Prim "dot_mv");
  declare env "Dot" (fn [ pa r64 1; pa r64 1 ] r64) (Prim "dot_vv");
  declare env "Dot" (fn [ pa i64 1; pa i64 1 ] i64) (Prim "dot_vv_int");
  let take =
    Types.forall [ [ "Number" ] ] (function
        | [ a ] -> Types.fn [ pa a 1; i64 ] (pa a 1)
        | _ -> assert false)
  in
  declare env "Take" take (Prim "array_take");
  declare env "ConstantArray" (fn [ r64; i64; i64 ] (pa r64 2))
    (Prim "constant_array_real2");
  declare env "ConstantArray" (fn [ i64; i64; i64 ] (pa i64 2))
    (Prim "constant_array_int2");
  declare env "Range" (fn [ i64 ] (pa i64 1)) (Prim "range");
  declare env "Range" (fn [ i64; i64 ] (pa i64 1)) (Prim "range2");
  declare env "ConstantArray" (fn [ i64; i64 ] (pa i64 1)) (Prim "constant_array_int");
  declare env "ConstantArray" (fn [ r64; i64 ] (pa r64 1)) (Prim "constant_array_real");
  let rev =
    Types.forall [ [ "Number" ] ] (function
        | [ a ] -> Types.fn [ pa a 1 ] (pa a 1)
        | _ -> assert false)
  in
  declare env "Reverse" rev (Prim "array_reverse");
  let join =
    Types.forall [ [ "Number" ] ] (function
        | [ a ] -> Types.fn [ pa a 1; pa a 1 ] (pa a 1)
        | _ -> assert false)
  in
  declare env "Join" join (Prim "array_join");
  let append =
    Types.forall [ [ "Number" ] ] (function
        | [ a ] -> Types.fn [ pa a 1; a ] (pa a 1)
        | _ -> assert false)
  in
  declare env "Append" append (Prim "array_append");
  (* strings: the new compiler has builtin support (paper §6 FNV1a) *)
  declare env "StringLength" (fn [ str_t ] i64) (Prim "string_length");
  declare env "StringJoin" (fn [ str_t; str_t ] str_t) (Prim "string_join");
  declare env "ToCharacterCode" (fn [ str_t ] (pa i64 1)) (Prim "to_character_code");
  declare env "FromCharacterCode" (fn [ pa i64 1 ] str_t) (Prim "from_character_code");
  declare env "StringByte" (fn [ str_t; i64 ] i64) (Prim "string_byte");
  declare env "StringTake" (fn [ str_t; i64 ] str_t) (Prim "string_take");
  (* randomness, shared stream with the interpreter *)
  declare env "RandomReal" (fn [] r64) (Prim "random_real");
  declare env "RandomReal" (fn [ Types.packed r64 1 ] r64) (Prim "random_real_range");
  declare env "RandomInteger" (fn [ i64 ] i64) (Prim "random_integer");
  (* expression escapes (symbolic compute, F8) *)
  declare env "ToExpression" (fn [ i64 ] expr_t) (Prim "int_to_expr");
  declare env "ToExpression" (fn [ r64 ] expr_t) (Prim "real_to_expr");
  declare env "FromExpression" (fn [ expr_t ] i64) (Prim "expr_to_int");
  env

let builtin_base = Wolf_base.Once.make build_builtin
let builtin () = copy (Wolf_base.Once.get builtin_base)
