open Wolf_base
open Wolf_wexpr
open Rtval

let bad name args =
  raise
    (Errors.Runtime_error
       (Errors.Invalid_runtime_argument
          (Printf.sprintf "%s: bad arguments (%s)" name
             (String.concat ", " (Array.to_list (Array.map type_name args))))))

let real = function
  | Real r -> r
  | Int i -> float_of_int i
  | v -> raise (Errors.Runtime_error (Errors.Invalid_runtime_argument (type_name v)))

let complex_binary name f args =
  match args with
  | [| Complex (ar, ai); Complex (br, bi) |] ->
    let r, i = f (ar, ai) (br, bi) in
    Complex (r, i)
  | [| Complex (ar, ai); (Int _ | Real _) as b |] ->
    let r, i = f (ar, ai) (real b, 0.0) in
    Complex (r, i)
  | [| (Int _ | Real _) as a; Complex (br, bi) |] ->
    let r, i = f (real a, 0.0) (br, bi) in
    Complex (r, i)
  | _ -> bad name args

let expr_binary head args =
  match args with
  | [| Expr a; Expr b |] ->
    (* threaded through the engine: construct and evaluate directly *)
    Expr (Hooks.eval (Wolf_wexpr.Expr.apply head [ a; b ]))
  | [| a; b |] -> Expr (Hooks.eval (Wolf_wexpr.Expr.apply head [ to_expr a; to_expr b ]))
  | _ -> bad head args

let expr_unary head args =
  match args with
  | [| Expr a |] -> Expr (Hooks.eval (Wolf_wexpr.Expr.apply head [ a ]))
  | [| a |] -> Expr (Hooks.eval (Wolf_wexpr.Expr.apply head [ to_expr a ]))
  | _ -> bad head args

let array_binary name fi fr args =
  match args with
  | [| Tensor a; Tensor b |] ->
    if Tensor.dims a <> Tensor.dims b then bad name args
    else begin
      let n = Tensor.flat_length a in
      if Tensor.is_int a && Tensor.is_int b then begin
        let out = Array.init n (fun i -> fi (Tensor.get_int a i) (Tensor.get_int b i)) in
        Tensor (Tensor.create_int (Array.copy (Tensor.dims a)) out)
      end
      else begin
        let out = Array.init n (fun i -> fr (Tensor.get_real a i) (Tensor.get_real b i)) in
        Tensor (Tensor.create_real (Array.copy (Tensor.dims a)) out)
      end
    end
  | _ -> bad name args

(* The Real64 array ops below loop over the float arrays themselves, one
   loop written out per op: no element is boxed on the way (a float closure
   would box every result). *)
let reals t =
  match t.Tensor.data with
  | Tensor.Reals a -> a
  | Tensor.Ints a -> Array.init (Array.length a) (fun i -> float_of_int a.(i))

(* [loop a s out] writes [out.(i) <- a.(i) op s] for one fixed op *)
let array_scalar name fi (loop : float array -> float -> float array -> unit) args =
  match args with
  | [| Tensor a; Int s |] when Tensor.is_int a ->
    let n = Tensor.flat_length a in
    Tensor
      (Tensor.create_int (Array.copy (Tensor.dims a))
         (Array.init n (fun i -> fi (Tensor.get_int a i) s)))
  | [| Tensor t; ((Int _ | Real _) as s) |] ->
    let a = reals t in
    let out = Array.create_float (Array.length a) in
    loop a (real s) out;
    Tensor (Tensor.create_real (Array.copy (Tensor.dims t)) out)
  | _ -> bad name args

(* [loop a out] writes [out.(i) <- f a.(i)] for one fixed f *)
let array_unary name (loop : float array -> float array -> unit) args =
  match args with
  | [| Tensor t |] ->
    let a = reals t in
    let out = Array.create_float (Array.length a) in
    loop a out;
    Tensor (Tensor.create_real (Array.copy (Tensor.dims t)) out)
  | _ -> bad name args

let tensor_get t i =
  if Tensor.is_int t then Int (Tensor.get_int t i) else Real (Tensor.get_real t i)

let set_flat t j v =
  match v with
  | Int x -> Tensor.set_int t j x
  | Real x -> Tensor.set_real t j x
  | _ -> raise (Errors.Runtime_error (Errors.Invalid_runtime_argument "SetPart value"))

let view_mismatches =
  Wolf_obs.Metrics.counter
    ~help:"JIT array views bound to a tensor of another element type or rank"
    "jit_view_mismatches_total"

let view_mismatch () =
  Wolf_obs.Metrics.incr view_mismatches;
  raise (Errors.Runtime_error (Errors.Invalid_runtime_argument "packed array representation"))

(* Copy-on-write unless the mutability pass proved the update unaliased. *)
let part_set_1 ~inplace args =
  match args with
  | [| Tensor t; Int i; v |] ->
    let j = Tensor.normalize_index t i in
    let t = if inplace then t else Tensor.ensure_unique t in
    set_flat t j v;
    Tensor t
  | _ -> bad "part_set_1" args

let part_set_2 ~inplace args =
  match args with
  | [| Tensor t; Int i; Int k; v |] ->
    let j = Tensor.flat_index2 t i k in
    let t = if inplace then t else Tensor.ensure_unique t in
    set_flat t j v;
    Tensor t
  | _ -> bad "part_set_2" args

(* ------------------------------------------------------------------ *)
(* The primitive table *)

type effect = Pure | Random | Mutates_arg0 | Calls

type failure = Never | Overflow_only | May_fail

type scalar =
  | Int1 of (int -> int)
  | Int2 of (int -> int -> int)
  | Real1 of (float -> float)
  | Real2 of (float -> float -> float)
  | Real_to_int of (float -> int)
  | Int_to_real of (int -> float)
  | Num2 of (int -> int -> int) * (float -> float -> float)
  | Cmp2 of (int -> int -> bool) * (float -> float -> bool)
  | Int_test of (int -> bool)
  | Bool1 of (bool -> bool)
  | Bool_to_int of (bool -> int)

type arith = Add | Sub | Mul | Div | Mod | Quotient | Pow | Neg | Abs | Min | Max

type cmp = Lt | Gt | Le | Ge | Eq | Ne

type bit = And | Or | Xor | Shift_left | Shift_right

type libm = Sin | Cos | Tan | Exp | Log | Sqrt | Floor | Ceil | Trunc

type op =
  | Checked of arith | Machine of arith | Complex_arith of arith | Re | Im | Make_complex | Power_ri
  | Cmp of cmp | Bit of bit | Not
  | Libm of libm | To_int of libm | Round | To_real | Identity | Even | Odd | Boole
  | Part_get of { rank : int; checked : bool }
  | Part_set of { rank : int; checked : bool; inplace : bool }
  | Length | Dim | String_length | String_byte of { checked : bool } | String_join
  | Total | Reverse | Take | Append | Join | Range | Constant_array | To_codes

(* a libm function's name and its OCaml function *)
let libm = function
  | Sin -> ("sin", sin) | Cos -> ("cos", cos) | Tan -> ("tan", tan) | Exp -> ("exp", exp)
  | Log -> ("log", log) | Sqrt -> ("sqrt", sqrt) | Floor -> ("floor", Float.floor)
  | Ceil -> ("ceil", Float.ceil) | Trunc -> ("trunc", Float.trunc)

let libm_name f = fst (libm f)

type t = {
  name : string;
  arity : int;
  effect : effect;
  fails : failure;
  fresh : bool;
  specialises : string option;
  op : op option;
  scalar : scalar option;
  impl : Rtval.t array -> Rtval.t;
}

(* [impl name] gets the row's own name, for its error messages *)
let row ?(effect = Pure) ?(fails = Never) ?(fresh = false) ?specialises ?op ?scalar name arity
    impl =
  { name; arity; effect; fails; fresh; specialises; op; scalar; impl = impl name }

let num = function Int _ | Real _ -> true | _ -> false

(* the boxed implementation of a scalar form: the form's own function on
   the unboxed operands *)
let boxed form name args =
  match form, args with
  | Int1 f, [| Int a |] -> Int (f a)
  | (Int2 f | Num2 (f, _)), [| Int a; Int b |] -> Int (f a b)
  | Real1 f, [| a |] when num a -> Real (f (real a))
  | (Real2 f | Num2 (_, f)), [| a; b |] when num a && num b -> Real (f (real a) (real b))
  | Real_to_int f, [| a |] when num a -> Int (f (real a))
  | Int_to_real f, [| Int a |] -> Real (f a)
  | Cmp2 (f, _), [| Int a; Int b |] -> Bool (f a b)
  | Cmp2 (_, f), [| a; b |] when num a && num b -> Bool (f (real a) (real b))
  | Int_test f, [| Int a |] -> Bool (f a)
  | Bool1 f, [| Bool b |] -> Bool (f b)
  | Bool_to_int f, [| Bool b |] -> Int (f b)
  | _ -> bad name args

let form_arity = function
  | Int2 _ | Real2 _ | Num2 _ | Cmp2 _ -> 2
  | Int1 _ | Real1 _ | Real_to_int _ | Int_to_real _ | Int_test _ | Bool1 _ | Bool_to_int _ -> 1

let abs_checked a =
  if a = min_int then raise (Errors.Runtime_error Errors.Integer_overflow) else abs a

let divide a d = if d = 0.0 then raise (Errors.Runtime_error Errors.Division_by_zero) else a /. d

(* the machine function an op fixes *)
let scalar_of_op = function
  | Checked Add -> Some (Int2 Checked.add)
  | Checked Sub -> Some (Int2 Checked.sub)
  | Checked Mul -> Some (Int2 Checked.mul)
  | Checked Mod -> Some (Int2 Checked.modulo)
  | Checked Quotient -> Some (Int2 Checked.quotient)
  | Checked Pow -> Some (Int2 Checked.pow)
  | Checked Neg -> Some (Int1 Checked.neg)
  | Checked Abs -> Some (Int1 abs_checked)
  | Machine Add -> Some (Num2 (( + ), ( +. )))
  | Machine Sub -> Some (Num2 (( - ), ( -. )))
  | Machine Mul -> Some (Num2 (( * ), ( *. )))
  | Machine Min -> Some (Num2 (min, Float.min))
  | Machine Max -> Some (Num2 (max, Float.max))
  | Machine Div -> Some (Real2 divide)
  | Machine Pow -> Some (Real2 Float.pow)
  | Machine Neg -> Some (Real1 Float.neg)
  | Machine Abs -> Some (Real1 Float.abs)
  | Cmp Lt -> Some (Cmp2 (( < ), ( < )))
  | Cmp Gt -> Some (Cmp2 (( > ), ( > )))
  | Cmp Le -> Some (Cmp2 (( <= ), ( <= )))
  | Cmp Ge -> Some (Cmp2 (( >= ), ( >= )))
  | Cmp Eq -> Some (Cmp2 (( = ), ( = )))
  | Cmp Ne -> Some (Cmp2 (( <> ), ( <> )))
  | Bit And -> Some (Int2 ( land ))
  | Bit Or -> Some (Int2 ( lor ))
  | Bit Xor -> Some (Int2 ( lxor ))
  | Bit Shift_left -> Some (Int2 ( lsl ))
  | Bit Shift_right -> Some (Int2 ( asr ))
  | Not -> Some (Bool1 not)
  | Libm f -> Some (Real1 (snd (libm f)))
  | To_int f -> let g = snd (libm f) in Some (Real_to_int (fun x -> int_of_float (g x)))
  | Round -> Some (Real_to_int Checked.round_half_even)
  | To_real -> Some (Int_to_real float_of_int)
  | Even -> Some (Int_test (fun a -> a land 1 = 0))
  | Odd -> Some (Int_test (fun a -> a land 1 = 1))
  | Boole -> Some (Bool_to_int Bool.to_int)
  | Checked (Div | Min | Max) | Machine (Mod | Quotient) | Complex_arith _ | Re | Im | Make_complex
  | Power_ri | Identity | Part_get _ | Part_set _ | Length | Dim | String_length | String_byte _
  | String_join | Total | Reverse | Take | Append | Join | Range | Constant_array | To_codes ->
    None

(* a row with a scalar form, its op's or [form]; its [impl] is [boxed form]
   unless the row accepts boxed shapes the form has no function for *)
let scalar ?fails ?impl ?form name op =
  let form = match form with Some f -> f | None -> Option.get (scalar_of_op op) in
  row ?fails ~op ~scalar:form name (form_arity form) (Option.value impl ~default:(boxed form))

(* the comparisons also order strings, booleans, expressions and complex
   numbers, by the int comparison of [compare]'s result with 0 *)
let cmp name c =
  let fi, fr = match scalar_of_op (Cmp c) with Some (Cmp2 (fi, fr)) -> (fi, fr) | _ -> assert false in
  let impl n args =
    match args with
    | [| Str a; Str b |] -> Bool (fi (String.compare a b) 0)
    | [| Bool a; Bool b |] -> Bool (fi (compare a b) 0)
    | [| Expr a; Expr b |] -> Bool (fi (Wolf_wexpr.Expr.compare a b) 0)
    | [| Complex (ar, ai); Complex (br, bi) |] -> Bool (fi (compare (ar, ai) (br, bi)) 0)
    | _ -> boxed (Cmp2 (fi, fr)) n args
  in
  scalar ~impl name (Cmp c)

(* the identities pass any operand through *)
let identity name form = scalar ~impl:(fun _ args -> args.(0)) ~form name Identity

let pow_ri x e =
  let rec go acc x e =
    if e = 0 then acc else go (if e land 1 = 1 then acc *. x else acc) (x *. x) (e lsr 1)
  in
  if e >= 0 then go 1.0 x e else 1.0 /. go 1.0 x (-e)

let complex_power name args =
  match args with
  | [| Complex (r, i); Int e |] when e >= 0 ->
    let mul (ar, ai) (br, bi) = ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)) in
    let rec go acc b e =
      if e = 0 then acc else go (if e land 1 = 1 then mul acc b else acc) (mul b b) (e lsr 1)
    in
    let r, i = go (1.0, 0.0) (r, i) e in
    Complex (r, i)
  | _ -> bad name args

let power_ri name args =
  match args with [| a; Int e |] -> Real (pow_ri (real a) e) | _ -> bad name args

let part_get_2 name args =
  match args with
  | [| Tensor t; Int i; Int k |] -> tensor_get t (Tensor.flat_index2 t i k)
  | _ -> bad name args

let part_get_1 ~checked name args =
  match args with
  | [| Tensor t; Int i |] ->
    tensor_get t (if checked then Tensor.normalize_index t i else i - 1)
  | _ -> bad name args

let string_byte ~checked name args =
  match args with
  | [| Str s; Int i |] ->
    Int (Char.code s.[if checked then Tensor.part_index (String.length s) i else i - 1])
  | _ -> bad name args

(* Join, Append and Take copy the data array by blit *)
let array_join name args =
  match args with
  | [| Tensor { data = Ints a; _ }; Tensor { data = Ints b; _ } |] ->
    Tensor (Tensor.of_int_array (Array.append a b))
  | [| Tensor { data = Reals a; _ }; Tensor { data = Reals b; _ } |] ->
    Tensor (Tensor.of_real_array (Array.append a b))
  | _ -> bad name args

let array_append name args =
  match args with
  | [| Tensor { data = Ints a; _ }; Int x |] ->
    let out = Array.make (Array.length a + 1) x in
    Array.blit a 0 out 0 (Array.length a);
    Tensor (Tensor.of_int_array out)
  | [| Tensor t; v |] ->
    let a = reals t in
    let out = Array.make (Array.length a + 1) (real v) in
    Array.blit a 0 out 0 (Array.length a);
    Tensor (Tensor.of_real_array out)
  | _ -> bad name args

let array_take name args =
  match args with
  | [| Tensor t; Int k |] when k >= 0 && k <= Tensor.flat_length t ->
    (match t.data with
     | Ints a -> Tensor (Tensor.of_int_array (Array.sub a 0 k))
     | Reals a -> Tensor (Tensor.of_real_array (Array.sub a 0 k)))
  | _ -> bad name args

(* a store's row, named by its op: its result is its operand, made unique
   first unless the [_inplace] variant says a pass proved it unaliased *)
let store rank ~checked ~inplace =
  let base = Printf.sprintf "part_set_%d" rank in
  let name = base ^ (if inplace then "_inplace" else "") ^ if checked then "" else "_unchecked" in
  let specialises = if checked && not inplace then None else Some base in
  let set = if rank = 1 then part_set_1 else part_set_2 in
  row name (rank + 2) ~op:(Part_set { rank; checked; inplace }) ~effect:Mutates_arg0 ~fails:May_fail
    ~fresh:true ?specialises (fun _ -> set ~inplace)

let dot_vv name args =
  match args with
  | [| Tensor a; Tensor b |] ->
    let r = Tensor.dot a b in
    if Tensor.is_int r then Int (Tensor.get_int r 0) else Real (Tensor.get_real r 0)
  | _ -> bad name args

(* Every runtime primitive, once.  The facts a row states (prims.mli says
   what each means) are about its boxed implementation on well-typed
   operands; the threaded backend and the WVM run a scalar row's form
   itself, and the text emitters render its op. *)
let rows =
  [ scalar "checked_binary_plus" ~fails:Overflow_only (Checked Add);
    scalar "checked_binary_subtract" ~fails:Overflow_only (Checked Sub);
    scalar "checked_binary_times" ~fails:Overflow_only (Checked Mul);
    scalar "checked_binary_mod" ~fails:May_fail (Checked Mod);
    scalar "checked_binary_quotient" ~fails:May_fail (Checked Quotient);
    scalar "checked_binary_power" ~fails:May_fail (Checked Pow);
    scalar "checked_unary_minus" ~fails:Overflow_only (Checked Neg);
    scalar "checked_unary_abs" ~fails:Overflow_only (Checked Abs);
    scalar "binary_plus" (Machine Add);
    scalar "binary_subtract" (Machine Sub);
    scalar "binary_times" (Machine Mul);
    scalar "binary_divide" ~fails:May_fail (Machine Div);
    scalar "binary_power" (Machine Pow);
    row "binary_power_ri" 2 ~op:Power_ri power_ri;
    scalar "unary_minus" (Machine Neg);
    scalar "unary_abs" (Machine Abs);
    row "complex_binary_plus" 2 ~op:(Complex_arith Add) (fun n ->
        complex_binary n (fun (ar, ai) (br, bi) -> (ar +. br, ai +. bi)));
    row "complex_binary_subtract" 2 ~op:(Complex_arith Sub) (fun n ->
        complex_binary n (fun (ar, ai) (br, bi) -> (ar -. br, ai -. bi)));
    row "complex_binary_times" 2 ~op:(Complex_arith Mul) (fun n ->
        complex_binary n (fun (ar, ai) (br, bi) ->
            ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))));
    row "complex_binary_divide" 2 (fun n ->
        complex_binary n (fun (ar, ai) (br, bi) ->
            let d = (br *. br) +. (bi *. bi) in
            (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)));
    row "complex_binary_power" 2 ~op:(Complex_arith Pow) ~fails:May_fail complex_power;
    row "complex_abs" 1 ~op:(Complex_arith Abs) (fun n args ->
        match args with [| Complex (r, i) |] -> Real (Float.hypot r i) | _ -> bad n args);
    row "complex_re" 1 ~op:Re (fun n args ->
        match args with [| Complex (r, _) |] -> Real r | _ -> bad n args);
    row "complex_im" 1 ~op:Im (fun n args ->
        match args with [| Complex (_, i) |] -> Real i | _ -> bad n args);
    row "complex_make" 2 ~op:Make_complex (fun n args ->
        match args with [| a; b |] -> Complex (real a, real b) | _ -> bad n args);
    row "expr_binary_plus" 2 ~effect:Calls ~fails:May_fail (fun _ -> expr_binary "Plus");
    row "expr_binary_subtract" 2 ~effect:Calls ~fails:May_fail (fun _ -> expr_binary "Subtract");
    row "expr_binary_times" 2 ~effect:Calls ~fails:May_fail (fun _ -> expr_binary "Times");
    row "expr_unary_sin" 1 ~effect:Calls ~fails:May_fail (fun _ -> expr_unary "Sin");
    row "expr_unary_cos" 1 ~effect:Calls ~fails:May_fail (fun _ -> expr_unary "Cos");
    row "expr_unary_tan" 1 ~effect:Calls ~fails:May_fail (fun _ -> expr_unary "Tan");
    row "expr_unary_exp" 1 ~effect:Calls ~fails:May_fail (fun _ -> expr_unary "Exp");
    row "expr_unary_log" 1 ~effect:Calls ~fails:May_fail (fun _ -> expr_unary "Log");
    row "expr_unary_sqrt" 1 ~effect:Calls ~fails:May_fail (fun _ -> expr_unary "Sqrt");
    row "expr_part" 2 ~fails:May_fail (fun n args ->
        match args with
        | [| Expr (Wolf_wexpr.Expr.Normal (_, items)); Int i |] ->
          Expr items.(Tensor.part_index (Array.length items) i)
        | _ -> bad n args);
    row "expr_length" 1 (fun n args ->
        match args with
        | [| Expr (Wolf_wexpr.Expr.Normal (_, items)) |] -> Int (Array.length items)
        | [| Expr _ |] -> Int 0
        | _ -> bad n args);
    cmp "binary_less" Lt;
    cmp "binary_greater" Gt;
    cmp "binary_less_equal" Le;
    cmp "binary_greater_equal" Ge;
    cmp "binary_equal" Eq;
    cmp "binary_unequal" Ne;
    scalar "unary_not" Not;
    scalar "binary_bitand" (Bit And);
    scalar "binary_bitor" (Bit Or);
    scalar "binary_bitxor" (Bit Xor);
    scalar "binary_shiftleft" (Bit Shift_left);
    scalar "binary_shiftright" (Bit Shift_right);
    scalar "binary_min" (Machine Min);
    scalar "binary_max" (Machine Max);
    scalar "unary_sin" (Libm Sin);
    scalar "unary_cos" (Libm Cos);
    scalar "unary_tan" (Libm Tan);
    scalar "unary_exp" (Libm Exp);
    scalar "unary_log" (Libm Log);
    scalar "unary_sqrt" (Libm Sqrt);
    scalar "unary_floor" (To_int Floor);
    scalar "unary_ceiling" (To_int Ceil);
    scalar "unary_round" Round;
    scalar "unary_truncate" (To_int Trunc);
    identity "unary_identity_int" (Int1 Fun.id);
    identity "unary_identity_real" (Real1 Fun.id);
    scalar "int_to_real" To_real;
    scalar "unary_evenq" Even;
    scalar "unary_oddq" Odd;
    scalar "unary_boole" Boole;
    row "array_binary_plus" 2 ~fails:May_fail ~fresh:true (fun n ->
        array_binary n ( + ) ( +. ));
    row "array_binary_subtract" 2 ~fails:May_fail ~fresh:true (fun n ->
        array_binary n ( - ) ( -. ));
    row "array_binary_times" 2 ~fails:May_fail ~fresh:true (fun n ->
        array_binary n ( * ) ( *. ));
    row "array_scalar_plus" 2 ~fresh:true (fun n ->
        array_scalar n ( + ) (fun a s out ->
            for i = 0 to Array.length a - 1 do
              Array.unsafe_set out i (Array.unsafe_get a i +. s)
            done));
    row "array_scalar_subtract" 2 ~fresh:true (fun n ->
        array_scalar n ( - ) (fun a s out ->
            for i = 0 to Array.length a - 1 do
              Array.unsafe_set out i (Array.unsafe_get a i -. s)
            done));
    row "array_scalar_times" 2 ~fresh:true (fun n ->
        array_scalar n ( * ) (fun a s out ->
            for i = 0 to Array.length a - 1 do
              Array.unsafe_set out i (Array.unsafe_get a i *. s)
            done));
    row "array_unary_sin" 1 ~fresh:true (fun n ->
        array_unary n (fun a out ->
            for i = 0 to Array.length a - 1 do Array.unsafe_set out i (sin (Array.unsafe_get a i)) done));
    row "array_unary_cos" 1 ~fresh:true (fun n ->
        array_unary n (fun a out ->
            for i = 0 to Array.length a - 1 do Array.unsafe_set out i (cos (Array.unsafe_get a i)) done));
    row "array_unary_tan" 1 ~fresh:true (fun n ->
        array_unary n (fun a out ->
            for i = 0 to Array.length a - 1 do Array.unsafe_set out i (tan (Array.unsafe_get a i)) done));
    row "array_unary_exp" 1 ~fresh:true (fun n ->
        array_unary n (fun a out ->
            for i = 0 to Array.length a - 1 do Array.unsafe_set out i (exp (Array.unsafe_get a i)) done));
    row "array_unary_log" 1 ~fresh:true (fun n ->
        array_unary n (fun a out ->
            for i = 0 to Array.length a - 1 do Array.unsafe_set out i (log (Array.unsafe_get a i)) done));
    row "array_unary_sqrt" 1 ~fresh:true (fun n ->
        array_unary n (fun a out ->
            for i = 0 to Array.length a - 1 do Array.unsafe_set out i (sqrt (Array.unsafe_get a i)) done));
    row "part_get_1" 2 ~op:(Part_get { rank = 1; checked = true }) ~fails:May_fail
      (part_get_1 ~checked:true);
    (* emitted by the loop optimiser where it proved the index in range;
       elsewhere an index may be out of range, so they may fail *)
    row "part_get_1_unchecked" 2 ~op:(Part_get { rank = 1; checked = false }) ~fails:May_fail
      ~specialises:"part_get_1"
      (part_get_1 ~checked:false);
    row "part_get_2" 3 ~op:(Part_get { rank = 2; checked = true }) ~fails:May_fail part_get_2;
    (* the range analysis's variants of the matrix read and the stores
       keep the checked implementation: only the text emitters drop the
       test *)
    row "part_get_2_unchecked" 3 ~op:(Part_get { rank = 2; checked = false }) ~fails:May_fail
      ~specialises:"part_get_2" part_get_2;
    row "part_get_row" 2 ~fails:May_fail ~fresh:true (fun n args ->
        match args with
        | [| Tensor t; Int i |] -> Tensor (Tensor.slice t (Tensor.normalize_index t i))
        | _ -> bad n args);
    store 1 ~checked:true ~inplace:false;
    store 1 ~checked:true ~inplace:true;
    store 2 ~checked:true ~inplace:false;
    store 2 ~checked:true ~inplace:true;
    store 1 ~checked:false ~inplace:false;
    store 1 ~checked:false ~inplace:true;
    store 2 ~checked:false ~inplace:false;
    store 2 ~checked:false ~inplace:true;
    row "array_length" 1 ~op:Length (fun n args ->
        match args with [| Tensor t |] -> Int (Tensor.dims t).(0) | _ -> bad n args);
    (* [array_dim t k]: the k-th dimension (1-based), made by the range
       analysis's version guards *)
    row "array_dim" 2 ~op:Dim ~fails:May_fail (fun n args ->
        match args with
        | [| Tensor t; Int k |] when k >= 1 && k <= Tensor.rank t -> Int (Tensor.dims t).(k - 1)
        | _ -> bad n args);
    row "array_total" 1 ~op:Total (fun n args ->
        match args with
        | [| Tensor t |] -> (match Tensor.total t with `Int i -> Int i | `Real r -> Real r)
        | _ -> bad n args);
    row "array_reverse" 1 ~op:Reverse ~fresh:true (fun n args ->
        match args with
        | [| Tensor t |] ->
          let k = Tensor.flat_length t in
          if Tensor.is_int t then
            Tensor (Tensor.of_int_array (Array.init k (fun i -> Tensor.get_int t (k - 1 - i))))
          else
            Tensor (Tensor.of_real_array (Array.init k (fun i -> Tensor.get_real t (k - 1 - i))))
        | _ -> bad n args);
    row "array_join" 2 ~op:Join ~fresh:true array_join;
    row "array_append" 2 ~op:Append ~fresh:true array_append;
    row "dot_mm" 2 ~fails:May_fail ~fresh:true (fun n args ->
        match args with [| Tensor a; Tensor b |] -> Tensor (Tensor.dot a b) | _ -> bad n args);
    row "dot_mv" 2 ~fails:May_fail ~fresh:true (fun n args ->
        match args with [| Tensor a; Tensor b |] -> Tensor (Tensor.dot a b) | _ -> bad n args);
    row "dot_vv" 2 ~fails:May_fail dot_vv;
    row "dot_vv_int" 2 ~fails:May_fail dot_vv;
    row "range" 1 ~op:Range ~fresh:true (fun n args ->
        match args with
        | [| Int k |] -> Tensor (Tensor.of_int_array (Array.init (max k 0) (fun i -> i + 1)))
        | _ -> bad n args);
    row "range2" 2 ~fresh:true (fun n args ->
        match args with
        | [| Int lo; Int hi |] ->
          Tensor (Tensor.of_int_array (Array.init (max (hi - lo + 1) 0) (fun i -> lo + i)))
        | _ -> bad n args);
    row "constant_array_int" 2 ~op:Constant_array ~fresh:true (fun n args ->
        match args with
        | [| Int v; Int k |] -> Tensor (Tensor.of_int_array (Array.make (max k 0) v))
        | _ -> bad n args);
    row "constant_array_real" 2 ~op:Constant_array ~fresh:true (fun n args ->
        match args with
        | [| Real v; Int k |] -> Tensor (Tensor.of_real_array (Array.make (max k 0) v))
        | _ -> bad n args);
    row "constant_array_int2" 3 ~fails:May_fail ~fresh:true (fun n args ->
        match args with
        | [| Int v; Int r; Int c |] when r >= 0 && c >= 0 ->
          Tensor (Tensor.create_int [| r; c |] (Array.make (r * c) v))
        | _ -> bad n args);
    row "constant_array_real2" 3 ~fails:May_fail ~fresh:true (fun n args ->
        match args with
        | [| Real v; Int r; Int c |] when r >= 0 && c >= 0 ->
          Tensor (Tensor.create_real [| r; c |] (Array.make (r * c) v))
        | _ -> bad n args);
    row "array_take" 2 ~op:Take ~fails:May_fail ~fresh:true array_take;
    row "string_length" 1 ~op:String_length (fun n args ->
        match args with [| Str s |] -> Int (String.length s) | _ -> bad n args);
    row "string_join" 2 ~op:String_join (fun n args ->
        match args with [| Str a; Str b |] -> Str (a ^ b) | _ -> bad n args);
    row "string_byte" 2 ~op:(String_byte { checked = true }) ~fails:May_fail
      (string_byte ~checked:true);
    row "string_byte_unchecked" 2 ~op:(String_byte { checked = false }) ~fails:May_fail
      ~specialises:"string_byte"
      (string_byte ~checked:false);
    row "string_take" 2 ~fails:May_fail (fun n args ->
        match args with
        | [| Str s; Int k |] when k >= 0 && k <= String.length s -> Str (String.sub s 0 k)
        | _ -> bad n args);
    row "to_character_code" 1 ~op:To_codes ~fresh:true (fun n args ->
        match args with
        | [| Str s |] ->
          Tensor (Tensor.of_int_array (Array.init (String.length s) (fun i -> Char.code s.[i])))
        | _ -> bad n args);
    row "from_character_code" 1 (fun n args ->
        match args with
        | [| Tensor t |] when Tensor.is_int t ->
          Str (String.init (Tensor.flat_length t) (fun i -> Char.chr (Tensor.get_int t i land 255)))
        | _ -> bad n args);
    row "random_real" 0 ~effect:Random (fun _ _ -> Real (Rand.uniform ()));
    row "random_real_range" 1 ~effect:Random ~fails:May_fail (fun n args ->
        match args with
        | [| Tensor t |] when Tensor.flat_length t = 2 ->
          Real (Rand.uniform_range (Tensor.get_real t 0) (Tensor.get_real t 1))
        | _ -> bad n args);
    row "random_integer" 1 ~effect:Random ~fails:May_fail (fun n args ->
        match args with [| Int hi |] when hi >= 0 -> Int (Rand.int_range 0 hi) | _ -> bad n args);
    row "int_to_expr" 1 (fun n args ->
        match args with [| Int i |] -> Expr (Wolf_wexpr.Expr.Int i) | _ -> bad n args);
    row "real_to_expr" 1 (fun n args ->
        match args with [| Real r |] -> Expr (Wolf_wexpr.Expr.Real r) | _ -> bad n args);
    row "expr_to_int" 1 ~fails:May_fail (fun n args ->
        match args with
        | [| Expr e |] ->
          (match Wolf_wexpr.Expr.int_of e with
           | Some i -> Int i
           | None -> raise (Errors.Runtime_error (Errors.Invalid_runtime_argument n)))
        | _ -> bad n args);
    (* made by opt_parloop: [closure; carry; lo; hi; opcode; fingerprint] *)
    row "parallel_for_map" 6 ~effect:Calls ~fails:May_fail (fun _ ->
        Par_runtime.parallel_for_map);
    row "parallel_reduce" 6 ~effect:Calls ~fails:May_fail (fun _ ->
        Par_runtime.parallel_reduce);
    (* the E7 ablation: deep-copy the constant on every evaluation *)
    row "materializeconstant" 1 ~fresh:true (fun n args ->
        match args with
        | [| Tensor t |] -> Tensor (Tensor.copy t)
        | [| v |] -> v
        | _ -> bad n args) ]

let table =
  let h = Hashtbl.create 128 in
  List.iter (fun r -> Hashtbl.replace h r.name r) rows;
  h

let find_opt name = Hashtbl.find_opt table name

let find name =
  match Hashtbl.find_opt table name with
  | Some r -> r
  | None -> invalid_arg ("Prims.find: unknown primitive " ^ name)

let holds base p = match Hashtbl.find_opt table base with Some r -> p r | None -> false

let op_of base = match Hashtbl.find_opt table base with Some r -> r.op | None -> None
