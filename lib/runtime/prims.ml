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

let num_binary name fi fr args =
  match args with
  | [| Int a; Int b |] -> Int (fi a b)
  | [| (Int _ | Real _) as a; (Int _ | Real _) as b |] -> Real (fr (real a) (real b))
  | _ -> bad name args

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
   loop per op: the op is matched once per call and no element is boxed
   on the way (a float closure would box every result). *)
let reals t =
  match t.Tensor.data with
  | Tensor.Reals a -> a
  | Tensor.Ints a -> Array.init (Array.length a) (fun i -> float_of_int a.(i))

let array_scalar name fi args =
  match args with
  | [| Tensor a; Int s |] when Tensor.is_int a ->
    let n = Tensor.flat_length a in
    Tensor
      (Tensor.create_int (Array.copy (Tensor.dims a))
         (Array.init n (fun i -> fi (Tensor.get_int a i) s)))
  | [| Tensor t; ((Int _ | Real _) as s) |] ->
    let a = reals t and s = real s in
    let n = Array.length a in
    let out = Array.create_float n in
    (match name with
     | "array_scalar_times" ->
       for i = 0 to n - 1 do Array.unsafe_set out i (Array.unsafe_get a i *. s) done
     | "array_scalar_plus" ->
       for i = 0 to n - 1 do Array.unsafe_set out i (Array.unsafe_get a i +. s) done
     | _ ->
       for i = 0 to n - 1 do Array.unsafe_set out i (Array.unsafe_get a i -. s) done);
    Tensor (Tensor.create_real (Array.copy (Tensor.dims t)) out)
  | _ -> bad name args

let array_unary name args =
  match args with
  | [| Tensor t |] ->
    let a = reals t in
    let n = Array.length a in
    let out = Array.create_float n in
    (match name with
     | "array_unary_sin" ->
       for i = 0 to n - 1 do Array.unsafe_set out i (sin (Array.unsafe_get a i)) done
     | "array_unary_cos" ->
       for i = 0 to n - 1 do Array.unsafe_set out i (cos (Array.unsafe_get a i)) done
     | "array_unary_tan" ->
       for i = 0 to n - 1 do Array.unsafe_set out i (tan (Array.unsafe_get a i)) done
     | "array_unary_exp" ->
       for i = 0 to n - 1 do Array.unsafe_set out i (exp (Array.unsafe_get a i)) done
     | "array_unary_log" ->
       for i = 0 to n - 1 do Array.unsafe_set out i (log (Array.unsafe_get a i)) done
     | _ ->
       for i = 0 to n - 1 do Array.unsafe_set out i (sqrt (Array.unsafe_get a i)) done);
    Tensor (Tensor.create_real (Array.copy (Tensor.dims t)) out)
  | _ -> bad name args

let cmp name op args =
  match args with
  | [| Int a; Int b |] -> Bool (op (compare a b) 0)
  | [| (Int _ | Real _) as a; (Int _ | Real _) as b |] ->
    Bool (op (compare (real a) (real b)) 0)
  | [| Str a; Str b |] -> Bool (op (String.compare a b) 0)
  | [| Bool a; Bool b |] -> Bool (op (compare a b) 0)
  | [| Expr a; Expr b |] -> Bool (op (Wolf_wexpr.Expr.compare a b) 0)
  | [| Complex (ar, ai); Complex (br, bi) |] -> Bool (op (compare (ar, ai) (br, bi)) 0)
  | _ -> bad name args

let part_index len i =
  let j = if i < 0 then len + i else i - 1 in
  if i = 0 || j < 0 || j >= len then
    raise (Errors.Runtime_error (Errors.Part_out_of_range (i, len)));
  j

let tensor_get t i =
  if Tensor.is_int t then Int (Tensor.get_int t i) else Real (Tensor.get_real t i)

let set_flat t j v =
  match v with
  | Int x -> if Tensor.is_int t then Tensor.set_int t j x else Tensor.set_real t j (float_of_int x)
  | Real x -> Tensor.set_real t j x
  | _ -> raise (Errors.Runtime_error (Errors.Invalid_runtime_argument "SetPart value"))

(* Copy-on-write unless the mutability pass proved the update unaliased. *)
let part_set_1 ~inplace args =
  match args with
  | [| Tensor t; Int i; v |] ->
    let j = part_index (Tensor.dims t).(0) i in
    let t = if inplace then t else Tensor.ensure_unique t in
    set_flat t j v;
    Tensor t
  | _ -> bad "part_set_1" args

let part_set_2 ~inplace args =
  match args with
  | [| Tensor t; Int i; Int k; v |] ->
    let dims = Tensor.dims t in
    let j1 = part_index dims.(0) i in
    let j2 = part_index dims.(1) k in
    let t = if inplace then t else Tensor.ensure_unique t in
    set_flat t ((j1 * dims.(1)) + j2) v;
    Tensor t
  | _ -> bad "part_set_2" args

let checked name f args =
  match args with
  | [| Int a; Int b |] -> Int (f a b)
  | _ -> bad name args

let apply ~base args =
  match base with
  | "checked_binary_plus" -> checked base Checked.add args
  | "checked_binary_subtract" -> checked base Checked.sub args
  | "checked_binary_times" -> checked base Checked.mul args
  | "checked_binary_mod" -> checked base Checked.modulo args
  | "checked_binary_quotient" -> checked base Checked.quotient args
  | "checked_binary_power" -> checked base Checked.pow args
  | "checked_unary_minus" ->
    (match args with [| Int a |] -> Int (Checked.neg a) | _ -> bad base args)
  | "checked_unary_abs" ->
    (match args with
     | [| Int a |] -> Int (if a = min_int then raise (Errors.Runtime_error Errors.Integer_overflow) else abs a)
     | _ -> bad base args)
  | "binary_plus" -> num_binary base ( + ) ( +. ) args
  | "binary_subtract" -> num_binary base ( - ) ( -. ) args
  | "binary_times" -> num_binary base ( * ) ( *. ) args
  | "binary_divide" ->
    (match args with
     | [| a; b |] ->
       let d = real b in
       if d = 0.0 then raise (Errors.Runtime_error Errors.Division_by_zero)
       else Real (real a /. d)
     | _ -> bad base args)
  | "binary_power" ->
    (match args with
     | [| a; b |] -> Real (Float.pow (real a) (real b))
     | _ -> bad base args)
  | "binary_power_ri" ->
    (match args with
     | [| a; Int e |] ->
       let x = real a in
       let rec go acc x e =
         if e = 0 then acc
         else go (if e land 1 = 1 then acc *. x else acc) (x *. x) (e lsr 1)
       in
       if e >= 0 then Real (go 1.0 x e) else Real (1.0 /. go 1.0 x (-e))
     | _ -> bad base args)
  | "unary_minus" -> (match args with [| a |] -> Real (-.real a) | _ -> bad base args)
  | "unary_abs" -> (match args with [| a |] -> Real (Float.abs (real a)) | _ -> bad base args)
  | "complex_binary_plus" ->
    complex_binary base (fun (ar, ai) (br, bi) -> (ar +. br, ai +. bi)) args
  | "complex_binary_subtract" ->
    complex_binary base (fun (ar, ai) (br, bi) -> (ar -. br, ai -. bi)) args
  | "complex_binary_times" ->
    complex_binary base
      (fun (ar, ai) (br, bi) -> ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)))
      args
  | "complex_binary_divide" ->
    complex_binary base
      (fun (ar, ai) (br, bi) ->
         let d = (br *. br) +. (bi *. bi) in
         (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d))
      args
  | "complex_binary_power" ->
    (match args with
     | [| Complex (r, i); Int e |] ->
       let mul (ar, ai) (br, bi) = ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br)) in
       let rec go acc b e =
         if e = 0 then acc else go (if e land 1 = 1 then mul acc b else acc) (mul b b) (e lsr 1)
       in
       if e >= 0 then begin
         let r, i = go (1.0, 0.0) (r, i) e in
         Complex (r, i)
       end
       else bad base args
     | _ -> bad base args)
  | "complex_abs" ->
    (match args with [| Complex (r, i) |] -> Real (Float.hypot r i) | _ -> bad base args)
  | "complex_re" -> (match args with [| Complex (r, _) |] -> Real r | _ -> bad base args)
  | "complex_im" -> (match args with [| Complex (_, i) |] -> Real i | _ -> bad base args)
  | "complex_make" ->
    (match args with [| a; b |] -> Complex (real a, real b) | _ -> bad base args)
  | "expr_binary_plus" -> expr_binary "Plus" args
  | "expr_binary_subtract" -> expr_binary "Subtract" args
  | "expr_binary_times" -> expr_binary "Times" args
  | "expr_unary_sin" -> expr_unary "Sin" args
  | "expr_unary_cos" -> expr_unary "Cos" args
  | "expr_unary_tan" -> expr_unary "Tan" args
  | "expr_unary_exp" -> expr_unary "Exp" args
  | "expr_unary_log" -> expr_unary "Log" args
  | "expr_unary_sqrt" -> expr_unary "Sqrt" args
  | "expr_part" ->
    (match args with
     | [| Expr (Wolf_wexpr.Expr.Normal (_, items)); Int i |] ->
       Expr items.(part_index (Array.length items) i)
     | _ -> bad base args)
  | "expr_length" ->
    (match args with
     | [| Expr (Wolf_wexpr.Expr.Normal (_, items)) |] -> Int (Array.length items)
     | [| Expr _ |] -> Int 0
     | _ -> bad base args)
  | "binary_less" -> cmp base ( < ) args
  | "binary_greater" -> cmp base ( > ) args
  | "binary_less_equal" -> cmp base ( <= ) args
  | "binary_greater_equal" -> cmp base ( >= ) args
  | "binary_equal" -> cmp base ( = ) args
  | "binary_unequal" -> cmp base ( <> ) args
  | "unary_not" -> (match args with [| Bool b |] -> Bool (not b) | _ -> bad base args)
  | "binary_bitand" -> checked base ( land ) args
  | "binary_bitor" -> checked base ( lor ) args
  | "binary_bitxor" -> checked base ( lxor ) args
  | "binary_shiftleft" -> checked base ( lsl ) args
  | "binary_shiftright" -> checked base ( asr ) args
  | "binary_min" ->
    (match args with
     | [| Int a; Int b |] -> Int (min a b)
     | [| a; b |] -> Real (Float.min (real a) (real b))
     | _ -> bad base args)
  | "binary_max" ->
    (match args with
     | [| Int a; Int b |] -> Int (max a b)
     | [| a; b |] -> Real (Float.max (real a) (real b))
     | _ -> bad base args)
  | "unary_sin" -> Real (sin (real args.(0)))
  | "unary_cos" -> Real (cos (real args.(0)))
  | "unary_tan" -> Real (tan (real args.(0)))
  | "unary_exp" -> Real (exp (real args.(0)))
  | "unary_log" -> Real (log (real args.(0)))
  | "unary_sqrt" -> Real (sqrt (real args.(0)))
  | "unary_floor" -> Int (int_of_float (Float.floor (real args.(0))))
  | "unary_ceiling" -> Int (int_of_float (Float.ceil (real args.(0))))
  | "unary_round" -> Int (Checked.round_half_even (real args.(0)))
  | "unary_truncate" -> Int (int_of_float (Float.trunc (real args.(0))))
  | "unary_identity_int" | "unary_identity_real" -> args.(0)
  | "int_to_real" -> Real (real args.(0))
  | "unary_evenq" ->
    (match args with [| Int a |] -> Bool (a land 1 = 0) | _ -> bad base args)
  | "unary_oddq" ->
    (match args with [| Int a |] -> Bool (a land 1 = 1) | _ -> bad base args)
  | "unary_boole" ->
    (match args with [| Bool b |] -> Int (if b then 1 else 0) | _ -> bad base args)
  | "array_binary_plus" -> array_binary base ( + ) ( +. ) args
  | "array_binary_subtract" -> array_binary base ( - ) ( -. ) args
  | "array_binary_times" -> array_binary base ( * ) ( *. ) args
  | "array_scalar_plus" -> array_scalar base ( + ) args
  | "array_scalar_subtract" -> array_scalar base ( - ) args
  | "array_scalar_times" -> array_scalar base ( * ) args
  | "array_unary_sin" | "array_unary_cos" | "array_unary_tan" | "array_unary_exp"
  | "array_unary_log" | "array_unary_sqrt" -> array_unary base args
  | "part_get_1" ->
    (match args with
     | [| Tensor t; Int i |] -> tensor_get t (part_index (Tensor.dims t).(0) i)
     | _ -> bad base args)
  | "part_get_1_unchecked" ->
    (* emitted by the loop optimiser when the index is provably in range *)
    (match args with
     | [| Tensor t; Int i |] -> tensor_get t (i - 1)
     | _ -> bad base args)
  | "part_get_2" ->
    (match args with
     | [| Tensor t; Int i; Int k |] ->
       let dims = Tensor.dims t in
       let j1 = part_index dims.(0) i and j2 = part_index dims.(1) k in
       tensor_get t ((j1 * dims.(1)) + j2)
     | _ -> bad base args)
  | "part_get_row" ->
    (match args with
     | [| Tensor t; Int i |] -> Tensor (Tensor.slice t (part_index (Tensor.dims t).(0) i))
     | _ -> bad base args)
  | "part_set_1" -> part_set_1 ~inplace:false args
  | "part_set_1_inplace" -> part_set_1 ~inplace:true args
  | "part_set_2" -> part_set_2 ~inplace:false args
  | "part_set_2_inplace" -> part_set_2 ~inplace:true args
  | "array_length" ->
    (match args with [| Tensor t |] -> Int (Tensor.dims t).(0) | _ -> bad base args)
  | "array_total" ->
    (match args with
     | [| Tensor t |] ->
       (match Tensor.total t with `Int i -> Int i | `Real r -> Real r)
     | _ -> bad base args)
  | "array_reverse" ->
    (match args with
     | [| Tensor t |] ->
       let n = Tensor.flat_length t in
       if Tensor.is_int t then
         Tensor (Tensor.of_int_array (Array.init n (fun i -> Tensor.get_int t (n - 1 - i))))
       else
         Tensor (Tensor.of_real_array (Array.init n (fun i -> Tensor.get_real t (n - 1 - i))))
     | _ -> bad base args)
  | "array_join" ->
    (match args with
     | [| Tensor a; Tensor b |] when Tensor.is_int a = Tensor.is_int b ->
       let na = Tensor.flat_length a and nb = Tensor.flat_length b in
       if Tensor.is_int a then begin
         let out = Array.make (na + nb) 0 in
         for i = 0 to na - 1 do out.(i) <- Tensor.get_int a i done;
         for i = 0 to nb - 1 do out.(na + i) <- Tensor.get_int b i done;
         Tensor (Tensor.of_int_array out)
       end
       else begin
         let out = Array.make (na + nb) 0.0 in
         for i = 0 to na - 1 do out.(i) <- Tensor.get_real a i done;
         for i = 0 to nb - 1 do out.(na + i) <- Tensor.get_real b i done;
         Tensor (Tensor.of_real_array out)
       end
     | _ -> bad base args)
  | "array_append" ->
    (match args with
     | [| Tensor a; v |] ->
       let na = Tensor.flat_length a in
       (match v with
        | Int x when Tensor.is_int a ->
          let out = Array.init (na + 1) (fun i -> if i < na then Tensor.get_int a i else x) in
          Tensor (Tensor.of_int_array out)
        | _ ->
          let xv = real v in
          let out =
            Array.init (na + 1) (fun i -> if i < na then Tensor.get_real a i else xv)
          in
          Tensor (Tensor.of_real_array out))
     | _ -> bad base args)
  | "dot_mm" | "dot_mv" ->
    (match args with
     | [| Tensor a; Tensor b |] -> Tensor (Tensor.dot a b)
     | _ -> bad base args)
  | "dot_vv" | "dot_vv_int" ->
    (match args with
     | [| Tensor a; Tensor b |] ->
       let r = Tensor.dot a b in
       if Tensor.is_int r then Int (Tensor.get_int r 0) else Real (Tensor.get_real r 0)
     | _ -> bad base args)
  | "range" ->
    (match args with
     | [| Int n |] -> Tensor (Tensor.of_int_array (Array.init (max n 0) (fun i -> i + 1)))
     | _ -> bad base args)
  | "range2" ->
    (match args with
     | [| Int lo; Int hi |] ->
       let n = max (hi - lo + 1) 0 in
       Tensor (Tensor.of_int_array (Array.init n (fun i -> lo + i)))
     | _ -> bad base args)
  | "constant_array_int" ->
    (match args with
     | [| Int v; Int n |] -> Tensor (Tensor.of_int_array (Array.make (max n 0) v))
     | _ -> bad base args)
  | "array_take" ->
    (match args with
     | [| Tensor t; Int k |] when k >= 0 && k <= Tensor.flat_length t ->
       if Tensor.is_int t then
         Tensor (Tensor.of_int_array (Array.init k (fun i -> Tensor.get_int t i)))
       else Tensor (Tensor.of_real_array (Array.init k (fun i -> Tensor.get_real t i)))
     | _ -> bad base args)
  | "constant_array_real2" ->
    (match args with
     | [| Real v; Int n; Int m |] when n >= 0 && m >= 0 ->
       Tensor (Tensor.create_real [| n; m |] (Array.make (n * m) v))
     | _ -> bad base args)
  | "constant_array_int2" ->
    (match args with
     | [| Int v; Int n; Int m |] when n >= 0 && m >= 0 ->
       Tensor (Tensor.create_int [| n; m |] (Array.make (n * m) v))
     | _ -> bad base args)
  | "constant_array_real" ->
    (match args with
     | [| Real v; Int n |] -> Tensor (Tensor.of_real_array (Array.make (max n 0) v))
     | _ -> bad base args)
  | "string_length" ->
    (match args with [| Str s |] -> Int (String.length s) | _ -> bad base args)
  | "string_join" ->
    (match args with [| Str a; Str b |] -> Str (a ^ b) | _ -> bad base args)
  | "string_byte" ->
    (match args with
     | [| Str s; Int i |] -> Int (Char.code s.[part_index (String.length s) i])
     | _ -> bad base args)
  | "string_byte_unchecked" ->
    (match args with
     | [| Str s; Int i |] -> Int (Char.code s.[i - 1])
     | _ -> bad base args)
  | "string_take" ->
    (match args with
     | [| Str s; Int n |] when n >= 0 && n <= String.length s -> Str (String.sub s 0 n)
     | _ -> bad base args)
  | "to_character_code" ->
    (match args with
     | [| Str s |] ->
       Tensor (Tensor.of_int_array (Array.init (String.length s) (fun i -> Char.code s.[i])))
     | _ -> bad base args)
  | "from_character_code" ->
    (match args with
     | [| Tensor t |] when Tensor.is_int t ->
       Str (String.init (Tensor.flat_length t) (fun i -> Char.chr (Tensor.get_int t i land 255)))
     | _ -> bad base args)
  | "random_real" -> Real (Rand.uniform ())
  | "random_real_range" ->
    (match args with
     | [| Tensor t |] when Tensor.flat_length t = 2 ->
       Real (Rand.uniform_range (Tensor.get_real t 0) (Tensor.get_real t 1))
     | _ -> bad base args)
  | "random_integer" ->
    (match args with [| Int hi |] -> Int (Rand.int_range 0 hi) | _ -> bad base args)
  | "int_to_expr" ->
    (match args with [| Int i |] -> Expr (Wolf_wexpr.Expr.Int i) | _ -> bad base args)
  | "real_to_expr" ->
    (match args with [| Real r |] -> Expr (Wolf_wexpr.Expr.Real r) | _ -> bad base args)
  | "expr_to_int" ->
    (match args with
     | [| Expr e |] ->
       (match Wolf_wexpr.Expr.int_of e with
        | Some i -> Int i
        | None -> raise (Errors.Runtime_error (Errors.Invalid_runtime_argument "expr_to_int")))
     | _ -> bad base args)
  | "parallel_for_map" -> Par_runtime.parallel_for_map args
  | "parallel_reduce" -> Par_runtime.parallel_reduce args
  | "materializeconstant" | "MaterializeConstant" ->
    (* the E7 ablation: deep-copy the constant on every evaluation *)
    (match args with
     | [| Tensor t |] -> Tensor (Tensor.copy t)
     | [| v |] -> v
     | _ -> bad base args)
  | _ -> invalid_arg ("Prims.apply: unknown primitive " ^ base)

let known base =
  match apply ~base [||] with
  | _ -> true
  | exception Invalid_argument _ -> false
  | exception _ -> true
