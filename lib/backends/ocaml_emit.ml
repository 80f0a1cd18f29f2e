open Wolf_runtime
open Wolf_compiler
open Wir

type emitted = {
  source : string;
  entry_symbol : string;
  constants : (string * Rtval.t) list;
}

let sanitize name =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                       || (c >= '0' && c <= '9') then c else '_') name

(* OCaml surface type of a TWIR type. *)
let rec ocaml_ty t =
  match Types.repr t with
  | Types.Con ("Integer64", _) -> "int"
  | Types.Con ("Real64", _) -> "float"
  | Types.Con ("Boolean", _) -> "bool"
  | Types.Con ("String", _) -> "string"
  | Types.Con ("ComplexReal64", _) -> "(float * float)"
  | Types.Con ("PackedArray", _) -> "Wolf_wexpr.Tensor.t"
  | Types.Con ("Expression", _) -> "Wolf_wexpr.Expr.t"
  | Types.Con ("Void", _) -> "unit"
  | Types.Fun (args, ret) ->
    let parts = Array.to_list (Array.map ocaml_ty args) @ [ ocaml_ty ret ] in
    "(" ^ String.concat " -> " parts ^ ")"
  | Types.Con (_, _) | Types.Lit _ -> "Wolf_runtime.Rtval.t"
  | Types.Var _ -> "Wolf_runtime.Rtval.t"

(* Boxing an OCaml expression of the given type into Rtval. *)
let rec box ty expr =
  match Types.repr ty with
  | Types.Con ("Integer64", _) -> Printf.sprintf "(Wolf_runtime.Rtval.Int (%s))" expr
  | Types.Con ("Real64", _) -> Printf.sprintf "(Wolf_runtime.Rtval.Real (%s))" expr
  | Types.Con ("Boolean", _) -> Printf.sprintf "(Wolf_runtime.Rtval.Bool (%s))" expr
  | Types.Con ("String", _) -> Printf.sprintf "(Wolf_runtime.Rtval.Str (%s))" expr
  | Types.Con ("ComplexReal64", _) ->
    Printf.sprintf "(let (re_, im_) = %s in Wolf_runtime.Rtval.Complex (re_, im_))" expr
  | Types.Con ("PackedArray", _) -> Printf.sprintf "(Wolf_runtime.Rtval.Tensor (%s))" expr
  | Types.Con ("Expression", _) -> Printf.sprintf "(Wolf_runtime.Rtval.Expr (%s))" expr
  | Types.Con ("Void", _) -> Printf.sprintf "(ignore (%s); Wolf_runtime.Rtval.Unit)" expr
  | Types.Fun (args, ret) ->
    (* typed closure -> boxed closure for the Rtval boundary *)
    let params = Array.to_list (Array.mapi (fun i _ -> Printf.sprintf "_p%d" i) args) in
    let unboxed =
      List.mapi (fun i a -> unbox_fwd a (Printf.sprintf "_a.(%d)" i))
        (Array.to_list args)
    in
    ignore params;
    Printf.sprintf
      "(Wolf_runtime.Rtval.Fun { arity = %d; call = (fun _a -> %s) })"
      (Array.length args)
      (box_ret ret (Printf.sprintf "(%s) %s" expr (String.concat " " unboxed)))
  | _ -> Printf.sprintf "(%s)" expr

and box_ret ty expr = box ty expr

and unbox_fwd ty expr = unbox ty expr

and unbox ty expr =
  match Types.repr ty with
  | Types.Con ("Integer64", _) -> Printf.sprintf "(Wolf_runtime.Rtval.as_int %s)" expr
  | Types.Con ("Real64", _) -> Printf.sprintf "(Wolf_runtime.Rtval.as_real %s)" expr
  | Types.Con ("Boolean", _) -> Printf.sprintf "(Wolf_runtime.Rtval.as_bool %s)" expr
  | Types.Con ("String", _) -> Printf.sprintf "(Wolf_runtime.Rtval.as_str %s)" expr
  | Types.Con ("ComplexReal64", _) ->
    Printf.sprintf
      "(match %s with Wolf_runtime.Rtval.Complex (r_, i_) -> (r_, i_) | v_ -> (Wolf_runtime.Rtval.as_real v_, 0.0))"
      expr
  | Types.Con ("PackedArray", _) -> Printf.sprintf "(Wolf_runtime.Rtval.as_tensor %s)" expr
  | Types.Con ("Expression", _) -> Printf.sprintf "(Wolf_runtime.Rtval.to_expr %s)" expr
  | Types.Con ("Void", _) -> Printf.sprintf "(ignore %s)" expr
  | Types.Fun (args, ret) ->
    (* boxed closure -> typed closure: box arguments per call *)
    let params = Array.to_list (Array.mapi (fun i _ -> Printf.sprintf "_p%d" i) args) in
    let boxed =
      List.map2 (fun a p -> box a p) (Array.to_list args) params
    in
    Printf.sprintf
      "(let _f = Wolf_runtime.Rtval.as_fun %s in fun %s -> %s)"
      expr (String.concat " " params)
      (unbox ret (Printf.sprintf "(_f.call [| %s |])" (String.concat "; " boxed)))
  | _ -> Printf.sprintf "(%s)" expr

let float_lit r =
  if Float.is_nan r then "Float.nan"
  else if r = Float.infinity then "Float.infinity"
  else if r = Float.neg_infinity then "Float.neg_infinity"
  else begin
    let s = Printf.sprintf "%.17g" r in
    if String.contains s '.' || String.contains s 'e' then Printf.sprintf "(%s)" s
    else Printf.sprintf "(%s.)" s
  end

type ectx = {
  buf : Buffer.t;
  einline : bool;
  vars : (int, var) Hashtbl.t;
  mutable consts : (string * Rtval.t * Types.t) list;
  mutable const_count : int;
  mutable polls : (int * int) list;  (* (site, stride): module-level counters *)
  module_key : string;
  fn_names : (string, string) Hashtbl.t;   (* program name -> ocaml name *)
  prog : program;
}

let var_ty v =
  match v.vty with
  | Some t -> t
  | None -> Types.expression

let const_name ctx (rt : Rtval.t) ty =
  let key = Printf.sprintf "%s:const:%d" ctx.module_key ctx.const_count in
  let name = Printf.sprintf "k%d" ctx.const_count in
  ctx.const_count <- ctx.const_count + 1;
  ctx.consts <- (key, rt, ty) :: ctx.consts;
  (name, key)

(* operand -> OCaml expression of the operand's own type *)
let rec operand_expr ctx op =
  match op with
  | Ovar v -> Printf.sprintf "v%d" v.vid
  | Oconst Cvoid -> "()"
  | Oconst (Cint i) -> if i < 0 then Printf.sprintf "(%d)" i else string_of_int i
  | Oconst (Creal r) -> float_lit r
  | Oconst (Cbool b) -> string_of_bool b
  | Oconst (Cstr s) -> Printf.sprintf "%S" s
  | Oconst (Cexpr e) ->
    let rt = Rtval.of_expr e in
    let name, _key = const_named ctx rt (Wir.const_ty (Cexpr e)) in
    name

and const_named ctx rt ty = const_name ctx rt ty

let op_ty_of op =
  match op with
  | Ovar v -> var_ty v
  | Oconst c -> Wir.const_ty c

let as_int_expr ctx op =
  match Types.repr (op_ty_of op) with
  | Types.Con ("Integer64", _) -> operand_expr ctx op
  | _ -> Printf.sprintf "(int_of_float %s)" (operand_expr ctx op)

let as_real_expr ctx op =
  match Types.repr (op_ty_of op) with
  | Types.Con ("Real64", _) -> operand_expr ctx op
  | Types.Con ("Integer64", _) -> Printf.sprintf "(float_of_int %s)" (operand_expr ctx op)
  | _ -> operand_expr ctx op

(* Open-coded primitive call; None falls back to the boxed dispatcher. *)
let prim_expr ctx ~base ~(args : operand array) ~dst_ty : string option =
  let a i = operand_expr ctx args.(i) in
  let ri i = as_real_expr ctx args.(i) in
  let ii i = as_int_expr ctx args.(i) in
  let all_int =
    Array.for_all
      (fun o -> match Types.repr (op_ty_of o) with
         | Types.Con ("Integer64", _) -> true | _ -> false)
      args
  in
  let dst_is name =
    match Types.repr dst_ty with Types.Con (n, _) -> n = name | _ -> false
  in
  match base with
  | "checked_binary_plus" when all_int -> Some (Printf.sprintf "wolf_add %s %s" (a 0) (a 1))
  | "checked_binary_subtract" when all_int -> Some (Printf.sprintf "wolf_sub %s %s" (a 0) (a 1))
  | "checked_binary_times" when all_int -> Some (Printf.sprintf "wolf_mul %s %s" (a 0) (a 1))
  | "checked_binary_mod" when all_int -> Some (Printf.sprintf "wolf_mod %s %s" (a 0) (a 1))
  | "checked_binary_quotient" when all_int -> Some (Printf.sprintf "wolf_quotient %s %s" (a 0) (a 1))
  | "checked_binary_power" when all_int -> Some (Printf.sprintf "wolf_ipow %s %s" (a 0) (a 1))
  | "checked_unary_minus" -> Some (Printf.sprintf "wolf_neg %s" (a 0))
  | "checked_unary_abs" -> Some (Printf.sprintf "abs %s" (a 0))
  | "binary_plus" when dst_is "Real64" -> Some (Printf.sprintf "%s +. %s" (ri 0) (ri 1))
  | "binary_subtract" when dst_is "Real64" -> Some (Printf.sprintf "%s -. %s" (ri 0) (ri 1))
  | "binary_times" when dst_is "Real64" -> Some (Printf.sprintf "%s *. %s" (ri 0) (ri 1))
  | "binary_divide" when dst_is "Real64" -> Some (Printf.sprintf "%s /. %s" (ri 0) (ri 1))
  | "binary_power" when dst_is "Real64" -> Some (Printf.sprintf "Float.pow %s %s" (ri 0) (ri 1))
  | "binary_power_ri" when dst_is "Real64" ->
    (match args.(1) with
     | Oconst (Cint 2) -> Some (Printf.sprintf "(let x_ = %s in x_ *. x_)" (ri 0))
     | _ -> Some (Printf.sprintf "wolf_pow_ri %s %s" (ri 0) (ii 1)))
  | "unary_minus" when dst_is "Real64" -> Some (Printf.sprintf "-. %s" (ri 0))
  | "complex_binary_plus" when dst_is "ComplexReal64" ->
    Some (Printf.sprintf
            "(let (ar_, ai_) = %s in let (br_, bi_) = %s in (ar_ +. br_, ai_ +. bi_))"
            (a 0) (a 1))
  | "complex_binary_subtract" when dst_is "ComplexReal64" ->
    Some (Printf.sprintf
            "(let (ar_, ai_) = %s in let (br_, bi_) = %s in (ar_ -. br_, ai_ -. bi_))"
            (a 0) (a 1))
  | "complex_binary_times" when dst_is "ComplexReal64" ->
    Some (Printf.sprintf
            "(let (ar_, ai_) = %s in let (br_, bi_) = %s in \
             ((ar_ *. br_) -. (ai_ *. bi_), (ar_ *. bi_) +. (ai_ *. br_)))"
            (a 0) (a 1))
  | "complex_binary_power" when dst_is "ComplexReal64" ->
    (match args.(1) with
     | Oconst (Cint 2) ->
       Some (Printf.sprintf
               "(let (r_, i_) = %s in ((r_ *. r_) -. (i_ *. i_), 2.0 *. r_ *. i_))"
               (a 0))
     | _ -> None)
  | "complex_abs" when dst_is "Real64" ->
    Some (Printf.sprintf "(let (r_, i_) = %s in Float.hypot r_ i_)" (a 0))
  | "complex_re" when dst_is "Real64" -> Some (Printf.sprintf "(fst %s)" (a 0))
  | "complex_im" when dst_is "Real64" -> Some (Printf.sprintf "(snd %s)" (a 0))
  | "complex_make" when dst_is "ComplexReal64" ->
    Some (Printf.sprintf "(%s, %s)" (ri 0) (ri 1))
  | "unary_abs" when dst_is "Real64" -> Some (Printf.sprintf "Float.abs %s" (ri 0))
  | "binary_less" | "binary_greater" | "binary_less_equal" | "binary_greater_equal"
  | "binary_equal" | "binary_unequal" ->
    let op = match base with
      | "binary_less" -> "<" | "binary_greater" -> ">"
      | "binary_less_equal" -> "<=" | "binary_greater_equal" -> ">="
      | "binary_equal" -> "=" | _ -> "<>"
    in
    let t0 = Types.repr (op_ty_of args.(0)) and t1 = Types.repr (op_ty_of args.(1)) in
    (match t0, t1 with
     | Types.Con ("Integer64", _), Types.Con ("Integer64", _)
     | Types.Con ("Real64", _), Types.Con ("Real64", _)
     | Types.Con ("Boolean", _), Types.Con ("Boolean", _)
     | Types.Con ("String", _), Types.Con ("String", _) ->
       Some (Printf.sprintf "%s %s %s" (a 0) op (a 1))
     | (Types.Con (("Integer64" | "Real64"), _)), (Types.Con (("Integer64" | "Real64"), _)) ->
       Some (Printf.sprintf "%s %s %s" (ri 0) op (ri 1))
     | _ -> None)
  | "unary_not" -> Some (Printf.sprintf "not %s" (a 0))
  | "binary_bitand" -> Some (Printf.sprintf "%s land %s" (a 0) (a 1))
  | "binary_bitor" -> Some (Printf.sprintf "%s lor %s" (a 0) (a 1))
  | "binary_bitxor" -> Some (Printf.sprintf "%s lxor %s" (a 0) (a 1))
  | "binary_shiftleft" -> Some (Printf.sprintf "%s lsl %s" (a 0) (a 1))
  | "binary_shiftright" -> Some (Printf.sprintf "%s asr %s" (a 0) (a 1))
  | "unary_sin" -> Some (Printf.sprintf "sin %s" (ri 0))
  | "unary_cos" -> Some (Printf.sprintf "cos %s" (ri 0))
  | "unary_tan" -> Some (Printf.sprintf "tan %s" (ri 0))
  | "unary_exp" -> Some (Printf.sprintf "exp %s" (ri 0))
  | "unary_log" -> Some (Printf.sprintf "log %s" (ri 0))
  | "unary_sqrt" -> Some (Printf.sprintf "sqrt %s" (ri 0))
  | "unary_floor" -> Some (Printf.sprintf "int_of_float (Float.floor %s)" (ri 0))
  | "unary_ceiling" -> Some (Printf.sprintf "int_of_float (Float.ceil %s)" (ri 0))
  | "unary_round" -> Some (Printf.sprintf "Wolf_base.Checked.round_half_even %s" (ri 0))
  | "unary_truncate" -> Some (Printf.sprintf "int_of_float (Float.trunc %s)" (ri 0))
  | "int_to_real" -> Some (Printf.sprintf "float_of_int %s" (a 0))
  | "unary_identity_int" | "unary_identity_real" -> Some (a 0)
  | "binary_min" when all_int -> Some (Printf.sprintf "min %s %s" (a 0) (a 1))
  | "binary_max" when all_int -> Some (Printf.sprintf "max %s %s" (a 0) (a 1))
  | "binary_min" when dst_is "Real64" -> Some (Printf.sprintf "Float.min %s %s" (ri 0) (ri 1))
  | "binary_max" when dst_is "Real64" -> Some (Printf.sprintf "Float.max %s %s" (ri 0) (ri 1))
  | "unary_evenq" -> Some (Printf.sprintf "(%s land 1 = 0)" (a 0))
  | "unary_oddq" -> Some (Printf.sprintf "(%s land 1 = 1)" (a 0))
  | "unary_boole" -> Some (Printf.sprintf "(if %s then 1 else 0)" (a 0))
  | "string_length" -> Some (Printf.sprintf "String.length %s" (a 0))
  | "string_byte" -> Some (Printf.sprintf "wolf_string_byte %s %s" (a 0) (ii 1))
  | "string_byte_unchecked" ->
    Some (Printf.sprintf "Char.code (String.unsafe_get %s (%s - 1))" (a 0) (ii 1))
  | "string_join" -> Some (Printf.sprintf "%s ^ %s" (a 0) (a 1))
  | "array_length" -> Some (Printf.sprintf "(Wolf_wexpr.Tensor.dims %s).(0)" (a 0))
  | "part_get_1" when dst_is "Integer64" ->
    Some (Printf.sprintf "wolf_part1_int %s %s" (a 0) (ii 1))
  | "part_get_1" when dst_is "Real64" ->
    Some (Printf.sprintf "wolf_part1_real %s %s" (a 0) (ii 1))
  | "part_get_1_unchecked" when dst_is "Integer64" ->
    Some (Printf.sprintf "wolf_iread %s (%s - 1)" (a 0) (ii 1))
  | "part_get_1_unchecked" when dst_is "Real64" ->
    Some (Printf.sprintf "wolf_rread %s (%s - 1)" (a 0) (ii 1))
  | "part_get_2" when dst_is "Integer64" ->
    Some (Printf.sprintf "(wolf_part2_int %s %s %s)" (a 0) (ii 1) (ii 2))
  | "part_get_2" when dst_is "Real64" ->
    Some (Printf.sprintf "(wolf_part2_real %s %s %s)" (a 0) (ii 1) (ii 2))
  | "part_set_1" | "part_set_1_inplace" ->
    let inplace = if base = "part_set_1_inplace" then "true" else "false" in
    (match Types.repr (op_ty_of args.(2)) with
     | Types.Con ("Integer64", _) ->
       Some (Printf.sprintf "(wolf_set1_int ~inplace:%s %s %s %s)" inplace (a 0) (ii 1) (a 2))
     | Types.Con ("Real64", _) ->
       Some (Printf.sprintf "(wolf_set1_real ~inplace:%s %s %s %s)" inplace (a 0) (ii 1) (ri 2))
     | _ -> None)
  | "part_set_2" | "part_set_2_inplace" ->
    let inplace = if base = "part_set_2_inplace" then "true" else "false" in
    (match Types.repr (op_ty_of args.(3)) with
     | Types.Con ("Integer64", _) ->
       Some (Printf.sprintf "(wolf_set2_int ~inplace:%s %s %s %s %s)" inplace (a 0) (ii 1) (ii 2) (a 3))
     | Types.Con ("Real64", _) ->
       Some (Printf.sprintf "(wolf_set2_real ~inplace:%s %s %s %s %s)" inplace (a 0) (ii 1) (ii 2) (ri 3))
     | _ -> None)
  | _ -> None

let prelude = {|
(* generated by the Wolfram compiler OCaml backend *)
[@@@warning "-a"]

exception Wolf_rt = Wolf_base.Errors.Runtime_error

let[@inline always] wolf_add a b =
  let s = a + b in
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then
    raise (Wolf_rt Wolf_base.Errors.Integer_overflow)
  else s

let[@inline always] wolf_sub a b =
  let s = a - b in
  if (a >= 0) <> (b >= 0) && (s >= 0) <> (a >= 0) then
    raise (Wolf_rt Wolf_base.Errors.Integer_overflow)
  else s

let[@inline always] wolf_mul a b =
  if a = 0 || b = 0 then 0
  else begin
    let p = a * b in
    if p / b <> a || (a = -1 && b = min_int) || (b = -1 && a = min_int) then
      raise (Wolf_rt Wolf_base.Errors.Integer_overflow)
    else p
  end

let[@inline always] wolf_mod a b =
  if b = 0 then raise (Wolf_rt Wolf_base.Errors.Division_by_zero)
  else begin
    let r = a mod b in
    if r <> 0 && (r < 0) <> (b < 0) then r + b else r
  end

let[@inline always] wolf_quotient a b =
  if b = 0 then raise (Wolf_rt Wolf_base.Errors.Division_by_zero)
  else if a = min_int && b = -1 then raise (Wolf_rt Wolf_base.Errors.Integer_overflow)
  else begin
    let q = a / b in
    if (a < 0) <> (b < 0) && a mod b <> 0 then q - 1 else q
  end

let[@inline always] wolf_neg a =
  if a = min_int then raise (Wolf_rt Wolf_base.Errors.Integer_overflow) else -a

let wolf_ipow b e = Wolf_base.Checked.pow b e

let wolf_pow_ri x e =
  let rec go acc x e =
    if e = 0 then acc else go (if e land 1 = 1 then acc *. x else acc) (x *. x) (e lsr 1)
  in
  if e >= 0 then go 1.0 x e else 1.0 /. go 1.0 x (-e)

let[@inline always] wolf_string_byte s i =
  let n = String.length s in
  let j = if i < 0 then n + i else i - 1 in
  if j < 0 || j >= n then
    raise (Wolf_rt (Wolf_base.Errors.Part_out_of_range (i, n)));
  Char.code (String.unsafe_get s j)

(* Packed arrays: element access open-coded over the private representation
   so the JIT competes with hand-written loops (no cross-module calls). *)
let[@inline always] wolf_index1 (t : Wolf_wexpr.Tensor.t) i =
  let n = Array.unsafe_get t.Wolf_wexpr.Tensor.dims 0 in
  let j = if i < 0 then n + i else i - 1 in
  if i = 0 || j < 0 || j >= n then
    raise (Wolf_rt (Wolf_base.Errors.Part_out_of_range (i, n)));
  j

let[@inline always] wolf_flat2 (t : Wolf_wexpr.Tensor.t) i k =
  let dims = t.Wolf_wexpr.Tensor.dims in
  let n = Array.unsafe_get dims 0 and m = Array.unsafe_get dims 1 in
  let j1 = if i < 0 then n + i else i - 1 in
  let j2 = if k < 0 then m + k else k - 1 in
  if i = 0 || j1 < 0 || j1 >= n then
    raise (Wolf_rt (Wolf_base.Errors.Part_out_of_range (i, n)));
  if k = 0 || j2 < 0 || j2 >= m then
    raise (Wolf_rt (Wolf_base.Errors.Part_out_of_range (k, m)));
  (j1 * m) + j2

let[@inline always] wolf_iread (t : Wolf_wexpr.Tensor.t) j =
  match t.Wolf_wexpr.Tensor.data with
  | Wolf_wexpr.Tensor.Ints a -> Array.unsafe_get a j
  | Wolf_wexpr.Tensor.Reals a -> int_of_float (Array.unsafe_get a j)

let[@inline always] wolf_rread (t : Wolf_wexpr.Tensor.t) j =
  match t.Wolf_wexpr.Tensor.data with
  | Wolf_wexpr.Tensor.Reals a -> Array.unsafe_get a j
  | Wolf_wexpr.Tensor.Ints a -> float_of_int (Array.unsafe_get a j)

let[@inline always] wolf_iwrite (t : Wolf_wexpr.Tensor.t) j v =
  match t.Wolf_wexpr.Tensor.data with
  | Wolf_wexpr.Tensor.Ints a -> Array.unsafe_set a j v
  | Wolf_wexpr.Tensor.Reals a -> Array.unsafe_set a j (float_of_int v)

let[@inline always] wolf_rwrite (t : Wolf_wexpr.Tensor.t) j v =
  match t.Wolf_wexpr.Tensor.data with
  | Wolf_wexpr.Tensor.Reals a -> Array.unsafe_set a j v
  | Wolf_wexpr.Tensor.Ints a -> Array.unsafe_set a j (int_of_float v)

let[@inline always] wolf_part1_int t i = wolf_iread t (wolf_index1 t i)
let[@inline always] wolf_part1_real t i = wolf_rread t (wolf_index1 t i)
let[@inline always] wolf_part2_int t i k = wolf_iread t (wolf_flat2 t i k)
let[@inline always] wolf_part2_real t i k = wolf_rread t (wolf_flat2 t i k)

let[@inline always] wolf_cow ~inplace (t : Wolf_wexpr.Tensor.t) =
  if inplace || t.Wolf_wexpr.Tensor.refcount <= 1 then t
  else Wolf_wexpr.Tensor.ensure_unique t

let[@inline always] wolf_set1_int ~inplace t i v =
  let t = wolf_cow ~inplace t in
  wolf_iwrite t (wolf_index1 t i) v; t

let[@inline always] wolf_set1_real ~inplace t i v =
  let t = wolf_cow ~inplace t in
  wolf_rwrite t (wolf_index1 t i) v; t

let[@inline always] wolf_set2_int ~inplace t i k v =
  let t = wolf_cow ~inplace t in
  wolf_iwrite t (wolf_flat2 t i k) v; t

let[@inline always] wolf_set2_real ~inplace t i k v =
  let t = wolf_cow ~inplace t in
  wolf_rwrite t (wolf_flat2 t i k) v; t

(* Abort_signal.check written out: plugins see only .cmi files, so the
   call would not be inlined across the module boundary *)
let[@inline always] wolf_abort_check () =
  if Atomic.get Wolf_base.Abort_signal.state <> 0 then
    Wolf_base.Abort_signal.slow ()
|}

let fn_ocaml_name ctx name =
  match Hashtbl.find_opt ctx.fn_names name with
  | Some n -> n
  | None ->
    let base = "fn_" ^ sanitize name in
    let unique =
      if Hashtbl.fold (fun _ v acc -> acc || v = base) ctx.fn_names false then
        Printf.sprintf "%s_%d" base (Hashtbl.length ctx.fn_names)
      else base
    in
    Hashtbl.replace ctx.fn_names name unique;
    unique

let boxed_prim_call ctx ~base ~args ~dst_ty =
  let boxed_args =
    Array.to_list args
    |> List.map (fun o -> box (op_ty_of o) (operand_expr ctx o))
  in
  unbox dst_ty
    (Printf.sprintf "(Wolf_runtime.Prims.apply ~base:%S [| %s |])" base
       (String.concat "; " boxed_args))

let emit_instr ctx b i =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b ("      " ^ s ^ "\n")) fmt in
  match i with
  | Load_argument _ -> ()
  | Abort_check -> line "let () = wolf_abort_check () in"
  | Abort_poll { stride; site } ->
    if not (List.mem_assoc site ctx.polls) then ctx.polls <- (site, stride) :: ctx.polls;
    line "let () = decr wolf_poll_%d in" site;
    line "let () = if !wolf_poll_%d <= 0 then (wolf_poll_%d := %d; wolf_abort_check ()) in"
      site site stride
  | Copy { dst; src } | Copy_value { dst; src } ->
    line "let v%d : %s = %s in" dst.vid (ocaml_ty (var_ty dst)) (operand_expr ctx src)
  | Mem_acquire op ->
    (match Types.repr (op_ty_of op) with
     | Types.Con ("PackedArray", _) ->
       line "let () = Wolf_wexpr.Tensor.acquire %s in" (operand_expr ctx op)
     | _ -> ())
  | Mem_release op ->
    (match Types.repr (op_ty_of op) with
     | Types.Con ("PackedArray", _) ->
       line "let () = Wolf_wexpr.Tensor.release %s in" (operand_expr ctx op)
     | _ -> ())
  | Kernel_call { dst; head; args } ->
    let hname, _ = const_named ctx (Rtval.Expr head) Types.expression in
    let arg_exprs =
      Array.to_list args
      |> List.map (fun o ->
          Printf.sprintf "Wolf_runtime.Rtval.to_expr %s" (box (op_ty_of o) (operand_expr ctx o)))
    in
    line "let v%d : Wolf_wexpr.Expr.t = Wolf_runtime.Hooks.eval (Wolf_wexpr.Expr.Normal (%s, [| %s |])) in"
      dst.vid hname (String.concat "; " arg_exprs)
  | New_closure { dst; fname; captured } ->
    (match Wir.find_func ctx.prog fname with
     | None -> invalid_arg ("ocaml_emit: missing closure target " ^ fname)
     | Some lifted ->
       let ncap = Array.length captured in
       let nargs = Array.length lifted.fparams - ncap in
       let caps = Array.to_list (Array.map (operand_expr ctx) captured) in
       let params = List.init nargs (fun k -> Printf.sprintf "_p%d" k) in
       line "let v%d : %s = (fun %s -> %s %s) in" dst.vid (ocaml_ty (var_ty dst))
         (if params = [] then "()" else String.concat " " params)
         (fn_ocaml_name ctx fname)
         (String.concat " " (caps @ params)))
  | Call { dst; callee = Func name; args } ->
    line "let v%d : %s = %s %s in" dst.vid (ocaml_ty (var_ty dst))
      (fn_ocaml_name ctx name)
      (if Array.length args = 0 then "()"
       else String.concat " "
           (Array.to_list (Array.map (fun o -> operand_expr ctx o) args)))
  | Call { dst; callee = Indirect fop; args } ->
    line "let v%d : %s = %s %s in" dst.vid (ocaml_ty (var_ty dst))
      (operand_expr ctx fop)
      (if Array.length args = 0 then "()"
       else String.concat " " (Array.to_list (Array.map (operand_expr ctx) args)))
  | Call { dst; callee = Resolved { base; _ }; args } ->
    let body =
      match (if ctx.einline then prim_expr ctx ~base ~args ~dst_ty:(var_ty dst) else None) with
      | Some s -> s
      | None -> boxed_prim_call ctx ~base ~args ~dst_ty:(var_ty dst)
    in
    line "let v%d : %s = %s in" dst.vid (ocaml_ty (var_ty dst)) body
  | Call { callee = Prim name; _ } ->
    invalid_arg ("ocaml_emit: unresolved primitive " ^ name)

let emit_func ctx (f : func) ~first =
  let b = ctx.buf in
  let live_in = Analysis.live_in f in
  let fparam_ids = Hashtbl.create 8 in
  Array.iter (fun v -> Hashtbl.replace fparam_ids v.vid ()) f.fparams;
  let block_extra bl =
    (* Live-in variables become extra leading parameters, sorted by id.
       Function parameters are lexically in scope inside every block
       function, so threading them would only lengthen the knot's argument
       lists (pushing hot loops past the native tail-call register limit). *)
    Hashtbl.fold (fun vid () acc -> vid :: acc) (Hashtbl.find live_in bl.label) []
    |> List.filter (fun vid -> not (Hashtbl.mem fparam_ids vid))
    |> List.sort compare
    |> List.map (fun vid -> Hashtbl.find ctx.vars vid)
  in
  let fname = fn_ocaml_name ctx f.fname in
  let params =
    if Array.length f.fparams = 0 then "()"
    else
      String.concat " "
        (Array.to_list
           (Array.map
              (fun v -> Printf.sprintf "(v%d : %s)" v.vid (ocaml_ty (var_ty v)))
              f.fparams))
  in
  let ret = match f.ret_ty with Some t -> ocaml_ty t | None -> "Wolf_runtime.Rtval.t" in
  Buffer.add_string b
    (Printf.sprintf "%s %s %s : %s =\n" (if first then "let rec" else "and") fname params ret);
  (* blocks as mutually recursive local functions *)
  let jump_call (j : jump) =
    let tgt = Wir.find_block f j.target in
    let extra = block_extra tgt in
    let args =
      List.map (fun v -> Printf.sprintf "v%d" v.vid) extra
      @ Array.to_list (Array.map (operand_expr ctx) j.jargs)
    in
    if args = [] then Printf.sprintf "blk%d ()" j.target
    else Printf.sprintf "blk%d %s" j.target (String.concat " " args)
  in
  List.iteri
    (fun bi bl ->
       let extra = block_extra bl in
       let params =
         List.map (fun v -> Printf.sprintf "(v%d : %s)" v.vid (ocaml_ty (var_ty v))) extra
         @ Array.to_list
             (Array.map
                (fun v -> Printf.sprintf "(v%d : %s)" v.vid (ocaml_ty (var_ty v)))
                bl.bparams)
       in
       let header =
         Printf.sprintf "  %s blk%d %s =\n"
           (if bi = 0 then "let rec" else "and")
           bl.label
           (if params = [] then "()" else String.concat " " params)
       in
       Buffer.add_string b header;
       List.iter (emit_instr ctx b) bl.instrs;
       let term =
         match bl.term with
         | Return op -> Printf.sprintf "      %s\n" (operand_expr ctx op)
         | Jump j -> Printf.sprintf "      %s\n" (jump_call j)
         | Branch { cond; if_true; if_false } ->
           Printf.sprintf "      if %s then %s else %s\n" (operand_expr ctx cond)
             (jump_call if_true) (jump_call if_false)
         | Unreachable -> "      assert false\n"
       in
       Buffer.add_string b term)
    f.blocks;
  let entry_label = (Wir.entry f).label in
  Buffer.add_string b (Printf.sprintf "  in blk%d ()\n\n" entry_label)

let emit ~module_name (c : Pipeline.compiled) =
  let prog = c.Pipeline.program in
  let ctx =
    {
      buf = Buffer.create 4096;
      einline = c.Pipeline.coptions.Wolf_compiler.Options.inline_level > 0;
      vars = Hashtbl.create 128;
      consts = [];
      const_count = 0;
      polls = [];
      module_key = module_name;
      fn_names = Hashtbl.create 8;
      prog;
    }
  in
  List.iter (fun f -> Wir.iter_vars f (fun v -> Hashtbl.replace ctx.vars v.vid v)) prog.funcs;
  Buffer.add_string ctx.buf prelude;
  (* constants are registered in Wolf_plugin by the host before loading;
     emitted below as module-level lets after function emission (we only know
     them then), so functions go into a second buffer *)
  let fnbuf = Buffer.create 4096 in
  let fctx = { ctx with buf = fnbuf } in
  List.iteri (fun i f -> emit_func fctx f ~first:(i = 0)) prog.funcs;
  ctx.consts <- fctx.consts;
  ctx.const_count <- fctx.const_count;
  ctx.polls <- fctx.polls;
  (* module-level poll counters: persist across calls like the threaded
     backend's per-site refs *)
  List.iter
    (fun (site, stride) ->
       Buffer.add_string ctx.buf (Printf.sprintf "let wolf_poll_%d = ref %d\n" site stride))
    (List.rev ctx.polls);
  (* constant bindings, in creation order so names match k{n} references *)
  List.iteri
    (fun i (key, _, ty) ->
       let fetch =
         Printf.sprintf "((Obj.obj (Option.get (Wolf_plugin.lookup %S))) : Wolf_runtime.Rtval.t)" key
       in
       Buffer.add_string ctx.buf
         (Printf.sprintf "let k%d : %s = %s\n" i (ocaml_ty ty) (unbox ty fetch)))
    (List.rev ctx.consts);
  Buffer.add_string ctx.buf "\n";
  Buffer.add_buffer ctx.buf fnbuf;
  (* entry wrapper *)
  let main = Wir.main prog in
  let entry_symbol = Printf.sprintf "%s:entry" module_name in
  let unboxed_args =
    Array.to_list
      (Array.mapi (fun i v -> unbox (var_ty v) (Printf.sprintf "_args.(%d)" i)) main.fparams)
  in
  let ret_ty = match main.ret_ty with Some t -> t | None -> Types.expression in
  Buffer.add_string ctx.buf
    (Printf.sprintf
       "let () =\n  Wolf_plugin.register %S\n    (Obj.repr (fun (_args : Wolf_runtime.Rtval.t array) : Wolf_runtime.Rtval.t ->\n      %s))\n"
       entry_symbol
       (box ret_ty
          (Printf.sprintf "%s %s" (fn_ocaml_name ctx main.fname)
             (if unboxed_args = [] then "()" else String.concat " " unboxed_args))));
  {
    source = Buffer.contents ctx.buf;
    entry_symbol;
    constants = List.rev_map (fun (k, rt, _) -> (k, rt)) ctx.consts |> List.rev;
  }
