open Wolf_runtime
open Wolf_compiler
open Wir

type emitted = {
  source : string;
  entry_symbol : string;
  constants : (string * Rtval.t) list;
  loops : (string * int) list;
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
    let unboxed =
      List.mapi (fun i a -> unbox a (Printf.sprintf "_a.(%d)" i))
        (Array.to_list args)
    in
    Printf.sprintf
      "(Wolf_runtime.Rtval.Fun { arity = %d; call = (fun _a -> %s) })"
      (Array.length args)
      (box ret (Printf.sprintf "(%s) %s" expr (String.concat " " unboxed)))
  | _ -> Printf.sprintf "(%s)" expr

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
  prims : (string, unit) Hashtbl.t;  (* boxed primitives, bound at module top *)
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
let operand_expr ctx op =
  match op with
  | Ovar v -> Printf.sprintf "v%d" v.vid
  | Oconst Cvoid -> "()"
  | Oconst (Cint i) -> if i < 0 then Printf.sprintf "(%d)" i else string_of_int i
  | Oconst (Creal r) -> float_lit r
  | Oconst (Cbool b) -> string_of_bool b
  | Oconst (Cstr s) -> Printf.sprintf "%S" s
  | Oconst (Cexpr e) -> fst (const_name ctx (Rtval.of_expr e) (Wir.const_ty (Cexpr e)))

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

module IS = Set.Make (Int)

(* Typed array views.  A PackedArray[Integer64|Real64, r] tensor whose
   elements the code reads or stores is accessed through its view: its data
   array (<t>_a) and dims (<t>_d<k>), bound once as locals wherever the
   tensor is bound.  Projecting the data array checks the element type and
   the rank; on a mismatch it raises, so the call falls back softly to the
   interpreter, and an element access is a plain unsafe_get or unsafe_set. *)
type vkind = Vints | Vreals

let view_shape ty =
  match Types.repr ty with
  | Types.Con ("PackedArray", [| elt; rank |]) ->
    (match Types.repr elt, Types.repr rank with
     | Types.Con ("Integer64", _), Types.Lit ((1 | 2) as r) -> Some (Vints, r)
     | Types.Con ("Real64", _), Types.Lit ((1 | 2) as r) -> Some (Vreals, r)
     | _ -> None)
  | _ -> None

(* (local, projection) for each local of the view of tensor [t]; the data
   array comes first, so the rank is checked before a dim is read *)
let view_parts (kind, r) t =
  let data = match kind with Vints -> "wolf_ints" | Vreals -> "wolf_reals" in
  (t ^ "_a", Printf.sprintf "(%s %s %d)" data t r)
  :: List.init r (fun k -> (Printf.sprintf "%s_d%d" t k, Printf.sprintf "(wolf_dim %s %d)" t k))

let view_locals shape t = List.map fst (view_parts shape t)

let int_lit i = if i < 0 then Printf.sprintf "(%d)" i else string_of_int i

(* Checked [x * c] for a literal [c]: a range test on [x] against bounds
   computed here replaces [wolf_mul]'s division.  [max_int / c] and
   [min_int / c] truncate toward zero, which is the floor of the upper bound
   and the ceiling of the lower one for either sign of [c]. *)
let mul_const x c =
  if c = 0 then "0"
  else if c = 1 then x
  else if c = -1 then Printf.sprintf "wolf_neg %s" x
  else begin
    let b1 = max_int / c and b2 = min_int / c in
    Printf.sprintf
      "(let m_ = %s in if m_ < %s || m_ > %s then raise (Wolf_rt Wolf_base.Errors.Integer_overflow) else m_ * %s)"
      x (int_lit (min b1 b2)) (int_lit (max b1 b2)) (int_lit c)
  end

(* Checked [x + c] for a literal [c]: one comparison against a bound
   computed here. *)
let add_const x c =
  if c = 0 then x
  else if c > 0 then
    Printf.sprintf
      "(let m_ = %s in if m_ > %s then raise (Wolf_rt Wolf_base.Errors.Integer_overflow) else m_ + %s)"
      x (int_lit (max_int - c)) (int_lit c)
  else
    Printf.sprintf
      "(let m_ = %s in if m_ < %s then raise (Wolf_rt Wolf_base.Errors.Integer_overflow) else m_ + %s)"
      x (int_lit (min_int - c)) (int_lit c)

(* A row's op, open-coded on the operand kinds and literal operands of one
   call; None falls back to the boxed dispatcher. *)
let prim_expr ctx (op : Prims.op) ~(args : operand array) ~dst_ty : string option =
  let a i = operand_expr ctx args.(i) in
  let ri i = as_real_expr ctx args.(i) in
  let ii i = as_int_expr ctx args.(i) in
  let name t = match Types.repr t with Types.Con (n, _) -> n | _ -> "" in
  let kind o = name (op_ty_of o) in
  let all_int = Array.for_all (fun o -> kind o = "Integer64") args in
  let real = name dst_ty = "Real64" and complex = name dst_ty = "ComplexReal64" in
  let sp = Printf.sprintf in
  let infix = function Prims.Add -> "+" | Sub -> "-" | _ -> "*" in
  let min_max f = if f = Prims.Min then "min" else "max" in
  let pair f = sp "(let (ar_, ai_) = %s in let (br_, bi_) = %s in %s)" (a 0) (a 1) f in
  match op with
  | Checked Add when all_int ->
    (match args.(0), args.(1) with
     | _, Oconst (Cint c) -> Some (add_const (a 0) c)
     | Oconst (Cint c), _ -> Some (add_const (a 1) c)
     | _ -> Some (sp "wolf_add %s %s" (a 0) (a 1)))
  | Checked Sub when all_int ->
    (match args.(1) with
     | Oconst (Cint c) when c <> min_int -> Some (add_const (a 0) (-c))
     | _ -> Some (sp "wolf_sub %s %s" (a 0) (a 1)))
  | Checked Mul when all_int ->
    (match args.(0), args.(1) with
     | _, Oconst (Cint c) -> Some (mul_const (a 0) c)
     | Oconst (Cint c), _ -> Some (mul_const (a 1) c)
     | _ -> Some (sp "wolf_mul %s %s" (a 0) (a 1)))
  | Checked Mod when all_int -> Some (sp "wolf_mod %s %s" (a 0) (a 1))
  | Checked Quotient when all_int -> Some (sp "wolf_quotient %s %s" (a 0) (a 1))
  | Checked Pow when all_int -> Some (sp "Wolf_base.Checked.pow %s %s" (a 0) (a 1))
  | Checked Neg -> Some (sp "wolf_neg %s" (a 0))
  | Checked Abs -> Some (sp "wolf_abs %s" (a 0))
  (* a checked op the range analysis proved in range *)
  | Machine (Add | Sub | Mul as f) when all_int -> Some (sp "%s %s %s" (a 0) (infix f) (a 1))
  | Machine (Add | Sub | Mul as f) when real -> Some (sp "%s %s. %s" (ri 0) (infix f) (ri 1))
  | Machine Div when real ->
    (* the row raises on a zero divisor; a non-zero literal needs no test *)
    (match args.(1) with
     | Oconst (Creal d) when d <> 0.0 -> Some (sp "%s /. %s" (ri 0) (ri 1))
     | Oconst (Cint c) when c <> 0 -> Some (sp "%s /. %s" (ri 0) (ri 1))
     | _ -> Some (sp "wolf_fdiv %s %s" (ri 0) (ri 1)))
  | Machine Pow when real -> Some (sp "Float.pow %s %s" (ri 0) (ri 1))
  | Machine Neg when real -> Some (sp "-. %s" (ri 0))
  | Machine Abs when real -> Some (sp "Float.abs %s" (ri 0))
  | Machine (Min | Max as f) when all_int -> Some (sp "wolf_i%s %s %s" (min_max f) (a 0) (a 1))
  | Machine (Min | Max as f) when real -> Some (sp "Float.%s %s %s" (min_max f) (ri 0) (ri 1))
  | Power_ri when real ->
    (match args.(1) with
     | Oconst (Cint 2) -> Some (sp "(let x_ = %s in x_ *. x_)" (ri 0))
     | _ -> Some (sp "Wolf_runtime.Prims.pow_ri %s %s" (ri 0) (ii 1)))
  | Complex_arith (Add | Sub as f) when complex ->
    Some (pair (sp "(ar_ %s. br_, ai_ %s. bi_)" (infix f) (infix f)))
  | Complex_arith Mul when complex ->
    Some (pair "((ar_ *. br_) -. (ai_ *. bi_), (ar_ *. bi_) +. (ai_ *. br_))")
  | Complex_arith Pow when complex && args.(1) = Oconst (Cint 2) ->
    Some (sp "(let (r_, i_) = %s in ((r_ *. r_) -. (i_ *. i_), 2.0 *. r_ *. i_))" (a 0))
  | Complex_arith Abs when real -> Some (sp "(let (r_, i_) = %s in Float.hypot r_ i_)" (a 0))
  | Re when real -> Some (sp "(fst %s)" (a 0))
  | Im when real -> Some (sp "(snd %s)" (a 0))
  | Make_complex when complex -> Some (sp "(%s, %s)" (ri 0) (ri 1))
  | Cmp c ->
    let o = match c with Lt -> "<" | Gt -> ">" | Le -> "<=" | Ge -> ">=" | Eq -> "=" | Ne -> "<>" in
    (match kind args.(0), kind args.(1) with
     | ("Integer64" | "Real64" | "Boolean" | "String" as k0), k1 when k0 = k1 ->
       Some (sp "%s %s %s" (a 0) o (a 1))
     | ("Integer64" | "Real64"), ("Integer64" | "Real64") -> Some (sp "%s %s %s" (ri 0) o (ri 1))
     | _ -> None)
  | Not -> Some (sp "not %s" (a 0))
  | Bit b ->
    let o = match b with And -> "land" | Or -> "lor" | Xor -> "lxor" | Shift_left -> "lsl" | Shift_right -> "asr" in
    Some (sp "%s %s %s" (a 0) o (a 1))
  | Libm f -> Some (sp "%s %s" (Prims.libm_name f) (ri 0))
  | To_int f -> Some (sp "int_of_float (Float.%s %s)" (Prims.libm_name f) (ri 0))
  | Round -> Some (sp "Wolf_base.Checked.round_half_even %s" (ri 0))
  | To_real -> Some (sp "float_of_int %s" (a 0))
  | Identity -> Some (a 0)
  | Even -> Some (sp "(%s land 1 = 0)" (a 0))
  | Odd -> Some (sp "(%s land 1 = 1)" (a 0))
  | Boole -> Some (sp "(if %s then 1 else 0)" (a 0))
  | String_length -> Some (sp "String.length %s" (a 0))
  | String_byte { checked = true } -> Some (sp "wolf_string_byte %s %s" (a 0) (ii 1))
  | String_byte { checked = false } -> Some (sp "Char.code (String.unsafe_get %s (%s - 1))" (a 0) (ii 1))
  | String_join -> Some (sp "%s ^ %s" (a 0) (a 1))
  | Length -> Some (sp "(Wolf_wexpr.Tensor.dims %s).(0)" (a 0))
  | Dim -> Some (sp "(Wolf_wexpr.Tensor.dims %s).(%s - 1)" (a 0) (ii 1))
  | Checked _ | Machine _ | Power_ri | Complex_arith _ | Re | Im | Make_complex | Part_get _
  | Part_set _ | Total | Reverse | Take | Append | Join | Range | Constant_array | To_codes ->
    None

let prelude = {|
(* generated by the Wolfram compiler OCaml backend *)
[@@@warning "-a"]

exception Wolf_rt = Wolf_base.Errors.Runtime_error

(* overflow iff both operands differ in sign from the wrapped sum (for a
   difference: the operands differ in sign and the result differs from a) *)
let[@inline always] wolf_add (a : int) b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then
    raise (Wolf_rt Wolf_base.Errors.Integer_overflow)
  else s

let[@inline always] wolf_sub (a : int) b =
  let s = a - b in
  if (a lxor b) land (a lxor s) < 0 then
    raise (Wolf_rt Wolf_base.Errors.Integer_overflow)
  else s

let[@inline always] wolf_imin (a : int) b = if a <= b then a else b
let[@inline always] wolf_imax (a : int) b = if a >= b then a else b

let[@inline never] wolf_mul_exact a b =
  if a = 0 || b = 0 then 0
  else begin
    let p = a * b in
    if p / b <> a || (a = -1 && b = min_int) || (b = -1 && a = min_int) then
      raise (Wolf_rt Wolf_base.Errors.Integer_overflow)
    else p
  end

(* operands in [-2^30, 2^30) cannot overflow: one test, no division *)
let[@inline always] wolf_mul a b =
  if ((a + 0x4000_0000) lor (b + 0x4000_0000)) lsr 31 = 0 then a * b else wolf_mul_exact a b

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

let[@inline always] wolf_fdiv (a : float) b =
  if b = 0.0 then raise (Wolf_rt Wolf_base.Errors.Division_by_zero) else a /. b

let[@inline always] wolf_neg a =
  if a = min_int then raise (Wolf_rt Wolf_base.Errors.Integer_overflow) else -a

let[@inline always] wolf_abs a =
  if a = min_int then raise (Wolf_rt Wolf_base.Errors.Integer_overflow) else abs a

let[@inline always] wolf_string_byte s i =
  let n = String.length s in
  let j = if i < 0 then n + i else i - 1 in
  if j < 0 || j >= n then
    raise (Wolf_rt (Wolf_base.Errors.Part_out_of_range (i, n)));
  Char.code (String.unsafe_get s j)

(* Packed arrays.  Wolfram Part indexing of one axis of length [n], and of
   a rank-2 array of dims [n; m], flat and 0-based: the common case
   1 <= i <= n in one test (both i - 1 and n - i are non-negative; a
   wrapped difference is negative).  The other cases raise in line rather
   than call out: a call would make ocamlopt spill the loop's live values
   on the hot path. *)
let[@inline always] wolf_vindex1 n i =
  let j = i - 1 in
  if j lor (n - i) >= 0 then j
  else begin
    let j = n + i in
    if i < 0 && j >= 0 then j
    else raise (Wolf_rt (Wolf_base.Errors.Part_out_of_range (i, n)))
  end

(* typed views: projected once per binding of a tensor variable; a tensor
   whose element type or rank is not the view's raises *)
let[@inline always] wolf_ints (t : Wolf_wexpr.Tensor.t) r =
  match t.Wolf_wexpr.Tensor.data with
  | Wolf_wexpr.Tensor.Ints a when Array.length t.Wolf_wexpr.Tensor.dims = r -> a
  | _ -> Wolf_runtime.Prims.view_mismatch ()

let[@inline always] wolf_reals (t : Wolf_wexpr.Tensor.t) r =
  match t.Wolf_wexpr.Tensor.data with
  | Wolf_wexpr.Tensor.Reals a when Array.length t.Wolf_wexpr.Tensor.dims = r -> a
  | _ -> Wolf_runtime.Prims.view_mismatch ()

let[@inline always] wolf_dim (t : Wolf_wexpr.Tensor.t) k = Array.unsafe_get t.Wolf_wexpr.Tensor.dims k

let[@inline always] wolf_cow (t : Wolf_wexpr.Tensor.t) =
  if t.Wolf_wexpr.Tensor.refcount <= 1 then t
  else Wolf_wexpr.Tensor.ensure_unique t

(* Abort_signal.check written out: plugins see only .cmi files, so the
   call would not be inlined across the module boundary *)
let[@inline always] wolf_abort_check () =
  if Atomic.get Wolf_base.Abort_signal.state <> 0 then
    Wolf_base.Abort_signal.slow ()
|}

(* The prelude goes out pruned to the definitions the module uses (and the
   ones those use): compiling unused helpers was most of ocamlopt's time on
   a small module.  A paragraph of [prelude] defines the names of its [let]
   lines; one that defines none is always kept. *)
let is_ident c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

(* the [wolf_...] identifiers in [s], in order *)
let helper_refs s =
  let n = String.length s in
  let rec go i acc =
    match String.index_from_opt s i 'w' with
    | None -> List.rev acc
    | Some j when j + 5 <= n && String.sub s j 5 = "wolf_" && (j = 0 || not (is_ident s.[j - 1])) ->
      let k = ref (j + 5) in
      while !k < n && is_ident s.[!k] do incr k done;
      go !k (String.sub s j (!k - j) :: acc)
    | Some j -> go (j + 1) acc
  in
  go 0 []

(* the blank-line separated paragraphs of [s] *)
let paragraphs s =
  let close cur acc = if cur = [] then acc else String.concat "\n" (List.rev cur) :: acc in
  let cur, acc =
    List.fold_left
      (fun (cur, acc) line -> if String.trim line = "" then ([], close cur acc) else (line :: cur, acc))
      ([], []) (String.split_on_char '\n' s)
  in
  List.rev (close cur acc)

let prelude_items =
  List.map
    (fun para ->
       let defs =
         String.split_on_char '\n' para
         |> List.filter_map (fun line ->
             if String.starts_with ~prefix:"let" line then List.nth_opt (helper_refs line) 0 else None)
       in
       (para, defs, helper_refs para))
    (paragraphs prelude)

let prelude_for code =
  let used = Hashtbl.create 32 in
  let rec use name =
    if not (Hashtbl.mem used name) then begin
      Hashtbl.replace used name ();
      List.iter (fun (_, defs, refs) -> if List.mem name defs then List.iter use refs) prelude_items
    end
  in
  List.iter use (helper_refs code);
  String.concat "\n\n"
    (List.filter_map
       (fun (para, defs, _) -> if defs = [] || List.exists (Hashtbl.mem used) defs then Some para else None)
       prelude_items)

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
  Hashtbl.replace ctx.prims base ();
  unbox dst_ty
    (Printf.sprintf "(prim_%s [| %s |])" base (String.concat "; " boxed_args))

(* ------------------------------------------------------------------ *)
(* Loops (DESIGN.md "JIT emitter")                                     *)

(* A natural loop, emitted as an OCaml [while] inside its header's code.
   ocamlopt boxes every float argument of a local function that is not a
   static handler; a [while] over local refs keeps them in registers.  A
   guard loop is [while <header> do <body> done] followed by its exit's
   code; any other loop tests an exit-state ref on every iteration. *)
type wloop = {
  w_hdr : int;
  w_body : (int, unit) Hashtbl.t;
  w_size : int;
  w_defs : (int, unit) Hashtbl.t;   (* Analysis.loop_defs *)
  w_exits : int list;
      (* the blocks its exit edges enter, numbered 1.. in the exit state.
         No block of a natural loop returns: each reaches a latch *)
  w_fixed : (int, unit) Hashtbl.t;
      (* header parameters every back edge passes unchanged: bound once,
         before the loop, and never a ref *)
  w_guard : bool;
      (* the loop's only exit edge leaves from its header's Branch, and
         nothing the header defines is used past that Branch *)
}

type plan = {
  cfg : Analysis.cfg;
  live_in : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  whiles : (int, wloop) Hashtbl.t;         (* header label -> loop *)
  fwd : (int, int) Hashtbl.t;              (* forward in-edges per label *)
  children : (int, int list) Hashtbl.t;    (* dominator-tree children, in RPO *)
}

let loop_forms_counter form =
  Wolf_obs.Metrics.counter ~labels:[ ("form", form) ]
    ~help:"loops the OCaml JIT emitter wrote as while loops (form=while), those of them in the guard-exit form (form=guard), and modules it declined for an irreducible CFG (form=declined)"
    "jit_loops_total"

(* the targets of a terminator's edges, one per edge *)
let edge_targets = function
  | Jump j -> [ j.target ]
  | Branch { if_true; if_false; _ } -> [ if_true.target; if_false.target ]
  | Return _ | Unreachable -> []

(* Whether loop [l] is a guard loop: its one exit edge is an arm of its
   header's Branch, and the values the header's instructions define are
   used only in the header, so they can live in the [while] condition. *)
let guard_exit f live_in (l : Analysis.loop) body =
  let blocks = List.map (Wir.find_block f) l.lbody in
  let exits =
    List.concat_map
      (fun bl -> List.filter (fun v -> not (Hashtbl.mem body v)) (edge_targets bl.term))
      blocks
  in
  let hb = Wir.find_block f l.lheader in
  match hb.term, exits with
  | Branch { if_true; if_false; _ }, [ y ] when y = if_true.target || y = if_false.target ->
    let defs = List.concat_map Wir.instr_defs hb.instrs in
    let defined = function Ovar v -> List.exists (fun d -> d.vid = v.vid) defs | Oconst _ -> false in
    List.for_all
      (fun (j : jump) ->
         not (Array.exists defined j.jargs)
         && List.for_all (fun d -> not (Hashtbl.mem (Hashtbl.find live_in j.target) d.vid)) defs)
      [ if_true; if_false ]
  | _ -> false

(* The loops of [f], or Error when its CFG is irreducible: a retreating
   edge whose target does not dominate its source enters a cycle that is
   no natural loop.  In a reducible CFG, natural loops merged by header
   nest or are disjoint, so each is a [while] inside the one around it. *)
let plan_loops (f : func) =
  let cfg = Analysis.build_cfg f in
  let num = Analysis.number cfg in
  let retreating = ref None in
  for i = cfg.Analysis.nreach - 1 downto 0 do
    let u = cfg.Analysis.nodes.(i).label in
    List.iter
      (fun v -> if num v <= i && not (Analysis.dominates cfg v u) then retreating := Some v)
      (Wir.successors cfg.Analysis.nodes.(i).term)
  done;
  match !retreating with
  | Some v -> Error (Printf.sprintf "irreducible loop b%d in %s" v f.fname)
  | None ->
    let live_in = Analysis.live_in f in
    let rpo_sorted labels = List.sort (fun a b -> compare (num a) (num b)) labels in
    let whiles = Hashtbl.create 8 in
    List.iter
      (fun (l : Analysis.loop) ->
         let body = Hashtbl.create 16 in
         List.iter (fun x -> Hashtbl.replace body x ()) l.lbody;
         let exits = ref [] in
         let add e = if not (List.mem e !exits) then exits := e :: !exits in
         List.iter
           (fun u ->
              List.iter
                (fun v -> if not (Hashtbl.mem body v) then add v)
                (Wir.successors (Wir.find_block f u).term))
           (rpo_sorted l.lbody);
         let h = l.lheader in
         let fixed = Hashtbl.create 4 in
         Array.iteri
           (fun i p ->
              if List.for_all
                  (fun (src, (j : jump)) ->
                     not (Hashtbl.mem body src)
                     || (match j.jargs.(i) with Ovar q -> q.vid = p.vid | Oconst _ -> false))
                  (Analysis.incoming_jumps f h)
              then Hashtbl.replace fixed p.vid ())
           (Wir.find_block f h).bparams;
         Hashtbl.replace whiles h
           { w_hdr = h; w_body = body; w_size = List.length l.lbody;
             w_defs = Analysis.loop_defs f l; w_exits = List.rev !exits; w_fixed = fixed;
             w_guard = guard_exit f live_in l body })
      (Analysis.natural_loops f cfg);
    let fwd = Hashtbl.create 16 and children = Hashtbl.create 16 in
    for i = 0 to cfg.Analysis.nreach - 1 do
      let u = cfg.Analysis.nodes.(i).label in
      List.iter
        (fun v ->
           if not (Analysis.dominates cfg v u) then
             Hashtbl.replace fwd v (1 + Option.value ~default:0 (Hashtbl.find_opt fwd v)))
        (Wir.successors cfg.Analysis.nodes.(i).term);
      if i > 0 then begin
        let d = cfg.Analysis.nodes.(cfg.Analysis.idom.(i)).label in
        Hashtbl.replace children d (u :: Option.value ~default:[] (Hashtbl.find_opt children d))
      end
    done;
    Hashtbl.filter_map_inplace (fun _ cs -> Some (rpo_sorted cs)) children;
    Ok { cfg; live_in; whiles; fwd; children }

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)

type env = {
  ind : int;             (* indentation of the lines emitted *)
  opens : wloop list;    (* the while loops being emitted, innermost first *)
  views : IS.t;          (* variables whose view is bound here *)
  checked : (string * string) list;
      (* Part checks bound here: "v<t>_d<axis> <index>" -> local holding the
         0-based index; emptied wherever a variable may be rebound *)
}

let add_line b env s =
  Buffer.add_string b (String.make env.ind ' ');
  Buffer.add_string b s;
  Buffer.add_char b '\n'

let indent env = { env with ind = env.ind + 2 }

(* element reads and stores, of any rank, checked or proved *)
let is_access base =
  match Prims.op_of base with Some (Part_get _ | Part_set _) -> true | _ -> false

(* The tensor variables that get views: operands of element accesses, the
   results of stores (a copy-on-write point is a new SSA value with its own
   view, derived from its operand's), and block parameters passed to a
   block parameter that has one, so that a view flows along with its tensor
   through join points and loop back edges instead of being projected again. *)
let viewed_vars ctx (f : func) =
  let t = Hashtbl.create 8 in
  if ctx.einline then begin
    List.iter
      (fun bl ->
         List.iter
           (function
             | Call { dst; callee = Resolved { base; _ }; args } when is_access base ->
               (match args.(0) with
                | Ovar v when view_shape (var_ty v) <> None -> Hashtbl.replace t v.vid ()
                | _ -> ());
               (match Prims.op_of base with
                | Some (Part_set _) when view_shape (var_ty dst) <> None -> Hashtbl.replace t dst.vid ()
                | _ -> ())
             | _ -> ())
           bl.instrs)
      f.blocks;
    let bparam = Hashtbl.create 16 in
    List.iter (fun bl -> Array.iter (fun v -> Hashtbl.replace bparam v.vid ()) bl.bparams) f.blocks;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun bl ->
           let jumps =
             match bl.term with
             | Jump j -> [ j ]
             | Branch { if_true; if_false; _ } -> [ if_true; if_false ]
             | Return _ | Unreachable -> []
           in
           List.iter
             (fun (j : jump) ->
                Array.iteri
                  (fun i q ->
                     match j.jargs.(i) with
                     | Ovar p
                       when Hashtbl.mem t q.vid && Hashtbl.mem bparam p.vid
                            && (not (Hashtbl.mem t p.vid))
                            && view_shape (var_ty p) = view_shape (var_ty q) ->
                       Hashtbl.replace t p.vid ();
                       changed := true
                     | _ -> ())
                  (Wir.find_block f j.target).bparams)
             jumps)
        f.blocks
    done
  end;
  t

let bind_parts b env shape t =
  List.iter (fun (x, e) -> add_line b env (Printf.sprintf "let %s = %s in" x e)) (view_parts shape t)

(* The tensor whose view locals of [shape] stand for operand [a], with the
   environment they are bound in: a variable's view, bound here if it is not
   bound yet, or a literal's constant, projected in line. *)
let view_of ctx b env shape a =
  match a with
  | Ovar s when view_shape (var_ty s) = Some shape ->
    let t = Printf.sprintf "v%d" s.vid in
    if IS.mem s.vid env.views then (env, t)
    else begin
      bind_parts b env shape t;
      ({ env with views = IS.add s.vid env.views }, t)
    end
  | _ ->
    let t = operand_expr ctx a in
    bind_parts b env shape t;
    (env, t)

(* Bind the view of [v], if it gets one: [v] is being bound to [src], or
   rebound, and any view [v] had is of its old value.  A variable source
   with a bound view lends its locals; anything else is projected from [v]. *)
let bind_view b ~viewed env (v : var) (src : operand) =
  match view_shape (var_ty v) with
  | Some shape when Hashtbl.mem viewed v.vid ->
    let env = { env with views = IS.remove v.vid env.views } in
    let t = Printf.sprintf "v%d" v.vid in
    (match src with
     | Ovar s when IS.mem s.vid env.views && view_shape (var_ty s) = Some shape ->
       List.iter2
         (fun x y -> add_line b env (Printf.sprintf "let %s = %s in" x y))
         (view_locals shape t) (view_locals shape (Printf.sprintf "v%d" s.vid))
     | _ -> bind_parts b env shape t);
    { env with views = IS.add v.vid env.views }
  | _ -> env

let project b ~viewed env v = bind_view b ~viewed env v (Ovar v)

(* The flat index of an element of [t]'s view: the Wolfram Part check of
   each axis against the projected dims, each bound once and reused by later
   accesses in scope with the same dims and index.  A reused check passed
   earlier on every path to the access, so the first failing check, and its
   error, is the same as without reuse. *)
let view_index ?(unchecked = false) ctx b env ~(dst : var) t (idx : operand array) =
  let env = ref env in
  let js =
    Array.mapi
      (fun k op ->
         let e = as_int_expr ctx op in
         (* an index a range proof put in 1..dim needs no check *)
         let key = Printf.sprintf "%s%s_d%d %s" (if unchecked then "u " else "") t k e in
         match List.assoc_opt key !env.checked with
         | Some j -> j
         | None ->
           let j = Printf.sprintf "v%d_j%d" dst.vid k in
           (* a row index is bound as the row's offset *)
           let scale = if k = 0 && Array.length idx = 2 then Printf.sprintf " * %s_d1" t else "" in
           add_line b !env
             (if unchecked then Printf.sprintf "let %s = (%s - 1)%s in" j e scale
              else Printf.sprintf "let %s = wolf_vindex1 %s_d%d %s%s in" j t k e scale);
           env := { !env with checked = (key, j) :: !env.checked };
           j)
      idx
  in
  let flat =
    match js with
    | [| j |] -> j
    | [| j1; j2 |] -> Printf.sprintf "%s + %s" j1 j2
    | _ -> invalid_arg "ocaml_emit: view rank"
  in
  (!env, flat)

(* the view kind whose elements have OCaml type [ty] *)
let elem_kind ty =
  match Types.repr ty with
  | Types.Con ("Integer64", _) -> Some Vints
  | Types.Con ("Real64", _) -> Some Vreals
  | _ -> None

(* An element read through a view, or None when the result is not an
   element (a row of a matrix), which is a boxed call. *)
let view_read ctx b env ~(dst : var) ~rank ~checked ~(args : operand array) =
  match elem_kind (var_ty dst) with
  | Some kind when view_shape (op_ty_of args.(0)) = Some (kind, rank) ->
    let env, t = view_of ctx b env (kind, rank) args.(0) in
    let env, index =
      view_index ~unchecked:(not checked) ctx b env ~dst t (Array.sub args 1 rank)
    in
    add_line b env
      (Printf.sprintf "let v%d : %s = Array.unsafe_get %s_a (%s) in"
         dst.vid (ocaml_ty (var_ty dst)) t index);
    Some env
  | _ -> None

(* A store through a view: the copy-on-write test, then the view of the
   result, then the checked write.  An in-place store's result is its
   operand, so it lends the operand's view locals. *)
let view_store ctx b env ~dst ~rank ~checked ~inplace ~(args : operand array) =
  let value = args.(rank + 1) in
  match elem_kind (op_ty_of value) with
  | Some kind
    when view_shape (op_ty_of args.(0)) = Some (kind, rank)
         && view_shape (var_ty dst) = Some (kind, rank) ->
    let shape = (kind, rank) in
    let env, t = view_of ctx b env shape args.(0) in
    let line fmt = Printf.ksprintf (add_line b env) fmt in
    let d = Printf.sprintf "v%d" dst.vid in
    if inplace then begin
      line "let %s : Wolf_wexpr.Tensor.t = %s in" d t;
      List.iter2 (line "let %s = %s in") (view_locals shape d) (view_locals shape t)
    end
    else begin
      line "let %s : Wolf_wexpr.Tensor.t = wolf_cow %s in" d t;
      bind_parts b env shape d
    end;
    let env, index =
      view_index ~unchecked:(not checked) ctx b env ~dst t (Array.sub args 1 rank)
    in
    line "let () = Array.unsafe_set %s_a (%s) %s in" d index (operand_expr ctx value);
    Some { env with views = IS.add dst.vid env.views }
  | _ -> None

let emit_instr ctx b ~viewed env i =
  let line fmt = Printf.ksprintf (add_line b env) fmt in
  let defined (dst : var) = project b ~viewed env dst in
  match i with
  | Load_argument _ -> env
  | Abort_check -> line "let () = wolf_abort_check () in"; env
  | Abort_poll { stride; site } ->
    if not (List.mem_assoc site ctx.polls) then ctx.polls <- (site, stride) :: ctx.polls;
    line "let () = decr wolf_poll_%d in" site;
    line "let () = if !wolf_poll_%d <= 0 then (wolf_poll_%d := %d; wolf_abort_check ()) in"
      site site stride;
    env
  | Copy { dst; src } ->
    line "let v%d : %s = %s in" dst.vid (ocaml_ty (var_ty dst)) (operand_expr ctx src);
    bind_view b ~viewed env dst src
  | Mem_acquire op ->
    (match Types.repr (op_ty_of op) with
     | Types.Con ("PackedArray", _) ->
       line "let () = Wolf_wexpr.Tensor.acquire %s in" (operand_expr ctx op)
     | _ -> ());
    env
  | Mem_release op ->
    (match Types.repr (op_ty_of op) with
     | Types.Con ("PackedArray", _) ->
       line "let () = Wolf_wexpr.Tensor.release %s in" (operand_expr ctx op)
     | _ -> ());
    env
  | Kernel_call { dst; head; args } ->
    let hname, _ = const_name ctx (Rtval.Expr head) Types.expression in
    let arg_exprs =
      Array.to_list args
      |> List.map (fun o ->
          Printf.sprintf "Wolf_runtime.Rtval.to_expr %s" (box (op_ty_of o) (operand_expr ctx o)))
    in
    line "let v%d : Wolf_wexpr.Expr.t = Wolf_runtime.Hooks.eval (Wolf_wexpr.Expr.Normal (%s, [| %s |])) in"
      dst.vid hname (String.concat "; " arg_exprs);
    env
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
         (String.concat " " (caps @ params)));
    env
  | Call { dst; callee = Func name; args } ->
    line "let v%d : %s = %s %s in" dst.vid (ocaml_ty (var_ty dst))
      (fn_ocaml_name ctx name)
      (if Array.length args = 0 then "()"
       else String.concat " "
           (Array.to_list (Array.map (fun o -> operand_expr ctx o) args)));
    defined dst
  | Call { dst; callee = Indirect fop; args } ->
    line "let v%d : %s = %s %s in" dst.vid (ocaml_ty (var_ty dst))
      (operand_expr ctx fop)
      (if Array.length args = 0 then "()"
       else String.concat " " (Array.to_list (Array.map (operand_expr ctx) args)));
    defined dst
  | Call { dst; callee = Resolved { base; _ }; args } ->
    let op = if ctx.einline then Prims.op_of base else None in
    let stored =
      match op with
      | Some (Part_set { rank; checked; inplace }) -> view_store ctx b env ~dst ~rank ~checked ~inplace ~args
      | Some (Part_get { rank; checked }) -> view_read ctx b env ~dst ~rank ~checked ~args
      | _ -> None
    in
    (match stored with
     | Some env -> env
     | None ->
       let body =
         match Option.bind op (fun op -> prim_expr ctx op ~args ~dst_ty:(var_ty dst)) with
         | Some s -> s
         | None -> boxed_prim_call ctx ~base ~args ~dst_ty:(var_ty dst)
       in
       line "let v%d : %s = %s in" dst.vid (ocaml_ty (var_ty dst)) body;
       defined dst)
  | Call { callee = Prim name; _ } ->
    invalid_arg ("ocaml_emit: unresolved primitive " ^ name)

(* an initial value for an exit ref, never read before the exit writes it *)
let dummy ty =
  match ocaml_ty ty with
  | "int" -> "0"
  | "float" -> "0.0"
  | "bool" -> "false"
  | "unit" -> "()"
  | _ -> "(Obj.magic 0)"

(* [f] as one structured walk from its entry block along the dominator
   tree: a block with one forward in-edge is inlined at that edge, a merge
   is a local function defined in its immediate dominator's code, and a
   natural loop is a [while] in its header's code. *)
let emit_func ctx (f : func) plan ~first =
  let b = ctx.buf in
  let live_in = plan.live_in in
  let fname = fn_ocaml_name ctx f.fname in
  let loops = List.sort compare (List.of_seq (Hashtbl.to_seq_keys plan.whiles)) in
  let guard h = (Hashtbl.find plan.whiles h).w_guard in
  List.iter
    (fun h ->
       Buffer.add_string b
         (Printf.sprintf "(* %s: loop b%d: while%s *)\n" fname h (if guard h then " guard" else "")))
    loops;
  let viewed = viewed_vars ctx f in
  (* the blocks with an element access on each variable *)
  let accesses = Hashtbl.create 8 in
  List.iter
    (fun bl ->
       List.iter
         (function
           | Call { callee = Resolved { base; _ }; args; _ } when is_access base ->
             (match args.(0) with Ovar v -> Hashtbl.add accesses v.vid bl.label | Oconst _ -> ())
           | _ -> ())
         bl.instrs)
    f.blocks;
  (* uses of each variable *)
  let uses = Hashtbl.create 64 in
  let use = function
    | Ovar v -> Hashtbl.replace uses v.vid (1 + Option.value ~default:0 (Hashtbl.find_opt uses v.vid))
    | Oconst _ -> ()
  in
  List.iter (fun bl -> List.iter (Wir.iter_instr_uses use) bl.instrs; Wir.iter_term_uses use bl.term) f.blocks;
  (* The comparison a block's Branch tests, when the Branch is its only use:
     written into the [if] or [while] condition, with no bool binding *)
  let folded (bl : block) =
    match bl.term with
    | Branch { cond = Ovar c; _ } when ctx.einline && Hashtbl.find_opt uses c.vid = Some 1 ->
      List.find_map
        (function
          | Call { dst; callee = Resolved { base; _ }; args } when dst.vid = c.vid ->
            (match Prims.op_of base with
             | Some (Cmp _ as op) -> Option.map (fun e -> (dst.vid, e)) (prim_expr ctx op ~args ~dst_ty:(var_ty dst))
             | _ -> None)
          | _ -> None)
        bl.instrs
    | _ -> None
  in
  let block = Wir.find_block f in
  let typed v = Printf.sprintf "(v%d : %s)" v.vid (ocaml_ty (var_ty v)) in
  let num = Analysis.number plan.cfg in
  let fwd y = Option.value ~default:0 (Hashtbl.find_opt plan.fwd y) in
  let idom y = plan.cfg.Analysis.nodes.(plan.cfg.Analysis.idom.(num y)).label in
  (* the outermost while loop that holds [y]'s immediate dominator but not
     [y]: [y]'s code goes after that loop *)
  let owner y =
    let d = idom y in
    Hashtbl.fold
      (fun _ w acc ->
         if Hashtbl.mem w.w_body d && not (Hashtbl.mem w.w_body y) then
           match acc with Some w' when w'.w_size >= w.w_size -> acc | _ -> Some w
         else acc)
      plan.whiles None
  in
  let owned_by w y = match owner y with Some o -> o == w | None -> false in
  (* the variables defined in [w] and live into [y], sorted by id *)
  let loop_live w y =
    Hashtbl.fold (fun vid () acc -> if Hashtbl.mem w.w_defs vid then vid :: acc else acc)
      (Hashtbl.find live_in y) []
    |> List.sort compare
    |> List.map (Hashtbl.find ctx.vars)
  in
  (* variables a block's join point takes besides its parameters: those
     defined in the loop whose exit it follows *)
  let join_extra y = match owner y with None -> [] | Some w -> loop_live w y in
  let carried w y = Array.to_list (block y).bparams @ loop_live w y in
  let exit_index w e =
    let rec go k = function
      | [] -> invalid_arg "ocaml_emit: unknown loop exit"
      | x :: rest -> if x = e then k else go (k + 1) rest
    in
    go 1 w.w_exits
  in
  let line env fmt = Printf.ksprintf (add_line b env) fmt in
  let bind_params env (ps : var array) (args : operand array) =
    let env = ref env in
    Array.iteri
      (fun i p ->
         line !env "let v%d : %s = %s in" p.vid (ocaml_ty (var_ty p)) (operand_expr ctx args.(i));
         env := bind_view b ~viewed !env p args.(i))
      ps;
    !env
  in
  (* the view shape of parameter [p], if it has a view *)
  let pview p =
    match view_shape (var_ty p) with Some sh when Hashtbl.mem viewed p.vid -> Some sh | _ -> None
  in
  (* [x] and, if parameter [p] has a view, the view's locals named after [x] *)
  let with_view p x = x :: (match pview p with Some sh -> view_locals sh x | None -> []) in
  (* the expressions passed for parameter [p] of argument [a]: [a], then the
     locals of its view if [p] has one *)
  let arg_of env p a =
    match pview p with
    | Some sh -> let env, t = view_of ctx b env sh a in (env, with_view p t)
    | None -> (env, [ operand_expr ctx a ])
  in
  let rec do_branch env (j : jump) =
    let y = j.target in
    match env.opens with
    | w :: _ when y = w.w_hdr ->
      (* back edge: the header's refs take the arguments *)
      let env = ref env in
      let assigns =
        List.concat
          (List.mapi
             (fun i p ->
                if Hashtbl.mem w.w_fixed p.vid then []
                else begin
                  let env', es = arg_of !env p j.jargs.(i) in
                  env := env';
                  List.combine (with_view p (Printf.sprintf "rp%d" p.vid)) es
                end)
             (Array.to_list (block y).bparams))
      in
      List.iter (fun (r, e) -> line !env "%s := %s;" r e) assigns;
      line !env "()"
    | w :: _ when not (Hashtbl.mem w.w_body y) ->
      let ps = (block y).bparams in
      List.iter
        (fun v ->
           let value =
             match Array.find_index (fun p -> p.vid = v.vid) ps with
             | Some i -> operand_expr ctx j.jargs.(i)
             | None -> Printf.sprintf "v%d" v.vid
           in
           line env "x%d_%d := %s;" w.w_hdr v.vid value)
        (carried w y);
      line env "st%d := %d" w.w_hdr (exit_index w y)
    | _ ->
      if fwd y >= 2 then join_call env y (Array.to_list j.jargs)
      else do_tree (bind_params env (block y).bparams j.jargs) y
  (* a join point's parameters: the variables it takes besides the block's
     own, then those, each followed by its view's locals if it has one *)
  and join_params y = join_extra y @ Array.to_list (block y).bparams
  and join_call env y args =
    let args = List.map (fun v -> Ovar v) (join_extra y) @ args in
    let env = ref env in
    let es =
      List.concat
        (List.map2
           (fun p a ->
              let env', es = arg_of !env p a in
              env := env';
              es)
           (join_params y) args)
    in
    if es = [] then line !env "j%d ()" y else line !env "j%d %s" y (String.concat " " es)
  (* [y]'s code, its parameters bound *)
  and do_tree env y =
    match Hashtbl.find_opt plan.whiles y with
    | Some w when not (List.memq w env.opens) -> loop_form env w
    | _ -> node_within env y
  and define_join env y =
    let ps = join_params y in
    let view_params p =
      match pview p with
      | Some ((kind, _) as sh) ->
        List.mapi
          (fun k x ->
             Printf.sprintf "(%s : %s)" x
               (if k > 0 then "int" else if kind = Vints then "int array" else "float array"))
          (view_locals sh (Printf.sprintf "v%d" p.vid))
      | None -> []
    in
    line env "let j%d %s =" y
      (if ps = [] then "()" else String.concat " " (List.concat_map (fun p -> typed p :: view_params p) ps));
    let body = { (indent env) with checked = [] } in
    let body =
      List.fold_left
        (fun env p -> if pview p = None then env else { env with views = IS.add p.vid env.views })
        body ps
    in
    do_tree body y;
    line env "in"
  (* [x]'s instructions, all but the comparison [fold] writes into its
     Branch *)
  and instrs_of env x fold =
    List.fold_left
      (fun env i ->
         match i, fold with
         | Call { dst; _ }, Some (vid, _) when dst.vid = vid -> env
         | _ -> emit_instr ctx b ~viewed env i)
      env (block x).instrs
  (* merge points dominated by [x] and inside the same loops, placed so
     that every jump to one is a tail call in its scope: ocamlopt turns
     such a local function into a static handler (no closure, unboxed
     float arguments) *)
  and inner_joins env x =
    List.iter
      (fun c -> if fwd c >= 2 && owner c = None then define_join env c)
      (List.rev (Option.value ~default:[] (Hashtbl.find_opt plan.children x)))
  and cond_expr fold cond = match fold with Some (_, e) -> e | None -> operand_expr ctx cond
  and node_within env x =
    let bl = block x in
    let fold = folded bl in
    let env = instrs_of env x fold in
    inner_joins env x;
    match bl.term with
    | Return op -> line env "%s" (operand_expr ctx op)
    | Jump j -> do_branch env j
    | Branch { cond; if_true; if_false } ->
      line env "if %s then begin" (cond_expr fold cond);
      do_branch (indent env) if_true;
      line env "end else begin";
      do_branch (indent env) if_false;
      line env "end"
    | Unreachable -> line env "assert false"
  (* [w]'s header parameters that change in the loop *)
  and loop_params w =
    List.filter (fun p -> not (Hashtbl.mem w.w_fixed p.vid)) (Array.to_list (block w.w_hdr).bparams)
  (* a ref for each of them and its view's locals, holding the entry values *)
  and bind_refs env w =
    List.fold_left
      (fun env p ->
         let env, es = arg_of env p (Ovar p) in
         List.iter2 (fun r e -> line env "let %s = ref %s in" r e)
           (with_view p (Printf.sprintf "rp%d" p.vid)) es;
         env)
      env (loop_params w)
  (* the parameters' current values, read from their refs *)
  and read_refs env w =
    List.fold_left
      (fun env p ->
         line env "let v%d : %s = !rp%d in" p.vid (ocaml_ty (var_ty p)) p.vid;
         match pview p with
         | Some sh ->
           List.iter2 (fun x r -> line env "let %s = !%s in" x r)
             (view_locals sh (Printf.sprintf "v%d" p.vid)) (view_locals sh (Printf.sprintf "rp%d" p.vid));
           { env with views = IS.add p.vid env.views }
         | None -> env)
      env (loop_params w)
  (* after the loop: the merges that follow its exits, latest first *)
  and exit_joins env w =
    List.init plan.cfg.Analysis.nreach (fun i -> plan.cfg.Analysis.nodes.(i).label)
    |> List.filter (fun y -> fwd y >= 2 && owned_by w y)
    |> List.rev
    |> List.iter (define_join env)
  and loop_form env w = if w.w_guard then guard_form env w else state_form env w
  (* [while <header> do <body> done], then the exit's code: the header's
     instructions and its comparison are the condition, and the code after
     the loop reads the header parameters once *)
  and guard_form env w =
    let h = w.w_hdr in
    let bl = block h in
    let fold = folded bl in
    match bl.term with
    | Branch { cond; if_true; if_false } ->
      let stay, leave, test =
        if Hashtbl.mem w.w_body if_true.target then (if_true, if_false, cond_expr fold cond)
        else (if_false, if_true, Printf.sprintf "not (%s)" (cond_expr fold cond))
      in
      let env = bind_refs env w in
      let inside = { (indent env) with opens = w :: env.opens; checked = [] } in
      line env "while";
      let g = instrs_of (read_refs inside w) h fold in
      line g "%s" test;
      line env "do";
      let body = read_refs inside w in
      inner_joins body h;
      do_branch body stay;
      line env "done;";
      exit_joins env w;
      do_branch (read_refs { env with checked = [] } w) leave
    | _ -> invalid_arg "ocaml_emit: guard loop without a Branch"
  (* any other loop: an exit-state ref, tested on every iteration, then a
     match on the exit taken *)
  and state_form env w =
    let h = w.w_hdr in
    let env = bind_refs env w in
    let all_carried =
      List.concat_map (carried w) w.w_exits
      |> List.sort_uniq (fun a b -> compare a.vid b.vid)
    in
    List.iter
      (fun v ->
         line env "let x%d_%d : %s ref = ref %s in" h v.vid (ocaml_ty (var_ty v)) (dummy (var_ty v)))
      all_carried;
    line env "let st%d = ref 0 in" h;
    line env "while !st%d = 0 do" h;
    node_within (read_refs { (indent env) with opens = w :: env.opens; checked = [] } w) h;
    line env "done;";
    exit_joins env w;
    line env "begin match !st%d with" h;
    List.iteri
      (fun k y ->
         line env "| %d ->" (k + 1);
         let arm =
           List.fold_left
             (fun env v ->
                line env "let v%d : %s = !x%d_%d in" v.vid (ocaml_ty (var_ty v)) h v.vid;
                (* a header parameter's view bound before the loop is of
                   its first value.  The new one is projected here if an
                   access after the loop needs it; a jump that passes
                   the tensor on projects it there *)
                let env = { env with views = IS.remove v.vid env.views } in
                if List.exists (fun l -> not (Hashtbl.mem w.w_body l)) (Hashtbl.find_all accesses v.vid)
                then project b ~viewed env v
                else env)
             { (indent env) with checked = [] } (carried w y)
         in
         let jargs = Array.map (fun p -> Ovar p) (block y).bparams in
         if not (owned_by w y) then do_branch arm { target = y; jargs }
         else if fwd y >= 2 then join_call arm y (Array.to_list jargs)
         else do_tree arm y)
      w.w_exits;
    line env "| _ -> assert false end"
  in
  let ret = match f.ret_ty with Some t -> ocaml_ty t | None -> "Wolf_runtime.Rtval.t" in
  let params = Array.to_list f.fparams in
  Buffer.add_string b
    (Printf.sprintf "%s %s %s : %s =\n" (if first then "let rec" else "and") fname
       (if params = [] then "()" else String.concat " " (List.map typed params)) ret);
  (* parameters are projected once per call *)
  let env0 =
    List.fold_left (fun env v -> project b ~viewed env v)
      { ind = 2; opens = []; views = IS.empty; checked = [] } params
  in
  do_tree env0 (Wir.entry f).label;
  Buffer.add_char b '\n';
  List.map (fun h -> (h, guard h)) loops

let emit_module ~module_name (c : Pipeline.compiled) plans =
  let prog = c.Pipeline.program in
  let ctx =
    {
      buf = Buffer.create 4096;
      einline = c.Pipeline.coptions.Wolf_compiler.Options.inline_level > 0;
      vars = Hashtbl.create 128;
      consts = [];
      const_count = 0;
      polls = [];
      prims = Hashtbl.create 8;
      module_key = module_name;
      fn_names = Hashtbl.create 8;
      prog;
    }
  in
  List.iter (fun f -> Wir.iter_vars f (fun v -> Hashtbl.replace ctx.vars v.vid v)) prog.funcs;
  (* constants are registered in Wolf_plugin by the host before loading;
     emitted below as module-level lets after function emission (we only know
     them then), so functions go into a second buffer *)
  let fnbuf = Buffer.create 4096 in
  let fctx = { ctx with buf = fnbuf } in
  let loops =
    List.concat
      (List.mapi
         (fun i (f, plan) -> List.map (fun (h, g) -> ((f.fname, h), g)) (emit_func fctx f plan ~first:(i = 0)))
         plans)
  in
  List.iter
    (fun (_, g) ->
       Wolf_obs.Metrics.incr (loop_forms_counter "while");
       if g then Wolf_obs.Metrics.incr (loop_forms_counter "guard"))
    loops;
  let loops = List.map fst loops in
  ctx.consts <- fctx.consts;
  ctx.const_count <- fctx.const_count;
  ctx.polls <- fctx.polls;
  Buffer.add_string ctx.buf (prelude_for (Buffer.contents fnbuf));
  Buffer.add_string ctx.buf "\n\n";
  (* module-level poll counters: persist across calls like the threaded
     backend's per-site refs *)
  List.iter
    (fun (site, stride) ->
       Buffer.add_string ctx.buf (Printf.sprintf "let wolf_poll_%d = ref %d\n" site stride))
    (List.rev ctx.polls);
  (* each boxed primitive's implementation, looked up once at load *)
  List.iter
    (fun base ->
       Buffer.add_string ctx.buf
         (Printf.sprintf "let prim_%s = (Wolf_runtime.Prims.find %S).Wolf_runtime.Prims.impl\n"
            base base))
    (List.sort compare (List.of_seq (Hashtbl.to_seq_keys ctx.prims)));
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
    loops;
  }

let emit ~module_name (c : Pipeline.compiled) =
  let plans =
    List.fold_right
      (fun f acc -> Result.bind acc (fun ps -> Result.map (fun p -> (f, p) :: ps) (plan_loops f)))
      c.Pipeline.program.funcs (Ok [])
  in
  match plans with
  | Ok plans -> Ok (emit_module ~module_name c plans)
  | Error _ as e ->
    Wolf_obs.Metrics.incr (loop_forms_counter "declined");
    e
