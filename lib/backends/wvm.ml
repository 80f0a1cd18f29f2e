open Wolf_base
open Wolf_wexpr
open Wolf_runtime
open Wolf_compiler

(* Boxed VM values: the fixed datatype set of the bytecode compiler. *)
type wval =
  | WNull
  | WI of int
  | WR of float
  | WB of bool
  | WC of float * float
  | WT of Tensor.t
  | WE of Expr.t   (* only produced by interpreter escapes *)

type winstr =
  | LoadArg of { dst : int; index : int; assume_real : bool }
  | ConstV of { dst : int; v : wval }
  | Move of { dst : int; src : int }
  | Op of { dst : int; op : string;
            fn : wval array -> int array -> wval;
            srcs : int array }
  | JumpIfFalse of { src : int; target : int }
  | Goto of { target : int }
  | Poll of { stride : int; mutable budget : int }
    (* strided abort poll at a loop top; [budget] is the live countdown and
       persists across calls (the instruction is the counter storage) *)
  | EvalEscape of { dst : int; expr : Expr.t; env : (Symbol.t * int) list }
  | Ret of { src : int }

type compiled_function = {
  wname : string;
  params : (Symbol.t * string) array;  (* name, declared type tag *)
  code : winstr array;
  nregs : int;
  wsource : Expr.t;
}

let resolve_op_ref : (string -> wval array -> int array -> wval) ref =
  ref (fun _ _ _ -> assert false)

(* Back-edges between real abort checks in compiled loops (strided
   polling); mirrors [Options.abort_stride] for the WIR backends. *)
let abort_stride = ref 1024

(* Memoising wrapper: the opcode-name lookup happens once per instruction,
   not once per execution; dispatchers read registers directly so no
   argument array is allocated per executed instruction. *)
let resolve_op name =
  let resolved = ref None in
  fun regs srcs ->
    match !resolved with
    | Some f -> f regs srcs
    | None ->
      let f = !resolve_op_ref name in
      resolved := Some f;
      f regs srcs

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

type cstate = {
  buf : winstr ref array ref;
  mutable len : int;
  mutable regs : int;
  env : (int, int) Hashtbl.t;        (* symbol id -> register *)
  names : (int, Symbol.t) Hashtbl.t; (* register env reverse map for escapes *)
}

let emit st i =
  if st.len >= Array.length !(st.buf) then begin
    let bigger = Array.make (max 16 (2 * Array.length !(st.buf))) (ref (Goto { target = 0 })) in
    Array.blit !(st.buf) 0 bigger 0 st.len;
    st.buf := bigger
  end;
  !(st.buf).(st.len) <- ref i;
  st.len <- st.len + 1;
  st.len - 1

let fresh_reg st =
  let r = st.regs in
  st.regs <- st.regs + 1;
  r

let supported_ops =
  [ "Plus"; "Subtract"; "Times"; "Divide"; "Power"; "Mod"; "Quotient"; "Minus";
    "Less"; "Greater"; "LessEqual"; "GreaterEqual"; "Equal"; "Unequal";
    "SameQ"; "UnsameQ"; "Not"; "Min"; "Max"; "Abs"; "Sin"; "Cos"; "Tan";
    "Exp"; "Log"; "Sqrt"; "Floor"; "Ceiling"; "Round"; "IntegerPart"; "N";
    "BitAnd"; "BitOr"; "BitXor"; "BitShiftLeft"; "BitShiftRight";
    "EvenQ"; "OddQ"; "Boole"; "Part"; "SetPart"; "Length"; "Total"; "Dot";
    "Range"; "ConstantArray"; "RandomReal"; "RandomInteger"; "Re"; "Im";
    "Complex"; "Reverse"; "Join"; "Append"; "Take" ]

let rec free_locals st e acc =
  match e with
  | Expr.Sym s -> if Hashtbl.mem st.env (Symbol.id s) then (s :: acc) else acc
  | Expr.Normal (h, args) ->
    Array.fold_left (fun acc a -> free_locals st a acc) (free_locals st h acc) args
  | Expr.Int _ | Expr.Big _ | Expr.Real _ | Expr.Str _ | Expr.Tensor _ -> acc

(* Compile an expression into a register; returns the register. *)
let rec compile_expr st e =
  match e with
  | Expr.Int i ->
    let r = fresh_reg st in
    ignore (emit st (ConstV { dst = r; v = WI i }));
    r
  | Expr.Real x ->
    let r = fresh_reg st in
    ignore (emit st (ConstV { dst = r; v = WR x }));
    r
  | Expr.Tensor t ->
    let r = fresh_reg st in
    (* the instruction array pools this tensor across executions: hold a
       claim so SetPart's COW copies instead of mutating the constant *)
    Tensor.acquire t;
    ignore (emit st (ConstV { dst = r; v = WT t }));
    r
  | Expr.Str _ ->
    Errors.compile_errorf "Compile: strings are not supported by the bytecode compiler"
  | Expr.Big _ ->
    Errors.compile_errorf "Compile: arbitrary-precision constants are not supported"
  | Expr.Sym s ->
    if Expr.is_true e then begin
      let r = fresh_reg st in
      ignore (emit st (ConstV { dst = r; v = WB true }));
      r
    end
    else if Expr.is_false e then begin
      let r = fresh_reg st in
      ignore (emit st (ConstV { dst = r; v = WB false }));
      r
    end
    else if Symbol.equal s Expr.Sy.null then begin
      let r = fresh_reg st in
      ignore (emit st (ConstV { dst = r; v = WNull }));
      r
    end
    else begin
      match Hashtbl.find_opt st.env (Symbol.id s) with
      | Some r -> r
      | None -> escape st e
    end
  | Expr.Normal (Expr.Sym h, args) when Symbol.equal h Expr.Sy.list ->
    ignore args;
    (match Rtval.of_expr e with
     | Rtval.Tensor t ->
       let r = fresh_reg st in
       Tensor.acquire t;  (* pooled in the instruction array, see above *)
       ignore (emit st (ConstV { dst = r; v = WT t }));
       r
     | _ -> escape st e)
  | Expr.Normal (Expr.Sym h, args) -> compile_normal st h args e
  | Expr.Normal (_, _) -> escape st e

and compile_normal st h args whole =
  match Symbol.name h, args with
  | "CompoundExpression", _ ->
    let last = ref (-1) in
    Array.iter (fun a -> last := compile_expr st a) args;
    if !last < 0 then compile_expr st Expr.null else !last
  | "Set", [| Expr.Sym v; rhs |] ->
    let src = compile_expr st rhs in
    (match Hashtbl.find_opt st.env (Symbol.id v) with
     | Some r ->
       ignore (emit st (Move { dst = r; src }));
       r
     | None ->
       let r = fresh_reg st in
       Hashtbl.replace st.env (Symbol.id v) r;
       Hashtbl.replace st.names r v;
       ignore (emit st (Move { dst = r; src }));
       r)
  | "Set", [| Expr.Normal (Expr.Sym p, pargs); rhs |]
    when Symbol.equal p Expr.Sy.part && Array.length pargs >= 2 ->
    (match pargs.(0) with
     | Expr.Sym v ->
       (match Hashtbl.find_opt st.env (Symbol.id v) with
        | Some target ->
          let idxs =
            Array.map (compile_expr st) (Array.sub pargs 1 (Array.length pargs - 1))
          in
          let value = compile_expr st rhs in
          (* the updated array replaces the target register directly: no
             register-level aliasing is introduced, so copy-on-read moves
             stay out of the loop *)
          ignore
            (emit st
               (Op { dst = target; op = "SetPart"; fn = resolve_op "SetPart";
                     srcs = Array.concat [ [| target |]; idxs; [| value |] ] }));
          value
        | None -> escape st whole)
     | _ -> escape st whole)
  | "If", _ when Array.length args >= 2 && Array.length args <= 3 ->
    let cond = compile_expr st args.(0) in
    let result = fresh_reg st in
    let jmp_false = emit st (JumpIfFalse { src = cond; target = -1 }) in
    let tval = compile_expr st args.(1) in
    ignore (emit st (Move { dst = result; src = tval }));
    let jmp_end = emit st (Goto { target = -1 }) in
    let else_pc = st.len in
    (if Array.length args = 3 then begin
       let fval = compile_expr st args.(2) in
       ignore (emit st (Move { dst = result; src = fval }))
     end
     else ignore (emit st (ConstV { dst = result; v = WNull })));
    let end_pc = st.len in
    !(st.buf).(jmp_false) := JumpIfFalse { src = cond; target = else_pc };
    !(st.buf).(jmp_end) := Goto { target = end_pc };
    result
  | "While", _ when Array.length args >= 1 ->
    (* the poll at the loop top replaces the former per-back-edge abort
       check: one real check every [abort_stride] iterations *)
    let top = st.len in
    ignore (emit st (Poll { stride = !abort_stride; budget = !abort_stride }));
    let cond = compile_expr st args.(0) in
    let jmp_exit = emit st (JumpIfFalse { src = cond; target = -1 }) in
    if Array.length args = 2 then ignore (compile_expr st args.(1));
    ignore (emit st (Goto { target = top }));
    let exit_pc = st.len in
    !(st.buf).(jmp_exit) := JumpIfFalse { src = cond; target = exit_pc };
    let r = fresh_reg st in
    ignore (emit st (ConstV { dst = r; v = WNull }));
    r
  | "Function", _ ->
    Errors.compile_errorf
      "Compile: function values cannot be represented in the bytecode compiler"
  | name, _ when List.mem name supported_ops ->
    (* n-ary numeric heads fold left-to-right *)
    let srcs = Array.map (compile_expr st) args in
    if Array.length srcs > 2 && (name = "Plus" || name = "Times") then begin
      let acc = ref srcs.(0) in
      Array.iteri
        (fun i s ->
           if i > 0 then begin
             let r = fresh_reg st in
             ignore
               (emit st
                  (Op { dst = r; op = name; fn = resolve_op name; srcs = [| !acc; s |] }));
             acc := r
           end)
        srcs;
      !acc
    end
    else begin
      let r = fresh_reg st in
      ignore (emit st (Op { dst = r; op = name; fn = resolve_op name; srcs }));
      r
    end
  | _ -> escape st whole

(* Unsupported expression: evaluate with the interpreter at runtime, with
   current register values substituted for local variables (paper §2.2). *)
and escape st e =
  let locals = List.sort_uniq Symbol.compare (free_locals st e []) in
  let env = List.map (fun s -> (s, Hashtbl.find st.env (Symbol.id s))) locals in
  let r = fresh_reg st in
  ignore (emit st (EvalEscape { dst = r; expr = e; env }));
  r

let param_tag = function
  | None -> "Real"
  | Some spec ->
    (match spec with
     | Expr.Str ("MachineInteger" | "Integer" | "Integer64") -> "Integer"
     | Expr.Str ("Real" | "Real64") -> "Real"
     | Expr.Str ("Boolean" | "Bool" | "True|False") -> "Boolean"
     | Expr.Str ("Complex" | "ComplexReal64") -> "Complex"
     | Expr.Normal (Expr.Str ("PackedArray" | "Tensor"), _) -> "Tensor"
     | s ->
       Errors.compile_errorf "Compile: unsupported argument type %s" (Expr.to_string s))

let surface_spec fexpr i =
  match fexpr with
  | Expr.Normal (_, [| params; _ |]) ->
    let items =
      match params with
      | Expr.Normal (Expr.Sym l, items) when Symbol.equal l Expr.Sy.list -> items
      | single -> [| single |]
    in
    if i < Array.length items then
      match items.(i) with
      | Expr.Normal (Expr.Sym t, [| _; spec |]) when Symbol.equal t Expr.Sy.typed ->
        Some spec
      | _ -> None
    else None
  | _ -> None

(* Bytecode verifier, run once at the end of compilation: every jump target
   in range, every register below [nregs], every poll stride positive.
   Catches malformed emission (e.g. an unpatched -1 jump placeholder) before
   the interpreter executes it blindly. *)
let verify cf =
  let len = Array.length cf.code in
  let reg r what i =
    if r < 0 || r >= cf.nregs then
      Errors.compile_errorf "WVM verifier: %s register %d out of range at pc %d" what r i
  in
  let target t i =
    if t < 0 || t >= len then
      Errors.compile_errorf "WVM verifier: jump target %d out of range at pc %d" t i
  in
  Array.iteri
    (fun i instr ->
       match instr with
       | LoadArg { dst; index; _ } ->
         reg dst "destination" i;
         if index < 0 || index >= Array.length cf.params then
           Errors.compile_errorf "WVM verifier: argument index %d out of range at pc %d"
             index i
       | ConstV { dst; _ } -> reg dst "destination" i
       | Move { dst; src } ->
         reg dst "destination" i;
         reg src "source" i
       | Op { dst; srcs; _ } ->
         reg dst "destination" i;
         Array.iter (fun s -> reg s "source" i) srcs
       | JumpIfFalse { src; target = t } ->
         reg src "source" i;
         target t i
       | Goto { target = t } -> target t i
       | Poll { stride; _ } ->
         if stride < 1 then
           Errors.compile_errorf "WVM verifier: poll stride %d < 1 at pc %d" stride i
       | EvalEscape { dst; env; _ } ->
         reg dst "destination" i;
         List.iter (fun (_, r) -> reg r "environment" i) env
       | Ret { src } -> reg src "source" i)
    cf.code

let compile ?(name = "CompiledFunction") fexpr =
  (* reuse the front end's scope flattening and desugaring *)
  let expanded = Macro.expand (Macro.builtin_env ()) fexpr in
  let analyzed = Binding.analyze_function expanded in
  let st =
    { buf = ref (Array.make 64 (ref (Goto { target = 0 })));
      len = 0; regs = 0; env = Hashtbl.create 16; names = Hashtbl.create 16 }
  in
  let params =
    Array.of_list
      (List.mapi
         (fun i (p : Binding.param) ->
            let tag =
              match p.pspec with
              | None -> "Real"
              | Some _ ->
                (* recover the original surface spec from the source *)
                param_tag (surface_spec fexpr i)
            in
            let r = fresh_reg st in
            Hashtbl.replace st.env (Symbol.id p.psym) r;
            Hashtbl.replace st.names r p.psym;
            ignore
              (emit st (LoadArg { dst = r; index = i; assume_real = tag = "Real" }));
            (p.psym, tag))
         analyzed.params)
  in
  let result = compile_expr st analyzed.body in
  ignore (emit st (Ret { src = result }));
  let cf =
    {
      wname = name;
      params;
      code = Array.map (fun r -> !r) (Array.sub !(st.buf) 0 st.len);
      nregs = st.regs;
      wsource = fexpr;
    }
  in
  verify cf;
  cf

(* ------------------------------------------------------------------ *)
(* The virtual machine                                                 *)

let wval_to_expr = function
  | WNull -> Expr.null
  | WI i -> Expr.Int i
  | WR r -> Expr.Real r
  | WB b -> Expr.bool b
  | WC (re, im) -> Expr.Normal (Expr.Sym Expr.Sy.complex, [| Expr.Real re; Expr.Real im |])
  | WT t -> Expr.Tensor t
  | WE e -> e

let wval_of_expr e =
  match Rtval.of_expr e with
  | Rtval.Unit -> WNull
  | Rtval.Int i -> WI i
  | Rtval.Real r -> WR r
  | Rtval.Bool b -> WB b
  | Rtval.Complex (re, im) -> WC (re, im)
  | Rtval.Tensor t -> WT t
  | Rtval.Str _ | Rtval.Expr _ | Rtval.Fun _ -> WE e

let to_rt = function
  | WNull -> Rtval.Unit
  | WI i -> Rtval.Int i
  | WR r -> Rtval.Real r
  | WB b -> Rtval.Bool b
  | WC (re, im) -> Rtval.Complex (re, im)
  | WT t -> Rtval.Tensor t
  | WE e -> Rtval.Expr e

let of_rt = function
  | Rtval.Unit -> WNull
  | Rtval.Int i -> WI i
  | Rtval.Real r -> WR r
  | Rtval.Bool b -> WB b
  | Rtval.Complex (re, im) -> WC (re, im)
  | Rtval.Tensor t -> WT t
  | Rtval.Str s -> WE (Expr.Str s)
  | Rtval.Expr e -> WE e
  | Rtval.Fun _ ->
    raise (Errors.Runtime_error (Errors.Invalid_runtime_argument "WVM function value"))

let bad_op op =
  raise
    (Errors.Runtime_error
       (Errors.Invalid_runtime_argument (Printf.sprintf "WVM op %s" op)))

(* All operations dispatch through the boxed primitive library: this IS the
   bytecode interpretation overhead the paper measures.  The opcode-name
   match and the primitive lookups are resolved when an instruction is
   first run (real bytecode VMs dispatch on opcode integers); the per-call
   value-shape dispatch and boxing remain. *)
let op_shape_dispatch op : wval array -> wval =
  let p base =
    let impl = (Prims.find base).impl in
    fun srcs -> of_rt (impl (Array.map to_rt srcs))
  in
  (* the first case whose shape test holds runs *)
  let cases l =
    let rec go srcs = function
      | (test, f) :: rest -> if test srcs then f srcs else go srcs rest
      | [] -> bad_op op
    in
    fun srcs -> go srcs l
  in
  let any _ = true in
  let i1 = function [| WI _ |] -> true | _ -> false in
  let c1 = function [| WC _ |] -> true | _ -> false in
  let ii = function [| WI _; WI _ |] -> true | _ -> false in
  let tt = function [| WT _; WT _ |] -> true | _ -> false in
  let t_ = function [| WT _; _ |] -> true | _ -> false in
  let cx srcs = Array.exists (function WC _ -> true | _ -> false) srcs in
  let num = function WC _ | WR _ | WI _ -> true | _ -> false in
  let nums = function [| a; b |] -> num a && num b | _ -> false in
  let first srcs = srcs.(0) in
  match op with
  | "Plus" ->
    cases [ (ii, p "checked_binary_plus"); ((fun s -> nums s && cx s), p "complex_binary_plus");
            (nums, p "binary_plus"); (tt, p "array_binary_plus"); (t_, p "array_scalar_plus");
            (any, p "binary_plus") ]
  | "Subtract" ->
    cases [ (ii, p "checked_binary_subtract"); (cx, p "complex_binary_subtract");
            (tt, p "array_binary_subtract"); (any, p "binary_subtract") ]
  | "Times" ->
    cases [ (ii, p "checked_binary_times"); (cx, p "complex_binary_times");
            (tt, p "array_binary_times"); (t_, p "array_scalar_times"); (any, p "binary_times") ]
  | "Divide" -> cases [ (cx, p "complex_binary_divide"); (any, p "binary_divide") ]
  | "Minus" -> cases [ (i1, p "checked_unary_minus"); (any, p "unary_minus") ]
  | "Power" ->
    cases [ (ii, p "checked_binary_power");
            ((function [| WR _; WI _ |] -> true | _ -> false), p "binary_power_ri");
            ((function [| WC _; WI _ |] -> true | _ -> false), p "complex_binary_power");
            (any, p "binary_power") ]
  | "Mod" -> p "checked_binary_mod"
  | "Quotient" -> p "checked_binary_quotient"
  | "Less" -> p "binary_less"
  | "Greater" -> p "binary_greater"
  | "LessEqual" -> p "binary_less_equal"
  | "GreaterEqual" -> p "binary_greater_equal"
  | "Equal" | "SameQ" -> p "binary_equal"
  | "Unequal" | "UnsameQ" -> p "binary_unequal"
  | "Not" -> p "unary_not"
  | "Min" -> p "binary_min"
  | "Max" -> p "binary_max"
  | "Abs" -> cases [ (i1, p "checked_unary_abs"); (c1, p "complex_abs"); (any, p "unary_abs") ]
  | "Sin" -> p "unary_sin"
  | "Cos" -> p "unary_cos"
  | "Tan" -> p "unary_tan"
  | "Exp" -> p "unary_exp"
  | "Log" -> p "unary_log"
  | "Sqrt" -> p "unary_sqrt"
  | "Floor" -> cases [ (i1, first); (any, p "unary_floor") ]
  | "Ceiling" -> cases [ (i1, first); (any, p "unary_ceiling") ]
  | "Round" -> cases [ (i1, first); (any, p "unary_round") ]
  | "IntegerPart" -> p "unary_truncate"
  | "N" -> cases [ (i1, p "int_to_real"); (any, first) ]
  | "BitAnd" -> p "binary_bitand"
  | "BitOr" -> p "binary_bitor"
  | "BitXor" -> p "binary_bitxor"
  | "BitShiftLeft" -> p "binary_shiftleft"
  | "BitShiftRight" -> p "binary_shiftright"
  | "EvenQ" -> p "unary_evenq"
  | "OddQ" -> p "unary_oddq"
  | "Boole" -> p "unary_boole"
  | "Re" -> cases [ (c1, p "complex_re"); (any, first) ]
  | "Im" -> cases [ (c1, p "complex_im"); (i1, fun _ -> WI 0); (any, fun _ -> WR 0.0) ]
  | "Complex" -> p "complex_make"
  | "Part" ->
    cases [ ((function [| WT t; WI _ |] -> Tensor.rank t > 1 | _ -> false), p "part_get_row");
            ((function [| WT _; WI _ |] -> true | _ -> false), p "part_get_1");
            ((function [| WT _; WI _; WI _ |] -> true | _ -> false), p "part_get_2") ]
  | "SetPart" ->
    cases [ ((function [| WT _; WI _; _ |] -> true | _ -> false), p "part_set_1");
            ((function [| WT _; WI _; WI _; _ |] -> true | _ -> false), p "part_set_2") ]
  | "Length" -> p "array_length"
  | "Total" -> p "array_total"
  | "Dot" ->
    cases [ ((function [| WT a; WT b |] -> Tensor.rank a = 1 && Tensor.rank b = 1 | _ -> false),
             p "dot_vv");
            (tt, p "dot_mm") ]
  | "Range" -> cases [ (i1, p "range"); (ii, p "range2") ]
  | "ConstantArray" ->
    cases [ (ii, p "constant_array_int");
            ((function [| WR _; WI _ |] -> true | _ -> false), p "constant_array_real");
            ((function [| WI _; WI _; WI _ |] -> true | _ -> false), p "constant_array_int2");
            ((function [| WR _; WI _; WI _ |] -> true | _ -> false), p "constant_array_real2") ]
  | "RandomReal" ->
    cases [ ((fun s -> Array.length s = 0), p "random_real");
            ((function [| WT _ |] -> true | _ -> false), p "random_real_range") ]
  | "RandomInteger" -> cases [ (i1, p "random_integer") ]
  | "Reverse" -> p "array_reverse"
  | "Join" -> p "array_join"
  | "Append" -> p "array_append"
  | "Take" -> p "array_take"
  | _ -> fun _ -> bad_op op

(* Hot opcodes get dedicated dispatchers (value-shape match + boxing only);
   everything else falls back to the generic shape dispatch. *)
let () =
  let fallthrough name =
    let d = op_shape_dispatch name in
    fun regs (srcs : int array) -> d (Array.map (fun s -> regs.(s)) srcs)
  in
  (* the hot opcodes run the scalar functions of the primitive table's rows *)
  let form base =
    match (Prims.find base).scalar with
    | Some f -> f
    | None -> invalid_arg ("WVM: no scalar form for " ^ base)
  in
  let int_fn base = match form base with Int2 f | Num2 (f, _) -> f | _ -> invalid_arg base in
  let real_fn base = match form base with Real2 f | Num2 (_, f) -> f | _ -> invalid_arg base in
  (* [ibase] on two Integer64 operands, [rbase] on any other two numbers *)
  let num2 name ibase rbase =
    let fallthrough = fallthrough name and fi = int_fn ibase and fr = real_fn rbase in
    fun regs (srcs : int array) ->
    match regs.(srcs.(0)), regs.(srcs.(1)) with
    | WI a, WI b -> WI (fi a b)
    | WR a, WR b -> WR (fr a b)
    | WI a, WR b -> WR (fr (float_of_int a) b)
    | WR a, WI b -> WR (fr a (float_of_int b))
    | _ -> fallthrough regs srcs
  in
  let cmp2 name base =
    let fallthrough = fallthrough name in
    let ci, cr = match form base with Cmp2 (ci, cr) -> (ci, cr) | _ -> invalid_arg base in
    fun regs srcs ->
    match regs.(srcs.(0)), regs.(srcs.(1)) with
    | WI a, WI b -> WB (ci a b)
    | WR a, WR b -> WB (cr a b)
    | WI a, WR b -> WB (cr (float_of_int a) b)
    | WR a, WI b -> WB (cr a (float_of_int b))
    | _ -> fallthrough regs srcs
  in
  let int2 name base =
    let fallthrough = fallthrough name and f = int_fn base in
    fun regs srcs ->
    match regs.(srcs.(0)), regs.(srcs.(1)) with
    | WI a, WI b -> WI (f a b)
    | _ -> fallthrough regs srcs
  in
  let real1 name base =
    let fallthrough = fallthrough name in
    let f = match form base with Real1 f -> f | _ -> invalid_arg base in
    fun regs srcs -> match regs.(srcs.(0)) with WR x -> WR (f x) | _ -> fallthrough regs srcs
  in
  let dispatch = function
    | "Plus" -> num2 "Plus" "checked_binary_plus" "binary_plus"
    | "Subtract" -> num2 "Subtract" "checked_binary_subtract" "binary_subtract"
    | "Times" -> num2 "Times" "checked_binary_times" "binary_times"
    | "Mod" -> int2 "Mod" "checked_binary_mod"
    | "Quotient" -> int2 "Quotient" "checked_binary_quotient"
    | "BitAnd" -> int2 "BitAnd" "binary_bitand"
    | "BitOr" -> int2 "BitOr" "binary_bitor"
    | "BitXor" -> int2 "BitXor" "binary_bitxor"
    | "Divide" ->
      let fallthrough = fallthrough "Divide" and f = real_fn "binary_divide" in
      (fun regs srcs ->
         match regs.(srcs.(0)), regs.(srcs.(1)) with
         | WR a, WR b -> WR (f a b)
         | _ -> fallthrough regs srcs)
    | "Less" -> cmp2 "Less" "binary_less"
    | "Greater" -> cmp2 "Greater" "binary_greater"
    | "LessEqual" -> cmp2 "LessEqual" "binary_less_equal"
    | "GreaterEqual" -> cmp2 "GreaterEqual" "binary_greater_equal"
    | "Equal" -> cmp2 "Equal" "binary_equal"
    | "Unequal" -> cmp2 "Unequal" "binary_unequal"
    | "Part" ->
      let fallthrough = fallthrough "Part" in
      (fun regs srcs ->
         match Array.length srcs with
         | 2 ->
           (match regs.(srcs.(0)), regs.(srcs.(1)) with
            | WT t, WI i when Tensor.rank t = 1 ->
              let j = Tensor.normalize_index t i in
              if Tensor.is_int t then WI (Tensor.get_int t j) else WR (Tensor.get_real t j)
            | _ -> fallthrough regs srcs)
         | 3 ->
           (match regs.(srcs.(0)), regs.(srcs.(1)), regs.(srcs.(2)) with
            | WT t, WI i, WI k when Tensor.rank t = 2 ->
              let j = Tensor.flat_index2 t i k in
              if Tensor.is_int t then WI (Tensor.get_int t j) else WR (Tensor.get_real t j)
            | _ -> fallthrough regs srcs)
         | _ -> fallthrough regs srcs)
    | "SetPart" ->
      let fallthrough = fallthrough "SetPart" in
      (* [Prims.set_flat]'s store, on the register's value without boxing it *)
      let store t j = function
        | WI x -> Tensor.set_int t j x
        | WR x -> Tensor.set_real t j x
        | _ -> raise (Errors.Runtime_error (Errors.Invalid_runtime_argument "SetPart value"))
      in
      (fun regs srcs ->
         match Array.length srcs with
         | 3 ->
           (match regs.(srcs.(0)), regs.(srcs.(1)) with
            | WT t, WI i when Tensor.rank t = 1 ->
              let t = Tensor.ensure_unique t in
              store t (Tensor.normalize_index t i) regs.(srcs.(2));
              WT t
            | _ -> fallthrough regs srcs)
         | 4 ->
           (match regs.(srcs.(0)), regs.(srcs.(1)), regs.(srcs.(2)) with
            | WT t, WI i, WI k when Tensor.rank t = 2 ->
              let t = Tensor.ensure_unique t in
              store t (Tensor.flat_index2 t i k) regs.(srcs.(3));
              WT t
            | _ -> fallthrough regs srcs)
         | _ -> fallthrough regs srcs)
    | "Length" ->
      let fallthrough = fallthrough "Length" in
      (fun regs srcs ->
         match regs.(srcs.(0)) with
         | WT t -> WI (Tensor.dims t).(0)
         | _ -> fallthrough regs srcs)
    | "Sin" -> real1 "Sin" "unary_sin"
    | "Cos" -> real1 "Cos" "unary_cos"
    | "Min" -> num2 "Min" "binary_min" "binary_min"
    | "Max" -> num2 "Max" "binary_max" "binary_max"
    | other -> fallthrough other
  in
  resolve_op_ref := dispatch

let truthy = function
  | WB b -> b
  | WE e -> Expr.is_true e
  | _ -> raise (Errors.Runtime_error (Errors.Invalid_runtime_argument "WVM condition"))

(* Copy-on-read: a register-to-register move of a tensor copies it (paper
   §2.2: "the bytecode compiler performs copying on read", and "too much
   copying can be a major performance limiting factor").  Indexed updates
   write their result register directly, so loops do not pay this per
   element. *)
let read_for_move = function
  | WT t -> WT (Tensor.copy t)
  | v -> v

let call_values cf (args : Rtval.t array) : Rtval.t =
  if Array.length args <> Array.length cf.params then
    raise (Errors.Runtime_error (Errors.Invalid_runtime_argument "WVM arity"));
  let regs = Array.make (max cf.nregs 1) WNull in
  let pc = ref 0 in
  let result = ref WNull in
  let running = ref true in
  let code = cf.code in
  while !running do
    (match code.(!pc) with
     | LoadArg { dst; index; assume_real } ->
       let v = of_rt args.(index) in
       regs.(dst) <-
         (match v, assume_real with
          | WI i, true -> WR (float_of_int i)  (* untyped arguments assume Real *)
          | WT t, _ -> WT (Tensor.copy t)      (* copy-on-read at entry *)
          | v, _ -> v);
       incr pc
     | ConstV { dst; v } ->
       regs.(dst) <- (match v with WT t -> WT (Tensor.copy t) | v -> v);
       incr pc
     | Move { dst; src } ->
       regs.(dst) <- read_for_move regs.(src);
       incr pc
     | Op { dst; fn; srcs; _ } ->
       regs.(dst) <- fn regs srcs;
       incr pc
     | JumpIfFalse { src; target } ->
       if truthy regs.(src) then incr pc else pc := target
     | Goto { target } -> pc := target
     | Poll p ->
       p.budget <- p.budget - 1;
       if p.budget <= 0 then begin
         p.budget <- p.stride;
         Abort_signal.check ()
       end;
       incr pc
     | EvalEscape { dst; expr; env } ->
       let bindings =
         List.map (fun (s, r) -> (s, wval_to_expr regs.(r))) env
       in
       let substituted = Pattern.substitute bindings expr in
       regs.(dst) <- wval_of_expr (Hooks.eval substituted);
       incr pc
     | Ret { src } ->
       result := regs.(src);
       running := false)
  done;
  to_rt !result

let call cf (args : Expr.t array) : Expr.t =
  match call_values cf (Array.map Rtval.of_expr args) with
  | v -> Rtval.to_expr v
  | exception Errors.Runtime_error _ ->
    (* soft failure: revert to the interpreter (F2) *)
    Hooks.eval (Expr.Normal (cf.wsource, args))

(* ------------------------------------------------------------------ *)
(* Image serialization (the persistent compile cache stores WVM images).

   [winstr] is not marshalable as-is: [Op.fn] is a closure.  It is,
   however, a pure function of the opcode name, so images are written
   through a data-only twin of the instruction set and [fn] is rebuilt
   with [resolve_op] on load.  Symbols marshal as dead copies (equality
   is physical), so parameter/escape-environment symbols travel by name
   and every embedded expression is re-interned on load.  [Poll.budget]
   is live countdown state and restarts at [stride]. *)

type sinstr =
  | SLoadArg of int * int * bool
  | SConstV of int * wval
  | SMove of int * int
  | SOp of int * string * int array
  | SJumpIfFalse of int * int
  | SGoto of int
  | SPoll of int
  | SEvalEscape of int * Expr.t * (string * int) list
  | SRet of int

type simage = {
  s_version : int;
  s_name : string;
  s_params : (string * string) array;
  s_code : sinstr array;
  s_nregs : int;
  s_source : Expr.t;
}

let image_version = 1

let serialize cf =
  let instr_out = function
    | LoadArg { dst; index; assume_real } -> SLoadArg (dst, index, assume_real)
    | ConstV { dst; v } -> SConstV (dst, v)
    | Move { dst; src } -> SMove (dst, src)
    | Op { dst; op; srcs; _ } -> SOp (dst, op, srcs)
    | JumpIfFalse { src; target } -> SJumpIfFalse (src, target)
    | Goto { target } -> SGoto target
    | Poll { stride; _ } -> SPoll stride
    | EvalEscape { dst; expr; env } ->
      SEvalEscape (dst, expr, List.map (fun (s, r) -> (Symbol.name s, r)) env)
    | Ret { src } -> SRet src
  in
  let img =
    { s_version = image_version; s_name = cf.wname;
      s_params = Array.map (fun (s, tag) -> (Symbol.name s, tag)) cf.params;
      s_code = Array.map instr_out cf.code; s_nregs = cf.nregs;
      s_source = cf.wsource }
  in
  Marshal.to_string img []

let deserialize data =
  match (Marshal.from_string data 0 : simage) with
  | exception _ -> None
  | img ->
    if img.s_version <> image_version then None
    else begin
      let reintern_wval = function
        | WE e -> WE (Expr.reintern e)
        | v -> v
      in
      let instr_in = function
        | SLoadArg (dst, index, assume_real) -> LoadArg { dst; index; assume_real }
        | SConstV (dst, v) -> ConstV { dst; v = reintern_wval v }
        | SMove (dst, src) -> Move { dst; src }
        | SOp (dst, op, srcs) -> Op { dst; op; fn = resolve_op op; srcs }
        | SJumpIfFalse (src, target) -> JumpIfFalse { src; target }
        | SGoto target -> Goto { target }
        | SPoll stride -> Poll { stride; budget = stride }
        | SEvalEscape (dst, expr, env) ->
          EvalEscape
            { dst; expr = Expr.reintern expr;
              env = List.map (fun (n, r) -> (Symbol.intern n, r)) env }
        | SRet src -> Ret { src }
      in
      let cf =
        { wname = img.s_name;
          params =
            Array.map (fun (n, tag) -> (Symbol.intern n, tag)) img.s_params;
          code = Array.map instr_in img.s_code; nregs = img.s_nregs;
          wsource = Expr.reintern img.s_source }
      in
      match verify cf with () -> Some cf | exception _ -> None
    end

let arity cf = Array.length cf.params
let instruction_count cf = Array.length cf.code

let dump cf =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "CompiledFunction[{11, 12, 5468}, {%s},\n"
       (String.concat ", "
          (Array.to_list (Array.map (fun (_, tag) -> "_" ^ tag) cf.params))));
  Array.iteri
    (fun i instr ->
       let text =
         match instr with
         | LoadArg { dst; index; _ } -> Printf.sprintf "{3, %d, %d} (* LoadArg *)" index dst
         | ConstV { dst; _ } -> Printf.sprintf "{4, _, %d} (* Const *)" dst
         | Move { dst; src } -> Printf.sprintf "{5, %d, %d} (* Move *)" src dst
         | Op { dst; op; srcs; _ } ->
           Printf.sprintf "{40, %s, %s, %d} (* %s Op *)" op
             (String.concat ", " (Array.to_list (Array.map string_of_int srcs)))
             dst op
         | JumpIfFalse { src; target } ->
           Printf.sprintf "{30, %d, %d} (* JumpIfFalse *)" src target
         | Goto { target } -> Printf.sprintf "{31, %d} (* Goto *)" target
         | Poll { stride; _ } -> Printf.sprintf "{32, %d} (* Poll *)" stride
         | EvalEscape { dst; _ } -> Printf.sprintf "{90, %d} (* EvalExpr *)" dst
         | Ret { src } -> Printf.sprintf "{1, %d} (* Return *)" src
       in
       Buffer.add_string b (Printf.sprintf "  %3d | %s\n" i text))
    cf.code;
  Buffer.add_string b
    (Printf.sprintf "  %s, Evaluate]\n" (Form.input_form cf.wsource));
  Buffer.contents b
