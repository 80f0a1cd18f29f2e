open Wolf_wexpr

type var = {
  vid : int;
  vname : string;
  mutable vty : Types.t option;
}

type const =
  | Cvoid
  | Cint of int
  | Creal of float
  | Cbool of bool
  | Cstr of string
  | Cexpr of Expr.t

type operand =
  | Ovar of var
  | Oconst of const

type callee =
  | Prim of string
  | Resolved of { base : string; mangled : string }
  | Func of string
  | Indirect of operand

type instr =
  | Load_argument of { dst : var; index : int }
  | Copy of { dst : var; src : operand }
  | Call of { dst : var; callee : callee; args : operand array }
  | New_closure of { dst : var; fname : string; captured : operand array }
  | Kernel_call of { dst : var; head : Expr.t; args : operand array }
  | Abort_check
  | Abort_poll of { stride : int; site : int }
  | Mem_acquire of operand
  | Mem_release of operand

type jump = { target : int; jargs : operand array }

type terminator =
  | Jump of jump
  | Branch of { cond : operand; if_true : jump; if_false : jump }
  | Return of operand
  | Unreachable

type block = {
  label : int;
  mutable bparams : var array;
  mutable instrs : instr list;
  mutable term : terminator;
}

type func = {
  fname : string;
  mutable fparams : var array;
  mutable ret_ty : Types.t option;
  mutable blocks : block list;
  mutable finline : bool;
  mutable fsource : Expr.t option;
}

type program = {
  mutable funcs : func list;
  mutable pmeta : (string * string) list;
}

(* SSA variable ids come from one atomic process-wide supply: ids are unique
   across every compilation on every domain, so concurrently-built functions
   can never alias each other's variables.  The old [reset_var_counter]
   (rewinding this supply between compilations) is gone — resetting a shared
   supply while another domain is lowering would hand out duplicate vids;
   callers that want small per-compilation numbering renumber at print time
   instead (see Wir_print). *)
let var_counter = Wolf_base.Id_gen.create ()

let fresh_var ?(name = "v") ?ty () =
  { vid = Wolf_base.Id_gen.next var_counter; vname = name; vty = ty }

let const_ty = function
  | Cvoid -> Types.void
  | Cint _ -> Types.int64
  | Creal _ -> Types.real64
  | Cbool _ -> Types.boolean
  | Cstr _ -> Types.string_
  | Cexpr (Expr.Tensor t) ->
    Types.packed (if Tensor.is_int t then Types.int64 else Types.real64) (Tensor.rank t)
  | Cexpr _ -> Types.expression

let operand_ty = function
  | Ovar v -> v.vty
  | Oconst c -> Some (const_ty c)

let entry f =
  match f.blocks with
  | b :: _ -> b
  | [] -> invalid_arg "Wir.entry: empty function"

let find_block f label =
  match List.find_opt (fun b -> b.label = label) f.blocks with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Wir.find_block: no block %d in %s" label f.fname)

let find_func p name = List.find_opt (fun f -> String.equal f.fname name) p.funcs

let main p =
  match p.funcs with
  | f :: _ -> f
  | [] -> invalid_arg "Wir.main: empty program"

let instr_defs = function
  | Load_argument { dst; _ } | Copy { dst; _ } | Call { dst; _ }
  | New_closure { dst; _ } | Kernel_call { dst; _ } ->
    [ dst ]
  | Abort_check | Abort_poll _ | Mem_acquire _ | Mem_release _ -> []

let instr_uses = function
  | Load_argument _ | Abort_check | Abort_poll _ -> []
  | Copy { src; _ } -> [ src ]
  | Call { callee; args; _ } ->
    let base = Array.to_list args in
    (match callee with Indirect op -> op :: base | Prim _ | Resolved _ | Func _ -> base)
  | New_closure { captured; _ } -> Array.to_list captured
  | Kernel_call { args; _ } -> Array.to_list args
  | Mem_acquire op | Mem_release op -> [ op ]

let iter_instr_defs f = function
  | Load_argument { dst; _ } | Copy { dst; _ } | Call { dst; _ }
  | New_closure { dst; _ } | Kernel_call { dst; _ } ->
    f dst
  | Abort_check | Abort_poll _ | Mem_acquire _ | Mem_release _ -> ()

let iter_instr_uses f = function
  | Load_argument _ | Abort_check | Abort_poll _ -> ()
  | Copy { src; _ } -> f src
  | Call { callee; args; _ } ->
    (match callee with Indirect op -> f op | Prim _ | Resolved _ | Func _ -> ());
    Array.iter f args
  | New_closure { captured = ops; _ } | Kernel_call { args = ops; _ } -> Array.iter f ops
  | Mem_acquire op | Mem_release op -> f op

let iter_term_uses f = function
  | Jump j -> Array.iter f j.jargs
  | Branch { cond; if_true; if_false } ->
    f cond;
    Array.iter f if_true.jargs;
    Array.iter f if_false.jargs
  | Return op -> f op
  | Unreachable -> ()

let jump_uses j = Array.to_list j.jargs

let term_uses = function
  | Jump j -> jump_uses j
  | Branch { cond; if_true; if_false } -> cond :: (jump_uses if_true @ jump_uses if_false)
  | Return op -> [ op ]
  | Unreachable -> []

let successors = function
  | Jump j -> [ j.target ]
  | Branch { if_true; if_false; _ } ->
    if if_true.target = if_false.target then [ if_true.target ]
    else [ if_true.target; if_false.target ]
  | Return _ | Unreachable -> []

let map_instr_operands f = function
  | Load_argument _ as i -> i
  | (Abort_check | Abort_poll _) as i -> i
  | Copy { dst; src } -> Copy { dst; src = f src }
  | Call { dst; callee; args } ->
    let callee = match callee with
      | Indirect op -> Indirect (f op)
      | (Prim _ | Resolved _ | Func _) as c -> c
    in
    Call { dst; callee; args = Array.map f args }
  | New_closure { dst; fname; captured } ->
    New_closure { dst; fname; captured = Array.map f captured }
  | Kernel_call { dst; head; args } -> Kernel_call { dst; head; args = Array.map f args }
  | Mem_acquire op -> Mem_acquire (f op)
  | Mem_release op -> Mem_release (f op)

let map_jump f j = { j with jargs = Array.map f j.jargs }

let map_term_operands f = function
  | Jump j -> Jump (map_jump f j)
  | Branch { cond; if_true; if_false } ->
    Branch { cond = f cond; if_true = map_jump f if_true; if_false = map_jump f if_false }
  | Return op -> Return (f op)
  | Unreachable -> Unreachable

let iter_vars func f =
  Array.iter f func.fparams;
  List.iter
    (fun b ->
       Array.iter f b.bparams;
       List.iter (fun i -> List.iter f (instr_defs i)) b.instrs)
    func.blocks
