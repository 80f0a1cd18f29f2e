open Wir

let ty_suffix v =
  match v.vty with
  | Some t -> ":" ^ Types.to_string t
  | None -> ""

let var_to_string v = Printf.sprintf "%%%d%s" v.vid (ty_suffix v)
let var_ref v = Printf.sprintf "%%%d" v.vid

let const_to_string = function
  | Cvoid -> "Null"
  | Cint i -> string_of_int i
  | Creal r -> Printf.sprintf "%.17g" r
  | Cbool b -> if b then "True" else "False"
  | Cstr s -> Printf.sprintf "%S" s
  | Cexpr e -> Printf.sprintf "<<%s>>" (Wolf_wexpr.Form.input_form e)

let operand_to_string = function
  | Ovar v -> var_ref v
  | Oconst c -> const_to_string c

let callee_to_string = function
  | Prim name -> name
  | Resolved { mangled; _ } -> Printf.sprintf "Native`PrimitiveFunction[%s]" mangled
  | Func name -> name
  | Indirect op -> Printf.sprintf "*%s" (operand_to_string op)

let args_to_string args =
  String.concat ", " (Array.to_list (Array.map operand_to_string args))

let instr_to_string = function
  | Load_argument { dst; index } ->
    Printf.sprintf "%s = LoadArgument arg%d" (var_to_string dst) index
  | Copy { dst; src } ->
    Printf.sprintf "%s = Copy %s" (var_to_string dst) (operand_to_string src)
  | Call { dst; callee; args } ->
    Printf.sprintf "%s = Call %s [%s]" (var_to_string dst) (callee_to_string callee)
      (args_to_string args)
  | New_closure { dst; fname; captured } ->
    Printf.sprintf "%s = NewClosure %s [%s]" (var_to_string dst) fname
      (args_to_string captured)
  | Kernel_call { dst; head; args } ->
    Printf.sprintf "%s = KernelCall %s [%s]" (var_to_string dst)
      (Wolf_wexpr.Form.input_form head) (args_to_string args)
  | Abort_check -> "AbortCheck"
  | Abort_poll { stride; site } -> Printf.sprintf "AbortPoll stride=%d site=%d" stride site
  | Mem_acquire op -> Printf.sprintf "MemoryAcquire %s" (operand_to_string op)
  | Mem_release op -> Printf.sprintf "MemoryRelease %s" (operand_to_string op)

let jump_to_string j =
  if Array.length j.jargs = 0 then Printf.sprintf "b%d" j.target
  else Printf.sprintf "b%d(%s)" j.target (args_to_string j.jargs)

let term_to_string = function
  | Jump j -> Printf.sprintf "Jump %s" (jump_to_string j)
  | Branch { cond; if_true; if_false } ->
    Printf.sprintf "Branch %s ? %s : %s" (operand_to_string cond)
      (jump_to_string if_true) (jump_to_string if_false)
  | Return op -> Printf.sprintf "Return %s" (operand_to_string op)
  | Unreachable -> "Unreachable"

let block_to_string b =
  let params =
    if Array.length b.bparams = 0 then ""
    else
      Printf.sprintf "(%s)"
        (String.concat ", " (Array.to_list (Array.map var_to_string b.bparams)))
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "b%d%s:\n" b.label params);
  List.iter
    (fun i -> Buffer.add_string buf (Printf.sprintf "  | %s\n" (instr_to_string i)))
    b.instrs;
  Buffer.add_string buf (Printf.sprintf "  | %s\n" (term_to_string b.term));
  Buffer.contents buf

let func_to_string f =
  let buf = Buffer.create 1024 in
  let sig_ =
    match f.ret_ty with
    | Some ret ->
      Printf.sprintf " : (%s) -> %s"
        (String.concat ", "
           (Array.to_list
              (Array.map
                 (fun v ->
                    match v.vty with
                    | Some t -> Types.to_string t
                    | None -> "?")
                 f.fparams)))
        (Types.to_string ret)
    | None -> ""
  in
  Buffer.add_string buf
    (Printf.sprintf "%s%s  (* inline=%b *)\n" f.fname sig_ f.finline);
  List.iter (fun b -> Buffer.add_string buf (block_to_string b)) f.blocks;
  Buffer.contents buf

let program_to_string p =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s::%s=%s\n" "Main" k v))
    p.pmeta;
  List.iteri
    (fun i f ->
       if i > 0 then Buffer.add_char buf '\n';
       Buffer.add_string buf (func_to_string f))
    p.funcs;
  Buffer.contents buf
