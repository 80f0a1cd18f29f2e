open Wolf_base
open Wolf_wexpr
open Wolf_runtime
open Wolf_compiler

type t = {
  cf_name : string;
  arg_tys : Types.t array;
  ret_ty : Types.t;
  cf_source : Expr.t;
  entry : Rtval.closure;
  compiler_version : string;
  engine_version : string;
  fallbacks : int Atomic.t;  (* incremented from any domain calling this function *)
  pipeline : Pipeline.compiled option;
}

let versions = ("1.0.1.0", "12.0")

let quiet = ref false

let wrap ?pipeline ~name ~source ~arg_tys ~ret_ty entry =
  let compiler_version, engine_version = versions in
  {
    cf_name = name;
    arg_tys;
    ret_ty;
    cf_source = source;
    entry;
    compiler_version;
    engine_version;
    fallbacks = Atomic.make 0;
    pipeline;
  }

(* Check and coerce one unboxed argument against its declared type. *)
let admit ty (v : Rtval.t) : Rtval.t option =
  match Types.repr ty, v with
  | Types.Con ("Integer64", _), Rtval.Int _ -> Some v
  | Types.Con ("Real64", _), Rtval.Real _ -> Some v
  | Types.Con ("Real64", _), Rtval.Int i -> Some (Rtval.Real (float_of_int i))
  | Types.Con ("Boolean", _), Rtval.Bool _ -> Some v
  | Types.Con ("String", _), Rtval.Str _ -> Some v
  | Types.Con ("ComplexReal64", _), Rtval.Complex _ -> Some v
  | Types.Con ("ComplexReal64", _), (Rtval.Real _ | Rtval.Int _) ->
    Some (Rtval.Complex (Rtval.as_real v, 0.0))
  | Types.Con ("Expression", _), v -> Some (Rtval.Expr (Rtval.to_expr v))
  | Types.Con ("PackedArray", [| elt; Types.Lit rank |]), Rtval.Tensor t ->
    let elt_ok =
      match Types.repr elt with
      | Types.Con ("Integer64", _) -> Tensor.is_int t
      | Types.Con ("Real64", _) -> not (Tensor.is_int t)
      | _ -> false
    in
    if elt_ok && Tensor.rank t = rank then Some v
    else if (not (Tensor.is_int t)) || rank <> Tensor.rank t then None
    else begin
      (* integer data admitted at Real element type *)
      match Types.repr elt with
      | Types.Con ("Real64", _) -> Some (Rtval.Tensor (Tensor.to_real t))
      | _ -> None
    end
  | _ -> None

let interpret_fallback t args =
  Atomic.incr t.fallbacks;
  Hooks.eval (Expr.Normal (t.cf_source, args))

let admit_all t vals =
  if Array.length vals <> Array.length t.arg_tys then None
  else begin
    let admitted = Array.map2 admit t.arg_tys vals in
    if Array.exists Option.is_none admitted then None else Some (Array.map Option.get admitted)
  end

(* Run the compiled code on admitted values; [None] when it failed
   numerically, reported, so the caller reruns the call uncompiled (F2).
   Packed-array arguments are pinned: the interpreter still owns them, so
   an indexed update inside compiled code must copy (F5). *)
let run t vals =
  let pinned =
    Array.to_list vals |> List.filter_map (function Rtval.Tensor pt -> Some pt | _ -> None)
  in
  List.iter Tensor.acquire pinned;
  let release () = List.iter Tensor.release pinned in
  match t.entry.Rtval.call vals with
  | v -> release (); Some v
  | exception Errors.Runtime_error failure ->
    release ();
    if not !quiet then
      Printf.eprintf
        "CompiledCodeFunction: A compiled code runtime error occurred; \
         reverting to uncompiled evaluation: %s\n%!"
        (Errors.describe_failure failure);
    None
  | exception e -> release (); raise e

let call t (args : Expr.t array) : Expr.t =
  let fresh = versions = (t.compiler_version, t.engine_version) in
  (* stale compiled code: behave like the paper and re-evaluate uncompiled *)
  match if fresh then admit_all t (Array.map Rtval.of_expr args) else None with
  | None -> interpret_fallback t args
  | Some vals ->
    (match run t vals with
     | Some v -> Rtval.to_expr v
     | None -> interpret_fallback t args)

let call_values t args = t.entry.Rtval.call args

let kernel_closure t =
  {
    Rtval.arity = Array.length t.arg_tys;
    call =
      (fun vals ->
         match admit_all t vals with
         | None -> raise (Errors.Runtime_error (Errors.Invalid_runtime_argument "signature"))
         | Some vals ->
           (match run t vals with
            | Some v -> v
            | None -> Rtval.of_expr (interpret_fallback t (Array.map Rtval.to_expr vals))));
  }
