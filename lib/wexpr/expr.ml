type t =
  | Int of int
  | Big of Wolf_base.Bignum.t
  | Real of float
  | Str of string
  | Sym of Symbol.t
  | Tensor of Tensor.t
  | Normal of t * t array

let sym name = Sym (Symbol.intern name)
let int i = Int i
let real r = Real r
let str s = Str s
let big b = Big b

let normal_a h args = Normal (h, args)
let normal h args = Normal (h, Array.of_list args)
let apply name args = normal (sym name) args
let list_a args = Normal (sym "List", args)
let list args = list_a (Array.of_list args)

let true_ = sym "True"
let false_ = sym "False"
let null = sym "Null"
let bool b = if b then true_ else false_

module Sy = struct
  let list = Symbol.intern "List"
  let plus = Symbol.intern "Plus"
  let times = Symbol.intern "Times"
  let power = Symbol.intern "Power"
  let rule = Symbol.intern "Rule"
  let rule_delayed = Symbol.intern "RuleDelayed"
  let blank = Symbol.intern "Blank"
  let blank_sequence = Symbol.intern "BlankSequence"
  let blank_null_sequence = Symbol.intern "BlankNullSequence"
  let pattern = Symbol.intern "Pattern"
  let condition = Symbol.intern "Condition"
  let pattern_test = Symbol.intern "PatternTest"
  let sequence = Symbol.intern "Sequence"
  let function_ = Symbol.intern "Function"
  let slot = Symbol.intern "Slot"
  let true_ = Symbol.intern "True"
  let false_ = Symbol.intern "False"
  let null = Symbol.intern "Null"
  let set = Symbol.intern "Set"
  let set_delayed = Symbol.intern "SetDelayed"
  let if_ = Symbol.intern "If"
  let module_ = Symbol.intern "Module"
  let block = Symbol.intern "Block"
  let with_ = Symbol.intern "With"
  let compound = Symbol.intern "CompoundExpression"
  let typed = Symbol.intern "Typed"
  let part = Symbol.intern "Part"
  let complex = Symbol.intern "Complex"
  let integer = Symbol.intern "Integer"
  let real = Symbol.intern "Real"
  let string = Symbol.intern "String"
  let symbol = Symbol.intern "Symbol"
  let hold = Symbol.intern "Hold"
  let kernel_function = Symbol.intern "KernelFunction"
end

let head = function
  | Int _ | Big _ -> Sym Sy.integer
  | Real _ -> Sym Sy.real
  | Str _ -> Sym Sy.string
  | Sym _ -> Sym Sy.symbol
  | Tensor _ -> Sym Sy.list (* packed arrays present as lists *)
  | Normal (h, _) -> h

let head_name e =
  match head e with
  | Sym s -> Some (Symbol.name s)
  | _ -> None

let is_atom = function Normal _ -> false | _ -> true
let is_true = function Sym s -> Symbol.equal s Sy.true_ | _ -> false
let is_false = function Sym s -> Symbol.equal s Sy.false_ | _ -> false

let args = function Normal (_, a) -> a | _ -> [||]

let int_of = function
  | Int i -> Some i
  | Big b -> Wolf_base.Bignum.to_int_opt b
  | _ -> None

let float_of = function
  | Real r -> Some r
  | Int i -> Some (float_of_int i)
  | Big b ->
    (match Wolf_base.Bignum.to_int_opt b with
     | Some i -> Some (float_of_int i)
     | None -> Some (float_of_string (Wolf_base.Bignum.to_string b)))
  | _ -> None

(* A packed tensor and its unpacked List form are the same expression
   (SameQ), as in the engine: packing is an invisible optimisation. *)
let rec tensor_equals_list t items =
  if Tensor.rank t = 1 then begin
    Tensor.flat_length t = Array.length items
    && (let rec go i =
          i >= Array.length items
          || ((match items.(i) with
               | Int x -> Tensor.is_int t && Tensor.get_int t i = x
               | Real r -> (not (Tensor.is_int t)) && Tensor.get_real t i = r
               | _ -> false)
              && go (i + 1))
        in
        go 0)
  end
  else begin
    (Tensor.dims t).(0) = Array.length items
    && (let rec go i =
          i >= Array.length items
          || ((match items.(i) with
               | Normal (Sym l, sub) when Symbol.equal l Sy.list ->
                 tensor_equals_list (Tensor.slice t i) sub
               | _ -> false)
              && go (i + 1))
        in
        go 0)
  end

and equal a b =
  match a, b with
  | Int x, Int y -> x = y
  | Big x, Big y -> Wolf_base.Bignum.equal x y
  | Int x, Big y | Big y, Int x -> Wolf_base.Bignum.equal y (Wolf_base.Bignum.of_int x)
  | Real x, Real y -> Float.equal x y  (* a NaN is the same as itself *)
  | Str x, Str y -> String.equal x y
  | Sym x, Sym y -> Symbol.equal x y
  | Tensor x, Tensor y -> Tensor.equal x y
  | Tensor t, Normal (Sym l, items) | Normal (Sym l, items), Tensor t
    when Symbol.equal l Sy.list ->
    tensor_equals_list t items
  | Normal (h1, a1), Normal (h2, a2) ->
    Array.length a1 = Array.length a2
    && equal h1 h2
    && (let rec go i = i >= Array.length a1 || (equal a1.(i) a2.(i) && go (i + 1)) in
        go 0)
  | (Int _ | Big _ | Real _ | Str _ | Sym _ | Tensor _ | Normal _), _ -> false

(* Symbol equality is physical (one process-wide intern table), so an
   expression that crossed a process boundary — e.g. unmarshaled from the
   on-disk compile cache — carries symbol copies that compare unequal to
   every live symbol.  Re-intern by name before letting such an expression
   near the kernel.  Atoms other than symbols are plain data and shared. *)
let rec reintern e =
  match e with
  | Sym s -> Sym (Symbol.intern (Symbol.name s))
  | Normal (h, a) -> Normal (reintern h, Array.map reintern a)
  | Int _ | Big _ | Real _ | Str _ | Tensor _ -> e

let class_rank = function
  | Int _ | Big _ | Real _ -> 0
  | Str _ -> 1
  | Sym _ -> 2
  | Tensor _ -> 3
  | Normal _ -> 4

let numeric_value = function
  | Int i -> float_of_int i
  | Real r -> r
  | Big b ->
    (match Wolf_base.Bignum.to_int_opt b with
     | Some i -> float_of_int i
     | None -> float_of_string (Wolf_base.Bignum.to_string b))
  | _ -> assert false

let rec compare a b =
  let ca = class_rank a and cb = class_rank b in
  if ca <> cb then Stdlib.compare ca cb
  else
    match a, b with
    | (Int _ | Big _ | Real _), (Int _ | Big _ | Real _) ->
      Stdlib.compare (numeric_value a) (numeric_value b)
    | Str x, Str y -> String.compare x y
    | Sym x, Sym y -> String.compare (Symbol.name x) (Symbol.name y)
    | Tensor x, Tensor y -> Stdlib.compare (Tensor.dims x) (Tensor.dims y)
    | Normal (h1, a1), Normal (h2, a2) ->
      let c = compare h1 h2 in
      if c <> 0 then c
      else begin
        let la = Array.length a1 and lb = Array.length a2 in
        let c = Stdlib.compare la lb in
        if c <> 0 then c
        else begin
          let rec go i =
            if i >= la then 0
            else begin
              let c = compare a1.(i) a2.(i) in
              if c <> 0 then c else go (i + 1)
            end
          in
          go 0
        end
      end
    | (Int _ | Big _ | Real _ | Str _ | Sym _ | Tensor _ | Normal _), _ ->
      assert false

let rec hash = function
  | Int i -> Hashtbl.hash i
  | Big b -> Wolf_base.Bignum.hash b
  | Real r -> Hashtbl.hash r
  | Str s -> Hashtbl.hash s
  | Sym s -> Symbol.hash s lxor 0x5ca1ab1e
  | Tensor t -> Hashtbl.hash (Tensor.dims t)
  | Normal (h, a) ->
    Array.fold_left (fun acc e -> (acc * 31) + hash e) (hash h * 17) a

(* Only the escapes the lexer undoes: double quote, backslash, newline,
   tab.  OCaml's [%S] writes decimal escapes for bytes outside printable
   ASCII, which the lexer would read as literal digit characters — raw
   bytes round-trip, decimal escapes do not. *)
let pp_string fmt s =
  Format.pp_print_char fmt '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Format.pp_print_string fmt {|\"|}
       | '\\' -> Format.pp_print_string fmt {|\\|}
       | '\n' -> Format.pp_print_string fmt {|\n|}
       | '\t' -> Format.pp_print_string fmt {|\t|}
       | c -> Format.pp_print_char fmt c)
    s;
  Format.pp_print_char fmt '"'

let rec pp fmt = function
  | Int i -> Format.pp_print_int fmt i
  | Big b -> Wolf_base.Bignum.pp fmt b
  | Real r ->
    if Float.is_integer r && Float.abs r < 1e16 then Format.fprintf fmt "%.1f" r
    else Format.fprintf fmt "%.17g" r
  | Str s -> pp_string fmt s
  | Sym s -> Symbol.pp fmt s
  | Tensor t -> pp_tensor fmt t
  | Normal (h, a) ->
    Format.fprintf fmt "%a[%a]" pp h
      (Format.pp_print_array ~pp_sep:(fun f () -> Format.pp_print_string f ", ") pp)
      a

and pp_tensor fmt t =
  (* Printed in unpacked FullForm so results are comparable across paths. *)
  if Tensor.rank t = 1 then begin
    Format.pp_print_string fmt "List[";
    let n = Tensor.flat_length t in
    for i = 0 to n - 1 do
      if i > 0 then Format.pp_print_string fmt ", ";
      if Tensor.is_int t then Format.pp_print_int fmt (Tensor.get_int t i)
      else pp fmt (Real (Tensor.get_real t i))
    done;
    Format.pp_print_string fmt "]"
  end
  else begin
    Format.pp_print_string fmt "List[";
    let n = (Tensor.dims t).(0) in
    for i = 0 to n - 1 do
      if i > 0 then Format.pp_print_string fmt ", ";
      pp_tensor fmt (Tensor.slice t i)
    done;
    Format.pp_print_string fmt "]"
  end

let to_string e = Format.asprintf "%a" pp e
