open Wolf_wexpr
open Wolf_base

(* Fold a commutative numeric operation over evaluated arguments; returns
   None (symbolic residue) as soon as a non-numeric operand appears.  The
   numeric prefix is still folded: Plus[1, 2, x] -> Plus[3, x]. *)
let fold_numeric name op identity _ev args =
  match Array.length args with
  | 0 -> Some identity
  | 1 -> Some args.(0)
  | _ ->
    let numeric, symbolic =
      Array.to_list args |> List.partition Numeric.is_numeric
    in
    (match numeric with
     | [] -> None
     | first :: rest ->
       let folded =
         List.fold_left
           (fun acc x ->
              match op acc x with
              | Some v -> v
              | None -> Errors.eval_errorf "%s: numeric failure" name)
           first rest
       in
       (match symbolic with
        | [] -> Some folded
        | _ ->
          if List.length numeric <= 1 then None
          else Some (Expr.normal (Expr.sym name) (folded :: symbolic))))

let real_fn name f =
  Eval.register name ~attrs:[ Attributes.Listable; Attributes.Numeric_function ]
    (fun _ args ->
       match args with
       | [| Expr.Tensor t |] -> Some (Expr.Tensor (Tensor.map_real f t))
       | [| a |] ->
         (match a with
          | Expr.Real r -> Some (Expr.Real (f r))
          | Expr.Int i -> Some (Expr.Real (f (float_of_int i)))
          | _ -> None)
       | _ -> None)

let int2_fn name f =
  Eval.register name ~attrs:[ Attributes.Listable ] (fun _ args ->
      match args with
      | [| a; b |] ->
        (match Expr.int_of a, Expr.int_of b with
         | Some x, Some y -> Some (f x y)
         | _ -> None)
      | _ -> None)

let comparison name cmp =
  Eval.register name (fun _ args ->
      if Array.length args < 2 then None
      else begin
        (* n-ary chains: a < b < c *)
        let ok = ref true and known = ref true in
        for i = 0 to Array.length args - 2 do
          match Numeric.compare2 args.(i) args.(i + 1) with
          | Some c -> if not (cmp c) then ok := false
          | None ->
            (match args.(i), args.(i + 1) with
             | Expr.Str x, Expr.Str y when name = "Equal" || name = "Unequal" ->
               if not (cmp (String.compare x y)) then ok := false
             | Expr.Sym x, Expr.Sym y
               when (name = "Equal" || name = "Unequal")
                 && (Expr.is_true args.(i) || Expr.is_false args.(i))
                 && (Expr.is_true args.(i + 1) || Expr.is_false args.(i + 1)) ->
               if not (cmp (compare (Symbol.name x) (Symbol.name y))) then ok := false
             | _ -> known := false)
        done;
        if not !known then None else Some (Expr.bool !ok)
      end)

(* Quotient and Mod of two integers, one of them big: floored, so the
   remainder takes the sign of the divisor; None for a zero divisor *)
let floor_divmod a b =
  let big = function Expr.Int i -> Some (Bignum.of_int i) | Expr.Big x -> Some x | _ -> None in
  match big a, big b with
  | Some a, Some b when not (Bignum.is_zero b) ->
    let q, r = Bignum.divmod a b in
    if Bignum.is_zero r || Bignum.sign r = Bignum.sign b then Some (q, r)
    else Some (Bignum.sub q Bignum.one, Bignum.add r b)
  | _ -> None

let install () =
  Eval.register "Plus"
    ~attrs:[ Attributes.Flat; Attributes.Orderless; Attributes.Listable;
             Attributes.One_identity; Attributes.Numeric_function; Attributes.Protected ]
    (fold_numeric "Plus" Numeric.add2 (Expr.Int 0));
  Eval.register "Times"
    ~attrs:[ Attributes.Flat; Attributes.Orderless; Attributes.Listable;
             Attributes.One_identity; Attributes.Numeric_function; Attributes.Protected ]
    (fold_numeric "Times" Numeric.mul2 (Expr.Int 1));
  Eval.register "Subtract" ~attrs:[ Attributes.Listable ] (fun _ args ->
      match args with
      | [| a; b |] ->
        (match Numeric.sub2 a b with
         | Some v -> Some v
         | None ->
           Some (Expr.apply "Plus" [ a; Expr.apply "Times" [ Expr.Int (-1); b ] ]))
      | _ -> None);
  Eval.register "Minus" ~attrs:[ Attributes.Listable ] (fun _ args ->
      match args with
      | [| a |] ->
        (match Numeric.neg a with
         | Some v -> Some v
         | None -> Some (Expr.apply "Times" [ Expr.Int (-1); a ]))
      | _ -> None);
  Eval.register "Divide" ~attrs:[ Attributes.Listable ] (fun _ args ->
      match args with
      | [| a; b |] -> Numeric.div2 a b
      | _ -> None);
  Eval.register "Power"
    ~attrs:[ Attributes.Listable; Attributes.One_identity; Attributes.Numeric_function ]
    (fun _ args ->
       match args with
       | [| a; b |] -> Numeric.pow2 a b
       | _ -> None);
  Eval.register "Abs" ~attrs:[ Attributes.Listable ] (fun _ args ->
      match args with [| a |] -> Numeric.abs a | _ -> None);
  Eval.register "Mod" ~attrs:[ Attributes.Listable ] (fun _ args ->
      match args with
      | [| a; b |] ->
        (match Expr.int_of a, Expr.int_of b with
         | Some x, Some y when y <> 0 -> Some (Expr.Int (Checked.modulo x y))
         | _ ->
           (match floor_divmod a b, Expr.float_of a, Expr.float_of b with
            | Some (_, r), _, _ -> Some (Numeric.of_big r)
            | None, Some x, Some y when y <> 0.0 ->
              let r = Float.rem x y in
              let r = if r <> 0.0 && (r < 0.0) <> (y < 0.0) then r +. y else r in
              Some (Expr.Real r)
            | _ -> None))
      | _ -> None);
  Eval.register "Quotient" ~attrs:[ Attributes.Listable ] (fun _ args ->
      match args with
      | [| a; b |] ->
        (match Expr.int_of a, Expr.int_of b with
         | Some x, Some -1 when x = min_int ->
           (* the one quotient outside the machine range *)
           Some (Expr.big (Bignum.neg (Bignum.of_int x)))
         | Some x, Some y when y <> 0 ->
           (* Wolfram Quotient is floor division *)
           let q = if (x < 0) <> (y < 0) && x mod y <> 0 then (x / y) - 1 else x / y in
           Some (Expr.Int q)
         | _ -> Option.map (fun (q, _) -> Numeric.of_big q) (floor_divmod a b))
      | _ -> None);
  Eval.register "Min" ~attrs:[ Attributes.Flat; Attributes.Orderless ] (fun _ args ->
      if Array.length args = 0 then None
      else begin
        let args =
          Array.to_list args
          |> List.concat_map (function
              | Expr.Normal (Expr.Sym l, xs) when Symbol.equal l Expr.Sy.list ->
                Array.to_list xs
              | Expr.Tensor t ->
                List.init (Tensor.flat_length t) (fun i ->
                    if Tensor.is_int t then Expr.Int (Tensor.get_int t i)
                    else Expr.Real (Tensor.get_real t i))
              | a -> [ a ])
        in
        let rec go acc = function
          | [] -> Some acc
          | x :: rest ->
            (match Numeric.compare2 x acc with
             | Some c -> go (if c < 0 then x else acc) rest
             | None -> None)
        in
        match args with [] -> None | first :: rest -> go first rest
      end);
  Eval.register "Max" ~attrs:[ Attributes.Flat; Attributes.Orderless ] (fun _ args ->
      if Array.length args = 0 then None
      else begin
        let args =
          Array.to_list args
          |> List.concat_map (function
              | Expr.Normal (Expr.Sym l, xs) when Symbol.equal l Expr.Sy.list ->
                Array.to_list xs
              | Expr.Tensor t ->
                List.init (Tensor.flat_length t) (fun i ->
                    if Tensor.is_int t then Expr.Int (Tensor.get_int t i)
                    else Expr.Real (Tensor.get_real t i))
              | a -> [ a ])
        in
        let rec go acc = function
          | [] -> Some acc
          | x :: rest ->
            (match Numeric.compare2 x acc with
             | Some c -> go (if c > 0 then x else acc) rest
             | None -> None)
        in
        match args with [] -> None | first :: rest -> go first rest
      end);
  Eval.register "Floor" ~attrs:[ Attributes.Listable ] (fun _ args ->
      match args with
      | [| Expr.Real r |] -> Some (Expr.Int (int_of_float (Float.floor r)))
      | [| (Expr.Int _ | Expr.Big _) as i |] -> Some i
      | _ -> None);
  Eval.register "Ceiling" ~attrs:[ Attributes.Listable ] (fun _ args ->
      match args with
      | [| Expr.Real r |] -> Some (Expr.Int (int_of_float (Float.ceil r)))
      | [| (Expr.Int _ | Expr.Big _) as i |] -> Some i
      | _ -> None);
  Eval.register "Round" ~attrs:[ Attributes.Listable ] (fun _ args ->
      match args with
      | [| Expr.Real r |] -> Some (Expr.Int (Checked.round_half_even r))
      | [| (Expr.Int _ | Expr.Big _) as i |] -> Some i
      | _ -> None);
  Eval.register "IntegerPart" ~attrs:[ Attributes.Listable ] (fun _ args ->
      match args with
      | [| Expr.Real r |] -> Some (Expr.Int (int_of_float (Float.trunc r)))
      | [| (Expr.Int _ | Expr.Big _) as i |] -> Some i
      | _ -> None);
  Eval.register "Sqrt" ~attrs:[ Attributes.Listable ] (fun _ args ->
      match args with
      | [| Expr.Int i |] when i >= 0 ->
        let r = int_of_float (Float.sqrt (float_of_int i)) in
        if r * r = i then Some (Expr.Int r)
        else Some (Expr.Real (Float.sqrt (float_of_int i)))
      | [| a |] ->
        (match Expr.float_of a with
         | Some r when not (r < 0.0) -> Some (Expr.Real (Float.sqrt r))  (* NaN too *)
         | _ -> None)
      | _ -> None);
  real_fn "Sin" sin;
  real_fn "Cos" cos;
  real_fn "Tan" tan;
  real_fn "ArcTan" atan;
  real_fn "ArcSin" asin;
  real_fn "ArcCos" acos;
  real_fn "Exp" exp;
  real_fn "Log" log;
  int2_fn "BitAnd" (fun a b -> Expr.Int (a land b));
  int2_fn "BitOr" (fun a b -> Expr.Int (a lor b));
  int2_fn "BitXor" (fun a b -> Expr.Int (a lxor b));
  int2_fn "BitShiftLeft" (fun a b -> Expr.Int (a lsl b));
  int2_fn "BitShiftRight" (fun a b -> Expr.Int (a asr b));
  comparison "Less" (fun c -> c < 0);
  comparison "Greater" (fun c -> c > 0);
  comparison "LessEqual" (fun c -> c <= 0);
  comparison "GreaterEqual" (fun c -> c >= 0);
  comparison "Equal" (fun c -> c = 0);
  comparison "Unequal" (fun c -> c <> 0);
  Eval.register "And" ~attrs:[ Attributes.Hold_all; Attributes.Flat ] (fun ev args ->
      let rec go i =
        if i >= Array.length args then Some Expr.true_
        else begin
          let v = ev args.(i) in
          if Expr.is_false v then Some Expr.false_
          else if Expr.is_true v then go (i + 1)
          else None
        end
      in
      go 0);
  Eval.register "Or" ~attrs:[ Attributes.Hold_all; Attributes.Flat ] (fun ev args ->
      let rec go i =
        if i >= Array.length args then Some Expr.false_
        else begin
          let v = ev args.(i) in
          if Expr.is_true v then Some Expr.true_
          else if Expr.is_false v then go (i + 1)
          else None
        end
      in
      go 0);
  Eval.register "Not" (fun _ args ->
      match args with
      | [| v |] ->
        if Expr.is_true v then Some Expr.false_
        else if Expr.is_false v then Some Expr.true_
        else None
      | _ -> None);
  Eval.register "Boole" ~attrs:[ Attributes.Listable ] (fun _ args ->
      match args with
      | [| v |] ->
        if Expr.is_true v then Some (Expr.Int 1)
        else if Expr.is_false v then Some (Expr.Int 0)
        else None
      | _ -> None);
  let parity name want =
    Eval.register name ~attrs:[ Attributes.Listable ] (fun _ args ->
        match args with
        | [| Expr.Int i |] -> Some (Expr.bool (i land 1 = want))
        | [| Expr.Big b |] ->
          let _, r = Bignum.divmod b (Bignum.of_int 2) in
          Some (Expr.bool (Bignum.is_zero r = (want = 0)))
        | [| _ |] -> Some Expr.false_
        | _ -> None)
  in
  parity "EvenQ" 0;
  parity "OddQ" 1;
  Eval.register "N" (fun _ args ->
      match args with
      | [| a |] -> Numeric.to_real a
      | _ -> None);
  Eval.register "Re" ~attrs:[ Attributes.Listable ] (fun _ args ->
      match args with
      | [| Expr.Normal (Expr.Sym c, [| re; _ |]) |] when Symbol.equal c Expr.Sy.complex ->
        Some re
      | [| (Expr.Int _ | Expr.Big _ | Expr.Real _) as a |] -> Some a
      | _ -> None);
  Eval.register "Im" ~attrs:[ Attributes.Listable ] (fun _ args ->
      match args with
      | [| Expr.Normal (Expr.Sym c, [| _; im |]) |] when Symbol.equal c Expr.Sy.complex ->
        Some im
      | [| Expr.Int _ | Expr.Big _ |] -> Some (Expr.Int 0)
      | [| Expr.Real _ |] -> Some (Expr.Real 0.0)
      | _ -> None);
  Eval.register "PrimeQ" ~attrs:[ Attributes.Listable ] (fun _ args ->
      match args with
      | [| a |] ->
        (match Expr.int_of a with
         | Some n ->
           let n = abs n in
           if n < 2 then Some Expr.false_
           else if n < 4 then Some Expr.true_
           else if n mod 2 = 0 then Some Expr.false_
           else begin
             let rec go d =
               if d * d > n then true
               else if n mod d = 0 then false
               else go (d + 2)
             in
             Some (Expr.bool (go 3))
           end
         | None -> None)
      | _ -> None);
  (* Symbolic constants are treated numerically (DESIGN.md: we reproduce the
     compiler, not the CAS). *)
  Values.set_own_value (Symbol.intern "Pi") (Expr.Real Float.pi);
  Values.set_own_value (Symbol.intern "E") (Expr.Real (Float.exp 1.0))
