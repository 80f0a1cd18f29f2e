let overflow () = raise (Errors.Runtime_error Errors.Integer_overflow)
let div_zero () = raise (Errors.Runtime_error Errors.Division_by_zero)

(* Overflow iff operands share a sign that the sum does not. *)
let[@inline] add_overflows a b s = (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0)
let[@inline] sub_overflows a b s = (a >= 0) <> (b >= 0) && (s >= 0) <> (a >= 0)

(* The exact test divides; it runs only when an operand lies outside
   [-2^30, 2^30), where the product may not fit in 63 bits. *)
let[@inline never] mul_overflows_exact a b p =
  a <> 0 && b <> 0 && (p / b <> a || (a = -1 && b = min_int) || (b = -1 && a = min_int))

let[@inline] mul_overflows a b p =
  ((a + 0x4000_0000) lor (b + 0x4000_0000)) lsr 31 <> 0 && mul_overflows_exact a b p

let add_opt a b = let s = a + b in if add_overflows a b s then None else Some s
let sub_opt a b = let s = a - b in if sub_overflows a b s then None else Some s
let mul_opt a b = let p = a * b in if mul_overflows a b p then None else Some p

(* the raising forms build no option: compiled code runs them on every
   machine-integer add, subtract and multiply *)
let add a b = let s = a + b in if add_overflows a b s then overflow () else s
let sub a b = let s = a - b in if sub_overflows a b s then overflow () else s
let mul a b = let p = a * b in if mul_overflows a b p then overflow () else p
let neg a = if a = min_int then overflow () else -a

(* Wolfram's Quotient is floored division *)
let quotient a b =
  if b = 0 then div_zero ()
  else if a = min_int && b = -1 then overflow ()
  else begin
    let q = a / b in
    if (a < 0) <> (b < 0) && a mod b <> 0 then q - 1 else q
  end

let modulo a b =
  if b = 0 then div_zero ()
  else begin
    (* Wolfram's Mod has the sign of the divisor. *)
    let r = a mod b in
    if r <> 0 && (r < 0) <> (b < 0) then r + b else r
  end

(* Round half to even, as Wolfram's Round *)
let round_half_even r =
  let f = Float.rem r 1.0 in
  if Float.abs f = 0.5 then int_of_float (2.0 *. Float.round (r /. 2.0))
  else int_of_float (Float.round r)

let pow b e =
  if e < 0 then raise (Errors.Runtime_error (Errors.Invalid_runtime_argument "Power: negative exponent"));
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      if e lsr 1 = 0 then acc else go acc (mul b b) (e lsr 1)
    end
  in
  go 1 b e
