(* Hand-written implementations — the "highly tuned hand-written C" every
   Figure 2 bar is normalised against (DESIGN.md substitution: hand-written
   OCaml over unboxed arrays plays that role).  Dot calls the same dgemm
   kernel as every other path, reproducing the paper's MKL setup. *)

open Wolf_wexpr

let fnv1a (s : string) =
  let hash = ref 2166136261 in
  for i = 0 to String.length s - 1 do
    hash := ((!hash lxor Char.code (String.unsafe_get s i)) * 16777619) land 0xFFFFFFFF
  done;
  !hash

let mandelbrot x0 x1 y0 y1 step =
  let total = ref 0 in
  let x = ref x0 in
  while !x <= x1 do
    let y = ref y0 in
    while !y <= y1 do
      let zr = ref 0.0 and zi = ref 0.0 and iters = ref 0 in
      while !iters < 1000 && (!zr *. !zr) +. (!zi *. !zi) < 4.0 do
        let t = (!zr *. !zr) -. (!zi *. !zi) +. !x in
        zi := (2.0 *. !zr *. !zi) +. !y;
        zr := t;
        incr iters
      done;
      total := !total + !iters;
      y := !y +. step
    done;
    x := !x +. step
  done;
  !total

let dot a b = Tensor.dot a b

(* the kernels below match the tensor's data once and index the raw array,
   as hand-written C would *)
let reals t = match t.Tensor.data with Tensor.Reals a -> a | Tensor.Ints _ -> invalid_arg "reals"
let ints t = match t.Tensor.data with Tensor.Ints a -> a | Tensor.Reals _ -> invalid_arg "ints"

let blur img n =
  let img = reals img in
  let out = Array.make (n * n) 0.0 in
  let get i j = Array.unsafe_get img ((i * n) + j) in
  for i = 1 to n - 2 do
    for j = 1 to n - 2 do
      out.((i * n) + j) <-
        (get (i - 1) (j - 1) +. (2.0 *. get (i - 1) j) +. get (i - 1) (j + 1)
         +. (2.0 *. get i (j - 1)) +. (4.0 *. get i j) +. (2.0 *. get i (j + 1))
         +. get (i + 1) (j - 1) +. (2.0 *. get (i + 1) j) +. get (i + 1) (j + 1))
        /. 16.0
    done
  done;
  Tensor.create_real [| n; n |] out

let histogram data =
  let data = ints data in
  let bins = Array.make 256 0 in
  for i = 0 to Array.length data - 1 do
    let b = Array.unsafe_get data i in
    bins.(b) <- bins.(b) + 1
  done;
  Tensor.of_int_array bins

let powmod b0 e0 m =
  let result = ref 1 and b = ref (b0 mod m) and e = ref e0 in
  while !e > 0 do
    if !e land 1 = 1 then result := !result * !b mod m;
    b := !b * !b mod m;
    e := !e asr 1
  done;
  !result

let mr_prime k =
  if k < 2 then 0
  else if k < 4 then 1
  else if k land 1 = 0 then 0
  else begin
    let d = ref (k - 1) and s = ref 0 in
    while !d land 1 = 0 do
      d := !d asr 1;
      incr s
    done;
    let witness a =
      if a mod k = 0 then true
      else begin
        let x = ref (powmod a !d k) in
        if !x = 1 || !x = k - 1 then true
        else begin
          let found = ref false and r = ref 1 in
          while !r < !s && not !found do
            x := !x * !x mod k;
            if !x = k - 1 then found := true;
            incr r
          done;
          !found
        end
      end
    in
    if witness 2 && witness 3 then 1 else 0
  end

(* seed-table constant, pasted into the hand-written code like the paper's C *)
let primeq_count ~seed limit =
  let seed = ints seed in
  let seedn = Array.length seed in
  let count = ref 0 in
  for k = 2 to limit do
    if k <= seedn then count := !count + Array.unsafe_get seed (k - 1)
    else count := !count + mr_prime k
  done;
  !count

(* Text-book functional quicksort with a comparator closure and the same
   copying structure as the compiled program (immutability semantics). *)
let rec qsort cmp (lst : int array) =
  let n = Array.length lst in
  if n <= 1 then lst
  else begin
    let pivot = lst.(0) in
    let left = Array.make n 0 and right = Array.make n 0 in
    let nl = ref 0 and nr = ref 0 in
    for i = 1 to n - 1 do
      let v = lst.(i) in
      if cmp v pivot then begin
        left.(!nl) <- v;
        incr nl
      end
      else begin
        right.(!nr) <- v;
        incr nr
      end
    done;
    let ls = qsort cmp (Array.sub left 0 !nl) in
    let rs = qsort cmp (Array.sub right 0 !nr) in
    Array.concat [ ls; [| pivot |]; rs ]
  end

let random_walk len =
  let out = Array.make ((len + 1) * 2) 0.0 in
  let x = ref 0.0 and y = ref 0.0 in
  for i = 1 to len do
    let arg = Wolf_runtime.Rand.uniform_range 0.0 (2.0 *. Float.pi) in
    x := !x -. cos arg;
    y := !y +. sin arg;
    out.(i * 2) <- !x;
    out.((i * 2) + 1) <- !y
  done;
  Tensor.create_real [| len + 1; 2 |] out
