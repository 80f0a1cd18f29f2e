(* Frozen workload inputs: the Figure-2 kernel sources, their seeded input
   generators, and the wolfd request mix.  The benchmark owns this copy so
   that a change to the repository's own bench programs cannot change what
   two commits are measured on.  Every generator draws from [Rng], a local
   splitmix64, seeded from the workload seed. *)

open Wolf_wexpr

module Rng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int (seed * 0x2545F491 + 0x9E3779B9) }

  let next r =
    r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
    let z = r.s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* uniform in [0, n) *)
  let int r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))
  let float r = Int64.to_float (Int64.shift_right_logical (next r) 11) *. 0x1p-53

  let shuffle r a =
    for i = Array.length a - 1 downto 1 do
      let j = int r (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done
end

(* ------------------------------------------------------------------ *)
(* Kernel sources (paper Figure 2)                                     *)

let fnv1a_src = {|
Function[{Typed[s, "String"]},
 Module[{hash = 2166136261, i = 1, n = StringLength[s]},
  While[i <= n,
   hash = BitAnd[BitXor[hash, StringByte[s, i]] * 16777619, 4294967295];
   i = i + 1];
  hash]]
|}

let mandelbrot_src = {|
Function[{Typed[x0, "Real64"], Typed[x1, "Real64"],
          Typed[y0, "Real64"], Typed[y1, "Real64"], Typed[step, "Real64"]},
 Module[{total = 0, x = x0, y = y0, zr = 0.0, zi = 0.0, t = 0.0, iters = 0},
  While[x <= x1,
   y = y0;
   While[y <= y1,
    zr = 0.0; zi = 0.0; iters = 0;
    While[iters < 1000 && zr*zr + zi*zi < 4.0,
     t = zr*zr - zi*zi + x;
     zi = 2.0*zr*zi + y;
     zr = t;
     iters = iters + 1];
    total = total + iters;
    y = y + step];
   x = x + step];
  total]]
|}

let dot_src = {|
Function[{Typed[a, "PackedArray"["Real64", 2]], Typed[b, "PackedArray"["Real64", 2]]},
 a . b]
|}

let blur_src = {|
Function[{Typed[img, "PackedArray"["Real64", 2]], Typed[n, "MachineInteger"]},
 Module[{out = img*0.0, i = 2, j = 2},
  While[i < n,
   j = 2;
   While[j < n,
    out[[i, j]] =
      (img[[i-1, j-1]] + 2.0*img[[i-1, j]] + img[[i-1, j+1]]
       + 2.0*img[[i, j-1]] + 4.0*img[[i, j]] + 2.0*img[[i, j+1]]
       + img[[i+1, j-1]] + 2.0*img[[i+1, j]] + img[[i+1, j+1]]) / 16.0;
    j = j + 1];
   i = i + 1];
  out]]
|}

let histogram_src = {|
Function[{Typed[data, "PackedArray"["Integer64", 1]]},
 Module[{bins = ConstantArray[0, 256], i = 1, n = Length[data], b = 0},
  While[i <= n,
   b = data[[i]] + 1;
   bins[[b]] = bins[[b]] + 1;
   i = i + 1];
  bins]]
|}

(* PrimeQ: Miller-Rabin with a 2^14 seed table baked in as a constant;
   PowerMod64 and MillerRabinPrimeQ64 live in the type environment. *)
let powmod_spec = {|TypeSpecifier[{"Integer64", "Integer64", "Integer64"} -> "Integer64"]|}
let powmod_impl = {|
Function[{b0, e0, m},
 Module[{result = 1, b = Mod[b0, m], e = e0},
  While[e > 0,
   If[Mod[e, 2] == 1, result = Mod[result*b, m]];
   b = Mod[b*b, m];
   e = Quotient[e, 2]];
  result]]
|}

let mrprime_spec = {|TypeSpecifier[{"Integer64"} -> "Integer64"]|}
let mrprime_impl = {|
Function[{k},
 If[k < 2, 0,
  If[k < 4, 1,
   If[Mod[k, 2] == 0, 0,
    Module[{d = k - 1, s = 0, prime = 1, wi = 1, a = 0, x = 0, r = 0, found = 0,
            witnesses = {2, 3}},
     While[Mod[d, 2] == 0, d = Quotient[d, 2]; s = s + 1];
     While[wi <= 2 && prime == 1,
      a = witnesses[[wi]];
      If[Mod[a, k] != 0,
       x = PowerMod64[a, d, k];
       If[x != 1 && x != k - 1,
        found = 0; r = 1;
        While[r < s && found == 0,
         x = Mod[x*x, k];
         If[x == k - 1, found = 1];
         r = r + 1];
        If[found == 0, prime = 0]]];
      wi = wi + 1];
     prime]]]]]
|}

let primeq_src = {|
Function[{Typed[limit, "MachineInteger"]},
 Module[{count = 0, k = 2, seed = SeedTableConstant, seedn = 0},
  seedn = Length[seed];
  While[k <= limit,
   If[k <= seedn,
    count = count + seed[[k]],
    count = count + MillerRabinPrimeQ64[k]];
   k = k + 1];
  count]]
|}

let seed_table_size = 16384

let seed_table =
  let sieve = Array.make (seed_table_size + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to seed_table_size do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j <= seed_table_size do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  (* 1-indexed in the program: entry k answers "is k prime" *)
  Array.init seed_table_size (fun i -> if sieve.(i + 1) then 1 else 0)

let primeq_of_parsed template =
  Pattern.substitute
    [ (Symbol.intern "SeedTableConstant", Expr.Tensor (Tensor.of_int_array seed_table)) ]
    template

let primeq_type_env () =
  let env = Wolf_compiler.Type_env.create ~parent:(Wolf_compiler.Type_env.builtin ()) "primeq" in
  Wolf_compiler.Type_env.declare_wolfram env "PowerMod64"
    ~spec:(Parser.parse powmod_spec) ~body:(Parser.parse powmod_impl);
  Wolf_compiler.Type_env.declare_wolfram env "MillerRabinPrimeQ64"
    ~spec:(Parser.parse mrprime_spec) ~body:(Parser.parse mrprime_impl);
  env

(* QSort: the entry function creates the comparator closure in compiled code;
   the recursive sort is declared in the type environment. *)
let qsort_decl_spec = {|TypeSpecifier[{{"Integer64", "Integer64"} -> "Boolean", "PackedArray"["Integer64", 1]} -> "PackedArray"["Integer64", 1]]|}

let qsort_src = {|
Function[{Typed[lst, "PackedArray"["Integer64", 1]]},
 QSortI64[Function[{a, b}, a < b], lst]]
|}

let qsort_impl = {|
Function[{cmp, lst},
 Module[{n = Length[lst]},
  If[n <= 1, lst,
   Module[{pivot = lst[[1]], left = ConstantArray[0, n], right = ConstantArray[0, n],
           nl = 0, nr = 0, i = 2, v = 0},
    While[i <= n,
     v = lst[[i]];
     If[cmp[v, pivot],
      (nl = nl + 1; left[[nl]] = v),
      (nr = nr + 1; right[[nr]] = v)];
     i = i + 1];
    Join[Append[QSortI64[cmp, Take[left, nl]], pivot],
         QSortI64[cmp, Take[right, nr]]]]]]]
|}

let qsort_type_env () =
  let env = Wolf_compiler.Type_env.create ~parent:(Wolf_compiler.Type_env.builtin ()) "qsort" in
  Wolf_compiler.Type_env.declare_wolfram env "QSortI64"
    ~spec:(Parser.parse qsort_decl_spec) ~body:(Parser.parse qsort_impl);
  env

(* The interpreter has no type environment: the same helpers become session
   definitions, so compile_cold can check PrimeQ and QSort against it. *)
let interpreter_defs =
  [ "PowerMod64 = " ^ powmod_impl; "MillerRabinPrimeQ64 = " ^ mrprime_impl;
    "QSortI64 = " ^ qsort_impl ]

(* ------------------------------------------------------------------ *)
(* Kernel instances                                                    *)

(* Sizes: each kernel takes a few ms per call, and its working set stays
   well inside a 4 MiB L2. *)
let fnv_len = 600_000
let mandel_step = 0.05
let blur_n = 300
let hist_len = 250_000
let primeq_limit = 25_000
let qsort_len = 4_000

type kernel = {
  kname : string;                 (* metric key *)
  src : string;
  of_parsed : Expr.t -> Expr.t;   (* constant substitution after parsing *)
  type_env : (unit -> Wolf_compiler.Type_env.t) option;
}

(* one kernel's seeded inputs and its frozen reference on them *)
type instance = {
  args : Expr.t list;
  hand : unit -> Expr.t;
}

let plain kname src = { kname; src; of_parsed = Fun.id; type_env = None }

let kernel_expr k = k.of_parsed (Parser.parse k.src)

let fnv1a = plain "fnv1a" fnv1a_src
let mandelbrot = plain "mandelbrot" mandelbrot_src
let blur = plain "blur" blur_src
let histogram = plain "histogram" histogram_src
let primeq =
  { kname = "primeq"; src = primeq_src; of_parsed = primeq_of_parsed;
    type_env = Some primeq_type_env }
let qsort = { (plain "qsort" qsort_src) with type_env = Some qsort_type_env }

let fnv1a_inputs rng =
  let s = String.init fnv_len (fun _ -> Char.chr (33 + Rng.int rng 90)) in
  { args = [ Expr.Str s ]; hand = (fun () -> Expr.Int (Pb_hand.fnv1a s)) }

(* a sub-step shift of the fixed window: new inputs per seed, the same
   amount of work *)
let mandelbrot_inputs rng =
  let dx = Rng.float rng *. 1e-4 in
  let x0 = -2.0 +. dx and x1 = 0.5 and y0 = -1.0 and y1 = 1.0 in
  { args = List.map (fun r -> Expr.Real r) [ x0; x1; y0; y1; mandel_step ];
    hand = (fun () -> Expr.Int (Pb_hand.mandelbrot x0 x1 y0 y1 mandel_step)) }

let blur_inputs rng =
  let n = blur_n in
  let pix = Array.init (n * n) (fun _ -> Rng.float rng) in
  { args = [ Expr.Tensor (Tensor.create_real [| n; n |] (Array.copy pix)); Expr.Int n ];
    hand = (fun () -> Expr.Tensor (Tensor.create_real [| n; n |] (Pb_hand.blur pix n))) }

let histogram_inputs rng =
  let data = Array.init hist_len (fun _ -> Rng.int rng 256) in
  { args = [ Expr.Tensor (Tensor.of_int_array (Array.copy data)) ];
    hand = (fun () -> Expr.Tensor (Tensor.of_int_array (Pb_hand.histogram data))) }

(* the limit moves by less than 0.3% across seeds *)
let primeq_inputs rng =
  let limit = primeq_limit + Rng.int rng 100 in
  { args = [ Expr.Int limit ];
    hand = (fun () -> Expr.Int (Pb_hand.primeq_count seed_table limit)) }

(* a seeded permutation, so comparator calls dominate rather than the
   O(n^2) allocation a sorted input would cause *)
let qsort_inputs rng =
  let a = Array.init qsort_len (fun i -> i + 1) in
  Rng.shuffle rng a;
  { args = [ Expr.Tensor (Tensor.of_int_array (Array.copy a)) ];
    hand = (fun () -> Expr.Tensor (Tensor.of_int_array (Pb_hand.qsort ( < ) a))) }

let with_inputs kernels seed =
  let rng = Rng.create seed in
  List.map (fun (k, inputs) -> (k, inputs rng)) kernels

let loop_kernels =
  [ (fnv1a, fnv1a_inputs); (mandelbrot, mandelbrot_inputs); (blur, blur_inputs);
    (histogram, histogram_inputs) ]

let call_kernels = [ (primeq, primeq_inputs); (qsort, qsort_inputs) ]

(* ------------------------------------------------------------------ *)
(* compile_cold corpus                                                 *)

(* Figure-2 programs with small arguments (the op compiles; the arguments
   are only for the one-off correctness check against the interpreter). *)
let figure2_programs =
  [ (fnv1a, [ Expr.Str "hello, wolfram" ]);
    (mandelbrot, List.map (fun r -> Expr.Real r) [ -1.5; 0.5; -1.0; 1.0; 0.5 ]);
    (plain "dot" dot_src,
     (let m = Tensor.create_real [| 3; 3 |] (Array.init 9 float_of_int) in
      [ Expr.Tensor m; Expr.Tensor m ]));
    (blur,
     [ Expr.Tensor (Tensor.create_real [| 5; 5 |] (Array.init 25 float_of_int));
       Expr.Int 5 ]);
    (histogram, [ Expr.Tensor (Tensor.of_int_array (Array.init 40 (fun i -> i * 37 mod 256))) ]);
    (primeq, [ Expr.Int 16500 ]);
    (qsort, [ Expr.Tensor (Tensor.of_int_array [| 5; 3; 9; 1; 7; 2 |]) ]) ]

(* The generated part of the corpus is a frozen pool drawn once from the
   fuzz generator (corpus.txt; see README.md).  Records are separated by
   lines "%% <args>", the arguments tab-separated in InputForm. *)
let read_pool path =
  let ic = open_in path in
  let rec go acc cur =
    match input_line ic with
    | line when String.length line >= 2 && String.sub line 0 2 = "%%" ->
      let acc = match cur with Some c -> c :: acc | None -> acc in
      let args = String.trim (String.sub line 2 (String.length line - 2)) in
      go acc (Some (args, Buffer.create 256))
    | line ->
      (match cur with
       | Some (_, b) -> Buffer.add_string b line; Buffer.add_char b '\n'
       | None -> ());
      go acc cur
    | exception End_of_file ->
      close_in ic;
      List.rev (match cur with Some c -> c :: acc | None -> acc)
  in
  go [] None
  |> List.map (fun (args, b) ->
      let args = if args = "" then [] else String.split_on_char '\t' args in
      (Buffer.contents b, List.map Parser.parse args))

(* ------------------------------------------------------------------ *)
(* serve_mixed request mix                                             *)

type req_class = Eval_small | Eval_moderate | Compile_hit | Compile_miss

let class_name = function
  | Eval_small -> "eval_small"
  | Eval_moderate -> "eval_moderate"
  | Compile_hit -> "compile_hit"
  | Compile_miss -> "compile_miss"

(* The [i]-th source of the pool: the shapes take turns, so that every
   seed's pool holds each shape equally often and only the constants
   change with the seed. *)
let small_eval_src rng i =
  let a = 1 + Rng.int rng 900 and b = 1 + Rng.int rng 900 in
  match i mod 4 with
  | 0 -> Printf.sprintf "Total[Range[%d]]" (20 + (a mod 40))
  | 1 -> Printf.sprintf "Max[{%d, %d, %d}] - Min[{%d, %d}]" a b (a + b) b a
  | 2 -> Printf.sprintf "StringLength[StringJoin[\"w%d\", \"x%d\"]]" a b
  | _ -> Printf.sprintf "Mod[%d^3 + %d, 97]" a b

let moderate_eval_src rng =
  let a = 1 + Rng.int rng 50 in
  Printf.sprintf "Total[Table[Mod[i^2 + %d, 7], {i, 1, %d}]]" a (200 + Rng.int rng 20)

let hit_compile_src i =
  Printf.sprintf
    "Function[{Typed[x, \"MachineInteger\"]}, Module[{s = 0}, \
     Do[s = s + Mod[i*x, %d], {i, 10}]; s]]" (7 + i)

(* A never-seen source: a distinct constant [k] makes each one miss the
   cache.  Eight similar blocks make it a realistic size (about 18 ms of
   threaded compile on a 2-core host), well above every other class, so
   the tail of the mix falls inside this class. *)
let miss_compile_src k =
  let blocks = List.init 8 Fun.id in
  let block v =
    Printf.sprintf
      "Do[t = Mod[i*y + %d, 9973]; If[t > s%d, s%d = t, s%d = s%d + 1]; \
       While[t > 100, t = Quotient[t, 3]; u = u + t]; \
       a[[1 + Mod[t, 4]]] = a[[1 + Mod[i, 4]]] + s%d, {i, 8}];"
      (k + v) v v v v v
  in
  Printf.sprintf
    "Function[{Typed[x, \"MachineInteger\"], Typed[y, \"MachineInteger\"]}, \
     Module[{%s, t = 0, u = 0, a = {1, 2, 3, 4}}, %s %s + u + Total[a]]]"
    (String.concat ", " (List.map (Printf.sprintf "s%d = x") blocks))
    (String.concat " " (List.map block blocks))
    (String.concat " + " (List.map (Printf.sprintf "s%d") blocks))

let hit_sources = 8
