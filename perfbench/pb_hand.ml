(* Frozen hand-written references for the Figure-2 kernels: the
   "hand-written C" every vs_hand ratio is normalised against, written as
   plain OCaml over unboxed arrays.  This file is a frozen copy owned by the
   benchmark: edits to the repository's own bench baselines must not move
   the denominator of a ratio that compares two commits. *)

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

(* borders stay 0.0, as in the compiled program's [img*0.0] start *)
let blur (img : float array) n =
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
  out

let histogram (data : int array) =
  let bins = Array.make 256 0 in
  for i = 0 to Array.length data - 1 do
    let b = Array.unsafe_get data i in
    bins.(b) <- bins.(b) + 1
  done;
  bins

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

(* the seed table is pasted into the hand-written code, like the paper's C *)
let primeq_count (seed : int array) limit =
  let seedn = Array.length seed in
  let count = ref 0 in
  for k = 2 to limit do
    if k <= seedn then count := !count + Array.unsafe_get seed (k - 1)
    else count := !count + mr_prime k
  done;
  !count

(* functional quicksort with a comparator closure and the same copying
   structure as the compiled program (immutability semantics) *)
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

(* The host probe (host.ref_ms, and the speed every kernel and compile
   time is scaled to): one write pass and one scattered read pass over a
   4 MiB buffer that lives outside the OCaml heap.  It allocates nothing, so
   it does no GC work and cannot absorb the cost of the program's
   allocation or retention; what it measures is the memory system the
   program shares with other tenants of the host. *)
let probe_buf = lazy (Bigarray.Array1.create Bigarray.int Bigarray.c_layout (512 * 1024))

let host_probe () =
  let b = Lazy.force probe_buf in
  let n = Bigarray.Array1.dim b in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set b i i
  done;
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + Bigarray.Array1.unsafe_get b ((i * 4099) land (n - 1))
  done;
  !acc

(* The serve reference (serve_mixed's scale and vs_hand): a hand-written
   echo over a Unix socket.  [echo_server path] answers one connection,
   64 bytes back for every 64 bytes in, until the client hangs up;
   [echo_round_trips fd n] sends n such messages one after another. *)
let echo_bytes = 64

let read_full fd b =
  let rec go o =
    if o < echo_bytes then
      match Unix.read fd b o (echo_bytes - o) with
      | 0 -> raise End_of_file
      | n -> go (o + n)
  in
  go 0

let echo_server path =
  let l = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind l (Unix.ADDR_UNIX path);
  Unix.listen l 1;
  let c, _ = Unix.accept l in
  let b = Bytes.create echo_bytes in
  try
    while true do
      read_full c b;
      ignore (Unix.write c b 0 echo_bytes)
    done
  with End_of_file | Unix.Unix_error _ -> ()

let echo_round_trips fd n =
  let b = Bytes.make echo_bytes 'x' in
  for _ = 1 to n do
    ignore (Unix.write fd b 0 echo_bytes);
    read_full fd b
  done
