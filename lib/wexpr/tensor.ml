open Wolf_base

type data =
  | Ints of int array
  | Reals of float array

type t = {
  dims : int array;
  data : data;
  mutable refcount : int;
}

let data_length = function Ints a -> Array.length a | Reals a -> Array.length a

let product dims = Array.fold_left ( * ) 1 dims

let check dims data =
  if Array.length dims = 0 then invalid_arg "Tensor: rank must be >= 1";
  if product dims <> data_length data then invalid_arg "Tensor: dims/data mismatch"

let create_int dims a =
  let data = Ints a in
  check dims data;
  { dims; data; refcount = 1 }

let create_real dims a =
  let data = Reals a in
  check dims data;
  { dims; data; refcount = 1 }

let of_int_array a = create_int [| Array.length a |] a
let of_real_array a = create_real [| Array.length a |] a

let of_real_matrix rows =
  let n = Array.length rows in
  if n = 0 then invalid_arg "Tensor.of_real_matrix: empty";
  let m = Array.length rows.(0) in
  let flat = Array.make (n * m) 0.0 in
  Array.iteri
    (fun i row ->
       if Array.length row <> m then invalid_arg "Tensor.of_real_matrix: ragged";
       Array.blit row 0 flat (i * m) m)
    rows;
  create_real [| n; m |] flat

let rank t = Array.length t.dims
let dims t = t.dims
let flat_length t = data_length t.data
let is_int t = match t.data with Ints _ -> true | Reals _ -> false

let acquire t = t.refcount <- t.refcount + 1
let release t = t.refcount <- t.refcount - 1
let refcount t = t.refcount

let copy t =
  let data = match t.data with
    | Ints a -> Ints (Array.copy a)
    | Reals a -> Reals (Array.copy a)
  in
  { dims = Array.copy t.dims; data; refcount = 1 }

(* Return a tensor safe to mutate in place: [t] itself when the caller holds
   the only claim, a fresh copy otherwise.  This never consumes the caller's
   claim on [t] — acquire/release pairing is owned by the caller (the
   compiler's MemoryAcquire/MemoryRelease, or the kernel symbol store's
   retain/forget).  An internal release here would double-count against that
   paired release, letting a shared array's count decay to "exclusive" while
   still aliased, so an indexed update would then corrupt every alias. *)
let ensure_unique t =
  if t.refcount <= 1 then t
  else begin
    Wolf_obs.Profile.note_cow_copy ();
    copy t
  end

let get_int t i =
  match t.data with
  | Ints a -> a.(i)
  | Reals a -> int_of_float a.(i)

let get_real t i =
  match t.data with
  | Ints a -> float_of_int a.(i)
  | Reals a -> a.(i)

let set_int t i v =
  match t.data with
  | Ints a -> a.(i) <- v
  | Reals a -> a.(i) <- float_of_int v

let set_real t i v =
  match t.data with
  | Ints a -> a.(i) <- int_of_float v
  | Reals a -> a.(i) <- v

let[@inline] part_index n i =
  let j = if i < 0 then n + i else i - 1 in
  if j < 0 || j >= n then raise (Errors.Runtime_error (Errors.Part_out_of_range (i, n)));
  j

let[@inline] normalize_index t i = part_index t.dims.(0) i

let[@inline] flat_index2 t i k =
  let j1 = part_index t.dims.(0) i in
  (j1 * t.dims.(1)) + part_index t.dims.(1) k

let sub_size t = product t.dims / t.dims.(0)

let slice t i =
  let size = sub_size t in
  let dims = Array.sub t.dims 1 (Array.length t.dims - 1) in
  let data = match t.data with
    | Ints a -> Ints (Array.sub a (i * size) size)
    | Reals a -> Reals (Array.sub a (i * size) size)
  in
  { dims; data; refcount = 1 }

let set_slice t i sub =
  let size = sub_size t in
  if flat_length sub <> size then invalid_arg "Tensor.set_slice: size mismatch";
  match t.data, sub.data with
  | Ints a, Ints b -> Array.blit b 0 a (i * size) size
  | Reals a, Reals b -> Array.blit b 0 a (i * size) size
  | Ints _, Reals _ | Reals _, Ints _ ->
    invalid_arg "Tensor.set_slice: element type mismatch"

let equal a b =
  a.dims = b.dims
  && (match a.data, b.data with
      | Ints x, Ints y -> x = y
      | Reals x, Reals y -> x = y
      | Ints x, Reals y | Reals y, Ints x ->
        Array.for_all2 (fun i r -> float_of_int i = r) x y)

let map_real f t =
  let n = flat_length t in
  let out = Array.make n 0.0 in
  for i = 0 to n - 1 do out.(i) <- f (get_real t i) done;
  { dims = Array.copy t.dims; data = Reals out; refcount = 1 }

let to_real t =
  match t.data with
  | Reals _ -> t
  | Ints _ -> map_real (fun x -> x) t

let dot_vv a b =
  let n = flat_length a in
  if flat_length b <> n then invalid_arg "Tensor.dot: length mismatch";
  match a.data, b.data with
  | Ints x, Ints y ->
    let s = ref 0 in
    for i = 0 to n - 1 do s := !s + (x.(i) * y.(i)) done;
    `Int !s
  | _ ->
    let s = ref 0.0 in
    for i = 0 to n - 1 do s := !s +. (get_real a i *. get_real b i) done;
    `Real !s

(* Blocked ikj matrix multiply on the flat representation; this is the MKL
   stand-in shared by all execution paths. *)
let dgemm n k m x y =
  let out = Array.make (n * m) 0.0 in
  let bs = 64 in
  let ii = ref 0 in
  while !ii < n do
    let i_hi = min (!ii + bs) n in
    let kk = ref 0 in
    while !kk < k do
      let k_hi = min (!kk + bs) k in
      for i = !ii to i_hi - 1 do
        for l = !kk to k_hi - 1 do
          let a = x.((i * k) + l) in
          if a <> 0.0 then begin
            let yoff = l * m and ooff = i * m in
            for j = 0 to m - 1 do
              out.(ooff + j) <- out.(ooff + j) +. (a *. y.(yoff + j))
            done
          end
        done
      done;
      kk := k_hi
    done;
    ii := i_hi
  done;
  out

let real_flat t =
  match t.data with
  | Reals a -> a
  | Ints a -> Array.map float_of_int a

let dot a b =
  match rank a, rank b with
  | 1, 1 ->
    (match dot_vv a b with
     | `Int i -> create_int [| 1 |] [| i |]
     | `Real r -> create_real [| 1 |] [| r |])
  | 2, 1 ->
    let n = a.dims.(0) and k = a.dims.(1) in
    if b.dims.(0) <> k then invalid_arg "Tensor.dot: shape mismatch";
    let x = real_flat a and y = real_flat b in
    let out = Array.make n 0.0 in
    for i = 0 to n - 1 do
      let s = ref 0.0 in
      for l = 0 to k - 1 do s := !s +. (x.((i * k) + l) *. y.(l)) done;
      out.(i) <- !s
    done;
    create_real [| n |] out
  | 2, 2 ->
    let n = a.dims.(0) and k = a.dims.(1) in
    let k' = b.dims.(0) and m = b.dims.(1) in
    if k <> k' then invalid_arg "Tensor.dot: shape mismatch";
    create_real [| n; m |] (dgemm n k m (real_flat a) (real_flat b))
  | _ -> invalid_arg "Tensor.dot: unsupported ranks"

let total t =
  match t.data with
  | Ints a -> `Int (Array.fold_left ( + ) 0 a)
  | Reals a -> `Real (Array.fold_left ( +. ) 0.0 a)

let pp fmt t =
  Format.fprintf fmt "Tensor[%s, {%s}]"
    (if is_int t then "Integer64" else "Real64")
    (String.concat ", " (Array.to_list (Array.map string_of_int t.dims)))
