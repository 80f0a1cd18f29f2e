open Wolf_wexpr
open Wolf_base
open Wolf_runtime

let as_list = function
  | Expr.Normal (Expr.Sym l, items) when Symbol.equal l Expr.Sy.list -> Some items
  | Expr.Tensor t ->
    (match Rtval.tensor_to_expr t with
     | Expr.Normal (_, items) -> Some items
     | _ -> None)
  | _ -> None

let length = function
  | Expr.Tensor t -> Some ((Tensor.dims t).(0))
  | Expr.Normal (_, items) -> Some (Array.length items)
  | _ -> None

(* Pack a freshly built numeric list when every element is a machine number;
   mirrors the engine's auto-packing of Table/Range/Random* results. *)
let pack_or_list items =
  let n = Array.length items in
  if n = 0 then Expr.list_a items
  else begin
    let all_int = Array.for_all (function Expr.Int _ -> true | _ -> false) items in
    if all_int then
      Expr.Tensor
        (Tensor.of_int_array
           (Array.map (function Expr.Int i -> i | _ -> 0) items))
    else begin
      let all_num =
        Array.for_all
          (function Expr.Int _ | Expr.Real _ -> true | _ -> false)
          items
      in
      if all_num then
        Expr.Tensor
          (Tensor.of_real_array
             (Array.map
                (function
                  | Expr.Int i -> float_of_int i
                  | Expr.Real r -> r
                  | _ -> 0.0)
                items))
      else Expr.list_a items
    end
  end

let random_dims ev spec =
  match ev spec with
  | Expr.Int n -> Some [ n ]
  | Expr.Normal (Expr.Sym l, dims) when Symbol.equal l Expr.Sy.list ->
    let ds =
      Array.to_list dims
      |> List.map (fun d ->
          match Expr.int_of d with
          | Some i -> i
          | None -> Errors.eval_errorf "Random*: bad dimension")
    in
    Some ds
  | _ -> None

let build_random_real lo hi dims =
  match dims with
  | [] -> Expr.Real (Rand.uniform_range lo hi)
  | ds ->
    let total = List.fold_left ( * ) 1 ds in
    let flat = Array.init total (fun _ -> Rand.uniform_range lo hi) in
    Expr.Tensor (Tensor.create_real (Array.of_list ds) flat)

let real_range ev bounds =
  match ev bounds with
  | Expr.Normal (Expr.Sym l, [| lo; hi |]) when Symbol.equal l Expr.Sy.list ->
    (match Expr.float_of (ev lo), Expr.float_of (ev hi) with
     | Some l', Some h' -> Some (l', h')
     | _ -> None)
  | e ->
    (match Expr.float_of e with
     | Some h -> Some (0.0, h)
     | None -> None)

let install () =
  Eval.register "Length" (fun _ args ->
      match args with
      | [| e |] ->
        (match length e with
         | Some n -> Some (Expr.Int n)
         | None -> (match e with Expr.Sym _ -> None | _ -> Some (Expr.Int 0)))
      | _ -> None);
  Eval.register "Range" ~attrs:[ Attributes.Listable ] (fun _ args ->
      let mk lo hi step =
        if step = 0 then Errors.eval_errorf "Range: zero step"
        else begin
          let n = if (hi - lo) * step < 0 then 0 else ((hi - lo) / step) + 1 in
          Expr.Tensor (Tensor.of_int_array (Array.init n (fun i -> lo + (i * step))))
        end
      in
      match args with
      | [| Expr.Int n |] -> Some (mk 1 n 1)
      | [| Expr.Int lo; Expr.Int hi |] -> Some (mk lo hi 1)
      | [| Expr.Int lo; Expr.Int hi; Expr.Int s |] -> Some (mk lo hi s)
      | _ -> None);
  Eval.register "Table" ~attrs:[ Attributes.Hold_all ] (fun ev args ->
      match args with
      | [| body; spec |] ->
        let acc = ref [] in
        Builtins_core.iterate ev spec (fun var value ->
            let expr =
              match var with
              | Some v -> Pattern.substitute [ (v, value) ] body
              | None -> body
            in
            acc := ev expr :: !acc);
        Some (pack_or_list (Array.of_list (List.rev !acc)))
      | [| body; spec1; spec2 |] ->
        (* nested table *)
        let acc = ref [] in
        Builtins_core.iterate ev spec1 (fun var value ->
            let inner =
              match var with
              | Some v ->
                Expr.apply "Table" [ Pattern.substitute [ (v, value) ] body; spec2 ]
              | None -> Expr.apply "Table" [ body; spec2 ]
            in
            acc := ev inner :: !acc);
        let rows = Array.of_list (List.rev !acc) in
        (* repack rectangular numeric matrices *)
        let tensors =
          Array.for_all (function Expr.Tensor _ -> true | _ -> false) rows
        in
        if tensors && Array.length rows > 0 then begin
          let ts = Array.map (function Expr.Tensor t -> t | _ -> assert false) rows in
          let d0 = Tensor.dims ts.(0) in
          if Array.for_all (fun t -> Tensor.dims t = d0) ts
          && Array.for_all (fun t -> Tensor.is_int t = Tensor.is_int ts.(0)) ts
          then begin
            let sub = Tensor.flat_length ts.(0) in
            let dims = Array.append [| Array.length rows |] d0 in
            if Tensor.is_int ts.(0) then begin
              let flat = Array.make (Array.length rows * sub) 0 in
              Array.iteri
                (fun i t ->
                   for j = 0 to sub - 1 do flat.((i * sub) + j) <- Tensor.get_int t j done)
                ts;
              Some (Expr.Tensor (Tensor.create_int dims flat))
            end
            else begin
              let flat = Array.make (Array.length rows * sub) 0.0 in
              Array.iteri
                (fun i t ->
                   for j = 0 to sub - 1 do flat.((i * sub) + j) <- Tensor.get_real t j done)
                ts;
              Some (Expr.Tensor (Tensor.create_real dims flat))
            end
          end
          else Some (Expr.list_a rows)
        end
        else Some (Expr.list_a rows)
      | _ -> None);
  Eval.register "ConstantArray" (fun _ args ->
      match args with
      | [| Expr.Int v; Expr.Int n |] when n >= 0 ->
        Some (Expr.Tensor (Tensor.of_int_array (Array.make n v)))
      | [| Expr.Real v; Expr.Int n |] when n >= 0 ->
        Some (Expr.Tensor (Tensor.of_real_array (Array.make n v)))
      | [| v; Expr.Int n |] when n >= 0 ->
        Some (Expr.list_a (Array.make n v))
      | _ -> None);
  Eval.register "First" (fun _ args ->
      match args with
      | [| e |] ->
        (match e with
         | Expr.Tensor _ -> Some (Builtins_core.part_get e [ 1 ])
         | Expr.Normal (_, items) when Array.length items > 0 -> Some items.(0)
         | _ -> None)
      | _ -> None);
  Eval.register "Last" (fun _ args ->
      match args with
      | [| e |] ->
        (match e with
         | Expr.Tensor _ -> Some (Builtins_core.part_get e [ -1 ])
         | Expr.Normal (_, items) when Array.length items > 0 ->
           Some items.(Array.length items - 1)
         | _ -> None)
      | _ -> None);
  Eval.register "Rest" (fun _ args ->
      match args with
      | [| e |] ->
        (match as_list e with
         | Some items when Array.length items > 0 ->
           Some (Expr.list_a (Array.sub items 1 (Array.length items - 1)))
         | _ -> None)
      | _ -> None);
  Eval.register "Most" (fun _ args ->
      match args with
      | [| e |] ->
        (match as_list e with
         | Some items when Array.length items > 0 ->
           Some (Expr.list_a (Array.sub items 0 (Array.length items - 1)))
         | _ -> None)
      | _ -> None);
  Eval.register "Append" (fun _ args ->
      match args with
      | [| e; v |] ->
        (match as_list e with
         | Some items -> Some (pack_or_list (Array.append items [| v |]))
         | None -> None)
      | _ -> None);
  Eval.register "Prepend" (fun _ args ->
      match args with
      | [| e; v |] ->
        (match as_list e with
         | Some items -> Some (pack_or_list (Array.append [| v |] items))
         | None -> None)
      | _ -> None);
  Eval.register "Join" (fun _ args ->
      let parts = Array.to_list args |> List.map as_list in
      if List.for_all Option.is_some parts then
        Some
          (pack_or_list
             (Array.concat (List.map Option.get parts)))
      else None);
  Eval.register "Reverse" (fun _ args ->
      match args with
      | [| e |] ->
        (match as_list e with
         | Some items ->
           let n = Array.length items in
           Some (pack_or_list (Array.init n (fun i -> items.(n - 1 - i))))
         | None -> None)
      | _ -> None);
  Eval.register "Sort" (fun ev args ->
      match args with
      | [| e |] ->
        (match as_list e with
         | Some items ->
           let copy = Array.copy items in
           Array.sort Expr.compare copy;
           Some (pack_or_list copy)
         | None -> None)
      | [| e; f |] ->
        (match as_list e with
         | Some items ->
           let copy = Array.copy items in
           Array.sort
             (fun a b ->
                let r = Eval.apply_function ev f [| a; b |] in
                if Expr.is_true r then -1
                else if Expr.is_false r then 1
                else 0)
             copy;
           Some (pack_or_list copy)
         | None -> None)
      | _ -> None);
  Eval.register "Total" (fun ev args ->
      match args with
      | [| Expr.Tensor t |] ->
        if Tensor.rank t = 1 then
          (match Tensor.total t with
           | `Int i -> Some (Expr.Int i)
           | `Real r -> Some (Expr.Real r))
        else begin
          (* Total over the first level: sum of row sub-tensors *)
          let n = (Tensor.dims t).(0) in
          let acc = ref (Expr.Tensor (Tensor.slice t 0)) in
          for i = 1 to n - 1 do
            match Numeric.add2 !acc (Expr.Tensor (Tensor.slice t i)) with
            | Some v -> acc := v
            | None -> Errors.eval_errorf "Total: bad tensor"
          done;
          Some !acc
        end
      | [| e |] ->
        (match as_list e with
         | Some items ->
           let rec go acc i =
             if i >= Array.length items then Some acc
             else
               match Numeric.add2 acc items.(i) with
               | Some v -> go v (i + 1)
               | None ->
                 (* nested lists: thread through the evaluator's Listable Plus *)
                 go (ev (Expr.apply "Plus" [ acc; items.(i) ])) (i + 1)
           in
           if Array.length items = 0 then Some (Expr.Int 0)
           else go items.(0) 1
         | None -> None)
      | _ -> None);
  Eval.register "Dot" ~attrs:[ Attributes.Flat; Attributes.One_identity ] (fun _ args ->
      match args with
      | [| a; b |] ->
        let to_tensor = function
          | Expr.Tensor t -> Some t
          | e ->
            (match Rtval.of_expr e with
             | Rtval.Tensor t -> Some t
             | _ -> None)
        in
        (match to_tensor a, to_tensor b with
         | Some x, Some y ->
           let r = Tensor.dot x y in
           if Tensor.rank x = 1 && Tensor.rank y = 1 then begin
             (* scalar result *)
             if Tensor.is_int r then Some (Expr.Int (Tensor.get_int r 0))
             else Some (Expr.Real (Tensor.get_real r 0))
           end
           else Some (Expr.Tensor r)
         | _ -> None)
      | _ -> None);
  Eval.register "RandomReal" (fun ev args ->
      match args with
      | [||] -> Some (Expr.Real (Rand.uniform ()))
      | [| bounds |] ->
        (match real_range ev bounds with
         | Some (lo, hi) -> Some (build_random_real lo hi [])
         | None -> None)
      | [| bounds; spec |] ->
        (match real_range ev bounds, random_dims ev spec with
         | Some (lo, hi), Some dims -> Some (build_random_real lo hi dims)
         | _ -> None)
      | _ -> None);
  Eval.register "RandomInteger" (fun ev args ->
      (* an empty range stays unevaluated *)
      let bounds e =
        match ev e with
        | Expr.Int hi when hi >= 0 -> Some (0, hi)
        | Expr.Normal (Expr.Sym l, [| lo; hi |]) when Symbol.equal l Expr.Sy.list ->
          (match Expr.int_of lo, Expr.int_of hi with
           | Some l', Some h' when l' <= h' -> Some (l', h')
           | _ -> None)
        | _ -> None
      in
      match args with
      | [||] -> Some (Expr.Int (Rand.int_range 0 1))
      | [| b |] ->
        (match bounds b with
         | Some (lo, hi) -> Some (Expr.Int (Rand.int_range lo hi))
         | None -> None)
      | [| b; spec |] ->
        (match bounds b, random_dims ev spec with
         | Some (lo, hi), Some dims ->
           let total = List.fold_left ( * ) 1 dims in
           let flat = Array.init total (fun _ -> Rand.int_range lo hi) in
           Some (Expr.Tensor (Tensor.create_int (Array.of_list dims) flat))
         | _ -> None)
      | _ -> None);
  Eval.register "RandomVariate" (fun ev args ->
      let is_normal_dist = function
        | Expr.Normal (Expr.Sym d, [||]) -> Symbol.name d = "NormalDistribution"
        | Expr.Sym d -> Symbol.name d = "NormalDistribution"
        | _ -> false
      in
      let gauss () =
        let u1 = Rand.uniform () and u2 = Rand.uniform () in
        Float.sqrt (-2.0 *. Float.log (Float.max u1 1e-300))
        *. Float.cos (2.0 *. Float.pi *. u2)
      in
      match args with
      | [| dist |] when is_normal_dist dist -> Some (Expr.Real (gauss ()))
      | [| dist; spec |] when is_normal_dist dist ->
        (match random_dims ev spec with
         | Some dims ->
           let total = List.fold_left ( * ) 1 dims in
           let flat = Array.init total (fun _ -> gauss ()) in
           Some (Expr.Tensor (Tensor.create_real (Array.of_list dims) flat))
         | None -> None)
      | _ -> None);
  Eval.register "SeedRandom" (fun _ args ->
      match args with
      | [| a |] ->
        (match Expr.int_of a with
         | Some n -> Rand.seed n; Some Expr.null
         | None -> None)
      | [||] -> Rand.seed 0; Some Expr.null
      | _ -> None)
