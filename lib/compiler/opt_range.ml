(* Range facts: one interval analysis over the Integer64 values of TWIR,
   the bounds and overflow layer of the loop optimisations.  It runs in
   the -O1 fixpoint right after LICM, in the same fixpoint member (no
   second verifier run per round), before abort-stride strip-mines the
   loops.

   The lattice.  Each Integer64 SSA value gets an interval whose bounds
   are constants and, besides, a few symbolic bounds [a + k]: [a] is an
   SSA variable or one axis of the dimensions of a tensor (or string)
   shape class.  A constant bound min_int or max_int says nothing, which
   is also what an Integer64 cannot pass.  Ranges are global (valid
   wherever the value is in scope); a use in block B also meets the facts
   of the branch edges that dominate B (the true arm of [i < n] gives
   [i <= n - 1] and [n >= i + 1]).  Such a fact stays true at every point
   the edge's target dominates: SSA redefines neither side without passing
   the edge again.  A symbolic bound that crosses a join must name a value
   defined before the join.

   Seeds: constants; branch facts; a header parameter whose every back
   edge passes [p + c] with [c >= 0] never goes below its entry values;
   lengths and dims are at least 0 (and a rank-1 tensor or string is no
   longer than OCaml allows); [BitAnd] with a non-negative operand,
   [BitOr]/[BitXor] of non-negative ones; [Mod] by a non-negative divisor
   [m] is in [0, m - 1]; a string byte is in 0..255.  Loop-carried
   parameters are first taken as unbounded (but for the step seed), then
   narrowed by a second round, sound because the first was.

   Rewrites.  A checked [Plus], [Subtract] or [Times] whose exact result is
   proved in the machine range takes its unchecked [binary_*] sibling; an
   element access whose index is proved in [1 .. dim] (the positive branch
   only) takes its [_unchecked] sibling.

   Versioning.  When the unproved Part checks of an outermost loop all
   have an index bounded by [w + k] for one value [w] defined before the
   loop, and assuming [w + k <= dim] at the header proves every Part check
   in the nest, the nest is cloned behind one guard in its preheader,
   [w <= Min[Length[t] - k, dims(t)[[2]] - k', ...]]: the clone runs when
   it holds and is proved by the guard's own fact; the original runs
   otherwise, with its checks.  One branch in the preheader passes the
   loop's entry values to both (so the mutability pass still sees one
   entry), and both copies leave through the same exit block, which gets
   one parameter per loop value used after the loop.  Overflow checks may
   stay in the clone; the guard is not what proves them. *)

open Wir

(* ---- the lattice ---- *)

type atom =
  | Var of int          (* the root (copies chased) of an SSA variable *)
  | Dim of int * int    (* axis (0-based) of the dims of a shape class *)

type itv = {
  lo : int;
  hi : int;
  slo : (atom * int) list;  (* x >= a + k *)
  shi : (atom * int) list;  (* x <= a + k *)
}

let top = { lo = min_int; hi = max_int; slo = []; shi = [] }
let const c = { top with lo = c; hi = c }
let max_syms = 4

let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> []

(* both facts hold: the tighter constant bounds, and the symbolic bounds of
   both (the newer first, the tighter on a shared atom) *)
let meet a b =
  if b.slo = [] && b.shi = [] then { a with lo = max a.lo b.lo; hi = min a.hi b.hi }
  else
  let merge better older newer =
    let kept =
      List.filter
        (fun (at, k) ->
           match List.assoc_opt at newer with Some k' -> better k k' | None -> true)
        older
    in
    let newer =
      List.filter
        (fun (at, k) ->
           match List.assoc_opt at older with Some k' -> not (better k' k) | None -> true)
        newer
    in
    take max_syms (newer @ kept)
  in
  { lo = max a.lo b.lo; hi = min a.hi b.hi;
    slo = merge ( > ) a.slo b.slo; shi = merge ( < ) a.shi b.shi }

(* either holds: the looser constant bounds, the symbolic bounds on atoms
   both have *)
let join a b =
  if (a.slo = [] || b.slo = []) && (a.shi = [] || b.shi = []) then
    { lo = min a.lo b.lo; hi = max a.hi b.hi; slo = []; shi = [] }
  else
  let common pick l1 l2 =
    List.filter_map
      (fun (at, k) -> Option.map (fun k' -> (at, pick k k')) (List.assoc_opt at l2))
      l1
  in
  { lo = min a.lo b.lo; hi = max a.hi b.hi;
    slo = common min a.slo b.slo; shi = common max a.shi b.shi }

let equal_itv (a : itv) b = a = b

(* constant bound arithmetic: every Integer64 lies in [min_int, max_int],
   so the extremes are bounds like any other; a bound whose computation
   overflows says nothing *)
let add_opt = Wolf_base.Checked.add_opt
let sub_opt = Wolf_base.Checked.sub_opt
let mul_opt = Wolf_base.Checked.mul_opt
let lo_or = Option.value ~default:min_int
let hi_or = Option.value ~default:max_int

(* shift symbolic bounds by a constant; a bound that would overflow goes *)
let shift syms c =
  List.filter_map (fun (at, k) -> Option.map (fun k' -> (at, k')) (add_opt k c)) syms

(* the least 2^k - 1 >= x, for x >= 0 *)
let mask_up x =
  let rec go m = if m >= x || m = max_int then m else go ((m lsl 1) lor 1) in
  go 0

(* ---- per-compile tallies and process-wide counters ---- *)

type tally = { mutable overflow : int; mutable bounds : int; mutable versioned : int }

let tally () = { overflow = 0; bounds = 0; versioned = 0 }

let proved_counter kind =
  Wolf_obs.Metrics.counter ~labels:[ ("kind", kind) ]
    ~help:"checks the range analysis proved away: kind=overflow a checked Plus/Subtract/Times, kind=bounds a Part or StringByte index"
    "range_proved_total"

let proved_overflow = proved_counter "overflow"
let proved_bounds = proved_counter "bounds"

let versioned_counter =
  Wolf_obs.Metrics.counter
    ~help:"loop nests the range analysis cloned behind a dims guard"
    "loops_versioned_total"

(* ---- the primitives it knows ---- *)

let overflow_op = function
  | "checked_binary_plus" -> Some "binary_plus"
  | "checked_binary_subtract" -> Some "binary_subtract"
  | "checked_binary_times" -> Some "binary_times"
  | _ -> None

(* an element access: the index operand positions, in axis order *)
let access_indices = function
  | "part_get_1" | "part_set_1" | "string_byte" -> Some [ 1 ]
  | "part_get_2" | "part_set_2" -> Some [ 1; 2 ]
  | _ -> None

let is_int (v : var) =
  match v.vty with Some t -> Types.equal t Types.int64 | None -> false

let int_operand = function
  | Oconst (Cint _) -> true
  | Ovar v -> is_int v
  | Oconst _ -> false

(* rank of a packed array type; 0 for a string (one axis, bytes) *)
let rank_of (v : var) =
  match v.vty with
  | Some t -> (
    match Types.repr t with
    | Types.Con ("PackedArray", [| _; r |]) -> (
      match Types.repr r with Types.Lit r -> Some r | _ -> None)
    | Types.Con ("String", _) -> Some 0
    | _ -> None)
  | None -> None

(* ---- the analysis ---- *)

type env = {
  cfg : Analysis.cfg;
  defs : (int, instr) Hashtbl.t;
  def_label : (int, int) Hashtbl.t;   (* vid -> label of its block *)
  shapes : ((int, int) Hashtbl.t * (int, int) Hashtbl.t) Lazy.t;
      (* tensor/string vid -> class root, and -> rank (0 for a string);
         only functions that index or measure an array build them *)
  ranges : (int, itv) Hashtbl.t;      (* root vid -> global range *)
  facts : (int * itv) list array;     (* block number -> dominating facts *)
}

let root env (v : var) = (Analysis.chase_copies env.defs v).vid

let block env label = env.cfg.nodes.(Hashtbl.find env.cfg.index label)

let shape_of env vid = Option.value ~default:vid (Hashtbl.find_opt (fst (Lazy.force env.shapes)) vid)

(* Shape classes: values with the dims of another.  A copy, a store's
   result and the elementwise scalar/unary forms keep their operand's
   dims; a block parameter has its arguments' class when they all agree,
   found optimistically (a disagreement makes it its own class). *)
let shape_classes f defs =
  let blocks = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace blocks b.label b) f.blocks;
  let params = Hashtbl.create 16 in  (* vid -> Some class | None (not known yet) *)
  List.iter (fun b -> Array.iter (fun p -> Hashtbl.replace params p.vid None) b.bparams) f.blocks;
  let rec cls depth (v : var) =
    if depth > 64 then Some v.vid
    else
      match Hashtbl.find_opt params v.vid with
      | Some c -> c
      | None -> (
        match Hashtbl.find_opt defs v.vid with
        | Some (Copy { src = Ovar s; _ }) -> cls (depth + 1) s
        | Some (Call { callee = Resolved { base; _ }; args; _ })
          when Array.length args > 0
               && (String.starts_with ~prefix:"part_set_" base
                   || String.starts_with ~prefix:"array_scalar_" base
                   || String.starts_with ~prefix:"array_unary_" base) -> (
          match args.(0) with
          | Ovar s when rank_of s <> None -> cls (depth + 1) s
          | _ -> Some v.vid)
        | _ -> Some v.vid)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
         List.iter
           (fun (j : jump) ->
              Array.iteri
                (fun q (p : var) ->
                   match Hashtbl.find_opt params p.vid with
                   | Some (Some c) when c = p.vid -> ()  (* settled as its own class *)
                   | Some cur ->
                     let arg =
                       match j.jargs.(q) with
                       | Ovar a when a.vid = p.vid -> cur
                       | Ovar a -> cls 0 a
                       | Oconst _ -> Some p.vid
                     in
                     let next =
                       match cur, arg with
                       | _, None -> cur
                       | None, Some c -> Some c
                       | Some c, Some c' -> if c = c' then cur else Some p.vid
                     in
                     if next <> cur then begin
                       Hashtbl.replace params p.vid next;
                       changed := true
                     end
                   | None -> ())
                (match Hashtbl.find_opt blocks j.target with Some t -> t.bparams | None -> [||]))
           (match b.term with
            | Jump j -> [ j ]
            | Branch { if_true; if_false; _ } -> [ if_true; if_false ]
            | Return _ | Unreachable -> []))
      f.blocks
  done;
  let shape = Hashtbl.create 16 and ranks = Hashtbl.create 16 in
  let record (v : var) =
    match rank_of v with
    | Some r ->
      Hashtbl.replace ranks v.vid r;
      Hashtbl.replace shape v.vid (Option.value ~default:v.vid (cls 0 v))
    | None -> ()
  in
  Array.iter record f.fparams;
  List.iter
    (fun b ->
       Array.iter record b.bparams;
       List.iter (fun i -> List.iter record (instr_defs i)) b.instrs)
    f.blocks;
  (shape, ranks)

(* what is known of one axis of a class's dims *)
let dim_range env r ax =
  let of_len k = { top with lo = max 0 k.lo; hi = max 0 k.hi } in
  let int_range = function
    | Oconst (Cint c) -> const c
    | Ovar v -> Option.value ~default:top (Hashtbl.find_opt env.ranges (root env v))
    | Oconst _ -> top
  in
  let fallback =
    (* a rank-1 tensor or a string is one OCaml block; a matrix may have
       any number of rows when it has no columns *)
    let cap =
      match Hashtbl.find_opt (snd (Lazy.force env.shapes)) r with
      | Some 0 -> Sys.max_string_length
      | Some 1 -> Sys.max_array_length
      | _ -> max_int
    in
    { top with lo = 0; hi = cap }
  in
  match Hashtbl.find_opt env.defs r with
  | Some (Copy { src = Oconst (Cexpr (Wolf_wexpr.Expr.Tensor t)); _ }) ->
    let d = Wolf_wexpr.Tensor.dims t in
    if ax < Array.length d then const d.(ax) else fallback
  | Some (Call { callee = Resolved { base = "constant_array_int" | "constant_array_real" | "range"; _ }; args; _ })
    when ax = 0 ->
    meet fallback (of_len (int_range args.(Array.length args - 1)))
  | Some (Call { callee = Resolved { base = "constant_array_int2" | "constant_array_real2"; _ }; args; _ })
    when ax < 2 ->
    meet fallback (of_len (int_range args.(ax + 1)))
  | _ -> fallback

let facts_for env n vid =
  let global = Option.value ~default:top (Hashtbl.find_opt env.ranges vid) in
  match env.facts.(n) with
  | [] -> global
  | facts -> List.fold_left (fun acc (v, f) -> if v = vid then meet acc f else acc) global facts

let range_at env n = function
  | Oconst (Cint c) -> const c
  | Oconst _ -> top
  | Ovar v -> if is_int v then facts_for env n (root env v) else top

(* the constant bounds of an atom at block n *)
let atom_range env n = function
  | Var vid -> facts_for env n vid
  | Dim (r, ax) -> dim_range env r ax

(* [x <= target + k] (upper) or [x >= target + k] (lower) at block n,
   through at most [depth] symbolic steps.  A variable is searched again
   only with an easier goal than before, so the search stays linear in
   the variables, not exponential in the bounds. *)
let bounded ~upper env n ~depth vid target k =
  let tried = Hashtbl.create 8 in
  let easier k k' = if upper then k > k' else k < k' in
  let rec go depth vid k =
    (match Hashtbl.find_opt tried vid with
     | Some k' when not (easier k k') -> false
     | _ ->
       Hashtbl.replace tried vid k;
       let r = facts_for env n vid and t = atom_range env n target in
       (if upper then
          match add_opt t.lo k with Some lim -> r.hi <= lim | None -> false
        else
          match add_opt t.hi k with Some lim -> r.lo >= lim && lim <> max_int | None -> false)
       || List.exists
            (fun (a, k1) ->
               if a = target then (if upper then k1 <= k else k1 >= k)
               else
                 depth > 0
                 && match a, sub_opt k k1 with
                 | Var v, Some k' -> go (depth - 1) v k'
                 | _ -> false)
            (if upper then r.shi else r.slo))
  in
  go depth vid k

let le = bounded ~upper:true
let ge = bounded ~upper:false

let sym_of env = function Ovar v when is_int v -> Some (Var (root env v)) | _ -> None

(* ---- transfer functions ---- *)

let plus ra rb =
  let lo = lo_or (add_opt ra.lo rb.lo) and hi = hi_or (add_opt ra.hi rb.hi) in
  let sym a_syms b_bound = if b_bound = min_int || b_bound = max_int then [] else shift a_syms b_bound in
  { lo; hi;
    slo = take max_syms (sym ra.slo rb.lo @ sym rb.slo ra.lo);
    shi = take max_syms (sym ra.shi rb.hi @ sym rb.shi ra.hi) }

let neg r =
  { lo = (if r.hi = min_int then min_int else -r.hi);
    hi = (if r.lo = min_int then max_int else -r.lo);
    slo = []; shi = [] }

let times ra rb =
  let corners = [ (ra.lo, rb.lo); (ra.lo, rb.hi); (ra.hi, rb.lo); (ra.hi, rb.hi) ] in
  match List.map (fun (x, y) -> mul_opt x y) corners with
  | [ Some a; Some b; Some c; Some d ] ->
    { top with lo = min (min a b) (min c d); hi = max (max a b) (max c d) }
  | _ -> top

(* does the exact result of [op] on these ranges fit the machine range? *)
let fits op ra rb =
  match op with
  | "binary_plus" -> add_opt ra.lo rb.lo <> None && add_opt ra.hi rb.hi <> None
  | "binary_subtract" -> sub_opt ra.lo rb.hi <> None && sub_opt ra.hi rb.lo <> None
  | "binary_times" ->
    List.for_all (fun (x, y) -> mul_opt x y <> None)
      [ (ra.lo, rb.lo); (ra.lo, rb.hi); (ra.hi, rb.lo); (ra.hi, rb.hi) ]
  | _ -> false

let length_range env t =
  match t with
  | Ovar v ->
    let c = shape_of env v.vid in
    let d = dim_range env c 0 in
    { d with slo = [ (Dim (c, 0), 0) ]; shi = [ (Dim (c, 0), 0) ] }
  | Oconst _ -> { top with lo = 0 }

let transfer env n (dst : var) = function
  | Copy { src; _ } -> range_at env n src
  | Call { callee = Resolved { base; _ }; args; _ } -> (
    let r i = range_at env n args.(i) in
    (* a value is itself plus the other operand *)
    let self_syms i c_lo c_hi =
      match sym_of env args.(i) with
      | Some a ->
        ((if c_lo = min_int then [] else [ (a, c_lo) ]), if c_hi = max_int then [] else [ (a, c_hi) ])
      | None -> ([], [])
    in
    let with_self x (lo_s, hi_s) =
      { x with slo = take max_syms (lo_s @ x.slo); shi = take max_syms (hi_s @ x.shi) }
    in
    match base with
    | "checked_binary_plus" | "binary_plus" when is_int dst ->
      let ra = r 0 and rb = r 1 in
      let x = plus ra rb in
      let x = with_self x (self_syms 0 rb.lo rb.hi) in
      with_self x (self_syms 1 ra.lo ra.hi)
    | "checked_binary_subtract" | "binary_subtract" when is_int dst ->
      let ra = r 0 and rb = r 1 in
      let nb = neg rb in
      with_self (plus ra nb) (self_syms 0 nb.lo nb.hi)
    | "checked_binary_times" | "binary_times" when is_int dst -> times (r 0) (r 1)
    | "checked_unary_minus" -> neg (r 0)
    | "binary_bitand" ->
      let ra = r 0 and rb = r 1 in
      (match ra.lo >= 0, rb.lo >= 0 with
       | true, true -> { top with lo = 0; hi = min ra.hi rb.hi }
       | true, false -> { top with lo = 0; hi = ra.hi }
       | false, true -> { top with lo = 0; hi = rb.hi }
       | false, false -> top)
    | "binary_bitor" | "binary_bitxor" ->
      let ra = r 0 and rb = r 1 in
      if ra.lo >= 0 && rb.lo >= 0 then { top with lo = 0; hi = mask_up (max ra.hi rb.hi) }
      else top
    | "checked_binary_mod" ->
      let rb = r 1 in
      if rb.lo >= 0 then
        let hi = if rb.hi = max_int then max_int - 1 else rb.hi - 1 in
        let shi = match sym_of env args.(1) with Some a -> [ (a, -1) ] | None -> [] in
        { top with lo = 0; hi = max 0 hi; shi }
      else top
    (* Min[a, b] <= a and <= b, with their bounds; Max the other way *)
    | "binary_min" when is_int dst ->
      let ra = r 0 and rb = r 1 in
      let selves = List.filter_map (sym_of env) (Array.to_list args) in
      { lo = min ra.lo rb.lo; hi = min ra.hi rb.hi; slo = [];
        shi = take max_syms (List.map (fun a -> (a, 0)) selves @ ra.shi @ rb.shi) }
    | "binary_max" when is_int dst ->
      let ra = r 0 and rb = r 1 in
      let selves = List.filter_map (sym_of env) (Array.to_list args) in
      { lo = max ra.lo rb.lo; hi = max ra.hi rb.hi; shi = [];
        slo = take max_syms (List.map (fun a -> (a, 0)) selves @ ra.slo @ rb.slo) }
    | "string_byte" | "string_byte_unchecked" -> { top with lo = 0; hi = 255 }
    | "unary_boole" -> { top with lo = 0; hi = 1 }
    | "array_length" | "string_length" -> length_range env args.(0)
    | "array_dim" -> (
      match args.(0), args.(1) with
      | Ovar v, Oconst (Cint ax) ->
        let c = shape_of env v.vid in
        let d = dim_range env c (ax - 1) in
        { d with slo = [ (Dim (c, ax - 1), 0) ]; shi = [ (Dim (c, ax - 1), 0) ] }
      | _ -> { top with lo = 0 })
    | _ -> top)
  | _ -> top

let jumps_to term label =
  match term with
  | Jump j when j.target = label -> [ j ]
  | Branch { if_true; if_false; _ } ->
    List.filter (fun (j : jump) -> j.target = label) [ if_true; if_false ]
  | _ -> []

(* The facts an edge out of block number [h] adds when [cond] is
   [polarity].  A condition that is a parameter of [h] itself (a lowered
   [a && b] joins [b] and [False]) brings the facts of the one
   predecessor that can pass [polarity], and of its argument there. *)
let rec edge_facts env h cond polarity =
  (* x <= y + k *)
  let rel x y k =
    let rx = range_at env h x and ry = range_at env h y in
    let fx =
      match x with
      | Ovar v when is_int v ->
        let hi = hi_or (add_opt ry.hi k) in
        let shi = match sym_of env y with Some a -> [ (a, k) ] | None -> [] in
        [ (root env v, { top with hi; shi }) ]
      | _ -> []
    in
    let fy =
      match y with
      | Ovar v when is_int v ->
        let lo = lo_or (sub_opt rx.lo k) in
        let slo =
          match sym_of env x with
          | Some a -> (match sub_opt 0 k with Some k' -> [ (a, k') ] | None -> [])
          | None -> []
        in
        [ (root env v, { top with lo; slo }) ]
      | _ -> []
    in
    fx @ fy
  in
  let rec go depth (c : var) polarity =
    match Analysis.resolved_def env.defs c with
    | Some (Call { callee = Resolved { base; _ }; args = [| a; b |]; _ })
      when int_operand a && int_operand b -> (
      match base, polarity with
      | "binary_less", true -> rel a b (-1)
      | "binary_less", false -> rel b a 0
      | "binary_less_equal", true -> rel a b 0
      | "binary_less_equal", false -> rel b a (-1)
      | "binary_greater", true -> rel b a (-1)
      | "binary_greater", false -> rel a b 0
      | "binary_greater_equal", true -> rel b a 0
      | "binary_greater_equal", false -> rel a b (-1)
      | "binary_equal", true -> rel a b 0 @ rel b a 0
      | _ -> [])
    | Some (Call { callee = Resolved { base = "unary_not"; _ }; args = [| Ovar c' |]; _ })
      when depth < 2 ->
      go (depth + 1) c' (not polarity)
    | _ -> []
  in
  let hb = env.cfg.nodes.(h) in
  match cond with
  | Ovar c -> (
    match Array.find_index (fun (p : var) -> p.vid = c.vid) hb.bparams with
    | None -> go 0 c polarity
    | Some q -> (
      let feasible =
        List.concat_map
          (fun pn ->
             List.filter_map
               (fun (j : jump) ->
                  match j.jargs.(q) with
                  | Oconst (Cbool b) when b <> polarity -> None
                  | a -> Some (pn, a))
               (jumps_to env.cfg.nodes.(pn).term hb.label))
          (List.filter (fun pn -> pn < env.cfg.nreach) (Array.to_list env.cfg.preds.(h)))
      in
      match feasible with
      | [ (pn, a) ] when pn < h -> env.facts.(pn) @ edge_facts env pn a polarity
      | _ -> []))
  | Oconst _ -> []

(* does the back edge pass [p + c] (c >= 0) for parameter [p]? *)
let steps_up env (p : var) = function
  | Ovar s -> (
    match Analysis.resolved_def env.defs s with
    | Some
        (Call
           { callee = Resolved { base = "checked_binary_plus" | "binary_plus"; _ };
             args = [| Ovar p'; Oconst (Cint c) |] | [| Oconst (Cint c); Ovar p' |];
             _ }) ->
      c >= 0 && root env p' = p.vid
    | _ -> false)
  | Oconst _ -> false

(* [assume]: facts that hold at the entry of the block with that label *)
let analyse ?(assume = (-1, [])) f =
  let cfg = Analysis.build_cfg f in
  let defs = Analysis.def_table f in
  let def_label = Hashtbl.create 64 in
  List.iter
    (fun b ->
       Array.iter (fun (p : var) -> Hashtbl.replace def_label p.vid b.label) b.bparams;
       List.iter
         (fun i -> List.iter (fun (d : var) -> Hashtbl.replace def_label d.vid b.label) (instr_defs i))
         b.instrs)
    f.blocks;
  let env =
    { cfg; defs; def_label; shapes = lazy (shape_classes f defs); ranges = Hashtbl.create 64;
      facts = Array.make (Array.length cfg.nodes) [] }
  in
  (* an atom a join may keep: defined strictly before block [label] *)
  let avail label = function
    | Var v | Dim (v, _) -> (
      match Hashtbl.find_opt def_label v with
      | Some l -> l <> label && Analysis.dominates cfg l label
      | None -> Array.exists (fun (p : var) -> p.vid = v) f.fparams)
  in
  let set vid x changed =
    match Hashtbl.find_opt env.ranges vid with
    | Some old when equal_itv old x -> ()
    | _ ->
      Hashtbl.replace env.ranges vid x;
      changed := true
  in
  let round first =
    let changed = ref false in
    for n = 0 to cfg.nreach - 1 do
      let b = cfg.nodes.(n) in
      let inherited = if n = 0 then [] else env.facts.(cfg.idom.(n)) in
      (* the edge from the one predecessor n does not dominate (a loop
         header's back edges come from blocks it dominates) dominates n *)
      let edge =
        match
          List.filter
            (fun h -> h < cfg.nreach && not (Analysis.dominates cfg b.label cfg.nodes.(h).label))
            (Array.to_list cfg.preds.(n))
        with
        | [ h ] -> (
          match cfg.nodes.(h).term with
          | Branch { cond; if_true; if_false } when if_true.target <> if_false.target ->
            edge_facts env h cond (if_true.target = b.label)
          | _ -> [])
        | _ -> []
      in
      let assumed = if fst assume = b.label then snd assume else [] in
      env.facts.(n) <- inherited @ edge @ assumed;
      Array.iteri
        (fun q (p : var) ->
           if is_int p then begin
             let incoming =
               List.concat_map
                 (fun pn ->
                    List.map (fun (j : jump) -> (pn, j.jargs.(q)))
                      (jumps_to cfg.nodes.(pn).term b.label))
                 (Array.to_list cfg.preds.(n) |> List.filter (fun pn -> pn < cfg.nreach))
             in
             let back = List.filter (fun (pn, _) -> pn >= n) incoming in
             let x =
               List.fold_left
                 (fun acc (pn, a) ->
                    let r =
                      if pn >= n && first then top
                      else range_at env pn a
                    in
                    let r =
                      { r with slo = List.filter (fun (a, _) -> avail b.label a) r.slo;
                               shi = List.filter (fun (a, _) -> avail b.label a) r.shi }
                    in
                    match acc with None -> Some r | Some acc -> Some (join acc r))
                 None incoming
               |> Option.value ~default:top
             in
             let x =
               if back <> [] && List.length back < List.length incoming
                  && List.for_all (fun (_, a) -> steps_up env p a) back
               then
                 let entry_lo =
                   List.fold_left
                     (fun lo (pn, a) -> if pn >= n then lo else min lo (range_at env pn a).lo)
                     max_int incoming
                 in
                 { x with lo = max x.lo entry_lo }
               else x
             in
             set p.vid x changed
           end)
        b.bparams;
      List.iter
        (fun i ->
           match i with
           | (Call { dst; _ } | Copy { dst; _ }) when is_int dst ->
             set dst.vid (transfer env n dst i) changed
           | _ -> ())
        b.instrs
    done;
    !changed
  in
  ignore (round true);
  (* one more round narrows what the first took as unbounded at a loop
     header; an acyclic function is exact after one *)
  let cyclic = ref false in
  Array.iteri
    (fun n ps -> if n < cfg.nreach && Array.exists (fun pn -> pn >= n && pn < cfg.nreach) ps then cyclic := true)
    cfg.preds;
  if !cyclic then ignore (round false);
  env

(* ---- proofs ---- *)

type verdict =
  | Proved of string          (* the sibling to take *)
  | Needs of (int * int * int * int) list list
      (* bounds not proved: one list per index, each of whose
         (w, class, axis, k) alternatives would prove it from
         [w + k <= dims(class)[[axis]]] *)
  | Unproved

(* An index at block n within the container's axis: at least 1, and at
   most the dim through the symbolic bounds.  [outside] says which values
   a need may name. *)
let index_verdict env n ~outside container ax idx =
  let ri = range_at env n idx in
  if ri.lo < 1 then Unproved
  else
    match container with
    | Oconst (Cexpr (Wolf_wexpr.Expr.Tensor t)) ->
      let d = Wolf_wexpr.Tensor.dims t in
      if ax < Array.length d && ri.hi <= d.(ax) then Proved "" else Unproved
    | Oconst _ -> Unproved
    | Ovar t -> (
      let c = shape_of env t.vid in
      let target = Dim (c, ax) in
      match idx with
      | Oconst (Cint i) -> if i <= (dim_range env c ax).lo then Proved "" else Unproved
      | Oconst _ -> Unproved
      | Ovar v ->
        let x = root env v in
        if le env n ~depth:4 x target 0 then Proved ""
        else
          (* the values defined before the loop on x's bound chains *)
          let rec chain depth x k =
            List.concat_map
              (fun (a, k1) ->
                 match a, add_opt k k1 with
                 | Var w, Some k' when k' > -1_000_000 && k' < 1_000 ->
                   if outside w then [ (w, c, ax, k') ]
                   else if depth > 0 then chain (depth - 1) w k'
                   else []
                 | _ -> [])
              (facts_for env n x).shi
          in
          match if outside c then chain 3 x 0 else [] with
          | [] -> Unproved
          | alternatives -> Needs [ alternatives ])

let verdict env n ~outside i =
  match i with
  | Call { callee = Resolved { base; _ }; args; dst } -> (
    match overflow_op base with
    | Some sib ->
      if Array.for_all int_operand args && is_int dst
         && fits sib (range_at env n args.(0)) (range_at env n args.(1))
      then Proved sib
      else Unproved
    | None -> (
      match access_indices base with
      | None -> Unproved
      | Some positions ->
        let vs = List.mapi (fun ax pos -> index_verdict env n ~outside args.(0) ax args.(pos)) positions in
        if List.for_all (function Proved _ -> true | _ -> false) vs then Proved (base ^ "_unchecked")
        else if List.exists (function Unproved -> true | _ -> false) vs then Unproved
        else Needs (List.concat_map (function Needs l -> l | _ -> []) vs)))
  | _ -> Unproved

let is_check = function
  | Call { callee = Resolved { base; _ }; _ } ->
    overflow_op base <> None || access_indices base <> None
  | _ -> false

let is_access_check = function
  | Call { callee = Resolved { base; _ }; _ } -> access_indices base <> None
  | _ -> false

(* Rewrite every proved check.  True when a proof may let LICM hoist: an
   arithmetic row in a loop now never fails.  An access stays put, and a
   proof elsewhere helps no other pass, so it asks for no further fixpoint
   round. *)
let rewrite f env (t : tally) =
  let in_loop =
    lazy
      (let loops = Analysis.natural_loops f env.cfg in
       fun label -> List.exists (fun l -> Analysis.loop_contains l label) loops)
  in
  let changed = ref false in
  Array.iteri
    (fun n b ->
       if n < env.cfg.nreach then
         b.instrs <-
           List.map
             (fun i ->
                if not (is_check i) then i
                else
                  match verdict env n ~outside:(fun _ -> false) i, i with
                  | Proved sib, Call { dst; callee; args } ->
                    if overflow_op (match callee with Resolved r -> r.base | _ -> "") <> None
                    then begin
                      if Lazy.force in_loop b.label then changed := true;
                      t.overflow <- t.overflow + 1;
                      Wolf_obs.Metrics.incr proved_overflow
                    end
                    else begin
                      t.bounds <- t.bounds + 1;
                      Wolf_obs.Metrics.incr proved_bounds
                    end;
                    Call { dst; callee = Analysis.sibling callee sib; args }
                  | _ -> i)
             b.instrs)
    env.cfg.nodes;
  !changed

(* ---- versioning ---- *)

let resolved base tys = Resolved { base; mangled = Types.mangled base tys }

let ty_of (v : var) = Option.get v.vty

(* Clone loop [l] of [f] behind the guard [w + k <= dims(c)[[ax]]] for
   each (c, ax, k) of [limits] in its preheader. *)
let clone_nest f (l : Analysis.loop) (w : var) limits =
  let in_loop label = Analysis.loop_contains l label in
  let pre_label = Analysis.ensure_preheader f ~header:l.lheader ~latches:l.latches in
  let pre = find_block f pre_label in
  let loop_blocks = List.filter (fun b -> in_loop b.label) f.blocks in
  let defined = Analysis.loop_defs f l in
  (* the exit: loop values used after the loop pass through its parameters *)
  let exits =
    List.sort_uniq compare
      (List.concat_map (fun b -> List.filter (fun s -> not (in_loop s)) (successors b.term))
         loop_blocks)
  in
  let used_after = Hashtbl.create 8 in
  List.iter
    (fun b ->
       if not (in_loop b.label) then begin
         let note = function
           | Ovar v when Hashtbl.mem defined v.vid -> Hashtbl.replace used_after v.vid v
           | _ -> ()
         in
         List.iter (iter_instr_uses note) b.instrs;
         iter_term_uses note b.term
       end)
    f.blocks;
  let escaping =
    Hashtbl.fold (fun _ v acc -> v :: acc) used_after []
    |> List.sort (fun (a : var) b -> compare a.vid b.vid)
  in
  let next_label = ref (1 + List.fold_left (fun m b -> max m b.label) 0 f.blocks) in
  let fresh_label () = let l = !next_label in incr next_label; l in
  (match escaping, exits with
   | [], _ -> ()
   | _, [ e ] ->
     let eb = find_block f e in
     let params = List.map (fun (v : var) -> fresh_var ~name:v.vname ?ty:v.vty ()) escaping in
     let subst = Hashtbl.create 8 in
     List.iter2 (fun (v : var) p -> Hashtbl.replace subst v.vid p) escaping params;
     let rename = function
       | Ovar v as op -> (match Hashtbl.find_opt subst v.vid with Some p -> Ovar p | None -> op)
       | op -> op
     in
     List.iter
       (fun b ->
          if not (in_loop b.label) then begin
            b.instrs <- List.map (map_instr_operands rename) b.instrs;
            b.term <- map_term_operands rename b.term
          end)
       f.blocks;
     eb.bparams <- Array.append eb.bparams (Array.of_list params);
     let extra = Array.of_list (List.map (fun v -> Ovar v) escaping) in
     let pass (j : jump) = if j.target = e then { j with jargs = Array.append j.jargs extra } else j in
     List.iter
       (fun b ->
          b.term <-
            (match b.term with
             | Jump j -> Jump (pass j)
             | Branch br -> Branch { br with if_true = pass br.if_true; if_false = pass br.if_false }
             | t -> t))
       loop_blocks
   | _ -> invalid_arg "Opt_range.clone_nest: loop values escape through several exits");
  (* the clone *)
  let label_map = Hashtbl.create 16 and var_map = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace label_map b.label (fresh_label ())) loop_blocks;
  let clone_var (v : var) =
    let v' = fresh_var ~name:v.vname ?ty:v.vty () in
    Hashtbl.replace var_map v.vid v';
    v'
  in
  List.iter
    (fun b ->
       Array.iter (fun v -> ignore (clone_var v)) b.bparams;
       List.iter (fun i -> List.iter (fun v -> ignore (clone_var v)) (instr_defs i)) b.instrs)
    loop_blocks;
  let map_op = function
    | Ovar v as op -> (match Hashtbl.find_opt var_map v.vid with Some v' -> Ovar v' | None -> op)
    | op -> op
  in
  let map_jump (j : jump) =
    { target = Option.value ~default:j.target (Hashtbl.find_opt label_map j.target);
      jargs = Array.map map_op j.jargs }
  in
  let rename_dst (v : var) = Hashtbl.find var_map v.vid in
  let clone_instr i =
    match map_instr_operands map_op i with
    | Load_argument r -> Load_argument { r with dst = rename_dst r.dst }
    | Copy r -> Copy { r with dst = rename_dst r.dst }
    | Call r -> Call { r with dst = rename_dst r.dst }
    | New_closure r -> New_closure { r with dst = rename_dst r.dst }
    | Kernel_call r -> Kernel_call { r with dst = rename_dst r.dst }
    | (Abort_check | Abort_poll _ | Mem_acquire _ | Mem_release _) as i -> i
  in
  let clones =
    List.map
      (fun b ->
         { label = Hashtbl.find label_map b.label;
           bparams = Array.map rename_dst b.bparams;
           instrs = List.map clone_instr b.instrs;
           term =
             (match b.term with
              | Jump j -> Jump (map_jump j)
              | Branch { cond; if_true; if_false } ->
                Branch { cond = map_op cond; if_true = map_jump if_true; if_false = map_jump if_false }
              | Return op -> Return (map_op op)
              | Unreachable -> Unreachable) })
      loop_blocks
  in
  (* the guard: [w <= min (dim - k)] over the limits, one branch in the
     preheader, which alone passes the loop's entry values on *)
  let entry_args = match pre.term with Jump j -> j.jargs | _ -> assert false in
  let i64 = [| Types.int64; Types.int64 |] in
  let call name callee args =
    let dst = fresh_var ~name ~ty:Types.int64 () in
    (Call { dst; callee; args }, dst)
  in
  let limit ((c : var), ax, k) =
    let get, dim =
      match rank_of c with
      | Some 0 -> call "len" (resolved "string_length" [| ty_of c |]) [| Ovar c |]
      | _ when ax = 0 -> call "len" (resolved "array_length" [| ty_of c |]) [| Ovar c |]
      | _ ->
        call "dim" (Resolved { base = "array_dim"; mangled = "array_dim" })
          [| Ovar c; Oconst (Cint (ax + 1)) |]
    in
    if k = 0 then ([ get ], dim)
    else
      (* dim >= 0, so dim - k cannot overflow *)
      let sub, lim = call "lim" (resolved "binary_subtract" i64) [| Ovar dim; Oconst (Cint k) |] in
      ([ get; sub ], lim)
  in
  let instrs, lims = List.split (List.map limit limits) in
  let mins, least =
    List.fold_left
      (fun (acc, m) lim ->
         let i, v = call "lim" (resolved "binary_min" i64) [| Ovar m; Ovar lim |] in
         (acc @ [ i ], v))
      ([], List.hd lims) (List.tl lims)
  in
  let ok = fresh_var ~name:"fits" ~ty:Types.boolean () in
  pre.instrs <-
    pre.instrs @ List.concat instrs @ mins
    @ [ Call { dst = ok; callee = resolved "binary_less_equal" i64; args = [| Ovar w; Ovar least |] } ];
  pre.term <-
    Branch { cond = Ovar ok;
             if_true = { target = Hashtbl.find label_map l.lheader; jargs = entry_args };
             if_false = { target = l.lheader; jargs = entry_args } };
  (* the clone goes after the original nest *)
  let rec insert = function
    | [] -> clones
    | b :: rest when in_loop b.label -> b :: insert_rest rest
    | b :: rest -> b :: insert rest
  and insert_rest = function
    | b :: rest when in_loop b.label -> b :: insert_rest rest
    | rest -> clones @ rest
  in
  f.blocks <- insert f.blocks

(* what one loop's unproved Part checks need, one list of alternatives per
   index, or None when some check cannot be proved by a guard *)
let loop_needs env f (l : Analysis.loop) =
  let defined = Analysis.loop_defs f l in
  let outside vid =
    (not (Hashtbl.mem defined vid))
    && (Hashtbl.mem env.def_label vid || Array.exists (fun (p : var) -> p.vid = vid) f.fparams)
  in
  let needs = ref [] and ok = ref true and checks = ref 0 in
  List.iter
    (fun b ->
       if Analysis.loop_contains l b.label then
         let n = Analysis.number env.cfg b.label in
         if n >= 0 then
           List.iter
             (fun i ->
                if is_access_check i then begin
                  incr checks;
                  match verdict env n ~outside i with
                  | Proved _ -> ()
                  | Unproved -> ok := false
                  | Needs l -> needs := l @ !needs
                end)
             b.instrs)
    f.blocks;
  if not !ok || !needs = [] || !checks > 64 then None else Some !needs

let var_named f vid =
  let found = ref None in
  iter_vars f (fun v -> if v.vid = vid then found := Some v);
  !found

(* Loop values used after the loop must leave through one exit block that
   only the loop enters, so that both copies can hand them over. *)
let single_exit env f (l : Analysis.loop) =
  let in_loop = Analysis.loop_contains l in
  let defined = Analysis.loop_defs f l in
  let exits =
    List.sort_uniq compare
      (List.concat_map
         (fun lb -> List.filter (fun s -> not (in_loop s)) (successors (block env lb).term))
         l.lbody)
  in
  let escapes =
    List.exists
      (fun b ->
         (not (in_loop b.label))
         && (List.exists (List.exists (function Ovar v -> Hashtbl.mem defined v.vid | Oconst _ -> false))
               (List.map instr_uses b.instrs)
             || List.exists (function Ovar v -> Hashtbl.mem defined v.vid | Oconst _ -> false)
                  (term_uses b.term)))
      f.blocks
  in
  match exits with
  | [] -> not escapes
  | [ e ] ->
    (not escapes)
    || List.for_all (fun (src, _) -> in_loop src) (Analysis.incoming_jumps f e)
  | _ -> not escapes

let try_version env f (t : tally) (l : Analysis.loop) needs =
  let hn = Analysis.number env.cfg l.lheader in
  let bound k = max k 0 in
  (* one bounded value w, so that one comparison guards the nest: the first
     candidate every index can use and whose guard the header's facts do
     not refute (a refuted guard never holds, e.g. on the copy an earlier
     versioning left with its checks) *)
  let refuted (w, c, ax, k) = ge env hn ~depth:4 w (Dim (c, ax)) (1 - bound k) in
  let with_w w =
    List.map (List.filter (fun (w', _, _, _) -> w' = w)) needs
  in
  let usable w =
    List.for_all (fun alts -> alts <> [] && not (List.exists refuted alts)) (with_w w)
  in
  let candidates = List.sort_uniq compare (List.map (fun (w, _, _, _) -> w) (List.hd needs)) in
  match List.find_opt usable candidates with
  | None -> false
  | Some w ->
  (* one limit per (class, axis), for the largest k *)
  let needs =
    List.fold_left
      (fun acc (w, c, ax, k) ->
         match List.partition (fun (_, c', ax', _) -> c' = c && ax' = ax) acc with
         | [ (_, _, _, k') ], rest -> (w, c, ax, max k k') :: rest
         | _, rest -> (w, c, ax, k) :: rest)
      [] (List.concat (with_w w))
    |> List.sort compare
  in
  let limits =
    List.filter_map
      (fun (_, c, ax, k) -> Option.map (fun c -> (c, ax, bound k)) (var_named f c))
      needs
  in
  List.length limits = List.length needs
  && single_exit env f l
  &&
  match var_named f w with
  | None -> false
  | Some wv ->
  let assumed =
    List.map
      (fun (w, c, ax, k) ->
         let d = dim_range env c ax in
         (w, { top with hi = hi_or (sub_opt d.hi (bound k)); shi = [ (Dim (c, ax), -bound k) ] }))
      needs
  in
  let env' = analyse ~assume:(l.lheader, assumed) f in
  let proved lb =
    let n = Analysis.number env'.cfg lb in
    List.for_all
      (fun i ->
         (not (is_access_check i))
         || match verdict env' n ~outside:(fun _ -> false) i with Proved _ -> true | _ -> false)
      (block env' lb).instrs
  in
  List.for_all proved l.lbody
  && begin
    clone_nest f l wv limits;
    t.versioned <- t.versioned + 1;
    Wolf_obs.Metrics.incr versioned_counter;
    true
  end

(* The loops already tried, as "function/header" words of one program
   metadata entry (the pipeline keeps no [range.] entry past compile): the
   original copy of a versioned nest keeps its unproved checks, and guard
   failures are a disjunction no fact can state, so only this list keeps
   it from being versioned again. *)
let versioned_key = "range.versioned"

let versioned p =
  String.split_on_char ' ' (Option.value ~default:"" (List.assoc_opt versioned_key p.pmeta))

(* mark the loops of the original nest, inner ones too: their guard
   would be the one that just failed *)
let mark_versioned p f loops (l : Analysis.loop) =
  let words =
    List.filter_map
      (fun (m : Analysis.loop) ->
         if Analysis.loop_contains l m.lheader then Some (Printf.sprintf "%s/%d" f.fname m.lheader)
         else None)
      loops
  in
  p.pmeta <-
    (versioned_key, String.concat " " (words @ versioned p))
    :: List.remove_assoc versioned_key p.pmeta

(* version the outermost loop, else an inner one, that a guard would clear *)
let version env p f (t : tally) =
  let entry_label = (entry f).label in
  let done_ = versioned p in
  let loops = Analysis.natural_loops f env.cfg in
  List.exists
    (fun (l : Analysis.loop) ->
       l.lheader <> entry_label
       && (not (List.mem (Printf.sprintf "%s/%d" f.fname l.lheader) done_))
       && List.fold_left (fun n lb -> n + List.length (block env lb).instrs) 0 l.lbody <= 400
       && match loop_needs env f l with
       | Some needs ->
         (* tried once: a guard that cannot clear the nest now will not on
            the next fixpoint round either *)
         let ok = try_version env f t l needs in
         mark_versioned p f (if ok then loops else [ l ]) l;
         ok
       | None -> false)
    (List.stable_sort (fun (a : Analysis.loop) b -> compare a.ldepth b.ldepth) loops)

(* only functions with something to prove are analysed *)
let has_check f = List.exists (fun b -> List.exists is_check b.instrs) f.blocks

let run (t : tally) (p : program) =
  List.fold_left
    (fun changed f ->
       if not (has_check f) then changed
       else
         (* a rewrite renames callees only: the ranges still hold *)
         let env = analyse f in
         let proved = rewrite f env t in
         let unproved_access = List.exists (fun b -> List.exists is_access_check b.instrs) f.blocks in
         if unproved_access && version env p f t then begin
           ignore (rewrite f (analyse f) t);
           true
         end
         else proved || changed)
    false p.funcs

let bounds f (v : var) =
  let env = analyse f in
  let r = facts_for env 0 (root env v) in
  (r.lo, r.hi)
