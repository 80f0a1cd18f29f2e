open Wir

type cfg = {
  nodes : block array;
  nreach : int;
  index : (int, int) Hashtbl.t;
  succs : int array array;
  preds : int array array;
  idom : int array;
}

(* Blocks are numbered in reverse postorder from the entry, then the
   unreachable ones in list order; every other array is indexed by that
   number.  Malformed IR is tolerated: a jump to a missing label is no edge,
   an edge into the entry is an ordinary predecessor, and a duplicate label
   names its first block (later ones are unreachable). *)
let build_cfg f =
  let all = Array.of_list f.blocks in
  let total = Array.length all in
  let index = Hashtbl.create (2 * total) in
  Array.iteri
    (fun k b -> if not (Hashtbl.mem index b.label) then Hashtbl.add index b.label k)
    all;
  let succ_pos =
    Array.map (fun b -> List.filter_map (Hashtbl.find_opt index) (successors b.term)) all
  in
  (* postorder from the entry, consed up into reverse postorder *)
  let seen = Array.make total false in
  let rpo = ref [] in
  let rec dfs k =
    if not seen.(k) then begin
      seen.(k) <- true;
      List.iter dfs succ_pos.(k);
      rpo := k :: !rpo
    end
  in
  if total > 0 then dfs 0;
  let num = Array.make total (-1) and count = ref 0 in
  let number k =
    num.(k) <- !count;
    incr count
  in
  List.iter number !rpo;
  let reached = !count in
  Array.iteri (fun k _ -> if not seen.(k) then number k) all;
  let nodes = Array.copy all in
  Array.iteri (fun k b -> nodes.(num.(k)) <- b) all;
  Hashtbl.filter_map_inplace (fun _ k -> Some num.(k)) index;
  let succs = Array.make total [||] in
  Array.iteri
    (fun k ss -> succs.(num.(k)) <- Array.of_list (List.map (fun s -> num.(s)) ss))
    succ_pos;
  let npreds = Array.make total 0 in
  Array.iter (Array.iter (fun s -> npreds.(s) <- npreds.(s) + 1)) succs;
  let preds = Array.map (fun n -> Array.make n 0) npreds in
  Array.iteri
    (fun i ss ->
       Array.iter
         (fun s ->
            let k = npreds.(s) - 1 in
            npreds.(s) <- k;
            preds.(s).(k) <- i)
         ss)
    succs;
  (* Cooper–Harvey–Kennedy iterative dominators over RPO numbers: a
     dominator always has the smaller number *)
  let idom = Array.make total (-1) in
  if reached > 0 then idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a else if a > b then intersect idom.(a) b else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to reached - 1 do
      let d =
        Array.fold_left
          (fun d p -> if idom.(p) < 0 then d else if d < 0 then p else intersect p d)
          (-1) preds.(i)
      in
      if d <> idom.(i) then begin
        idom.(i) <- d;
        changed := true
      end
    done
  done;
  { nodes; nreach = reached; index; succs; preds; idom }

let number cfg label =
  match Hashtbl.find_opt cfg.index label with
  | Some i when i < cfg.nreach -> i
  | _ -> -1

let reachable cfg label = number cfg label >= 0

let dominates_num cfg a b =
  let rec go b = b = a || (b > a && go cfg.idom.(b)) in
  a >= 0 && b >= 0 && go b

let dominates cfg a b = a = b || dominates_num cfg (number cfg a) (number cfg b)

let loop_headers f cfg =
  let headers = Hashtbl.create 8 in
  List.iter
    (fun b ->
       List.iter
         (fun succ -> if dominates cfg succ b.label then Hashtbl.replace headers succ ())
         (successors b.term))
    f.blocks;
  Hashtbl.fold (fun l () acc -> l :: acc) headers []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Natural loops (paper §4.5's loop obligations; used by the loop
   optimisation layer).  A back edge src -> hdr has [hdr] dominating [src];
   the loop body is everything that reaches a latch without passing the
   header. *)

type loop = {
  lheader : int;
  latches : int list;      (* back-edge sources, sorted *)
  lbody : int list;        (* body labels including the header, sorted *)
  ldepth : int;            (* nesting depth, 1 = outermost *)
}

let natural_loops f cfg =
  (* back edges, grouped by header *)
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun b ->
       if reachable cfg b.label then
         List.iter
           (fun succ ->
              if dominates cfg succ b.label then begin
                let cur = Option.value ~default:[] (Hashtbl.find_opt by_header succ) in
                Hashtbl.replace by_header succ (b.label :: cur)
              end)
           (successors b.term))
    f.blocks;
  let loops =
    Hashtbl.fold
      (fun header latches acc ->
         (* backward walk from the latches, stopping at the header *)
         let body = Hashtbl.create 8 in
         Hashtbl.replace body header ();
         let rec walk l =
           if not (Hashtbl.mem body l) then begin
             Hashtbl.replace body l ();
             let i = number cfg l in
             if i >= 0 then
               Array.iter
                 (fun p -> if p < cfg.nreach then walk cfg.nodes.(p).label)
                 cfg.preds.(i)
           end
         in
         List.iter walk latches;
         let lbody = Hashtbl.fold (fun l () acc -> l :: acc) body [] |> List.sort compare in
         { lheader = header; latches = List.sort compare latches; lbody; ldepth = 0 }
         :: acc)
      by_header []
  in
  (* depth = number of loops whose body contains this header *)
  let loops =
    List.map
      (fun l ->
         let d =
           List.length (List.filter (fun m -> List.mem l.lheader m.lbody) loops)
         in
         { l with ldepth = d })
      loops
  in
  List.sort (fun a b -> compare a.lheader b.lheader) loops

let loop_contains l label = List.mem label l.lbody

let innermost loops l =
  (* no distinct loop is nested inside l *)
  not (List.exists (fun m -> m.lheader <> l.lheader && loop_contains l m.lheader) loops)

(* Ensure the loop at [header] has a preheader: a block outside the loop
   that is the unique non-latch predecessor of the header and ends in an
   unconditional jump to it.  Reuses an existing block when one qualifies;
   otherwise splits the entry edges with a fresh block whose parameters
   mirror the header's.  The caller must not pass the entry block (it has no
   incoming entry edges to split). *)
let ensure_preheader f ~header ~latches =
  let hdr = find_block f header in
  let preds =
    List.filter (fun b -> List.mem header (successors b.term)) f.blocks
  in
  let entry_preds = List.filter (fun b -> not (List.mem b.label latches)) preds in
  match entry_preds with
  | [ p ] when (match p.term with
                | Jump { target; _ } -> target = header
                | _ -> false) ->
    p.label
  | _ ->
    let fresh_label =
      1 + List.fold_left (fun acc b -> max acc b.label) 0 f.blocks
    in
    let params =
      Array.map (fun v -> fresh_var ~name:v.vname ?ty:v.vty ()) hdr.bparams
    in
    let pre =
      { label = fresh_label;
        bparams = params;
        instrs = [];
        term = Jump { target = header; jargs = Array.map (fun v -> Ovar v) params } }
    in
    List.iter
      (fun p ->
         let retarget (j : jump) =
           if j.target = header then { j with target = fresh_label } else j
         in
         p.term <-
           (match p.term with
            | Jump j -> Jump (retarget j)
            | Branch { cond; if_true; if_false } ->
              Branch { cond; if_true = retarget if_true; if_false = retarget if_false }
            | (Return _ | Unreachable) as t -> t))
      entry_preds;
    (* insert just before the header for readable dumps; entry stays first *)
    let rec insert = function
      | [] -> [ pre ]
      | b :: rest when b.label = header -> pre :: b :: rest
      | b :: rest -> b :: insert rest
    in
    f.blocks <- insert f.blocks;
    fresh_label

(* ---- small SSA utilities shared by the loop passes ---- *)

let def_table f =
  let t = Hashtbl.create 64 in
  List.iter
    (fun b ->
       List.iter
         (fun i -> List.iter (fun v -> Hashtbl.replace t v.vid i) (instr_defs i))
         b.instrs)
    f.blocks;
  t

(* Follow SSA Copy chains to the root variable (value-preserving; the depth
   bound guards against un-linted cyclic input). *)
let chase_copies defs v =
  let rec go (v : var) depth =
    if depth > 8 then v
    else
      match Hashtbl.find_opt defs v.vid with
      | Some (Copy { src = Ovar u; _ }) -> go u (depth + 1)
      | _ -> v
  in
  go v 0

let resolved_def defs v = Hashtbl.find_opt defs (chase_copies defs v).vid

let incoming_jumps f label =
  List.concat_map
    (fun b ->
       let js =
         match b.term with
         | Jump j -> [ (b.label, j) ]
         | Branch { if_true; if_false; _ } -> [ (b.label, if_true); (b.label, if_false) ]
         | Return _ | Unreachable -> []
       in
       List.filter (fun (_, j) -> j.target = label) js)
    f.blocks

(* Does every value reaching position [pos] of [label] over non-latch edges
   come from an integer constant >= [bound]?  Follows forwarding block
   parameters (e.g. a preheader introduced by LICM) up to three levels. *)
let entry_consts_ge f ~latches ~label ~pos ~bound =
  let rec go ~latches ~label ~pos depth =
    depth < 3
    && List.for_all
         (fun (src, (j : jump)) ->
            List.mem src latches
            || (match j.jargs.(pos) with
                | Oconst (Cint k) -> k >= bound
                | Oconst _ -> false
                | Ovar v ->
                  (* forwarded parameter: check the forwarder's own edges *)
                  let params = (find_block f src).bparams in
                  (match Array.find_index (fun p -> p.vid = v.vid) params with
                   | Some q -> go ~latches:[] ~label:src ~pos:q (depth + 1)
                   | None -> false)))
         (incoming_jumps f label)
  in
  go ~latches ~label ~pos 0

(* ---- the counted-loop view ---- *)

let loop_defs f l =
  let t = Hashtbl.create 32 in
  List.iter
    (fun b ->
       if loop_contains l b.label then begin
         Array.iter (fun v -> Hashtbl.replace t v.vid ()) b.bparams;
         List.iter
           (fun i -> List.iter (fun v -> Hashtbl.replace t v.vid ()) (instr_defs i))
           b.instrs
       end)
    f.blocks;
  t

type counted_loop = {
  defs : (int, unit) Hashtbl.t;
  invariant : operand -> bool;
  def_of : (int, instr) Hashtbl.t;
  guard : var;
  guard_prim : callee;
  strict : bool;
  iv : var;
  iv_pos : int;
  bound : operand;
  on_true : jump;
  on_false : jump;
  exits : bool;
  guard_in_header : bool;
  guard_single_use : bool;
  steps_by_one : bool;
  starts_at_least : int -> bool;
}

let sibling callee base =
  match callee with
  | Resolved { base = b; mangled } ->
    let lb = String.length b in
    let suffix = String.sub mangled lb (String.length mangled - lb) in
    Resolved { base; mangled = base ^ suffix }
  | Prim _ | Func _ | Indirect _ -> invalid_arg "Analysis.sibling: unresolved callee"

let count_uses f vid =
  let n = ref 0 in
  let bump = function Ovar v when v.vid = vid -> incr n | _ -> () in
  List.iter
    (fun b ->
       List.iter (fun i -> List.iter bump (instr_uses i)) b.instrs;
       List.iter bump (term_uses b.term))
    f.blocks;
  !n

let is_int64 (v : var) =
  match v.vty with Some t -> Types.equal t Types.int64 | None -> false

let counted_loop f (l : loop) =
  let hdr = find_block f l.lheader in
  match hdr.term with
  | Branch { cond = Ovar c; if_true; if_false } when loop_contains l if_true.target -> (
    let def_of = def_table f in
    let defs = loop_defs f l in
    let invariant = function
      | Oconst _ -> true
      | Ovar v -> not (Hashtbl.mem defs v.vid)
    in
    (* the bound must be an integer: a Real64 one would give the rewritten
       loop (chunk arithmetic, parallel ranges) mixed-type integer results *)
    let integer_bound = function
      | Oconst (Cint _) -> true
      | Ovar v as op -> invariant op && is_int64 v
      | Oconst _ -> false
    in
    match Hashtbl.find_opt def_of c.vid with
    | Some
        (Call
           { callee =
               Resolved { base = ("binary_less" | "binary_less_equal") as base; _ }
               as guard_prim;
             args = [| Ovar iv0; bound |];
             _ })
      when integer_bound bound -> (
      let iv = chase_copies def_of iv0 in
      match Array.find_index (fun p -> p.vid = iv.vid) hdr.bparams with
      | None -> Error "guard does not test a loop carry"
      | Some iv_pos ->
        let steps_by_one =
          List.for_all
            (fun (src, (j : jump)) ->
               (not (List.mem src l.latches))
               ||
               match j.jargs.(iv_pos) with
               | Ovar s -> (
                 match resolved_def def_of s with
                 | Some
                     (Call
                        { callee = Resolved { base = "checked_binary_plus" | "binary_plus"; _ };
                          args = [| Ovar i'; Oconst (Cint 1) |];
                          _ }) ->
                   (chase_copies def_of i').vid = iv.vid
                 | _ -> false)
               | Oconst _ -> false)
            (incoming_jumps f l.lheader)
        in
        Ok
          { defs; invariant; def_of;
            guard = c;
            guard_prim;
            strict = base = "binary_less";
            iv; iv_pos; bound;
            on_true = if_true;
            on_false = if_false;
            exits = not (loop_contains l if_false.target);
            guard_in_header =
              List.exists
                (fun i -> List.exists (fun v -> v.vid = c.vid) (instr_defs i))
                hdr.instrs;
            guard_single_use = count_uses f c.vid = 1;
            steps_by_one;
            starts_at_least =
              (fun k ->
                 entry_consts_ge f ~latches:l.latches ~label:l.lheader ~pos:iv_pos
                   ~bound:k) })
    | _ -> Error "not a counted loop")
  | _ -> Error "no counted exit test"

let liveness ?(only = fun _ -> true) f =
  let cfg = build_cfg f in
  let live_in : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  let live_out_t : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun b ->
       Hashtbl.replace live_in b.label (Hashtbl.create 8);
       Hashtbl.replace live_out_t b.label (Hashtbl.create 8))
    f.blocks;
  let changed = ref true in
  while !changed do
    changed := false;
    (* iterate blocks in postorder (reverse of rpo) for fast convergence *)
    for i = cfg.nreach - 1 downto 0 do
      let b = cfg.nodes.(i) in
      let l = b.label in
      let out = Hashtbl.find live_out_t l in
      Array.iter
        (fun s ->
           Hashtbl.iter
             (fun v () ->
                if not (Hashtbl.mem out v) then begin
                  Hashtbl.replace out v ();
                  changed := true
                end)
             (Hashtbl.find live_in cfg.nodes.(s).label))
        cfg.succs.(i);
      (* in = (out - defs) + uses, walking instructions backwards *)
      let live = Hashtbl.copy out in
      let use = function
        | Ovar v when only v.vid -> Hashtbl.replace live v.vid ()
        | Ovar _ | Oconst _ -> ()
      in
      iter_term_uses use b.term;
      List.iter
        (fun i ->
           iter_instr_defs (fun v -> Hashtbl.remove live v.vid) i;
           iter_instr_uses use i)
        (List.rev b.instrs);
      Array.iter (fun v -> Hashtbl.remove live v.vid) b.bparams;
      let inn = Hashtbl.find live_in l in
      Hashtbl.iter
        (fun v () ->
           if not (Hashtbl.mem inn v) then begin
             Hashtbl.replace inn v ();
             changed := true
           end)
        live
    done
  done;
  (live_in, live_out_t)

let live_out ?only f = snd (liveness ?only f)
let live_in f = fst (liveness f)

let use_counts f =
  let counts = Hashtbl.create 64 in
  let bump op =
    match op with
    | Ovar v ->
      Hashtbl.replace counts v.vid (1 + Option.value ~default:0 (Hashtbl.find_opt counts v.vid))
    | Oconst _ -> ()
  in
  List.iter
    (fun b ->
       List.iter (fun i -> List.iter bump (instr_uses i)) b.instrs;
       List.iter bump (term_uses b.term))
    f.blocks;
  counts
