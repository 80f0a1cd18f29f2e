(* Data-parallel loop recognition (the "parallel loops" arm of the paper's
   optimisation story, enabled by [Options.parallel_loops]).

   The pass runs once, after the scalar optimisation fixpoint and before the
   mutability/abort/memory obligation passes.  It looks for innermost
   counted loops ({!Analysis.counted_loop}) of the shape the macro
   expansions of [Table], [Map], [Fold] and [Total] produce after inlining —

     header:  c = binary_less{,_equal}(iv, n)     (n an invariant integer)
              Branch c ? body : exit
     ...      one carried accumulator, stepped bodies, single latch
     latch:   iv' = checked_binary_plus(iv, 1); Jump header(iv', acc', ...)

   — and proves three things about the body: every instruction is a pure
   resolved primitive (no calls, closures, kernel escapes, or aliasing
   copies of memory-managed values); nothing defined in the loop is
   observable outside it except through the header's block parameters; and
   the single carried value is updated through a linear chain that is
   either a map (part_set_1 writes indexed by the induction variable,
   values independent of the accumulator) or an associative reduction
   (Plus/Times over Real64, Min/Max over Integer64/Real64 — integer
   Plus/Times stay serial because checked-overflow order is observable).

   A recognised loop is outlined verbatim into a fresh function
   [<fname>$par<k>] taking [captures..., carry, lo, hi] whose guard is
   replaced by [iv <= hi], and the original loop is replaced by

     check: c0 = <original guard>(lo, n); Branch c0 ? run : skip
     run:   clo = New_closure <outlined> [captures]
            res = parallel_for_map|parallel_reduce(clo, init, lo, hi,
                                                   opcode, fingerprint)
     join:  (original header params) -> original exit

   so the zero-trip case never enters the runtime, and the runtime
   ({!Wolf_runtime.Par_runtime}) owns chunking, schedule search, and the
   merge.  Map chains are rewritten to [part_set_1_inplace] inside the
   outline: the runtime hands every chunk a disjoint slice of one private
   copy, which is exactly the copy-on-write outcome of the serial loop.

   The fingerprint passed to the runtime is a digest of the outlined
   function's printed body with variable ids renumbered densely, so the
   measured schedule cache keys on loop structure, not on compilation
   order.  Decisions — parallelised and rejected-with-reason — are
   appended to [program.pmeta] under "parloop." keys for the CLI report
   and the fuzz generator's assertions. *)

open Wir

exception Reject of string

let reject msg = raise (Reject msg)

let is_outlined name =
  let marker = "$par" in
  let ln = String.length name and lm = String.length marker in
  let rec scan i = i + lm <= ln && (String.sub name i lm = marker || scan (i + 1)) in
  scan 0

(* ---------- fingerprint ---------- *)

(* Printed body with the name dropped from the signature line and %ids
   renumbered in first-occurrence order: stable across compilations (the
   var supply is process-global) and equal for structurally equal loops. *)
let fingerprint (fn : func) =
  let s = Wir_print.func_to_string fn in
  let s =
    let ln = String.length fn.fname in
    if String.starts_with ~prefix:fn.fname s then
      String.sub s ln (String.length s - ln)
    else s
  in
  let buf = Buffer.create (String.length s) in
  let map = Hashtbl.create 64 in
  let next = ref 0 in
  let n = String.length s in
  let i = ref 0 in
  let digit c = c >= '0' && c <= '9' in
  while !i < n do
    if s.[!i] = '%' && !i + 1 < n && digit s.[!i + 1] then begin
      let j = ref (!i + 1) in
      while !j < n && digit s.[!j] do incr j done;
      let tok = String.sub s !i (!j - !i) in
      let id =
        match Hashtbl.find_opt map tok with
        | Some d -> d
        | None ->
          let d = !next in
          incr next;
          Hashtbl.add map tok d;
          d
      in
      Buffer.add_string buf "%";
      Buffer.add_string buf (string_of_int id);
      i := !j
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---------- recognition ---------- *)

type kind =
  | Kmap
  | Kreduce of int  (* Par_runtime opcode *)

let kind_name = function Kmap -> "map" | Kreduce _ -> "reduce"

type reco = {
  r_loop : Analysis.loop;
  r_view : Analysis.counted_loop;
  r_carry_pos : int;
  r_kind : kind;
  r_tainted : (int, unit) Hashtbl.t;
}

let recognize (f : func) (l : Analysis.loop) : (reco, string) result =
  try
    let hdr = find_block f l.lheader in
    let latch_label =
      match l.latches with [ x ] -> x | _ -> reject "multiple latches"
    in
    if latch_label = l.lheader then reject "bottom-tested loop";
    let in_body lbl = Analysis.loop_contains l lbl in
    let body_blocks = List.filter (fun b -> in_body b.label) f.blocks in
    (* guard: header exits the loop on a <=|< comparison of a header
       parameter against an invariant integer bound *)
    let cl =
      match Analysis.counted_loop f l with
      | Ok cl -> cl
      | Error msg -> reject msg
    in
    if not cl.exits then reject "no counted exit test";
    if not cl.guard_single_use then reject "loop condition escapes";
    if not cl.guard_in_header then reject "guard not computed in the header";
    let def_of = cl.def_of and loop_defs = cl.defs and iv = cl.iv in
    let iv_pos = cl.iv_pos and exit_jump = cl.on_false in
    let is_hdr_param v = Array.exists (fun p -> p.vid = v.vid) hdr.bparams in
    (* all other body blocks stay inside the loop *)
    List.iter
      (fun b ->
         if b.label <> l.lheader then
           match b.term with
           | Jump j -> if not (in_body j.target) then reject "multiple exits"
           | Branch { if_true; if_false; _ } ->
             if not (in_body if_true.target && in_body if_false.target) then
               reject "multiple exits"
           | Return _ | Unreachable -> reject "multiple exits")
      body_blocks;
    (* single latch stepping iv by one *)
    let latch = find_block f latch_label in
    let latch_jump =
      match latch.term with
      | Jump j when j.target = l.lheader -> j
      | Branch { if_true; _ } when if_true.target = l.lheader -> if_true
      | Branch { if_false; _ } when if_false.target = l.lheader -> if_false
      | _ -> reject "irregular latch"
    in
    if not cl.steps_by_one then reject "induction step is not +1";
    (* exactly one carried accumulator besides the induction variable *)
    let carried = ref [] in
    Array.iteri
      (fun q p ->
         if q <> iv_pos then
           match latch_jump.jargs.(q) with
           | Ovar v when (Analysis.chase_copies def_of v).vid = p.vid -> ()
           | _ -> carried := q :: !carried)
      hdr.bparams;
    let carry_pos =
      match !carried with
      | [ q ] -> q
      | [] -> reject "no carried accumulator"
      | _ -> reject "more than one carried value"
    in
    let carry = hdr.bparams.(carry_pos) in
    let kind0 =
      match Option.map Types.repr carry.vty with
      | Some (Types.Con ("PackedArray", [| _; Types.Lit 1 |])) -> `Map
      | Some t when Types.equal t Types.int64 || Types.equal t Types.real64 ->
        `Reduce (Types.equal t Types.real64)
      | _ -> reject "unsupported accumulator type"
    in
    (* values leaving the loop must be header parameters *)
    Array.iter
      (function
        | Oconst _ -> ()
        | Ovar v ->
          if Hashtbl.mem loop_defs v.vid && not (is_hdr_param v) then
            reject "loop value escapes on exit")
      exit_jump.jargs;
    List.iter
      (fun b ->
         if not (in_body b.label) then begin
           List.iter
             (fun i ->
                List.iter
                  (function
                    | Ovar v
                      when Hashtbl.mem loop_defs v.vid && not (is_hdr_param v) ->
                      reject "loop value used after the loop"
                    | _ -> ())
                  (instr_uses i))
             b.instrs;
           List.iter
             (function
               | Ovar v
                 when Hashtbl.mem loop_defs v.vid && not (is_hdr_param v) ->
                 reject "loop value used after the loop"
               | _ -> ())
             (term_uses b.term)
         end)
      f.blocks;
    (* body instruction legality *)
    List.iter
      (fun b ->
         List.iter
           (fun i ->
              match i with
              | Copy { dst; _ } ->
                if
                  match dst.vty with
                  | Some t -> Type_class.member "MemoryManaged" ~ty:t
                  | None -> false
                then reject "aliases a managed value"
              | Call { callee = Resolved { base; _ }; _ } ->
                if String.starts_with ~prefix:"part_set" base then begin
                  if base <> "part_set_1" && base <> "part_set_1_unchecked" then
                    reject ("unsupported write primitive " ^ base)
                end
                (* a pure primitive can be re-executed and chunked freely *)
                else if not (Wolf_runtime.Prims.holds base (fun r -> r.effect = Pure)) then
                  reject ("unsupported primitive " ^ base)
              | Call { callee = Prim name; _ } ->
                reject ("unresolved primitive " ^ name)
              | Call { callee = Func _; _ } -> reject "calls a function"
              | Call { callee = Indirect _; _ } -> reject "indirect call"
              | New_closure _ -> reject "builds a closure"
              | Kernel_call _ -> reject "escapes to the kernel"
              | Mem_acquire _ | Mem_release _ -> reject "reference-counted body"
              | Load_argument _ -> reject "argument load in loop"
              | Abort_check | Abort_poll _ -> ())
           b.instrs)
      body_blocks;
    (* taint: everything data-dependent on the accumulator *)
    let tainted = Hashtbl.create 8 in
    Hashtbl.replace tainted carry.vid ();
    let again = ref true in
    while !again do
      again := false;
      List.iter
        (fun b ->
           List.iter
             (fun i ->
                if
                  List.exists
                    (function
                      | Ovar v -> Hashtbl.mem tainted v.vid
                      | Oconst _ -> false)
                    (instr_uses i)
                then
                  List.iter
                    (fun d ->
                       if not (Hashtbl.mem tainted d.vid) then begin
                         Hashtbl.replace tainted d.vid ();
                         again := true
                       end)
                    (instr_defs i))
             b.instrs)
        body_blocks
    done;
    (* the accumulator may flow only along the latch's carry slot and out of
       the exit; in particular not through inner joins or branch conditions *)
    List.iter
      (fun b ->
         let jumps =
           match b.term with
           | Jump j -> [ j ]
           | Branch { cond; if_true; if_false } ->
             (match cond with
              | Ovar v when Hashtbl.mem tainted v.vid ->
                reject "control depends on the accumulator"
              | _ -> ());
             [ if_true; if_false ]
           | Return _ | Unreachable -> []
         in
         List.iter
           (fun j ->
              Array.iteri
                (fun k op ->
                   match op with
                   | Ovar v when Hashtbl.mem tainted v.vid ->
                     let ok =
                       (j.target = l.lheader && b.label = latch_label
                        && k = carry_pos)
                       || ((not (in_body j.target)) && v.vid = carry.vid)
                     in
                     if not ok then reject "accumulator flows through a join"
                   | _ -> ())
                j.jargs)
           jumps)
      body_blocks;
    (* header must not update the accumulator (keeps the loop pre-tested) *)
    List.iter
      (fun i ->
         if List.exists (fun d -> Hashtbl.mem tainted d.vid) (instr_defs i)
         then reject "accumulator updated in the header")
      hdr.instrs;
    (* every part_set must be on the accumulator chain *)
    List.iter
      (fun b ->
         List.iter
           (fun i ->
              match i with
              | Call { dst; callee = Resolved { base = "part_set_1" | "part_set_1_unchecked"; _ }; _ }
                when not (Hashtbl.mem tainted dst.vid) ->
                reject "writes a shared value"
              | _ -> ())
           b.instrs)
      body_blocks;
    (* walk the linear update chain from the carry to the latch argument *)
    let users : (int, instr list) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun b ->
         List.iter
           (fun i ->
              List.iter
                (function
                  | Ovar v when Hashtbl.mem tainted v.vid ->
                    Hashtbl.replace users v.vid
                      (i :: Option.value ~default:[] (Hashtbl.find_opt users v.vid))
                  | _ -> ())
                (instr_uses i))
           b.instrs)
      body_blocks;
    let chain_end =
      match latch_jump.jargs.(carry_pos) with
      | Ovar v when Hashtbl.mem tainted v.vid -> v
      | _ -> reject "accumulator does not accumulate"
    in
    let step_ops = ref [] in
    let rec walk v =
      if v.vid = chain_end.vid then begin
        if Hashtbl.mem users v.vid then reject "accumulator read after update"
      end
      else
        match Hashtbl.find_opt users v.vid with
        | Some [ i ] -> (
          match kind0, i with
          | ( `Map,
              Call
                { dst;
                  callee = Resolved { base = "part_set_1" | "part_set_1_unchecked"; _ };
                  args = [| Ovar t; idx; value |] } )
            when t.vid = v.vid ->
            (match idx with
             | Ovar ixv when (Analysis.chase_copies def_of ixv).vid = iv.vid ->
               ()
             | _ -> reject "write index is not the loop counter");
            (match value with
             | Ovar u when Hashtbl.mem tainted u.vid ->
               reject "write value reads the accumulator"
             | _ -> ());
            walk dst
          | `Reduce _, Copy { dst; src = Ovar s } when s.vid = v.vid -> walk dst
          | ( `Reduce _,
              Call { dst; callee = Resolved { base; _ }; args = [| x; y |] } )
            when (match x with Ovar u -> u.vid = v.vid | _ -> false)
                 || (match y with Ovar u -> u.vid = v.vid | _ -> false) ->
            let other =
              match x with Ovar u when u.vid = v.vid -> y | _ -> x
            in
            (match other with
             | Ovar u when Hashtbl.mem tainted u.vid ->
               reject "accumulator combined with itself"
             | _ -> ());
            step_ops := base :: !step_ops;
            walk dst
          | _ -> reject "unsupported accumulator update")
        | Some _ -> reject "accumulator used twice in one iteration"
        | None -> reject "accumulator chain is broken"
    in
    walk carry;
    let kind =
      match kind0 with
      | `Map -> Kmap
      | `Reduce is_real -> (
        match List.sort_uniq compare !step_ops with
        | [ op ] -> (
          match op, is_real with
          | "binary_plus", true -> Kreduce 1
          | "binary_times", true -> Kreduce 2
          | "binary_min", false -> Kreduce 3
          | "binary_min", true -> Kreduce 4
          | "binary_max", false -> Kreduce 5
          | "binary_max", true -> Kreduce 6
          | ("checked_binary_plus" | "checked_binary_times"), _
          | ("binary_plus" | "binary_times"), false ->
            (* a range proof covers the serial order's partial sums only *)
            reject "integer overflow order is observable"
          | _ -> reject ("non-associative reduction " ^ op))
        | [] -> reject "accumulator is only copied"
        | _ -> reject "mixed reduction operators")
    in
    Ok
      { r_loop = l;
        r_view = cl;
        r_carry_pos = carry_pos;
        r_kind = kind;
        r_tainted = tainted }
  with Reject msg -> Error msg

(* ---------- transformation ---------- *)

let unique_fname p base counter =
  let rec go () =
    let name = Printf.sprintf "%s$par%d" base !counter in
    incr counter;
    if Wir.find_func p name = None then name else go ()
  in
  go ()

let transform (p : program) (f : func) (r : reco) counter =
  let l = r.r_loop in
  let hdr = find_block f l.lheader in
  let cl = r.r_view in
  let iv = cl.iv in
  let carry = hdr.bparams.(r.r_carry_pos) in
  let resolved = Analysis.sibling cl.guard_prim in
  let pre_label =
    Analysis.ensure_preheader f ~header:l.lheader ~latches:l.latches
  in
  let pre = find_block f pre_label in
  let entry_jargs =
    match pre.term with
    | Jump j when j.target = l.lheader -> j.jargs
    | _ -> assert false
  in
  let in_body lbl = Analysis.loop_contains l lbl in
  let body_blocks = List.filter (fun b -> in_body b.label) f.blocks in
  let loop_defs = cl.defs in
  (* invariant variables used by the body (except through the exit edge)
     become closure captures, in deterministic first-use order *)
  let cap_order = ref [] in
  let caps : (int, var) Hashtbl.t = Hashtbl.create 8 in
  let note_use = function
    | Oconst _ -> ()
    | Ovar v ->
      if (not (Hashtbl.mem loop_defs v.vid)) && not (Hashtbl.mem caps v.vid)
      then begin
        let pv = fresh_var ~name:v.vname ?ty:v.vty () in
        Hashtbl.replace caps v.vid pv;
        cap_order := v :: !cap_order
      end
  in
  List.iter
    (fun b ->
       List.iter (fun i -> List.iter note_use (instr_uses i)) b.instrs;
       match b.term with
       | Jump j -> Array.iter note_use j.jargs
       | Branch { cond; if_true; if_false } ->
         note_use cond;
         Array.iter note_use if_true.jargs;
         if b.label <> l.lheader then Array.iter note_use if_false.jargs
       | Return _ | Unreachable -> ())
    body_blocks;
  (* entry values of passthrough parameters are also needed inside *)
  Array.iteri
    (fun q op ->
       if q <> cl.iv_pos && q <> r.r_carry_pos then note_use op)
    entry_jargs;
  let cap_vars = List.rev !cap_order in
  let carry_p = fresh_var ~name:"carry" ?ty:carry.vty () in
  let lo_p = fresh_var ~name:"lo" ?ty:iv.vty () in
  let hi_p = fresh_var ~name:"hi" ?ty:iv.vty () in
  let ofname = unique_fname p f.fname counter in
  (* clone the body *)
  let vmap : (int, var) Hashtbl.t = Hashtbl.create 32 in
  let clone_var v =
    match Hashtbl.find_opt vmap v.vid with
    | Some v' -> v'
    | None ->
      let v' = fresh_var ~name:v.vname ?ty:v.vty () in
      Hashtbl.replace vmap v.vid v';
      v'
  in
  let map_op = function
    | Oconst c -> Oconst c
    | Ovar v ->
      if Hashtbl.mem loop_defs v.vid then Ovar (clone_var v)
      else (
        match Hashtbl.find_opt caps v.vid with
        | Some pv -> Ovar pv
        | None -> assert false)
  in
  let label_map : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let next_label = ref 1 in
  List.iter
    (fun b ->
       Hashtbl.replace label_map b.label !next_label;
       incr next_label)
    body_blocks;
  let ret_label = !next_label in
  let map_jump (j : jump) =
    { target = Hashtbl.find label_map j.target;
      jargs = Array.map map_op j.jargs }
  in
  let clone_instr i =
    match i with
    | Call { dst; callee = Resolved { base = ("part_set_1" | "part_set_1_unchecked") as base; _ } as callee; args }
      when Hashtbl.mem r.r_tainted dst.vid ->
      Call
        { dst = clone_var dst;
          callee =
            Analysis.sibling callee
              (if base = "part_set_1" then "part_set_1_inplace" else "part_set_1_inplace_unchecked");
          args = Array.map map_op args }
    | Call { dst; _ } when dst.vid = cl.guard.vid ->
      Call
        { dst = clone_var dst;
          callee = resolved "binary_less_equal";
          args = [| Ovar (clone_var iv); Ovar hi_p |] }
    | Copy { dst; src } -> Copy { dst = clone_var dst; src = map_op src }
    | Call { dst; callee; args } ->
      Call { dst = clone_var dst; callee; args = Array.map map_op args }
    | Abort_check -> Abort_check
    | Abort_poll a -> Abort_poll a
    | Load_argument _ | New_closure _ | Kernel_call _ | Mem_acquire _ | Mem_release _ ->
      assert false
  in
  let cloned =
    List.map
      (fun b ->
         let bparams = Array.map clone_var b.bparams in
         let instrs = List.map clone_instr b.instrs in
         let term =
           if b.label = l.lheader then
             match b.term with
             | Branch { cond; if_true; _ } ->
               Branch
                 { cond = map_op cond;
                   if_true = map_jump if_true;
                   if_false = { target = ret_label; jargs = [||] } }
             | _ -> assert false
           else
             match b.term with
             | Jump j -> Jump (map_jump j)
             | Branch { cond; if_true; if_false } ->
               Branch
                 { cond = map_op cond;
                   if_true = map_jump if_true;
                   if_false = map_jump if_false }
             | Return _ | Unreachable -> assert false
         in
         { label = Hashtbl.find label_map b.label; bparams; instrs; term })
      body_blocks
  in
  let ret_block =
    { label = ret_label;
      bparams = [||];
      instrs = [];
      term = Return (Ovar (clone_var carry)) }
  in
  let fparams = Array.of_list (List.map (fun v -> Hashtbl.find caps v.vid) cap_vars @ [ carry_p; lo_p; hi_p ]) in
  let oentry =
    { label = 0;
      bparams = [||];
      instrs =
        Array.to_list
          (Array.mapi (fun idx v -> Load_argument { dst = v; index = idx }) fparams);
      term =
        Jump
          { target = Hashtbl.find label_map l.lheader;
            jargs =
              Array.mapi
                (fun q _ ->
                   if q = cl.iv_pos then Ovar lo_p
                   else if q = r.r_carry_pos then Ovar carry_p
                   else
                     match entry_jargs.(q) with
                     | Oconst c -> Oconst c
                     | Ovar v -> Ovar (Hashtbl.find caps v.vid))
                hdr.bparams } }
  in
  let ofunc =
    { fname = ofname;
      fparams;
      ret_ty = carry.vty;
      blocks = oentry :: cloned @ [ ret_block ];
      finline = false;
      fsource = f.fsource }
  in
  let fp = fingerprint ofunc in
  (* rewrite the original site *)
  let max_label = List.fold_left (fun acc b -> max acc b.label) 0 f.blocks in
  let check_l = max_label + 1
  and run_l = max_label + 2
  and skip_l = max_label + 3
  and join_l = max_label + 4 in
  let lo_op = entry_jargs.(cl.iv_pos) in
  let carry_op = entry_jargs.(r.r_carry_pos) in
  let c0 = fresh_var ~name:"c0" ~ty:Types.boolean () in
  let check_block =
    { label = check_l;
      bparams = [||];
      instrs =
        [ Call
            { dst = c0;
              callee = cl.guard_prim;
              args = [| lo_op; cl.bound |] } ];
      term =
        Branch
          { cond = Ovar c0;
            if_true = { target = run_l; jargs = [||] };
            if_false = { target = skip_l; jargs = [||] } } }
  in
  let prim_base =
    match r.r_kind with
    | Kmap -> "parallel_for_map"
    | Kreduce _ -> "parallel_reduce"
  in
  let opcode = match r.r_kind with Kmap -> 0 | Kreduce k -> k in
  let hi_instrs, hi_op =
    if not cl.strict then ([], cl.bound)
    else
      let last = fresh_var ~name:"last" ?ty:iv.vty () in
      ( [ Call
            { dst = last;
              callee = resolved "checked_binary_subtract";
              args = [| cl.bound; Oconst (Cint 1) |] } ],
        Ovar last )
  in
  let clo_ty =
    match carry.vty, iv.vty with
    | Some cty, Some ity -> Some (Types.fn [ cty; ity; ity ] cty)
    | _ -> None
  in
  let clo = fresh_var ~name:"parfn" ?ty:clo_ty () in
  let res = fresh_var ~name:"parres" ?ty:carry.vty () in
  let post_instrs, iv_final =
    if not cl.strict then
      let ivf = fresh_var ~name:"ivf" ?ty:iv.vty () in
      ( [ Call
            { dst = ivf;
              callee = resolved "checked_binary_plus";
              args = [| cl.bound; Oconst (Cint 1) |] } ],
        Ovar ivf )
    else ([], cl.bound)
  in
  let join_args_of ~ivv ~carryv =
    Array.mapi
      (fun q _ ->
         if q = cl.iv_pos then ivv
         else if q = r.r_carry_pos then carryv
         else entry_jargs.(q))
      hdr.bparams
  in
  let run_block =
    { label = run_l;
      bparams = [||];
      instrs =
        hi_instrs
        @ [ New_closure
              { dst = clo;
                fname = ofname;
                captured =
                  Array.of_list (List.map (fun v -> Ovar v) cap_vars) };
            Call
              { dst = res;
                callee = Resolved { base = prim_base; mangled = prim_base };
                args =
                  [| Ovar clo; carry_op; lo_op; hi_op;
                     Oconst (Cint opcode); Oconst (Cstr fp) |] } ]
        @ post_instrs;
      term =
        Jump
          { target = join_l;
            jargs = join_args_of ~ivv:iv_final ~carryv:(Ovar res) } }
  in
  let skip_block =
    { label = skip_l;
      bparams = [||];
      instrs = [];
      term =
        Jump { target = join_l; jargs = join_args_of ~ivv:lo_op ~carryv:carry_op } }
  in
  let join_block =
    { label = join_l;
      bparams = Array.copy hdr.bparams;
      instrs = [];
      term = Jump cl.on_false }
  in
  pre.term <- Jump { target = check_l; jargs = [||] };
  f.blocks <-
    List.concat_map
      (fun b ->
         if b.label = pre_label then
           [ b; check_block; run_block; skip_block; join_block ]
         else if in_body b.label then []
         else [ b ])
      f.blocks;
  p.funcs <- p.funcs @ [ ofunc ];
  (ofname, fp)

(* ---------- driver ---------- *)

let run (p : program) =
  let changed = ref false in
  let notes = ref [] in
  let counter = ref 0 in
  let note fname header v =
    notes := (Printf.sprintf "parloop.%s.b%d" fname header, v) :: !notes
  in
  let snapshot = List.filter (fun f -> not (is_outlined f.fname)) p.funcs in
  List.iter
    (fun f ->
       let budget = ref 16 in
       let rec attempt () =
         if !budget > 0 then begin
           let cfg = Analysis.build_cfg f in
           let loops = Analysis.natural_loops f cfg in
           let entry_label = (Wir.entry f).label in
           let candidate l =
             Analysis.innermost loops l && l.lheader <> entry_label
           in
           let rec go = function
             | [] -> ()
             | l :: rest -> (
               if not (candidate l) then go rest
               else
                 match recognize f l with
                 | Ok r ->
                   let ofname, fp = transform p f r counter in
                   note f.fname l.Analysis.lheader
                     (Printf.sprintf "parallelized %s outlined=%s fp=%s"
                        (kind_name r.r_kind) ofname fp);
                   changed := true;
                   decr budget;
                   attempt ()
                 | Error _ -> go rest)
           in
           go loops
         end
       in
       attempt ();
       (* report the loops that stayed serial *)
       let cfg = Analysis.build_cfg f in
       let loops = Analysis.natural_loops f cfg in
       let entry_label = (Wir.entry f).label in
       List.iter
         (fun l ->
            if l.Analysis.lheader = entry_label then ()
            else if not (Analysis.innermost loops l) then
              note f.fname l.Analysis.lheader "rejected: contains a nested loop"
            else
              match recognize f l with
              | Ok _ -> note f.fname l.Analysis.lheader "rejected: budget exhausted"
              | Error msg ->
                note f.fname l.Analysis.lheader ("rejected: " ^ msg))
         loops)
    snapshot;
  p.pmeta <- p.pmeta @ List.rev !notes;
  !changed
