(* Strided abort-check coalescing (the fig2 abortability-overhead fix).

   Abort_pass inserts an [Abort_check] at every loop header, which costs a
   counter increment, two flag loads and a branch per iteration — enough to
   dominate tight scalar loops (the paper's FNV1a/Histogram gap).  This pass
   removes the per-iteration cost of qualifying loops in one of two ways:

   1. Counted loops ({!Analysis.counted_loop}) — [While[i <= n, ...;
      i = i + 1]] with a loop-invariant integer bound, integer-constant
      starts >= 0 and a header-resident guard — are strip-mined: the body
      runs in check-free chunks of at most [stride] iterations under a
      tightened bound, and a new outer chunk loop runs the real
      [Abort_check] once per chunk.  The hot path contains no
      check instructions at all.

   2. Any other qualifying loop keeps a per-iteration instruction, but a
      cheap one: [Abort_poll { stride }], a per-site countdown that runs the
      real check only every [stride] back-edges.

   Either way an [Abort[]] still interrupts the loop within one stride.

   Qualifying loops are innermost and call-free.  Headers of loops that
   contain nested loops keep the immediate check (their trip counts are
   small relative to the work per iteration, and the nested headers poll),
   as do loops making function/indirect/kernel calls (the callee checks at
   its own prologue and headers, and an iteration is expensive anyway).  The
   function prologue check is untouched.

   Runs once, directly after abort-insertion and outside the optimisation
   fixpoint, so poll sites get stable sequential ids. *)

open Wir

let has_call block =
  List.exists
    (function
      | Call { callee = Func _ | Indirect _; _ } | Kernel_call _ -> true
      | _ -> false)
    block.instrs

(* ------------------------------------------------------------------ *)
(* Counted-loop strip-mining.

   Shape recognised (hdr = loop header, already starting with Abort_check;
   the counted-loop view plus a local guard, +1 steps and starts >= 0):

     hdr(.., i, ..):  c = i <= n          (or i < n; n an invariant integer)
                      Branch c ? body : exit(xargs)
     latches:         jump hdr(.., i + 1, ..)

   with every entry edge passing an integer constant >= 0 for i.  Rewritten
   to (hdr keeps its label and parameters, plus a fresh bound parameter lim;
   body blocks and the exit edge are untouched):

     outer(p..):        Abort_check       (once per chunk)
                        c2 = p_i <= n
                        Branch c2 ? setup : dead
     setup:             rem  = n - p_i    (0 <= p_i <= n: cannot trap)
                        stp  = min(rem, chunk)
                        lim1 = p_i + stp  (<= n: cannot trap)
                        jump hdr(p.., lim1)
     dead:              dl = p_i - 1      (p_i >= 0: cannot trap; only for <=)
                        jump hdr(p.., dl) (guard fails at once -> exit)
     hdr(.., i, .., lim): c = i <= lim    (bound tightened)
                        Branch c ? body : back
     latches:           jump hdr(.., i + 1, .., lim)
     back:              c3 = i <= n       (the original guard, recomputed)
                        Branch c3 ? outer(i..) : exit(xargs)

   The false arm need not leave the loop: [back] recomputes the original
   guard over the same operands, so when it still holds the only effect of
   a chunk boundary is the outer round trip (which forwards every header
   parameter unchanged and recomputes [lim] > i), and when it fails control
   continues exactly where the original false arm went, with the original
   arguments.  This covers short-circuit guards like
   [While[i < 1000 && escaped, ...]], whose exit lives in a join block
   rather than on the header edge.

   Dominance is preserved: hdr still dominates [back] and (when the false
   arm does exit) the exit region, so no uses are rewritten.  The iteration
   sequence of [i] is unchanged, every bounds-check-eliminated access stays
   guarded by [i <= lim <= n], the body runs at most [stride] iterations
   between checks, and a zero-trip entry (start > n) leaves through [dead]
   without executing the body. *)

let strip_mine f (l : Analysis.loop) ~stride =
  match Analysis.counted_loop f l with
  (* the guard must live in the header and feed only this branch, so
     tightening its bound cannot leak into any other value *)
  | Ok cl
    when cl.guard_in_header && cl.guard_single_use && cl.steps_by_one
         && cl.starts_at_least 0 ->
    let hdr = find_block f l.lheader in
    let c = cl.guard and iv = cl.iv and pos = cl.iv_pos and nv_op = cl.bound in
    let guard = cl.guard_prim and resolved = Analysis.sibling cl.guard_prim in
    let max_label =
      List.fold_left (fun acc b -> max acc b.label) 0 f.blocks
    in
    let outer_l = max_label + 1 in
    let setup_l = max_label + 2 in
    let dead_l = max_label + 3 in
    let back_l = max_label + 4 in
    let op =
      Array.map (fun v -> fresh_var ~name:v.vname ?ty:v.vty ()) hdr.bparams
    in
    let op_args = Array.map (fun v -> Ovar v) op in
    let c2 = fresh_var ~name:c.vname ?ty:c.vty () in
    let c3 = fresh_var ~name:c.vname ?ty:c.vty () in
    let rem = fresh_var ~name:"rem" ?ty:iv.vty () in
    let stp = fresh_var ~name:"step" ?ty:iv.vty () in
    let lim1 = fresh_var ~name:"lim" ?ty:iv.vty () in
    let limp = fresh_var ~name:"lim" ?ty:iv.vty () in
    (* i <= lim admits step+1 iterations per chunk; i < lim admits step *)
    let chunk = if cl.strict then stride else stride - 1 in
    let outer =
      { label = outer_l;
        bparams = op;
        instrs =
          [ Abort_check;
            Call
              { dst = c2;
                callee = guard;
                args = [| Ovar op.(pos); nv_op |] } ];
        term =
          Branch
            { cond = Ovar c2;
              if_true = { target = setup_l; jargs = [||] };
              if_false = { target = dead_l; jargs = [||] } } }
    in
    let setup =
      { label = setup_l;
        bparams = [||];
        instrs =
          [ Call
              { dst = rem;
                callee = resolved "checked_binary_subtract";
                args = [| nv_op; Ovar op.(pos) |] };
            Call
              { dst = stp;
                callee = resolved "binary_min";
                args = [| Ovar rem; Oconst (Cint chunk) |] };
            Call
              { dst = lim1;
                callee = resolved "checked_binary_plus";
                args = [| Ovar op.(pos); Ovar stp |] } ];
        term =
          Jump
            { target = l.lheader;
              jargs = Array.append op_args [| Ovar lim1 |] } }
    in
    let dead =
      (* a bound that fails the tightened guard immediately: i - 1 for
         <= (i >= 0, so no trap), i itself for < *)
      if not cl.strict then begin
        let dl = fresh_var ~name:"lim" ?ty:iv.vty () in
        { label = dead_l;
          bparams = [||];
          instrs =
            [ Call
                { dst = dl;
                  callee = resolved "checked_binary_subtract";
                  args = [| Ovar op.(pos); Oconst (Cint 1) |] } ];
          term =
            Jump
              { target = l.lheader;
                jargs = Array.append op_args [| Ovar dl |] } }
      end
      else
        { label = dead_l;
          bparams = [||];
          instrs = [];
          term =
            Jump
              { target = l.lheader;
                jargs = Array.append op_args [| Ovar op.(pos) |] } }
    in
    let back =
      { label = back_l;
        bparams = [||];
        instrs =
          [ Call
              { dst = c3;
                callee = guard;
                args = [| Ovar iv; nv_op |] } ];
        term =
          Branch
            { cond = Ovar c3;
              if_true =
                { target = outer_l;
                  jargs = Array.map (fun v -> Ovar v) hdr.bparams };
              if_false = cl.on_false } }
    in
    (* entry edges now feed the chunk loop *)
    List.iter
      (fun b ->
         if not (List.mem b.label l.latches) then begin
           let retarget (j : jump) =
             if j.target = l.lheader then { j with target = outer_l } else j
           in
           b.term <-
             (match b.term with
              | Jump j -> Jump (retarget j)
              | Branch { cond; if_true; if_false } ->
                Branch
                  { cond;
                    if_true = retarget if_true;
                    if_false = retarget if_false }
              | (Return _ | Unreachable) as t -> t)
         end)
      f.blocks;
    (* latches forward the chunk bound unchanged *)
    List.iter
      (fun latch ->
         let b = find_block f latch in
         let extend (j : jump) =
           if j.target = l.lheader then
             { j with jargs = Array.append j.jargs [| Ovar limp |] }
           else j
         in
         b.term <-
           (match b.term with
            | Jump j -> Jump (extend j)
            | Branch { cond; if_true; if_false } ->
              Branch
                { cond; if_true = extend if_true; if_false = extend if_false }
            | (Return _ | Unreachable) as t -> t))
      l.latches;
    (* drop the header check, tighten the guard, reroute the exit *)
    hdr.bparams <- Array.append hdr.bparams [| limp |];
    hdr.instrs <-
      List.filter_map
        (fun i ->
           match i with
           | Abort_check -> None
           | Call { dst; callee; args = [| a; _ |] } when dst.vid = c.vid ->
             Some (Call { dst; callee; args = [| a; Ovar limp |] })
           | i -> Some i)
        hdr.instrs;
    hdr.term <-
      Branch
        { cond = Ovar c;
          if_true = cl.on_true;
          if_false = { target = back_l; jargs = [||] } };
    let rec insert = function
      | [] -> [ outer; setup; dead ]
      | b :: rest when b.label = l.lheader ->
        outer :: setup :: dead :: b :: back :: rest
      | b :: rest -> b :: insert rest
    in
    f.blocks <- insert f.blocks;
    true
  | _ -> false

let run ~stride (p : program) =
  let site = ref 0 in
  List.iter
    (fun f ->
       let entry_label = (entry f).label in
       let cfg = Analysis.build_cfg f in
       let loops = Analysis.natural_loops f cfg in
       List.iter
         (fun (l : Analysis.loop) ->
            let call_free =
              List.for_all
                (fun label -> not (has_call (find_block f label)))
                l.lbody
            in
            if l.lheader <> entry_label && Analysis.innermost loops l && call_free
            then begin
              let hdr = find_block f l.lheader in
              match hdr.instrs with
              | Abort_check :: rest ->
                if not (strip_mine f l ~stride) then begin
                  hdr.instrs <- Abort_poll { stride; site = !site } :: rest;
                  incr site
                end
              | _ -> ()
            end)
         loops)
    p.funcs
