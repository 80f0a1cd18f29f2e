open Wir

(* Gradual agreement: a type check only fires when both sides are ground.
   Mid-inference the IR legitimately carries unification variables, and
   passes may introduce untyped instructions that a later inference run
   types (paper §4.5). *)
let agree a b =
  a == b || Types.equal a b || (not (Types.is_ground a)) || (not (Types.is_ground b))

let ty_str = function
  | None -> "?"
  | Some t -> Types.to_string t

(* ---- resolved primitive calls against {!Wolf_runtime.Prims} ----
   A [Resolved] call names a row of the primitive table, passes that row's
   arity, and, once its types are ground, carries the mangled name
   [base_T1_..._Tn] of its operand types, and its operand and result types
   fit a declaration of the primitive in the builtin type environment.  A
   pass-made variant ([_unchecked], [_inplace]) is checked against the
   primitive it specialises; the primitives passes create from nothing
   ([parallel_*], [materializeconstant]) have no declaration, and their
   mangled name is the base itself.  The declaration search runs once per
   mangled name and domain; later calls compare types against its result. *)

(* base name -> declared schemes, for the primitives the builtin
   environment declares.  A checked [Plus], [Subtract] or [Times] that the
   range analysis proved in range takes its unchecked [binary_*] sibling at
   the same types, so those also fit the checked row's declarations. *)
let declared =
  Wolf_base.Once.make (fun () ->
      let h = Hashtbl.create 128 in
      List.iter
        (fun (base, scheme) ->
           Hashtbl.add h base scheme;
           match base with
           | "checked_binary_plus" | "checked_binary_subtract" | "checked_binary_times" ->
             Hashtbl.add h (String.sub base 8 (String.length base - 8)) scheme
           | _ -> ())
        (Type_env.prims (Type_env.builtin ()));
      h)

(* [fbase] and the types are the first checked call's own objects: later
   calls often share them, and [==] answers *)
type fit = { row : Wolf_runtime.Prims.t; fbase : string; fargs : Types.t array; fret : Types.t }

module Fits = Hashtbl.Make (String)

let fits_key : fit Fits.t Domain.DLS.key = Domain.DLS.new_key (fun () -> Fits.create 64)

(* [Error reason] when a call with these ground types does not fit *)
let first_fit (row : Wolf_runtime.Prims.t) ~base ~mangled tys ret =
  let decl_base = Option.value row.specialises ~default:row.name in
  let expect = Types.mangled row.name tys in
  if mangled <> expect then
    Error (Printf.sprintf "mangled name %s does not match its operand types (%s)" mangled expect)
  else
    let signature = Types.fn (Array.to_list tys) ret in
    let fits scheme =
      Unify.speculate (fun () ->
          match Unify.unify (Types.instantiate scheme) signature with
          | Ok () -> Some ()
          | Error _ -> None)
      <> None
    in
    if List.exists fits (Hashtbl.find_all (Wolf_base.Once.get declared) decl_base) then
      Ok { row; fbase = base; fargs = Array.map Types.repr tys; fret = Types.repr ret }
    else
      Error (Printf.sprintf "no declaration of %s fits %s" decl_base (Types.to_string signature))

(* the memoised type, or a type that is not ground yet *)
let agrees t u =
  let t = Types.repr t in
  t == u || Types.equal t u || not (Types.is_ground t)

let rec args_agree (args : operand array) fargs i =
  i = Array.length args
  || (match args.(i) with
      | Ovar { vty = Some t; _ } -> agrees t fargs.(i)
      | Ovar { vty = None; _ } -> true
      | Oconst c -> Types.equal (const_ty c) fargs.(i))
     && args_agree args fargs (i + 1)

let ground_tys (args : operand array) (dst : var) =
  let tys = Array.map operand_ty args in
  if Array.for_all (function Some t -> Types.is_ground t | None -> false) tys then
    match dst.vty with
    | Some r when Types.is_ground r -> Some (Array.map Option.get tys, r)
    | _ -> None
  else None

let check_resolved fits ~base ~mangled (args : operand array) (dst : var) =
  let seen =
    match Fits.find fits mangled with
    | f ->
      (base == f.fbase || String.equal base f.fbase) && Array.length args = f.row.arity
      && (match dst.vty with Some t -> agrees t f.fret | None -> true)
      && args_agree args f.fargs 0
    | exception Not_found -> false
  in
  (* a call that differs from the one memoised takes the full path, which
     says what is wrong *)
  if seen then Ok ()
  else if String.contains mangled '$' then Ok ()  (* a Wolfram-implemented instance *)
  else
    match Wolf_runtime.Prims.find_opt base with
    | None -> Error ("unknown primitive " ^ base)
    | Some row when Array.length args <> row.arity ->
      Error (Printf.sprintf "%s takes %d operands, not %d" base row.arity (Array.length args))
    | Some row ->
      let decl_base = Option.value row.specialises ~default:row.name in
      if not (Hashtbl.mem (Wolf_base.Once.get declared) decl_base) then
        if mangled = base then Ok ()
        else Error (Printf.sprintf "undeclared primitive %s mangled as %s" base mangled)
      else
        match ground_tys args dst with
        | None -> Ok ()
        | Some (tys, ret) ->
          Result.map (fun f -> Fits.replace fits mangled f) (first_fit row ~base ~mangled tys ret)

(* A definition site packs a block number and a position in that block. *)
let site_bits = 24
let site_mask = (1 lsl site_bits) - 1
let site n pos = (n lsl site_bits) lor pos

let check_func f =
  let fits = Domain.DLS.get fits_key in
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (match f.blocks with
   | [] -> err "%s: function has no blocks" f.fname
   | entry :: _ ->
     let entry_label = entry.label in
     let cfg = Analysis.build_cfg f in
     let block_of label =
       match Hashtbl.find_opt cfg.Analysis.index label with
       | Some n -> Some cfg.Analysis.nodes.(n)
       | None -> None
     in
     (* ---- entry-block discipline ---- *)
     if Array.length entry.bparams > 0 then
       err "%s: entry block b%d declares %d parameters (must have none)" f.fname
         entry.label (Array.length entry.bparams);
     (* ---- one sweep: unique labels, single static assignment, per-block
        checks, and the site of every definition: its block's number (-1
        outside the reachable CFG) and its position there (0 for block
        parameters, k for the k-th instruction) ---- *)
     let defs : (int, int) Hashtbl.t = Hashtbl.create 64 in
     let def_label = ref 0 and def_site = ref 0 in
     let define v =
       if Hashtbl.mem defs v.vid then
         err "%s: variable %%%d defined twice (second in b%d)" f.fname v.vid !def_label
       else Hashtbl.add defs v.vid !def_site
     in
     let check_instr b i =
       match i with
       | Load_argument { dst; index } ->
         if b.label <> entry_label then
           err "%s: b%d Load_argument %%%d outside the entry block" f.fname b.label
             dst.vid;
         if index < 0 || index >= Array.length f.fparams then
           err "%s: b%d Load_argument index %d out of range (%d parameters)" f.fname
             b.label index (Array.length f.fparams)
         else begin
           match dst.vty, f.fparams.(index).vty with
           | Some dt, Some pt when not (agree dt pt) ->
             err "%s: b%d Load_argument %d: destination %%%d : %s but parameter \
                  is %s"
               f.fname b.label index dst.vid (Types.to_string dt) (Types.to_string pt)
           | _ -> ()
         end
       | Copy { dst; src } -> (
         match dst.vty, operand_ty src with
         | Some dt, Some st when not (agree dt st) ->
           err "%s: b%d copy %%%d : %s from operand of type %s" f.fname b.label
             dst.vid (Types.to_string dt) (Types.to_string st)
         | _ -> ())
       | Abort_poll { stride; _ } ->
         if stride < 2 then
           err "%s: b%d Abort_poll stride %d (must be >= 2)" f.fname b.label stride
       | Call { dst; callee = Resolved { base; mangled }; args } -> (
         match check_resolved fits ~base ~mangled args dst with
         | Ok () -> ()
         | Error e -> err "%s: b%d call %%%d: %s" f.fname b.label dst.vid e)
       | _ -> ()
     in
     (* jumps: targets exist, never the entry, arity and types agree *)
     let check_jump src (j : jump) =
       if j.target = entry_label then
         err "%s: b%d jumps to the entry block b%d" f.fname src j.target;
       match block_of j.target with
       | None -> err "%s: b%d jumps to missing block b%d" f.fname src j.target
       | Some tgt ->
         if Array.length j.jargs <> Array.length tgt.bparams then
           err "%s: b%d -> b%d passes %d args, block expects %d" f.fname src j.target
             (Array.length j.jargs) (Array.length tgt.bparams)
         else
           Array.iteri
             (fun k arg ->
                match operand_ty arg, tgt.bparams.(k).vty with
                | Some at, Some pt when not (agree at pt) ->
                  err "%s: b%d -> b%d argument %d has type %s, parameter %%%d \
                       expects %s"
                    f.fname src j.target k (Types.to_string at) tgt.bparams.(k).vid
                    (Types.to_string pt)
                | _ -> ())
             j.jargs
     in
     let check_term b =
       match b.term with
       | Jump j -> check_jump b.label j
       | Branch { cond; if_true; if_false } ->
         (match operand_ty cond with
          | Some t when Types.is_ground t && not (Types.equal t Types.boolean) ->
            err "%s: b%d branch condition has type %s (expected %s)" f.fname b.label
              (Types.to_string t) (Types.to_string Types.boolean)
          | _ -> ());
         check_jump b.label if_true;
         check_jump b.label if_false
       | Return op ->
         (match operand_ty op, f.ret_ty with
          | Some ot, Some rt when not (agree ot rt) ->
            err "%s: b%d returns %s but the function is declared %s" f.fname b.label
              (Types.to_string ot) (Types.to_string rt)
          | _ -> ())
       | Unreachable -> ()
     in
     List.iter
       (fun b ->
          let n =
            match block_of b.label with
            | Some first when first != b ->
              err "%s: duplicate block b%d" f.fname b.label;
              -1
            | _ -> Analysis.number cfg b.label
          in
          def_label := b.label;
          def_site := site n 0;
          Array.iter define b.bparams;
          List.iter
            (fun i ->
               incr def_site;
               iter_instr_defs define i;
               check_instr b i)
            b.instrs;
          check_term b;
          (* no orphans *)
          if not (Analysis.reachable cfg b.label) then
            err "%s: orphan block b%d is unreachable from the entry" f.fname b.label)
       f.blocks;
     (* ---- dominance of uses ----
        A use is dominated by its definition when the definition comes
        earlier in the same block or its block dominates the use's block.
        Block dominance is an interval test on a preorder numbering of the
        dominator tree: [pre.(d) <= pre.(u) < pre.(d) + size.(d)].  A
        dominator always has the smaller RPO number, so sizes accumulate in
        one backward loop and preorder slots are handed out in one forward
        loop.  Orphan blocks are not checked (they were reported above), and
        a definition in one never dominates. *)
     let nreach = cfg.Analysis.nreach and idom = cfg.Analysis.idom in
     let size = Array.make nreach 1 in
     for n = nreach - 1 downto 1 do
       size.(idom.(n)) <- size.(idom.(n)) + size.(n)
     done;
     let pre = Array.make nreach 0 and next = Array.make nreach 1 in
     for n = 1 to nreach - 1 do
       let d = idom.(n) in
       pre.(n) <- next.(d);
       next.(d) <- next.(d) + size.(n);
       next.(n) <- pre.(n) + 1
     done;
     let use_block = ref 0 and use_pos = ref 0 in
     let check where = function
       | Oconst _ -> ()
       | Ovar v -> (
         let n = !use_block in
         match Hashtbl.find defs v.vid with
         | s ->
           let d = s asr site_bits in
           if not (if d = n then s land site_mask < !use_pos
                   else d >= 0 && pre.(d) <= pre.(n) && pre.(n) < pre.(d) + size.(d))
           then
             err "%s: b%d %s uses %%%d before its definition dominates it" f.fname
               cfg.Analysis.nodes.(n).label where v.vid
         | exception Not_found ->
           err "%s: b%d %s uses undefined variable %%%d (%s : %s)" f.fname
             cfg.Analysis.nodes.(n).label where v.vid v.vname (ty_str v.vty))
     in
     let check_instr_use = check "instr" and check_term_use = check "terminator" in
     for n = 0 to nreach - 1 do
       let b = cfg.Analysis.nodes.(n) in
       use_block := n;
       use_pos := 0;
       List.iter
         (fun i ->
            incr use_pos;
            iter_instr_uses check_instr_use i)
         b.instrs;
       use_pos := max_int;
       iter_term_uses check_term_use b.term
     done);
  if !errors = [] then Ok () else Error (List.rev !errors)

let check_program p =
  let errors = ref [] in
  let err e = errors := e :: !errors in
  List.iter
    (fun f -> match check_func f with Ok () -> () | Error es -> List.iter err es)
    p.funcs;
  (* program level: function references resolve, with matching arity *)
  let arity = Hashtbl.create 16 in
  List.iter
    (fun f -> Hashtbl.replace arity f.fname (Array.length f.fparams))
    p.funcs;
  List.iter
    (fun f ->
       List.iter
         (fun b ->
            List.iter
              (function
                | Call { callee = Func name; args; _ } -> (
                  match Hashtbl.find_opt arity name with
                  | None ->
                    err (Printf.sprintf "%s: b%d calls missing function %s" f.fname
                           b.label name)
                  | Some n when n <> Array.length args ->
                    err (Printf.sprintf "%s: b%d calls %s with %d args (expects %d)"
                           f.fname b.label name (Array.length args) n)
                  | Some _ -> ())
                | New_closure { fname = name; _ } when not (Hashtbl.mem arity name) ->
                  err (Printf.sprintf "%s: b%d closes over missing function %s" f.fname
                         b.label name)
                | _ -> ())
              b.instrs)
         f.blocks)
    p.funcs;
  if !errors = [] then Ok () else Error (List.rev !errors)

let assert_ok pass p =
  match check_program p with
  | Ok () -> ()
  | Error es ->
    Wolf_base.Errors.compile_errorf "IR verifier after pass %s:@\n%s" pass
      (String.concat "\n" es)
