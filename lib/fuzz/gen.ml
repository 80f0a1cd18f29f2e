open Ast

type config = {
  max_size : int;
  strings : bool;
}

let default_config = { max_size = 60; strings = true }

type ctx = {
  rng : Rng.t;
  cfg : config;
  mutable fuel : int;
  (* visible variables by type; mutables are the Module locals *)
  mutable vars : (string * ty) list;
  mutable mutables : (string * ty) list;
  mutable counters : int;  (* fresh-name supply for loop counters/iterators *)
  mutable extra_locals : local list;  (* counters hoisted into the Module *)
  mutable watched : string list;
      (* integers that may end at the top of the machine range *)
  mutable sinks : string list;
      (* arrays the (integer) result reads through Total *)
  mutable compared : string list;  (* the literals strings are compared with *)
}

let spend ctx = ctx.fuel <- ctx.fuel - 1

let vars_of ctx t = List.filter (fun (_, vt) -> vt = t) ctx.vars
let mutables_of ctx t = List.filter (fun (_, vt) -> vt = t) ctx.mutables

let str_pool =
  [ "a"; "ok"; "fuzz"; "Wolfram"; "x y"; "0123";
    (* escape-adjacent entries: bytes >= 128 followed by digits catch
       printers that write decimal escapes (a lexer reads "\233123" back as
       six digit characters), quotes and backslashes catch under-escaping —
       string semantics are UTF-8 bytes end to end, so these flow through
       every arm including built binaries' argv *)
    "caf\195\169"; "\233123"; "q\"b\\s" ]

(* ---- leaves ---------------------------------------------------------- *)

(* Integers at the ends of the machine range, where a wrong range fact
   turns into a wrong overflow proof, come only from the constructs made
   for them below (loops counting to max_int, the top probe): drawn as
   ordinary literals or arguments they also reach [m = m * m] in loops,
   whose bignum reference in the interpreter then grows past any time
   limit. *)
let lit ctx t =
  match t with
  | TInt -> Int (Rng.range ctx.rng (-9) 9)
  | TReal -> Real (float_of_int (Rng.range ctx.rng (-60) 60) /. 8.0)
  | TBool -> Bool (Rng.bool ctx.rng)
  | TStr -> Str (Rng.pick ctx.rng str_pool)
  | TArr ->
    Arr (List.init (Rng.range ctx.rng 1 5) (fun _ -> Rng.range ctx.rng (-9) 9))

let leaf ctx t =
  match vars_of ctx t with
  | [] -> lit ctx t
  | vs -> if Rng.chance ctx.rng 0.7 then
      let v, vt = Rng.pick ctx.rng vs in Var (v, vt)
    else lit ctx t

(* ---- expressions ----------------------------------------------------- *)

let fresh_counter ctx prefix =
  ctx.counters <- ctx.counters + 1;
  Printf.sprintf "%s%d" prefix ctx.counters

let rec expr ctx t depth =
  spend ctx;
  if depth <= 0 || ctx.fuel <= 0 then leaf ctx t
  else
    let sub t' = expr ctx t' (depth - 1) in
    let arr_var () =
      match vars_of ctx TArr with
      | [] -> None
      | vs -> Some (fst (Rng.pick ctx.rng vs))
    in
    match t with
    | TInt ->
      let part =
        match arr_var () with
        | Some v -> [ (3, fun () -> Part (v, sub TInt)) ]
        | None -> []
      in
      let fold =
        (* Fold[Function[{s, x}, Min|Max[s, x]], init, arr]: desugars to a
           counted reduction loop the parallel-loops pass recognises *)
        [ (1, fun () ->
              let sv = fresh_counter ctx "s" and xv = fresh_counter ctx "x" in
              let op = if Rng.bool ctx.rng then "Min" else "Max" in
              FoldMM (op, sv, xv, sub TInt, sub TArr)) ]
      in
      let strlen =
        if ctx.cfg.strings && (vars_of ctx TStr <> [] || Rng.chance ctx.rng 0.2)
        then [ (1, fun () -> Un ("StringLength", TInt, sub TStr)) ]
        else []
      in
      Rng.weighted ctx.rng
        ([ (6, fun () -> leaf ctx TInt);
           (4, fun () -> Bin ("+", TInt, sub TInt, sub TInt));
           (3, fun () -> Bin ("-", TInt, sub TInt, sub TInt));
           (3, fun () -> Bin ("*", TInt, sub TInt, sub TInt));
           (2, fun () -> Bin ("Mod", TInt, sub TInt, sub TInt));
           (1, fun () -> Bin ("Quotient", TInt, sub TInt, sub TInt));
           (1, fun () -> Bin ("Min", TInt, sub TInt, sub TInt));
           (1, fun () -> Bin ("Max", TInt, sub TInt, sub TInt));
           (1, fun () -> Un ("Abs", TInt, sub TInt));
           (1, fun () -> Un ("Minus", TInt, sub TInt));
           (2, fun () -> Un ("Total", TInt, sub TArr));
           (2, fun () -> Un ("Length", TInt, sub TArr));
           (2, fun () -> If (TInt, sub TBool, sub TInt, sub TInt)) ]
         @ part @ strlen @ fold)
        ()
    | TReal ->
      Rng.weighted ctx.rng
        [ (6, fun () -> leaf ctx TReal);
          (4, fun () -> Bin ("+", TReal, sub TReal, sub TReal));
          (3, fun () -> Bin ("-", TReal, sub TReal, sub TReal));
          (3, fun () -> Bin ("*", TReal, sub TReal, sub TReal));
          (2, fun () -> Bin ("/", TReal, sub TReal, sub TReal));
          (1, fun () -> Un ("Sin", TReal, sub TReal));
          (1, fun () -> Un ("Cos", TReal, sub TReal));
          (1, fun () -> Un ("SqrtAbs", TReal, sub TReal));
          (1, fun () -> Un ("Minus", TReal, sub TReal));
          (1, fun () -> Un ("Abs", TReal, sub TReal));
          (2, fun () -> If (TReal, sub TBool, sub TReal, sub TReal)) ]
        ()
    | TBool ->
      (* a string against a literal, only for equality: the interpreter
         leaves an ordering of two strings unevaluated *)
      let streq () =
        let l = Rng.pick ctx.rng str_pool in
        ctx.compared <- l :: ctx.compared;
        Cmp (Rng.pick ctx.rng [ "=="; "!=" ], TStr, sub TStr, Str l)
      in
      Rng.weighted ctx.rng
        ([ (2, fun () -> leaf ctx TBool);
           (5, fun () ->
               let op = Rng.pick ctx.rng [ "=="; "!="; "<"; "<="; ">"; ">=" ] in
               Cmp (op, TInt, sub TInt, sub TInt));
           (2, fun () ->
               let op = Rng.pick ctx.rng [ "<"; "<="; ">"; ">=" ] in
               Cmp (op, TReal, sub TReal, sub TReal));
           (2, fun () -> And (sub TBool, sub TBool));
           (2, fun () -> Or (sub TBool, sub TBool));
           (1, fun () -> Un ("Not", TBool, sub TBool));
           (1, fun () -> Un ("EvenQ", TBool, sub TInt)) ]
         @ if ctx.cfg.strings && vars_of ctx TStr <> [] then [ (2, streq) ] else [])
        ()
    | TStr ->
      Rng.weighted ctx.rng
        [ (4, fun () -> leaf ctx TStr);
          (3, fun () -> StrJoin (sub TStr, sub TStr));
          (1, fun () -> If (TStr, sub TBool, sub TStr, sub TStr)) ]
        ()
    | TArr ->
      let chars =
        if ctx.cfg.strings && vars_of ctx TStr <> [] then
          [ (2, fun () -> Un ("Chars", TArr, sub TStr)) ]
        else []
      in
      let maparr =
        (* Map[Function[{x}, body], arr]: desugars to a counted map loop
           writing a fresh packed array — the parallel-loops pass's map
           shape.  The lambda variable is visible while the body grows. *)
        [ (2, fun () ->
              let x = fresh_counter ctx "f" in
              let saved = ctx.vars in
              ctx.vars <- (x, TInt) :: ctx.vars;
              let body = expr ctx TInt (depth - 1) in
              ctx.vars <- saved;
              MapArr (x, body, sub TArr)) ]
      in
      Rng.weighted ctx.rng
        ([ (5, fun () -> leaf ctx TArr);
           (2, fun () -> Un ("Reverse", TArr, sub TArr));
           (3, fun () -> ConstArr (sub TInt, Rng.range ctx.rng 1 5)) ]
         @ chars @ maparr)
        ()

(* ---- data-parallel loop shapes --------------------------------------- *)

(* Dedicated counted-loop families for the parallel-loops pass: map-style
   stores indexed by the counter, single-accumulator real reductions, and
   deliberately unsafe variants — non-associative accumulation, checked
   integer accumulation, reads of the array being written — that the pass
   must leave serial.  Either way the program must agree with the
   interpreter on every backend; with the [par] oracle arm the safe shapes
   additionally exercise cross-domain chunked execution. *)
let par_loop ctx ~depth =
  spend ctx;
  let n = Rng.range ctx.rng 12 40 in
  let c = fresh_counter ctx "c" in
  ctx.extra_locals <-
    ctx.extra_locals @ [ { lname = c; lty = TInt; linit = Int 1 } ];
  let iv = Var (c, TInt) in
  let add_local name lty linit =
    ctx.extra_locals <- ctx.extra_locals @ [ { lname = name; lty; linit } ];
    ctx.vars <- (name, lty) :: ctx.vars;
    ctx.mutables <- (name, lty) :: ctx.mutables
  in
  (* values may read the counter and any *outer* binding; the accumulator
     is registered only after the value is generated, so the body never
     reads its own carry except through the accumulation op itself *)
  let real_value () =
    Rng.weighted ctx.rng
      [ (3, fun () ->
            Bin ("*", TReal,
                 Real (float_of_int (Rng.range ctx.rng (-8) 8) /. 4.0), iv));
        (2, fun () ->
            Bin ("+", TReal, Bin ("*", TReal, Real 0.25, iv),
                 expr ctx TReal (max 1 (depth - 1))));
        (1, fun () -> Un ("Sin", TReal, Bin ("*", TReal, Real 0.5, iv))) ]
      ()
  in
  let int_value () =
    Rng.weighted ctx.rng
      [ (3, fun () -> Bin ("*", TInt, iv, Int (Rng.range ctx.rng (-4) 4)));
        (2, fun () ->
            Bin ("+", TInt, Bin ("*", TInt, iv, iv),
                 expr ctx TInt (max 1 (depth - 1)))) ]
      ()
  in
  let reduce ?value op init =
    let value = match value with Some v -> v | None -> real_value () in
    let r = fresh_counter ctx "r" in
    add_local r TReal (Real init);
    [ While (c, n, [ Assign (r, TReal, Bin (op, TReal, Var (r, TReal), value)) ]) ]
  in
  let reduce_int () =
    (* checked integer Plus: overflow order is observable, must stay serial *)
    let value = int_value () in
    let r = fresh_counter ctx "r" in
    add_local r TInt (Int 0);
    [ While (c, n, [ Assign (r, TInt, Bin ("+", TInt, Var (r, TInt), value)) ]) ]
  in
  (* the array after its loop reaches a call and stays the array later
     code reads: Take, Append and Total are pure with a fresh or scalar
     result, so the loop's stores stay in place.  The identity closure
     returns its argument, so the store after it, which changes an
     element, must keep copy-on-write while its result is live: that
     result is a local no later statement writes, and the result reads it *)
  let array_end a =
    let av = Var (a, TArr) in
    let index () = Int (Rng.range ctx.rng 0 3) in
    Rng.weighted ctx.rng
      [ (2, fun () ->
            ctx.sinks <- a :: ctx.sinks;
            [ PartSet (a, index (), Un ("Total", TInt, av)) ]);
        (2, fun () ->
            ctx.sinks <- a :: ctx.sinks;
            [ Assign (a, TArr, Bin ("Take", TArr, av, Int (Rng.range ctx.rng 1 n))) ]);
        (2, fun () ->
            ctx.sinks <- a :: ctx.sinks;
            [ Assign (a, TArr, Bin ("Append", TArr, av, expr ctx TInt 1)) ]);
        (2, fun () ->
            let r = fresh_counter ctx "r" in
            ctx.extra_locals <-
              ctx.extra_locals @ [ { lname = r; lty = TArr; linit = ConstArr (Int 0, 1) } ];
            ctx.sinks <- r :: ctx.sinks;
            let i = index () in
            [ Assign (r, TArr, Un ("Identity", TArr, av));
              PartSet (a, i, Bin ("+", TInt, Part (a, i), Int 1)) ]) ]
      ()
  in
  let map_safe () =
    let value = int_value () in
    let a = fresh_counter ctx "a" in
    add_local a TArr (ConstArr (Int (Rng.range ctx.rng (-3) 3), n));
    While (c, n, [ PartSetIv (a, c, value) ])
    :: (if Rng.chance ctx.rng 0.75 then array_end a else [])
  in
  let map_unsafe () =
    (* reads the array it writes: a cross-iteration dependency in general,
       so the pass must reject it *)
    let a = fresh_counter ctx "a" in
    add_local a TArr (ConstArr (Int 1, n));
    [ While (c, n, [ PartSetIv (a, c, Bin ("+", TInt, Part (a, iv), Int 1)) ]) ]
  in
  let nested () =
    (* re-entered inner reduction under an outer Do: only the innermost
       loop may parallelise *)
    let j = fresh_counter ctx "d" in
    let value =
      Bin ("+", TReal, Bin ("*", TReal, Real 0.25, iv),
           Bin ("*", TReal, Real 0.5, Var (j, TInt)))
    in
    let r = fresh_counter ctx "r" in
    add_local r TReal (Real 0.0);
    [ DoLoop
        (j, Rng.range ctx.rng 2 3,
         [ Assign (c, TInt, Int 1);
           While (c, n,
                  [ Assign (r, TReal, Bin ("+", TReal, Var (r, TReal), value)) ]) ]) ]
  in
  let swap_pair () =
    (* rotate a loop-carried pair through a temp: after mem2reg +
       simplify-cfg jump threading the loop's back edge carries a
       permutation of the header block's own parameters, the shape that
       requires parallel (two-phase) jump-argument copies in backends that
       lower block arguments to assignments *)
    let a = fresh_counter ctx "s" and b = fresh_counter ctx "s" in
    let tmp = fresh_counter ctx "t" in
    let k = Rng.range ctx.rng (-5) 5 in
    add_local a TInt (Int k);
    add_local b TInt (Int (k + 1 + Rng.range ctx.rng 0 3));
    add_local tmp TInt (Int 0);
    [ While (c, n,
             [ Assign (tmp, TInt, Var (a, TInt));
               Assign (a, TInt, Var (b, TInt));
               Assign (b, TInt, Var (tmp, TInt)) ]) ]
  in
  Rng.weighted ctx.rng
    [ (4, fun () -> reduce "+" 0.0);
      (2, fun () -> swap_pair ());
      (1, fun () ->
          reduce "*" 1.0
            ~value:(Bin ("+", TReal, Real 1.0, Bin ("*", TReal, Real 0.001, iv))));
      (2, fun () -> reduce (if Rng.bool ctx.rng then "Min" else "Max") 0.0);
      (2, fun () -> reduce "-" 0.0);
      (2, fun () -> reduce_int ());
      (4, fun () -> map_safe ());
      (2, fun () -> map_unsafe ());
      (1, fun () -> nested ()) ]
    ()

(* ---- statements ------------------------------------------------------ *)

let rec stmts ctx ~depth ~count =
  List.concat (List.init count (fun _ -> stmt ctx ~depth))

and stmt ctx ~depth =
  spend ctx;
  if ctx.fuel <= 0 then []
  else
    let assignable = ctx.mutables in
    let choices =
      (match assignable with
       | [] -> []
       | _ ->
         [ (6, fun () ->
               let v, t = Rng.pick ctx.rng assignable in
               [ Assign (v, t, expr ctx t 2) ]) ])
      @ (match mutables_of ctx TArr with
         | [] -> []
         | arrs ->
           [ (3, fun () ->
                 let v, _ = Rng.pick ctx.rng arrs in
                 [ PartSet (v, expr ctx TInt 1, expr ctx TInt 2) ]) ])
      @ (if depth > 0 then
           [ (4, fun () -> par_loop ctx ~depth);
             (3, fun () ->
                 let c = expr ctx TBool 2 in
                 let ts = stmts ctx ~depth:(depth - 1) ~count:(Rng.range ctx.rng 1 2) in
                 let fs =
                   if Rng.bool ctx.rng then []
                   else stmts ctx ~depth:(depth - 1) ~count:1
                 in
                 if ts = [] then [] else [ SIf (c, ts, fs) ]);
             (3, fun () ->
                 (* counted While: the counter lives in the Module and is
                    only ever incremented by the loop's own back edge; a
                    few count up to the top of the machine range, where
                    the last increment overflows when the bound is max_int *)
                 let c = fresh_counter ctx "c" in
                 let first, bound =
                   if Rng.chance ctx.rng 0.15 then
                     (max_int - Rng.range ctx.rng 1 4, max_int - Rng.range ctx.rng 0 2)
                   else (1, Rng.range ctx.rng 1 6)
                 in
                 ctx.extra_locals <-
                   ctx.extra_locals @ [ { lname = c; lty = TInt; linit = Int first } ];
                 let body =
                   stmts ctx ~depth:(depth - 1) ~count:(Rng.range ctx.rng 1 2)
                 in
                 (* such a counter is read after its loop, where an
                    overflow proof that should not hold shows *)
                 if first > 1 then begin
                   ctx.vars <- (c, TInt) :: ctx.vars;
                   ctx.watched <- c :: ctx.watched
                 end;
                 [ While (c, bound, body) ]);
             (2, fun () ->
                 let i = fresh_counter ctx "d" in
                 let saved = ctx.vars in
                 ctx.vars <- (i, TInt) :: ctx.vars;
                 let body =
                   stmts ctx ~depth:(depth - 1) ~count:(Rng.range ctx.rng 1 2)
                 in
                 ctx.vars <- saved;
                 if body = [] then []
                 else [ DoLoop (i, Rng.range ctx.rng 1 5, body) ]) ]
         else [])
    in
    let choices =
      match vars_of ctx TArr with
      | [] -> choices
      | arrs -> (2, fun () -> raw_sum ctx arrs) :: choices
    in
    let choices =
      match vars_of ctx TInt with
      | [] -> choices
      | ints -> (1, fun () -> top_probe ctx ints) :: choices
    in
    match choices with
    | [] -> []
    | _ -> Rng.weighted ctx.rng choices ()

and top_probe ctx ints =
  (* If[v <= B, t = v + 1] for v = BitOr[x, max_int], which is max_int when
     x >= 0: its v + 1 is never in range, whatever B.  t is a fresh local
     only the probe writes, and the result reads it *)
  let x, _ = Rng.pick ctx.rng ints in
  let t = fresh_counter ctx "t" in
  ctx.extra_locals <- ctx.extra_locals @ [ { lname = t; lty = TInt; linit = Int 0 } ];
  ctx.vars <- (t, TInt) :: ctx.vars;
  ctx.watched <- t :: ctx.watched;
  let v = Bin ("BitOr", TInt, Var (x, TInt), Int max_int) in
  let bound = Int (max_int - Rng.pick ctx.rng [ 0; 0; 1 ]) in
  [ SIf (Cmp ("<=", TInt, v, bound), [ Assign (t, TInt, Bin ("+", TInt, v, Int 1)) ], []) ]

(* A loop bounded by Length[a] - 1, Length[a] or Length[a] + 1 (and by an
   integer in scope, or not) that reads a[[c - 1]], a[[c]] or a[[c + 1]]
   unclamped: some reads are provably in range, some only under a version
   guard on the other bound, some not, and the last iteration of some fails
   the Part check, which every arm must keep. *)
and raw_sum ctx arrs =
  let a, _ = Rng.pick ctx.rng arrs in
  let c = fresh_counter ctx "c" and r = fresh_counter ctx "r" in
  let cap =
    match vars_of ctx TInt with
    | _ :: _ as ints when Rng.chance ctx.rng 0.4 -> Some (fst (Rng.pick ctx.rng ints))
    | _ -> None
  in
  ctx.extra_locals <-
    ctx.extra_locals
    @ [ { lname = c; lty = TInt; linit = Int 1 }; { lname = r; lty = TInt; linit = Int 0 } ];
  ctx.vars <- (r, TInt) :: ctx.vars;
  ctx.mutables <- (r, TInt) :: ctx.mutables;
  [ RawSum (c, a, r, cap, Rng.range ctx.rng (-1) 1, Rng.pick ctx.rng [ 0; 0; 1; -1 ]) ]

(* ---- whole programs -------------------------------------------------- *)

(* a string argument equals one of the literals strings are [compared]
   with as often as not *)
let gen_arg ~compared rng t =
  match t with
  | TInt -> Int (Rng.range rng (-9) 9)
  | TReal -> Real (float_of_int (Rng.range rng (-60) 60) /. 8.0)
  | TBool -> Bool (Rng.bool rng)
  | TStr -> Str (Rng.pick rng (if compared <> [] && Rng.bool rng then compared else str_pool))
  | TArr -> Arr (List.init (Rng.range rng 1 6) (fun _ -> Rng.range rng (-9) 9))

let case ?(config = default_config) rng =
  let ctx =
    { rng; cfg = config; fuel = config.max_size; vars = []; mutables = [];
      counters = 0; extra_locals = []; watched = []; sinks = []; compared = [] }
  in
  let param_ty () =
    Rng.weighted rng
      ([ (4, TInt); (2, TReal); (2, TArr); (1, TBool) ]
       @ if config.strings then [ (1, TStr) ] else [])
  in
  let params =
    List.init (Rng.range rng 1 3) (fun i -> (Printf.sprintf "p%d" (i + 1), param_ty ()))
  in
  ctx.vars <- params;
  let mk_locals prefix n =
    List.init n (fun i ->
        let name = Printf.sprintf "%s%d" prefix (i + 1) in
        let t = Rng.weighted rng [ (4, TInt); (2, TReal); (2, TArr); (1, TBool) ] in
        { lname = name; lty = t; linit = expr ctx t 1 })
  in
  let withs = if Rng.chance rng 0.3 then mk_locals "w" (Rng.range rng 1 2) else [] in
  ctx.vars <- ctx.vars @ List.map (fun l -> (l.lname, l.lty)) withs;
  let locals = mk_locals "m" (Rng.range rng 1 3) in
  ctx.vars <- ctx.vars @ List.map (fun l -> (l.lname, l.lty)) locals;
  ctx.mutables <- List.map (fun l -> (l.lname, l.lty)) locals;
  let body = stmts ctx ~depth:2 ~count:(Rng.range rng 1 4) in
  let ret =
    (* prefer returning something the body could have mutated; an integer
       when a watched integer or a sink array must be read *)
    match ctx.mutables with
    | _ when ctx.watched <> [] || ctx.sinks <> [] -> TInt
    | [] -> Rng.weighted rng [ (3, TInt); (2, TReal); (1, TBool); (1, TArr) ]
    | ms -> snd (Rng.pick rng ms)
  in
  ctx.fuel <- max ctx.fuel 6;
  let result = expr ctx ret 2 in
  (* the (integer) result also reads the last watched integer: near 2^52,
     or past it in the interpreter's bignums, but negative if it wrapped *)
  let result =
    match ctx.watched with
    | c :: _ -> Bin ("+", TInt, result, Bin ("Quotient", TInt, Var (c, TInt), Int 1024))
    | [] -> result
  in
  (* and every array a loop wrote before it reached a call, so that the
     loop and the call are live *)
  let result =
    List.fold_left
      (fun acc a -> Bin ("+", TInt, acc, Un ("Total", TInt, Var (a, TArr))))
      result ctx.sinks
  in
  let fn =
    { params; withs; locals = locals @ ctx.extra_locals; body; result; ret }
  in
  let args = List.map (fun (_, t) -> gen_arg ~compared:ctx.compared rng t) params in
  { fn; args }
