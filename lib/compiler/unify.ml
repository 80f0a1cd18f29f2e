open Types

(* Trail entries remember the previous contents of each cell bound inside
   [speculate], so that speculative unification (AlternativeConstraint
   candidate testing) can be rolled back exactly.  Bindings made outside any
   speculation are never rolled back, so they are not recorded, and the
   outermost commit drops its records: the trail is empty between
   inferences instead of growing by every binding ever made.

   The state is domain-local: type variables are created per inference run
   and never shared across domains, but a process-global trail would let two
   domains inferring concurrently interleave their undo records and roll
   back each other's bindings.  Domain.DLS gives every domain its own state
   at zero cost to the single-domain fast path. *)
type state = {
  depth : int ref;                      (* nesting of [speculate]; [Types.repr] reads it *)
  mutable trail : (tv ref * tv) list;   (* newest first *)
}

let state_key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { depth = Domain.DLS.get Types.speculation_depth; trail = [] })

let bind r t =
  let s = Domain.DLS.get state_key in
  if !(s.depth) > 0 then s.trail <- (r, !r) :: s.trail;
  r := Link t

let rec unify a b =
  let a = repr a and b = repr b in
  if a == b then Ok ()
  else
    match a, b with
    | Var ({ contents = Unbound ua } as ra), Var { contents = Unbound ub } ->
      (* Merge qualifier sets onto the surviving variable.  The class merge is
         monotone (adds constraints); rollback of the binding is what matters
         for correctness of speculation, and a spuriously widened qualifier
         set can only reject candidates later, never accept wrong ones. *)
      ub.classes <- List.sort_uniq String.compare (ua.classes @ ub.classes);
      bind ra b;
      Ok ()
    | Var ({ contents = Unbound u } as r), t | t, Var ({ contents = Unbound u } as r) ->
      if occurs u.id t then
        Error (match to_strings [ Var r; t ] with
            | [ v; t ] -> "occurs check: " ^ v ^ " in " ^ t
            | _ -> assert false)
      else begin
        let unsatisfied =
          List.filter (fun cls -> not (Type_class.satisfiable cls ~ty:t)) u.classes
        in
        match unsatisfied with
        | [] ->
          (* Propagate qualifiers into a variable nested at the top of t. *)
          (match repr t with
           | Var { contents = Unbound inner } ->
             inner.classes <- List.sort_uniq String.compare (u.classes @ inner.classes)
           | _ -> ());
          bind r t;
          Ok ()
        | cls :: _ ->
          Error
            (Printf.sprintf "type %s does not implement class %S" (List.hd (to_strings [ t ])) cls)
      end
    | Con (n1, a1), Con (n2, a2)
      when String.equal n1 n2 && Array.length a1 = Array.length a2 ->
      unify_all a1 a2
    | Lit x, Lit y when x = y -> Ok ()
    | Fun (a1, r1), Fun (a2, r2) when Array.length a1 = Array.length a2 ->
      (match unify_all a1 a2 with
       | Ok () -> unify r1 r2
       | Error _ as e -> e)
    | _ ->
      (match to_strings [ a; b ] with
       | [ a; b ] -> Error (Printf.sprintf "cannot unify %s with %s" a b)
       | _ -> assert false)

and unify_all xs ys =
  let n = Array.length xs in
  let rec go i =
    if i >= n then Ok ()
    else
      match unify xs.(i) ys.(i) with
      | Ok () -> go (i + 1)
      | Error _ as e -> e
  in
  go 0

let speculate f =
  let s = Domain.DLS.get state_key in
  let saved = s.trail in
  s.trail <- [];
  incr s.depth;
  let result = match f () with v -> v | exception _ -> None in
  decr s.depth;
  (match result with
   | Some _ ->
     (* an enclosing speculation may still roll these back; the outermost
        commit is final *)
     s.trail <- (if !(s.depth) = 0 then [] else s.trail @ saved)
   | None ->
     List.iter (fun (r, old) -> r := old) s.trail;
     s.trail <- saved);
  result
