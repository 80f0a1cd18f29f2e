exception Aborted

(* One cross-domain state word: bit 0 is the user-visible abort request
   (Abort[], or ^C in a notebook, raised on any domain and seen by compiled
   code polling on every other domain, with no torn or lost update); the
   bits above it count the hooks that have armed the slow path.  The word is
   zero exactly when nothing needs to happen at a check, so the check is one
   load and a branch.  Arming is a count, not a bit, because several domains
   can arm it at once. *)
let state = Atomic.make 0

let arm () = ignore (Atomic.fetch_and_add state 2)
let disarm () = ignore (Atomic.fetch_and_add state (-2))

let rec update_request f =
  let w = Atomic.get state in
  if not (Atomic.compare_and_set state w (f w)) then update_request f

(* Test hooks (abort_after / checks_performed) are per-domain.  They exist
   only so tests and the abort-overhead ablation can inject an interrupt at
   a deterministic poll and count polls; keeping them domain-local means a
   fuzz worker scheduling an injected abort, or calling [reset_stats], can
   never trip or skew a compiled function polling on another domain.  Each
   domain remembers the arms it holds, so [clear] (or the domain's exit)
   gives back exactly those. *)
type hooks = {
  mutable count : int;        (* armed checks performed on this domain *)
  mutable trigger : int;      (* fire an injected abort at this count; -1 = off *)
  mutable injected : bool;    (* sticky: an injected abort is unwinding *)
  mutable trigger_arm : bool; (* a pending or fired trigger holds an arm *)
  mutable stats_arm : bool;   (* [reset_stats] holds an arm *)
}

let release h =
  if h.trigger_arm then (h.trigger_arm <- false; disarm ());
  if h.stats_arm then (h.stats_arm <- false; disarm ())

let hooks_key =
  Domain.DLS.new_key (fun () ->
      let h =
        { count = 0; trigger = -1; injected = false; trigger_arm = false;
          stats_arm = false }
      in
      Domain.at_exit (fun () -> release h);
      h)

let hooks () = Domain.DLS.get hooks_key

let () =
  Wolf_obs.Profile.on_toggle (fun on -> if on then arm () else disarm ())

let request () = update_request (fun w -> w lor 1)

let clear () =
  update_request (fun w -> w land lnot 1);
  let h = hooks () in
  h.trigger <- -1;
  h.injected <- false;
  release h

let requested () = Atomic.get state land 1 <> 0
let armed () = Atomic.get state lsr 1 <> 0

let[@inline never] slow_path ~compiled =
  if compiled then Wolf_obs.Profile.note_abort_poll ();
  let h = hooks () in
  h.count <- h.count + 1;
  if h.trigger >= 0 && h.count >= h.trigger then begin
    h.trigger <- -1;
    (* sticky so nested evaluations keep unwinding, like a real request;
       confined to this domain by construction.  The trigger's arm stays
       held until [clear] so the sticky state is still seen. *)
    h.injected <- true
  end;
  if h.injected || requested () then raise Aborted

let slow () = slow_path ~compiled:true

let check () = if Atomic.get state <> 0 then slow ()
let interp_check () = if Atomic.get state <> 0 then slow_path ~compiled:false

let checks_performed () = (hooks ()).count

let reset_stats () =
  let h = hooks () in
  h.count <- 0;
  if not h.stats_arm then (h.stats_arm <- true; arm ())

let abort_after n =
  let h = hooks () in
  if not h.trigger_arm then (h.trigger_arm <- true; arm ());
  h.trigger <- h.count + n

let with_abort_protection f =
  match f () with
  | v -> Ok v
  | exception Aborted -> clear (); Error Aborted
  | exception e -> clear (); Error e
