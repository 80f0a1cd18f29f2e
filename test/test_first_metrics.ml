(* The first compile in a process registers the pass manager's metric
   instruments.  When those handles were shared [Lazy.t] values, four
   domains forcing them at once raised [CamlinternalLazy.Undefined] in
   whichever domain came second.  A process can only make its first compile
   once, so each round forks a fresh child: the child starts four domains
   that meet at a barrier and then compile the same program, and exits
   non-zero if any domain raised.  The parent (which must spawn no domain
   itself, or fork would refuse) counts the failed rounds. *)

open Wolf_compiler

let rounds = 40
let domains = 4

let src =
  "Function[{Typed[n, \"Integer64\"]}, Module[{s = 0}, Do[s = s + i*i, {i, n}]; s]]"

let child () =
  let fexpr = Wolf_wexpr.Parser.parse src in
  let ready = Atomic.make 0 in
  let compile_once () =
    Atomic.incr ready;
    while Atomic.get ready < domains do Domain.cpu_relax () done;
    match Pipeline.compile ~name:"p" fexpr with
    | _ -> None
    | exception e -> Some (Printexc.to_string e)
  in
  let ds = List.init domains (fun _ -> Domain.spawn compile_once) in
  let errs = List.filter_map Domain.join ds in
  List.iter prerr_endline errs;
  Unix._exit (if errs = [] then 0 else 1)

let test_racing_first_compile () =
  (* build the shared environments first, so that every domain reaches the
     pass manager after the same amount of work *)
  ignore (Stdlib_decls.env ());
  ignore (Macro.functional_env ());
  let failed = ref 0 in
  for _ = 1 to rounds do
    match Unix.fork () with
    | 0 -> child ()
    | pid ->
      (match Unix.waitpid [] pid with
       | _, Unix.WEXITED 0 -> ()
       | _ -> incr failed)
  done;
  Alcotest.(check int) "rounds with a failed domain" 0 !failed

let () =
  Alcotest.run "first-metrics"
    [ ("shared metric handles",
       [ Alcotest.test_case "four domains race the first compile" `Quick
           test_racing_first_compile ]) ]
