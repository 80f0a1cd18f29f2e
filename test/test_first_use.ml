(* The default type and macro environments are built once per process, on
   first use, under a lock.  This executable is its own process so that the
   first use really is concurrent: before anything else builds them, four
   domains compile the Figure-2 sources and 50 corpus programs through the
   domain pool, and the printed TWIR must match a sequential run. *)

open Wolf_compiler
module P = Bench_support.Programs

let figure2 =
  let src s () = (Wolf_wexpr.Parser.parse s, None) in
  [ src P.fnv1a_src; src P.mandelbrot_src; src P.dot_src; src P.blur_src;
    src P.histogram_src;
    (fun () -> (P.primeq_expr (), Some P.primeq_type_env));
    (fun () -> (Wolf_wexpr.Parser.parse P.qsort_driver_src, Some P.qsort_type_env)) ]

let programs () =
  List.map (fun mk -> mk ()) figure2
  @ List.map (fun e -> (e, None)) (List.filteri (fun i _ -> i < 50) (Corpus_pool.programs ()))

let twir (fexpr, type_env) =
  let c = Pipeline.compile ?type_env:(Option.map (fun mk -> mk ()) type_env) ~name:"p" fexpr in
  Wolf_fuzz.Twir_digest.renumber (Wir_print.program_to_string c.Pipeline.program)

let test_concurrent_first_build () =
  let progs = programs () in
  let parallel = Wolf_parallel.Pool.map_list ~jobs:4 progs twir in
  let sequential = List.map twir progs in
  Alcotest.(check int) "programs" 57 (List.length parallel);
  List.iteri
    (fun i (p, s) -> Alcotest.(check string) (Printf.sprintf "program %d" i) s p)
    (List.combine parallel sequential)

let () =
  Alcotest.run "first-use"
    [ ("shared environments",
       [ Alcotest.test_case "concurrent first build matches a sequential run" `Quick
           test_concurrent_first_build ]) ]
