(* Artifact appendix (experiment E9): the intermediate representations of
   addOne at each stage, as the paper's A.6 walks through, pinned as golden
   outputs. *)

open Wolf_compiler

let add_one = {|Function[{Typed[arg, "MachineInteger"]}, arg + 1]|}

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_compile_to_ast () =
  (* A.6.1: no macros apply, the program is unchanged *)
  Alcotest.(check string) "unchanged"
    {|Function[{Typed[arg, "MachineInteger"]}, arg + 1]|}
    (Wolfram.compile_to_ast add_one)

let test_compile_to_wir () =
  (* A.6.2: untyped WIR with LoadArgument and an unresolved Plus *)
  let text = Wolfram.compile_to_ir ~optimize:false add_one in
  List.iter
    (fun needle ->
       Alcotest.(check bool) needle true (contains text needle))
    [ "LoadArgument arg0"; "Call Plus"; "Return" ];
  (* the annotated argument carries its type (as in the paper's A.6.2 dump),
     but nothing is resolved yet *)
  Alcotest.(check bool) "unresolved" false (contains text "checked_binary_plus")

let test_compile_to_twir () =
  (* A.6.3: typed, resolved to the checked runtime primitive *)
  let text = Wolfram.compile_to_ir ~optimize:true add_one in
  List.iter
    (fun needle ->
       Alcotest.(check bool) needle true (contains text needle))
    [ ": (\"Integer64\") -> \"Integer64\"";
      "Native`PrimitiveFunction[checked_binary_plus_I64_I64]";
      "AbortCheck" ]

let test_export_ocaml () =
  (* A.6.4 analogue: native-code source export *)
  match Wolfram.export_string ~format:`OCaml add_one with
  | Ok src ->
    List.iter
      (fun needle -> Alcotest.(check bool) needle true (contains src needle))
      [ "Integer_overflow"; "Wolf_plugin.register" ]
  | Error e -> Alcotest.fail e

let test_export_c () =
  (* A.6.4/F10: standalone C with checked arithmetic *)
  match Wolfram.export_string ~format:`C add_one with
  | Ok src ->
    List.iter
      (fun needle -> Alcotest.(check bool) needle true (contains src needle))
      [ "int64_t"; "wolf_add"; "__builtin_add_overflow" ]
  | Error e -> Alcotest.fail e

let test_wvm_dump () =
  (* A.6 / §2.2: the CompiledFunction serialised form *)
  let w = Wolf_backends.Wvm.compile (Wolf_wexpr.Parser.parse add_one) in
  let dump = Wolf_backends.Wvm.dump w in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains dump needle))
    [ "CompiledFunction[{11, 12, 5468}"; "_Integer"; "Plus Op"; "Return"; "Evaluate]" ]

let test_export_library () =
  (* A.6.6/F10: FunctionCompileExportLibrary *)
  if Wolf_backends.Jit.available () then begin
    let path = Filename.temp_file "addone" ".cmxs" in
    match Wolfram.export_library ~path add_one with
    | Ok entry ->
      Alcotest.(check bool) "library file written" true (Sys.file_exists path);
      Alcotest.(check bool) "entry symbol" true (String.length entry > 0);
      Sys.remove path
    | Error e -> Alcotest.fail e
  end

let test_pipeline_options_in_meta () =
  let c =
    Pipeline.compile
      ~options:{ Options.default with Options.abort_handling = false }
      ~name:"Main" (Wolf_wexpr.Parser.parse add_one)
  in
  Alcotest.(check (option string)) "AbortHandling recorded" (Some "false")
    (List.assoc_opt "AbortHandling" c.Pipeline.program.Wir.pmeta)

let tests =
  [ Alcotest.test_case "CompileToAST (A.6.1)" `Quick test_compile_to_ast;
    Alcotest.test_case "CompileToIR unoptimised (A.6.2)" `Quick test_compile_to_wir;
    Alcotest.test_case "CompileToIR typed (A.6.3)" `Quick test_compile_to_twir;
    Alcotest.test_case "OCaml export (A.6.4)" `Quick test_export_ocaml;
    Alcotest.test_case "C export (A.6.4)" `Quick test_export_c;
    Alcotest.test_case "WVM dump (§2.2)" `Quick test_wvm_dump;
    Alcotest.test_case "library export (A.6.6)" `Quick test_export_library;
    Alcotest.test_case "options in program metadata" `Quick test_pipeline_options_in_meta ]
