(* Every primitive row with an op agrees with the row on both text emitters.

   The rows come from [Prims.rows] itself.  Each operand-kind signature a
   row is rendered at, and for a binary row each signature with one literal
   operand (the JIT keys its special cases on literals), becomes one
   hand-built TWIR function that applies the row.  The functions of one
   signature form one program whose entry dispatches on a case number; it
   is compiled once by the JIT and once as a C binary, and every function is
   called at edge operands where its row is defined; an array operand is
   a fresh array on every call, or a literal of a row that does not write
   it.  The expected outcome is the row's boxed implementation, which
   applies the row's scalar function, or its raise: the JIT must raise the
   same error, and the C binary must exit with 3. *)

open Wolf_compiler
open Wolf_runtime
module B = Wolf_backends

(* Integer64, Real64, Boolean, String, and packed arrays: integer and real
   vectors, a real matrix *)
type kind = I | R | Bo | S | Ti | Tr | Tm

let ty = function
  | I -> Types.int64
  | R -> Types.real64
  | Bo -> Types.boolean
  | S -> Types.string_
  | Ti -> Types.packed Types.int64 1
  | Tr -> Types.packed Types.real64 1
  | Tm -> Types.packed Types.real64 2

let is_array = function Ti | Tr | Tm -> true | I | R | Bo | S -> false

(* The (operand kinds, result kind) signatures a row is rendered at: its
   scalar form's, or for a row without one, its op's.  Left out: the
   complex rows, which C does not render, and [Dim] and [Constant_array],
   whose operand kinds the op does not fix (the corpus replays exercise
   these two on every arm). *)
let signatures (row : Prims.t) =
  match row.scalar, row.op with
  | Some (Int1 _), _ -> [ ([ I ], I) ]
  | Some (Int2 _), _ -> [ ([ I; I ], I) ]
  | Some (Real1 _), _ -> [ ([ R ], R) ]
  | Some (Real2 _), _ -> [ ([ R; R ], R) ]
  | Some (Real_to_int _), _ -> [ ([ R ], I) ]
  | Some (Int_to_real _), _ -> [ ([ I ], R) ]
  | Some (Num2 _), _ -> [ ([ I; I ], I); ([ R; R ], R); ([ I; R ], R); ([ R; I ], R) ]
  | Some (Cmp2 _), _ ->
    List.map (fun ks -> (ks, Bo)) [ [ I; I ]; [ R; R ]; [ I; R ]; [ R; I ]; [ Bo; Bo ]; [ S; S ] ]
  | Some (Int_test _), _ -> [ ([ I ], Bo) ]
  | Some (Bool1 _), _ -> [ ([ Bo ], Bo) ]
  | Some (Bool_to_int _), _ -> [ ([ Bo ], I) ]
  | None, None -> []
  | None, Some op ->
    (match op with
     | Power_ri -> [ ([ R; I ], R) ]
     | String_length -> [ ([ S ], I) ]
     | String_byte _ -> [ ([ S; I ], I) ]
     | String_join -> [ ([ S; S ], S) ]
     | Part_get { rank = 1; _ } -> [ ([ Ti; I ], I); ([ Tr; I ], R) ]
     | Part_get _ -> [ ([ Tm; I; I ], R) ]
     | Length -> [ ([ Ti ], I); ([ Tr ], I) ]
     | Total -> [ ([ Ti ], I); ([ Tr ], R) ]
     | Reverse -> [ ([ Ti ], Ti); ([ Tr ], Tr) ]
     | Take -> [ ([ Ti; I ], Ti); ([ Tr; I ], Tr) ]
     | Append -> [ ([ Ti; I ], Ti); ([ Tr; R ], Tr) ]
     | Range -> [ ([ I ], Ti) ]
     | To_codes -> [ ([ S ], Ti) ]
     | Join -> [ ([ Ti; Ti ], Ti); ([ Tr; Tr ], Tr) ]
     | Part_set { rank = 1; _ } -> [ ([ Ti; I; I ], Ti); ([ Tr; I; R ], Tr) ]
     | Part_set _ -> [ ([ Tm; I; I; R ], Tm) ]
     | Checked _ | Machine _ | Complex_arith _ | Re | Im | Make_complex | Cmp _ | Bit _ | Not
     | Libm _ | To_int _ | Round | To_real | Identity | Even | Odd | Boole | Dim
     | Constant_array ->
       [])

let t30 = 1 lsl 30
let t31 = 1 lsl 31

let strings = [ ""; "a"; "abc"; "b" ]

(* integer and real vectors, one of them empty, and a 2 x 3 real matrix *)
let arrays = function
  | Ti -> List.map (fun a -> Rtval.Tensor (Wolf_wexpr.Tensor.of_int_array a)) [ [| 10; -20; 30 |]; [| 7 |]; [||] ]
  | Tr -> List.map (fun a -> Rtval.Tensor (Wolf_wexpr.Tensor.of_real_array a)) [ [| 0.5; -1.5; 2.5 |]; [| -4.0 |]; [||] ]
  | Tm -> [ Rtval.Tensor (Wolf_wexpr.Tensor.create_real [| 2; 3 |] [| 1.5; 2.5; 3.5; 4.5; 5.5; 6.5 |]) ]
  | I | R | Bo | S -> []

let values = function
  | I ->
    List.map (fun i -> Rtval.Int i)
      [ 0; 1; -1; 2; -2; t30 - 1; 1 - t30; t30; -t30; t31; -t31; max_int; max_int - 1; min_int;
        min_int + 1 ]
  | R ->
    List.map (fun r -> Rtval.Real r)
      [ 0.0; -0.0; 1.5; -1.5; 2.5; -2.5; Float.infinity; Float.neg_infinity; Float.nan; 1e300 ]
  | Bo -> [ Rtval.Bool false; Rtval.Bool true ]
  | S -> List.map (fun s -> Rtval.Str s) strings
  | (Ti | Tr | Tm) as kd -> arrays kd

let literals = function
  | I -> List.map (fun i -> Rtval.Int i) [ 0; 1; -1; 2; max_int; min_int ]
  | R -> List.map (fun r -> Rtval.Real r) [ 0.0; -0.0; 2.0; Float.nan ]
  | Bo -> [ Rtval.Bool true ]
  | S -> [ Rtval.Str "abc" ]
  | (Ti | Tr | Tm) as kd -> arrays kd

(* Whether the row is defined at these operands: a float->int row needs a
   finite value below 2^62, a shift a count in 0..62, a proved machine
   operation (the range analysis's variant of a checked one) an exact
   result in range, an unchecked read or store an index in range, and
   [Range] a length that can be allocated. *)
let defined (row : Prims.t) args =
  match row.scalar, row.op, args with
  | Some (Real_to_int _), _, [ Rtval.Real x ] -> Float.abs x < 0x1p62
  | _, Some (Bit (Shift_left | Shift_right)), [ _; Rtval.Int k ] -> k >= 0 && k <= 62
  | _, Some (Machine (Add | Sub | Mul as f)), [ Rtval.Int a; Rtval.Int b ] ->
    let open Wolf_base.Checked in
    (match f with Add -> add_opt | Sub -> sub_opt | _ -> mul_opt) a b <> None
  | _, Some (String_byte { checked = false }), [ Rtval.Str s; Rtval.Int i ] ->
    i >= 1 && i <= String.length s
  | _, Some (Part_get { rank; checked = false } | Part_set { rank; checked = false; _ }),
    Rtval.Tensor t :: ixs ->
    List.for_all2
      (fun n i -> match i with Rtval.Int i -> i >= 1 && i <= n | _ -> false)
      (Array.to_list (Wolf_wexpr.Tensor.dims t)) (List.filteri (fun k _ -> k < rank) ixs)
  | _, Some Range, [ Rtval.Int n ] -> n <= 1024
  | _ -> true

(* one function of a group: a row applied to the group's parameters, with
   a literal at [lit]'s position if there is one *)
type fn = { row : Prims.t; kinds : kind list; lit : (int * Rtval.t) option }

let params f = List.filteri (fun i _ -> Option.map fst f.lit <> Some i) f.kinds

let operands f (xs : Rtval.t list) =
  let rec go i xs =
    if i = List.length f.kinds then []
    else
      match f.lit, xs with
      | Some (j, c), _ when j = i -> c :: go (i + 1) xs
      | _, x :: rest -> x :: go (i + 1) rest
      | _, [] -> invalid_arg "operands"
  in
  go 0 xs

let const = function
  | Rtval.Int i -> Wir.Cint i
  | Real r -> Creal r
  | Bool b -> Cbool b
  | Str s -> Cstr s
  | Tensor t -> Cexpr (Wolf_wexpr.Expr.Tensor t)
  | _ -> invalid_arg "const"

let block label instrs term = { Wir.label; bparams = [||]; instrs; term }

let loads vars = List.mapi (fun index dst -> Wir.Load_argument { dst; index }) vars

let row_func name f result =
  let vars = List.map (fun k -> Wir.fresh_var ~ty:(ty k) ()) (params f) in
  let rec ops i vars =
    if i = List.length f.kinds then []
    else
      match f.lit, vars with
      | Some (j, c), _ when j = i -> Wir.Oconst (const c) :: ops (i + 1) vars
      | _, v :: rest -> Wir.Ovar v :: ops (i + 1) rest
      | _, [] -> invalid_arg "row_func"
  in
  let dst = Wir.fresh_var ~ty:(ty result) () in
  let base = f.row.Prims.name in
  { Wir.fname = name; fparams = Array.of_list vars; ret_ty = Some (ty result);
    blocks =
      [ block 0
          (loads vars @ [ Wir.Call { dst; callee = Resolved { base; mangled = base };
                                     args = Array.of_list (ops 0 vars) } ])
          (Return (Ovar dst)) ];
    finline = false; fsource = None }

(* main (k, params...): the k-th function applied to the parameters *)
let program shell fns pkinds result =
  let k = Wir.fresh_var ~ty:Types.int64 () in
  let vars = List.map (fun kd -> Wir.fresh_var ~ty:(ty kd) ()) pkinds in
  let args = Array.of_list (List.map (fun v -> Wir.Ovar v) vars) in
  let n = List.length fns in
  let cases =
    List.concat
      (List.mapi
         (fun i _ ->
            let eq = Wir.fresh_var ~ty:Types.boolean () and r = Wir.fresh_var ~ty:(ty result) () in
            let jump target = { Wir.target; jargs = [||] } in
            [ block ((2 * i) + 1)
                [ Wir.Call { dst = eq; callee = Resolved { base = "binary_equal"; mangled = "binary_equal" };
                             args = [| Ovar k; Oconst (Cint i) |] } ]
                (Branch { cond = Ovar eq; if_true = jump ((2 * i) + 2); if_false = jump ((2 * i) + 3) });
              block ((2 * i) + 2)
                [ Wir.Call { dst = r; callee = Func (Printf.sprintf "r%d" i); args } ]
                (Return (Ovar r)) ])
         fns)
  in
  let main =
    { (Wir.main shell.Pipeline.program) with
      Wir.fparams = Array.of_list (k :: vars);
      ret_ty = Some (ty result);
      blocks =
        (block 0 (loads (k :: vars)) (Jump { target = 1; jargs = [||] }) :: cases)
        @ [ block ((2 * n) + 1) [] Unreachable ] }
  in
  { shell with
    Pipeline.program =
      { Wir.funcs = main :: List.mapi (fun i f -> row_func (Printf.sprintf "r%d" i) f result) fns;
        pmeta = [] } }

(* outcomes as the C driver prints them: an integer, a real's bits (any
   NaN as "nan"), 0 or 1, a string, an array's kind, dims and elements, or
   the exit status of a raise *)
let real_bits r = if Float.is_nan r then "nan" else Printf.sprintf "%Lx" (Int64.bits_of_float r)

let show = function
  | Rtval.Int i -> string_of_int i
  | Real r -> real_bits r
  | Bool b -> if b then "1" else "0"
  | Str s -> s
  | Tensor t ->
    let module T = Wolf_wexpr.Tensor in
    let n = T.flat_length t and d = T.dims t in
    if T.is_int t then
      Printf.sprintf "i:%d:%s" d.(0) (String.concat "," (List.init n (fun i -> string_of_int (T.get_int t i))))
    else
      Printf.sprintf "r:%d:%d:%s" d.(0) (if Array.length d = 2 then d.(1) else 0)
        (String.concat "," (List.init n (fun i -> real_bits (T.get_real t i))))
  | v -> Rtval.type_name v

let outcome run =
  match run () with
  | v -> show v
  | exception Wolf_base.Errors.Runtime_error f -> "raise " ^ Wolf_base.Errors.describe_failure f

(* A C main that reads "k operand..." lines and prints each call's result,
   each call in a child process so that a raise exits only the child *)
let c_driver ~entry pkinds result =
  let n = List.length pkinds in
  let arg i = function
    | I -> Printf.sprintf "(int64_t)strtoll(tok[%d], 0, 10)" i
    | R -> Printf.sprintf "wolf_t_real(tok[%d])" i
    | Bo -> Printf.sprintf "atoi(tok[%d])" i
    | S -> Printf.sprintf "wolf_t_strs[atoi(tok[%d])]" i
    | Ti -> Printf.sprintf "wolf_t_iarr(tok[%d])" i
    | Tr | Tm -> Printf.sprintf "wolf_t_rarr(tok[%d])" i
  in
  let print =
    match result with
    | I -> {|printf("%lld\n", (long long)r);|}
    | R -> {|wolf_t_real_out(r); puts("");|}
    | Bo -> {|printf("%d\n", r);|}
    | S -> {|puts(r);|}
    | Ti ->
      {|printf("i:%lld:", (long long)r->n);
        for (int64_t i = 0; i < r->n; i++) printf(i ? ",%lld" : "%lld", (long long)r->a[i]);
        puts("");|}
    | Tr | Tm ->
      {|printf("r:%lld:%lld:", (long long)r->n, (long long)r->m);
        for (int64_t i = 0; i < r->n * (r->m ? r->m : 1); i++) { if (i) putchar(','); wolf_t_real_out(r->a[i]); }
        puts("");|}
  in
  String.concat "\n"
    [ "#include <unistd.h>";
      "#include <sys/wait.h>";
      Printf.sprintf "static const char *wolf_t_strs[] = { %s };"
        (String.concat ", " (List.map (Printf.sprintf "%S") strings));
      "static double wolf_t_real(const char *s) { uint64_t u = strtoull(s, 0, 16); double d; memcpy(&d, &u, 8); return d; }";
      (* an array operand: its length (and columns), then its elements *)
      "static wolf_itensor *wolf_t_iarr(const char *s) { char *e; int64_t n = strtoll(s, &e, 10); wolf_itensor *t = wolf_itensor_new(n); for (int64_t i = 0; i < n; i++) t->a[i] = strtoll(e + 1, &e, 10); return t; }";
      "static wolf_rtensor *wolf_t_rarr(const char *s) { char *e; int64_t n = strtoll(s, &e, 10), m = strtoll(e + 1, &e, 10); wolf_rtensor *t = wolf_rtensor_new(n, m); for (int64_t i = 0; i < n * (m ? m : 1); i++) { uint64_t u = strtoull(e + 1, &e, 16); memcpy(&t->a[i], &u, 8); } return t; }";
      "static void wolf_t_real_out(double r) { uint64_t u; memcpy(&u, &r, 8); if (isnan(r)) printf(\"nan\"); else printf(\"%llx\", (unsigned long long)u); }";
      "int main(void) {";
      "  long long k; char tok[4][256];";
      "  if (!freopen(\"/dev/null\", \"w\", stderr)) return 1;";
      (* a child's exit flushes stdin: unbuffered, it cannot move the
         offset it shares with the parent *)
      "  setvbuf(stdin, 0, _IONBF, 0);";
      "  while (scanf(\"%lld\", &k) == 1) {";
      Printf.sprintf "    for (int i = 0; i < %d; i++) if (scanf(\"%%255s\", tok[i]) != 1) return 1;" n;
      "    fflush(stdout);";
      "    pid_t p = fork();";
      "    if (p == 0) {";
      Printf.sprintf "      %s r = %s(k%s);"
        (match result with
         | I -> "int64_t" | R -> "double" | Bo -> "int" | S -> "const char *"
         | Ti -> "wolf_itensor *" | Tr | Tm -> "wolf_rtensor *")
        entry
        (String.concat "" (List.mapi (fun i kd -> ", " ^ arg i kd) pkinds));
      "      " ^ print;
      "      fflush(stdout); _exit(0);";
      "    }";
      "    int st; waitpid(p, &st, 0);";
      "    if (!WIFEXITED(st) || WEXITSTATUS(st) != 0)";
      "      printf(\"exit %d\\n\", WIFEXITED(st) ? WEXITSTATUS(st) : 128 + WTERMSIG(st));";
      "  }";
      "  return 0;";
      "}";
      "" ]

let c_token = function
  | Rtval.Int i -> string_of_int i
  | Real r -> Printf.sprintf "%Lx" (Int64.bits_of_float r)
  | Bool b -> if b then "1" else "0"
  | Str s ->
    let rec index i = function [] -> invalid_arg "c_token" | x :: r -> if x = s then i else index (i + 1) r in
    string_of_int (index 0 strings)
  | Tensor t ->
    let module T = Wolf_wexpr.Tensor in
    let n = T.flat_length t and d = T.dims t in
    String.concat ","
      (if T.is_int t then string_of_int d.(0) :: List.init n (fun i -> string_of_int (T.get_int t i))
       else
         string_of_int d.(0) :: string_of_int (if Array.length d = 2 then d.(1) else 0)
         :: List.init n (fun i -> Printf.sprintf "%Lx" (Int64.bits_of_float (T.get_real t i))))
  | _ -> invalid_arg "c_token"

(* the outputs of the built group binary on [cases] (k, params) *)
let run_c source cases =
  let dir = Filename.temp_file "wolf_rows" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir))) @@ fun () ->
  let exe = Filename.concat dir "rows" and inp = Filename.concat dir "in" and out = Filename.concat dir "out" in
  (match B.C_build.build ~source ~output:exe () with Ok () -> () | Error e -> Alcotest.failf "cc: %s" e);
  Out_channel.with_open_bin inp (fun oc ->
      List.iter
        (fun (k, xs) ->
           Printf.fprintf oc "%d %s\n" k (String.concat " " (List.map c_token xs)))
        cases);
  ignore (Sys.command (Printf.sprintf "%s < %s > %s" (Filename.quote exe) (Filename.quote inp) (Filename.quote out)));
  let n = List.length cases in
  In_channel.with_open_bin out In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filteri (fun i _ -> i < n)

let test_rows_agree () =
  Wolfram.init ();
  let jit = B.Jit.available () and cc = B.C_build.available () in
  let shell =
    Pipeline.compile ~name:"rows"
      (Wolf_wexpr.Parser.parse {|Function[{Typed[n, "MachineInteger"]}, n]|})
  in
  (* every function, grouped by the parameter and result kinds *)
  let groups = Hashtbl.create 32 in
  let add pkinds result f =
    let key = (pkinds, result) in
    Hashtbl.replace groups key (f :: Option.value ~default:[] (Hashtbl.find_opt groups key))
  in
  let rendered = ref 0 in
  List.iter
    (fun (row : Prims.t) ->
       List.iter
         (fun (kinds, result) ->
            incr rendered;
            let literal i kd =
              List.iter
                (fun c ->
                   let f = { row; kinds; lit = Some (i, c) } in
                   add (params f) result f)
                (literals kd)
            in
            add kinds result { row; kinds; lit = None };
            (* a literal array only where the row does not write it *)
            match List.find_index is_array kinds, row.op with
            | Some _, Some (Part_set _) -> ()
            | Some i, _ -> literal i (List.nth kinds i)
            | None, _ -> if List.length kinds = 2 then List.iteri literal kinds)
         (signatures row))
    Prims.rows;
  Alcotest.(check bool) "rows rendered" true (!rendered > 50);
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  Hashtbl.iter
    (fun (pkinds, result) fns ->
       let fns = List.rev fns in
       let c = program shell fns pkinds result in
       (* each function's cases: its parameters at every edge operand where
          its row is defined *)
       let rec tuples = function
         | [] -> [ [] ]
         | kd :: rest -> List.concat_map (fun v -> List.map (fun t -> v :: t) (tuples rest)) (values kd)
       in
       let cases =
         List.concat
           (List.mapi
              (fun k f ->
                 List.filter_map
                   (fun xs -> if defined f.row (operands f xs) then Some (k, xs) else None)
                   (tuples pkinds))
              fns)
       in
       let fns = Array.of_list fns in
       (* a store writes its array: every call gets its own *)
       let fresh = List.map (function Rtval.Tensor t -> Rtval.Tensor (Wolf_wexpr.Tensor.copy t) | v -> v) in
       let expected =
         List.map
           (fun (k, xs) ->
              outcome (fun () -> fns.(k).row.impl (Array.of_list (operands fns.(k) (fresh xs)))))
           cases
       in
       let describe (k, xs) =
         let f = fns.(k) in
         let arg = function Rtval.Real r -> Printf.sprintf "%h" r | v -> show v in
         Printf.sprintf "%s(%s)%s" f.row.name
           (String.concat ", " (List.map arg (operands f xs)))
           (match f.lit with Some (i, _) -> Printf.sprintf " literal %d" i | None -> "")
       in
       if jit then begin
         match B.Jit.compile c with
         | Error e -> fail "jit: %s" e
         | Ok j ->
           List.iter2
             (fun (k, xs) want ->
                let got = outcome (fun () -> j.Rtval.call (Array.of_list (Rtval.Int k :: fresh xs))) in
                if got <> want then fail "jit %s = %s, row %s" (describe (k, xs)) got want)
             cases expected
       end;
       if cc then begin
         match B.C_emit.emit c with
         | Error e -> fail "c: %s" e
         | Ok e ->
           let source = e.B.C_emit.source ^ c_driver ~entry:e.B.C_emit.entry_name pkinds result in
           let outs = run_c source cases in
           if List.length outs <> List.length cases then fail "c: %d outputs for %d cases" (List.length outs) (List.length cases)
           else
             List.iter2
               (fun ((k, xs), want) got ->
                  let want = if String.starts_with ~prefix:"raise " want then "exit 3" else want in
                  if got <> want then fail "c %s = %s, row %s" (describe (k, xs)) got want)
               (List.combine cases expected) outs
       end)
    groups;
  match List.rev !failures with
  | [] -> ()
  | fs ->
    Alcotest.failf "%d disagreement(s):\n%s" (List.length fs)
      (String.concat "\n" (List.filteri (fun i _ -> i < 40) fs))

let tests =
  [ Alcotest.test_case "every row with an op agrees with its row on both emitters" `Slow
      test_rows_agree ]
