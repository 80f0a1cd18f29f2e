(* wolfd service-layer tests: protocol framing, session isolation,
   cancellation/deadlines, admission control, fault injection (client
   death, compile errors), metrics-source idempotency across daemon
   restarts, and a serve-arm fuzz mini-campaign.

   Every test spawns a real daemon on a private socket — these are
   integration tests of the full stack (framing -> admission -> executor
   domains -> kernel lock -> state swap), not mocks. *)

module P = Wolf_serve.Protocol
module C = Wolf_serve.Client
module S = Wolf_serve.Server

let with_server ?(jobs = 2) ?(queue = 64) ?(max_frame = P.default_max_frame)
    ?(tier = false) ?(tier_threshold = 12) f =
  let path = Filename.temp_file "wolfd" ".sock" in
  let srv =
    S.start
      { (S.default_config ~socket_path:path ()) with
        S.jobs; queue_capacity = queue; max_frame; tier; tier_threshold }
  in
  Fun.protect
    ~finally:(fun () ->
        S.stop srv;
        if Sys.file_exists path then (try Sys.remove path with _ -> ()))
    (fun () -> f srv path)

let ok_text what (r : P.response) =
  match r.P.rsp with
  | Ok (P.Text s) -> s
  | Ok (P.Json s) -> Alcotest.failf "%s: got JSON %s" what s
  | Error (k, m) ->
    Alcotest.failf "%s: error (%s) %s" what (P.error_kind_name k) m

let err_kind what (r : P.response) =
  match r.P.rsp with
  | Error (k, _) -> k
  | Ok _ -> Alcotest.failf "%s: expected an error reply" what

let check_eval c what src expected =
  Alcotest.(check string) what expected (ok_text what (C.eval c src))

(* a loop long enough (~5s) that a cancel always lands mid-evaluation, and
   short enough that a broken abort path fails the test instead of wedging
   the suite *)
let long_src = "Do[Null, {i, 100000000}]"

let until ?(timeout = 10.0) ?(what = "condition") pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Protocol codec                                                       *)

let test_protocol_roundtrip () =
  let reqs =
    [ { P.rid = 1; req = P.Eval { code = "1 + 1"; deadline_ms = None } };
      { P.rid = 2; req = P.Eval { code = "x\n\"y\""; deadline_ms = Some 250 } };
      { P.rid = 3; req = P.Compile { code = "Function[{}, 0]";
                                     target = "bytecode"; opt = 2 } };
      { P.rid = 4; req = P.Cancel { target = 2 } };
      { P.rid = 5; req = P.Stats };
      { P.rid = 6; req = P.Metrics `Prometheus };
      { P.rid = 7; req = P.Dump_flight };
      { P.rid = 8; req = P.Shutdown } ]
  in
  List.iter
    (fun r ->
       match P.decode_request (P.encode_request r) with
       | Ok r' when r = r' -> ()
       | Ok _ -> Alcotest.failf "request %d did not round-trip" r.P.rid
       | Error e -> Alcotest.failf "request %d: %s" r.P.rid e)
    reqs;
  let rsps =
    [ { P.rsp_id = 1; rsp = Ok (P.Text "42 \"quoted\""); micros = 17 };
      { P.rsp_id = 2; rsp = Error (P.Overloaded, "queue full"); micros = 0 };
      { P.rsp_id = 3; rsp = Error (P.Deadline, ""); micros = 5 } ]
  in
  List.iter
    (fun r ->
       match P.decode_response (P.encode_response r) with
       | Ok r' when r = r' -> ()
       | Ok _ -> Alcotest.failf "response %d did not round-trip" r.P.rsp_id
       | Error e -> Alcotest.failf "response %d: %s" r.P.rsp_id e)
    rsps;
  (* malformed payloads are errors, not exceptions *)
  List.iter
    (fun bad ->
       match P.decode_request bad with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "decoded %S" bad)
    [ "nonsense"; "{}"; "{\"id\":1,\"op\":\"teleport\"}";
      "{\"id\":1,\"op\":\"eval\"}"; "{\"id\":2,\"op\":\"cancel\"}" ]

let test_framing_pipe () =
  let r, w = Unix.pipe () in
  let ic = Unix.in_channel_of_descr r and oc = Unix.out_channel_of_descr w in
  P.write_frame oc "hello";
  P.write_frame oc "";
  (match P.read_frame ~max_frame:1024 ic with
   | Ok s -> Alcotest.(check string) "frame 1" "hello" s
   | Error _ -> Alcotest.fail "frame 1 lost");
  (match P.read_frame ~max_frame:1024 ic with
   | Ok s -> Alcotest.(check string) "empty frame" "" s
   | Error _ -> Alcotest.fail "empty frame lost");
  close_out oc;
  (match P.read_frame ~max_frame:1024 ic with
   | Error `Eof -> ()
   | _ -> Alcotest.fail "expected EOF");
  close_in ic;
  (* an oversize declaration is detected from the header alone, before any
     payload byte is read (after it the stream is desynced by design) *)
  let r, w = Unix.pipe () in
  let ic = Unix.in_channel_of_descr r and oc = Unix.out_channel_of_descr w in
  P.write_frame oc (String.make 300 'x');
  (match P.read_frame ~max_frame:100 ic with
   | Error (`Oversize n) -> Alcotest.(check int) "declared size" 300 n
   | _ -> Alcotest.fail "oversize frame not rejected");
  close_out oc;
  close_in ic

(* ------------------------------------------------------------------ *)
(* Unhappy frames against a live daemon                                 *)

let test_malformed_frame () =
  with_server @@ fun _srv path ->
  let c = C.connect path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  C.send_raw c "this is not json";
  let r = C.recv_any c in
  Alcotest.(check bool) "bad-frame kind" true
    (err_kind "malformed" r = P.Bad_frame);
  (* framing is still in sync: the connection keeps working *)
  check_eval c "after bad frame" "1 + 1" "2"

let test_oversize_frame () =
  with_server ~max_frame:4096 @@ fun _srv path ->
  let c = C.connect path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  C.send_raw c (String.make 8192 'a');
  let r = C.recv_any c in
  Alcotest.(check bool) "oversize kind" true
    (err_kind "oversize" r = P.Oversize);
  (* after a lying length prefix the daemon hangs up *)
  (match C.recv_any c with
   | exception P.Closed -> ()
   | _ -> Alcotest.fail "daemon kept an untrusted stream open")

(* ------------------------------------------------------------------ *)
(* Session isolation                                                    *)

let test_session_isolation () =
  with_server @@ fun _srv path ->
  let c1 = C.connect path and c2 = C.connect path in
  Fun.protect ~finally:(fun () -> C.close c1; C.close c2) @@ fun () ->
  check_eval c1 "c1 set" "ServeIso = 41" "41";
  (* c2 must not see c1's own values, even for the same symbol *)
  check_eval c2 "c2 unset" "ServeIso" "ServeIso";
  check_eval c2 "c2 set" "ServeIso = 1000" "1000";
  check_eval c1 "c1 kept" "ServeIso + 1" "42";
  check_eval c2 "c2 kept" "ServeIso + 1" "1001";
  (* down values are per-session too *)
  check_eval c1 "c1 downvalue" "ServeIsoF[n_] := n + 1" "Null";
  check_eval c1 "c1 call" "ServeIsoF[1]" "2";
  check_eval c2 "c2 no downvalue" "ServeIsoF[1]" "ServeIsoF[1]";
  (* each fresh session is seeded with the numeric constants *)
  check_eval c2 "c2 Pi" "Floor[Pi * 100]" "314"

(* ------------------------------------------------------------------ *)
(* Cancellation, deadlines, Abort[]                                     *)

let test_cancel_mid_eval () =
  with_server @@ fun srv path ->
  let c = C.connect path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let rid = C.send c (P.Eval { code = long_src; deadline_ms = None }) in
  until ~what:"eval to start" (fun () ->
      (S.executor_stats srv).Wolf_parallel.Executor.running >= 1);
  Thread.delay 0.05;   (* let it get past the prologue and into the loop *)
  let cr = C.cancel c ~target:rid in
  Alcotest.(check string) "cancel acknowledged" "cancelling"
    (ok_text "cancel" cr);
  let r = C.wait c rid in
  Alcotest.(check bool) "cancelled kind" true
    (err_kind "cancelled eval" r = P.Cancelled);
  (* the session survives the abort with its state intact *)
  check_eval c "after cancel" "1 + 2" "3"

let test_deadline () =
  with_server @@ fun _srv path ->
  let c = C.connect path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let r = C.eval ~deadline_ms:100 c long_src in
  Alcotest.(check bool) "deadline kind" true
    (err_kind "deadline eval" r = P.Deadline);
  check_eval c "after deadline" "2 + 2" "4"

let test_program_abort () =
  with_server @@ fun _srv path ->
  let c = C.connect path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  (* a program aborting itself is a result, not a daemon error — and the
     consumed abort flag must not leak into the next request *)
  check_eval c "Abort[]" "Abort[]" "$Aborted";
  check_eval c "after Abort[]" "3 + 3" "6"

(* ------------------------------------------------------------------ *)
(* Admission control                                                    *)

let test_overload () =
  with_server ~jobs:1 ~queue:1 @@ fun srv path ->
  let c = C.connect path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  (* occupy the single worker ... *)
  let long_rid = C.send c (P.Eval { code = long_src; deadline_ms = None }) in
  until ~what:"worker to claim the long eval" (fun () ->
      (S.executor_stats srv).Wolf_parallel.Executor.running >= 1);
  (* ... fill the queue's single slot ... *)
  let queued_rid = C.send c (P.Eval { code = "1 + 1"; deadline_ms = None }) in
  until ~what:"queue slot to fill" (fun () ->
      (S.executor_stats srv).Wolf_parallel.Executor.queued >= 1);
  (* ... and the next request must be refused immediately, not parked *)
  let refused_rid = C.send c (P.Eval { code = "2 + 2"; deadline_ms = None }) in
  let refused = C.wait c refused_rid in
  Alcotest.(check bool) "overloaded kind" true
    (err_kind "refused eval" refused = P.Overloaded);
  (* free the worker; the queued request then completes normally *)
  ignore (C.cancel c ~target:long_rid);
  let cancelled = C.wait c long_rid in
  Alcotest.(check bool) "long eval cancelled" true
    (err_kind "long eval" cancelled = P.Cancelled);
  Alcotest.(check string) "queued eval survived" "2"
    (ok_text "queued eval" (C.wait c queued_rid))

(* ------------------------------------------------------------------ *)
(* Fault injection                                                      *)

let test_client_death_reaps_session () =
  with_server ~jobs:1 @@ fun srv path ->
  let doomed = C.connect path in
  ignore (C.send doomed (P.Eval { code = long_src; deadline_ms = None }));
  until ~what:"doomed eval to start" (fun () ->
      (S.executor_stats srv).Wolf_parallel.Executor.running >= 1);
  Thread.delay 0.05;
  (* kill the client mid-request: no goodbye, just a closed socket *)
  C.close doomed;
  (* the daemon must reap the session, abort its evaluation, and release
     the worker for other clients *)
  until ~what:"session reap" (fun () -> S.session_count srv = 0);
  until ~what:"worker release" (fun () ->
      let s = S.executor_stats srv in
      s.Wolf_parallel.Executor.running = 0 && s.queued = 0);
  let c = C.connect path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  check_eval c "daemon healthy after client death" "6 * 7" "42"

let test_compile_error_reply () =
  with_server @@ fun _srv path ->
  let c = C.connect path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  (* a type error is a hard compile failure (an unbound symbol is not: it
     soft-falls-back to the interpreter per F2) *)
  let r = C.compile c "Function[{Typed[s, \"String\"]}, s + 1]" in
  (match r.P.rsp with
   | Error (P.Compile_failed, msg) ->
     Alcotest.(check bool) "reply carries a diagnostic" true (msg <> "")
   | Error (k, m) ->
     Alcotest.failf "expected compile error, got (%s) %s"
       (P.error_kind_name k) m
   | Ok _ -> Alcotest.fail "ill-typed program compiled");
  (* parse errors are classified separately *)
  let r = C.eval c "1 + * 2" in
  Alcotest.(check bool) "parse kind" true
    (err_kind "parse error" r = P.Parse_error);
  (* the worker survives both *)
  let good = C.compile c "Function[{Typed[x, \"MachineInteger\"]}, x + 1]" in
  (match good.P.rsp with
   | Ok (P.Text _) -> ()
   | _ -> Alcotest.fail "worker did not survive the failed compiles")

(* ------------------------------------------------------------------ *)
(* Concurrency + shared cache                                           *)

let test_concurrent_clients () =
  with_server @@ fun _srv path ->
  let per_client = 25 in
  let failures = Atomic.make 0 in
  let worker k () =
    let c = C.connect path in
    Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
    for i = 1 to per_client do
      if i mod 5 = 0 then begin
        match
          (C.compile c
             (Printf.sprintf
                "Function[{Typed[x, \"MachineInteger\"]}, x + %d]" (i mod 2)))
            .P.rsp
        with
        | Ok _ -> ()
        | Error _ -> Atomic.incr failures
      end
      else begin
        let expected = string_of_int (k * 1000 + i) in
        match (C.eval c (Printf.sprintf "%d * 1000 + %d" k i)).P.rsp with
        | Ok (P.Text s) when s = expected -> ()
        | _ -> Atomic.incr failures
      end
    done
  in
  let threads = List.init 4 (fun k -> Thread.create (worker k) ()) in
  List.iter Thread.join threads;
  Alcotest.(check int) "all requests served correctly" 0
    (Atomic.get failures)

let test_shared_compile_cache () =
  with_server @@ fun _srv path ->
  let c1 = C.connect path and c2 = C.connect path in
  Fun.protect ~finally:(fun () -> C.close c1; C.close c2) @@ fun () ->
  (* a source no other test compiles, so the delta is attributable *)
  let src = "Function[{Typed[x, \"MachineInteger\"]}, x * 87 + 13]" in
  let before = (Wolfram.compile_cache_stats ()).Wolf_compiler.Compile_cache.hits in
  ignore (ok_text "c1 compile" (C.compile c1 src));
  ignore (ok_text "c2 compile" (C.compile c2 src));
  let after = (Wolfram.compile_cache_stats ()).Wolf_compiler.Compile_cache.hits in
  (* the second session's compile hits the entry the first one filled *)
  Alcotest.(check bool) "cache shared across sessions" true (after > before)

(* a cache hit must report its own program's counts, not those of
   whatever compiled last under the daemon's shared function name *)
let test_compile_reply_counts () =
  with_server @@ fun _srv path ->
  let c = C.connect path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let compile src = ok_text "compile" (C.compile c src) in
  let a = "Function[{Typed[x, \"MachineInteger\"]}, x * 91 + 17]" in
  let b =
    "Function[{Typed[n, \"MachineInteger\"]}, \
     Module[{s = 0}, Do[s = s + i * 93, {i, n}]; s]]"
  in
  let a_miss = compile a in
  let b_miss = compile b in
  Alcotest.(check bool) "the two programs differ in size" true (a_miss <> b_miss);
  Alcotest.(check string) "cache hit replies with A's counts" a_miss (compile a)

(* ------------------------------------------------------------------ *)
(* Metrics-source idempotency across restarts                           *)

let count_samples name =
  List.length
    (List.filter
       (fun s -> s.Wolf_obs.Metrics.s_name = name)
       (Wolf_obs.Metrics.samples ()))

let test_metrics_reregistration () =
  (* register_source semantics: same name replaces, never duplicates or
     raises — the property wolfd restarts rely on *)
  let open Wolf_compiler in
  let cache1 : int Compile_cache.t = Compile_cache.create () in
  let cache2 : int Compile_cache.t = Compile_cache.create () in
  Compile_cache.register_metrics ~prefix:"serve_test_cc" cache1;
  Compile_cache.register_metrics ~prefix:"serve_test_cc" cache2;
  Compile_cache.add cache2 "k1" 1;
  Compile_cache.add cache2 "k2" 2;
  Alcotest.(check int) "one sample set, not two" 1
    (count_samples "serve_test_cc_entries");
  let entries =
    List.find_map
      (fun s ->
         if s.Wolf_obs.Metrics.s_name = "serve_test_cc_entries" then
           match s.Wolf_obs.Metrics.s_value with
           | Wolf_obs.Metrics.V_int v -> Some v
           | _ -> None
         else None)
      (Wolf_obs.Metrics.samples ())
  in
  Alcotest.(check (option int)) "newest registration wins" (Some 2) entries;
  (* two full daemon lifecycles in one process: the "serve" source must be
     replaced, not doubled, and must sample the live instance *)
  with_server (fun _srv _path -> ());
  with_server @@ fun _srv path ->
  let c = C.connect path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  (* a completed round-trip guarantees the accept loop has registered the
     session before we sample the gauge *)
  check_eval c "ping" "1" "1";
  Alcotest.(check int) "one serve_sessions sample" 1
    (count_samples "serve_sessions");
  (* the surviving sample must be wired to the LIVE daemon (one connected
     session), not to the stopped first instance (zero) *)
  let sessions =
    List.find_map
      (fun s ->
         if s.Wolf_obs.Metrics.s_name = "serve_sessions" then
           match s.Wolf_obs.Metrics.s_value with
           | Wolf_obs.Metrics.V_int v -> Some v
           | _ -> None
         else None)
      (Wolf_obs.Metrics.samples ())
  in
  Alcotest.(check (option int)) "gauge tracks the live daemon" (Some 1)
    sessions

(* ------------------------------------------------------------------ *)
(* Differential fuzzing through the daemon                              *)

let test_fuzz_serve_arm () =
  let report =
    Wolf_fuzz.Driver.run
      { Wolf_fuzz.Driver.default_config with
        Wolf_fuzz.Driver.seed = 2; count = 15;
        arms = Result.get_ok (Wolf_fuzz.Oracle.arms_of_string "serve") }
  in
  Alcotest.(check int) "programs checked" 15
    report.Wolf_fuzz.Driver.generated;
  Alcotest.(check int) "daemon agrees with in-process eval byte-for-byte" 0
    report.Wolf_fuzz.Driver.disagreements

(* ------------------------------------------------------------------ *)
(* dump-flight op: a manual flight dump over the wire                   *)

let test_dump_flight_op () =
  Wolf_obs.Flight.reset ();
  with_server @@ fun _ path ->
  let c = C.connect path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  check_eval c "warm the ring" "1 + 1" "2";
  let dump () =
    match C.dump_flight c with
    | { P.rsp = Ok (P.Json frame); _ } ->
      let j = Wolf_obs.Json_min.parse_exn frame in
      let data =
        match Wolf_obs.Json_min.member "data" j with
        | Some d -> d
        | None -> Alcotest.fail "dump-flight reply without data"
      in
      (* no --flight-dir on this daemon: the op still answers, with a null
         path and the ring population *)
      Alcotest.(check bool) "path is null" true
        (Wolf_obs.Json_min.member "path" data = Some Wolf_obs.Json_min.Null);
      (match
         Option.bind (Wolf_obs.Json_min.member "records" data)
           Wolf_obs.Json_min.num
       with
       | Some n -> int_of_float n
       | None -> Alcotest.fail "dump-flight reply without records")
    | { P.rsp = Ok (P.Text t); _ } ->
      Alcotest.failf "dump-flight answered text: %s" t
    | { P.rsp = Error (k, m); _ } ->
      Alcotest.failf "dump-flight failed (%s): %s" (P.error_kind_name k) m
  in
  (* the worker appends its flight record after sending the eval reply, so
     the ring may trail the response by a beat *)
  until ~what:"the eval to be recorded" (fun () -> dump () >= 1)

(* ------------------------------------------------------------------ *)
(* Tiered evaluation inside the daemon                                  *)

let test_tier_eval () =
  with_server ~tier:true ~tier_threshold:2 @@ fun _ path ->
  let c = C.connect path in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  let src =
    "Function[{Typed[n, \"MachineInteger\"]}, \
     Module[{s = 0}, Do[s = s + i, {i, 1, n}]; s]][100]"
  in
  (* drive the session's controller across its promotion threshold: every
     reply — interpreted, racing the background compile, and promoted —
     must be the same *)
  for i = 1 to 8 do
    check_eval c (Printf.sprintf "tiered eval %d" i) src "5050"
  done;
  (* non-literal and non-Function requests still take the plain path *)
  check_eval c "plain eval unaffected" "1 + 1" "2";
  check_eval c "symbolic args skip the tier" "Function[{x}, x + y][z]" "y + z"

let tests =
  [ Alcotest.test_case "protocol: codec round-trip + malformed" `Quick
      test_protocol_roundtrip;
    Alcotest.test_case "protocol: framing over a pipe" `Quick
      test_framing_pipe;
    Alcotest.test_case "daemon: malformed frame keeps connection" `Quick
      test_malformed_frame;
    Alcotest.test_case "daemon: oversize frame closes connection" `Quick
      test_oversize_frame;
    Alcotest.test_case "sessions: values and downvalues isolated" `Quick
      test_session_isolation;
    Alcotest.test_case "cancel: mid-eval abort, session survives" `Quick
      test_cancel_mid_eval;
    Alcotest.test_case "deadline: expired request is aborted" `Quick
      test_deadline;
    Alcotest.test_case "Abort[]: program abort is a result" `Quick
      test_program_abort;
    Alcotest.test_case "admission: overload refused immediately" `Quick
      test_overload;
    Alcotest.test_case "fault: client death reaps session + slot" `Quick
      test_client_death_reaps_session;
    Alcotest.test_case "fault: compile/parse errors, worker survives" `Quick
      test_compile_error_reply;
    Alcotest.test_case "concurrency: 4 clients, correct results" `Quick
      test_concurrent_clients;
    Alcotest.test_case "cache: shared across sessions" `Quick
      test_shared_compile_cache;
    Alcotest.test_case "cache: a hit replies with its own counts" `Quick
      test_compile_reply_counts;
    Alcotest.test_case "metrics: sources idempotent across restarts" `Quick
      test_metrics_reregistration;
    Alcotest.test_case "fuzz: serve arm, 0 disagreements" `Quick
      test_fuzz_serve_arm;
    Alcotest.test_case "dump-flight: manual dump op answers" `Quick
      test_dump_flight_op;
    Alcotest.test_case "tier: session promotion, stable replies" `Quick
      test_tier_eval ]
