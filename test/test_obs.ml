(* The observability layer (DESIGN.md "Observability"): trace emitter shape
   and balance, metrics exporters, the runtime profiler, the compile-cache
   metrics source, and the --timings totals invariant. *)

open Wolf_obs
open Wolf_compiler

let domains = 4

let spawn_all n f =
  let ds = Array.init n (fun i -> Domain.spawn (fun () -> f i)) in
  Array.map Domain.join ds

(* ------------------------------------------------------------------ *)
(* Json_min: the checker itself has to be trustworthy                   *)

let test_json_min () =
  let ok s = match Json_min.parse s with Ok v -> v | Error e -> Alcotest.failf "%S: %s" s e in
  let bad s =
    match Json_min.parse s with
    | Ok _ -> Alcotest.failf "%S: expected a parse error" s
    | Error _ -> ()
  in
  (match ok {|{"a":[1,2.5,-3e2],"b":"x\n\"y","c":[true,false,null]}|} with
   | Json_min.Obj fields ->
     Alcotest.(check int) "fields" 3 (List.length fields);
     (match List.assoc "a" fields with
      | Json_min.Arr [ Num a; Num b; Num c ] ->
        Alcotest.(check (float 1e-9)) "1" 1.0 a;
        Alcotest.(check (float 1e-9)) "2.5" 2.5 b;
        Alcotest.(check (float 1e-9)) "-3e2" (-300.0) c
      | _ -> Alcotest.fail "array shape");
     (match List.assoc "b" fields with
      | Json_min.Str s -> Alcotest.(check string) "escapes" "x\n\"y" s
      | _ -> Alcotest.fail "string shape")
   | _ -> Alcotest.fail "object shape");
  bad "{\"a\":1,}";
  bad "{\"a\":1} trailing";
  bad "\"unterminated";
  bad "{\"bad escape\":\"\\q\"}";
  bad "[1,2";
  (* the escaper round-trips through the parser (control characters are
     escaped to \uXXXX, which the parser validates but keeps literal) *)
  let nasty = "quote\" backslash\\ newline\n tab\t" in
  (match Json_min.parse ("\"" ^ Json_min.escape nasty ^ "\"") with
   | Ok (Json_min.Str s) -> Alcotest.(check string) "roundtrip" nasty s
   | _ -> Alcotest.fail "escape roundtrip");
  Alcotest.(check string) "control chars escape" "\\u0001" (Json_min.escape "\x01")

(* ------------------------------------------------------------------ *)
(* Trace emitter                                                        *)

let with_tracing f =
  Trace.reset ();
  Trace.enable ();
  Fun.protect ~finally:(fun () -> Trace.disable ()) f

let parsed_events () =
  let json = Json_min.parse_exn (Trace.to_json ()) in
  match Json_min.member "traceEvents" json with
  | Some evs -> Json_min.to_list evs
  | None -> Alcotest.fail "no traceEvents member"

let ev_str name ev = Option.bind (Json_min.member name ev) Json_min.str
let ev_num name ev = Option.bind (Json_min.member name ev) Json_min.num

(* per-tid begin/end balance; returns the set of tids seen *)
let check_balance events =
  let depths = Hashtbl.create 8 in
  List.iter
    (fun ev ->
       let tid =
         match ev_num "tid" ev with
         | Some t -> int_of_float t
         | None -> Alcotest.fail "event without tid"
       in
       let d = Option.value ~default:0 (Hashtbl.find_opt depths tid) in
       match ev_str "ph" ev with
       | Some "B" -> Hashtbl.replace depths tid (d + 1)
       | Some "E" ->
         if d = 0 then Alcotest.failf "tid %d: E below depth 0" tid;
         Hashtbl.replace depths tid (d - 1)
       | Some "i" -> ()
       | _ -> Alcotest.fail "event with unexpected ph")
    events;
  Hashtbl.iter
    (fun tid d -> if d <> 0 then Alcotest.failf "tid %d: %d unclosed" tid d)
    depths;
  Hashtbl.fold (fun tid _ acc -> tid :: acc) depths []

let test_trace_shape () =
  with_tracing (fun () ->
      Trace.with_span ~cat:"test" "outer"
        ~args:[ ("k", Trace.arg_str "v\"quoted\""); ("n", Trace.arg_int 7) ]
        (fun () -> Trace.with_span ~cat:"test" "inner" (fun () -> ()));
      Trace.instant ~cat:"test" "mark");
  let json = Json_min.parse_exn (Trace.to_json ()) in
  Alcotest.(check bool) "displayTimeUnit" true
    (Json_min.member "displayTimeUnit" json <> None);
  (match Json_min.member "otherData" json with
   | Some od -> Alcotest.(check bool) "dropped reported" true
                  (Json_min.member "dropped" od <> None)
   | None -> Alcotest.fail "no otherData");
  let events = parsed_events () in
  Alcotest.(check int) "2 B + 2 E + 1 i" 5 (List.length events);
  List.iter
    (fun ev ->
       List.iter
         (fun f ->
            if Json_min.member f ev = None then
              Alcotest.failf "event missing %s" f)
         [ "name"; "cat"; "ph"; "ts"; "pid"; "tid" ])
    events;
  ignore (check_balance events);
  (* timestamps are non-decreasing within the single-domain stream *)
  let ts = List.filter_map (ev_num "ts") events in
  Alcotest.(check int) "all ts present" 5 (List.length ts);
  ignore
    (List.fold_left
       (fun prev t ->
          if t < prev then Alcotest.fail "timestamps regress";
          t)
       neg_infinity ts);
  (* span args survive with their JSON encoding intact *)
  let outer = List.find (fun ev -> ev_str "name" ev = Some "outer") events in
  match Json_min.member "args" outer with
  | Some args ->
    Alcotest.(check (option string)) "string arg" (Some "v\"quoted\"")
      (Option.bind (Json_min.member "k" args) Json_min.str);
    Alcotest.(check (option (float 1e-9))) "int arg" (Some 7.0)
      (Option.bind (Json_min.member "n" args) Json_min.num)
  | None -> Alcotest.fail "outer span lost its args"

let test_trace_exception_balance () =
  with_tracing (fun () ->
      (try
         Trace.with_span "a" (fun () ->
             Trace.with_span "b" (fun () -> failwith "boom"))
       with Failure _ -> ());
      (* the recorder must still be usable and balanced after the raise *)
      Trace.with_span "c" (fun () -> ()));
  let events = parsed_events () in
  Alcotest.(check int) "3 spans = 6 events" 6 (List.length events);
  ignore (check_balance events)

let test_trace_multidomain () =
  with_tracing (fun () ->
      ignore
        (spawn_all domains (fun d ->
             for i = 1 to 500 do
               Trace.with_span ~cat:"stress" "outer"
                 ~args:[ ("domain", Trace.arg_int d) ]
                 (fun () ->
                    Trace.with_span ~cat:"stress" "mid" (fun () ->
                        if i mod 7 = 0 then Trace.instant "tick"))
             done)));
  let events = parsed_events () in
  let tids = check_balance events in
  Alcotest.(check bool)
    (Printf.sprintf "at least %d tracks (got %d)" domains (List.length tids))
    true
    (List.length tids >= domains);
  (* nothing was dropped at the default capacity, so the count is exact:
     500 outer + 500 mid pairs per domain plus the sevenths *)
  let expected = domains * ((500 * 4) + (500 / 7)) in
  Alcotest.(check int) "event count" expected (List.length events)

let test_trace_bounded () =
  let prev_dropped = ref 0 in
  Trace.set_capacity 64;
  Fun.protect ~finally:(fun () -> Trace.set_capacity (1 lsl 19)) (fun () ->
      with_tracing (fun () ->
          for _ = 1 to 1000 do
            Trace.with_span "spam" (fun () ->
                Trace.with_span "nested" (fun () -> Trace.instant "i"))
          done;
          prev_dropped := Trace.dropped ()));
  let events = parsed_events () in
  Alcotest.(check bool) "buffer bounded" true (List.length events <= 64);
  Alcotest.(check bool) "drops counted" true (!prev_dropped > 0);
  (* the whole point of the reservation discipline: a full buffer still
     yields a balanced stream *)
  ignore (check_balance events)

(* ------------------------------------------------------------------ *)
(* Metrics registry and exporters                                       *)

let sample_named name labels =
  List.find_opt
    (fun s ->
       s.Metrics.s_name = name
       && List.sort compare s.Metrics.s_labels = List.sort compare labels)
    (Metrics.samples ())

let test_metrics_registry () =
  Metrics.reset ();
  let c = Metrics.counter ~help:"a counter" "obs_test_events" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  (* get-or-create: same identity returns the same instrument *)
  Metrics.incr (Metrics.counter "obs_test_events");
  Alcotest.(check int) "shared instrument" 6 (Metrics.counter_value c);
  let g = Metrics.gauge ~labels:[ ("shard", "a") ] "obs_test_depth" in
  Metrics.set_gauge g 2.5;
  Metrics.add_gauge g 0.5;
  Alcotest.(check (float 1e-9)) "gauge" 3.0 (Metrics.gauge_value g);
  let h = Metrics.histogram ~bounds:[| 0.1; 1.0 |] "obs_test_lat" in
  Metrics.observe h 0.05;
  Metrics.observe h 0.5;
  Metrics.observe h 5.0;
  match sample_named "obs_test_lat" [] with
  | Some { Metrics.s_value = Metrics.V_histogram (buckets, sum, count); _ } ->
    (* [count] covers the implicit +Inf bucket, so the 5.0 observation
       shows up there and not in any finite bucket *)
    Alcotest.(check int) "count" 3 count;
    Alcotest.(check (float 1e-9)) "sum" 5.55 sum;
    (* finite buckets are cumulative *)
    Alcotest.(check (list int)) "buckets" [ 1; 2 ] (List.map snd buckets)
  | _ -> Alcotest.fail "histogram sample missing or wrong kind"

let test_metrics_exporters () =
  Metrics.reset ();
  Metrics.incr (Metrics.counter ~help:"evil \"help\"" "obs_exp_total_things");
  Metrics.set_gauge (Metrics.gauge ~labels:[ ("k", "v") ] "obs_exp_depth") 1.5;
  Metrics.observe (Metrics.histogram ~bounds:[| 1.0 |] "obs_exp_lat") 0.5;
  (* a pull-time source appears in both exporters without pre-registration *)
  Metrics.register_source "obs_exp_source" (fun () ->
      [ { Metrics.s_name = "obs_exp_pulled"; s_labels = []; s_help = "";
          s_kind = Metrics.Gauge; s_value = Metrics.V_int 42 } ]);
  let json = Json_min.parse_exn (Metrics.to_json ()) in
  let metrics =
    match Json_min.member "metrics" json with
    | Some m -> Json_min.to_list m
    | None -> Alcotest.fail "no metrics member"
  in
  let names = List.filter_map (ev_str "name") metrics in
  List.iter
    (fun n ->
       if not (List.mem n names) then Alcotest.failf "missing %s in JSON" n)
    [ "obs_exp_total_things"; "obs_exp_depth"; "obs_exp_lat"; "obs_exp_pulled" ];
  let prom = Metrics.to_prometheus () in
  let has needle =
    let nl = String.length needle and pl = String.length prom in
    let rec go i = i + nl <= pl && (String.sub prom i nl = needle || go (i + 1)) in
    if not (go 0) then Alcotest.failf "prometheus output lacks %S" needle
  in
  has "obs_exp_total_things_total 1";
  has "obs_exp_depth{k=\"v\"} 1.5";
  has "obs_exp_lat_bucket{le=\"1\"} 1";
  has "obs_exp_lat_bucket{le=\"+Inf\"} 1";
  has "obs_exp_lat_count 1";
  has "obs_exp_pulled 42";
  has "# TYPE obs_exp_total_things_total counter"

(* ------------------------------------------------------------------ *)
(* Runtime profiler                                                     *)

let spin seconds =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    ignore (Sys.opaque_identity (sqrt 2.0))
  done

let test_profile_self_time () =
  Profile.reset ();
  Profile.set_enabled true;
  Fun.protect ~finally:(fun () -> Profile.set_enabled false) (fun () ->
      let inner = Profile.wrap_fn "obs_inner" (fun () -> spin 0.02) in
      let outer =
        Profile.wrap_fn "obs_outer" (fun () -> spin 0.01; inner (); inner ())
      in
      outer ();
      Profile.note_abort_poll ();
      Profile.note_abort_poll ();
      Profile.note_kernel_escape ());
  let stat name =
    match List.find_opt (fun s -> s.Profile.pf_name = name) (Profile.stats ()) with
    | Some s -> s
    | None -> Alcotest.failf "no profile row for %s" name
  in
  let outer = stat "obs_outer" and inner = stat "obs_inner" in
  Alcotest.(check int) "outer calls" 1 outer.Profile.pf_calls;
  Alcotest.(check int) "inner calls" 2 inner.Profile.pf_calls;
  (* self excludes profiled callees: outer spent ~10ms itself but ~50ms
     total; generous bounds keep this robust on loaded machines *)
  Alcotest.(check bool) "outer total >= self + inner" true
    (outer.Profile.pf_total >= outer.Profile.pf_self +. inner.Profile.pf_total -. 0.005);
  Alcotest.(check bool) "outer self well below total" true
    (outer.Profile.pf_self < outer.Profile.pf_total -. 0.02);
  Alcotest.(check bool) "inner self ~= inner total" true
    (abs_float (inner.Profile.pf_self -. inner.Profile.pf_total) < 0.005);
  Alcotest.(check int) "abort polls" 2 (Profile.abort_polls ());
  Alcotest.(check int) "kernel escapes" 1 (Profile.kernel_escapes ());
  (* the JSON report parses and carries the table *)
  let json = Json_min.parse_exn (Profile.to_json ()) in
  Alcotest.(check bool) "functions member" true
    (Json_min.member "functions" json <> None)

let test_profile_disabled_is_free () =
  Profile.reset ();
  (* wrapping with profiling off must not record anything *)
  let f = Profile.wrap_fn "obs_off" (fun x -> x + 1) in
  for _ = 1 to 100 do ignore (f 1) done;
  Alcotest.(check bool) "no row recorded" true
    (List.for_all (fun s -> s.Profile.pf_calls = 0) (Profile.stats ()))

(* profiled end-to-end through the facade: Options.profile reaches the
   backend wrapper and distinguishes the cache key *)
let test_profile_via_compile () =
  Profile.reset ();
  let src = "Function[{Typed[n, \"Integer64\"]}, Module[{s = 0}, Do[s = s + i, {i, n}]; s]]" in
  let options = { Options.default with Options.profile = true } in
  let cf = Wolfram.function_compile ~options ~name:"ObsProfiled" (Wolf_wexpr.Parser.parse src) in
  Profile.set_enabled true;
  Fun.protect ~finally:(fun () -> Profile.set_enabled false) (fun () ->
      ignore (Wolfram.call cf [ Wolf_wexpr.Expr.Int 1000 ]));
  Alcotest.(check bool) "profiled function recorded" true
    (List.exists
       (fun s -> s.Profile.pf_calls > 0)
       (Profile.stats ()));
  (* same source without profile must be a different cache key: its closure
     is uninstrumented *)
  let plain = Wolfram.function_compile ~name:"ObsProfiled" (Wolf_wexpr.Parser.parse src) in
  Profile.reset ();
  Profile.set_enabled true;
  Fun.protect ~finally:(fun () -> Profile.set_enabled false) (fun () ->
      ignore (Wolfram.call plain [ Wolf_wexpr.Expr.Int 1000 ]));
  Alcotest.(check bool) "unprofiled compile stays unprofiled" true
    (List.for_all (fun s -> s.Profile.pf_calls = 0) (Profile.stats ()))

(* runtime_abort_polls counts abort checks made by compiled code only: the
   interpreter's per-step poll (here inside a kernel escape from code
   compiled without checks) is not one of them, and with checks on each
   call makes exactly its one prologue check *)
let test_profile_abort_polls_compiled_only () =
  let profiled_polls ~abort_handling src arg repeat =
    let options =
      { Options.default with Options.profile = true; abort_handling }
    in
    let cf = Wolfram.function_compile ~options (Wolf_wexpr.Parser.parse src) in
    Profile.reset ();
    Profile.set_enabled true;
    Fun.protect ~finally:(fun () -> Profile.set_enabled false) (fun () ->
        for _ = 1 to repeat do
          ignore (Wolfram.call cf [ Wolf_wexpr.Expr.Int arg ])
        done);
    Profile.abort_polls ()
  in
  Alcotest.(check int) "interpreter steps are not compiled-code polls" 0
    (profiled_polls ~abort_handling:false
       {|Function[{Typed[x, "MachineInteger"]},
          KernelFunction[Function[{y}, Total[Table[i^2, {i, y}]]]][x]]|}
       500 1);
  Alcotest.(check int) "one prologue poll per call" 10
    (profiled_polls ~abort_handling:true
       {|Function[{Typed[x, "MachineInteger"]}, x + 1]|} 5 10)

(* ------------------------------------------------------------------ *)
(* Compile-cache metrics source                                         *)

let test_cache_metrics () =
  Metrics.reset ();
  let cache = Compile_cache.create ~capacity:2 ~weigh:String.length () in
  Compile_cache.register_metrics ~prefix:"obs_cache" cache;
  ignore (Compile_cache.find_or_compute cache "a" ~build:(fun () -> "aaaa"));
  ignore (Compile_cache.find_or_compute cache "a" ~build:(fun () -> assert false));
  ignore (Compile_cache.find_or_compute cache "b" ~build:(fun () -> "bb"));
  ignore (Compile_cache.find_or_compute cache "c" ~build:(fun () -> "cccccc"));
  let s = Compile_cache.stats cache in
  Alcotest.(check int) "lookups = hits + misses" s.Compile_cache.lookups
    (s.Compile_cache.hits + s.Compile_cache.misses);
  Alcotest.(check int) "evicted one" 1 s.Compile_cache.evictions;
  Alcotest.(check int) "two resident" 2 s.Compile_cache.entries;
  (* "a" (4 bytes) was evicted as LRU; "bb" + "cccccc" remain *)
  Alcotest.(check int) "byte occupancy tracks weights" 8 s.Compile_cache.bytes;
  let v name =
    match sample_named name [] with
    | Some { Metrics.s_value = Metrics.V_int v; _ } -> v
    | _ -> Alcotest.failf "no int sample %s" name
  in
  Alcotest.(check int) "source lookups" 4 (v "obs_cache_lookups");
  Alcotest.(check int) "source hits" 1 (v "obs_cache_hits");
  Alcotest.(check int) "source misses" 3 (v "obs_cache_misses");
  Alcotest.(check int) "source evictions" 1 (v "obs_cache_evictions");
  Alcotest.(check int) "source entries" 2 (v "obs_cache_entries");
  Alcotest.(check int) "source bytes" 8 (v "obs_cache_bytes")

let test_cache_waits_counted () =
  let cache = Compile_cache.create ~capacity:8 () in
  (* only one domain runs the build; it holds the in-flight slot until every
     domain has at least started its lookup, then a beat longer so the rest
     are parked on the condvar *)
  let started = Atomic.make 0 in
  let slow_build () =
    while Atomic.get started < domains do Domain.cpu_relax () done;
    Unix.sleepf 0.05;
    "value"
  in
  let results =
    spawn_all domains (fun _ ->
        Atomic.incr started;
        Compile_cache.find_or_compute cache "k" ~build:(fun () -> slow_build ()))
  in
  Array.iter (fun r -> Alcotest.(check string) "shared result" "value" r) results;
  let s = Compile_cache.stats cache in
  Alcotest.(check int) "one compile" 1 s.Compile_cache.misses;
  Alcotest.(check int) "rest are hits" (domains - 1) s.Compile_cache.hits;
  Alcotest.(check int) "invariant holds" s.Compile_cache.lookups
    (s.Compile_cache.hits + s.Compile_cache.misses);
  Alcotest.(check bool) "waits annotated" true (s.Compile_cache.waits >= 1)

(* ------------------------------------------------------------------ *)
(* Prometheus escaping: label values and HELP text must survive        *)

let prom_has prom needle =
  let nl = String.length needle and pl = String.length prom in
  let rec go i = i + nl <= pl && (String.sub prom i nl = needle || go (i + 1)) in
  go 0

let test_prom_escaping () =
  Metrics.reset ();
  (* quotes, backslashes and newlines are exactly the three characters the
     exposition format escapes in label values; a bare %S would emit OCaml
     decimal escapes Prometheus rejects *)
  Metrics.incr
    (Metrics.counter ~labels:[ ("expr", "f[\"x\\n\"]\nline2\\end") ]
       "obs_esc_events");
  Metrics.set_gauge
    (Metrics.gauge ~help:"help with \\ backslash\nand newline" "obs_esc_depth")
    1.0;
  let prom = Metrics.to_prometheus () in
  Alcotest.(check bool) "label value escaped" true
    (prom_has prom
       "obs_esc_events_total{expr=\"f[\\\"x\\\\n\\\"]\\nline2\\\\end\"} 1");
  Alcotest.(check bool) "no decimal escapes" false (prom_has prom "\\010");
  (* HELP escapes backslash + newline but NOT quotes *)
  Alcotest.(check bool) "help escaped" true
    (prom_has prom "# HELP obs_esc_depth help with \\\\ backslash\\nand newline");
  (* every emitted line is a comment or has the sample shape — i.e. the
     newline inside the label value did not split a sample in two *)
  List.iter
    (fun line ->
       if line <> "" && line.[0] <> '#' then
         Alcotest.(check bool)
           (Printf.sprintf "sample line has a value: %S" line) true
           (String.contains line ' '
            && (not (String.contains line '{')
                || String.contains line '}')))
    (String.split_on_char '\n' prom);
  (* the JSON exporter handles the same values via Json_min.escape *)
  ignore (Json_min.parse_exn (Metrics.to_json ()))

(* ------------------------------------------------------------------ *)
(* Histogram quantiles (the stats-op latency section is built on this)  *)

let test_histogram_quantile () =
  Metrics.reset ();
  let bounds = [| 0.001; 0.01; 0.1; 1.0 |] in
  let h = Metrics.histogram ~bounds ~labels:[ ("op", "a") ] "obs_q_lat" in
  Alcotest.(check (float 1e-9)) "empty histogram" 0.0 (Metrics.quantile h 0.5);
  (* 90 observations in (0.001, 0.01], 10 in (0.1, 1.0] *)
  for _ = 1 to 90 do Metrics.observe h 0.005 done;
  for _ = 1 to 10 do Metrics.observe h 0.5 done;
  let p50 = Metrics.quantile h 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 inside its bucket (%g)" p50) true
    (p50 > 0.001 && p50 <= 0.01);
  let p99 = Metrics.quantile h 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "p99 in the slow bucket (%g)" p99) true
    (p99 > 0.1 && p99 <= 1.0);
  (* beyond the last finite bound: clamped, not infinite *)
  let h2 = Metrics.histogram ~bounds ~labels:[ ("op", "b") ] "obs_q_lat" in
  Metrics.observe h2 50.0;
  Alcotest.(check (float 1e-9)) "overflow clamps to last bound" 1.0
    (Metrics.quantile h2 0.99);
  (* merging the family behaves like one series with the union of counts *)
  let merged = Metrics.quantile_sum [ h; h2 ] 0.5 in
  Alcotest.(check bool) "merged p50 still in the fast bucket" true
    (merged > 0.001 && merged <= 0.01);
  Alcotest.(check bool) "find_histogram finds the labelled series" true
    (Metrics.find_histogram ~labels:[ ("op", "a") ] "obs_q_lat" = Some h);
  Alcotest.(check bool) "find_histogram misses unknown labels" true
    (Metrics.find_histogram ~labels:[ ("op", "zz") ] "obs_q_lat" = None)

(* ------------------------------------------------------------------ *)
(* Flow events: the cross-domain stitch used by request tracing         *)

let test_trace_flow () =
  with_tracing (fun () ->
      let id = Trace.new_flow_id () in
      Trace.with_span ~cat:"test" "producer" (fun () ->
          Trace.flow_start ~id ~cat:"test" "hop");
      Trace.with_span ~cat:"test" "consumer" (fun () ->
          Trace.flow_finish ~id ~cat:"test" "hop"));
  let events = parsed_events () in
  let flow ph =
    match
      List.find_opt (fun ev -> ev_str "ph" ev = Some ph) events
    with
    | Some ev -> ev
    | None -> Alcotest.failf "no %s event" ph
  in
  let s = flow "s" and f = flow "f" in
  Alcotest.(check (option string)) "names match" (ev_str "name" s) (ev_str "name" f);
  (match ev_num "id" s, ev_num "id" f with
   | Some a, Some b -> Alcotest.(check (float 0.0)) "ids match" a b
   | _ -> Alcotest.fail "flow event without id");
  (* binding point "enclosing slice" is what makes the arrow attach to the
     consumer span rather than to the next slice to start *)
  Alcotest.(check (option string)) "f carries bp=e" (Some "e")
    (Option.bind (Json_min.member "bp" f) Json_min.str);
  Alcotest.(check bool) "s has no bp" true (Json_min.member "bp" s = None);
  (* distinct ids from the allocator *)
  Alcotest.(check bool) "allocator advances" true
    (Trace.new_flow_id () <> Trace.new_flow_id ())

(* ------------------------------------------------------------------ *)
(* Flight recorder: codec, rings, triggers                              *)

let flight_record ?(rid = 1) ?(sid = 2) ?(outcome = "ok") ?(total_ns = 5_000_000)
    () =
  { Flight.fr_rid = rid; fr_sid = sid;
    fr_label = Printf.sprintf "s%d.r%d" sid rid;
    fr_op = "eval"; fr_outcome = outcome;
    fr_start_ns = 1_000_000; fr_total_ns = total_ns;
    fr_phases =
      [ { Flight.ph_name = "decode"; ph_domain = 0; ph_start_ns = 1_000_000;
          ph_dur_ns = 10_000 };
        { Flight.ph_name = "eval"; ph_domain = 1; ph_start_ns = 1_020_000;
          ph_dur_ns = total_ns - 20_000 } ] }

let test_flight_codec () =
  let r = flight_record ~rid:42 ~outcome:"deadline" () in
  let enc = Flight.encode_record r in
  let pos = ref 0 in
  let d = Flight.decode_record enc pos in
  Alcotest.(check int) "whole string consumed" (String.length enc) !pos;
  Alcotest.(check bool) "roundtrip" true (d = r);
  (* truncation is detected, not misread *)
  (try
     ignore (Flight.decode_record (String.sub enc 0 (String.length enc - 3))
               (ref 0));
     Alcotest.fail "truncated record decoded"
   with _ -> ());
  (* a file of garbage is an error, not an exception *)
  let tmp = Filename.temp_file "wolf_flight" ".wfr" in
  Fun.protect ~finally:(fun () -> Sys.remove tmp) (fun () ->
      let oc = open_out_bin tmp in
      output_string oc "not a flight file at all";
      close_out oc;
      match Flight.read_file tmp with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage accepted")

let test_flight_ring_and_triggers () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wolf_flight_test_%d" (Unix.getpid ()))
  in
  Flight.reset ();
  Flight.set_dir (Some dir);
  Flight.set_threshold_ms 100.0;
  Flight.set_suppress_window_ms 10_000.0;
  Fun.protect
    ~finally:(fun () ->
      Flight.set_dir None;
      Flight.set_threshold_ms 0.0;
      Flight.set_suppress_window_ms 100.0;
      Flight.reset ();
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
  @@ fun () ->
  (* healthy requests accumulate without dumping *)
  for i = 1 to 5 do
    match Flight.record (flight_record ~rid:i ()) with
    | None -> ()
    | Some p -> Alcotest.failf "ok record dumped to %s" p
  done;
  Alcotest.(check int) "snapshot holds them" 5
    (List.length (Flight.snapshot ()));
  (* a deadline outcome triggers a dump carrying the ring *)
  let path =
    match Flight.record (flight_record ~rid:6 ~outcome:"deadline" ()) with
    | Some p -> p
    | None -> Alcotest.fail "deadline record did not dump"
  in
  (match Flight.read_file path with
   | Error e -> Alcotest.failf "dump unreadable: %s" e
   | Ok d ->
     Alcotest.(check string) "reason" "deadline" d.Flight.d_reason;
     (match d.Flight.d_trigger with
      | Some t -> Alcotest.(check int) "trigger is the offender" 6 t.Flight.fr_rid
      | None -> Alcotest.fail "dump without trigger");
     Alcotest.(check int) "all six records present" 6
       (List.length d.Flight.d_records);
     (* the pretty-printer renders every record with its phases *)
     let text = Flight.describe d in
     Alcotest.(check bool) "describe mentions the trigger" true
       (prom_has text "s2.r6");
     Alcotest.(check bool) "describe shows phase domains" true
       (prom_has text "dom1"));
  (* inside the suppression window a second trigger only counts *)
  (match Flight.record (flight_record ~rid:7 ~outcome:"cancelled" ()) with
   | None -> ()
   | Some p -> Alcotest.failf "suppression window ignored (%s)" p);
  (* slow-but-ok requests trigger via the latency threshold (window keeps
     this one suppressed too — the counter proves the trigger fired) *)
  ignore (Flight.record (flight_record ~rid:8 ~total_ns:250_000_000 ()));
  let records, dumps, suppressed = Flight.stats () in
  Alcotest.(check int) "records counted" 8 records;
  Alcotest.(check int) "one dump written" 1 dumps;
  Alcotest.(check int) "two suppressed" 2 suppressed;
  (* ring capacity bounds memory: old records fall off *)
  Flight.reset ();
  for i = 1 to 1000 do ignore (Flight.record (flight_record ~rid:i ())) done;
  let snap = Flight.snapshot () in
  Alcotest.(check bool)
    (Printf.sprintf "ring bounded (%d)" (List.length snap)) true
    (List.length snap <= 256);
  (* and it keeps the newest, not the oldest *)
  Alcotest.(check bool) "newest survive" true
    (List.exists (fun r -> r.Flight.fr_rid = 1000) snap)

(* ------------------------------------------------------------------ *)
(* --timings totals: each second reported exactly once (satellite 1)    *)

let test_pass_totals () =
  let src = "Function[{Typed[n, \"Integer64\"]}, Module[{s = 0}, Do[s = s + i*i, {i, n}]; s]]" in
  let options = { Options.default with Options.use_cache = false } in
  let c = Pipeline.compile ~options ~name:"ObsTotals" (Wolf_wexpr.Parser.parse src) in
  let stats = c.Pipeline.stats in
  let t = Pass_manager.totals stats in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 stats in
  (* the footer is the fold of the rows — pass and verify columns sum to
     the totals with nothing counted twice and nothing dropped *)
  Alcotest.(check (float 1e-12)) "pass total = column sum"
    (sum (fun s -> s.Pass_manager.st_time)) t.Pass_manager.tot_pass;
  Alcotest.(check (float 1e-12)) "verify total = column sum"
    (sum (fun s -> s.Pass_manager.st_verify)) t.Pass_manager.tot_verify;
  Alcotest.(check bool) "verifier actually ran" true (t.Pass_manager.tot_verify > 0.0);
  Alcotest.(check bool) "passes actually ran" true (t.Pass_manager.tot_pass > 0.0);
  (* checkpoint-only stages (verified but never run as a pass) appear as
     zero-run rows so their verify time is attributed, not lost *)
  Alcotest.(check bool) "lower checkpoint row present" true
    (List.exists
       (fun s -> s.Pass_manager.st_pass = "lower" && s.Pass_manager.st_runs = 0
                 && s.Pass_manager.st_verify > 0.0)
       stats);
  (* the rendered report carries exactly one total row and one verifier
     line, formatted from the same fold *)
  let report = Pass_manager.stats_to_string stats in
  let count_sub needle =
    let nl = String.length needle and pl = String.length report in
    let n = ref 0 in
    for i = 0 to pl - nl do
      if String.sub report i nl = needle then incr n
    done;
    !n
  in
  Alcotest.(check int) "one total row" 1 (count_sub "\ntotal");
  Alcotest.(check int) "one verifier line" 1 (count_sub "verifier total:");
  let expect = Printf.sprintf "%.3f" (t.Pass_manager.tot_pass *. 1e3) in
  Alcotest.(check bool) "footer prints the fold" true (count_sub expect >= 1)

(* The bench record shape: what Metrics.write_record writes passes the
   obs-check shape check, so does every checked-in BENCH_*.json, and the two
   malformed records in obs_check/ are rejected. *)
let test_bench_records () =
  let check_file path =
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let json = Json_min.parse_exn text in
    match Json_min.member "metrics" json with
    | Some (Json_min.Obj _ as m) -> (json, Metrics.check_metrics m)
    | _ -> (json, Error "no top-level metrics object")
  in
  let tmp = Filename.temp_file "bench_record" ".json" in
  Metrics.write_record tmp ~record:"unit" ~command:"test" ~info:[ ("k", "v\"q") ]
    [ ("a.hand_s", 1.5e-4, "s"); ("a.vs_hand", 2.0, "ratio") ];
  let json, result = check_file tmp in
  Sys.remove tmp;
  Alcotest.(check (result string string)) "written record" (Ok "record, 2 metrics")
    result;
  Alcotest.(check (option string)) "record name" (Some "unit")
    (Option.bind (Json_min.member "record" json) Json_min.str);
  Alcotest.(check (option string)) "info value" (Some "v\"q")
    (Option.bind (Json_min.member "info" json) (fun i ->
         Option.bind (Json_min.member "k" i) Json_min.str));
  let records =
    Sys.readdir ".." |> Array.to_list
    |> List.filter (fun f ->
        String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
  in
  Alcotest.(check bool) "checked-in records found" true (List.length records >= 8);
  List.iter
    (fun f ->
       match snd (check_file (Filename.concat ".." f)) with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "%s: %s" f e)
    records;
  List.iter
    (fun f ->
       match snd (check_file (Filename.concat "obs_check" f)) with
       | Ok s -> Alcotest.failf "%s accepted (%s)" f s
       | Error _ -> ())
    [ "empty_metrics.json"; "metric_without_unit.json" ]

let tests =
  [ Alcotest.test_case "json_min parses what we emit (and rejects junk)" `Quick test_json_min;
    Alcotest.test_case "trace: chrome shape, args, ordering" `Quick test_trace_shape;
    Alcotest.test_case "trace: balanced under exceptions" `Quick test_trace_exception_balance;
    Alcotest.test_case "trace: 4-domain stress, distinct tracks" `Quick test_trace_multidomain;
    Alcotest.test_case "trace: bounded buffer stays balanced" `Quick test_trace_bounded;
    Alcotest.test_case "trace: flow events carry ids and bind enclosing" `Quick test_trace_flow;
    Alcotest.test_case "metrics: counters, gauges, histograms" `Quick test_metrics_registry;
    Alcotest.test_case "metrics: JSON + prometheus exporters" `Quick test_metrics_exporters;
    Alcotest.test_case "metrics: bench records pass the obs-check shape check" `Quick
      test_bench_records;
    Alcotest.test_case "metrics: prometheus escaping of labels and help" `Quick test_prom_escaping;
    Alcotest.test_case "metrics: histogram quantiles incl. merge + clamp" `Quick test_histogram_quantile;
    Alcotest.test_case "flight: binary codec roundtrips, rejects junk" `Quick test_flight_codec;
    Alcotest.test_case "flight: rings, triggers, suppression, bounds" `Quick test_flight_ring_and_triggers;
    Alcotest.test_case "profile: self vs total time" `Quick test_profile_self_time;
    Alcotest.test_case "profile: disabled wrapper records nothing" `Quick test_profile_disabled_is_free;
    Alcotest.test_case "profile: end-to-end via Options.profile" `Quick test_profile_via_compile;
    Alcotest.test_case "profile: abort polls count compiled code only" `Quick
      test_profile_abort_polls_compiled_only;
    Alcotest.test_case "cache: metrics source incl. eviction + bytes" `Quick test_cache_metrics;
    Alcotest.test_case "cache: in-flight waits annotate, not skew" `Quick test_cache_waits_counted;
    Alcotest.test_case "timings: totals are the fold of the rows" `Quick test_pass_totals ]
