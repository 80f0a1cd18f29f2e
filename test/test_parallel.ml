(* Multi-domain stress tests for the domain-safe core (DESIGN.md "Threading
   model").  Each test actually spawns domains — these are the regression
   tests for the shared-state races this layer fixed: torn symbol interning,
   fresh-serial collisions, compile-cache counter drift, lost cross-domain
   aborts, and abort-hook bleed between domains. *)

open Wolf_wexpr
open Wolf_compiler
module B = Wolf_backends

let parse = Parser.parse
let domains = 4

let spawn_all n f =
  let ds = Array.init n (fun i -> Domain.spawn (fun () -> f i)) in
  Array.map Domain.join ds

(* ------------------------------------------------------------------ *)
(* Symbol interning under contention                                    *)

let test_intern_stress () =
  (* every domain interns the same names; physical uniqueness must hold
     across all of them, which is what keeps Symbol.equal's [==] sound *)
  let names = Array.init 64 (Printf.sprintf "ParStress%d") in
  let per_domain =
    spawn_all domains (fun _ -> Array.map Symbol.intern names)
  in
  let reference = Array.map Symbol.intern names in
  Array.iteri
    (fun d syms ->
       Array.iteri
         (fun i s ->
            if not (s == reference.(i)) then
              Alcotest.failf "domain %d: %s interned to a distinct symbol" d
                names.(i))
         syms)
    per_domain;
  (* ids are distinct across distinct names (no torn id draw) *)
  let ids = Array.map Symbol.id reference in
  let module IS = Set.Make (Int) in
  Alcotest.(check int) "distinct ids" (Array.length ids)
    (IS.cardinal (IS.of_list (Array.to_list ids)))

let test_fresh_stress () =
  (* concurrent gensym: every symbol produced anywhere is distinct *)
  let per = 200 in
  let batches =
    spawn_all domains (fun _ ->
        Array.init per (fun _ -> Symbol.fresh "pargen"))
  in
  let all = Array.concat (Array.to_list batches) in
  let module SS = Set.Make (String) in
  let names = SS.of_list (Array.to_list (Array.map Symbol.name all)) in
  Alcotest.(check int) "all fresh names distinct" (domains * per)
    (SS.cardinal names);
  let module IS = Set.Make (Int) in
  let ids = IS.of_list (Array.to_list (Array.map Symbol.id all)) in
  Alcotest.(check int) "all fresh ids distinct" (domains * per)
    (IS.cardinal ids)

let test_fresh_collision_regression () =
  (* a pre-interned base$k name (e.g. from parsed source that spells a
     gensym-style identifier) must never be returned by [fresh]: the serial
     draw and the collision probe happen under one lock, atomically *)
  let base = "parcollide" in
  (* pre-take a band of serials ahead of the counter *)
  for k = 1 to 40 do
    ignore (Symbol.intern (Printf.sprintf "%s$%d" base k))
  done;
  let batches =
    spawn_all domains (fun _ -> Array.init 30 (fun _ -> Symbol.fresh base))
  in
  let all = Array.concat (Array.to_list batches) in
  let module SS = Set.Make (String) in
  let names = SS.of_list (Array.to_list (Array.map Symbol.name all)) in
  Alcotest.(check int) "no duplicate among fresh" (domains * 30)
    (SS.cardinal names);
  for k = 1 to 40 do
    let taken = Printf.sprintf "%s$%d" base k in
    if SS.mem taken names then
      Alcotest.failf "fresh returned pre-interned %s" taken
  done

(* ------------------------------------------------------------------ *)
(* Compile cache under contention                                       *)

let test_cache_churn () =
  (* 4 domains hammer a capacity-4 cache with 8 keys: counters must not
     drift (hits + misses = lookups exactly) and the LRU bound must hold *)
  let cache : int Compile_cache.t = Compile_cache.create ~capacity:4 () in
  let lookups_per_domain = 500 in
  ignore
    (spawn_all domains (fun d ->
         let rng = ref (d * 7919 + 13) in
         for _ = 1 to lookups_per_domain do
           (* splitmix-ish key choice, deterministic per domain *)
           rng := (!rng * 1103515245 + 12345) land 0x3FFFFFFF;
           let k = Printf.sprintf "key%d" (!rng mod 8) in
           let v =
             Compile_cache.find_or_compute cache k ~build:(fun () ->
                 String.length k)
           in
           if v <> String.length k then
             Alcotest.failf "wrong value %d for %s" v k
         done));
  let s = Compile_cache.stats cache in
  Alcotest.(check int) "lookups counted exactly" (domains * lookups_per_domain)
    s.Compile_cache.lookups;
  Alcotest.(check int) "hits + misses = lookups" s.Compile_cache.lookups
    (s.Compile_cache.hits + s.Compile_cache.misses);
  Alcotest.(check bool) "entries bounded by capacity" true
    (s.Compile_cache.entries <= 4);
  Alcotest.(check bool) "some hits happened" true (s.Compile_cache.hits > 0)

let test_cache_inflight_dedup () =
  (* all domains miss the same key at once; the slow build must run once *)
  let cache : int Compile_cache.t = Compile_cache.create ~capacity:4 () in
  let builds = Atomic.make 0 in
  let results =
    spawn_all domains (fun _ ->
        Compile_cache.find_or_compute cache "slow" ~build:(fun () ->
            Atomic.incr builds;
            Unix.sleepf 0.05;
            42))
  in
  Array.iter (fun v -> Alcotest.(check int) "value" 42 v) results;
  Alcotest.(check int) "one build for n concurrent misses" 1
    (Atomic.get builds);
  let s = Compile_cache.stats cache in
  Alcotest.(check int) "one miss, rest hits" 1 s.Compile_cache.misses;
  Alcotest.(check int) "hits + misses = lookups" s.Compile_cache.lookups
    (s.Compile_cache.hits + s.Compile_cache.misses)

(* ------------------------------------------------------------------ *)
(* Parallel compilation end to end                                      *)

let test_parallel_compiles () =
  (* distinct programs compile concurrently through the full pipeline and
     each result computes correctly afterwards *)
  Wolfram.init ();
  let mk i =
    Printf.sprintf
      {|Function[{Typed[n, "MachineInteger"]},
         Module[{s = 0, i = 0}, While[i < n, s = s + i + %d; i = i + 1]; s]]|}
      i
  in
  let compiled =
    spawn_all domains (fun i ->
        let c =
          Pipeline.compile ~name:(Printf.sprintf "par%d" i) (parse (mk i))
        in
        B.Native.compile c)
  in
  Array.iteri
    (fun i (f : Wolf_runtime.Rtval.closure) ->
       let expected = 45 + (10 * i) in  (* sum 0..9 + 10*i *)
       match f.Wolf_runtime.Rtval.call [| Wolf_runtime.Rtval.Int 10 |] with
       | Wolf_runtime.Rtval.Int v ->
         Alcotest.(check int) (Printf.sprintf "par%d result" i) expected v
       | v ->
         Alcotest.failf "par%d: unexpected %s" i
           (Wolf_runtime.Rtval.type_name v))
    compiled

(* ------------------------------------------------------------------ *)
(* Cross-domain abort                                                   *)

let test_cross_domain_abort () =
  (* Abort[] requested on the main domain must stop a compiled spin loop
     running on another domain within one poll stride — the atomic request
     flag is process-global *)
  Wolfram.init ();
  Wolf_base.Abort_signal.clear ();
  let c =
    Pipeline.compile ~name:"parspin"
      (parse
         {|Function[{Typed[n, "MachineInteger"]},
            Module[{i = 0}, While[i < n, i = i + 1]; i]]|})
  in
  let nat = B.Native.compile c in
  let started = Atomic.make false in
  let worker =
    Domain.spawn (fun () ->
        Atomic.set started true;
        match nat.Wolf_runtime.Rtval.call [| Wolf_runtime.Rtval.Int max_int |] with
        | exception Wolf_base.Abort_signal.Aborted -> `Aborted
        | _ -> `Finished)
  in
  while not (Atomic.get started) do Domain.cpu_relax () done;
  Unix.sleepf 0.02;  (* let it get deep into the loop *)
  Wolf_base.Abort_signal.request ();
  let outcome = Domain.join worker in
  Wolf_base.Abort_signal.clear ();
  Alcotest.(check bool) "spin loop aborted from another domain" true
    (outcome = `Aborted)

let test_abort_hooks_domain_local () =
  (* an injected abort scheduled on this domain must not fire on another
     domain's checks, and vice versa *)
  Wolfram.init ();
  Wolf_base.Abort_signal.clear ();
  let c =
    Pipeline.compile ~name:"parcount"
      (parse
         {|Function[{Typed[n, "MachineInteger"]},
            Module[{i = 0}, While[i < n, i = i + 1]; i]]|})
  in
  let nat = B.Native.compile c in
  let stride = Options.default.Options.abort_stride in
  (* schedule an abort on the MAIN domain, then run the loop elsewhere: the
     other domain polls many times but must complete untouched *)
  Wolf_base.Abort_signal.abort_after 1;
  let outcome =
    Domain.join
      (Domain.spawn (fun () ->
           match
             nat.Wolf_runtime.Rtval.call
               [| Wolf_runtime.Rtval.Int (10 * stride) |]
           with
           | Wolf_runtime.Rtval.Int v -> `Done v
           | _ -> `Other
           | exception Wolf_base.Abort_signal.Aborted -> `Aborted))
  in
  Alcotest.(check bool) "other domain unaffected by local injection" true
    (outcome = `Done (10 * stride));
  (* the pending injection still fires here, on the scheduling domain *)
  (match Wolf_base.Abort_signal.check () with
   | exception Wolf_base.Abort_signal.Aborted -> ()
   | () -> Alcotest.fail "local injected abort lost");
  Wolf_base.Abort_signal.clear ();
  (* and the poll counter is per-domain: a burst of checks on another domain
     leaves this domain's count alone *)
  Wolf_base.Abort_signal.reset_stats ();
  Wolf_base.Abort_signal.check ();
  Wolf_base.Abort_signal.check ();
  ignore
    (Domain.join
       (Domain.spawn (fun () ->
            Wolf_base.Abort_signal.reset_stats ();
            for _ = 1 to 100 do Wolf_base.Abort_signal.check () done;
            Wolf_base.Abort_signal.checks_performed ())));
  Alcotest.(check int) "poll counter is domain-local" 2
    (Wolf_base.Abort_signal.checks_performed ())

(* every hook that arms the abort state word gives its arm back: a leaked
   arm would silently put every compiled check back on the slow path *)
let test_abort_arming_scoped () =
  let module A = Wolf_base.Abort_signal in
  let unarmed what =
    Alcotest.(check bool) (what ^ ": unarmed") false (A.armed ())
  in
  A.clear ();
  unarmed "after clear";
  A.abort_after 1;
  Alcotest.(check bool) "abort_after arms" true (A.armed ());
  Alcotest.(check bool) "an arm is not a request" false (A.requested ());
  (match A.check () with
   | exception A.Aborted -> ()
   | () -> Alcotest.fail "scheduled abort did not fire");
  A.clear ();
  unarmed "fired abort_after, then clear";
  A.abort_after 1_000_000;
  A.check ();
  A.clear ();
  unarmed "unfired abort_after, then clear";
  A.reset_stats ();
  A.reset_stats ();
  A.clear ();
  unarmed "reset_stats twice, then clear";
  Domain.join (Domain.spawn (fun () -> A.reset_stats (); A.abort_after 5));
  unarmed "arms held by a domain that exited";
  Wolf_obs.Profile.set_enabled true;
  Wolf_obs.Profile.set_enabled true;
  Alcotest.(check bool) "profiling arms" true (A.armed ());
  Wolf_obs.Profile.set_enabled false;
  unarmed "profiling on twice, then off"

(* ------------------------------------------------------------------ *)
(* The pool itself                                                      *)

let test_pool_deterministic () =
  let f i = (i * 37) mod 101 in
  let seq = Wolf_parallel.Pool.map ~jobs:1 257 f in
  let par = Wolf_parallel.Pool.map ~jobs:domains 257 f in
  Alcotest.(check (array int)) "jobs=4 equals jobs=1" seq par

let test_pool_exception () =
  (* a failing task re-raises on the caller after all domains wind down *)
  match
    Wolf_parallel.Pool.map ~jobs:domains 100 (fun i ->
        if i = 57 then failwith "task 57" else i)
  with
  | _ -> Alcotest.fail "expected the task exception to propagate"
  | exception Failure m -> Alcotest.(check string) "first error" "task 57" m

let test_fuzz_jobs_deterministic () =
  (* the acceptance property at test scale: a sharded campaign returns the
     same report as a sequential one *)
  let cfg ~jobs =
    { Wolf_fuzz.Driver.default_config with
      Wolf_fuzz.Driver.seed = 11; count = 40; jobs }
  in
  let r1 = Wolf_fuzz.Driver.run (cfg ~jobs:1) in
  let r4 = Wolf_fuzz.Driver.run (cfg ~jobs:4) in
  Alcotest.(check int) "generated equal" r1.Wolf_fuzz.Driver.generated
    r4.Wolf_fuzz.Driver.generated;
  Alcotest.(check int) "disagreements equal" r1.Wolf_fuzz.Driver.disagreements
    r4.Wolf_fuzz.Driver.disagreements;
  Alcotest.(check int) "failure lists equal"
    (List.length r1.Wolf_fuzz.Driver.failures)
    (List.length r4.Wolf_fuzz.Driver.failures)

let tests =
  [ Alcotest.test_case "interning is physically unique across domains" `Quick
      test_intern_stress;
    Alcotest.test_case "fresh never duplicates under contention" `Quick
      test_fresh_stress;
    Alcotest.test_case "fresh skips pre-interned gensym-style names" `Quick
      test_fresh_collision_regression;
    Alcotest.test_case "cache counters exact under churn" `Quick
      test_cache_churn;
    Alcotest.test_case "concurrent misses build once" `Quick
      test_cache_inflight_dedup;
    Alcotest.test_case "full pipeline compiles in parallel" `Quick
      test_parallel_compiles;
    Alcotest.test_case "Abort[] crosses domains" `Quick
      test_cross_domain_abort;
    Alcotest.test_case "abort test hooks stay domain-local" `Quick
      test_abort_hooks_domain_local;
    Alcotest.test_case "abort arming is scoped" `Quick
      test_abort_arming_scoped;
    Alcotest.test_case "pool merge is deterministic" `Quick
      test_pool_deterministic;
    Alcotest.test_case "pool propagates task exceptions" `Quick
      test_pool_exception;
    Alcotest.test_case "fuzz --jobs reproduces --jobs 1" `Quick
      test_fuzz_jobs_deterministic ]
