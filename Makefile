.PHONY: all build test check bench bench-smoke bench-json bench-serve-json bench-tier-json bench-parloop-json bench-build-json smoke fuzz-smoke par-smoke par-loop-smoke obs-smoke serve-smoke tier-smoke build-smoke fuzz clean

# every target that runs these depends on build, so they are up to date
WOLFC := ./_build/default/bin/wolfc.exe
BENCHEXE := ./_build/default/bench/main.exe

# the sum-of-squares program the smoke targets run, tier and build, and
# the table program build-smoke ships
SUM_SRC := Function[{Typed[n, "Integer64"]}, Module[{s = 0}, Do[s = s + i*i, {i, n}]; s]]
TAB_SRC := Function[{Typed[n, "Integer64"]}, Module[{a = ConstantArray[0, n]}, Do[a[[i]] = i*i, {i, n}]; a]]

all: build

build:
	dune build

test: build
	dune runtest

# check = what CI runs: full build, the whole test suite (including the
# differential corpus and the multi-domain stress tests), a fixed-seed
# differential fuzzing smoke campaign with the IR verifier after every
# pass, the same campaign sharded over 4 domains (must report identical
# tallies), then a quick benchmark smoke run exercising the instrumented
# pipeline and the compile cache, and a quick fig2 pass.
check: build
	dune runtest
	$(MAKE) fuzz-smoke
	$(MAKE) par-smoke
	$(MAKE) par-loop-smoke
	$(MAKE) obs-smoke
	$(MAKE) serve-smoke
	$(MAKE) tier-smoke
	$(MAKE) build-smoke
	$(BENCHEXE) smoke
	$(MAKE) bench-smoke

bench: build
	$(BENCHEXE) all

# fast fig2 arm; exercises every measured configuration without touching
# the checked-in BENCH_fig2.json (regenerate that with `make bench-json`)
bench-smoke: build
	$(BENCHEXE) fig2 --quick

# full-size fig2 run refreshing the machine-readable record
bench-json: build
	$(BENCHEXE) fig2 --json

smoke: build
	$(BENCHEXE) smoke

# fixed-seed differential fuzzing campaign: 200 generated programs run on
# threaded + WVM at O0/O1/O2 against the interpreter, with the full IR
# verifier after every pass (failing if the mutability pass put no loop
# store in place, a drift guard), then 100 more through the ocamlopt JIT (the
# backend whose generated code inlines the abort check; ~30 s), which fails
# if the emitter turned zero loops into while loops or wrote no guard
# loop (drift guards, like par-loop-smoke's), declined a module, or wrote
# a module ocamlopt rejected
# (either one runs on the threaded backend); deterministic, so a failure
# here is replayable with the same seed (see EXPERIMENTS.md "Fuzz triage")
fuzz-smoke: build
	$(WOLFC) fuzz --seed 1 --count 200 --quiet
	$(WOLFC) fuzz --seed 3 --count 100 --quiet --backends jit

# the same fixed-seed campaign sharded over 4 domains: exercises the
# domain-safe core (locked intern/caches, atomic aborts, domain-local
# fuzz hooks) and must produce exactly the tallies of the sequential run
par-smoke: build
	$(WOLFC) fuzz --seed 1 --count 200 --quiet --jobs 4

# data-parallel loop smoke (DESIGN.md "Data-parallel loops"): a fixed-seed
# differential campaign through the par arm — every program compiles with
# parallel-loops on and must agree with the interpreter at jobs=1, jobs=4
# (measured schedules) and jobs=4 under forced dynamic chunking, including
# mid-loop Abort[] injection; the campaign fails if the pass parallelises
# zero loops (generator drift guard).  The exported metrics must carry the
# parloop chunk counter and per-loop speedup gauge and pass obs-check, and
# a quick E15 bench pass must prove jobs=4 == jobs=1 outputs
par-loop-smoke: build
	$(WOLFC) fuzz --seed 42 --count 500 --quiet \
	  --backends par --jobs 4 --metrics-out /tmp/wolf_parloop_metrics.json
	grep -q 'parloop_chunks_total' /tmp/wolf_parloop_metrics.json
	grep -q 'parloop_speedup' /tmp/wolf_parloop_metrics.json
	$(WOLFC) obs-check /tmp/wolf_parloop_metrics.json
	$(BENCHEXE) parloop --quick

# full-size E15 run refreshing the machine-readable record
bench-parloop-json: build
	$(BENCHEXE) parloop --json

# observability smoke: compile and run one benchmark-shaped program with
# tracing, profiling and metrics all on, then validate every output with
# wolfc's own checker — the trace must be well-formed Chrome JSON with
# balanced spans, the metrics export must carry named samples, and a
# 4-domain fuzz slice must produce at least 4 distinct tracks.  Then the
# request-tracing leg: a background wolfd with the flight recorder armed
# gets one slow request over its latency threshold; the daemon must leave
# a dump `wolfc flight` can parse, and its trace must hold flow-stitched
# request spans (>= 2 tracks) each annotated with an outcome.
obs-smoke: build
	$(WOLFC) run -e '$(SUM_SRC)' --args 100000 --profile --target threaded \
	  --trace-out /tmp/wolf_obs_trace.json \
	  --metrics-out /tmp/wolf_obs_metrics.json \
	  --profile-out /tmp/wolf_obs_profile.json
	$(WOLFC) fuzz --seed 1 --count 40 --quiet --jobs 4 \
	  --trace-out /tmp/wolf_obs_par_trace.json
	$(WOLFC) obs-check /tmp/wolf_obs_trace.json /tmp/wolf_obs_metrics.json \
	  /tmp/wolf_obs_profile.json
	$(WOLFC) obs-check --min-tracks 4 /tmp/wolf_obs_par_trace.json
	rm -rf /tmp/wolf_obs_flight /tmp/wolf_obs_wolfd.sock
	$(WOLFC) wolfd --socket /tmp/wolf_obs_wolfd.sock \
	  --quiet --jobs 2 --flight-dir /tmp/wolf_obs_flight \
	  --flight-threshold-ms 50 \
	  --trace-out /tmp/wolf_obs_wolfd_trace.json & \
	for i in $$(seq 1 50); do \
	  test -S /tmp/wolf_obs_wolfd.sock && break; sleep 0.1; done; \
	$(WOLFC) connect --socket /tmp/wolf_obs_wolfd.sock \
	  -e 'Total[Range[100]]' >/dev/null; \
	$(WOLFC) connect --socket /tmp/wolf_obs_wolfd.sock \
	  -e 'Do[Null, {i, 10000000}]' >/dev/null; \
	$(WOLFC) connect --socket /tmp/wolf_obs_wolfd.sock --shutdown; \
	wait
	test -n "$$(ls /tmp/wolf_obs_flight/*.wfr 2>/dev/null)"
	$(WOLFC) flight /tmp/wolf_obs_flight/*.wfr
	$(WOLFC) obs-check --min-tracks 2 --require-outcomes \
	  /tmp/wolf_obs_wolfd_trace.json

# service-layer smoke (DESIGN.md "Service layer"): load-test an embedded
# wolfd daemon — 4 concurrent clients, a mixed eval/compile workload, zero
# errors required — then replay a fixed-seed fuzz slice through the daemon
# (the serve oracle arm: replies equal up to Module-symbol numbering), and
# validate the daemon trace (client track + worker tracks, balanced spans)
# and metrics
serve-smoke: build
	$(WOLFC) bench serve --clients 4 --requests 200 \
	  --json /tmp/wolf_serve_bench.json \
	  --trace-out /tmp/wolf_serve_trace.json \
	  --metrics-out /tmp/wolf_serve_metrics.json
	$(WOLFC) fuzz --seed 1 --count 40 --quiet --backends serve
	$(WOLFC) obs-check --min-tracks 2 /tmp/wolf_serve_trace.json
	$(WOLFC) obs-check /tmp/wolf_serve_bench.json /tmp/wolf_serve_metrics.json

# tiered-execution smoke (DESIGN.md "Tiered execution"): a fixed-seed
# differential campaign through the tier arm sharded over 4 domains (the
# tier-0 call, the promotion hand-off, the promoted call and an Abort[]
# raced against the background compile must all agree with the
# interpreter), a quick E14 benchmark pass, then disk-cache persistence
# across two wolfc processes — the second process must revive the first's
# -O2 artifact with zero misses — and a full cache integrity walk
tier-smoke: build
	$(WOLFC) fuzz --seed 1 --count 500 --quiet --backends tier --jobs 4
	$(BENCHEXE) tier --quick
	rm -rf /tmp/wolf_tier_cache
	$(WOLFC) run -e '$(SUM_SRC)' --args 200000 --tier --tier-threshold 1 --repeat 3 \
	  --disk-cache /tmp/wolf_tier_cache --json > /tmp/wolf_tier_run1.json
	grep -q '"writes":1' /tmp/wolf_tier_run1.json
	$(WOLFC) run -e '$(SUM_SRC)' --args 200000 --tier --tier-threshold 1 --repeat 3 \
	  --disk-cache /tmp/wolf_tier_cache --json > /tmp/wolf_tier_run2.json
	grep -q '"misses":0' /tmp/wolf_tier_run2.json
	$(WOLFC) cache stat --dir /tmp/wolf_tier_cache
	$(WOLFC) cache verify --dir /tmp/wolf_tier_cache

# full-size E14 run refreshing the machine-readable record
bench-tier-json: build
	$(BENCHEXE) tier --json

# standalone-binary smoke (DESIGN.md "Standalone binaries"): wolfc build two
# Figure-2-style programs (scalar result, tensor result), run the shipped
# executables and require stdout byte-identical to the interpreter, check
# the argv-usage exit code (2), then replay a fixed-seed differential
# campaign through the binary oracle arm (300 generated programs built with
# cc, run out-of-process, compared to the interpreter), the same through the
# c arm (150 programs, arguments baked into the emitted main) and a quick E16
# bench pass.  Degrades to a skip message when no C compiler is on PATH
# (the fuzz arms and the bench self-skip on their own).
build-smoke: build
	@if $(WOLFC) build -e '$(SUM_SRC)' \
	    -o /tmp/wolf_build_sum >/dev/null 2>/tmp/wolf_build_smoke.err; then \
	  set -e; \
	  /tmp/wolf_build_sum 100000 > /tmp/wolf_build_sum.bin; \
	  $(WOLFC) eval -e '$(SUM_SRC)[100000]' > /tmp/wolf_build_sum.ref; \
	  cmp /tmp/wolf_build_sum.bin /tmp/wolf_build_sum.ref; \
	  $(WOLFC) build -e '$(TAB_SRC)' -o /tmp/wolf_build_tab >/dev/null; \
	  /tmp/wolf_build_tab 8 > /tmp/wolf_build_tab.bin; \
	  $(WOLFC) eval -e '$(TAB_SRC)[8]' > /tmp/wolf_build_tab.ref; \
	  cmp /tmp/wolf_build_tab.bin /tmp/wolf_build_tab.ref; \
	  st=0; /tmp/wolf_build_sum notanumber 2>/dev/null || st=$$?; \
	  test $$st -eq 2; \
	  echo "build-smoke: binaries byte-identical to the interpreter"; \
	else \
	  grep -q 'no working C compiler' /tmp/wolf_build_smoke.err \
	    && echo "build-smoke: no C compiler; skipping" \
	    || { cat /tmp/wolf_build_smoke.err; exit 1; }; \
	fi
	$(WOLFC) fuzz --seed 7 --count 300 --quiet --backends binary
	$(WOLFC) fuzz --seed 7 --count 150 --quiet --backends c
	$(BENCHEXE) build --quick

# full-size E16 run refreshing the machine-readable record
bench-build-json: build
	$(BENCHEXE) build --json

# full-size serve load test refreshing the checked-in record
bench-serve-json: build
	$(WOLFC) bench serve --clients 4 --requests 200 --json BENCH_serve.json

# longer free-running campaign for local bug hunting
fuzz: build
	$(WOLFC) fuzz --seed $$RANDOM --count 2000 --corpus test/corpus

clean:
	dune clean
