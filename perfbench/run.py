#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a repository checkout.  It builds the harness and
wolfc with dune, then runs the workload in a fresh process with a fresh
TMPDIR (removed at exit); serve_mixed's process, and the daemon it starts,
run pinned to one CPU.  With --trace 0 it first runs the workload's
set-up alone in further fresh processes and reports setup_s as the median
over all of them.  The last line of standard output is the result object.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("kernels_loop", "kernels_call", "compile_cold", "serve_mixed")
SETUP_RUNS = 11  # setup_s is the median over this many fresh processes
BENCH_EXE = "_build/default/perfbench/bench.exe"
TMP_ROOT = ".perfbench_tmp"
TRACE_DIR = ".perfbench_out"
CHILD_TIMEOUT_S = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    # the compilers' temporary files stay inside the checkout too
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.abspath(tmp))
    cmd = ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/wolfc.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0:
        fail("build failed")


def stop_group(pgid, sig=signal.SIGKILL):
    """Signal whatever is left in the child's process group and wait for it."""
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def pin_to_one_cpu():
    # serve_mixed: the load generator, wolfd and the echo server (which
    # inherit this) share one CPU, so a request never waits for another
    # vCPU to be woken up (see README.md, How ops are timed)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_child(args, pin):
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
        env["PERFBENCH_T0"] = repr(time.time())
        p = subprocess.Popen([BENCH_EXE] + args, env=env, stdout=subprocess.PIPE,
                             text=True, start_new_session=True,
                             preexec_fn=pin_to_one_cpu if pin else None)
        try:
            out, _ = p.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # SIGTERM first: the harness reports its phase and reaps wolfd
            stop_group(p.pid, signal.SIGTERM)
            try:
                p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass
            stop_group(p.pid)
            p.wait()
            fail("workload process timed out")
        finally:
            stop_group(p.pid)
        if p.returncode != 0:
            sys.stdout.write(out)
            fail("workload process exited with code %d" % p.returncode)
        lines = out.strip().splitlines()
        if not lines:
            fail("workload process printed nothing")
        return lines
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    # a SIGTERM unwinds like an error, so the child's process group is
    # stopped and the temporary directories are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin") and os.path.isfile("perfbench/dune")):
        fail("run this from the root of a repository checkout")
    os.makedirs(TMP_ROOT, exist_ok=True)
    try:
        build()
        args = ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace)]
        pin = a.workload == "serve_mixed"
        setups = []
        if a.trace == 0:
            for _ in range(SETUP_RUNS - 1):
                setups.append(json.loads(run_child(args + ["--setup-only"], pin)[-1])["setup_s"])
        else:
            os.makedirs(TRACE_DIR, exist_ok=True)
            trace = os.path.join(TRACE_DIR, "%s-seed%d.json" % (a.workload, a.seed))
            args += ["--trace-out", trace]
        lines = run_child(args, pin)
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        if a.trace == 0:
            setups.append(result["metrics"]["setup_s"]["value"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setups)
            print("setup_s: median of %d fresh processes: %s"
                  % (len(setups), " ".join("%.4f" % s for s in sorted(setups))))
        else:
            print("spans written to %s" % trace)
        print(json.dumps(result))
    finally:
        shutil.rmtree(TMP_ROOT, ignore_errors=True)


if __name__ == "__main__":
    main()
