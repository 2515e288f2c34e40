#!/usr/bin/env python3
"""Build and run the Qserv end-to-end wall-clock benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: interactive, fullsky, contended, ingest (see e2ebench.cc).

The first run configures and compiles the benchmark package (e2ebench/,
which builds ../src optimized) into .bench_build/e2ebench; later runs reuse
it. Build output goes to stderr. The last stdout line is the result JSON:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 1 the benchmark also writes the Chrome trace of its slowest
measured query to .bench_build/traces/. Exits nonzero, printing no result,
when the build or the run fails.
"""
import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
WORKLOADS = ("interactive", "fullsky", "contended", "ingest")
FIRST_RUN_BUDGET_S = 880   # a run that compiles may take up to 900 s
RUN_BUDGET_S = 170         # any other run must end within 180 s


def call(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise RuntimeError("timed out after %.0f s: %s" % (timeout, cmd[0]))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("exit %d: %s" % (proc.returncode, " ".join(cmd)))
    return out


def build(deadline):
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        call(["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             deadline - time.monotonic(), sys.stderr)
        call(["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
              "-j", jobs], deadline - time.monotonic(), sys.stderr)


def parse_result(stdout, trace):
    lines = [l for l in stdout.decode("utf-8", "replace").splitlines()
             if l.strip()]
    if not lines:
        raise RuntimeError("benchmark printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("unexpected result keys: %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise RuntimeError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise RuntimeError("%s is not a count" % key)
    if result["attempted"] < 1:
        raise RuntimeError("no operation was attempted")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or \
                not isinstance(m["value"], (int, float)):
            raise RuntimeError("malformed metric %s" % name)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
        if set(result["metrics"]) != want:
            raise RuntimeError("metrics %s do not match BENCHMARK.json %s"
                               % (sorted(result["metrics"]), sorted(want)))
    return result


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    budget = RUN_BUDGET_S if os.path.exists(BINARY) else FIRST_RUN_BUDGET_S
    deadline = start + budget
    try:
        build(deadline)
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            trace_dir = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(trace_dir, exist_ok=True)
            cmd += ["--trace-file", os.path.join(
                trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
        out = call(cmd, deadline - time.monotonic(), subprocess.PIPE)
        result = parse_result(out, args.trace)
    except (RuntimeError, OSError, ValueError) as e:
        print("e2ebench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
