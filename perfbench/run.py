#!/usr/bin/env python3
"""XLDS benchmark: build xlds_perfbench, run one workload, check its outputs and
print its metrics.

    python3 perfbench/run.py --workload serve_drift --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

--trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones (and
writes a Chrome trace).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is non-zero when
an output check fails or the run cannot be made.  See perfbench/README.md.
"""

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN_DIR = os.path.join(BUILD, "perfbench")
# Compiler and program temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
EXE = os.path.join(BIN_DIR, "xlds_perfbench")
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the source tree

import metrics  # noqa: E402

# Instance seeds each workload draws its inputs from; every one has a stored
# reference output.  --seed picks the order the run goes through them.
POOLS = {
    "serve_drift": list(range(1, 9)),
    "hdc_fit": list(range(1, 9)),
    "dse_sweep": list(range(1, 9)),
}
# Never drawn by --seed: checked once with --instances after the references
# for the pool were recorded.
HELD_OUT = 1001
# Host seconds one timed round takes on the reference machine (4-core Xeon,
# Release build, XLDS_THREADS=4).  --seconds / ROUND_SECONDS fixes the rounds
# a run makes, so every commit does the same work and makes the same unit
# calls: its percentiles stay comparable however fast it runs.
ROUND_SECONDS = {
    "serve_drift": 2.85,   # one 1024-request serving run
    "hdc_fit": 3.75,       # fit + score both encoders
    "dse_sweep": 0.67,     # six cold jobs
}
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def threads():
    """Pinned pool width: 4 lanes, or fewer on a smaller machine."""
    return min(4, os.cpu_count() or 1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"XLDS sources not found under {ROOT}/src; run from a full checkout", 2)
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BIN_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BIN_DIR, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BIN_DIR, "--target", "xlds_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=ENV,
                              timeout=850).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: .bench_build/build.log)")


def cmake_cache(name, default):
    try:
        with open(os.path.join(BIN_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(name + ":"):
                    return line.split("=", 1)[1].strip() or default
    except OSError:
        pass
    return default


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10, cwd=ROOT)
        return out.stdout.splitlines()[0].strip() if out.returncode == 0 and out.stdout else None
    except (OSError, subprocess.SubprocessError):
        return None


def machine_meta():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER", "c++")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE", "unknown"),
        "XLDS_NATIVE": cmake_cache("XLDS_NATIVE", "OFF"),
        "XLDS_THREADS": threads(),
        "compiler": first_line([compiler, "--version"]) or compiler,
        "commit": first_line(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
    }


def reference_path(workload):
    return os.path.join(HERE, "reference", f"{workload}.json")


def load_reference(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def record_reference(path, checked):
    ref = load_reference(path)
    for unit in checked:
        old = ref.setdefault(unit["key"], {})
        for k, v in unit["output"].items():
            if old.setdefault(k, v) != v:
                fail(f"{unit['key']}: {k} differs from the recorded reference; not overwriting")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(dict(sorted(ref.items())), f, indent=1)
        f.write("\n")


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def run_binary(workload, instances, rounds, trace, deadline):
    tag = f"{workload}-{'traced' if trace else 'untraced'}"
    results = os.path.join(BUILD, "results")
    workdir = os.path.join(BUILD, "work", workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(results, exist_ok=True)
    raw_path = os.path.join(results, f"{tag}.raw.json")
    trace_path = os.path.join(results, f"{tag}.trace.json")
    cmd = [EXE, "--workload", workload, "--instances", ",".join(map(str, instances)),
           "--rounds", str(rounds), "--trace", "1" if trace else "0",
           "--out", raw_path, "--workdir", workdir]
    if trace:
        cmd += ["--trace-out", trace_path]
    env = dict(ENV, XLDS_THREADS=str(threads()))
    # Library defaults only: no shard or scheduler overrides from the caller.
    for knob in ("XLDS_SHARDS", "XLDS_SCHED"):
        env.pop(knob, None)
    # Own process group, so a timeout also stops the binary's forked children.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload}: xlds_perfbench timed out")
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{workload}: xlds_perfbench failed with exit code {proc.returncode}")
    with open(raw_path) as f:
        raw = json.load(f)
    spans = None
    if trace:
        with open(trace_path) as f:
            spans = metrics.load_spans(json.load(f))
    return raw, spans, trace_path


def measure(workload, args, deadline):
    """One run: returns (correct, attempted, failed, metrics dict)."""
    instances = args.instances or POOLS[workload][:]
    if not args.instances:
        random.Random(args.seed).shuffle(instances)
    rounds = rounds_for(workload, args.seconds)
    raw, spans, trace_path = run_binary(workload, instances, rounds, args.trace, deadline)
    ref_path = args.reference or reference_path(workload)
    if args.record:
        record_reference(ref_path, raw["checked"])
    attempted, failed, problems = metrics.check_outputs(
        workload, raw["checked"], load_reference(ref_path))
    print(f"workload {workload}: instances {','.join(map(str, instances))}, "
          f"{rounds} rounds, trace {int(args.trace)}")
    if args.trace:
        values = metrics.per_layer(raw, spans)
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        print(f"  trace: {os.path.relpath(trace_path, ROOT)} ({raw['passes']} traced passes; "
              "per-layer values are per pass)")
    else:
        values, info = metrics.end_to_end(workload, raw)
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
        print(f"  call_ms_tail is p{info['tail_percentile']:g} of {info['calls']} unit calls")
    bad = [name for name in values if not metrics.valid_name(name)]
    if bad:
        fail(f"invalid metric names: {bad}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  fail_frac = {failed / attempted:.6g} ({failed} of {attempted} checked ops)")
    for p in problems[:20]:
        print(f"  CHECK FAILED {p}")
    return failed == 0 and attempted > 0, attempted, failed, {
        name: {"value": value, "unit": units[name]} for name, value in values.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(POOLS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instances", type=lambda s: [int(x) for x in s.split(",")],
                    help="run exactly these instance seeds (e.g. the held-out %d)" % HELD_OUT)
    ap.add_argument("--reference", help="reference file to check against")
    ap.add_argument("--record", action="store_true",
                    help="add this run's outputs to the reference file")
    args = ap.parse_args()
    if not args.seconds > 0:
        fail("--seconds must be positive", 2)
    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    meta = machine_meta()
    out_path = os.path.join(BUILD, "results",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in meta.items()))

    if args.workload != "all":
        correct, attempted, failed, values = measure(args.workload, args, deadline)
    else:
        correct, attempted, failed, values = True, 0, 0, {}
        for workload in sorted(POOLS):
            for trace in (0, 1):
                args.trace = trace
                c, a, f, v = measure(workload, args, time.monotonic() + RUN_TIMEOUT_S)
                correct, attempted, failed = correct and c, attempted + a, failed + f
                values.update({f"{workload}.{k}": m for k, m in v.items()})
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": values}
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump({"machine": meta, **result}, f, indent=1)
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
