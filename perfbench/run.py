#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
rmcrt libraries plus the driver (Release) under $CARGO_TARGET_DIR or
.bench_build; later calls rebuild only what changed. Build output goes to
stderr, so the last line of stdout is the driver's result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads (see BENCHMARK.json for why each exists):
  pipeline_kernel  2-rank two-level GPU pipeline, 64^3 fine / 16^3 patches,
                   16 rays per cell: the trace kernel dominates a step.
  pipeline_comm    the same pipeline at 16^3 / 4^3, 8 rays: local
                   communication dominates a step.
  service_mixed    closed-loop stream of 16 outstanding requests against one
                   Service, with property updates every 64 requests.

--trace 0 prints the end-to-end metrics, measured with tracing off. Every
workload reports every metric; a "step" is one warm radiation timestep (max
over ranks) on the pipelines and the span between two property updates on
the service. qps counts requests on the service and timesteps on the
pipelines; p50_ms/p99_ms are request latency on the service and, on the
pipelines, the time from a rank's step start until a patch's divQ is ready.
setup_s is the median of several set-ups (construction, registration,
warm-up step or first query).

--trace 1 spends the first half of the window untraced and the second half
traced, and prints the per-layer ledger: per-step means of rank sums read
from the layers' public stats, the benchmark's own spans around each layer
call, and the program's spans folded into per-layer self time. Layers a
workload does not exercise read 0.

Before the result line the driver prints a detail line: host metadata
(hardware threads, SIMD ISA, compiler, build type), per-step series,
error_rate and sample counts. The exit code is non-zero when an output
differs from its serial oracle, the build fails, or the sources are missing.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pipeline_kernel", "pipeline_comm", "service_mixed")
# The driver's own limit; the caller allows 180 s per run.
RUN_TIMEOUT_S = 175


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Run a build step with its output on stderr; True on success."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("rmcrt sources (src/CMakeLists.txt) not found under " + ROOT)
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            log("configure failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", out, "--target", target,
                      "-j", jobs]):
        log("build failed")
        return None
    return os.path.join(out, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=("0", "1"))
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's arithmetic tests")
    args = ap.parse_args()

    if args.self_test:
        exe = build("perfbench_selftest")
        return 2 if exe is None else subprocess.run([exe]).returncode

    missing = [k for k in ("workload", "seed", "seconds", "trace")
               if getattr(args, k) is None]
    if missing:
        ap.error("missing --" + ", --".join(missing))
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    exe = build("perfbench_driver")
    if exe is None:
        return 2
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
