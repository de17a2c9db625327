#!/usr/bin/env python3
"""The repository benchmark: real-runtime ER workloads, end to end and per layer.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first call configures and builds
erlb_perfbench (perfbench/CMakeLists.txt, Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only re-check the build. Inputs come from --seed; scratch files live under
<build root>/work and are removed on exit.

Workloads (see perfbench/README.md for why each exists):
  skew_s1         Fig-9 skew s=1, BlockSplit, in-memory shuffle
  wide_external   many tiny blocks, PairRange, out-of-core shuffle
  serve_mixed     in-process daemon, 4 closed-loop connections, 10% writes

Batch workloads run one CSV -> clusters job per fresh process, over and
over until --seconds have passed, after one untimed warm-up job, and
check each job's matches and clusters against core::ReferenceDeduplicate.
serve_mixed drives the daemon for --seconds and checks every probe
against core::ReferenceLink. The traced run of wide_external also runs
its input on 4 forked worker processes, the only place the proc layer
works.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. A summary with units goes to stderr; the last stdout line
is the JSON result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BATCH_WORKLOADS = ("skew_s1", "wide_external")
WORKLOADS = BATCH_WORKLOADS + ("serve_mixed",)
CHILD_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 880


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build_bench():
    """Configures (once) and builds erlb_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("erlb sources not found next to perfbench/")
    out = os.path.join(build_root(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(
                    step, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1, deadline - time.monotonic())).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                die("build step %s failed: %s" % (step[:2], e))
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (log: %s)" % log_path)
    return os.path.join(out, "erlb_perfbench")


def run_bench(exe, args):
    """Runs one erlb_perfbench subcommand; its parsed JSON line, or None on failure."""
    try:
        proc = subprocess.run([exe] + args, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % args[0], file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: %s exited %d" % (args[0], proc.returncode),
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


OUTPUT_KEYS = ("pairs", "match_digest", "clusters", "cluster_digest")


class BatchRuns:
    """Fresh-process CSV -> clusters jobs on one prepared input."""

    def __init__(self, exe, workload, seed, work):
        self.exe, self.workload, self.work = exe, workload, work
        self.attempted = self.failed = 0
        self.reference = run_bench(
            exe, ["prepare", workload, str(seed), work])
        if self.reference is None:
            die("could not prepare the %s input" % workload)

    def job(self, strategy="-", traced=False, workload=None):
        """One checked job; its result, or None if it failed or was wrong.

        `workload` runs another batch configuration on this input.
        """
        self.attempted += 1
        result = run_bench(self.exe, ["batch", workload or self.workload,
                                       self.work, strategy,
                                       "1" if traced else "0"])
        if result is None or any(result[k] != self.reference[k]
                                 for k in OUTPUT_KEYS):
            self.failed += 1
            return None
        return result

    def jobs_for(self, seconds, traced=False):
        """Jobs started until `seconds` have passed (at least one), after
        one warm-up job that is checked but not reported."""
        self.job(traced=traced)
        done = []
        start = time.monotonic()
        while True:
            result = self.job(traced=traced)
            if result is not None:
                done.append(result)
            if time.monotonic() - start >= seconds:
                break
        if not done:
            die("no %s job succeeded" % self.workload)
        return done


def batch_metrics(runs, seconds, trace):
    jobs = runs.jobs_for(seconds)
    walls = [j["wall_s"] for j in jobs]
    wall = statistics.median(walls)
    if not trace:
        return {
            "wall_s": wall,
            # Upper quartile: a run's 30-50 jobs are too few for a p99, and
            # their maximum mostly measures the host's noisiest second.
            "tail_s": statistics.quantiles(walls, n=4)[2]
                      if len(walls) > 1 else wall,
            "cpu_s": statistics.median(j["cpu_s"] for j in jobs),
            "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
            "setup_s": statistics.median(j["setup_s"] for j in jobs),
        }
    # The traced jobs run as long as the untraced ones; the layers come
    # from the traced job of median wall time.
    traced = sorted(runs.jobs_for(seconds, traced=True),
                    key=lambda j: j["wall_s"])
    layers = traced[len(traced) // 2]["layers"]
    layers["trace.overhead_ratio"] = (
        statistics.median(j["wall_s"] for j in traced) / wall)
    if runs.workload == "wide_external":
        # The proc layer: the same input on forked worker processes, the
        # path wide_external's single process never takes.
        multi = [runs.job(traced=True, workload="wide_multiproc")
                 for _ in range(3)]
        multi = sorted((j for j in multi if j is not None),
                       key=lambda j: j["wall_s"])
        if multi:
            median = multi[len(multi) // 2]
            for name in ("proc.worker_processes", "proc.worker_deaths"):
                layers[name] = median["layers"][name]
            layers["proc.multiproc_over_external"] = (
                median["wall_s"] /
                statistics.median(j["wall_s"] for j in traced))
    if runs.workload == "skew_s1":
        # The paper's Fig-9 point on the real engine: the same input under
        # the unbalanced and the pair-range strategy, median of three jobs.
        for strategy, name in (("Basic", "paper.basic_over_blocksplit"),
                               ("PairRange",
                                "paper.pairrange_over_blocksplit")):
            others = [runs.job(strategy=strategy) for _ in range(3)]
            walls = [j["wall_s"] for j in others if j is not None]
            if walls:
                layers[name] = statistics.median(walls) / wall
    return layers


def serve_metrics(exe, seed, seconds, trace, work):
    result = run_bench(exe, ["serve", str(seed), str(seconds),
                              "1" if trace else "0", work])
    if result is None:
        die("the serve_mixed run failed")
    print("perfbench: serve_mixed answered %d probes and %d writes"
          % (result["probes"], result["writes"]), file=sys.stderr)
    metrics = result["layers"] if trace else result["e2e"]
    return metrics, result["attempted"], result["failed"]


def main(args):
    spec = load_spec()
    exe = build_bench()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = os.path.join(build_root(), "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    # Relative, so the daemon's socket path stays short.
    work = os.path.relpath(work)
    try:
        if args.workload == "serve_mixed":
            measured, attempted, failed = serve_metrics(
                exe, args.seed, args.seconds, args.trace, work)
        else:
            runs = BatchRuns(exe, args.workload, args.seed, work)
            measured = batch_metrics(runs, args.seconds, args.trace)
            attempted, failed = runs.attempted, runs.failed
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in wanted:
        # Layers a workload does not exercise report 0.
        value = measured.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("perfbench: %-34s %14.6g %s" % (m["name"], value, m["unit"]),
              file=sys.stderr)
    print("perfbench: %-34s %14.6g ratio (%d of %d operations)"
          % ("error_rate", failed / attempted, failed, attempted),
          file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    main(parser.parse_args())
