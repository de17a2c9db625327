#!/usr/bin/env python3
"""A/B evidence for a performance change: alternating perfbench runs of two
revisions, summarized per metric.

Stdlib only. Usage (from anywhere inside the repository):

    ab_perf.py [--base REV] [--change REV] [--pairs N] [--seconds S]
               [--workloads a,b,...] [--seed N] [--scratch DIR]
    ab_perf.py --selftest

REV is a git revision (default base HEAD) or WORKTREE, the working tree as
it stands: tracked and untracked files that .gitignore does not exclude
(the default change). Each revision is written to DIR/<base|change>/src
(git archive for a revision, a file copy for WORKTREE; the repository's
own worktree list is not touched), and perfbench/run.py builds it there
under DIR/<base|change>/build. One untimed run per revision does the
build before any measured run.

For each workload, N pairs of untraced `perfbench/run.py --workload W
--trace 0` runs follow, the order alternating (base then change, then
change then base, ...), so that host drift lands on both sides alike.
Before and after every run the `cpu` line of /proc/stat is read (read
only), and the run's steal time (time the hypervisor gave this guest's
CPUs to others) is printed with it: a run with a large steal delta
measured the neighbours, not the code.

The summary, one markdown table per workload, has for each metric the
median and interquartile range (IQR) of each side, the change/base ratio
of the medians, and in how many pairs the change was better, in the
direction BENCHMARK.json declares. A run whose result is not `correct`
or has failed operations is reported and counted in the `fail` column.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

WORKTREE = "WORKTREE"
DEFAULT_WORKLOADS = ("skew_s1", "wide_external", "serve_mixed")
BUILD_TIMEOUT_S = 1800


def die(message):
    print("ab_perf: " + message, file=sys.stderr)
    sys.exit(1)


def git(repo, *args, **kwargs):
    return subprocess.run(["git", "-C", repo] + list(args), check=True,
                          stdout=subprocess.PIPE, **kwargs).stdout


def export_revision(repo, rev, dest):
    """Writes the files of `rev` (or the working tree) to `dest`."""
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    if rev == WORKTREE:
        names = git(repo, "ls-files", "-z", "--cached", "--others",
                    "--exclude-standard").split(b"\0")
        for name in filter(None, names):
            src = os.path.join(repo, os.fsdecode(name))
            if not os.path.isfile(src):
                continue  # deleted in the working tree
            out = os.path.join(dest, os.fsdecode(name))
            os.makedirs(os.path.dirname(out), exist_ok=True)
            shutil.copy2(src, out)
        return
    proc = subprocess.Popen(["git", "-C", repo, "archive", "--format=tar",
                             rev], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    if proc.wait() != 0:
        die("git archive %s failed" % rev)


def read_steal_jiffies(stat_path="/proc/stat"):
    """Steal time of all CPUs in clock ticks, or None where unavailable."""
    try:
        with open(stat_path) as f:
            for line in f:
                fields = line.split()
                if fields and fields[0] == "cpu":
                    # user nice system idle iowait irq softirq steal ...
                    return int(fields[8]) if len(fields) > 8 else None
    except OSError:
        pass
    return None


def steal_seconds(before, after):
    if before is None or after is None:
        return None
    return (after - before) / os.sysconf("SC_CLK_TCK")


class Side:
    """One revision: its exported source and perfbench build root."""

    def __init__(self, name, rev, repo, scratch):
        self.name, self.rev = name, rev
        self.src = os.path.join(scratch, name, "src")
        self.build = os.path.join(scratch, name, "build")
        export_revision(repo, rev, self.src)

    def run(self, workload, seconds, seed, timeout):
        """One perfbench run: (result dict or None, steal seconds)."""
        env = dict(os.environ, CARGO_TARGET_DIR=self.build)
        cmd = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seconds", str(seconds),
               "--seed", str(seed), "--trace", "0"]
        before = read_steal_jiffies()
        try:
            proc = subprocess.run(cmd, cwd=self.src, env=env, text=True,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, steal_seconds(before, read_steal_jiffies())
        steal = steal_seconds(before, read_steal_jiffies())
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-2000:])
            return None, steal
        return json.loads(lines[-1]), steal


def metric_directions(spec_path):
    """{metric name: 'lower' | 'higher'} from a BENCHMARK.json."""
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("better", "lower")
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def quartiles(values):
    """(q1, median, q3) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, directions):
    """Rows for one workload's pairs.

    `pairs` is a list of (base_result, change_result), each a perfbench
    result dict or None. Returns a list of dicts with keys metric, unit,
    base_median, base_iqr, change_median, change_iqr, ratio, wins, n and
    failures.
    """
    failures = {"base": 0, "change": 0}
    for base, change in pairs:
        for name, result in (("base", base), ("change", change)):
            if result is None or not result.get("correct") or \
                    result.get("failed", 0) > 0:
                failures[name] += 1
    usable = [(b, c) for b, c in pairs if b is not None and c is not None]
    names = []
    for b, c in usable:
        for name in list(b["metrics"]) + list(c["metrics"]):
            if name not in names:
                names.append(name)
    rows = []
    for name in names:
        both = [(b["metrics"][name], c["metrics"][name]) for b, c in usable
                if name in b["metrics"] and name in c["metrics"]]
        if not both:
            continue
        base_values = [x["value"] for x, _ in both]
        change_values = [y["value"] for _, y in both]
        bq1, bmed, bq3 = quartiles(base_values)
        cq1, cmed, cq3 = quartiles(change_values)
        lower = directions.get(name, "lower") != "higher"
        wins = sum(1 for x, y in zip(base_values, change_values)
                   if (y < x if lower else y > x))
        rows.append({
            "metric": name, "unit": both[0][0].get("unit", ""),
            "base_median": bmed, "base_iqr": bq3 - bq1,
            "change_median": cmed, "change_iqr": cq3 - cq1,
            "ratio": cmed / bmed if bmed else float("nan"),
            "wins": wins, "n": len(both),
            "better": "lower" if lower else "higher",
            "failures": "%d/%d" % (failures["base"], failures["change"]),
        })
    return rows


def format_table(workload, rows, steals=None):
    """Markdown for one workload; `steals` maps side -> per-run steal s."""
    out = ["### %s" % workload, "",
           "| metric | base median | base IQR | change median | change IQR "
           "| change/base | change better | fail base/change |",
           "|---|---|---|---|---|---|---|---|"]
    for r in rows:
        out.append("| %s (%s, %s is better) | %.4g | %.3g | %.4g | %.3g "
                   "| %.3f | %d of %d | %s |"
                   % (r["metric"], r["unit"], r["better"], r["base_median"],
                      r["base_iqr"], r["change_median"], r["change_iqr"],
                      r["ratio"], r["wins"], r["n"], r["failures"]))
    for side, values in sorted((steals or {}).items()):
        out.append("")
        out.append("steal per %s run (s): %s" % (side, " ".join(
            "n/a" if v is None else "%.2f" % v for v in values)))
    return "\n".join(out)


def selftest():
    directions = {"wall_s": "lower", "probe_per_s": "higher"}

    def result(wall, rate, correct=True, failed=0):
        return {"correct": correct, "failed": failed, "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "probe_per_s": {"value": rate, "unit": "1/s"}}}

    pairs = [(result(1.0, 10), result(0.5, 12)),
             (result(2.0, 10), result(0.6, 9)),
             (result(3.0, 10), result(4.0, 11)),
             (result(4.0, 10), None),
             (result(5.0, 10, failed=1), result(0.7, 13))]
    rows = {r["metric"]: r for r in summarize(pairs, directions)}
    wall, rate = rows["wall_s"], rows["probe_per_s"]
    assert wall["n"] == 4, wall
    # base 1,2,3,5 -> median 2.5, inclusive quartiles 1.75 and 3.5
    assert abs(wall["base_median"] - 2.5) < 1e-12, wall
    assert abs(wall["base_iqr"] - 1.75) < 1e-12, wall
    assert abs(wall["change_median"] - 0.65) < 1e-12, wall
    assert wall["wins"] == 3, wall  # lower is better
    assert rate["wins"] == 3, rate  # higher is better: 12, 11, 13
    assert wall["failures"] == "1/1", wall
    assert summarize([], directions) == []
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)

    with tempfile.TemporaryDirectory() as tmp:
        sample = os.path.join(tmp, "stat")
        with open(sample, "w") as f:
            f.write("cpu  10 0 20 300 4 0 1 42 0 0\ncpu0 1 0 2 3 0 0 0 7\n")
        assert read_steal_jiffies(sample) == 42
        with open(sample, "w") as f:
            f.write("cpu  10 0 20 300\n")
        assert read_steal_jiffies(sample) is None
        os.remove(sample)
        assert read_steal_jiffies(sample) is None  # missing file
    assert steal_seconds(None, 5) is None
    table = format_table("w", [rows["wall_s"]], {"base": [0.5, None]})
    assert "| wall_s (s, lower is better) |" in table, table
    assert "steal per base run (s): 0.50 n/a" in table, table
    print("ab_perf selftest: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--change", default=WORKTREE)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("--workloads", default=",".join(DEFAULT_WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scratch", default=None,
                        help="work directory (default: a fresh one under "
                             "$TMPDIR)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.pairs < 1:
        die("--pairs must be >= 1")

    repo = git(os.getcwd(), "rev-parse", "--show-toplevel",
               text=True).strip()
    scratch = os.path.abspath(args.scratch or os.path.join(
        os.environ.get("TMPDIR", "/tmp"), "ab_perf-%d" % os.getpid()))
    sides = [Side("base", args.base, repo, scratch),
             Side("change", args.change, repo, scratch)]
    directions = metric_directions(
        os.path.join(sides[1].src, "BENCHMARK.json"))
    workloads = [w for w in args.workloads.split(",") if w]
    run_timeout = 120 + 20 * args.seconds

    for side in sides:
        print("ab_perf: building %s (%s)" % (side.name, side.rev),
              file=sys.stderr)
        result, _ = side.run(workloads[0], 0.1, args.seed, BUILD_TIMEOUT_S)
        if result is None:
            die("the %s build or its first run failed" % side.name)

    tables = []
    for workload in workloads:
        pairs = []
        steals = {}
        for i in range(args.pairs):
            order = sides if i % 2 == 0 else sides[::-1]
            got = {}
            for side in order:
                start = time.monotonic()
                result, steal = side.run(workload, args.seconds, args.seed,
                                         run_timeout)
                got[side.name] = result
                steals.setdefault(side.name, []).append(steal)
                wall = result["metrics"].get("wall_s", {}).get("value") \
                    if result else None
                print("ab_perf: %-13s pair %2d %-6s %7.1fs  steal %s  "
                      "wall_s %s  %s"
                      % (workload, i, side.name, time.monotonic() - start,
                         "n/a" if steal is None else "%.2fs" % steal,
                         "n/a" if wall is None else "%.4g" % wall,
                         "ok" if result and result.get("correct")
                         else "FAILED"), file=sys.stderr)
            pairs.append((got["base"], got["change"]))
        tables.append(format_table(workload, summarize(pairs, directions),
                                   steals))

    print("base %s vs change %s: %d alternating pairs of %gs runs, "
          "seed %d, untraced\n"
          % (args.base, args.change, args.pairs, args.seconds, args.seed))
    print("\n\n".join(tables))
    if not args.scratch:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
