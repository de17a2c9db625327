#!/usr/bin/env python3
"""CI bench-regression gate: diff fresh BENCH_*.json runs against the
committed baselines and fail on significant throughput regressions.

Stdlib only. Usage:

    bench_compare.py [--threshold 0.25] [--summary out.md]
                     BASELINE:CURRENT[:ratios] [BASELINE:CURRENT ...]
    bench_compare.py --selftest

A pair suffixed `:ratios` gates only its "speedup"/ratio entries and
demotes absolute-time entries to informational — the right setting for
macro benchmarks whose wall times are machine-dependent (CI hardware
differs from the machine that produced the committed baseline), while
same-run ratios transfer.

Each positional argument pairs a committed baseline document with the
JSON the CI run just produced. Result entries are matched by name and
classified:

  * entries with "nanos_per_op"  — gated; current > baseline * (1 + t)
    is a regression (lower is better).
  * entries with "speedup"      — gated; current < baseline * (1 - t)
    is a regression (higher is better). These are same-run ratios
    (before/after kernels, external-vs-in-memory), so they stay
    meaningful across differing CI hardware.
  * entries with "value"        — informational only (peak RSS etc.).

A baseline entry missing from the current run fails the gate when it
would have gated (ratios always, times unless the pair is `:ratios`):
a benchmark that silently stops being emitted must not pass as "no
regression". Retiring one means removing it from the committed
baseline. Entries present only in the current run are reported as new
and never gate. The markdown summary is written to --summary and, when
the environment provides it, appended to $GITHUB_STEP_SUMMARY. Exit
code 1 iff any gated entry regressed or went missing.
"""

import argparse
import json
import os
import sys


def load_results(path):
    """Returns {name: entry_dict} for one BENCH_*.json document."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    out = {}
    for entry in doc.get("results", []):
        out[entry["name"]] = entry
    return out


def classify(entry):
    if "nanos_per_op" in entry:
        return "time"
    if "speedup" in entry:
        return "ratio"
    return "info"


def compare_documents(baseline, current, threshold, ratios_only=False):
    """Compares two {name: entry} maps.

    Returns (rows, regressions) where rows is a list of
    (name, kind, baseline_value, current_value, delta_fraction, verdict).
    delta_fraction is signed so that positive always means "worse".
    With ratios_only, absolute-time entries are reported but never gate.
    A gating baseline entry absent from `current` is a regression.
    """
    rows = []
    regressions = []
    for name in sorted(set(baseline) | set(current)):
        b = baseline.get(name)
        c = current.get(name)
        if b is None:
            rows.append((name, "new", None, c, None, "info"))
            continue
        if c is None:
            kind = classify(b)
            gating = kind == "ratio" or (kind == "time" and not ratios_only)
            rows.append((name, "missing", b, None, None,
                         "MISSING" if gating else "skipped"))
            if gating:
                regressions.append(name)
            continue
        kind = classify(b)
        if kind != classify(c):
            rows.append((name, "mismatch", b, c, None, "skipped"))
            continue
        if kind == "time":
            bv, cv = b["nanos_per_op"], c["nanos_per_op"]
            if bv <= 0:
                rows.append((name, kind, bv, cv, None, "skipped"))
                continue
            if ratios_only:
                delta = cv / bv - 1.0
                rows.append((name, kind, bv, cv, delta, "info"))
                continue
            delta = cv / bv - 1.0  # positive = slower = worse
        elif kind == "ratio":
            bv, cv = b["speedup"], c["speedup"]
            if bv <= 0:
                rows.append((name, kind, bv, cv, None, "skipped"))
                continue
            delta = 1.0 - cv / bv  # positive = ratio dropped = worse
        else:
            bv = b.get("value")
            cv = c.get("value")
            rows.append((name, kind, bv, cv, None, "info"))
            continue
        verdict = "REGRESSION" if delta > threshold else "ok"
        rows.append((name, kind, bv, cv, delta, verdict))
        if verdict == "REGRESSION":
            regressions.append(name)
    return rows, regressions


def format_value(kind, value):
    if value is None:
        return "—"
    if kind == "time":
        return f"{value:,.0f} ns"
    return f"{value:.3f}"


def render_markdown(title, rows, threshold):
    lines = [
        f"### {title}",
        "",
        f"gate: fail on > {threshold:.0%} regression "
        "(times lower-is-better, ratios higher-is-better; "
        "`value` rows informational)",
        "",
        "| benchmark | kind | baseline | current | delta | verdict |",
        "|---|---|---:|---:|---:|---|",
    ]
    for name, kind, bv, cv, delta, verdict in rows:
        if kind in ("missing", "mismatch", "new"):
            mark = "❌" if verdict == "MISSING" else ""
            lines.append(
                f"| `{name}` | {kind} | — | — | — | {verdict} {mark} |")
            continue
        delta_str = "—" if delta is None else f"{delta:+.1%}"
        mark = "❌" if verdict == "REGRESSION" else ""
        lines.append(
            f"| `{name}` | {kind} | {format_value(kind, bv)} | "
            f"{format_value(kind, cv)} | {delta_str} | {verdict} {mark} |"
        )
    lines.append("")
    return "\n".join(lines)


def run_compare(pairs, threshold, summary_path):
    all_markdown = []
    all_regressions = []
    for baseline_path, current_path, ratios_only in pairs:
        baseline = load_results(baseline_path)
        current = load_results(current_path)
        rows, regressions = compare_documents(baseline, current, threshold,
                                              ratios_only)
        title = os.path.basename(baseline_path)
        if ratios_only:
            title += " (ratios gated, times informational)"
        all_markdown.append(render_markdown(title, rows, threshold))
        all_regressions.extend(f"{title}: {name}" for name in regressions)
        print(f"-- {title}: {len(rows)} entries, "
              f"{len(regressions)} regression(s)")
        for name, kind, bv, cv, delta, verdict in rows:
            if verdict == "MISSING":
                print(f"   MISSING {name}: gated baseline entry absent "
                      "from the current run")
            elif verdict == "REGRESSION":
                print(f"   REGRESSION {name}: baseline "
                      f"{format_value(kind, bv)} -> current "
                      f"{format_value(kind, cv)} ({delta:+.1%})")

    markdown = "\n".join(all_markdown)
    if all_regressions:
        markdown += (
            f"\n**{len(all_regressions)} benchmark regression(s) beyond "
            f"the {threshold:.0%} gate.**\n"
        )
    else:
        markdown += "\nAll gated benchmarks within threshold. ✅\n"

    if summary_path:
        with open(summary_path, "w", encoding="utf-8") as f:
            f.write(markdown)
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a", encoding="utf-8") as f:
            f.write(markdown)

    if all_regressions:
        print(f"FAILED: {len(all_regressions)} regression(s)")
        return 1
    print("bench gate passed")
    return 0


def selftest():
    """Exercises the gate logic on synthetic documents, including the
    injected-regression case the CI gate must catch."""
    baseline = {
        "fast": {"name": "fast", "nanos_per_op": 100.0},
        "steady": {"name": "steady", "nanos_per_op": 1000.0},
        "ratio": {"name": "ratio", "speedup": 2.0},
        "rss": {"name": "rss", "value": 5000.0},
    }

    # Identical run: passes.
    rows, regs = compare_documents(baseline, dict(baseline), 0.25)
    assert not regs, regs

    # Small drift inside the gate: passes.
    drift = {
        "fast": {"name": "fast", "nanos_per_op": 120.0},
        "steady": {"name": "steady", "nanos_per_op": 900.0},
        "ratio": {"name": "ratio", "speedup": 1.8},
        "rss": {"name": "rss", "value": 9000.0},  # info only, never gates
    }
    rows, regs = compare_documents(baseline, drift, 0.25)
    assert not regs, regs

    # Injected synthetic regression: 2x slower must fail the gate.
    slow = dict(drift)
    slow["steady"] = {"name": "steady", "nanos_per_op": 2000.0}
    rows, regs = compare_documents(baseline, slow, 0.25)
    assert regs == ["steady"], regs

    # Collapsed ratio (external mode suddenly 3x slower relative to
    # in-memory) must fail too.
    bad_ratio = dict(drift)
    bad_ratio["ratio"] = {"name": "ratio", "speedup": 0.6}
    rows, regs = compare_documents(baseline, bad_ratio, 0.25)
    assert "ratio" in regs, regs

    # New benchmarks and a removed informational entry are reported but
    # do not gate.
    extra = dict(drift)
    extra["brand_new"] = {"name": "brand_new", "nanos_per_op": 1.0}
    del extra["rss"]
    rows, regs = compare_documents(baseline, extra, 0.25)
    assert not regs, regs
    kinds = {name: kind for name, kind, *_ in rows}
    assert kinds["brand_new"] == "new"
    assert kinds["rss"] == "missing"

    # A gated entry that vanished from the current run fails: a removed
    # time entry unless times are informational, a removed ratio always.
    no_fast = dict(drift)
    del no_fast["fast"]
    rows, regs = compare_documents(baseline, no_fast, 0.25)
    assert regs == ["fast"], regs
    rows, regs = compare_documents(baseline, no_fast, 0.25,
                                   ratios_only=True)
    assert not regs, regs
    no_ratio = dict(drift)
    del no_ratio["ratio"]
    rows, regs = compare_documents(baseline, no_ratio, 0.25)
    assert regs == ["ratio"], regs
    rows, regs = compare_documents(baseline, no_ratio, 0.25,
                                   ratios_only=True)
    assert regs == ["ratio"], regs
    assert "MISSING" in render_markdown("selftest", rows, 0.25)

    # ratios_only: absolute-time regressions are demoted to info, but a
    # collapsed ratio still fails.
    rows, regs = compare_documents(baseline, slow, 0.25, ratios_only=True)
    assert not regs, regs
    rows, regs = compare_documents(baseline, bad_ratio, 0.25,
                                   ratios_only=True)
    assert regs == ["ratio"], regs

    # Markdown renders without blowing up.
    md = render_markdown("selftest", rows, 0.25)
    assert "benchmark" in md
    print("bench_compare selftest passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("pairs", nargs="*",
                        help="BASELINE:CURRENT json path pairs")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fractional regression tolerance "
                             "(default 0.25)")
    parser.add_argument("--summary", default="",
                        help="also write the markdown summary here")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in logic checks and exit")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.pairs:
        parser.error("no BASELINE:CURRENT pairs given")
    pairs = []
    for raw in args.pairs:
        ratios_only = raw.endswith(":ratios")
        if ratios_only:
            raw = raw[: -len(":ratios")]
        if ":" not in raw:
            parser.error(f"expected BASELINE:CURRENT[:ratios], got '{raw}'")
        baseline_path, current_path = raw.split(":", 1)
        for p in (baseline_path, current_path):
            if not os.path.exists(p):
                parser.error(f"no such file: {p}")
        pairs.append((baseline_path, current_path, ratios_only))
    return run_compare(pairs, args.threshold, args.summary)


if __name__ == "__main__":
    sys.exit(main())
