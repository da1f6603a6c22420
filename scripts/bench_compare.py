#!/usr/bin/env python3
"""Diff two PATHCAS_BENCH_JSON files and flag throughput/latency regressions.

Every bench driver appends one JSON object per trial when PATHCAS_BENCH_JSON
is set (schema: docs/BENCHMARKING.md). This tool joins two such files on the
trial identity — (experiment, algo, threads, shards, batch, key_range,
dist, mix, arrival, qdepth, deadline_ns, update_pct, rq_pct, rq_size);
rows from files predating a field join on its default (shards=1, batch=1,
arrival="closed", qdepth=0, deadline_ns=0, i.e. closed-loop / no admission
control), and a combine_window column left in older files is not part of
the identity (the sharded map no longer combines updates) — combines duplicate rows (re-runs) by
their per-cell median, so one outlier run cannot move a cell, and reports
three per-cell deltas:

  * `mops`  — fails when throughput DROPS by more than --threshold-pct;
  * `goodput_mops` — fails when goodput (ops completed within the admission
    deadline per second) DROPS by more than --threshold-pct. Only gated
    where both files carry the field, so baselines predating admission
    control keep working.
  * `p99_ns` — fails when the overall p99 op latency RISES by more than
    --threshold-pct. Only gated where both files carry the field (trials run
    with PATHCAS_BENCH_LATENCY=1), so baselines predating latency recording
    keep working.

Rows carrying the full admission accounting (ops_offered / ops_admitted /
ops_shed / ops_rejected) are also checked for the accounting identity
`offered == admitted + shed + rejected`; a violating row is a parse error
(exit 2) — it means the emitting driver miscounted, and any comparison
against it would be meaningless.

The repo's CI runs it as a soft gate (--threshold-pct 15) against the
committed BENCH_baseline.json, regenerated from the same pinned smoke
configs by scripts/bench_baseline.sh: absolute throughput and latency are
machine-dependent, but the 15% margin on the pinned 2-thread smokes absorbs
runner noise while still tripping on real commit-path regressions
(docs/BENCHMARKING.md, "Comparing runs"). Re-baseline after any intentional
perf change.

Usage:
  scripts/bench_compare.py BASELINE.json NEW.json [--threshold-pct 25]
      [--p99-threshold-pct 100] [--min-mops 0.01] [--min-p99-ns 50]

Exit codes: 0 ok, 1 regression past threshold, 2 usage/parse error.
"""

import argparse
import json
import sys
from collections import defaultdict
from statistics import median

KEY_FIELDS = (
    "experiment",
    "algo",
    "threads",
    "shards",
    "batch",
    "key_range",
    "dist",
    "mix",
    "arrival",
    "qdepth",
    "deadline_ns",
    "update_pct",
    "rq_pct",
    "rq_size",
)

# Fields absent from older bench files join on a default instead of erroring
# (the committed baseline may predate them).
DEFAULT_FIELDS = {
    "shards": 1,
    "batch": 1,
    "arrival": "closed",
    "qdepth": 0,
    "deadline_ns": 0,
}

# Admission accounting (docs/BENCHMARKING.md, "Overload and goodput"): when a
# row carries all four counters they must satisfy the identity.
ACCOUNTING_FIELDS = ("ops_offered", "ops_admitted", "ops_shed", "ops_rejected")


def load(path):
    """Return {trial-key: (median mops, median p99_ns or None, median
    goodput_mops or None)} for a bench file, each the median over the rows
    that carry the field."""
    mops = defaultdict(list)
    p99 = defaultdict(list)
    good = defaultdict(list)
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as e:
                    print(f"{path}:{lineno}: bad JSON: {e}", file=sys.stderr)
                    sys.exit(2)
                try:
                    key = tuple(
                        row[k] if k not in DEFAULT_FIELDS
                        else row.get(k, DEFAULT_FIELDS[k])
                        for k in KEY_FIELDS
                    )
                    row_mops = float(row["mops"])
                except KeyError as e:
                    print(f"{path}:{lineno}: missing field {e}", file=sys.stderr)
                    sys.exit(2)
                if all(k in row for k in ACCOUNTING_FIELDS):
                    offered, admitted, shed, rejected = (
                        int(row[k]) for k in ACCOUNTING_FIELDS
                    )
                    if offered != admitted + shed + rejected:
                        print(
                            f"{path}:{lineno}: admission accounting identity "
                            f"violated: offered={offered} != "
                            f"admitted={admitted} + shed={shed} + "
                            f"rejected={rejected}",
                            file=sys.stderr,
                        )
                        sys.exit(2)
                mops[key].append(row_mops)
                if "p99_ns" in row:
                    p99[key].append(float(row["p99_ns"]))
                if "goodput_mops" in row:
                    good[key].append(float(row["goodput_mops"]))
    except OSError as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    return {
        k: (
            median(mops[k]),
            median(p99[k]) if p99[k] else None,
            median(good[k]) if good[k] else None,
        )
        for k in mops
    }


def fmt_key(key):
    d = dict(zip(KEY_FIELDS, key))
    # qdepth/deadline are already embedded in the arrival label when set
    # (poisson:<rate>:q<depth>:d<ns>), so the label stays compact.
    return (
        f"{d['experiment']}/{d['algo']} t={d['threads']} s={d['shards']} "
        f"b={d['batch']} "
        f"{d['dist']} {d['mix']} {d['arrival']} range={d['key_range']} "
        f"u={d['update_pct']}%"
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("new")
    ap.add_argument(
        "--threshold-pct",
        type=float,
        default=25.0,
        help="fail when any cell's mops drops — or its p99_ns rises — by "
        "more than this percentage (default: %(default)s)",
    )
    ap.add_argument(
        "--p99-threshold-pct",
        type=float,
        default=None,
        help="separate failure threshold for the p99 leg (default: same as "
        "--threshold-pct). Sampled tail quantiles on shared hardware swing "
        "far more run-to-run than mean throughput — one scheduler "
        "preemption lands in the p99 bucket — so a looser p99 bar keeps "
        "the gate sensitive to genuine blowups (saturation is 100x+) "
        "without tripping on scheduler noise",
    )
    ap.add_argument(
        "--min-mops",
        type=float,
        default=0.01,
        help="ignore cells whose baseline throughput is below this (too "
        "noisy to compare; default: %(default)s)",
    )
    ap.add_argument(
        "--min-p99-ns",
        type=float,
        default=50.0,
        help="skip the latency gate for cells whose baseline p99 is below "
        "this many ns (sub-bucket noise; default: %(default)s)",
    )
    args = ap.parse_args()
    if args.p99_threshold_pct is None:
        args.p99_threshold_pct = args.threshold_pct

    base = load(args.baseline)
    new = load(args.new)
    if not base:
        print(f"{args.baseline}: no trials", file=sys.stderr)
        sys.exit(2)
    if not new:
        print(f"{args.new}: no trials", file=sys.stderr)
        sys.exit(2)

    shared = sorted(set(base) & set(new))
    only_base = sorted(set(base) - set(new))
    only_new = sorted(set(new) - set(base))

    regressions = []
    print(f"{'mops%':>8} {'good%':>8} {'p99%':>8}  {'base':>9}  {'new':>9}  "
          "trial")
    for key in shared:
        (b, b_p99, b_good), (n, n_p99, n_good) = base[key], new[key]
        if b < args.min_mops:
            continue
        delta = (n - b) / b * 100.0
        p99_delta = None
        if (
            b_p99 is not None
            and n_p99 is not None
            and b_p99 >= args.min_p99_ns
        ):
            p99_delta = (n_p99 - b_p99) / b_p99 * 100.0
        # Goodput gates like throughput: a drop means deadline-meeting work
        # was lost (more shedding, slower service, or both).
        good_delta = None
        if (
            b_good is not None
            and n_good is not None
            and b_good >= args.min_mops
        ):
            good_delta = (n_good - b_good) / b_good * 100.0
        why = []
        if delta < -args.threshold_pct:
            why.append(f"mops {delta:+.1f}%")
        if good_delta is not None and good_delta < -args.threshold_pct:
            why.append(f"goodput {good_delta:+.1f}%")
        if p99_delta is not None and p99_delta > args.p99_threshold_pct:
            why.append(f"p99 {p99_delta:+.1f}%")
        marker = "  << REGRESSION" if why else ""
        if why:
            regressions.append((key, ", ".join(why)))
        p99_col = f"{p99_delta:+8.1f}" if p99_delta is not None else f"{'-':>8}"
        good_col = (f"{good_delta:+8.1f}" if good_delta is not None
                    else f"{'-':>8}")
        print(f"{delta:+8.1f} {good_col} {p99_col}  {b:9.3f}  {n:9.3f}  "
              f"{fmt_key(key)}{marker}")

    for key in only_base:
        print(f"    gone                    {base[key][0]:9.3f}  {'-':>9}  "
              f"{fmt_key(key)}")
    for key in only_new:
        print(f"     new                    {'-':>9}  {new[key][0]:9.3f}  "
              f"{fmt_key(key)}")

    if not shared:
        print("no overlapping trials between the two files", file=sys.stderr)
        sys.exit(2)

    if regressions:
        print(
            f"\n{len(regressions)} cell(s) regressed past "
            f"{args.threshold_pct:.0f}%:",
            file=sys.stderr,
        )
        for key, why in regressions:
            print(f"  {fmt_key(key)}: {why}", file=sys.stderr)
        sys.exit(1)
    print(f"\nok: {len(shared)} cell(s) within {args.threshold_pct:.0f}%")


if __name__ == "__main__":
    main()
