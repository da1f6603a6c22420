#!/usr/bin/env bash
# Regenerate the committed bench baseline (BENCH_baseline.json) from the
# exact pinned smoke configs CI gates against (.github/workflows/ci.yml:
# "Gate against committed bench baseline"). Run from the repo root on the
# reference machine after an intentional perf change, then commit the
# refreshed file:
#
#   scripts/bench_baseline.sh [build-dir]   # default build dir: ./build
#
# The gate (scripts/bench_compare.py --threshold-pct 15) joins rows on the
# full workload identity — experiment, algo, threads, shards, batch,
# key_range, dist, mix, arrival, qdepth, deadline_ns, update_pct, rq_pct,
# rq_size — so the baseline must come from these configs verbatim; a drifted
# config shows up as unmatched rows, not a bogus pass. Latency recording is
# on (PATHCAS_BENCH_LATENCY=1) so the rows carry p50/p99/p999 columns and
# the gate covers p99 latency alongside throughput.
set -euo pipefail

build_dir="${1:-build}"
out="BENCH_baseline.json"
# bench_compare.py combines rows with identical trial identity by their
# per-cell median, so repeated passes keep one outlier run (a p99 cell hit by
# a scheduler stall, say) out of the baseline without any schema change.
# Override with BASELINE_REPEATS=1 for a quick refresh.
repeats="${BASELINE_REPEATS:-3}"

for bench in skew_sweep batch_commit cache_workload overload_profile; do
  if [[ ! -x "$build_dir/bench/$bench" ]]; then
    echo "error: $build_dir/bench/$bench not built (cmake --build $build_dir)" >&2
    exit 1
  fi
done

rm -f "$out"

for ((rep = 0; rep < repeats; ++rep)); do
  PATHCAS_BENCH_THREADS=2 \
  PATHCAS_BENCH_DIST=zipfian:0.99 \
  PATHCAS_BENCH_MIX=ycsb-b \
  PATHCAS_BENCH_SHARDS=1,4 \
  PATHCAS_BENCH_LATENCY=1 \
  PATHCAS_BENCH_JSON="$out" \
    "$build_dir/bench/skew_sweep" >/dev/null

  PATHCAS_BENCH_THREADS=2 \
  PATHCAS_BENCH_BATCH=1,8 \
  PATHCAS_BENCH_SHARDS=1,4 \
  PATHCAS_BENCH_LATENCY=1 \
  PATHCAS_BENCH_JSON="$out" \
    "$build_dir/bench/batch_commit" >/dev/null

  PATHCAS_BENCH_THREADS=2 \
  PATHCAS_BENCH_DIST=zipfian:0.99 \
  PATHCAS_BENCH_LATENCY=1 \
  PATHCAS_BENCH_JSON="$out" \
    "$build_dir/bench/cache_workload" >/dev/null

  # PATHCAS_BENCH_CAPACITY pins the capacity probe so the derived open-loop
  # arrival labels — part of the bench_compare join key — match CI's verbatim.
  PATHCAS_BENCH_THREADS=2 \
  PATHCAS_BENCH_BATCH=1,64 \
  PATHCAS_BENCH_SHARDS=2 \
  PATHCAS_BENCH_CAPACITY=400000 \
  PATHCAS_BENCH_QDEPTH=256 \
  PATHCAS_BENCH_DEADLINE=2000000 \
  PATHCAS_BENCH_JSON="$out" \
    "$build_dir/bench/overload_profile" >/dev/null
done

echo "wrote $(wc -l <"$out") baseline rows to $out ($repeats repeats)"
