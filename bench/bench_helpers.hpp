// Shared plumbing for the figure-reproduction benches: thread sweeps over an
// adapter type, EBR drain between cells, and CSV emission alongside the
// human-readable rows.
//
// Knobs (full reference: docs/BENCHMARKING.md):
//   PATHCAS_BENCH_THREADS  comma-separated thread counts for the sweep
//                          (default "1,2,4,8"; each must be in [1, 256])
//   PATHCAS_BENCH_SCALE    "quick" (default) or "full" for paper-scale key
//                          ranges and durations (driver.hpp)
//   PATHCAS_BENCH_DIST     key distribution override (uniform | zipfian:θ |
//                          hotspot:kf:of | latest[:θ] | seq) — applied to
//                          every sweep by sweepThreads (driver.hpp,
//                          applyEnvWorkload)
//   PATHCAS_BENCH_MIX      operation-mix preset override (ycsb-a/b/c/e,
//                          u0/u1/u10/u50/u100)
//   PATHCAS_BENCH_SHARDS   comma-separated shard counts for the sharded-
//                          frontend sweeps (default "1,2,4,8")
//   PATHCAS_BENCH_BATCH    comma-separated update-batch widths for benches
//                          with a batch axis (default "1,8,64,256,1024";
//                          1 = per-op k=1 fast-path baseline)
//   PATHCAS_BENCH_LATENCY  "1"/"on" records per-op latency histograms and
//                          reports p50/p99/p999/max ns per category
//                          (driver.hpp, bench_fw/latency.hpp)
//   PATHCAS_BENCH_ARRIVAL  arrival process: "closed" (default) or
//                          "poisson:<opsPerSec>" open loop, where latency
//                          runs from each op's scheduled arrival
//   PATHCAS_BENCH_JSON     JSON Lines sink, one object per trial
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_fw/adapters.hpp"
#include "bench_fw/driver.hpp"
#include "recl/ebr.hpp"

namespace pathcas::bench {

/// Parse a comma-separated int list with every element in [1, maxValue].
/// Returns false (leaving *out untouched beyond scratch) on any malformed
/// input, so callers can fall back to their default and warn once.
inline bool parseIntList(const char* s, int maxValue, std::vector<int>* out) {
  std::vector<int> vals;
  int cur = 0;
  bool haveDigit = false;
  for (const char* p = s;; ++p) {
    if (*p >= '0' && *p <= '9') {
      cur = cur * 10 + (*p - '0');
      haveDigit = true;
      if (cur > maxValue) return false;
    } else if (*p == ',' || *p == '\0') {
      if (!haveDigit || cur < 1) return false;
      vals.push_back(cur);
      cur = 0;
      haveDigit = false;
      if (*p == '\0') break;
    } else {
      return false;
    }
  }
  if (vals.empty()) return false;
  *out = std::move(vals);
  return true;
}

/// Thread counts for each sweep: PATHCAS_BENCH_THREADS ("4" or "1,2,4,8,16")
/// when set and well-formed, else {1, 2, 4, 8}.
inline std::vector<int> defaultThreads() {
  if (const char* s = std::getenv("PATHCAS_BENCH_THREADS")) {
    std::vector<int> out;
    if (parseIntList(s, kMaxThreads, &out)) return out;
    std::fprintf(stderr,
                 "ignoring malformed PATHCAS_BENCH_THREADS=\"%s\" "
                 "(want e.g. \"1,2,4,8\", counts in [1, %d])\n",
                 s, kMaxThreads);
  }
  return {1, 2, 4, 8};
}

/// Shard counts for the sharded-frontend sweeps: PATHCAS_BENCH_SHARDS
/// ("1,4") when set and well-formed, else {1, 2, 4, 8}. Capped at
/// kMaxThreads — more shards than registerable threads is never useful.
inline std::vector<int> defaultShards() {
  if (const char* s = std::getenv("PATHCAS_BENCH_SHARDS")) {
    std::vector<int> out;
    if (parseIntList(s, kMaxThreads, &out)) return out;
    std::fprintf(stderr,
                 "ignoring malformed PATHCAS_BENCH_SHARDS=\"%s\" "
                 "(want e.g. \"1,2,4,8\", counts in [1, %d])\n",
                 s, kMaxThreads);
  }
  return {1, 2, 4, 8};
}

/// Update-batch widths for benches with a batch axis (bench/batch_commit):
/// PATHCAS_BENCH_BATCH ("1,16") when set and well-formed, else
/// {1, 8, 64, 256, 1024}. Width 1 is the per-op k=1 fast-path baseline
/// every speedup is quoted against. Widths beyond the trees' chunk size
/// (IntBstOptions::batchOpsPerCommit) still pay off: the driver nets
/// duplicate keys across the whole window before submitting, and under a
/// skewed distribution the netted fraction grows with the window. Capped
/// at 4096 — past that the flush's sort dominates any further netting.
inline std::vector<int> defaultBatches() {
  if (const char* s = std::getenv("PATHCAS_BENCH_BATCH")) {
    std::vector<int> out;
    if (parseIntList(s, 4096, &out)) return out;
    std::fprintf(stderr,
                 "ignoring malformed PATHCAS_BENCH_BATCH=\"%s\" "
                 "(want e.g. \"1,8,64\", widths in [1, 4096])\n",
                 s);
  }
  return {1, 8, 64, 256, 1024};
}

/// Per-cell CSV emitter, swappable per experiment (the sweep loop itself —
/// fresh structure per cell, JSON emission, EBR drain between cells — is
/// shared and must not be duplicated).
using CsvPrinter = std::function<void(
    const std::string& experiment, const std::string& algo,
    const TrialConfig& cfg, const TrialResult& r)>;

/// The default `csv,<experiment>,...` schema shared by the figure benches;
/// trailing dist/mix/batch/arrival columns keep CSV rows self-describing
/// under the PATHCAS_BENCH_DIST / _MIX / _BATCH / _ARRIVAL overrides, and
/// the latency columns (p50/p99/p999 ns over all op categories, sched p99)
/// are zero unless PATHCAS_BENCH_LATENCY enabled recording.
inline void printStandardCsv(const std::string& experiment,
                             const std::string& algo, const TrialConfig& cfg,
                             const TrialResult& r) {
  std::printf("csv,%s,%s,%d,%lld,%.0f,%.3f,%llu,%llu,%.1f,%s,%s,%d,%s,"
              "%.0f,%.0f,%.0f,%.0f\n",
              experiment.c_str(), algo.c_str(), cfg.threads,
              static_cast<long long>(cfg.keyRange),
              (cfg.insertFrac + cfg.deleteFrac) * 100.0, r.mops,
              static_cast<unsigned long long>(r.totalOps),
              static_cast<unsigned long long>(r.opsApplied), r.nsPerOp,
              cfg.dist.label().c_str(), cfg.mix.c_str(), cfg.batch,
              cfg.arrival.label().c_str(), r.lat.overall.p50Ns,
              r.lat.overall.p99Ns, r.lat.overall.p999Ns,
              r.lat.of(OpCat::kSched).p99Ns);
}

/// Which environment workload knobs a sweep honours: benches whose mix is
/// the experiment's own axis (rq_mix's RQ grid) take only the distribution.
enum class EnvKnobs { kDistAndMix, kDistOnly };

/// True if `Adapter` can run cfg's operation mix. A scan-bearing mix
/// (PATHCAS_BENCH_MIX=ycsb-e) on a structure without rangeQuery — the
/// TM/MCMS baselines — is reported and skipped, rather than letting the
/// driver's rqFrac assertion kill the whole sweep half-done.
template <typename Adapter>
bool mixSupported(const TrialConfig& cfg) {
  if constexpr (!HasRangeQuery<Adapter>) {
    if (cfg.rqFrac > 0.0) {
      std::fprintf(stderr,
                   "skipping %s: mix \"%s\" has %.0f%% scans but the "
                   "structure has no rangeQuery\n",
                   Adapter::name().c_str(), cfg.mix.c_str(),
                   cfg.rqFrac * 100.0);
      std::printf("%-22s  (skipped: no rangeQuery for mix %s)\n",
                  Adapter::name().c_str(), cfg.mix.c_str());
      return false;
    }
  }
  return true;
}

/// A fresh `Adapter` for one cell. Adapters constructible from the
/// TrialConfig (the sharded frontends) get it, so cfg.shards / cfg.keyRange
/// shape the instance; the rest default-construct.
template <typename Adapter>
std::unique_ptr<Adapter> makeAdapter(const TrialConfig& cfg) {
  if constexpr (std::is_constructible_v<Adapter, const TrialConfig&>) {
    return std::make_unique<Adapter>(cfg);
  } else {
    return std::make_unique<Adapter>();
  }
}

/// Run `Adapter` across thread counts; prints a row and a CSV block line per
/// cell. Returns Mops per thread count. The PATHCAS_BENCH_DIST /
/// PATHCAS_BENCH_MIX environment overrides are applied to the base config
/// here, so every bench built on sweepThreads honours them for free.
template <typename Adapter>
std::vector<double> sweepThreads(const std::string& experiment,
                                 const std::vector<int>& threads,
                                 TrialConfig base,
                                 const CsvPrinter& csv = printStandardCsv,
                                 EnvKnobs knobs = EnvKnobs::kDistAndMix) {
  if (knobs == EnvKnobs::kDistOnly)
    applyEnvDist(base);
  else
    applyEnvWorkload(base);
  if (!mixSupported<Adapter>(base)) return {};
  std::vector<double> mops;
  for (int t : threads) {
    TrialConfig cfg = base;
    cfg.threads = t;
    const TrialResult r =
        runCell([&cfg] { return makeAdapter<Adapter>(cfg); }, cfg);
    mops.push_back(r.mops);
    csv(experiment, Adapter::name(), cfg, r);
    jsonAppendTrial(experiment, Adapter::name(), cfg, r);
    recl::EbrDomain::instance().drainAll();
  }
  printRow(Adapter::name(), mops);
  return mops;
}

/// Update-rate helper: the paper's U% updates = U/2% insert + U/2% delete.
/// Names the mix accordingly ("u10" for 10%).
inline TrialConfig withUpdates(TrialConfig cfg, double updatePercent) {
  cfg.insertFrac = updatePercent / 200.0;
  cfg.deleteFrac = updatePercent / 200.0;
  char name[32];
  if (updatePercent == static_cast<double>(static_cast<int>(updatePercent)))
    std::snprintf(name, sizeof name, "u%d", static_cast<int>(updatePercent));
  else
    std::snprintf(name, sizeof name, "u%g", updatePercent);
  cfg.mix = name;
  return cfg;
}

}  // namespace pathcas::bench
