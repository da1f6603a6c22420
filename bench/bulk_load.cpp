// Bulk-load bench: parallel ShardedMap::bulkLoad vs a serial shuffled
// insert loop on one thread, across shard count × worker thread count. The
// build is the same random half of the key range either way (prefillKeys),
// so the resulting structures hold the same keys (validated by size +
// keysum) and the numbers isolate construction cost: the serial loop pays
// pointer-chasing inserts one at a time; bulkLoad partitions the sorted
// keys by shard, feeds each shard median-first (balanced), and spreads
// chunks over workers with per-shard affinity. (prefillHalf itself inserts
// the shuffled keys from prefillThreads() workers into sets without
// bulkLoad; neither prefill path is serial.)
//
// Rows: human-readable + `grep '^csv,bulk_load'`
//   csv,bulk_load,<algo>,<threads>,<shards>,<keys>,<seconds>,<mkeys_per_s>,<speedup_vs_serial>
// plus PATHCAS_BENCH_JSON objects (mops carries Mkeys/s for this
// experiment; threads/shards identify the cell). Quick scale builds 2^17
// keys; PATHCAS_BENCH_SCALE=full builds 2^21 (~2M, the ISSUE's 1M+ floor).
#include <algorithm>

#include "bench_helpers.hpp"
#include "util/timing.hpp"

using namespace pathcas;
using namespace pathcas::bench;
using namespace pathcas::testing;

namespace {

void printBulkCsv(const std::string& algo, const TrialConfig& cfg,
                  std::size_t nkeys, double seconds, double speedup) {
  std::printf("csv,bulk_load,%s,%d,%d,%zu,%.4f,%.3f,%.2f\n", algo.c_str(),
              cfg.threads, cfg.shards, nkeys, seconds,
              static_cast<double>(nkeys) / seconds / 1e6, speedup);
  std::fflush(stdout);
}

void emitJson(const std::string& algo, const TrialConfig& cfg,
              std::size_t nkeys, double seconds, bool ok) {
  TrialResult r;
  r.totalOps = nkeys;
  r.opsOffered = nkeys;  // closed loop: offered == executed, nothing shed
  r.elapsedSec = seconds;
  r.mops = static_cast<double>(nkeys) / seconds / 1e6;  // Mkeys/s here
  r.goodputMops = r.mops;
  r.inserts = nkeys;
  r.keysumOk = ok;
  jsonAppendTrial("bulk_load", algo, cfg, r);
}

/// One cell: build a fresh nshards-map from `shuffled`/`sorted` and return
/// the wall-clock seconds. threads == 0 means the serial insert baseline.
template <typename Adapter>
double buildCell(int nshards, int threads,
                 const std::vector<std::int64_t>& shuffled,
                 const std::vector<std::int64_t>& sorted,
                 std::int64_t expectSum) {
  TrialConfig cfg;
  cfg.shards = nshards;
  cfg.threads = std::max(1, threads);
  cfg.keyRange = static_cast<std::int64_t>(shuffled.size()) * 2;
  cfg.mix = "bulkload";
  Adapter a(cfg);
  StopWatch sw;
  std::int64_t sum = 0;
  if (threads == 0) {
    for (const std::int64_t k : shuffled) {
      if (a.insert(k, k)) sum += k;
    }
  } else {
    sum = a.bulkLoad(sorted, threads);
  }
  const double sec = sw.elapsedSeconds();
  const bool ok = sum == expectSum &&
                  a.size() == shuffled.size() && a.keySum() == expectSum;
  PATHCAS_CHECK(ok && "bulk load produced a different set than serial");
  const std::string algo =
      threads == 0 ? Adapter::name() + "-serial" : Adapter::name() + "-bulk";
  emitJson(algo, cfg, shuffled.size(), sec, ok);
  return sec;
}

}  // namespace

int main() {
  const std::int64_t keyRange = scaledKeys(1 << 17, 1 << 21);
  // The key subset every build uses: prefillHalf's shuffled random half,
  // so rows are comparable with trial prefills.
  const auto shuffled = prefillKeys(keyRange);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  std::int64_t expectSum = 0;
  for (const std::int64_t k : shuffled) expectSum += k;

  std::printf("== Bulk load: %zu keys (range %lld) ==\n", shuffled.size(),
              static_cast<long long>(keyRange));
  std::printf("%-24s %8s %8s %10s %12s %9s\n", "builder", "threads", "shards",
              "seconds", "Mkeys/s", "speedup");
  for (int nshards : defaultShards()) {
    TrialConfig id;
    id.shards = nshards;
    id.threads = 1;
    // Serial baseline: shuffled one-at-a-time inserts on one thread,
    // against the same shard count.
    const double serialSec = buildCell<ShardedBstAdapter<>>(
        nshards, /*threads=*/0, shuffled, sorted, expectSum);
    std::printf("%-24s %8d %8d %10.4f %12.3f %9s\n", "sharded-bst-serial", 1,
                nshards, serialSec,
                static_cast<double>(shuffled.size()) / serialSec / 1e6, "1.00");
    id.mix = "bulkload";
    printBulkCsv("sharded-bst-serial", id, shuffled.size(), serialSec, 1.0);
    for (int threads : defaultThreads()) {
      const double sec = buildCell<ShardedBstAdapter<>>(
          nshards, threads, shuffled, sorted, expectSum);
      TrialConfig cell = id;
      cell.threads = threads;
      const double speedup = serialSec / sec;
      std::printf("%-24s %8d %8d %10.4f %12.3f %9.2f\n", "sharded-bst-bulk",
                  threads, nshards, sec,
                  static_cast<double>(shuffled.size()) / sec / 1e6, speedup);
      printBulkCsv("sharded-bst-bulk", cell, shuffled.size(), sec, speedup);
    }
  }
  return 0;
}
