// Batched & combined commits: how much does amortizing descriptor
// publication across many logical ops buy, and which mechanism earns it?
// Two cells, one per mechanism, so the JSON artifact attributes the win:
//
//   wide-descriptor  PathCAS BST/AVL with driver-side update batching
//                    (TrialConfig.batch ∈ PATHCAS_BENCH_BATCH, default
//                    1,8,64,256,1024). batch=1 is the per-op k=1 fast-path
//                    baseline; batch≥2 nets the window per key, then routes
//                    the sorted run through updateBatch (one mixed
//                    traversal, one wide KCAS per chunk, on both trees).
//                    Rows: combine_window=0.
//   combining        sharded frontends with per-shard flat combining
//                    (Config::combineWindow 1 vs 32) under per-op
//                    submissions (batch=1): the combiner merges concurrent
//                    same-shard ops into one wide commit. Rows keyed by
//                    combine_window × shards.
//
// Default workload: zipfian:0.99 keys (the acceptance regime — hot runs
// make batched traversal sharing matter), u100 mix (every op is an update;
// reads don't exercise the commit path). PATHCAS_BENCH_DIST /
// PATHCAS_BENCH_MIX override as usual; PATHCAS_BENCH_SHARDS scopes the
// combining cell. The trailing summary prints, for the reader, each batch
// width's and combine window's peak applied Mops as a ratio of its per-op
// baseline; CI gates the JSON rows, not the summary.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_helpers.hpp"

using namespace pathcas;
using namespace pathcas::bench;
using namespace pathcas::testing;

namespace {

/// batch_commit's CSV schema: identification (incl. batch width and combine
/// window — the two axes under attribution) + throughput, both submitted
/// and applied. Under window netting, submitted mops counts netted-away ops
/// that never executed; the attribution ratios below use applied mops so a
/// wider window cannot claim credit for work it skipped.
void printBatchCsv(const std::string& experiment, const std::string& algo,
                   const TrialConfig& cfg, const TrialResult& r) {
  std::printf("csv,%s,%s,%d,%d,%d,%d,%lld,%s,%s,%.3f,%.3f,%llu,%llu,%.1f\n",
              experiment.c_str(), algo.c_str(), cfg.threads, cfg.shards,
              cfg.batch, cfg.combineWindow,
              static_cast<long long>(cfg.keyRange), cfg.dist.label().c_str(),
              cfg.mix.c_str(), r.mops, r.mopsApplied,
              static_cast<unsigned long long>(r.totalOps),
              static_cast<unsigned long long>(r.opsApplied), r.nsPerOp);
}

/// Cell 1: wide-descriptor attribution. Per-tree peak *applied* Mops keyed
/// by batch width; batch=1 is the per-op baseline the speedups are quoted
/// against (at batch=1 applied == submitted).
template <typename Adapter>
void sweepBatch(const std::vector<int>& threads,
                const std::vector<int>& batches, const TrialConfig& base,
                std::map<int, double>* peaks) {
  for (int b : batches) {
    TrialConfig cfg = base;
    cfg.batch = b;
    std::printf("%-22s  (batch %d)\n", (Adapter::name() + ":").c_str(), b);
    double cellPeak = 0.0;
    sweepThreads<Adapter>(
        "batch_commit", threads, cfg,
        [&cellPeak](const std::string& experiment, const std::string& algo,
                    const TrialConfig& c, const TrialResult& r) {
          printBatchCsv(experiment, algo, c, r);
          cellPeak = std::max(cellPeak, r.mopsApplied);
        });
    (*peaks)[b] = cellPeak;
  }
}

/// Cell 2: combining attribution. Window 1 = direct per-op commits (the
/// combiner path disabled); window 32 = flat combining. Applied Mops keyed
/// by (shards, window).
template <typename Adapter>
void sweepCombine(const std::vector<int>& threads, const TrialConfig& base,
                  std::map<std::pair<int, int>, double>* peaks) {
  for (int nshards : defaultShards()) {
    for (int window : {1, 32}) {
      TrialConfig cfg = base;
      cfg.shards = nshards;
      cfg.combineWindow = window;
      std::printf("%-22s  (shards %d, window %d)\n",
                  (Adapter::name() + ":").c_str(), nshards, window);
      double cellPeak = 0.0;
      sweepThreads<Adapter>(
          "batch_commit", threads, cfg,
          [&cellPeak](const std::string& experiment, const std::string& algo,
                      const TrialConfig& c, const TrialResult& r) {
            printBatchCsv(experiment, algo, c, r);
            cellPeak = std::max(cellPeak, r.mopsApplied);
          });
      (*peaks)[{nshards, window}] = cellPeak;
    }
  }
}

}  // namespace

int main() {
  const auto threads = defaultThreads();
  const auto batches = defaultBatches();

  TrialConfig base = withUpdates({}, 100.0);  // 50% insert + 50% delete
  // Group commit targets the write-contended hot-range regime: a small key
  // range keeps the zipfian hot set dense in the tree, so sorted runs share
  // long path prefixes and window netting settles a large fraction of the
  // ops. Large ranges spread the run across disjoint paths and the batch
  // degenerates to per-op traversals — that regime is skew_sweep's job.
  // A hot key whose window holds an erase ends absent, so wide windows
  // drain the hot set and more of their applied ops change nothing than at
  // batch=1 (docs/BENCHMARKING.md, PATHCAS_BENCH_BATCH).
  base.keyRange = 1 << 10;
  base.durationMs = scaledDurationMs(80, 2000);
  base.dist.kind = DistKind::kZipfian;
  base.dist.theta = 0.99;

  printHeader("Batch commit: " + describeWorkload(base) + ", keyrange " +
                  std::to_string(base.keyRange),
              threads);

  std::printf("-- wide-descriptor: driver batching, plain trees --\n");
  std::map<int, double> bstPeaks, avlPeaks;
  sweepBatch<PathCasBstAdapter<false>>(threads, batches, base, &bstPeaks);
  sweepBatch<PathCasAvlAdapter<false>>(threads, batches, base, &avlPeaks);

  std::printf("-- combining: sharded frontends, per-op submissions --\n");
  std::map<std::pair<int, int>, double> shBstPeaks, shAvlPeaks;
  sweepCombine<ShardedBstAdapter<>>(threads, base, &shBstPeaks);
  sweepCombine<ShardedAvlAdapter<>>(threads, base, &shAvlPeaks);

  // Attribution summary: ratios for the reader (file comment); no gate
  // reads them.
  std::printf(
      "\n== attribution (peak APPLIED Mops over the thread sweep — "
      "netted-away ops earn no credit) ==\n");
  struct TreeRow {
    const char* name;
    const std::map<int, double>* peaks;
  } treeRows[] = {{"int-bst-pathcas", &bstPeaks},
                  {"int-avl-pathcas", &avlPeaks}};
  for (const auto& row : treeRows) {
    const auto b1 = row.peaks->find(1);
    if (b1 == row.peaks->end() || b1->second <= 0.0) continue;
    for (const auto& [b, mops] : *row.peaks) {
      if (b == 1) continue;
      std::printf("wide-descriptor  %-18s batch %3d vs 1: %5.2fx "
                  "(%.3f vs %.3f Mops)\n",
                  row.name, b, mops / b1->second, mops, b1->second);
    }
  }
  struct ShRow {
    const char* name;
    const std::map<std::pair<int, int>, double>* peaks;
  } shRows[] = {{"sharded-bst", &shBstPeaks}, {"sharded-avl", &shAvlPeaks}};
  for (const auto& row : shRows) {
    for (const auto& [key, mops] : *row.peaks) {
      const auto [nshards, window] = key;
      if (window == 1) continue;
      const auto direct = row.peaks->find({nshards, 1});
      if (direct == row.peaks->end() || direct->second <= 0.0) continue;
      std::printf("combining        %-18s shards %2d window %2d vs 1: %5.2fx "
                  "(%.3f vs %.3f Mops)\n",
                  row.name, nshards, window, mops / direct->second, mops,
                  direct->second);
    }
  }
  return 0;
}
