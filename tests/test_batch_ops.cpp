// Batched group commits (insertBatch/eraseBatch/updateBatch): sequential
// semantics against a std::map oracle under randomized batch/point
// interleavings, chunk-split determinism (outcomes must not depend on
// batchOpsPerCommit), graceful degradation when the staging budget
// overflows on deep trees, the mixed-run two-child/deferred erase shapes,
// the same-key netting rule (service/netting.hpp) against a sequential
// replay, and windowed linearizability stress mixing batched submissions
// with racing single-op commits — on the plain trees and on the sharded
// frontend, so one suite covers every layer a batch can commit through.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "bench_fw/adapters.hpp"
#include "lin_check.hpp"
#include "service/netting.hpp"
#include "service/sharded_map.hpp"
#include "trees/int_avl_pathcas.hpp"
#include "trees/int_bst_pathcas.hpp"
#include "util/rand.hpp"
#include "util/thread_registry.hpp"

namespace pathcas::testing {
namespace {

using Bst = ds::IntBstPathCas<std::int64_t, std::int64_t>;
using Avl = ds::IntAvlPathCas<std::int64_t, std::int64_t>;
using BstMap = service::ShardedMap<Bst>;

constexpr std::size_t kMaxW = 160;  // widest batch any test submits

/// Sorted distinct key run drawn from [0, keySpace), width 1..maxW.
std::vector<std::int64_t> randomRun(Xoshiro256& rng, std::int64_t keySpace,
                                    std::size_t maxW) {
  const std::size_t w = 1 + rng.nextBounded(maxW);
  std::set<std::int64_t> picked;
  for (std::size_t i = 0; i < w; ++i)
    picked.insert(static_cast<std::int64_t>(
        rng.nextBounded(static_cast<std::uint64_t>(keySpace))));
  return {picked.begin(), picked.end()};
}

/// Randomized batch/point interleaving vs a std::map oracle. Batch keys are
/// distinct, so each op's expected outcome is independent of its batch
/// siblings: outcome[i] must equal what a per-op call would have returned
/// against the pre-batch state with the earlier batch ops applied — which,
/// for distinct keys, is just the pre-batch state.
template <typename Tree>
void runBatchOracleFuzz(const ds::IntBstOptions& opt, std::int64_t keySpace,
                        int steps, std::uint64_t seed) {
  Tree t(opt);
  std::map<std::int64_t, std::int64_t> oracle;
  Xoshiro256 rng(seed);
  bool out[kMaxW];
  bool ins[kMaxW];

  for (int step = 0; step < steps; ++step) {
    const std::uint64_t action = rng.nextBounded(6);
    const std::int64_t k = static_cast<std::int64_t>(
        rng.nextBounded(static_cast<std::uint64_t>(keySpace)));
    switch (action) {
      case 0:
        EXPECT_EQ(t.insert(k, k), oracle.emplace(k, k).second);
        break;
      case 1:
        EXPECT_EQ(t.erase(k), oracle.erase(k) != 0);
        break;
      case 2:
        EXPECT_EQ(t.contains(k), oracle.count(k) != 0);
        break;
      case 3: {  // insertBatch
        const auto run = randomRun(rng, keySpace, 100);
        std::size_t n = t.insertBatch(run.data(), run.data(), run.size(), out);
        std::size_t expect = 0;
        for (std::size_t i = 0; i < run.size(); ++i) {
          EXPECT_EQ(out[i], oracle.emplace(run[i], run[i]).second)
              << "insertBatch key " << run[i];
          expect += out[i];
        }
        EXPECT_EQ(n, expect);
        break;
      }
      case 4: {  // eraseBatch
        const auto run = randomRun(rng, keySpace, 100);
        std::size_t n = t.eraseBatch(run.data(), run.size(), out);
        std::size_t expect = 0;
        for (std::size_t i = 0; i < run.size(); ++i) {
          EXPECT_EQ(out[i], oracle.erase(run[i]) != 0)
              << "eraseBatch key " << run[i];
          expect += out[i];
        }
        EXPECT_EQ(n, expect);
        break;
      }
      default: {  // updateBatch (mixed run)
        const auto run = randomRun(rng, keySpace, 100);
        for (std::size_t i = 0; i < run.size(); ++i)
          ins[i] = rng.nextBounded(2) != 0;
        std::size_t n =
            t.updateBatch(run.data(), run.data(), ins, run.size(), out);
        std::size_t expect = 0;
        for (std::size_t i = 0; i < run.size(); ++i) {
          const bool want = ins[i] ? oracle.emplace(run[i], run[i]).second
                                   : oracle.erase(run[i]) != 0;
          EXPECT_EQ(out[i], want)
              << (ins[i] ? "mixed insert key " : "mixed erase key ")
              << run[i];
          expect += out[i];
        }
        EXPECT_EQ(n, expect);
        break;
      }
    }
    if (step % 64 == 0) {
      const auto stats = t.checkInvariants();
      ASSERT_EQ(stats.size, oracle.size()) << "at step " << step;
    }
  }
  // Final full sweep: exact contents, not just aggregates.
  const auto stats = t.checkInvariants();
  ASSERT_EQ(stats.size, oracle.size());
  std::int64_t oracleSum = 0;
  for (const auto& [ok, ov] : oracle) oracleSum += ok;
  EXPECT_EQ(stats.keySum, oracleSum);
  auto it = oracle.begin();
  t.forEach([&](std::int64_t fk, std::int64_t fv) {
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(fk, it->first);
    EXPECT_EQ(fv, it->second);
    ++it;
  });
  EXPECT_EQ(it, oracle.end());
}

TEST(BatchOps, BstOracleFuzz) {
  runBatchOracleFuzz<Bst>({}, 512, 1200, 0xBA7C1);
}

TEST(BatchOps, BstOracleFuzzSmallKeySpace) {
  // Tiny key space: nearly every batch op hits occupied keys, so erase runs
  // constantly land on internal (incl. two-child) nodes and mixed runs
  // exercise the defer/swap decisions instead of the easy leaf cases.
  runBatchOracleFuzz<Bst>({}, 48, 1500, 0xBA7C2);
}

TEST(BatchOps, AvlOracleFuzz) {
  runBatchOracleFuzz<Avl>({}, 512, 1200, 0xBA7C3);
}

TEST(BatchOps, AvlOracleFuzzSmallKeySpace) {
  // As for the BST: most erase matches are one- or two-child nodes, which
  // the AVL defers, and mixed runs unlink leaves beside staged inserts.
  runBatchOracleFuzz<Avl>({}, 48, 1500, 0xBA7C4);
}

// Outcomes and final contents must not depend on batchOpsPerCommit: the
// split-in-half retry ladder reaches width 1 for every chunk width, so a
// replayed identical op sequence must agree bit-for-bit across widths.
template <typename Tree>
void runChunkWidthDeterminism() {
  const std::uint64_t kSeed = 0x5EED5;
  const int kSteps = 600;
  std::vector<std::vector<bool>> firstOutcomes;
  std::vector<std::pair<std::int64_t, std::int64_t>> firstContents;
  bool first = true;
  for (int chunk : {1, 2, 3, 7, 32, 128}) {
    Tree t(ds::IntBstOptions{.batchOpsPerCommit = chunk});
    Xoshiro256 rng(kSeed);
    bool out[kMaxW];
    bool ins[kMaxW];
    std::vector<std::vector<bool>> outcomes;
    for (int step = 0; step < kSteps; ++step) {
      const auto run = randomRun(rng, 256, 100);
      const std::uint64_t kind = rng.nextBounded(3);
      for (std::size_t i = 0; i < run.size(); ++i)
        ins[i] = rng.nextBounded(2) != 0;
      if (kind == 0) {
        t.insertBatch(run.data(), run.data(), run.size(), out);
      } else if (kind == 1) {
        t.eraseBatch(run.data(), run.size(), out);
      } else {
        t.updateBatch(run.data(), run.data(), ins, run.size(), out);
      }
      outcomes.emplace_back(out, out + run.size());
    }
    std::vector<std::pair<std::int64_t, std::int64_t>> contents;
    t.rangeQuery(0, 255, contents);
    t.checkInvariants();
    if (first) {
      firstOutcomes = std::move(outcomes);
      firstContents = std::move(contents);
      first = false;
    } else {
      EXPECT_EQ(outcomes, firstOutcomes) << "chunk width " << chunk;
      EXPECT_EQ(contents, firstContents) << "chunk width " << chunk;
    }
  }
}

TEST(BatchOps, ChunkWidthDeterminism) {
  {
    SCOPED_TRACE("int-bst-pathcas");
    runChunkWidthDeterminism<Bst>();
  }
  {
    SCOPED_TRACE("int-avl-pathcas");
    runChunkWidthDeterminism<Avl>();
  }
}

TEST(BatchOps, DeepChainOverflowSplitsToPerOp) {
  // Sequential inserts build a right-spine chain ~460 deep — deep enough
  // that staging a whole batch blows the shared staging budget
  // (kBatchStageBudget) and the run must split down to per-op commits,
  // while still within what per-op path validation supports.
  constexpr std::int64_t kDepth = 460;
  Bst t;
  std::map<std::int64_t, std::int64_t> oracle;
  for (std::int64_t k = 0; k < kDepth; k += 2) {
    ASSERT_TRUE(t.insert(k, k));
    oracle.emplace(k, k);
  }
  bool out[kMaxW];
  // Insert the odd keys near the bottom of the chain: every staged op
  // carries the full ~460-node path, so even a 2-op chunk overflows.
  std::vector<std::int64_t> ins;
  for (std::int64_t k = kDepth - 101; k < kDepth; k += 2) ins.push_back(k);
  t.insertBatch(ins.data(), ins.data(), ins.size(), out);
  for (std::size_t i = 0; i < ins.size(); ++i) {
    EXPECT_TRUE(out[i]) << "deep insert key " << ins[i];
    oracle.emplace(ins[i], ins[i]);
  }
  // Mixed run at depth: erase the evens back out, re-check the odds.
  std::vector<std::int64_t> mix;
  std::vector<char> isIns;
  for (std::int64_t k = kDepth - 100; k < kDepth; ++k) {
    mix.push_back(k);
    isIns.push_back(k % 2 == 0 ? 0 : 1);  // erase evens, re-insert odds
  }
  bool flags[kMaxW];
  for (std::size_t i = 0; i < mix.size(); ++i) flags[i] = isIns[i] != 0;
  t.updateBatch(mix.data(), mix.data(), flags, mix.size(), out);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const bool want = flags[i] ? oracle.emplace(mix[i], mix[i]).second
                               : oracle.erase(mix[i]) != 0;
    EXPECT_EQ(out[i], want) << "deep mixed key " << mix[i];
  }
  const auto stats = t.checkInvariants();
  EXPECT_EQ(stats.size, oracle.size());
}

template <typename Tree>
void runMixedRunTwoChildAndDeferredErase() {
  /*        50
   *      /    \
   *    30      70
   *   /  \    /  \
   *  20  40  60  80
   *     /  \
   *    35  45        (balanced, so the AVL builds the same shape) */
  Tree t;
  for (std::int64_t k : {50, 30, 70, 20, 40, 60, 80, 35, 45})
    ASSERT_TRUE(t.insert(k, k));
  // One mixed run: erase 30 (two children) and 70 (two children), insert 33
  // into 30's subtree and 75 into 70's, erase absent 55. The insert into a
  // to-be-erased node's subtree forces the deferred path (the two-child
  // swap may not run when a child of the victim was staged).
  const std::int64_t keys[] = {30, 33, 55, 70, 75};
  const std::int64_t vals[] = {30, 33, 55, 70, 75};
  const bool flags[] = {false, true, false, false, true};
  bool out[5];
  t.updateBatch(keys, vals, flags, 5, out);
  EXPECT_TRUE(out[0]);   // 30 erased
  EXPECT_TRUE(out[1]);   // 33 inserted
  EXPECT_FALSE(out[2]);  // 55 was absent
  EXPECT_TRUE(out[3]);   // 70 erased
  EXPECT_TRUE(out[4]);   // 75 inserted
  const auto stats = t.checkInvariants();
  EXPECT_EQ(stats.size, 9u);
  for (std::int64_t k : {50, 20, 40, 60, 80, 35, 45, 33, 75})
    EXPECT_TRUE(t.contains(k)) << k;
  EXPECT_FALSE(t.contains(30));
  EXPECT_FALSE(t.contains(70));
}

TEST(BatchOps, MixedRunTwoChildAndDeferredErase) {
  {
    SCOPED_TRACE("int-bst-pathcas");
    runMixedRunTwoChildAndDeferredErase<Bst>();
  }
  {
    SCOPED_TRACE("int-avl-pathcas");
    runMixedRunTwoChildAndDeferredErase<Avl>();
  }
}

// ---------------------------------------------------------------------
// The same-key netting rule against a sequential replay: every sequence of
// 1-4 ops on one key, from absent and from present, then random multi-key
// windows. The rule leaves the window in its linearization order, so each
// op's result must equal what a replay of that order returns, and the net
// run applied to the initial state must end where the replay ends.
// ---------------------------------------------------------------------

using Contents = std::map<std::int64_t, std::int64_t>;

struct NetTestOp {
  std::int64_t key, val;
  bool isInsert;
  bool result;
};

/// updateBatch target over a std::map: checks that the net run is strictly
/// ascending and applies it op by op.
struct NetModel {
  Contents contents;
  int calls = 0;
  std::size_t updateBatch(const std::int64_t* keys, const std::int64_t* vals,
                          const bool* isInsert, std::size_t n, bool* out) {
    ++calls;
    std::size_t applied = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) {
        EXPECT_LT(keys[i - 1], keys[i]);
      }
      out[i] = isInsert[i] ? contents.emplace(keys[i], vals[i]).second
                           : contents.erase(keys[i]) != 0;
      applied += out[i];
    }
    return applied;
  }
};

/// Net `window` from `initial` and check it against the replay.
void checkNetting(std::vector<NetTestOp> window, const Contents& initial) {
  NetModel target{initial};
  const std::size_t n = window.size();
  std::vector<std::int64_t> keys(n), vals(n);
  auto isInsert = std::make_unique<bool[]>(n);
  auto outcomes = std::make_unique<bool[]>(n);
  const service::NetRun<std::int64_t, std::int64_t> run{
      keys.data(), vals.data(), isInsert.get(), outcomes.get()};
  const std::size_t m = service::commitNetted(target, window.data(), n, run);
  EXPECT_EQ(target.calls, 1);
  std::set<std::int64_t> distinct;
  for (const NetTestOp& op : window) distinct.insert(op.key);
  EXPECT_EQ(m, distinct.size());

  Contents replay = initial;
  for (std::size_t i = 0; i < n; ++i) {
    const NetTestOp& op = window[i];
    if (i > 0) {  // ascending keys, inserts before erases
      const NetTestOp& prev = window[i - 1];
      EXPECT_TRUE(prev.key < op.key ||
                  (prev.key == op.key && (prev.isInsert || !op.isInsert)));
    }
    const bool expect = op.isInsert ? replay.emplace(op.key, op.val).second
                                    : replay.erase(op.key) != 0;
    EXPECT_EQ(op.result, expect)
        << "op " << i << " (" << (op.isInsert ? "insert " : "erase ")
        << op.key << ") of " << n;
  }
  EXPECT_EQ(target.contents, replay);
}

TEST(BatchOps, NettingRuleEverySameKeySequence) {
  constexpr std::int64_t kKey = 5;
  for (const Contents& initial : {Contents{}, Contents{{kKey, 99}}}) {
    for (std::size_t len = 1; len <= 4; ++len) {
      for (unsigned mask = 0; mask < (1u << len); ++mask) {
        SCOPED_TRACE("present " + std::to_string(initial.size()) + ", len " +
                     std::to_string(len) + ", insert mask " +
                     std::to_string(mask));
        std::vector<NetTestOp> window;
        for (std::size_t i = 0; i < len; ++i)
          window.push_back({kKey, static_cast<std::int64_t>(10 + i),
                            ((mask >> i) & 1u) != 0, false});
        checkNetting(window, initial);
      }
    }
  }
}

TEST(BatchOps, NettingRuleRandomWindows) {
  Xoshiro256 rng(0x4E77);
  for (int round = 0; round < 2000; ++round) {
    constexpr std::uint64_t kKeys = 8;
    Contents initial;
    for (std::uint64_t k = 0; k < kKeys; ++k)
      if (rng.nextBounded(2) != 0)
        initial.emplace(static_cast<std::int64_t>(k), 99);
    std::vector<NetTestOp> window(1 + rng.nextBounded(64));
    for (std::size_t i = 0; i < window.size(); ++i)
      window[i] = {static_cast<std::int64_t>(rng.nextBounded(kKeys)),
                   static_cast<std::int64_t>(100 + i),
                   rng.nextBounded(2) != 0, false};
    SCOPED_TRACE("round " + std::to_string(round));
    checkNetting(window, initial);
  }
}

// ---------------------------------------------------------------------
// Windowed linearizability stress with batched submissions racing
// single-op commits. One submitter thread issues a batch of kBatchW
// distinct-key ops per round; point threads race insert/erase/contains/
// rangeQuery against it. Every logical op of a batch is recorded with the
// batch call's invocation/response span — they are genuinely concurrent
// with each other and with the point ops, which is exactly what the
// checker verifies a sequential witness for.
// ---------------------------------------------------------------------

enum class BatchKind {
  kMixed,    // updateBatch with random per-op insert/erase flags
  kTwoRun,   // alternate the tree's insertBatch / eraseBatch rounds
  kUniform,  // alternate all-insert / all-erase updateBatch rounds
};

template <BatchKind Kind, typename SetT>
void runBatchLinStress(SetT& set, int rounds, std::int64_t keySpace,
                       std::uint64_t seed) {
  ASSERT_LE(keySpace, 64);
  constexpr int kPointThreads = 2;
  constexpr std::size_t kBatchW = 3;
  const int nThreads = kPointThreads + 1;  // thread 0 submits batches
  std::atomic<std::uint64_t> clock{0};
  std::barrier barrier(nThreads);
  // hist[t][r]: the logical ops thread t completed in round r.
  std::vector<std::vector<std::vector<RecordedOp>>> hist(
      static_cast<std::size_t>(nThreads));
  for (auto& h : hist) h.resize(static_cast<std::size_t>(rounds));

  std::vector<std::thread> workers;
  for (int t = 0; t < nThreads; ++t) {
    workers.emplace_back([&, t] {
      ThreadGuard tg;
      Xoshiro256 rng(seed * 1000003 + static_cast<std::uint64_t>(t));
      std::vector<std::pair<std::int64_t, std::int64_t>> buf;
      for (int r = 0; r < rounds; ++r) {
        barrier.arrive_and_wait();
        auto& recs = hist[static_cast<std::size_t>(t)]
                         [static_cast<std::size_t>(r)];
        if (t == 0) {  // batch submitter
          std::set<std::int64_t> picked;
          while (picked.size() < kBatchW)
            picked.insert(static_cast<std::int64_t>(
                rng.nextBounded(static_cast<std::uint64_t>(keySpace))));
          std::int64_t keys[kBatchW];
          std::int64_t vals[kBatchW];
          bool flags[kBatchW];
          bool out[kBatchW] = {};
          std::size_t i = 0;
          const bool insertRound = (r % 2) == 0;
          for (const std::int64_t k : picked) {
            keys[i] = k;
            vals[i] = k;
            const bool coin = rng.nextBounded(2) != 0;
            flags[i] = Kind == BatchKind::kMixed ? coin : insertRound;
            ++i;
          }
          const std::uint64_t inv = clock.fetch_add(1);
          if constexpr (Kind != BatchKind::kTwoRun) {
            set.updateBatch(keys, vals, flags, kBatchW, out);
          } else if (insertRound) {
            set.tree.insertBatch(keys, vals, kBatchW, out);
          } else {
            set.tree.eraseBatch(keys, kBatchW, out);
          }
          const std::uint64_t res = clock.fetch_add(1);
          for (std::size_t j = 0; j < kBatchW; ++j) {
            RecordedOp rec;
            rec.kind = flags[j] ? OpKind::kInsert : OpKind::kErase;
            rec.a = keys[j];
            rec.boolResult = out[j];
            rec.inv = inv;
            rec.res = res;
            recs.push_back(std::move(rec));
          }
        } else {  // racing point ops
          RecordedOp rec;
          const std::int64_t k = static_cast<std::int64_t>(
              rng.nextBounded(static_cast<std::uint64_t>(keySpace)));
          const std::uint64_t dice = rng.nextBounded(100);
          if (dice < 35) {
            rec.kind = OpKind::kInsert;
            rec.a = k;
            rec.inv = clock.fetch_add(1);
            rec.boolResult = set.insert(k, k);
          } else if (dice < 70) {
            rec.kind = OpKind::kErase;
            rec.a = k;
            rec.inv = clock.fetch_add(1);
            rec.boolResult = set.erase(k);
          } else if (dice < 85) {
            rec.kind = OpKind::kContains;
            rec.a = k;
            rec.inv = clock.fetch_add(1);
            rec.boolResult = set.contains(k);
          } else {
            rec.kind = OpKind::kRangeQuery;
            rec.a = k;
            rec.b = k + static_cast<std::int64_t>(rng.nextBounded(
                            static_cast<std::uint64_t>(keySpace - k)));
            buf.clear();
            rec.inv = clock.fetch_add(1);
            set.rangeQuery(rec.a, rec.b, buf);
            for (const auto& [bk, bv] : buf) {
              EXPECT_EQ(bk, bv);  // torn-value detector
              rec.keysResult.push_back(bk);
            }
          }
          rec.res = clock.fetch_add(1);
          recs.push_back(std::move(rec));
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  std::set<LinState> states = {0};
  for (int r = 0; r < rounds; ++r) {
    std::vector<RecordedOp> window;
    for (int t = 0; t < nThreads; ++t) {
      const auto& recs =
          hist[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)];
      window.insert(window.end(), recs.begin(), recs.end());
    }
    states = linearizeWindow(window, states);
    ASSERT_FALSE(states.empty())
        << "history not linearizable at window " << r << ": "
        << describeWindow(window);
  }

  std::vector<std::pair<std::int64_t, std::int64_t>> finalKeys;
  set.rangeQuery(0, keySpace - 1, finalKeys);
  LinState finalMask = 0;
  for (const auto& [fk, fv] : finalKeys) finalMask |= LinState{1} << fk;
  EXPECT_TRUE(states.count(finalMask))
      << "final contents (mask " << finalMask
      << ") not among the linearizable outcomes";
}

TEST(BatchOps, LinStressBstMixedBatches) {
  PathCasBstAdapter<false> set;
  runBatchLinStress<BatchKind::kMixed>(set, 250, 16, 0x11A1);
}

TEST(BatchOps, LinStressBstTwoRunBatches) {
  PathCasBstAdapter<false> set;
  runBatchLinStress<BatchKind::kTwoRun>(set, 250, 16, 0x11A2);
}

TEST(BatchOps, LinStressAvlMixedBatches) {
  PathCasAvlAdapter<false> set;
  runBatchLinStress<BatchKind::kMixed>(set, 250, 16, 0x11A4);
}

TEST(BatchOps, LinStressAvlTwoRunBatches) {
  PathCasAvlAdapter<false> set;
  runBatchLinStress<BatchKind::kTwoRun>(set, 250, 16, 0x11A3);
}

TEST(BatchOps, LinStressShardedBatches) {
  // The map slices each run per shard into one tree-level updateBatch,
  // racing point ops on the same shards: uniform-kind rounds, then mixed
  // rounds.
  for (int nshards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(nshards));
    const std::uint64_t seed = 0x11B0 + static_cast<std::uint64_t>(nshards);
    BstMap uniform(nshards, 16);
    runBatchLinStress<BatchKind::kUniform>(uniform, 250, 16, seed);
    BstMap mixed(nshards, 16);
    runBatchLinStress<BatchKind::kMixed>(mixed, 250, 16, seed + 4);
  }
}

}  // namespace
}  // namespace pathcas::testing
