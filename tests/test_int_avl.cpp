// Tests for the PathCAS relaxed AVL tree: oracle semantics, rotation
// correctness (all four cases), parent-pointer and height invariants,
// balance convergence (Bougé), and concurrent keysum stress.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "trees/int_avl_pathcas.hpp"
#include "util/rand.hpp"
#include "util/thread_registry.hpp"

namespace pathcas::ds {
namespace {

using Avl = IntAvlPathCas<std::int64_t, std::int64_t>;

TEST(IntAvl, EmptyTreeBasics) {
  Avl t;
  EXPECT_FALSE(t.contains(5));
  EXPECT_FALSE(t.erase(5));
  EXPECT_EQ(t.size(), 0u);
}

TEST(IntAvl, InsertContainsErase) {
  Avl t;
  EXPECT_TRUE(t.insert(10, 100));
  EXPECT_TRUE(t.contains(10));
  EXPECT_FALSE(t.insert(10, 200));
  EXPECT_EQ(t.get(10).value(), 100);
  EXPECT_TRUE(t.erase(10));
  EXPECT_FALSE(t.contains(10));
  t.checkInvariants(/*requireStrictBalance=*/true);
}

// Ascending insertion triggers repeated left-rotations (the classic AVL
// stress); the result must be logarithmic in height.
TEST(IntAvl, AscendingInsertionsStayBalanced) {
  Avl t;
  constexpr std::int64_t kN = 1024;
  for (std::int64_t k = 0; k < kN; ++k) ASSERT_TRUE(t.insert(k, k));
  t.rebalanceToConvergence();
  const TreeStats s = t.checkInvariants(/*requireStrictBalance=*/true);
  EXPECT_EQ(s.size, static_cast<std::uint64_t>(kN));
  // Strict AVL height bound: 1.44 * log2(n) + 2.
  EXPECT_LE(s.height, static_cast<std::uint64_t>(1.45 * std::log2(kN) + 2));
}

TEST(IntAvl, DescendingInsertionsStayBalanced) {
  Avl t;
  constexpr std::int64_t kN = 1024;
  for (std::int64_t k = kN; k > 0; --k) ASSERT_TRUE(t.insert(k, k));
  t.rebalanceToConvergence();
  const TreeStats s = t.checkInvariants(true);
  EXPECT_LE(s.height, static_cast<std::uint64_t>(1.45 * std::log2(kN) + 2));
}

// Zig-zag insertion orders exercise the double rotations.
TEST(IntAvl, ZigZagInsertionsExerciseDoubleRotations) {
  Avl t;
  // Insert pattern that creates left-right and right-left shapes.
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < 256; ++i) {
    keys.push_back(1000 - i * 3);
    keys.push_back(i * 3 + 1);
    keys.push_back(i * 3 + 2);
  }
  std::set<std::int64_t> oracle;
  for (auto k : keys) ASSERT_EQ(t.insert(k, k), oracle.insert(k).second);
  t.rebalanceToConvergence();
  const TreeStats s = t.checkInvariants(true);
  EXPECT_EQ(s.size, oracle.size());
}

TEST(IntAvl, DeletionsKeepInvariants) {
  Avl t;
  std::set<std::int64_t> oracle;
  for (std::int64_t k = 0; k < 512; ++k) {
    t.insert(k, k);
    oracle.insert(k);
  }
  Xoshiro256 rng(17);
  for (int i = 0; i < 400; ++i) {
    const std::int64_t k = static_cast<std::int64_t>(rng.nextBounded(512));
    ASSERT_EQ(t.erase(k), oracle.erase(k) > 0);
  }
  t.rebalanceToConvergence();
  const TreeStats s = t.checkInvariants(true);
  EXPECT_EQ(s.size, oracle.size());
}

TEST(IntAvl, RandomOpsMatchOracle) {
  Avl t;
  std::set<std::int64_t> oracle;
  Xoshiro256 rng(99);
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t k = static_cast<std::int64_t>(rng.nextBounded(400));
    switch (rng.nextBounded(3)) {
      case 0:
        ASSERT_EQ(t.insert(k, k * 3), oracle.insert(k).second);
        break;
      case 1:
        ASSERT_EQ(t.erase(k), oracle.erase(k) > 0);
        break;
      default:
        ASSERT_EQ(t.contains(k), oracle.count(k) > 0);
    }
    if (i % 5000 == 4999) t.checkInvariants();  // relaxed invariants mid-run
  }
  t.rebalanceToConvergence();
  const TreeStats s = t.checkInvariants(true);
  EXPECT_EQ(s.size, oracle.size());
  std::vector<std::int64_t> keys;
  t.forEach([&](std::int64_t k, std::int64_t v) {
    keys.push_back(k);
    EXPECT_EQ(v, k * 3);
  });
  EXPECT_TRUE(
      std::equal(keys.begin(), keys.end(), oracle.begin(), oracle.end()));
}

TEST(IntAvl, HeightTracksLogOfSizeUnderChurn) {
  Avl t;
  Xoshiro256 rng(5);
  constexpr std::int64_t kRange = 4096;
  for (int i = 0; i < 40000; ++i) {
    const std::int64_t k = static_cast<std::int64_t>(rng.nextBounded(kRange));
    if (rng.nextBounded(2)) {
      t.insert(k, k);
    } else {
      t.erase(k);
    }
  }
  t.rebalanceToConvergence();
  const TreeStats s = t.checkInvariants(true);
  if (s.size > 16) {
    EXPECT_LE(s.height, static_cast<std::uint64_t>(
                            1.45 * std::log2(double(s.size)) + 3));
  }
}

// ---------------------------------------------------------------------------
// Concurrency.
// ---------------------------------------------------------------------------

struct AvlStressParams {
  int threads;
  int opsPerThread;
  std::int64_t keyRange;
  bool useHtmFastPath;
};

class IntAvlStress : public ::testing::TestWithParam<AvlStressParams> {};

TEST_P(IntAvlStress, KeysumInvariantHolds) {
  const auto p = GetParam();
  Avl t(IntBstOptions{.useHtmFastPath = p.useHtmFastPath});
  std::int64_t prefillSum = 0;
  {
    Xoshiro256 rng(1);
    for (std::int64_t i = 0; i < p.keyRange / 2; ++i) {
      const auto k = static_cast<std::int64_t>(rng.nextBounded(p.keyRange));
      if (t.insert(k, k)) prefillSum += k;
    }
  }
  std::vector<std::thread> workers;
  std::vector<std::int64_t> deltas(p.threads, 0);
  for (int w = 0; w < p.threads; ++w) {
    workers.emplace_back([&, w] {
      ThreadGuard tg;
      Xoshiro256 rng(200 + w);
      std::int64_t delta = 0;
      for (int i = 0; i < p.opsPerThread; ++i) {
        const auto k = static_cast<std::int64_t>(rng.nextBounded(p.keyRange));
        switch (rng.nextBounded(4)) {
          case 0:
            if (t.insert(k, k)) delta += k;
            break;
          case 1:
            if (t.erase(k)) delta -= k;
            break;
          default:
            (void)t.contains(k);
        }
      }
      deltas[w] = delta;
    });
  }
  for (auto& th : workers) th.join();
  std::int64_t expected = prefillSum;
  for (auto d : deltas) expected += d;
  // Relaxed invariants must hold immediately (order, parents, no marked
  // reachable nodes)...
  const TreeStats stats = t.checkInvariants(false);
  EXPECT_EQ(stats.keySum, expected);
  // ...and the tree must converge to a strict AVL tree once quiescent.
  t.rebalanceToConvergence();
  t.checkInvariants(true);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IntAvlStress,
    ::testing::Values(AvlStressParams{2, 6000, 64, false},
                      AvlStressParams{4, 4000, 16, false},
                      AvlStressParams{4, 4000, 2048, false},
                      AvlStressParams{8, 1500, 256, false},
                      AvlStressParams{4, 2500, 256, true}),
    [](const auto& info) {
      const auto& p = info.param;
      return "t" + std::to_string(p.threads) + "_k" +
             std::to_string(p.keyRange) + (p.useHtmFastPath ? "_htm" : "");
    });

TEST(IntAvlConcurrent, StablePresentKeysAlwaysFound) {
  Avl t;
  const std::vector<std::int64_t> stable = {100, 200, 300, 400, 500};
  for (auto k : stable) ASSERT_TRUE(t.insert(k, k));
  std::atomic<bool> stop{false};
  std::vector<std::thread> churn;
  for (int w = 0; w < 3; ++w) {
    churn.emplace_back([&, w] {
      ThreadGuard tg;
      Xoshiro256 rng(31 + w);
      while (!stop.load(std::memory_order_relaxed)) {
        std::int64_t k = static_cast<std::int64_t>(rng.nextBounded(600));
        if (k % 100 == 0) ++k;
        if (rng.nextBounded(2)) {
          t.insert(k, k);
        } else {
          t.erase(k);
        }
      }
    });
  }
  // get() races the churn's two-child erases, which swap a node's key and
  // value in place; churn inserts value == key, so any other answer is a
  // torn ⟨key, value⟩ pair.
  std::uint64_t tornGets = 0;
  {
    ThreadGuard tg;
    Xoshiro256 rng(97);
    for (int i = 0; i < 15000; ++i) {
      ASSERT_TRUE(t.contains(stable[i % stable.size()]));
      for (int j = 0; j < 8; ++j) {
        std::int64_t k = static_cast<std::int64_t>(rng.nextBounded(600));
        if (k % 100 == 0) ++k;
        const std::optional<std::int64_t> v = t.get(k);
        if (v.has_value() && *v != k) ++tornGets;
      }
    }
  }
  stop.store(true);
  for (auto& th : churn) th.join();
  EXPECT_EQ(tornGets, 0u) << "get() returned another key's value";
  t.checkInvariants(false);
}

}  // namespace
}  // namespace pathcas::ds
