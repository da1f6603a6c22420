// Tests for the PathCAS relaxed AVL tree: oracle semantics, rotation
// correctness (all four cases), parent-pointer and height invariants,
// balance convergence (Bougé), the height bits of the version word, the
// node layout, and concurrent keysum stress.
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
// The version word: mark in bit 0, counter in bits 1-52, height in 53-60.
// ---------------------------------------------------------------------------

TEST(IntAvlVersion, BumpAndMarkKeepTheHeight) {
  const Version v = withAvlHeight(6, 17);
  EXPECT_EQ(avlHeight(v), 17);
  EXPECT_EQ(avlHeight(verBump(v)), 17);
  EXPECT_EQ(avlHeight(verMark(v)), 17);
  EXPECT_FALSE(isMarked(verBump(v)));
  EXPECT_TRUE(isMarked(verMark(v)));
  EXPECT_EQ(verBump(v), withAvlHeight(8, 17));
  EXPECT_EQ(verMark(v), withAvlHeight(7, 17));
}

TEST(IntAvlVersion, SettingAHeightKeepsTheCounterAndTheMark) {
  constexpr Version kLowBits = (Version{1} << kAvlHeightShift) - 1;
  for (const Version v : {Version{0}, Version{7}, (Version{1} << 52) | 5,
                          withAvlHeight(42, 200), withAvlHeight(kLowBits, 9)}) {
    for (const std::int64_t h : {0, 1, 37, 254, 255}) {
      const Version w = withAvlHeight(v, h);
      EXPECT_EQ(avlHeight(w), h);
      EXPECT_EQ(w & kLowBits, v & kLowBits);
      EXPECT_EQ(isMarked(w), isMarked(v));
    }
  }
}

// Height 255 sets payload bit 60, the top bit an unsigned casword payload
// may use, and the counter's top bit (52) is set too: a sign extension or a
// lost bit anywhere in store, load, visit or exec shows up here.
TEST(IntAvlVersion, TopHeightAndLargeCounterRoundTrip) {
  const Version v = withAvlHeight((Version{1} << 52) + 4, kAvlHeightMax);
  ASSERT_EQ(v >> 60, 1u);
  casword<Version> ver;
  ver.setInitial(v);
  EXPECT_EQ(ver.load(), v);
  start();
  const Version seen = visitVer(ver);
  EXPECT_EQ(seen, v);
  EXPECT_TRUE(validate());
  addVer(ver, seen, verBump(seen));
  EXPECT_TRUE(exec());
  EXPECT_EQ(ver.load(), v + 2);
  EXPECT_EQ(avlHeight(ver.load()), kAvlHeightMax);
  start();
  addVer(ver, v + 2, withAvlHeight(verMark(v + 2), 3));
  EXPECT_TRUE(exec());
  EXPECT_EQ(ver.load(), withAvlHeight(v + 3, 3));
  EXPECT_TRUE(isMarked(ver.load()));
}

#ifndef NDEBUG
TEST(IntAvlVersionDeathTest, HeightAbove255Aborts) {
  EXPECT_DEATH(withAvlHeight(0, kAvlHeightMax + 1), "kAvlHeightMax");
}
#endif

// A fresh pool carves slots back to back at a 48 B stride from a slab
// aligned to 64 KiB, so slot offsets repeat 0, 48, 32, 16 within their
// lines, and only the slot at 48 spreads its 32 search-hot bytes over two
// lines. The 1024 nodes after the two sentinels are 256 whole periods of 4
// slots, all in the first slab.
TEST(IntAvlLayout, SearchHotWordsCrossALineInOneSlotOfFour) {
  recl::NodePool<Avl::Node> pool;
  Avl t(IntBstOptions{}, recl::EbrDomain::instance(), &pool);
  constexpr std::int64_t kN = 1024;
  for (std::int64_t i = 0; i < kN; ++i) ASSERT_TRUE(t.insert(i * 617 % kN, i));
  const TreeStats s = t.checkInvariants();
  EXPECT_EQ(s.nodeCount, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(recl::NodePool<Avl::Node>::slotSize(), 48u);
  EXPECT_DOUBLE_EQ(s.hotLinesPerNode, 1.25);
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
  // Each update's rebalancing walk repairs the violations it created (or
  // hands them to the erase that unlinked a node on its path) before the
  // update returns, so at quiescence the tree is already a strict AVL tree
  // with consistent heights: a stale height left by a racing fixHeight
  // fails here, before the convergence pass below could repair it.
  const TreeStats stats = t.checkInvariants(true);
  EXPECT_EQ(stats.keySum, expected);
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
