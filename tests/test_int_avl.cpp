// Tests for the PathCAS relaxed AVL tree: oracle semantics, rotation
// correctness (all four cases), height invariants, balance convergence
// (Bougé), the height bits of the version word, the node layout, concurrent
// keysum stress, and forced interleavings of the rebalancing walk and the
// batch walk (the tree core's stall hook).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
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

// The AVL node is the BST's size (32 B): a pool carves slots back to back
// at a 32 B stride from a huge-page aligned arena, so every node starts at
// offset 0 or 32 of its line and its 24 search-hot bytes (ver, key, kids)
// never cross a line: one line per visited node. (At the old 40 B stride,
// 3 slots in 8 crossed: 1.375.)
TEST(IntAvlLayout, SearchHotWordsStayInOneLine) {
  recl::NodePool<Avl::Node> pool;
  Avl t(IntBstOptions{}, recl::EbrDomain::instance(), &pool);
  constexpr std::int64_t kN = 1024;
  for (std::int64_t i = 0; i < kN; ++i) ASSERT_TRUE(t.insert(i * 617 % kN, i));
  const TreeStats s = t.checkInvariants();
  EXPECT_EQ(s.nodeCount, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(recl::NodePool<Avl::Node>::slotSize(), 32u);
  EXPECT_DOUBLE_EQ(s.hotLinesPerNode, 1.0);
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

// ---------------------------------------------------------------------------
// Forced interleavings of the rebalancing walk and the batch walk. A walker
// thread parks at a stall point while this thread changes the tree; then it
// resumes. The stall points (Avl::stallHook): kWalkStep, after a
// rebalancing step has read its node's children and their versions, before
// it commits, and kBatchFrame, after a batch frame has read its node's child
// slots, before it reads the children's. Each test is one fixed schedule.
// ---------------------------------------------------------------------------

/// Parks the thread that installs it at its first stop at `point` on the
/// node holding key `at`, until released, and records the key of every stop
/// that thread makes there.
class WalkPark {
 public:
  explicit WalkPark(std::int64_t at, Avl::Stall point = Avl::Stall::kWalkStep)
      : at_(at), point_(point) {}

  /// Run on the walker thread, before its update.
  void install() {
    Avl::stallHook = [this](Avl::Stall point, const Avl::Node* n) {
      if (point != point_) return;
      const std::int64_t k = n->key.load();
      steps_.push_back(k);
      if (k != at_ || parked_.load()) return;
      parkedNode_ = n;
      parked_.store(true);
      while (!released_.load()) std::this_thread::yield();
    };
  }
  /// True once the walker is parked; false if it has not parked in 10 s.
  bool awaitParked() const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!parked_.load()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }
  void release() { released_.store(true); }
  /// Read after the walker thread is joined.
  const std::vector<std::int64_t>& steps() const { return steps_; }
  const Avl::Node* parkedNode() const { return parkedNode_; }

 private:
  const std::int64_t at_;
  const Avl::Stall point_;
  std::atomic<bool> parked_{false};
  std::atomic<bool> released_{false};
  std::vector<std::int64_t> steps_;
  const Avl::Node* parkedNode_ = nullptr;
};

/// Runs `update` on a walker thread that parks at key `at`; while it is
/// parked, runs `meanwhile` here; then releases and joins it.
template <typename Update, typename Meanwhile>
void parkWalkerAt(WalkPark& park, Update update, Meanwhile meanwhile) {
  std::thread walker([&] {
    ThreadGuard tg;
    park.install();
    update();
  });
  const bool parked = park.awaitParked();
  if (parked) meanwhile();
  park.release();
  walker.join();
  ASSERT_TRUE(parked) << "the walker never reached its stall point";
}

//      20            The walker inserts 35, fixes 30 (h1 -> h2) and parks at
//     /  \           20, whose fix it computed from 10 (h1) and 30 (h2):
//   10    30         h3. This thread then erases 35, which takes 30 back to
//           \        h1; its own walk finds 20 consistent (h2) and ends
//            35      there. The walker's commit must fail validation on 30's
//                    new version and retry, which finds 20 consistent too. A
// fix committed without that validation (exec() instead of vexec()) would
// leave 20 at h3 above two leaves.
TEST(IntAvlWalk, FixRetriesWhenAVisitedChildChangesHeight) {
  Avl t;
  for (std::int64_t k : {20, 10, 30}) ASSERT_TRUE(t.insert(k, k));
  WalkPark park(20);
  parkWalkerAt(
      park, [&] { EXPECT_TRUE(t.insert(35, 35)); },
      [&] { EXPECT_TRUE(t.erase(35)); });
  // 20's step ran twice: the failed commit, then the retry.
  EXPECT_EQ(park.steps(), (std::vector<std::int64_t>{30, 20, 20}));
  ASSERT_NE(park.parkedNode(), nullptr);
  EXPECT_EQ(avlHeight(park.parkedNode()->ver.load()), 2);
  t.checkInvariants(/*requireStrictBalance=*/true);
}

//          50                        20
//        /    \                    /    \ .
//      20      60      =>        10      50
//     /  \       \              /       /  \ .
//   10    30      70           5      30    60
//   /                                   \ .
//  5                                     35
//
// The walker inserts 35 and parks at its first step, fixing 30 (h1 -> h2).
// Its search recorded 20 as 30's parent. This thread erases 70, and its
// walk rotates right at 50, which moves 30 from 20 to 50 without a version
// bump and sets 50's height from 30's old one (h2). The walker's fix of 30
// then commits, so 50 must become h3 and 20 h4. The walker's next step is
// at 20, which no longer has 30 as a child: it must search again for 30,
// repair 50, then 20. Stopping at 20, which looks consistent there, would
// leave 50 one too low.
TEST(IntAvlWalk, StaleChainSearchesAgainAndRepairsTheNewParent) {
  Avl t;
  for (std::int64_t k : {50, 20, 60, 10, 30, 70, 5})
    ASSERT_TRUE(t.insert(k, k));
  t.checkInvariants(/*requireStrictBalance=*/true);
  WalkPark park(30);
  parkWalkerAt(
      park, [&] { EXPECT_TRUE(t.insert(35, 35)); },
      [&] { EXPECT_TRUE(t.erase(70)); });
  EXPECT_EQ(park.steps(), (std::vector<std::int64_t>{30, 50, 20}));
  // No rebalanceToConvergence(): the walks alone left a strict AVL tree.
  const TreeStats s = t.checkInvariants(/*requireStrictBalance=*/true);
  EXPECT_EQ(s.size, 7u);
  EXPECT_EQ(s.height, 4u);
}

//        50                  30
//       /  \               /    \ .
//     30    70    =>     20      50
//    /  \               /       /  \ .
//  20    40           10      40    70
//
// A batch walker (updateBatch: insert 25, erase 40, erase 70) parks at its
// frame on 50, having read 50's children 30 and 70. This thread inserts 10,
// and its walk rotates right at 50. The walker resumes at 30 and reaches 40
// through 30's new right child, 50: unlinking 40 stages 50's version as
// 40's parent, and unlinking 70 stages it again as the frame's own bump.
// The KCAS refuses an op that stages one address twice, so the chunk's
// first commit fails, and its second attempt walks from the new root 30.
TEST(IntAvlWalk, BatchRetriesWhenARotationShowsItANodeTwice) {
  Avl t;
  for (std::int64_t k : {50, 30, 70, 20, 40}) ASSERT_TRUE(t.insert(k, k));
  WalkPark park(50, Avl::Stall::kBatchFrame);
  const std::int64_t keys[] = {25, 40, 70};
  const bool isInsert[] = {true, false, false};
  bool out[3];
  parkWalkerAt(
      park,
      [&] { EXPECT_EQ(t.updateBatch(keys, keys, isInsert, 3, out), 3u); },
      [&] { EXPECT_TRUE(t.insert(10, 10)); });
  // Two attempts' frames, each from minRoot.
  EXPECT_EQ(park.steps(), (std::vector<std::int64_t>{Avl::kNegInf, 50, 30,
                                                     Avl::kNegInf, 30, 50}));
  for (bool o : out) EXPECT_TRUE(o);
  const TreeStats s = t.checkInvariants(/*requireStrictBalance=*/true);
  EXPECT_EQ(s.size, 5u);
  std::vector<std::int64_t> present;
  t.forEach([&](std::int64_t k, std::int64_t) { present.push_back(k); });
  EXPECT_EQ(present, (std::vector<std::int64_t>{10, 20, 25, 30, 50}));
}

// A batch's repair chains are recorded while it stages, before any repair
// walk runs. Here the first walk (from 1, under which the batch attached
// 2..8) rotates twice and makes 5 the root; the second (from 13) still
// holds the chain minRoot, 9, 13. It fixes 13 and 9, and then its chain's
// next node is minRoot, whose child 9 no longer is: it must search again,
// and fix 5. Ending at minRoot would leave the root one too low.
TEST(IntAvlWalk, StaleChainBelowANewRootSearchesAgain) {
  Avl t;
  for (std::int64_t k : {9, 1, 13, 0}) ASSERT_TRUE(t.insert(k, k));
  const std::int64_t keys[] = {2, 3, 4, 5, 6, 8, 10, 12, 14, 15};
  bool out[10];
  EXPECT_EQ(t.insertBatch(keys, keys, 10, out), 10u);
  const TreeStats s = t.checkInvariants(/*requireStrictBalance=*/true);
  EXPECT_EQ(s.size, 14u);
  EXPECT_EQ(s.height, 5u);
}

}  // namespace
}  // namespace pathcas::ds
