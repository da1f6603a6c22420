// Tests for the type-segregated node pool (recl/pool.hpp) and its
// integration with EBR: single-thread reuse semantics, cross-thread
// retire→recycle flow, spill/refill between local caches and global shards,
// stats accounting, drain under quiescence, the arena layout of fresh slots
// (index order from a huge-page-aligned base, bounded slack), and a
// multi-threaded insert/erase churn test asserting retired-node memory is
// recycled (not leaked) over many EBR epochs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "recl/ebr.hpp"
#include "recl/pool.hpp"
#include "trees/int_avl_pathcas.hpp"
#include "trees/int_bst_pathcas.hpp"
#include "util/rand.hpp"
#include "util/thread_registry.hpp"

namespace pathcas::recl {
namespace {

struct TestNode {
  std::uint64_t a;
  std::uint64_t b;
  std::uint64_t pad[3];  // 40 B: a slot stride that is not a power of two
  TestNode(std::uint64_t x, std::uint64_t y) : a(x), b(y), pad{} {}
};

TEST(Pool, SingleThreadReuseIsLifoAndConstructs) {
  NodePool<TestNode> pool;
  TestNode* n1 = pool.alloc(1, 2);
  EXPECT_EQ(n1->a, 1u);
  EXPECT_EQ(n1->b, 2u);
  pool.destroy(n1);
  // LIFO: the freshest (cache-warm) slot is handed out first, and the
  // constructor runs again on the recycled memory.
  TestNode* n2 = pool.alloc(7, 8);
  EXPECT_EQ(static_cast<void*>(n2), static_cast<void*>(n1));
  EXPECT_EQ(n2->a, 7u);
  EXPECT_EQ(n2->b, 8u);
  pool.destroy(n2);

  const PoolStats s = pool.stats();
  EXPECT_EQ(s.fresh, 1u);
  EXPECT_EQ(s.reused, 1u);
  EXPECT_EQ(s.recycled, 2u);
  EXPECT_EQ(pool.liveCount(), 0u);
}

TEST(Pool, StatsAccounting) {
  NodePool<TestNode> pool;
  constexpr int kN = 100;
  std::vector<TestNode*> nodes;
  for (int i = 0; i < kN; ++i)
    nodes.push_back(pool.alloc(static_cast<std::uint64_t>(i), 0));
  EXPECT_EQ(pool.stats().fresh, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(pool.liveCount(), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(pool.freeCount(), 0u);
  EXPECT_EQ(pool.footprintBytes(),
            static_cast<std::uint64_t>(kN) * NodePool<TestNode>::slotSize());
  for (auto* n : nodes) pool.destroy(n);
  EXPECT_EQ(pool.liveCount(), 0u);
  EXPECT_EQ(pool.freeCount(), static_cast<std::uint64_t>(kN));
  // Memory is retained (recycled), not returned: footprint is unchanged.
  EXPECT_EQ(pool.footprintBytes(),
            static_cast<std::uint64_t>(kN) * NodePool<TestNode>::slotSize());
  // Reallocating reuses every slot without touching the heap.
  for (int i = 0; i < kN; ++i)
    nodes[static_cast<std::size_t>(i)] = pool.alloc(0, 0);
  EXPECT_EQ(pool.stats().fresh, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(pool.stats().reused, static_cast<std::uint64_t>(kN));
  for (auto* n : nodes) pool.destroy(n);
}

TEST(Pool, SpillToShardsAndCrossThreadRefill) {
  NodePool<TestNode> pool;
  // Thread A frees far more than the local cap: the overflow spills to the
  // global shards.
  std::thread a([&] {
    ThreadGuard tg;
    std::vector<TestNode*> nodes;
    for (int i = 0; i < 2000; ++i) nodes.push_back(pool.alloc(0, 0));
    for (auto* n : nodes) pool.destroy(n);
  });
  a.join();
  EXPECT_GT(pool.stats().spills, 0u);
  // Thread B allocates more than any local cache can hold: at least one
  // allocation must refill a whole chain from the shards — and none may
  // touch the heap, since the pool already holds 2000 free slots.
  std::thread b([&] {
    ThreadGuard tg;
    std::vector<TestNode*> nodes;
    for (int i = 0; i < 600; ++i) nodes.push_back(pool.alloc(0, 0));
    EXPECT_GT(pool.stats().refills, 0u);
    EXPECT_GT(pool.stats().reused, 0u);
    for (auto* n : nodes) pool.destroy(n);
  });
  b.join();
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.fresh, 2000u);  // B allocated without any fresh memory
}

TEST(Pool, EbrRetireRecyclesIntoPoolInsteadOfFreeing) {
  NodePool<TestNode> pool;  // declared before the domain: outlives its limbo
  EbrDomain domain;
  TestNode* n = pool.alloc(42, 0);
  {
    auto g = domain.pin();
    domain.retire(n, pool);
  }
  EXPECT_EQ(pool.stats().recycled, 0u);  // still in limbo
  for (int i = 0; i < 1000; ++i) {
    auto g = domain.pin();
    (void)g;
  }
  EXPECT_EQ(domain.freedCount(), 1u);
  EXPECT_EQ(pool.stats().recycled, 1u);  // recycled, not deleted
  // The expired slot is immediately reusable by this (the retiring) thread.
  TestNode* again = pool.alloc(0, 0);
  EXPECT_EQ(static_cast<void*>(again), static_cast<void*>(n));
  pool.destroy(again);
}

TEST(Pool, CrossThreadRetireRecycleFlow) {
  NodePool<TestNode> pool;
  EbrDomain domain;
  std::atomic<TestNode*> handoff{nullptr};
  // A allocates and publishes; B consumes, retires, and — being the
  // retiring thread — receives the recycled slot for its next allocation.
  std::thread a([&] {
    ThreadGuard tg;
    handoff.store(pool.alloc(1, 2), std::memory_order_release);
  });
  a.join();
  std::thread b([&] {
    ThreadGuard tg;
    TestNode* n = handoff.load(std::memory_order_acquire);
    {
      auto g = domain.pin();
      domain.retire(n, pool);
    }
    for (int i = 0; i < 1000; ++i) {
      auto g = domain.pin();
      (void)g;
    }
    EXPECT_EQ(pool.stats().recycled, 1u);
    TestNode* again = pool.alloc(0, 0);
    EXPECT_EQ(static_cast<void*>(again), static_cast<void*>(n));
    pool.destroy(again);
  });
  b.join();
  EXPECT_EQ(pool.liveCount(), 0u);
}

TEST(Pool, DrainUnderQuiescenceReleasesAllFreeMemory) {
  NodePool<TestNode> pool;
  std::vector<TestNode*> nodes;
  for (int i = 0; i < 1500; ++i) nodes.push_back(pool.alloc(0, 0));
  // Free from a second thread too, so both local caches and shards hold
  // memory at drain time.
  std::thread t([&] {
    ThreadGuard tg;
    for (std::size_t i = 0; i < 700; ++i) pool.destroy(nodes[i]);
  });
  t.join();
  for (std::size_t i = 700; i < nodes.size(); ++i) pool.destroy(nodes[i]);
  EXPECT_EQ(pool.freeCount(), 1500u);
  pool.drainQuiescent();
  EXPECT_EQ(pool.freeCount(), 0u);
  EXPECT_EQ(pool.footprintBytes(), 0u);
  EXPECT_EQ(pool.stats().drained, 1500u);
  EXPECT_EQ(pool.stats().slabBytes, 0u);
  // The pool is still usable after a drain.
  TestNode* n = pool.alloc(0, 0);
  pool.destroy(n);
}

// Fresh slots come from one arena in index order: the arena's base (slot
// 0's address) is huge-page aligned, one thread's fresh allocations are
// at(1), at(2), ... with no gap where a new slab is committed, and slot 0
// is never handed out, so index 0 can mean null. A drain decommits the
// arena but keeps its base, so the next fresh slot is at(1) again.
TEST(PoolArena, FreshSlotsFollowTheIndicesOfOneAlignedArena) {
  NodePool<TestNode> pool;
  constexpr std::size_t kSlot = NodePool<TestNode>::slotSize();
  static_assert(kSlot == sizeof(TestNode), "slots carry no padding");
  EXPECT_EQ(pool.at(0), nullptr);
  EXPECT_EQ(pool.indexOf(nullptr), 0u);
  const auto base = reinterpret_cast<std::uintptr_t>(pool.at(1)) - kSlot;
  EXPECT_EQ(base % kSlabMaxBytes, 0u);
  // The doubling slabs (64 KiB ... 1 MiB) commit the first 2 MiB; this many
  // slots runs well into the fourth 2 MiB slab.
  const auto n = static_cast<std::uint32_t>(4 * kSlabMaxBytes / kSlot);
  std::vector<TestNode*> nodes;
  std::size_t offIndex = 0, badIndexOf = 0;
  for (std::uint32_t i = 1; i <= n; ++i) {
    TestNode* const p = pool.alloc(i, 0);
    nodes.push_back(p);
    if (p != pool.at(i)) ++offIndex;
    if (pool.indexOf(p) != i || pool.indexOf(pool.at(i)) != i) ++badIndexOf;
  }
  EXPECT_EQ(offIndex, 0u);
  EXPECT_EQ(badIndexOf, 0u);
  const PoolStats s = pool.stats();
  EXPECT_EQ(s.fresh, n);
  EXPECT_EQ(pool.footprintBytes(), std::uint64_t{n} * kSlot);
  // Committed: slot 0, the slots handed out, and less than a slab more.
  EXPECT_GE(s.slabBytes, std::uint64_t{n + 1} * kSlot);
  EXPECT_LT(s.slabBytes - std::uint64_t{n + 1} * kSlot, kSlabMaxBytes);
  for (TestNode* p : nodes) pool.destroy(p);
  pool.drainQuiescent();
  EXPECT_EQ(pool.stats().slabBytes, 0u);
  TestNode* const again = pool.alloc(7, 8);
  EXPECT_EQ(again, pool.at(1));
  EXPECT_EQ(again->a, 7u);
  pool.destroy(again);
}

// A slab cannot be released while any slot in it is in use, so a drain with
// one live node releases nothing — not even the free slots — and the live
// node stays mapped and intact. Once it is returned, the drain releases all.
TEST(PoolSlabs, DrainWithALiveNodeReleasesNothing) {
  NodePool<TestNode> pool;
  std::vector<TestNode*> nodes;
  for (int i = 0; i < 1500; ++i)
    nodes.push_back(pool.alloc(static_cast<std::uint64_t>(i), 7));
  TestNode* const live = nodes.back();
  nodes.pop_back();
  for (auto* n : nodes) pool.destroy(n);
  const PoolStats before = pool.stats();
  const std::uint64_t footprint = pool.footprintBytes();
  ASSERT_GT(before.slabBytes, 0u);
  pool.drainQuiescent();
  const PoolStats after = pool.stats();
  EXPECT_EQ(after.drained, before.drained);
  EXPECT_EQ(after.slabBytes, before.slabBytes);
  EXPECT_EQ(pool.footprintBytes(), footprint);
  EXPECT_EQ(pool.freeCount(), 1499u);
  EXPECT_EQ(live->a, 1499u);
  EXPECT_EQ(live->b, 7u);
  // The free slots are still usable after the no-op drain.
  TestNode* again = pool.alloc(1, 2);
  EXPECT_EQ(pool.stats().fresh, before.fresh);
  pool.destroy(again);
  pool.destroy(live);
  pool.drainQuiescent();
  EXPECT_EQ(pool.footprintBytes(), 0u);
  EXPECT_EQ(pool.stats().slabBytes, 0u);
  EXPECT_EQ(pool.stats().drained, 1500u);
}

// The pool's real memory (its slabs) exceeds the bytes it reports as
// handed out only by the slack not yet carved: the rest of the current
// slab, plus the rest of each allocating thread's run.
TEST(PoolSlabs, SlackAfterAvlPrefillIsBounded) {
  using Tree = ds::IntAvlPathCas<std::int64_t, std::int64_t>;
  NodePool<Tree::Node> pool;  // declared before the domain: outlives limbo
  EbrDomain domain;
  Tree tree({}, domain, &pool);  // this thread allocates the two sentinels
  constexpr int kThreads = 3;
  constexpr std::int64_t kKeys = std::int64_t{1} << 17;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ThreadGuard tg;
      // Interleaved key classes, so the threads grow the tree side by side.
      for (std::int64_t k = t; k < kKeys; k += kThreads)
        ASSERT_TRUE(tree.insert((k * 0x9e3779b1) % kKeys, k));
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_EQ(tree.checkInvariants().size, static_cast<std::uint64_t>(kKeys));
  const PoolStats s = pool.stats();
  const std::uint64_t footprint = pool.footprintBytes();
  EXPECT_EQ(footprint, s.fresh * NodePool<Tree::Node>::slotSize());
  EXPECT_GE(s.slabBytes, footprint);
  EXPECT_LE(s.slabBytes - footprint,
            kSlabMaxBytes + (kThreads + 1) * kRunBytes);
}

// Multi-threaded insert/erase churn on the PathCAS BST with a dedicated
// pool: over many EBR epochs, retired nodes must be recycled back into
// allocations (recycle counter grows) and the pool's footprint must stay
// bounded by the working set, not grow with the operation count.
//
// Hermeticity matters here: every counter asserted below belongs to THIS
// test's pool and domain — never to the process-global defaultPool<> /
// EbrDomain::instance() — so the exact-accounting assertions hold no matter
// which other suites share the process (in-process ctest shards, combined
// binaries). The ASSERTs at the top pin that baseline.
TEST(PoolChurn, RetiredMemoryIsRecycledNotLeaked) {
  using Tree = ds::IntBstPathCas<std::int64_t, std::int64_t>;
  NodePool<Tree::Node> pool;  // declared before the domain: outlives limbo
  EbrDomain domain;
  ASSERT_EQ(pool.stats().fresh + pool.stats().reused, 0u);
  ASSERT_EQ(domain.retiredCount(), 0u);
  {
    Tree tree({}, domain, &pool);
    constexpr int kThreads = 4;
    constexpr std::int64_t kKeyRange = 256;
    constexpr int kOpsPerThread = 100000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        ThreadGuard tg;
        Xoshiro256 rng(0x9e3779b9 + static_cast<std::uint64_t>(t));
        for (int i = 0; i < kOpsPerThread; ++i) {
          const auto k = static_cast<std::int64_t>(
              rng.nextBounded(static_cast<std::uint64_t>(kKeyRange)));
          if (rng.next() & 1) {
            tree.insert(k, k);
          } else {
            tree.erase(k);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    domain.drainAll();  // quiescent: flush every limbo bag into the pool

    const PoolStats s = pool.stats();
    // Every node EBR expired was recycled into the pool, none deleted.
    EXPECT_GT(domain.freedCount(), 1000u);
    EXPECT_GE(s.recycled, domain.freedCount());
    // Steady state runs on recycled memory: reuse dominates fresh
    // allocation. (Fresh is bounded by the live set plus the EBR limbo
    // high-water mark — under this contention epochs advance slowly, so the
    // high-water is thousands of nodes, but it is a *bound*, not growth
    // proportional to the ~400k updates performed.)
    EXPECT_GT(s.reused, s.fresh);
    EXPECT_LT(s.fresh, static_cast<std::uint64_t>(kThreads) * kOpsPerThread /
                           4);
    // Exact live accounting: reachable keys + the two sentinels.
    EXPECT_EQ(pool.liveCount(), tree.size() + 2);
    tree.checkInvariants();
  }
  // Tree destroyed: every node is back in the pool.
  EXPECT_EQ(pool.liveCount(), 0u);
}

}  // namespace
}  // namespace pathcas::recl
