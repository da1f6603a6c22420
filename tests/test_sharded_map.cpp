// Sharded service frontend (src/service/sharded_map.hpp):
//   * partition function: monotone, total, boundary-exact, clamping;
//   * sequential semantics with keys placed astride shard boundaries;
//   * windowed linearizability stress (tests/lin_stress.hpp) with a key
//     space spread over several shards, so a large fraction of the racing
//     range queries exercise the two-phase cross-shard stitching protocol;
//   * cross-shard range-query windows vs a sequential oracle under churn:
//     one mutator thread streams timestamped inserts/erases while scanner
//     threads take wide windows; every scan must equal the oracle state
//     after some prefix of mutations consistent with the scan's interval —
//     the single-mutator specialization of linearizability that pins down
//     exactly the "no half-applied stitch" guarantee;
//   * point updates never wait for a map-level updateBatch parked
//     mid-commit on their shard;
//   * zero-leak teardown via per-shard DomainSet counters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "bench_fw/adapters.hpp"
#include "lin_stress.hpp"
#include "service/sharded_map.hpp"
#include "trees/int_avl_pathcas.hpp"
#include "trees/int_bst_pathcas.hpp"
#include "util/rand.hpp"
#include "util/thread_registry.hpp"

namespace pathcas::testing {
namespace {

using BstMap = service::ShardedMap<ds::IntBstPathCas<Key, Val>>;
using AvlMap = service::ShardedMap<ds::IntAvlPathCas<Key, Val>>;

// ---------------------------------------------------------------------------
// Partition function.
// ---------------------------------------------------------------------------

TEST(ShardedMapPartition, BoundariesAndMonotonicity) {
  const BstMap map(4, 8);  // slices: [0,2) [2,4) [4,6) [6,8)
  EXPECT_EQ(map.shardOf(0), 0);
  EXPECT_EQ(map.shardOf(1), 0);
  EXPECT_EQ(map.shardOf(2), 1);
  EXPECT_EQ(map.shardOf(3), 1);
  EXPECT_EQ(map.shardOf(4), 2);
  EXPECT_EQ(map.shardOf(5), 2);
  EXPECT_EQ(map.shardOf(6), 3);
  EXPECT_EQ(map.shardOf(7), 3);
  // Out-of-range keys clamp to the boundary shards.
  EXPECT_EQ(map.shardOf(-5), 0);
  EXPECT_EQ(map.shardOf(8), 3);
  EXPECT_EQ(map.shardOf(1 << 20), 3);
}

TEST(ShardedMapPartition, MonotoneAndTotalForUnevenCounts) {
  // Shard counts that do not divide the key space: still monotone, every
  // shard non-empty, exact cover.
  for (int nshards : {1, 3, 5, 7}) {
    const BstMap map(nshards, 100);
    int prev = 0;
    std::vector<int> hits(static_cast<std::size_t>(nshards), 0);
    for (Key k = 0; k < 100; ++k) {
      const int s = map.shardOf(k);
      ASSERT_GE(s, prev) << "shardOf not monotone at key " << k;
      ASSERT_LT(s, nshards);
      prev = s;
      ++hits[static_cast<std::size_t>(s)];
    }
    for (int s = 0; s < nshards; ++s)
      EXPECT_GT(hits[static_cast<std::size_t>(s)], 0)
          << "empty slice for shard " << s << " of " << nshards;
  }
}

// ---------------------------------------------------------------------------
// Sequential semantics astride boundaries.
// ---------------------------------------------------------------------------

TEST(ShardedMap, PointOpsAcrossBoundaries) {
  BstMap map(4, 8);
  for (Key k = 0; k < 8; ++k) EXPECT_TRUE(map.insert(k, k * 10));
  for (Key k = 0; k < 8; ++k) {
    EXPECT_TRUE(map.contains(k));
    EXPECT_FALSE(map.insert(k, 0));  // insertIfAbsent
    const auto v = map.get(k);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, k * 10);
  }
  EXPECT_EQ(map.size(), 8u);
  EXPECT_EQ(map.keySum(), 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7);
  for (int s = 0; s < 4; ++s) EXPECT_EQ(map.shardSize(s), 2u);
  map.checkInvariants();
  // Erase exactly the boundary keys (first key of each slice).
  for (Key k : {0, 2, 4, 6}) EXPECT_TRUE(map.erase(k));
  for (Key k : {0, 2, 4, 6}) EXPECT_FALSE(map.contains(k));
  for (Key k : {1, 3, 5, 7}) EXPECT_TRUE(map.contains(k));
  EXPECT_EQ(map.size(), 4u);
  map.checkInvariants();
}

TEST(ShardedMap, RangeQueryStitchesAscending) {
  BstMap map(4, 16);
  for (Key k = 0; k < 16; k += 2) ASSERT_TRUE(map.insert(k, k));
  std::vector<std::pair<Key, Val>> out;
  // Full-space window: crosses all three boundaries.
  EXPECT_EQ(map.rangeQuery(0, 15, out), 8u);
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, static_cast<Key>(2 * i));
    EXPECT_EQ(out[i].second, static_cast<Key>(2 * i));
  }
  // Partial windows with endpoints inside different shards.
  out.clear();
  EXPECT_EQ(map.rangeQuery(3, 9, out), 3u);  // 4, 6, 8
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].first, 4);
  EXPECT_EQ(out[2].first, 8);
  // Empty and inverted windows.
  out.clear();
  EXPECT_EQ(map.rangeQuery(9, 9, out), 0u);
  EXPECT_EQ(map.rangeQuery(9, 3, out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(ShardedMap, SequentialOracleAcrossShardCounts) {
  for (int nshards : {1, 2, 5, 8}) {
    AvlMap map(nshards, 64);
    std::set<Key> oracle;
    Xoshiro256 rng(0xACE0 + static_cast<std::uint64_t>(nshards));
    for (int i = 0; i < 4000; ++i) {
      const Key k = static_cast<Key>(rng.nextBounded(64));
      switch (rng.nextBounded(4)) {
        case 0:
          ASSERT_EQ(map.insert(k, k), oracle.insert(k).second);
          break;
        case 1:
          ASSERT_EQ(map.erase(k), oracle.erase(k) > 0);
          break;
        case 2:
          ASSERT_EQ(map.contains(k), oracle.count(k) > 0);
          break;
        default: {
          const Key lo = static_cast<Key>(rng.nextBounded(64));
          const Key hi =
              lo + static_cast<Key>(rng.nextBounded(64 - static_cast<std::uint64_t>(lo)));
          std::vector<std::pair<Key, Val>> out;
          map.rangeQuery(lo, hi, out);
          std::vector<Key> expect;
          for (auto it = oracle.lower_bound(lo);
               it != oracle.end() && *it <= hi; ++it)
            expect.push_back(*it);
          ASSERT_EQ(out.size(), expect.size());
          for (std::size_t j = 0; j < out.size(); ++j)
            ASSERT_EQ(out[j].first, expect[j]);
        }
      }
    }
    EXPECT_EQ(map.size(), oracle.size());
    map.checkInvariants();
  }
}

// ---------------------------------------------------------------------------
// Windowed linearizability stress over the stitching protocol.
// ---------------------------------------------------------------------------

/// Thin set facade with the shard geometry the stress wants: keySpace 8 over
/// 4 shards means slice width 2, so ~all multi-key windows cross shards.
template <int NShards, std::int64_t KeySpace>
struct SmallShardedSet {
  BstMap map{NShards, KeySpace};
  bool insert(Key k, Val v) { return map.insert(k, v); }
  bool erase(Key k) { return map.erase(k); }
  bool contains(Key k) { return map.contains(k); }
  std::size_t rangeQuery(Key lo, Key hi, std::vector<std::pair<Key, Val>>& out) {
    return map.rangeQuery(lo, hi, out);
  }
};

TEST(ShardedMapLinearizable, WindowedHistoryUnderChurn) {
  SmallShardedSet<4, 8> set;
  runRqLinStress(set, /*threads=*/4, /*rounds=*/2500, /*keySpace=*/8,
                 /*seed=*/0x5eed0010);
  set.map.checkInvariants();
}

TEST(ShardedMapLinearizable, UnevenShardsTinyKeySpace) {
  // 3 shards over 8 keys: slices [0,3) [3,6) [6,8) — uneven widths.
  SmallShardedSet<3, 8> set;
  runRqLinStress(set, /*threads=*/4, /*rounds=*/2500, /*keySpace=*/8,
                 /*seed=*/0x5eed0011);
  set.map.checkInvariants();
}

// ---------------------------------------------------------------------------
// Cross-shard windows vs a sequential oracle under churn.
// ---------------------------------------------------------------------------

TEST(ShardedMap, CrossShardWindowsMatchMutationPrefix) {
  // One mutator streams timestamped mutations; scanners take wide windows.
  // With a single mutator, the abstract state is a totally-ordered sequence
  // of versions, and a linearizable scan must equal the state after A + the
  // first j concurrent mutations, where A = mutations completed before the
  // scan began and the concurrent run is those overlapping the scan.
  constexpr Key kKeySpace = 64;
  constexpr int kShards = 4;  // boundaries at 16, 32, 48
  constexpr int kMutations = 30000;
  constexpr int kScanners = 2;
  BstMap map(kShards, kKeySpace);

  struct Mutation {
    Key key = 0;
    bool insert = false;   // false: erase
    std::uint64_t inv = 0, res = 0;
  };
  struct Scan {
    Key lo = 0, hi = 0;
    std::vector<Key> keys;
    std::uint64_t inv = 0, res = 0;
  };
  std::atomic<std::uint64_t> clock{0};
  std::atomic<bool> stop{false};
  std::vector<Mutation> mutations;  // successful ones, in program order
  mutations.reserve(kMutations);
  std::vector<std::vector<Scan>> scans(kScanners);

  std::thread mutator([&] {
    ThreadGuard tg;
    Xoshiro256 rng(0xD00D);
    int done = 0;
    while (done < kMutations) {
      Mutation m;
      m.key = static_cast<Key>(rng.nextBounded(kKeySpace));
      m.insert = rng.nextBounded(2) == 0;
      m.inv = clock.fetch_add(1);
      const bool ok =
          m.insert ? map.insert(m.key, m.key) : map.erase(m.key);
      m.res = clock.fetch_add(1);
      if (ok) {
        mutations.push_back(m);
        ++done;
      }
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> scanners;
  for (int sc = 0; sc < kScanners; ++sc) {
    scanners.emplace_back([&, sc] {
      ThreadGuard tg;
      Xoshiro256 rng(0xBEEF + static_cast<std::uint64_t>(sc));
      std::vector<std::pair<Key, Val>> buf;
      while (!stop.load(std::memory_order_acquire)) {
        Scan s;
        // Bias windows wide so they straddle shard boundaries: lo in the
        // first half, hi in the last half of the key space.
        s.lo = static_cast<Key>(rng.nextBounded(kKeySpace / 2));
        s.hi = static_cast<Key>(kKeySpace / 2 + rng.nextBounded(kKeySpace / 2));
        buf.clear();
        s.inv = clock.fetch_add(1);
        map.rangeQuery(s.lo, s.hi, buf);
        s.res = clock.fetch_add(1);
        for (const auto& [k, v] : buf) {
          EXPECT_EQ(k, v);
          s.keys.push_back(k);
        }
        scans[static_cast<std::size_t>(sc)].push_back(std::move(s));
      }
    });
  }
  mutator.join();
  for (auto& t : scanners) t.join();

  // Replay: states[j] = membership mask after the first j mutations (the
  // mutator is sequential, so this is THE abstract history).
  std::vector<std::uint64_t> states(mutations.size() + 1, 0);
  for (std::size_t j = 0; j < mutations.size(); ++j) {
    const std::uint64_t bit = std::uint64_t{1} << mutations[j].key;
    states[j + 1] = mutations[j].insert ? (states[j] | bit)
                                        : (states[j] & ~bit);
  }
  std::size_t checked = 0, crossShard = 0;
  for (const auto& perScanner : scans) {
    for (const Scan& s : perScanner) {
      // Window mask of the scan result, and of each candidate state.
      std::uint64_t got = 0;
      for (const Key k : s.keys) got |= std::uint64_t{1} << k;
      std::uint64_t windowMask = 0;
      for (Key k = s.lo; k <= s.hi; ++k) windowMask |= std::uint64_t{1} << k;
      // Candidate prefix lengths: everything from "all mutations completed
      // before the scan" through "all mutations that began before it ended".
      std::size_t jLo = 0, jHi = 0;
      while (jLo < mutations.size() && mutations[jLo].res < s.inv) ++jLo;
      jHi = jLo;
      while (jHi < mutations.size() && mutations[jHi].inv < s.res) ++jHi;
      bool matched = false;
      for (std::size_t j = jLo; j <= jHi && !matched; ++j)
        matched = (states[j] & windowMask) == got;
      ASSERT_TRUE(matched)
          << "scan [" << s.lo << "," << s.hi << "] (inv " << s.inv << ", res "
          << s.res << ") matches no mutation prefix in [" << jLo << "," << jHi
          << "]";
      ++checked;
      if (map.shardOf(s.lo) != map.shardOf(s.hi)) ++crossShard;
    }
  }
  // The windows are built to straddle shards; make sure the test actually
  // exercised the stitching protocol.
  EXPECT_GT(checked, 0u);
  EXPECT_GT(crossShard, checked / 2);
  map.checkInvariants();
}

// ---------------------------------------------------------------------------
// Observability counters: cross-shard RQ retries.
// ---------------------------------------------------------------------------

TEST(ShardedMapCounters, RqRetriesZeroQuiescent) {
  BstMap map(4, 64);
  for (Key k = 0; k < 64; k += 2) ASSERT_TRUE(map.insert(k, k));
  std::vector<std::pair<Key, Val>> out;
  // Quiescent cross-shard windows: the version-stamp validation must pass
  // on the first try every time — any retry here is a livelock bug, not
  // contention.
  for (int i = 0; i < 100; ++i) {
    out.clear();
    map.rangeQuery(0, 63, out);
    EXPECT_EQ(out.size(), 32u);
  }
  EXPECT_EQ(map.rqRetries(), 0u);
}

TEST(ShardedMapCounters, RqRetriesMonotoneUnderChurn) {
  // Retries under churn are timing-dependent, so this asserts only what is
  // deterministic: the counter never decreases, and scans stay correct
  // (every returned key was inserted with val == key).
  constexpr Key kKeySpace = 32;
  BstMap map(4, kKeySpace);
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    ThreadGuard tg;
    Xoshiro256 rng(0xC0FFEE);
    while (!stop.load(std::memory_order_acquire)) {
      const Key k = static_cast<Key>(rng.nextBounded(kKeySpace));
      if (rng.nextBounded(2) == 0)
        map.insert(k, k);
      else
        map.erase(k);
    }
  });
  std::uint64_t prev = 0;
  std::vector<std::pair<Key, Val>> out;
  for (int i = 0; i < 2000; ++i) {
    out.clear();
    map.rangeQuery(0, kKeySpace - 1, out);
    for (const auto& [k, v] : out) EXPECT_EQ(k, v);
    const std::uint64_t now = map.rqRetries();
    ASSERT_GE(now, prev);
    prev = now;
  }
  stop.store(true, std::memory_order_release);
  mutator.join();
  map.checkInvariants();
}

// ---------------------------------------------------------------------------
// A parked batch slice delays no point update.
// ---------------------------------------------------------------------------

/// A shard tree whose next updateBatch after `armed` is set parks inside the
/// call until `released`.
class HoldingBst : public ds::IntBstPathCas<Key, Val> {
  using Base = ds::IntBstPathCas<Key, Val>;

 public:
  HoldingBst(OptionsType opts, recl::EbrDomain& ebr,
             recl::NodePool<Node>* pool)
      : Base(opts, ebr, pool) {}

  std::size_t updateBatch(const Key* keys, const Val* vals,
                          const bool* isInsert, std::size_t n, bool* out) {
    if (armed.exchange(false)) {
      held.store(true);
      while (!released.load()) std::this_thread::yield();
    }
    return Base::updateBatch(keys, vals, isInsert, n, out);
  }

  static inline std::atomic<bool> armed{false}, held{false}, released{false};
};

TEST(ShardedMapUpdates, ParkedBatchDoesNotBlockPointUpdates) {
  // Point updates take no lock: an insert and an erase on the shard of a
  // map-level updateBatch parked mid-commit return while it stays parked.
  using HoldMap = service::ShardedMap<HoldingBst>;
  HoldMap map(1, 64);
  constexpr Key kInserted = 3, kErased = 5, kHeldKey = 40;
  ASSERT_TRUE(map.insert(kErased, kErased));
  HoldingBst::released = false;
  HoldingBst::held = false;
  HoldingBst::armed = true;
  std::thread holder([&map] {
    ThreadGuard tg;
    const Key key = kHeldKey;
    const Val val = kHeldKey;
    const bool isInsert = true;
    bool out = false;
    map.updateBatch(&key, &val, &isInsert, 1, &out);
  });
  while (!HoldingBst::held.load()) std::this_thread::yield();
  std::atomic<int> done{0};
  bool inserted = false, erased = false;
  std::thread inserter([&] {
    ThreadGuard tg;
    inserted = map.insert(kInserted, kInserted);
    done.fetch_add(1);
  });
  std::thread eraser([&] {
    ThreadGuard tg;
    erased = map.erase(kErased);
    done.fetch_add(1);
  });
  const auto giveUp =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (done.load() < 2 && std::chrono::steady_clock::now() < giveUp)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const int doneWhileParked = done.load();
  HoldingBst::released = true;
  holder.join();
  inserter.join();
  eraser.join();
  EXPECT_EQ(doneWhileParked, 2)
      << "point updates waited 5 s for the parked batch";
  EXPECT_TRUE(inserted);
  EXPECT_TRUE(erased);
  EXPECT_TRUE(map.contains(kInserted));
  EXPECT_FALSE(map.contains(kErased));
  EXPECT_TRUE(map.contains(kHeldKey));
  map.checkInvariants();
}

// ---------------------------------------------------------------------------
// Teardown hygiene.
// ---------------------------------------------------------------------------

TEST(ShardedMap, DrainLeavesOnlyLiveNodes) {
  BstMap map(4, 256);
  for (Key k = 0; k < 256; ++k) ASSERT_TRUE(map.insert(k, k));
  for (Key k = 0; k < 256; k += 2) ASSERT_TRUE(map.erase(k));
  map.drain();  // quiescent: all limbo recycles into the shards' pools
  // 128 live keys + 2 sentinels per shard tree.
  EXPECT_EQ(map.liveNodes(), 128u + 2u * 4u);
  EXPECT_GT(map.footprintBytes(), 0u);
}

}  // namespace
}  // namespace pathcas::testing
