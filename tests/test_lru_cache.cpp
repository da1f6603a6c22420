// Composite-invariant battery for the KCAS-backed LRU/TTL cache
// (structs/lru_cache.hpp). The cache's claim is cross-structure atomicity:
// every mutation — hit promotion, insert, eviction, TTL collection — commits
// the hash index and the recency list in ONE KCAS. The battery checks that
// claim four ways:
//   1. oracle fuzz against a sequential unordered_map + list model under the
//      virtual TTL clock (capacity never exceeded, hit promotes to MRU, the
//      evicted key is the true LRU, expired entries are never returned);
//   2. deterministic TTL unit tests (no sleeps — TtlClock is pinned);
//   3. multi-thread churn with quiescent checkInvariants() between rounds
//      (hash set == list set, links agree, size honest);
//   4. a lin_check.hpp windowed stress: with capacity == keySpace and TTL 0
//      the cache IS a map (the size anchor in the eviction commit makes
//      spurious below-capacity evictions impossible), so put/erase/contains
//      histories must linearize window by window.
// Zero-leak teardown is a built-in: ~LruTtlCache drains its owned DomainSet
// and aborts unless every allocation is accounted for — every test exercises
// it by destruction.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <list>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "lin_check.hpp"
#include "structs/lru_cache.hpp"
#include "util/rand.hpp"
#include "util/thread_registry.hpp"
#include "util/timing.hpp"

namespace pathcas::testing {
namespace {

using Cache = ds::LruTtlCache<>;
using ds::CacheGet;

// ---------------------------------------------------------------------------
// Sequential oracle: unordered_map + std::list with the exact advertised
// semantics. front() of the list is MRU, back() is LRU.
// ---------------------------------------------------------------------------

class ModelCache {
 public:
  struct Put {
    bool updated = false;
    bool inserted = false;
    bool evicted = false;
    std::int64_t victim = 0;
  };

  explicit ModelCache(std::size_t cap) : cap_(cap) {}

  Put put(std::int64_t k, std::int64_t v, std::uint64_t ttlNs,
          std::uint64_t now) {
    Put res;
    const std::uint64_t exp = ttlNs == 0 ? 0 : now + ttlNs;
    auto it = map_.find(k);
    if (it != map_.end()) {
      // Present — even if its TTL lapsed but was never collected.
      it->second.val = v;
      it->second.exp = exp;
      touch(it);
      res.updated = true;
      return res;
    }
    if (map_.size() >= cap_) {
      res.evicted = true;
      res.victim = rec_.back();
      map_.erase(rec_.back());
      rec_.pop_back();
    }
    rec_.push_front(k);
    map_[k] = Entry{v, exp, rec_.begin()};
    res.inserted = true;
    return res;
  }

  CacheGet get(std::int64_t k, std::uint64_t now, std::int64_t* out) {
    auto it = map_.find(k);
    if (it == map_.end()) return CacheGet::kMiss;
    if (expired(it->second, now)) {
      rec_.erase(it->second.it);
      map_.erase(it);
      return CacheGet::kExpired;  // lazily collected, like the real thing
    }
    *out = it->second.val;
    touch(it);
    return CacheGet::kHit;
  }

  CacheGet peek(std::int64_t k, std::uint64_t now, std::int64_t* out) const {
    auto it = map_.find(k);
    if (it == map_.end()) return CacheGet::kMiss;
    if (expired(it->second, now)) return CacheGet::kExpired;
    *out = it->second.val;
    return CacheGet::kHit;
  }

  bool erase(std::int64_t k) {
    auto it = map_.find(k);
    if (it == map_.end()) return false;
    rec_.erase(it->second.it);
    map_.erase(it);
    return true;
  }

  std::size_t purgeExpired(std::uint64_t now) {
    std::size_t n = 0;
    for (auto it = map_.begin(); it != map_.end();) {
      if (expired(it->second, now)) {
        rec_.erase(it->second.it);
        it = map_.erase(it);
        ++n;
      } else {
        ++it;
      }
    }
    return n;
  }

  std::size_t size() const { return map_.size(); }
  std::vector<std::int64_t> recency() const {
    return {rec_.begin(), rec_.end()};
  }

 private:
  struct Entry {
    std::int64_t val;
    std::uint64_t exp;  // 0 = never
    std::list<std::int64_t>::iterator it;
  };
  static bool expired(const Entry& e, std::uint64_t now) {
    return e.exp != 0 && e.exp <= now;
  }
  void touch(std::unordered_map<std::int64_t, Entry>::iterator it) {
    rec_.erase(it->second.it);
    rec_.push_front(it->first);
    it->second.it = rec_.begin();
  }

  std::size_t cap_;
  std::list<std::int64_t> rec_;  // front = MRU
  std::unordered_map<std::int64_t, Entry> map_;
};

/// Pins the virtual clock for TTL determinism; restores real time on exit so
/// later tests (and the bench smokes) see the tsc again.
class LruCacheTtl : public ::testing::Test {
 protected:
  void SetUp() override { TtlClock::useVirtual(1'000); }
  void TearDown() override { TtlClock::useReal(); }
};

// ---------------------------------------------------------------------------
// Sequential semantics.
// ---------------------------------------------------------------------------

TEST(LruCache, BasicPutGetErase) {
  Cache c(4);
  EXPECT_EQ(c.size(), 0);
  EXPECT_EQ(c.capacity(), 4);
  EXPECT_FALSE(c.get(1).has_value());

  auto r = c.put(1, 10);
  EXPECT_TRUE(r.inserted);
  EXPECT_FALSE(r.updated);
  EXPECT_FALSE(r.evicted);
  EXPECT_EQ(c.get(1), std::optional<std::int64_t>(10));
  EXPECT_TRUE(c.contains(1));

  r = c.put(1, 11);  // refresh
  EXPECT_TRUE(r.updated);
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(c.get(1), std::optional<std::int64_t>(11));
  EXPECT_EQ(c.size(), 1);

  EXPECT_TRUE(c.erase(1));
  EXPECT_FALSE(c.erase(1));
  EXPECT_EQ(c.size(), 0);
  EXPECT_FALSE(c.contains(1));
  EXPECT_GT(c.footprintBytes(), 0u);
  c.checkInvariants();
}

TEST(LruCache, HitPromotesToMruAndEvictionTakesTrueLru) {
  Cache c(3);
  c.put(1, 1);
  c.put(2, 2);
  c.put(3, 3);
  EXPECT_EQ(c.recencyKeys(), (std::vector<std::int64_t>{3, 2, 1}));

  std::int64_t v = 0;
  EXPECT_EQ(c.get(1, &v), CacheGet::kHit);  // promotes 1
  EXPECT_EQ(c.recencyKeys(), (std::vector<std::int64_t>{1, 3, 2}));

  EXPECT_EQ(c.get(1, &v), CacheGet::kHit);  // already MRU: commit-free path
  EXPECT_EQ(c.recencyKeys(), (std::vector<std::int64_t>{1, 3, 2}));

  EXPECT_EQ(c.peek(2, &v), CacheGet::kHit);  // peek must NOT promote
  EXPECT_EQ(c.recencyKeys(), (std::vector<std::int64_t>{1, 3, 2}));

  const auto r = c.put(4, 4);  // full: 2 is now the true LRU
  EXPECT_TRUE(r.inserted);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim, 2);
  EXPECT_FALSE(c.contains(2));
  EXPECT_EQ(c.recencyKeys(), (std::vector<std::int64_t>{4, 1, 3}));
  EXPECT_EQ(c.size(), 3);
  c.checkInvariants();
}

TEST(LruCache, CapacityOneAndTwoEvictionAliases) {
  // capacity 1 hits the single-entry splice (victim == displaced MRU);
  // capacity 2 hits the vp == m two-element case. Both are the aliasing
  // branches the Bumps dedupe exists for.
  Cache one(1);
  EXPECT_TRUE(one.put(7, 70).inserted);
  const auto r1 = one.put(8, 80);
  EXPECT_TRUE(r1.evicted);
  EXPECT_EQ(r1.victim, 7);
  EXPECT_EQ(one.size(), 1);
  EXPECT_EQ(one.get(8), std::optional<std::int64_t>(80));
  EXPECT_FALSE(one.contains(7));
  one.checkInvariants();

  Cache two(2);
  two.put(1, 1);
  two.put(2, 2);
  const auto r2 = two.put(3, 3);
  EXPECT_TRUE(r2.evicted);
  EXPECT_EQ(r2.victim, 1);
  EXPECT_EQ(two.recencyKeys(), (std::vector<std::int64_t>{3, 2}));
  two.checkInvariants();
}

// ---------------------------------------------------------------------------
// TTL under the virtual clock — no sleeps anywhere.
// ---------------------------------------------------------------------------

TEST_F(LruCacheTtl, ExpiredEntriesAreNeverReturned) {
  Cache c(4);
  c.put(1, 10, /*ttlNs=*/100);
  c.put(2, 20);  // no TTL

  std::int64_t v = 0;
  TtlClock::advance(99);  // now = 1'099 < 1'100: still live
  EXPECT_EQ(c.get(1, &v), CacheGet::kHit);
  EXPECT_EQ(v, 10);

  TtlClock::advance(2);  // now = 1'101 >= deadline
  EXPECT_EQ(c.peek(1, &v), CacheGet::kExpired);  // observed, NOT collected
  EXPECT_EQ(c.size(), 2);
  EXPECT_EQ(c.get(1, &v), CacheGet::kExpired);  // lazily collected
  EXPECT_EQ(c.size(), 1);
  EXPECT_EQ(c.get(1, &v), CacheGet::kMiss);  // gone for good
  EXPECT_FALSE(c.contains(1));
  EXPECT_EQ(c.peek(2, &v), CacheGet::kHit);  // TTL-free entry unaffected
  c.checkInvariants();
}

TEST_F(LruCacheTtl, PutRefreshesAnExpiredEntryInPlace) {
  Cache c(4);
  c.put(5, 50, /*ttlNs=*/10);
  TtlClock::advance(20);
  std::int64_t v = 0;
  EXPECT_EQ(c.peek(5, &v), CacheGet::kExpired);
  const auto r = c.put(5, 51, /*ttlNs=*/100);  // present (uncollected): refresh
  EXPECT_TRUE(r.updated);
  EXPECT_FALSE(r.inserted);
  EXPECT_EQ(c.get(5), std::optional<std::int64_t>(51));
  EXPECT_EQ(c.size(), 1);
}

TEST_F(LruCacheTtl, PurgeExpiredCollectsExactlyTheLapsed) {
  Cache c(8);
  c.put(1, 1, /*ttlNs=*/10);
  c.put(2, 2, /*ttlNs=*/1'000);
  c.put(3, 3);  // never expires
  c.put(4, 4, /*ttlNs=*/10);
  TtlClock::advance(50);
  EXPECT_EQ(c.purgeExpired(), 2u);  // 1 and 4
  EXPECT_EQ(c.size(), 2);
  EXPECT_TRUE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
  EXPECT_EQ(c.purgeExpired(), 0u);  // idempotent
  TtlClock::advance(10'000);
  EXPECT_EQ(c.purgeExpired(/*maxVictims=*/1), 1u);  // bounded sweep
  EXPECT_EQ(c.size(), 1);
  EXPECT_TRUE(c.contains(3));
  c.checkInvariants();
}

// ---------------------------------------------------------------------------
// Oracle fuzz: every op's result, the size, and the full recency order must
// match the sequential model at all times.
// ---------------------------------------------------------------------------

TEST_F(LruCacheTtl, OracleFuzzMatchesSequentialModel) {
  constexpr std::size_t kCap = 16;
  constexpr std::int64_t kKeys = 48;
  constexpr int kOps = 60'000;
  Cache c(kCap);
  ModelCache m(kCap);
  Xoshiro256 rng(0xCAC4Eull);

  for (int i = 0; i < kOps; ++i) {
    const std::int64_t k =
        static_cast<std::int64_t>(rng.nextBounded(kKeys));
    const std::uint64_t dice = rng.nextBounded(100);
    const std::uint64_t now = TtlClock::nowNs();
    if (dice < 40) {
      const std::int64_t v = static_cast<std::int64_t>(rng.next() >> 8);
      // A third of puts carry a short TTL so expiry interleaves with LRU.
      const std::uint64_t ttl = dice % 3 == 0 ? 50 + rng.nextBounded(200) : 0;
      const auto got = c.put(k, v, ttl);
      const auto want = m.put(k, v, ttl, now);
      ASSERT_EQ(got.updated, want.updated) << "op " << i;
      ASSERT_EQ(got.inserted, want.inserted) << "op " << i;
      ASSERT_EQ(got.evicted, want.evicted) << "op " << i;
      if (want.evicted) {
        ASSERT_EQ(got.victim, want.victim)
            << "op " << i << ": evicted key is not the true LRU";
      }
    } else if (dice < 65) {
      std::int64_t got = 0, want = 0;
      const auto gotR = c.get(k, &got);
      const auto wantR = m.get(k, now, &want);
      ASSERT_EQ(gotR, wantR) << "op " << i << " key " << k;
      if (gotR == CacheGet::kHit) {
        ASSERT_EQ(got, want) << "op " << i;
      }
    } else if (dice < 80) {
      std::int64_t got = 0, want = 0;
      const auto gotR = c.peek(k, &got);
      const auto wantR = m.peek(k, now, &want);
      ASSERT_EQ(gotR, wantR) << "op " << i << " key " << k;
      if (gotR == CacheGet::kHit) {
        ASSERT_EQ(got, want) << "op " << i;
      }
    } else if (dice < 95) {
      ASSERT_EQ(c.erase(k), m.erase(k)) << "op " << i << " key " << k;
    } else {
      ASSERT_EQ(c.purgeExpired(), m.purgeExpired(now)) << "op " << i;
    }
    if (dice % 7 == 0) TtlClock::advance(1 + rng.nextBounded(40));

    ASSERT_EQ(static_cast<std::size_t>(c.size()), m.size()) << "op " << i;
    ASSERT_LE(c.size(), c.capacity()) << "op " << i << ": capacity exceeded";
    if (i % 1'000 == 0) {
      ASSERT_EQ(c.recencyKeys(), m.recency()) << "op " << i;
      c.checkInvariants();
    }
  }
  ASSERT_EQ(c.recencyKeys(), m.recency());
  c.checkInvariants();
}

// ---------------------------------------------------------------------------
// Concurrent churn: structural invariants must hold at every quiescent point.
// ---------------------------------------------------------------------------

TEST(LruCacheConcurrent, ChurnKeepsCompositeInvariants) {
  constexpr std::size_t kCap = 64;
  constexpr std::int64_t kKeys = 128;
  const int threads = 8;
  constexpr int kOpsPerThread = 30'000;
  Cache c(kCap);
  // Entries the calls reported adding minus those they reported removing:
  // inserts, less evictions, kExpired collections, successful erases and
  // purgeExpired counts.
  std::atomic<std::int64_t> reportedNet{0};
  for (int round = 0; round < 3; ++round) {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t, round] {
        ThreadGuard tg;
        Xoshiro256 rng(0xC0FFEEull * (round + 1) +
                       static_cast<std::uint64_t>(t));
        std::int64_t v = 0;
        std::int64_t net = 0;
        for (int i = 0; i < kOpsPerThread; ++i) {
          const std::int64_t k =
              static_cast<std::int64_t>(rng.nextBounded(kKeys));
          const std::uint64_t dice = rng.nextBounded(100);
          if (dice < 35) {
            const std::uint64_t ttl = dice % 5 == 0 ? 1'000 : 0;  // 1µs TTLs
            const auto r = c.put(k, k * 2 + 1, ttl);
            net += (r.inserted ? 1 : 0) - (r.evicted ? 1 : 0);
          } else if (dice < 70) {
            const auto r = c.get(k, &v);
            if (r == CacheGet::kHit) {
              EXPECT_EQ(v, k * 2 + 1);  // torn-value detector
            } else if (r == CacheGet::kExpired) {
              --net;
            }
          } else if (dice < 90) {
            if (c.erase(k)) --net;
          } else if (dice < 99) {
            std::int64_t pv = 0;
            if (c.peek(k, &pv) == CacheGet::kHit) {
              EXPECT_EQ(pv, k * 2 + 1);
            }
          } else {
            net -= static_cast<std::int64_t>(c.purgeExpired(4));
          }
          EXPECT_LE(c.size(), c.capacity());
        }
        reportedNet.fetch_add(net);
      });
    }
    for (auto& w : workers) w.join();
    c.checkInvariants();  // quiescent: hash set == list set, size honest
    // ...and every call reported what it did to the entry count.
    EXPECT_EQ(reportedNet.load(), c.size()) << "round " << round;
    c.drain();
  }
}

// ---------------------------------------------------------------------------
// Windowed linearizability: with capacity == keySpace and no TTL the cache
// is exactly a map (the eviction path can never fire: a commit only evicts
// when the size anchor proves fullness, and full here means every key is
// present so no put can miss). put/erase/contains histories must therefore
// linearize window by window under lin_check's membership-mask replay.
// ---------------------------------------------------------------------------

TEST(LruCacheLin, WindowedStressPureMapSemantics) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 2'500;
  constexpr std::int64_t kKeySpace = 8;
  Cache cache(static_cast<std::size_t>(kKeySpace));

  std::atomic<std::uint64_t> clock{0};
  std::vector<RecordedOp> history(
      static_cast<std::size_t>(kRounds * kThreads));
  std::barrier barrier(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ThreadGuard tg;
      Xoshiro256 rng(0x11CAC4Eull + static_cast<std::uint64_t>(t));
      for (int r = 0; r < kRounds; ++r) {
        barrier.arrive_and_wait();
        RecordedOp rec;
        const std::int64_t k = static_cast<std::int64_t>(
            rng.nextBounded(static_cast<std::uint64_t>(kKeySpace)));
        const std::uint64_t dice = rng.nextBounded(100);
        if (dice < 40) {
          // put == map insert: inserted <=> the key was absent. The value is
          // always k so refreshes are invisible to the membership mask.
          rec.kind = OpKind::kInsert;
          rec.a = k;
          rec.inv = clock.fetch_add(1);
          rec.boolResult = cache.put(k, k).inserted;
        } else if (dice < 75) {
          rec.kind = OpKind::kErase;
          rec.a = k;
          rec.inv = clock.fetch_add(1);
          rec.boolResult = cache.erase(k);
        } else if (dice < 90) {
          rec.kind = OpKind::kContains;
          rec.a = k;
          rec.inv = clock.fetch_add(1);
          rec.boolResult = cache.contains(k);
        } else {
          // Promoting read: membership-wise identical to contains (TTL 0
          // means kExpired is unreachable), but it commits recency splices,
          // keeping the promotion KCAS in the racing mix.
          rec.kind = OpKind::kContains;
          rec.a = k;
          std::int64_t v = 0;
          rec.inv = clock.fetch_add(1);
          rec.boolResult = cache.get(k, &v) == CacheGet::kHit;
          if (rec.boolResult) {
            EXPECT_EQ(v, k);
          }
        }
        rec.res = clock.fetch_add(1);
        history[static_cast<std::size_t>(r * kThreads + t)] = std::move(rec);
      }
    });
  }
  for (auto& w : workers) w.join();

  std::set<LinState> states = {0};
  for (int r = 0; r < kRounds; ++r) {
    const std::vector<RecordedOp> window(
        history.begin() + static_cast<std::ptrdiff_t>(r * kThreads),
        history.begin() + static_cast<std::ptrdiff_t>((r + 1) * kThreads));
    states = linearizeWindow(window, states);
    ASSERT_FALSE(states.empty())
        << "cache history not linearizable at window " << r << ": "
        << describeWindow(window);
  }

  // The cache's actual final contents must be a linearizable outcome.
  LinState finalMask = 0;
  for (std::int64_t k = 0; k < kKeySpace; ++k) {
    if (cache.peek(k) == CacheGet::kHit) finalMask |= LinState{1} << k;
  }
  EXPECT_TRUE(states.count(finalMask))
      << "final contents (mask " << finalMask
      << ") not among the linearizable outcomes";
  cache.checkInvariants();
}

}  // namespace
}  // namespace pathcas::testing
