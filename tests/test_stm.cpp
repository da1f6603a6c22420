// Unit tests for the TM baselines themselves (independent of the trees):
// atomicity (bank-transfer invariant), write-read coherence inside a
// transaction, abort/retry behaviour, and opacity-style snapshot checks.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "stm/elastic.hpp"
#include "stm/glock.hpp"
#include "stm/norec.hpp"
#include "stm/tl2.hpp"
#include "stm/tle.hpp"
#include "util/rand.hpp"
#include "util/thread_registry.hpp"

namespace pathcas::stm {
namespace {

template <typename TM>
class TmTest : public ::testing::Test {
 protected:
  TM tm;
};

using AllTms = ::testing::Types<NOrec, TL2, TLE, GlobalLockTm, Elastic>;

class TmNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    return T::name();
  }
};

TYPED_TEST_SUITE(TmTest, AllTms, TmNames);

TYPED_TEST(TmTest, ReadYourOwnWrites) {
  tmword<std::int64_t> x(5);
  this->tm.atomically([&](auto& tx) {
    EXPECT_EQ(tx.read(x), 5);
    tx.write(x, 9);
    EXPECT_EQ(tx.read(x), 9);  // must see the buffered write
    tx.write(x, 11);
    EXPECT_EQ(tx.read(x), 11);
  });
  EXPECT_EQ(tmword<std::int64_t>::unpack(x.raw().load()), 11);
}

TYPED_TEST(TmTest, ReadOnlyTransactionReturnsValue) {
  tmword<std::int64_t> x(7);
  const auto v =
      this->tm.atomically([&](auto& tx) { return tx.read(x); });
  EXPECT_EQ(v, 7);
}

TYPED_TEST(TmTest, VoidBodyCommits) {
  tmword<std::int64_t> x(0);
  this->tm.atomically([&](auto& tx) { tx.write(x, 3); });
  EXPECT_EQ(tmword<std::int64_t>::unpack(x.raw().load()), 3);
}

TYPED_TEST(TmTest, PointerPayloadRoundTrip) {
  int dummy;
  tmword<int*> p(nullptr);
  this->tm.atomically([&](auto& tx) {
    EXPECT_EQ(tx.read(p), nullptr);
    tx.write(p, &dummy);
  });
  const auto v = this->tm.atomically([&](auto& tx) { return tx.read(p); });
  EXPECT_EQ(v, &dummy);
}

TYPED_TEST(TmTest, BankTransferInvariant) {
  constexpr int kAccounts = 10;
  constexpr std::int64_t kInitial = 1000;
  constexpr int kThreads = 4, kOps = 4000;
  std::vector<tmword<std::int64_t>> accounts(kAccounts);
  for (auto& a : accounts) a.setInitial(kInitial);

  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      ThreadGuard tg;
      Xoshiro256 rng(42 + w);
      for (int i = 0; i < kOps; ++i) {
        const int from = static_cast<int>(rng.nextBounded(kAccounts));
        int to = static_cast<int>(rng.nextBounded(kAccounts));
        if (to == from) to = (to + 1) % kAccounts;
        const auto amount = static_cast<std::int64_t>(rng.nextBounded(10));
        this->tm.atomically([&](auto& tx) {
          const std::int64_t f = tx.read(accounts[from]);
          if (f < amount) return;
          tx.write(accounts[from], f - amount);
          tx.write(accounts[to], tx.read(accounts[to]) + amount);
        });
      }
    });
  }
  for (auto& th : workers) th.join();
  std::int64_t total = 0;
  for (auto& a : accounts)
    total += tmword<std::int64_t>::unpack(a.raw().load());
  EXPECT_EQ(total, kInitial * kAccounts);
}

// Readers taking whole-array snapshots must always observe the conserved
// total (snapshot atomicity / opacity-by-validation).
TYPED_TEST(TmTest, SnapshotsObserveConservedTotal) {
  constexpr int kAccounts = 6;
  constexpr std::int64_t kInitial = 50;
  std::vector<tmword<std::int64_t>> accounts(kAccounts);
  for (auto& a : accounts) a.setInitial(kInitial);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    ThreadGuard tg;
    Xoshiro256 rng(3);
    while (!stop.load(std::memory_order_relaxed)) {
      const int i = static_cast<int>(rng.nextBounded(kAccounts));
      const int j = (i + 1) % kAccounts;
      this->tm.atomically([&](auto& tx) {
        const auto a = tx.read(accounts[i]);
        if (a == 0) return;
        tx.write(accounts[i], a - 1);
        tx.write(accounts[j], tx.read(accounts[j]) + 1);
      });
    }
  });
  {
    ThreadGuard tg;
    for (int iter = 0; iter < 5000; ++iter) {
      const auto total = this->tm.atomically([&](auto& tx) {
        std::int64_t sum = 0;
        for (auto& a : accounts) sum += tx.read(a);
        return sum;
      });
      ASSERT_EQ(total, kInitial * kAccounts);
    }
  }
  stop.store(true);
  writer.join();
}

TEST(NOrecSpecific, CommitsAndAbortsAreCounted) {
  NOrec tm;
  tmword<std::int64_t> x(0);
  for (int i = 0; i < 10; ++i) {
    tm.atomically([&](auto& tx) { tx.write(x, tx.read(x) + 1); });
  }
  EXPECT_GE(tm.totalStats().commits, 10u);
}

TEST(ElasticSpecific, ElasticReadsDropOutOfReadSet) {
  // A long read-only prefix followed by one write: changes *behind* the
  // window (to earlier-read locations) must not abort the commit. We
  // simulate by writing to an early location from the same thread between
  // transactions — with a plain TL2 this pattern aborts when interleaved;
  // here we just assert a long traversal + write commits (smoke; the real
  // interleaving coverage is in the tree stress tests).
  Elastic tm;
  constexpr int kN = 100;
  std::vector<tmword<std::int64_t>> arr(kN);
  for (int i = 0; i < kN; ++i) arr[i].setInitial(i);
  const auto last = tm.atomicallyElastic([&](auto& tx) {
    std::int64_t v = 0;
    for (int i = 0; i < kN; ++i) v = tx.read(arr[i]);  // elastic traversal
    tx.write(arr[kN - 1], v + 1);                      // harden + commit
    return v;
  });
  EXPECT_EQ(last, kN - 1);
  EXPECT_EQ(tmword<std::int64_t>::unpack(arr[kN - 1].raw().load()), kN);
}

// What elasticity does guarantee a read-only transaction: each pair of
// consecutive reads is mutually consistent, even while the view slides
// forward past concurrent commits.
TEST(ElasticSpecific, ConsecutiveReadsAreMutuallyConsistent) {
  Elastic tm;
  tmword<std::int64_t> x(0), y(0);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    ThreadGuard tg;
    for (std::int64_t n = 1; !stop.load(std::memory_order_relaxed); ++n) {
      tm.atomically([&](auto& tx) {
        tx.write(x, n);
        tx.write(y, n);
      });
    }
  });
  int torn = 0;
  {
    ThreadGuard tg;
    for (int iter = 0; iter < 20000; ++iter) {
      const auto [a, b] = tm.atomicallyElastic([&](auto& tx) {
        const std::int64_t first = tx.read(x);
        return std::pair{first, tx.read(y)};
      });
      if (a != b) ++torn;
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(torn, 0);
}

}  // namespace
}  // namespace pathcas::stm
