// Unit tests for the overload-protection subsystem: the ArrivalSpec
// qdepth/deadline grammar (bench_fw/workload.hpp), the bounded admission
// queue and adaptive flush policy as pure logic over a hand-fed clock
// (bench_fw/admission.hpp), deterministic replay of shed decisions on the
// pinned virtual clock (util/timing.hpp, TtlClock), and the driver end to
// end — the accounting identity offered == admitted + shed + rejected,
// goodput, the cold-window flush-deadline regression at ~1 op/s per
// window, and deadline flushes landing at their ops' deadline
// (bench_fw/driver.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_fw/adapters.hpp"
#include "bench_fw/admission.hpp"
#include "bench_fw/workload.hpp"
#include "util/rand.hpp"
#include "util/timing.hpp"

namespace pathcas::bench {
namespace {

using testing::PathCasBstAdapter;

/// Restore the process-wide real clock even when a test fails mid-way — a
/// pinned virtual clock would otherwise poison every later trial in the
/// binary.
struct RealClockGuard {
  ~RealClockGuard() { TtlClock::useReal(); }
};

// ---------------------------------------------------------------------------
// ArrivalSpec grammar: qdepth / deadline suffixes
// ---------------------------------------------------------------------------

TEST(ArrivalSpecAdmission, ParsesAndRoundTripsSuffixes) {
  struct Case {
    const char* s;
    int qdepth;
    std::int64_t deadlineNs;
  };
  const Case good[] = {
      {"poisson:500000", 0, 0},
      {"poisson:500000:q64", 64, 0},
      {"poisson:500000:d2000000", 0, 2000000},
      {"poisson:500000:q64:d2000000", 64, 2000000},
      {"poisson:1e6:d250000:q8", 8, 250000},  // order-free
  };
  for (const Case& c : good) {
    ArrivalSpec spec;
    ASSERT_TRUE(ArrivalSpec::parse(c.s, &spec)) << c.s;
    EXPECT_TRUE(spec.open) << c.s;
    EXPECT_EQ(spec.qdepth, c.qdepth) << c.s;
    EXPECT_EQ(spec.deadlineNs, c.deadlineNs) << c.s;
    // label() must round-trip to an identical spec.
    ArrivalSpec again;
    ASSERT_TRUE(ArrivalSpec::parse(spec.label(), &again)) << spec.label();
    EXPECT_EQ(again.qdepth, c.qdepth) << spec.label();
    EXPECT_EQ(again.deadlineNs, c.deadlineNs) << spec.label();
    EXPECT_EQ(again.label(), spec.label());
  }
  const char* bad[] = {
      "poisson:1:q0",      // zero qdepth
      "poisson:1:d0",      // zero deadline
      "poisson:1:q",       // missing value
      "poisson:1:d",       //
      "poisson:1:q-3",     // negative
      "poisson:1:x5",      // unknown field
      "poisson:1:q2:q3",   // duplicate field
      "poisson:1:d5:d6",   //
      "poisson:1:q2.5",    // non-integral
      "closed:q1",         // closed takes no suffixes
      "poisson:1:2",       // legacy bad case stays bad
  };
  for (const char* s : bad) {
    ArrivalSpec spec;
    EXPECT_FALSE(ArrivalSpec::parse(s, &spec)) << s;
  }
}

// ---------------------------------------------------------------------------
// AdmissionQueue: pure logic over caller timestamps
// ---------------------------------------------------------------------------

TEST(AdmissionQueue, RejectsWhenFull) {
  AdmissionQueue q(2, 0);
  EXPECT_TRUE(q.offer(10));
  EXPECT_TRUE(q.offer(20));
  EXPECT_FALSE(q.offer(30));  // bound hit: rejected, not enqueued
  EXPECT_EQ(q.offered(), 3u);
  EXPECT_EQ(q.rejected(), 1u);
  EXPECT_EQ(q.size(), 2u);
  std::uint64_t a = 0;
  EXPECT_EQ(q.pop(25, &a), AdmissionQueue::Pop::kAdmit);
  EXPECT_EQ(a, 10u);  // FIFO, and the arrival instant comes back out
  EXPECT_TRUE(q.offer(40));  // a pop freed a slot
  EXPECT_EQ(q.rejected(), 1u);
}

TEST(AdmissionQueue, ShedsExactlyPastDeadline) {
  AdmissionQueue q(0, 100);  // unbounded queue, 100ns deadline
  ASSERT_TRUE(q.offer(1000));
  ASSERT_TRUE(q.offer(1000));
  ASSERT_TRUE(q.offer(1000));
  std::uint64_t a = 0;
  // Wait == deadline admits (the client is still waiting at the deadline);
  // deadline + 1 sheds.
  EXPECT_EQ(q.pop(1100, &a), AdmissionQueue::Pop::kAdmit);
  EXPECT_EQ(q.pop(1101, &a), AdmissionQueue::Pop::kShed);
  // nowNs before the arrival (clock skew between workers' reads) admits.
  EXPECT_EQ(q.pop(999, &a), AdmissionQueue::Pop::kAdmit);
  EXPECT_EQ(q.pop(999, &a), AdmissionQueue::Pop::kEmpty);
  EXPECT_EQ(q.admitted(), 2u);
  EXPECT_EQ(q.shed(), 1u);
}

TEST(AdmissionQueue, ShedRemainingKeepsIdentity) {
  AdmissionQueue q(4, 50);
  for (int i = 0; i < 6; ++i) q.offer(static_cast<std::uint64_t>(i));
  std::uint64_t a = 0;
  (void)q.pop(1000, &a);  // arrival 0, wait ~1000 > 50: shed
  (void)q.pop(10, &a);    // arrival 1, wait 9 <= 50: admit
  q.shedRemaining();      // 2 left in queue
  EXPECT_EQ(q.offered(), 6u);
  EXPECT_EQ(q.admitted() + q.shed() + q.rejected(), q.offered());
  EXPECT_EQ(q.size(), 0u);
}

TEST(AdmissionQueue, FuzzIdentityHoldsUnderRandomScripts) {
  // Random offer/pop interleavings with a monotone clock: whatever the
  // schedule, after shedRemaining the identity is exact.
  Xoshiro256 rng(20260809);
  for (int trial = 0; trial < 50; ++trial) {
    const int qdepth = static_cast<int>(rng.nextBounded(8));  // 0 = unbounded
    const std::int64_t deadline =
        static_cast<std::int64_t>(rng.nextBounded(200));  // 0 = never shed
    AdmissionQueue q(qdepth, deadline);
    std::uint64_t now = 1;
    std::uint64_t admitted = 0;
    for (int step = 0; step < 1000; ++step) {
      now += rng.nextBounded(100);
      if (rng.nextBounded(2) == 0) {
        (void)q.offer(now);
      } else {
        std::uint64_t a = 0;
        if (q.pop(now, &a) == AdmissionQueue::Pop::kAdmit) {
          ++admitted;
          ASSERT_LE(a, now + 0u);
          if (deadline > 0) {
            ASSERT_LE(now - a, static_cast<std::uint64_t>(deadline));
          }
        }
      }
    }
    q.shedRemaining();
    EXPECT_EQ(q.admitted(), admitted);
    EXPECT_EQ(q.offered(), q.admitted() + q.shed() + q.rejected())
        << "qdepth=" << qdepth << " deadline=" << deadline;
  }
}

// ---------------------------------------------------------------------------
// Deterministic shedding on the pinned virtual clock
// ---------------------------------------------------------------------------

/// Replay a fixed arrival/service script against an AdmissionQueue driven by
/// the virtual clock and return the admit/shed/reject decision sequence.
std::vector<int> replayScript() {
  std::vector<int> decisions;  // 0 = rejected at offer, 1 = admit, 2 = shed
  TtlClock::set(1'000);
  AdmissionQueue q(2, 100);
  const std::uint64_t arrivals[] = {1'000, 1'010, 1'020, 1'030, 1'200, 1'210};
  std::size_t next = 0;
  // Service loop: every iteration advances the virtual clock by a fixed
  // 150ns "service time", offers everything due, then pops once.
  for (int iter = 0; iter < 6; ++iter) {
    const std::uint64_t now = TtlClock::nowNs();
    while (next < std::size(arrivals) && arrivals[next] <= now) {
      if (!q.offer(arrivals[next])) decisions.push_back(0);
      ++next;
    }
    std::uint64_t a = 0;
    switch (q.pop(now, &a)) {
      case AdmissionQueue::Pop::kAdmit: decisions.push_back(1); break;
      case AdmissionQueue::Pop::kShed: decisions.push_back(2); break;
      case AdmissionQueue::Pop::kEmpty: break;
    }
    TtlClock::advance(150);
  }
  q.shedRemaining();
  return decisions;
}

TEST(AdmissionVirtualClock, ShedDecisionsReplayIdentically) {
  RealClockGuard rcg;
  const std::vector<int> first = replayScript();
  const std::vector<int> second = replayScript();
  EXPECT_EQ(first, second) << "same script, same clock, same decisions";
  // And the exact hand-computed sequence:
  //   iter0 t=1000: offer 1000; pop -> ADMIT (wait 0)
  //   iter1 t=1150: offer 1010,1020 -> queue full, 1030 REJECTED;
  //                 pop 1010 -> wait 140 > 100 -> SHED
  //   iter2 t=1300: offer 1200 (queue [1020,1200]), 1210 due too but the
  //                 queue is full again -> REJECTED; pop 1020 -> wait 280
  //                 -> SHED
  //   iter3 t=1450: pop 1200 -> wait 250 -> SHED
  //   iter4 t=1600: queue empty -> nothing
  //   iter5 t=1750: queue empty -> nothing
  const std::vector<int> expected = {1, 0, 2, 0, 2, 2};
  EXPECT_EQ(first, expected);
}

// ---------------------------------------------------------------------------
// AdaptiveFlushPolicy
// ---------------------------------------------------------------------------

TEST(AdaptiveFlushPolicy, ShrinksOnDeadlineGrowsOnFull) {
  AdaptiveFlushPolicy p(64, 1000);
  EXPECT_TRUE(p.timed());
  EXPECT_EQ(p.window(), 64u);
  p.noteDeadline();
  EXPECT_EQ(p.window(), 32u);
  p.noteDeadline();
  p.noteDeadline();
  p.noteDeadline();
  p.noteDeadline();
  EXPECT_EQ(p.window(), 2u);
  p.noteDeadline();
  EXPECT_EQ(p.window(), 2u) << "floor at min(2, max)";
  p.noteFull();
  EXPECT_EQ(p.window(), 4u);
  for (int i = 0; i < 10; ++i) p.noteFull();
  EXPECT_EQ(p.window(), 64u) << "ceiling at the configured max";
  EXPECT_EQ(p.deadlineFlushes(), 6u);
  EXPECT_EQ(p.fullFlushes(), 11u);
}

TEST(AdaptiveFlushPolicy, FlushDueLeavesTimeForTheCommit) {
  AdaptiveFlushPolicy p(8, 100);
  // The window ages from the oldest op's scheduled arrival, however late
  // the op was admitted. Without a measured commit the flush is due when
  // the op has aged the whole deadline.
  p.windowOpened(/*arrivalNs=*/1000);
  EXPECT_FALSE(p.flushDue(1099, 1));
  EXPECT_TRUE(p.flushDue(1100, 1));  // aged exactly to the deadline
  // A measured commit of 2 ops in 40 ns predicts 20 ns per buffered op, so
  // the flush is due that much before the deadline.
  p.noteCommit(40, 2);
  p.windowOpened(2000);
  EXPECT_FALSE(p.flushDue(2079, 1));
  EXPECT_TRUE(p.flushDue(2080, 1));  // 2080 + 20 >= 2100
  EXPECT_FALSE(p.flushDue(2039, 3));
  EXPECT_TRUE(p.flushDue(2040, 3));  // three ops: 2040 + 60 >= 2100
  AdaptiveFlushPolicy untimed(8, 0);
  EXPECT_FALSE(untimed.timed());
  untimed.windowOpened(1000);
  EXPECT_FALSE(untimed.flushDue(1'000'000'000, 1));
}

// ---------------------------------------------------------------------------
// Driver end to end
// ---------------------------------------------------------------------------

TrialResult runSmall(TrialConfig cfg) {
  cfg.keyRange = 1 << 10;
  cfg.durationMs = 50;
  cfg.insertFrac = 0.25;
  cfg.deleteFrac = 0.25;
  return runCell([] { return std::make_unique<PathCasBstAdapter<false>>(); },
                 cfg);
}

TEST(DriverAdmission, ClosedLoopIdentityIsTrivial) {
  TrialConfig cfg;
  cfg.threads = 2;
  const TrialResult r = runSmall(cfg);
  EXPECT_EQ(r.opsOffered, r.totalOps);
  EXPECT_EQ(r.opsShed, 0u);
  EXPECT_EQ(r.opsRejected, 0u);
  // No deadline: goodput IS throughput.
  EXPECT_DOUBLE_EQ(r.goodputMops, r.mops);
}

TEST(DriverAdmission, OverloadShedsAndKeepsIdentity) {
  TrialConfig cfg;
  cfg.threads = 2;
  cfg.latency = true;
  cfg.latSampleShift = 0;
  cfg.arrival.open = true;
  cfg.arrival.ratePerSec = 20e6;  // far past capacity: forced overload
  cfg.arrival.qdepth = 64;
  cfg.arrival.deadlineNs = 200'000;  // 200us
  const TrialResult r = runSmall(cfg);
  // The trial itself enforces the identity via PATHCAS_CHECK; re-assert it
  // here so a future refactor that drops the in-driver check still fails.
  EXPECT_EQ(r.opsOffered, r.totalOps + r.opsShed + r.opsRejected);
  EXPECT_GT(r.totalOps, 0u);
  // 20M ops/s against a 2-thread tree: the bounded queue must reject (it
  // holds 64 of a multi-ms backlog) and the deadline must shed.
  EXPECT_GT(r.opsRejected, 0u);
  EXPECT_GT(r.opsShed, 0u);
  EXPECT_TRUE(r.keysumOk);
  // Every admitted op was popped within the deadline, so its recorded queue
  // wait is bounded by deadline plus one service time — far below the
  // multi-second backlog the shed-off loop would record. Allow generous
  // scheduler slop; the load-bearing claim is "bounded, not backlog".
  ASSERT_TRUE(r.lat.valid);
  EXPECT_GT(r.lat.of(OpCat::kSched).count, 0u);
  EXPECT_LT(r.lat.of(OpCat::kSched).p99Ns, 50e6)
      << "admitted queue waits must not grow into the shed-off backlog";
  // Goodput counts only deadline-meeting completions.
  EXPECT_LE(r.goodputMops, r.mops + 1e-9);
}

/// The BST adapter, but every updateBatch takes kCommitNs of virtual time.
struct TimedCommitBst : PathCasBstAdapter<false> {
  static constexpr std::uint64_t kCommitNs = 300'000;
  std::size_t updateBatch(const testing::Key* ks, const testing::Val* vs,
                          const bool* isInsert,
                          std::size_t n, bool* out) {
    TtlClock::advance(kCommitNs);
    return PathCasBstAdapter<false>::updateBatch(ks, vs, isInsert, n, out);
  }
};

TEST(DriverAdmission, DeadlineFlushLandsAtTheDeadline) {
  // Regression: a deadline flush aged its window from the oldest op's
  // admission and fired only once the whole deadline had passed, so the
  // flushed op completed a whole commit past its deadline, counted from its
  // scheduled arrival, and never counted toward goodput. The window now
  // ages from the scheduled arrival and flushes one predicted commit
  // (0.3 virtual ms here) before the 1 ms deadline. The virtual clock moves
  // in 0.1 ms steps and the flush fires at the first step past its due
  // instant, so a flushed op lands within one step of its deadline: its
  // latency reads 1.0-1.1 ms, against 1.3-1.4 ms under the old rule.
  RealClockGuard rcg;
  TrialConfig cfg;
  cfg.threads = 1;
  cfg.keyRange = 1 << 10;
  cfg.insertFrac = 0.5;  // every op is an update, buffered in the window
  cfg.deleteFrac = 0.5;
  cfg.batch = 64;
  cfg.latency = true;
  cfg.latSampleShift = 0;
  cfg.arrival.open = true;
  // Mean arrival gap 10 virtual ms, ten deadlines: nearly every window
  // holds one op and flushes on its deadline.
  cfg.arrival.ratePerSec = 100.0;
  cfg.arrival.deadlineNs = 1'000'000;
  // Between the deadline plus one step (1.1 ms, read up to 6.25% high by
  // the histogram) and the old rule's deadline plus commit (1.3 ms, read up
  // to 6.25% low).
  constexpr double kBoundNs = 1.2e6;
  // A worker descheduled while the clock runs on lands late: a loaded
  // machine can make many ops late in one trial, so the test takes the best
  // of up to six attempts. The old rule fails them all. A loaded machine
  // also runs the advancer's sleeps long, so a 300 ms trial can see only a
  // few virtual ms and too few arrivals to judge: each retry doubles the
  // trial's real duration, up to 2.4 s.
  const auto inTime = [](const TrialResult& t) {
    return t.totalOps >= 10 && t.lat.valid && t.lat.overall.p50Ns < kBoundNs;
  };
  TrialResult r{};
  for (int attempt = 0; attempt < 6 && !inTime(r); ++attempt) {
    cfg.durationMs = std::min(300 << attempt, 2400);
    TtlClock::useVirtual(1'000'000'000);
    // Virtual time moves in 0.1 ms steps, one per ~50 us of real time, and
    // by kCommitNs inside each commit.
    std::atomic<bool> advancing{true};
    std::thread advancer([&advancing] {
      while (advancing.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        TtlClock::advance(100'000);
      }
    });
    r = runCell([] { return std::make_unique<TimedCommitBst>(); }, cfg);
    advancing.store(false, std::memory_order_relaxed);
    advancer.join();
    TtlClock::useReal();
  }
  ASSERT_GE(r.totalOps, 10u) << "too few arrivals to judge";
  ASSERT_TRUE(r.lat.valid);
  EXPECT_GT(r.deadlineFlushes, r.fullFlushes);
  EXPECT_LT(r.lat.overall.p50Ns, kBoundNs)
      << r.deadlineFlushes << " deadline flushes, " << r.totalOps << " ops";
}

TEST(DriverAdmission, ColdWindowFlushesAtDeadline) {
  // Regression: before the flush deadline, a batch>1 open-loop trial at a
  // very low rate buffered its first update and then sat on it until the
  // stop-time drain — the op's latency was the remaining trial length. With
  // the adaptive flush the partial window must flush once its oldest op ages
  // past the (virtual) deadline, while the trial is still running.
  RealClockGuard rcg;
  // The discriminator: the pre-fix worker only ever flushed on a FULL
  // window or at the stop-time drain, and neither increments
  // deadlineFlushes — a 64-wide window at a 10-virtual-ms update gap
  // cannot fill mid-trial, so the hang behavior yields deadlineFlushes ==
  // 0 deterministically. Any positive count proves a partial window left
  // while the trial was still running. (A latency-based bound is NOT used
  // here: the advancer free-runs ahead of the worker, so a scheduler
  // preemption of the worker inflates buffered-op ages in virtual ns
  // arbitrarily even with the fix in place.) One attempt can come up empty
  // on a heavily loaded machine — the worker can lose the CPU between
  // opening a window and the trial's real-time stop — so the test retries
  // a few independent short trials; the hang behavior fails ALL of them.
  TrialResult r{};
  std::uint64_t vSpan = 0;
  for (int attempt = 0; attempt < 5 && r.deadlineFlushes == 0; ++attempt) {
    TtlClock::useVirtual(1'000'000'000);
    std::atomic<bool> advancing{true};
    // Virtual time tracks 10x measured real time (re-anchored each wakeup,
    // NOT a fixed increment per sleep — under CPU contention sleep_for
    // overruns and a fixed increment would stall virtual time, starving
    // the trial of arrivals). The driver's stop flag is real-time
    // (sleep_for in runTrial), so the ~50ms trial reliably spans a few
    // hundred virtual milliseconds: dozens of arrivals, many 5ms deadline
    // cycles.
    std::thread advancer([&advancing] {
      const auto t0 = std::chrono::steady_clock::now();
      std::uint64_t advanced = 0;
      while (advancing.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        const std::uint64_t target =
            10u * static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
        TtlClock::advance(target - advanced);
        advanced = target;
      }
    });
    TrialConfig cfg;
    cfg.threads = 1;
    cfg.batch = 64;
    cfg.latency = true;
    cfg.latSampleShift = 0;
    cfg.arrival.open = true;
    // Mean arrival gap 10 virtual ms, mean update gap ~20 (half the mix is
    // updates) — a 64-op window takes ~1.3 virtual SECONDS to fill, far
    // past the 5ms flush deadline, so the first flush must be
    // deadline-triggered.
    cfg.arrival.ratePerSec = 100.0;
    cfg.arrival.deadlineNs = 5'000'000;  // 5 virtual ms
    const std::uint64_t v0 = TtlClock::nowNs();
    r = runSmall(cfg);
    vSpan = TtlClock::nowNs() - v0;
    advancing.store(false, std::memory_order_relaxed);
    advancer.join();
    TtlClock::useReal();
  }
  EXPECT_GT(r.totalOps, 0u);
  EXPECT_GT(vSpan, 0u);
  // Once the adaptive width has shrunk to 2, a lucky short gap may
  // legitimately fill a window, so fullFlushes is not asserted zero.
  EXPECT_GT(r.deadlineFlushes, 0u)
      << "cold window never deadline-flushed in any attempt; buffered ops "
         "waited for the drain";
  ASSERT_TRUE(r.lat.valid);
}

}  // namespace
}  // namespace pathcas::bench
