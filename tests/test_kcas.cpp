// Tests for the KCAS substrate: word encoding, single- and multi-threaded
// KCAS semantics, helping via readEncoded, the validation phase at the
// descriptor level, the staging rule (address order after promotion, first
// observation of a revisited word, no allocation on the commit path, and
// refusal of an op that names one address two ways), and
// the degenerate k=1 fast paths (plain-CAS and DCSS-guarded commits) racing
// descriptor-based operations — including a lin_check.hpp-driven
// linearizability stress that mixes every commit flavour (fast A, fast B,
// validation-only, general) on shared words.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdlib>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "kcas/kcas.hpp"
#include "kcas/word.hpp"
#include "lin_check.hpp"
#include "pathcas/pathcas.hpp"
#include "util/rand.hpp"
#include "util/thread_registry.hpp"

// Replacement global allocation functions that count the calling thread's
// operator new calls, so CommitPathDoesNotAllocate can prove a commit never
// reaches the allocator (a standard-library stable sort or in-place merge
// would, for its temporary buffer).
namespace {
thread_local std::uint64_t tlsNewCalls = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++tlsNewCalls;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++tlsNewCalls;
  return std::malloc(n != 0 ? n : 1);
}
// noinline: inlined into a delete-expression, free() on memory from a
// new-expression trips -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace pathcas::k {
namespace {

TEST(Word, TagsAreDisjoint) {
  EXPECT_TRUE(isDcss(kTagDcss));
  EXPECT_TRUE(isKcas(kTagKcas));
  EXPECT_FALSE(isDescriptor(encodeVal(12345)));
  EXPECT_FALSE(isDescriptor(0));
}

TEST(Word, ValueRoundTrip) {
  for (word_t v : {0ULL, 1ULL, 42ULL, (1ULL << 61) - 1}) {
    EXPECT_EQ(decodeVal(encodeVal(v)), v);
    EXPECT_FALSE(isDescriptor(encodeVal(v)));
  }
}

TEST(Word, RefPackingRoundTrip) {
  for (int tid : {0, 1, 17, kMaxThreads - 1}) {
    for (std::uint64_t seq : {0ULL, 1ULL, 123456789ULL, (1ULL << 45)}) {
      const word_t r = packRef(kTagKcas, tid, seq);
      EXPECT_TRUE(isKcas(r));
      EXPECT_EQ(refTid(r), tid);
      EXPECT_EQ(refSeq(r), seq);
    }
  }
}

TEST(Word, SeqStatePacking) {
  const word_t ss = packSeqState(77, State::kSucceeded);
  EXPECT_EQ(seqOf(ss), 77u);
  EXPECT_EQ(stateOf(ss), State::kSucceeded);
}

using Domain = KcasDomain<32, 32>;

class KcasTest : public ::testing::Test {
 protected:
  Domain domain;  // isolated domain per test
  static word_t load(AtomicWord& w) { return decodeVal(w.load()); }
  static void store(AtomicWord& w, word_t v) { w.store(encodeVal(v)); }
};

TEST_F(KcasTest, SingleWordSucceeds) {
  AtomicWord a;
  store(a, 5);
  domain.begin();
  domain.addEntry(&a, encodeVal(5), encodeVal(9));
  EXPECT_EQ(domain.execute(false), ExecResult::kSucceeded);
  EXPECT_EQ(load(a), 9u);
}

TEST_F(KcasTest, SingleWordFailsOnWrongOld) {
  AtomicWord a;
  store(a, 5);
  domain.begin();
  domain.addEntry(&a, encodeVal(6), encodeVal(9));
  EXPECT_NE(domain.execute(false), ExecResult::kSucceeded);
  EXPECT_EQ(load(a), 5u);
}

TEST_F(KcasTest, MultiWordAllOrNothing) {
  AtomicWord w[4];
  for (int i = 0; i < 4; ++i) store(w[i], 10 + i);
  // One stale old value: nothing may change.
  domain.begin();
  for (int i = 0; i < 4; ++i)
    domain.addEntry(&w[i], encodeVal(i == 2 ? 99 : 10 + i), encodeVal(50 + i));
  EXPECT_NE(domain.execute(false), ExecResult::kSucceeded);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(load(w[i]), 10u + i);
  // All correct: everything changes.
  domain.begin();
  for (int i = 0; i < 4; ++i)
    domain.addEntry(&w[i], encodeVal(10 + i), encodeVal(50 + i));
  EXPECT_EQ(domain.execute(false), ExecResult::kSucceeded);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(load(w[i]), 50u + i);
}

TEST_F(KcasTest, UnsortedArgumentsAreSortedInternally) {
  AtomicWord w[3];
  for (int i = 0; i < 3; ++i) store(w[i], i);
  domain.begin();
  domain.addEntry(&w[2], encodeVal(2), encodeVal(12));
  domain.addEntry(&w[0], encodeVal(0), encodeVal(10));
  domain.addEntry(&w[1], encodeVal(1), encodeVal(11));
  EXPECT_EQ(domain.execute(false), ExecResult::kSucceeded);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(load(w[i]), 10u + i);
}

TEST_F(KcasTest, ReadEncodedSeesLogicalValue) {
  AtomicWord a;
  store(a, 7);
  EXPECT_EQ(decodeVal(domain.readEncoded(&a)), 7u);
}

TEST_F(KcasTest, ZeroEntryExecuteSucceeds) {
  domain.begin();
  EXPECT_EQ(domain.execute(false), ExecResult::kSucceeded);
}

TEST_F(KcasTest, ValidationFailsWhenVersionChanged) {
  AtomicWord target, ver;
  store(target, 1);
  store(ver, 100);
  domain.begin();
  domain.addEntry(&target, encodeVal(1), encodeVal(2));
  domain.addPath(&ver, encodeVal(100));
  store(ver, 102);  // concurrent change between visit and execute
  EXPECT_NE(domain.execute(true), ExecResult::kSucceeded);
  EXPECT_EQ(load(target), 1u);
}

TEST_F(KcasTest, ValidationFailsOnMarkedVersion) {
  AtomicWord target, ver;
  store(target, 1);
  store(ver, 101);  // bit 0 set: marked
  domain.begin();
  domain.addEntry(&target, encodeVal(1), encodeVal(2));
  domain.addPath(&ver, encodeVal(101));
  EXPECT_NE(domain.execute(true), ExecResult::kSucceeded);
  EXPECT_EQ(load(target), 1u);
}

TEST_F(KcasTest, ValidationPassesWhenUnchanged) {
  AtomicWord target, ver;
  store(target, 1);
  store(ver, 100);
  domain.begin();
  domain.addEntry(&target, encodeVal(1), encodeVal(2));
  domain.addPath(&ver, encodeVal(100));
  EXPECT_EQ(domain.execute(true), ExecResult::kSucceeded);
  EXPECT_EQ(load(target), 2u);
}

TEST_F(KcasTest, OwnLockedVersionPassesValidation) {
  // The parent pattern: a node is both visited and has its version entry
  // added; during phase 1 the version word holds OUR reference, which
  // Algorithm 2 line 3 treats as valid.
  AtomicWord ver;
  store(ver, 100);
  domain.begin();
  domain.addEntry(&ver, encodeVal(100), encodeVal(102));
  domain.addPath(&ver, encodeVal(100));
  EXPECT_EQ(domain.execute(true), ExecResult::kSucceeded);
  EXPECT_EQ(load(ver), 102u);
}

TEST_F(KcasTest, PromotePathToEntriesLocksVersions) {
  AtomicWord target, ver;
  store(target, 1);
  store(ver, 100);
  domain.begin();
  domain.addEntry(&target, encodeVal(1), encodeVal(2));
  domain.addPath(&ver, encodeVal(100));
  domain.promotePathToEntries();
  EXPECT_EQ(domain.numStagedPath(), 0);
  EXPECT_EQ(domain.numStagedEntries(), 2);
  EXPECT_EQ(domain.execute(false), ExecResult::kSucceeded);
  EXPECT_EQ(load(target), 2u);
  EXPECT_EQ(load(ver), 100u);  // version "changed" to itself
}

TEST_F(KcasTest, PromoteSkipsVersionsWithRealEntries) {
  AtomicWord ver;
  store(ver, 100);
  domain.begin();
  domain.addEntry(&ver, encodeVal(100), encodeVal(102));
  domain.addPath(&ver, encodeVal(100));
  domain.promotePathToEntries();
  EXPECT_EQ(domain.numStagedEntries(), 1);  // no self-conflicting duplicate
  EXPECT_EQ(domain.execute(false), ExecResult::kSucceeded);
  EXPECT_EQ(load(ver), 102u);
}

TEST_F(KcasTest, WideUnsortedStagingSortsOnExecute) {
  // More entries than the sorted-staging bound (8), added in descending
  // address order: the MCMS-shaped append path must defer-sort on execute
  // so helpers still lock in one global order.
  constexpr int kWide = 12;
  AtomicWord w[kWide];
  for (word_t i = 0; i < kWide; ++i) store(w[i], i);
  domain.begin();
  for (int i = kWide - 1; i >= 0; --i)
    domain.addEntry(&w[i], encodeVal(static_cast<word_t>(i)),
                    encodeVal(static_cast<word_t>(100 + i)));
  EXPECT_EQ(domain.execute(false), ExecResult::kSucceeded);
  for (word_t i = 0; i < kWide; ++i) EXPECT_EQ(load(w[i]), 100u + i);
}

TEST_F(KcasTest, PromoteMergesWidePathSkippingDuplicates) {
  // Wide visited set incl. a duplicate visit and a slot aliasing the real
  // entry: the sort-dedup-merge must keep one promoted entry per distinct
  // version word and none for the aliased address.
  constexpr int kVers = 10;
  AtomicWord target, vers[kVers];
  store(target, 1);
  for (word_t i = 0; i < kVers; ++i) store(vers[i], 100 + 2 * i);
  domain.begin();
  domain.addEntry(&target, encodeVal(1), encodeVal(2));
  for (word_t i = 0; i < kVers; ++i)
    domain.addPath(&vers[i], encodeVal(100 + 2 * i));
  domain.addPath(&vers[3], encodeVal(106));  // node visited twice
  domain.addPath(&target, encodeVal(1));     // aliases the real entry
  domain.promotePathToEntries();
  EXPECT_EQ(domain.numStagedPath(), 0);
  EXPECT_EQ(domain.numStagedEntries(), 1 + kVers);
  EXPECT_EQ(domain.execute(false), ExecResult::kSucceeded);
  EXPECT_EQ(load(target), 2u);
  for (word_t i = 0; i < kVers; ++i) EXPECT_EQ(load(vers[i]), 100u + 2 * i);
}

TEST_F(KcasTest, PromotedStagingIsInOneAscendingAddressOrder) {
  // Eight shift-inserted entries fill the inline slots; three appended ones
  // land below, between and above them, and three visited words more. HFP's
  // lock-freedom needs every helper to lock in one global order, so after
  // promotion the staged entries must be strictly ascending by address
  // (one array, so comparing element addresses is well defined).
  AtomicWord w[24];
  for (auto& x : w) store(x, 100);
  domain.begin();
  for (int i = 17; i >= 3; i -= 2)  // 17, 15, ..., 3: eight entries
    domain.addEntry(&w[i], encodeVal(100), encodeVal(102));
  for (int i : {10, 0, 20})  // appended: between, below, above
    domain.addVerEntry(&w[i], encodeVal(100), encodeVal(102));
  for (int i : {22, 1, 8, 5})  // visited; w[5] also has a real entry
    domain.addPath(&w[i], encodeVal(100));
  domain.promotePathToEntries();
  EXPECT_EQ(domain.numStagedEntries(), 8 + 3 + 3);
  std::vector<const AtomicWord*> order;
  domain.forEachStagedEntry(
      [&](AtomicWord* addr, word_t, word_t, bool) { order.push_back(addr); });
  ASSERT_EQ(order.size(), 14u);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LT(order[i - 1], order[i]) << "entry " << i << " out of order";
  EXPECT_EQ(domain.execute(false), ExecResult::kSucceeded);
  for (int i : {0, 3, 5, 10, 17, 20}) EXPECT_EQ(load(w[i]), 102u);
  for (int i : {1, 8, 22}) EXPECT_EQ(load(w[i]), 100u);
}

TEST_F(KcasTest, PromoteKeepsFirstObservationOfARevisitedWord) {
  // A word visited twice: first at a stale version, then at its current
  // one. Promotion must lock the first observation, so the strong-path
  // commit fails and nothing changes. The path is wider than 16 slots so
  // the sort partitions instead of running a (stable) insertion sort.
  constexpr int kVers = 24;
  for (int first = 0; first < kVers; ++first) {
    for (int second = first + 1; second <= kVers; second += 5) {
      AtomicWord target, vers[kVers];
      store(target, 1);
      for (auto& v : vers) store(v, 100);
      store(vers[first], 102);  // moved on since the first visit
      domain.begin();
      domain.addEntry(&target, encodeVal(1), encodeVal(2));
      for (int i = 0; i <= kVers; ++i) {
        if (i == second) domain.addPath(&vers[first], encodeVal(102));
        if (i == first) domain.addPath(&vers[first], encodeVal(100));
        if (i < kVers && i != first) domain.addPath(&vers[i], encodeVal(100));
      }
      domain.promotePathToEntries();
      EXPECT_EQ(domain.numStagedEntries(), 1 + kVers);
      EXPECT_EQ(domain.execute(false), ExecResult::kFailedValue)
          << "visits at path slots " << first << " and " << second;
      EXPECT_EQ(load(target), 1u);
      EXPECT_EQ(load(vers[first]), 102u);
    }
  }
}

TEST_F(KcasTest, CommitPathDoesNotAllocate) {
  constexpr int kWide = 12;
  AtomicWord w[kWide], vers[4];
  for (auto& x : w) store(x, 0);
  for (auto& v : vers) store(v, 100);
  domain.begin();
  domain.execute(false);  // resolve the calling thread's slots up front
  for (int k : {1, 2, 4, 5, 8, 12}) {
    domain.begin();
    for (int i = k - 1; i >= 0; --i)  // descending: the worst staging order
      domain.addEntry(&w[i], encodeVal(load(w[i])),
                      encodeVal(load(w[i]) + 1));
    const std::uint64_t before = tlsNewCalls;
    const ExecResult r = domain.execute(false);
    const std::uint64_t calls = tlsNewCalls - before;
    EXPECT_EQ(r, ExecResult::kSucceeded) << "k = " << k;
    EXPECT_EQ(calls, 0u) << "k = " << k;
  }
  // One §3.5 strong-path commit: promote the visited versions, then exec.
  domain.begin();
  domain.addEntry(&w[0], encodeVal(load(w[0])), encodeVal(load(w[0]) + 1));
  for (int i = 3; i >= 0; --i) domain.addPath(&vers[i], encodeVal(100));
  const std::uint64_t before = tlsNewCalls;
  domain.promotePathToEntries();
  const ExecResult r = domain.execute(false);
  const std::uint64_t calls = tlsNewCalls - before;
  EXPECT_EQ(r, ExecResult::kSucceeded);
  EXPECT_EQ(calls, 0u) << "promoted commit";
}

// ---------------------------------------------------------------------------
// The staging rule: an op that names one address two ways fails as
// kFailedValue before anything is published, and leaves every word as it
// was (no value changed, no descriptor left behind). Each op below would
// commit if the KCAS trusted its caller, since phase 1 and validation
// accept the op's own lock: the second entry's old value, or the path slot
// that disagrees with the entry on its word, would go unchecked.
// ---------------------------------------------------------------------------

TEST_F(KcasTest, RepeatedEntryIsRefusedWithinAndPastTheInlineSlots) {
  // Within the inline slots: a, b, then a again at a stale old value (a
  // torn view: the first read of a saw 5, the second 4).
  AtomicWord a, b;
  store(a, 5);
  store(b, 1);
  domain.begin();
  domain.addEntry(&a, encodeVal(5), encodeVal(6));
  domain.addEntry(&b, encodeVal(1), encodeVal(2));
  domain.addEntry(&a, encodeVal(4), encodeVal(7));
  EXPECT_EQ(domain.execute(false), ExecResult::kFailedValue);
  EXPECT_EQ(a.load(), encodeVal(5));  // raw: a plain value, no descriptor
  EXPECT_EQ(b.load(), encodeVal(1));
  // Past them: ten entries, then w[3] again, appended to the cold slots.
  constexpr int kWide = 10;
  AtomicWord w[kWide];
  for (word_t i = 0; i < kWide; ++i) store(w[i], i);
  domain.begin();
  for (word_t i = 0; i < kWide; ++i)
    domain.addEntry(&w[i], encodeVal(i), encodeVal(100 + i));
  domain.addEntry(&w[3], encodeVal(99), encodeVal(7));
  EXPECT_EQ(domain.execute(false), ExecResult::kFailedValue);
  for (word_t i = 0; i < kWide; ++i) EXPECT_EQ(w[i].load(), encodeVal(i));
}

TEST_F(KcasTest, PathSlotThatDisagreesWithItsOwnEntryIsRefused) {
  // A node visited at 100 whose version entry expects the current 102: the
  // visit is stale, but the op's own lock on the word passes validation.
  AtomicWord target, ver;
  const auto stage = [&](bool withTarget) {
    store(target, 1);
    store(ver, 102);
    domain.begin();
    if (withTarget) domain.addEntry(&target, encodeVal(1), encodeVal(2));
    domain.addVerEntry(&ver, encodeVal(102), encodeVal(104));
    domain.addPath(&ver, encodeVal(100));
  };
  const auto expectUnchanged = [&](const char* route) {
    EXPECT_EQ(target.load(), encodeVal(1)) << route;
    EXPECT_EQ(ver.load(), encodeVal(102)) << route;
  };
  stage(true);
  EXPECT_EQ(domain.execute(true), ExecResult::kFailedValue);
  expectUnchanged("general path");
  // The §3.5 strong path: promotion keeps the entry, not the visit.
  stage(true);
  domain.promotePathToEntries();
  EXPECT_EQ(domain.execute(false), ExecResult::kFailedValue);
  expectUnchanged("promoted");
  // FAST B (k=1, p=1): the slot aliases the single entry.
  stage(false);
  EXPECT_EQ(domain.execute(true), ExecResult::kFailedValue);
  expectUnchanged("FAST B");
}

// The emulated HTM route checks each entry's old value against its word and
// then writes every entry, so a repeat whose old values both hold would
// commit one of its new values and lose the other. It is refused before any
// transaction. No race explains this repeat, so a Debug build aborts on it
// (the loud failure for a caller bug; test_pathcas's StagingDeathTest).
TEST(KcasStagingRule, EmulatedHtmRouteRefusesARepeatedEntry) {
  casword<std::int64_t> w;
  w.setInitial(5);
  pathcas::start();
  pathcas::add(w, std::int64_t{5}, std::int64_t{6});
  pathcas::add(w, std::int64_t{5}, std::int64_t{7});
#ifdef NDEBUG
  EXPECT_FALSE(pathcas::execFast());
  EXPECT_EQ(w.load(), 5);
#else
  EXPECT_DEATH(pathcas::execFast(), "staged twice");
#endif
}

TEST_F(KcasTest, StagingPreservedAcrossFailedExecute) {
  AtomicWord a;
  store(a, 5);
  domain.begin();
  domain.addEntry(&a, encodeVal(4), encodeVal(9));
  EXPECT_NE(domain.execute(false), ExecResult::kSucceeded);
  // Replay (§3.5: spurious retries reuse the exact same arguments).
  store(a, 4);
  EXPECT_EQ(domain.execute(false), ExecResult::kSucceeded);
  EXPECT_EQ(load(a), 9u);
}

// ---------------------------------------------------------------------------
// Degenerate fast paths (k=1), deterministic coverage. Note SingleWord* and
// ZeroEntryExecuteSucceeds above already route through the fast paths.
// ---------------------------------------------------------------------------

TEST_F(KcasTest, K1PathFastPathCommitsWhenGuardHolds) {
  AtomicWord target, ver;
  store(target, 1);
  store(ver, 100);
  domain.begin();
  domain.addEntry(&target, encodeVal(1), encodeVal(2));
  domain.addPath(&ver, encodeVal(100));
  EXPECT_EQ(domain.execute(true), ExecResult::kSucceeded);
  EXPECT_EQ(load(target), 2u);
  EXPECT_EQ(load(ver), 100u);
}

TEST_F(KcasTest, K1PathFastPathFailsWhenGuardMoved) {
  AtomicWord target, ver;
  store(target, 1);
  store(ver, 100);
  domain.begin();
  domain.addEntry(&target, encodeVal(1), encodeVal(2));
  domain.addPath(&ver, encodeVal(100));
  store(ver, 102);  // version bumped between visit and commit
  EXPECT_EQ(domain.execute(true), ExecResult::kFailedValidation);
  EXPECT_EQ(load(target), 1u);
}

TEST_F(KcasTest, K1PathFastPathFailsOnMarkedGuard) {
  AtomicWord target, ver;
  store(target, 1);
  store(ver, 101);  // bit 0 set: visited node was already unlinked
  domain.begin();
  domain.addEntry(&target, encodeVal(1), encodeVal(2));
  domain.addPath(&ver, encodeVal(101));
  EXPECT_EQ(domain.execute(true), ExecResult::kFailedValidation);
  EXPECT_EQ(load(target), 1u);
}

TEST_F(KcasTest, K1PathFastPathValueMismatchIsGenuine) {
  AtomicWord target, ver;
  store(target, 7);
  store(ver, 100);
  domain.begin();
  domain.addEntry(&target, encodeVal(1), encodeVal(2));
  domain.addPath(&ver, encodeVal(100));
  EXPECT_EQ(domain.execute(true), ExecResult::kFailedValue);
  EXPECT_EQ(load(target), 7u);
}

TEST_F(KcasTest, K1PathAliasingEntryIsSubsumedByTheCas) {
  // Path slot on the same word as the single entry: the entry's old-value
  // check is the only constraint (Algorithm 2 accepts our own lock), so the
  // fast path must not double-require the path expectation.
  AtomicWord ver;
  store(ver, 100);
  domain.begin();
  domain.addEntry(&ver, encodeVal(100), encodeVal(102));
  domain.addPath(&ver, encodeVal(100));
  EXPECT_EQ(domain.execute(true), ExecResult::kSucceeded);
  EXPECT_EQ(load(ver), 102u);
}

TEST_F(KcasTest, ValidationOnlyExecuteUsesReadPass) {
  // k=0 with a path: the degenerate validation-only commit.
  AtomicWord ver;
  store(ver, 100);
  domain.begin();
  domain.addPath(&ver, encodeVal(100));
  EXPECT_EQ(domain.execute(true), ExecResult::kSucceeded);
  domain.begin();
  domain.addPath(&ver, encodeVal(98));
  EXPECT_EQ(domain.execute(true), ExecResult::kFailedValidation);
}

TEST_F(KcasTest, DcssReportsOutcome) {
  AtomicWord guard, target;
  store(guard, 5);
  store(target, 10);
  // Guard holds: swap commits, outcome true.
  bool committed = false;
  EXPECT_EQ(domain.dcss(&guard, encodeVal(5), &target, encodeVal(10),
                        encodeVal(11), &committed),
            encodeVal(10));
  EXPECT_TRUE(committed);
  EXPECT_EQ(load(target), 11u);
  // Guard mismatch: descriptor installs, decision reverts, outcome false.
  committed = true;
  EXPECT_EQ(domain.dcss(&guard, encodeVal(6), &target, encodeVal(11),
                        encodeVal(12), &committed),
            encodeVal(11));
  EXPECT_FALSE(committed);
  EXPECT_EQ(load(target), 11u);
  // Target mismatch: no install, seen value returned, outcome untouched.
  committed = true;
  EXPECT_EQ(domain.dcss(&guard, encodeVal(5), &target, encodeVal(99),
                        encodeVal(100), &committed),
            encodeVal(11));
  EXPECT_EQ(load(target), 11u);
}

// ---------------------------------------------------------------------------
// Concurrency: atomicity and lock-freedom smoke under oversubscription.
// ---------------------------------------------------------------------------

// Writers atomically increment K counters together; the counters must remain
// equal at every successful read-snapshot and at the end.
TEST_F(KcasTest, ConcurrentCountersStayInSync) {
  constexpr int kWords = 5, kThreads = 4, kOpsPerThread = 4000;
  AtomicWord w[kWords];
  for (auto& x : w) store(x, 0);
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> successes{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ThreadGuard tg;
      for (int i = 0; i < kOpsPerThread; ++i) {
        for (;;) {
          domain.begin();
          word_t olds[kWords];
          for (int j = 0; j < kWords; ++j) {
            olds[j] = decodeVal(domain.readEncoded(&w[j]));
            domain.addEntry(&w[j], encodeVal(olds[j]), encodeVal(olds[j] + 1));
          }
          if (domain.execute(false) == ExecResult::kSucceeded) {
            successes.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(successes.load(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  for (int j = 0; j < kWords; ++j) {
    EXPECT_EQ(load(w[j]), static_cast<word_t>(kThreads) * kOpsPerThread);
  }
}

// Transfer test: writers move amounts between random account pairs keeping
// the total constant; concurrent readers take two-account snapshots via
// validated reads (path over a shared version word would be PathCAS; here we
// verify the raw KCAS keeps totals).
TEST_F(KcasTest, ConcurrentTransfersPreserveTotal) {
  constexpr int kAccounts = 8, kThreads = 4, kOps = 4000;
  constexpr word_t kInitial = 1000;
  AtomicWord acct[kAccounts];
  for (auto& a : acct) store(a, kInitial);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadGuard tg;
      pathcas::Xoshiro256 rng(1000 + t);
      for (int i = 0; i < kOps; ++i) {
        const int from = static_cast<int>(rng.nextBounded(kAccounts));
        int to = static_cast<int>(rng.nextBounded(kAccounts));
        if (to == from) to = (to + 1) % kAccounts;
        domain.begin();
        const word_t f = decodeVal(domain.readEncoded(&acct[from]));
        const word_t g = decodeVal(domain.readEncoded(&acct[to]));
        if (f == 0) continue;
        domain.addEntry(&acct[from], encodeVal(f), encodeVal(f - 1));
        domain.addEntry(&acct[to], encodeVal(g), encodeVal(g + 1));
        domain.execute(false);  // failure is fine; atomicity is the point
      }
    });
  }
  for (auto& th : threads) th.join();
  word_t total = 0;
  for (auto& a : acct) total += load(a);
  EXPECT_EQ(total, kInitial * kAccounts);
}

// Readers must never observe a descriptor or a torn multi-word state:
// writers set all words to the same value atomically; readers snapshot all
// words in one KCAS-read pass and re-check stability via a version word.
TEST_F(KcasTest, ReadersNeverSeeDescriptors) {
  constexpr int kWords = 4;
  AtomicWord w[kWords];
  for (auto& x : w) store(x, 0);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    ThreadGuard tg;
    for (word_t v = 1; !stop.load(); ++v) {
      domain.begin();
      for (int j = 0; j < kWords; ++j)
        domain.addEntry(&w[j], encodeVal(v - 1), encodeVal(v));
      ASSERT_EQ(domain.execute(false), ExecResult::kSucceeded);
    }
  });
  {
    ThreadGuard tg;
    for (int i = 0; i < 30000; ++i) {
      const word_t raw = domain.readEncoded(&w[i % kWords]);
      ASSERT_FALSE(isDescriptor(raw));
    }
  }
  stop.store(true);
  writer.join();
}

// ---------------------------------------------------------------------------
// Descriptor-injection races against the k=1 fast paths: a fast-path commit
// repeatedly lands on words that hold live KCAS/DCSS descriptors published
// by a concurrent general-path writer, so it must help them to completion
// (never spin, never tear). Counters encode who did what: X's low half is
// only ever incremented by the general-path writer (which keeps it equal to
// Y), the high half only by the fast path.
// ---------------------------------------------------------------------------

TEST_F(KcasTest, K1FastPathVsConcurrentHelper) {
  constexpr word_t kHigh = 1u << 20;
  constexpr int kOps = 20000;
  AtomicWord x, y;
  store(x, 0);
  store(y, 0);
  std::thread general([&] {
    ThreadGuard tg;
    for (int i = 0; i < kOps; ++i) {
      for (;;) {
        const word_t xv = decodeVal(domain.readEncoded(&x));
        const word_t yv = decodeVal(domain.readEncoded(&y));
        ASSERT_EQ(xv % kHigh, yv);  // snapshot may be stale but never torn low
        domain.begin();
        domain.addEntry(&x, encodeVal(xv), encodeVal(xv + 1));
        domain.addEntry(&y, encodeVal(yv), encodeVal(yv + 1));
        if (domain.execute(false) == ExecResult::kSucceeded) break;
      }
    }
  });
  {
    ThreadGuard tg;
    for (int i = 0; i < kOps; ++i) {
      for (;;) {
        const word_t xv = decodeVal(domain.readEncoded(&x));
        domain.begin();
        domain.addEntry(&x, encodeVal(xv), encodeVal(xv + kHigh));
        if (domain.execute(false) == ExecResult::kSucceeded) break;
      }
    }
  }
  general.join();
  EXPECT_EQ(load(x) / kHigh, static_cast<word_t>(kOps));   // fast-path ops
  EXPECT_EQ(load(x) % kHigh, static_cast<word_t>(kOps));   // general ops
  EXPECT_EQ(load(y), static_cast<word_t>(kOps));
}

TEST_F(KcasTest, K1PathFastPathVsGuardChurnAndPromotion) {
  // Fast-path B writer: increments X's low half guarded on version V being
  // unchanged. Churn writer: bumps V and X's high half together through the
  // general path. Every fast-path failure is classified and, to also cover
  // the §3.5 escalation against the fast paths, periodically resolved by
  // promoting the path and locking V (strong path) instead of re-validating.
  constexpr word_t kHigh = 1u << 20;
  constexpr int kOps = 15000;
  AtomicWord x, v;
  store(x, 0);
  store(v, 100);
  std::thread churn([&] {
    ThreadGuard tg;
    for (int i = 0; i < kOps; ++i) {
      for (;;) {
        const word_t xv = decodeVal(domain.readEncoded(&x));
        const word_t vv = decodeVal(domain.readEncoded(&v));
        domain.begin();
        domain.addEntry(&x, encodeVal(xv), encodeVal(xv + kHigh));
        domain.addVerEntry(&v, encodeVal(vv), encodeVal(vv + 2));
        if (domain.execute(false) == ExecResult::kSucceeded) break;
      }
    }
  });
  {
    ThreadGuard tg;
    Xoshiro256 rng(42);
    for (int i = 0; i < kOps; ++i) {
      for (int attempt = 0;; ++attempt) {
        const word_t vv = decodeVal(domain.readEncoded(&v));
        const word_t xv = decodeVal(domain.readEncoded(&x));
        domain.begin();
        domain.addPath(&v, encodeVal(vv));
        domain.addEntry(&x, encodeVal(xv), encodeVal(xv + 1));
        const bool strong = attempt > 0 && rng.nextBounded(4) == 0;
        if (strong) {
          // §3.5 strong path: lock the visited version instead of
          // validating it (never mark-doomed here: versions stay even).
          ASSERT_FALSE(domain.stagedMarkDoomed());
          domain.promotePathToEntries();
          ASSERT_EQ(domain.numStagedPath(), 0);
          if (domain.execute(false) == ExecResult::kSucceeded) break;
        } else {
          const ExecResult r = domain.execute(true);
          if (r == ExecResult::kSucceeded) break;
          // kFailedValue means X itself moved (churn committed); validation
          // failures mean V moved or was locked. Either way: re-read, retry.
        }
      }
    }
  }
  churn.join();
  EXPECT_EQ(load(x) / kHigh, static_cast<word_t>(kOps));
  EXPECT_EQ(load(x) % kHigh, static_cast<word_t>(kOps));
  EXPECT_EQ(load(v), 100u + 2u * kOps);
}

}  // namespace
}  // namespace pathcas::k

// ---------------------------------------------------------------------------
// Linearizability stress (tests/lin_check.hpp) over a tiny set implemented
// directly on the KCAS commit flavours, so every fast-path variant races
// every other on shared words:
//   insert      — k=1 entry + 1 path guard            (fast path B)
//   erase, odd  — plain k=1 CAS                        (fast path A)
//   erase, even — k=2 with a version bump              (general path)
//   contains, even — k=0 validated read                (validation-only)
//   contains, odd  — helping read                      (readEncoded)
// Barrier-separated rounds + the window checker prove every interleaving
// the race actually produced was linearizable.
// ---------------------------------------------------------------------------

namespace pathcas::testing {
namespace {

using namespace pathcas::k;

class FastPathLinSet {
 public:
  using Domain = KcasDomain<16, 32>;

  FastPathLinSet() {
    for (auto& w : val_) w.store(encodeVal(0));
    gver_.store(encodeVal(100));
  }

  bool insert(std::int64_t key) {
    auto& w = val_[key];
    for (;;) {
      const word_t g = dom_.readEncoded(&gver_);
      dom_.begin();
      dom_.addPath(&gver_, g);
      dom_.addEntry(&w, encodeVal(0), encodeVal(1));
      switch (dom_.execute(true)) {
        case ExecResult::kSucceeded:
          return true;
        case ExecResult::kFailedValue:
          return false;  // already present at the commit attempt
        case ExecResult::kFailedValidation:
          break;  // guard moved or was locked: re-read and retry
      }
    }
  }

  bool erase(std::int64_t key) {
    auto& w = val_[key];
    if (key % 2 == 1) {
      // Fast path A: the erase is one CAS.
      dom_.begin();
      dom_.addEntry(&w, encodeVal(1), encodeVal(0));
      return dom_.execute(false) == ExecResult::kSucceeded;
    }
    // General path: remove the key and bump the shared guard atomically.
    for (;;) {
      const word_t g = dom_.readEncoded(&gver_);
      dom_.begin();
      dom_.addEntry(&w, encodeVal(1), encodeVal(0));
      dom_.addVerEntry(&gver_, g, encodeVal(decodeVal(g) + 2));
      if (dom_.execute(false) == ExecResult::kSucceeded) return true;
      // Failure is ambiguous (key gone, or the guard moved): a raw read of
      // the key decides, and is itself a linearization point.
      if (decodeVal(dom_.readEncoded(&w)) == 0) return false;
    }
  }

  bool contains(std::int64_t key) {
    auto& w = val_[key];
    if (key % 2 == 1) return decodeVal(dom_.readEncoded(&w)) != 0;
    for (;;) {
      const word_t g = dom_.readEncoded(&gver_);
      const bool present = decodeVal(dom_.readEncoded(&w)) != 0;
      dom_.begin();
      dom_.addPath(&gver_, g);
      if (dom_.execute(true) == ExecResult::kSucceeded) return present;
    }
  }

 private:
  Domain dom_;
  AtomicWord val_[64];
  AtomicWord gver_;
};

TEST(KcasFastPathLinearizable, MixedCommitFlavours) {
  constexpr int kThreads = 3, kRounds = 2500;
  constexpr std::int64_t kKeySpace = 8;
  FastPathLinSet set;
  std::atomic<std::uint64_t> clock{0};
  std::vector<RecordedOp> history(
      static_cast<std::size_t>(kRounds * kThreads));
  std::barrier barrier(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ThreadGuard tg;
      Xoshiro256 rng(7000 + static_cast<std::uint64_t>(t));
      for (int r = 0; r < kRounds; ++r) {
        barrier.arrive_and_wait();
        RecordedOp rec;
        const std::int64_t k = static_cast<std::int64_t>(
            rng.nextBounded(static_cast<std::uint64_t>(kKeySpace)));
        const std::uint64_t dice = rng.nextBounded(100);
        rec.a = k;
        rec.inv = clock.fetch_add(1);
        if (dice < 40) {
          rec.kind = OpKind::kInsert;
          rec.boolResult = set.insert(k);
        } else if (dice < 80) {
          rec.kind = OpKind::kErase;
          rec.boolResult = set.erase(k);
        } else {
          rec.kind = OpKind::kContains;
          rec.boolResult = set.contains(k);
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
        << "history not linearizable at window " << r << ": "
        << describeWindow(window);
  }
  LinState finalMask = 0;
  for (std::int64_t k = 0; k < kKeySpace; ++k) {
    if (set.contains(k)) finalMask |= LinState{1} << k;
  }
  EXPECT_TRUE(states.count(finalMask))
      << "final contents not among the linearizable outcomes";
}

}  // namespace
}  // namespace pathcas::testing
