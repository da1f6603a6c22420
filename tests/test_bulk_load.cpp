// Parallel bulk load (ShardedMap::bulkLoad): the parallel build must be
// indistinguishable from the serial insert loop it replaces — same size,
// same keysum, identical ascending iteration — for every shard count ×
// worker count, including the degenerate inputs (empty, single key,
// duplicate-laden slices). Also checks the returned keysum contract (sum of
// keys actually inserted, duplicates counted once) that the bench driver's
// prefill validation depends on, and that the build lands balanced enough
// for the plain BST (median-first insertion order).
//
// The bench driver's prefillHalf fills every other set from prefillThreads()
// workers inserting the shuffled prefill keys concurrently; the PrefillHalf
// tests check that contract: the returned keysum, the size, the exact key
// set, and the trees' invariants (the AVL tree strictly balanced with no
// convergence pass).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_fw/adapters.hpp"
#include "bench_fw/driver.hpp"
#include "service/sharded_map.hpp"
#include "trees/int_bst_pathcas.hpp"
#include "util/rand.hpp"

namespace pathcas::testing {
namespace {

using BstMap = service::ShardedMap<ds::IntBstPathCas<Key, Val>>;

/// Reference build: serial one-at-a-time inserts of the same input.
struct Reference {
  std::uint64_t size = 0;
  std::int64_t keySum = 0;
  std::vector<Key> ascending;
};

Reference referenceOf(const std::vector<Key>& keys) {
  Reference ref;
  std::set<Key> s(keys.begin(), keys.end());
  for (const Key k : s) {
    ref.keySum += k;
    ref.ascending.push_back(k);
  }
  ref.size = s.size();
  return ref;
}

void expectEquivalent(const BstMap& map, const Reference& ref,
                      std::int64_t returnedSum) {
  EXPECT_EQ(returnedSum, ref.keySum) << "bulkLoad keysum contract";
  EXPECT_EQ(map.size(), ref.size);
  EXPECT_EQ(map.keySum(), ref.keySum);
  std::vector<Key> seen;
  map.forEach([&seen](Key k, Val v) {
    EXPECT_EQ(k, v);  // bulkLoad inserts (k, k)
    seen.push_back(k);
  });
  EXPECT_EQ(seen, ref.ascending) << "iteration order/content mismatch";
  map.checkInvariants();
}

TEST(BulkLoad, EquivalentToSerialAcrossShardAndThreadCounts) {
  // A random ~60% subset of [0, 512), sorted — typical prefill shape.
  std::vector<Key> keys;
  Xoshiro256 rng(0xB111);
  for (Key k = 0; k < 512; ++k) {
    if (rng.nextBounded(100) < 60) keys.push_back(k);
  }
  const Reference ref = referenceOf(keys);
  for (int nshards : {1, 2, 3, 8}) {
    for (int nthreads : {1, 2, 4}) {
      BstMap map(nshards, 512);
      const std::int64_t sum = map.bulkLoad(keys, nthreads);
      SCOPED_TRACE("shards=" + std::to_string(nshards) +
                   " threads=" + std::to_string(nthreads));
      expectEquivalent(map, ref, sum);
    }
  }
}

TEST(BulkLoad, EmptyInput) {
  for (int nthreads : {1, 4}) {
    BstMap map(4, 64);
    EXPECT_EQ(map.bulkLoad({}, nthreads), 0);
    EXPECT_EQ(map.size(), 0u);
    map.checkInvariants();
  }
}

TEST(BulkLoad, SingleKey) {
  for (int nthreads : {1, 4}) {
    BstMap map(4, 64);
    EXPECT_EQ(map.bulkLoad({17}, nthreads), 17);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_TRUE(map.contains(17));
    map.checkInvariants();
  }
}

TEST(BulkLoad, DuplicateInputSlices) {
  // Sorted input with heavy duplication, including runs that straddle shard
  // boundaries (keySpace 16 over 4 shards: boundaries at 4, 8, 12).
  const std::vector<Key> keys = {0, 0, 0, 3, 3, 4, 4, 4, 4,  7,  8,
                                 8, 9, 11, 12, 12, 12, 15, 15, 15, 15};
  ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  const Reference ref = referenceOf(keys);
  for (int nshards : {1, 4}) {
    for (int nthreads : {1, 3}) {
      BstMap map(nshards, 16);
      const std::int64_t sum = map.bulkLoad(keys, nthreads);
      SCOPED_TRACE("shards=" + std::to_string(nshards) +
                   " threads=" + std::to_string(nthreads));
      expectEquivalent(map, ref, sum);
    }
  }
}

TEST(BulkLoad, NonEmptyOnTopOfExistingContents) {
  // bulkLoad is additive: keys already present are skipped (insertIfAbsent)
  // and excluded from the returned keysum.
  BstMap map(2, 64);
  ASSERT_TRUE(map.insert(10, 10));
  ASSERT_TRUE(map.insert(40, 40));
  const std::int64_t sum = map.bulkLoad({5, 10, 40, 50}, 2);
  EXPECT_EQ(sum, 5 + 50);
  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(map.keySum(), 5 + 10 + 40 + 50);
  map.checkInvariants();
}

TEST(BulkLoad, MedianFirstOrderKeepsBstShallow) {
  // A full sorted load of one shard must NOT degenerate into a chain: the
  // median-first order keeps the plain BST near log2(n) average depth.
  constexpr Key kN = 1024;
  std::vector<Key> keys;
  for (Key k = 0; k < kN; ++k) keys.push_back(k);
  service::ShardedMap<ds::IntBstPathCas<Key, Val>> map(1, kN);
  ASSERT_EQ(map.bulkLoad(keys, 1), (kN - 1) * kN / 2);
  EXPECT_EQ(map.size(), static_cast<std::uint64_t>(kN));
  // A sorted serial insert would average ~kN/2 (512) depth; the balanced
  // build averages ~log2(1024) = 10. Generous slack for chunk interleaving.
  EXPECT_LT(map.shardStats(0).avgKeyDepth, 20.0);
  map.checkInvariants();
}

TEST(BulkLoad, ParallelBuildStaysShallowPerShard) {
  // Same bound under multiple shards and workers: chunk stealing must not
  // reorder a shard's feed badly enough to degenerate any shard's tree.
  constexpr Key kN = 4096;
  std::vector<Key> keys;
  for (Key k = 0; k < kN; ++k) keys.push_back(k);
  service::ShardedMap<ds::IntBstPathCas<Key, Val>> map(4, kN);
  ASSERT_EQ(map.bulkLoad(keys, 4), (kN - 1) * kN / 2);
  for (int s = 0; s < 4; ++s) {
    EXPECT_LT(map.shardStats(s).avgKeyDepth, 22.0) << "shard " << s;
  }
  map.checkInvariants();
}

/// Ranges with no key, with fewer keys than workers, and a real prefill.
constexpr std::int64_t kPrefillRanges[] = {0, 2, std::int64_t{1} << 16};

/// Runs prefillHalf on `set` and checks its contract: the returned keysum
/// and the set's own are the sum of prefillKeys(range, seed), and the size
/// is range/2. Returns the prefill keys, sorted.
template <typename Set>
std::vector<Key> expectPrefillContract(Set& set, std::int64_t range,
                                       std::uint64_t seed) {
  std::vector<Key> keys = bench::prefillKeys(range, seed);
  std::sort(keys.begin(), keys.end());
  std::int64_t sum = 0;
  for (const Key k : keys) sum += k;
  EXPECT_EQ(bench::prefillHalf(set, range, seed), sum);
  EXPECT_EQ(set.size(), static_cast<std::uint64_t>(range / 2));
  EXPECT_EQ(set.keySum(), sum);
  return keys;
}

template <typename Tree>
std::vector<Key> inOrderKeys(const Tree& tree) {
  std::vector<Key> seen;
  tree.forEach([&seen](Key k, Val v) {
    EXPECT_EQ(k, v);  // prefillHalf inserts (k, k)
    seen.push_back(k);
  });
  return seen;
}

TEST(PrefillHalf, AvlTreeIsStrictlyBalancedWithoutConvergence) {
  for (const std::int64_t range : kPrefillRanges) {
    SCOPED_TRACE("range=" + std::to_string(range));
    auto set = std::make_unique<PathCasAvlAdapter<false>>();
    const std::vector<Key> keys = expectPrefillContract(*set, range, 0xA1);
    EXPECT_EQ(inOrderKeys(set->tree), keys);
    set->tree.checkInvariants(/*requireStrictBalance=*/true);
  }
}

TEST(PrefillHalf, BstHoldsExactlyThePrefillKeys) {
  for (const std::int64_t range : kPrefillRanges) {
    SCOPED_TRACE("range=" + std::to_string(range));
    auto set = std::make_unique<PathCasBstAdapter<false>>();
    const std::vector<Key> keys = expectPrefillContract(*set, range, 0xB2);
    EXPECT_EQ(inOrderKeys(set->tree), keys);
    set->tree.checkInvariants();
  }
}

TEST(PrefillHalf, NonPathCasSetHoldsThePrefillKeys) {
  for (const std::int64_t range : kPrefillRanges) {
    SCOPED_TRACE("range=" + std::to_string(range));
    auto set = std::make_unique<EllenAdapter>();
    const std::vector<Key> keys = expectPrefillContract(*set, range, 0xC3);
    for (const Key k : keys) EXPECT_TRUE(set->contains(k)) << k;
  }
}

}  // namespace
}  // namespace pathcas::testing
