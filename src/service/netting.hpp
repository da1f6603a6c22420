// Same-key netting: the one rule that commits a window of concurrent
// updates, several possibly on one key, as ONE strictly ascending
// updateBatch run. The ShardedMap flat combiner (service/sharded_map.hpp)
// and the bench driver's batch window (bench_fw/driver.hpp) both use it.
//
//   1. Sort the window by key, inserts before erases.
//   2. Commit one op per key: an erase if the key's group holds any erase,
//      otherwise an insert carrying the group's first insert's value.
//   3. Linearize each group's ops back to back at that commit, in sorted
//      order: inserts first, the committed op first among its kind.
//   4. Give every op what a sequential replay of that order returns, from
//      the net outcome o: a net insert returns o; a net erase returns
//      o || (group has an insert) and the group's first insert !o; every
//      other op returns false.
//
// Step 3 is legal because every op of a window is concurrent with the whole
// commit: a combiner's depositors spin until their results are published,
// and a driver worker observes none of its window's results before the
// flush. Step 4 needs no probe of the key: o is !p for a net insert and p
// for a net erase, p being the key's presence before the commit, and the
// replay ends where the net op leaves the key (present with the committed
// insert's value, or absent).
//
// Nothing here allocates: the caller owns the net run's arrays.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>

namespace pathcas::service {

/// Caller-owned arrays for one window's net run, each at least as long as
/// the window: the run handed to updateBatch and its outcomes.
template <typename K, typename V>
struct NetRun {
  K* keys;
  V* vals;
  bool* isInsert;
  bool* outcomes;
};

namespace detail {
/// A window element is an op, or a pointer to one (the combiner nets
/// pointers to its publication slots in place).
template <typename E>
constexpr auto& netOp(E& e) {
  if constexpr (std::is_pointer_v<E>) return *e;
  else return e;
}
}  // namespace detail

/// Net a window of n concurrent updates (file comment) and commit it with
/// one target.updateBatch call. Each op (ops[i], or *ops[i] for a window of
/// pointers) has `key`, `val` and `isInsert`, and gets its `result` set.
/// Leaves the window sorted in linearization order; returns the number of
/// net ops (distinct keys) committed.
template <typename Target, typename E, typename K, typename V>
std::size_t commitNetted(Target& target, E* ops, std::size_t n,
                         NetRun<K, V> run) {
  using detail::netOp;
  std::sort(ops, ops + n, [](const E& a, const E& b) {
    const auto& x = netOp(a);
    const auto& y = netOp(b);
    return x.key != y.key ? x.key < y.key : x.isInsert > y.isInsert;
  });
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++m) {
    const auto& head = netOp(ops[i]);
    std::size_t j = i + 1;
    while (j < n && netOp(ops[j]).key == head.key) ++j;
    // Inserts sort first: the group holds an erase iff its last op is one.
    run.keys[m] = head.key;
    run.vals[m] = head.val;
    run.isInsert[m] = netOp(ops[j - 1]).isInsert;
    i = j;
  }
  target.updateBatch(run.keys, run.vals, run.isInsert, m, run.outcomes);
  for (std::size_t i = 0, g = 0; g < m; ++g) {
    const bool o = run.outcomes[g];
    // The group's head is the committed op, or the first insert of a net
    // erase group.
    auto& head = netOp(ops[i]);
    head.result = head.isInsert && !run.isInsert[g] ? !o : o;
    for (++i; i < n && netOp(ops[i]).key == run.keys[g]; ++i) {
      // Of the rest, only the first erase after the group's inserts
      // changes the key.
      auto& op = netOp(ops[i]);
      op.result = !op.isInsert && netOp(ops[i - 1]).isInsert;
    }
  }
  return m;
}

}  // namespace pathcas::service
