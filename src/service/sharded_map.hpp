// ShardedMap<Tree>: a partitioned ordered-map service over any PathCAS
// ordered structure exposing the tree protocol (KeyType/ValueType typedefs,
// insert/erase/contains/get, rangeQuery + rangeQueryCapture, the quiescent
// inspectors). This is the sharding escape valve for the high-skew regimes
// the skew_sweep bench exposes, and the architectural home for the paper's
// multi-socket setups: N shards, each owning a full private DomainSet
// (KcasDomain + EbrDomain + NodePools, recl/domain_set.hpp), so shards never
// touch each other's descriptor tables, epoch announcements, or free lists.
//
// Key partitioning: the key space [0, keySpace) is range-partitioned into N
// contiguous slices — shardOf(k) = floor(k*N / keySpace) — so range queries
// touch only the shards their window overlaps and per-shard scans
// concatenate in ascending key order. Keys outside [0, keySpace) are legal
// and route (deterministically) to the boundary shards. Note that the bench
// workloads' Zipfian generator *scrambles* ranks across the key space
// (workload.hpp), so range partitioning also splits the hot set across
// shards — exactly the contention relief sharding is for.
//
// Every operation on a shard's tree runs under that shard's
// k::ScopedDomain: a (tid, seq) descriptor reference is only resolvable in
// the domain that produced it, so the map never lets a structure touch the
// wrong domain. One thread may operate on any shard (the scope is per-call);
// thread→shard *affinity* is advisory and used by bulkLoad: workers favor
// their home shard's chunk queue first and can optionally be pinned to the
// shard's socket (service/topology.hpp, Config::pinThreads).
//
// Cross-shard linearizable range query (the stitching protocol):
//   Phase 0  pin the EBR domain of every overlapped shard, and keep the pins
//            across both phases — retired nodes then cannot be RECYCLED, so
//            every captured version word stays mapped and monotonic.
//   Phase 1  per overlapped shard, in ascending order: one validated scan
//            (rangeQueryCapture) that yields the shard's pairs and the
//            visited ⟨version-word, observed⟩ set. A validated scan proves
//            the shard's snapshot was atomic at some instant during phase 1.
//   Phase 2  re-read every captured version word (through the owning
//            shard's domain, helping in-flight operations). Versions only
//            grow while memory is unrecycled, so "equal at recheck" means
//            "unchanged since it was visited" — hence every shard's snapshot
//            still held, simultaneously, at the instant phase 2 began. That
//            common instant is the query's linearization point.
//   Any phase-1 validation failure or phase-2 mismatch discards everything
//   and retries the whole window (with backoff). Single-shard windows skip
//   the protocol and delegate to the tree's own validated scan.
//
// Width contract: each PER-SHARD scan is bounded by pathcas::kMaxVisited
// examined nodes (paper footnote 2) — sharding multiplies the total window
// capacity by N, another practical win of the partitioning.
//
// Flat combining (Config::combineWindow >= 2):
// every update routes through its shard's combiner. A thread deposits its op
// in a per-(shard, tid) publication slot and spins; whoever wins the shard's
// combiner lock gathers up to combineWindow pending ops, nets them by the
// same-key rule of service/netting.hpp (one op per key: an erase if the
// key's ops include one, else an insert) and commits the net run with one
// tree updateBatch. A combiner that finds only its own op falls back to a
// direct per-op commit, so the low-contention cost is one uncontended
// exchange. The combiner lock is the shard's mutation license: combined
// windows, map-level batch ops, everything that writes the shard serializes
// on it (reads stay direct — they are validated snapshots either way).
// Linearization of a combined window: each key's ops linearize back to back
// at the commit of its net op, inserts first (netting.hpp derives every
// op's result from that order) — legal because every op in the window is
// concurrent with the whole window: each depositor is still spinning in its
// call until the combiner publishes its result.
//
// bulkLoad(sortedKeys, nthreads): parallel construction replacing the serial
// prefill loop. Keys are pre-sorted; each shard's slice is found by binary
// search, reordered median-first (balanced BFS order, so even the plain BST
// lands at logarithmic depth), cut into chunks, and dispensed to workers via
// per-shard atomic cursors. Workers start on their home shard (affinity) and
// steal from the others when theirs drains. Returns the keysum actually
// inserted (duplicates insert once), which is exactly the prefill-sum
// contract the bench driver validates against.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "bench_fw/latency.hpp"
#include "kcas/domain.hpp"
#include "recl/domain_set.hpp"
#include "service/netting.hpp"
#include "service/topology.hpp"
#include "util/backoff.hpp"
#include "util/defs.hpp"
#include "util/padding.hpp"
#include "util/thread_registry.hpp"
#include "util/timing.hpp"

namespace pathcas::service {

template <typename Tree>
class ShardedMap {
 public:
  using K = typename Tree::KeyType;
  using V = typename Tree::ValueType;
  using Options = typename Tree::OptionsType;
  using Node = typename Tree::Node;

  struct Config {
    /// Structure options forwarded to every shard's tree.
    Options treeOptions{};
    /// Pin bulkLoad workers to their home shard's package
    /// (service/topology.hpp). Best-effort; a no-op on single-package
    /// machines or when affinity syscalls are unavailable.
    bool pinThreads = false;
    /// Per-shard flat-combining window (header comment). <= 1 (default)
    /// commits every update directly; >= 2 enables combining with at most
    /// this many ops merged per window. Clamped to [0, kMaxCombine].
    int combineWindow = 0;
    /// Record per-shard combiner queueing (deposit → completion) into a
    /// per-shard histogram, read back via shardSchedP99Ns(): combiner
    /// queueing becomes attributable shard-by-shard instead of vanishing
    /// into aggregate op latency. Off by default — a recorded op pays two
    /// rdtsc reads. Only meaningful when combining.
    bool combineStats = false;
  };

  /// Hard cap on ops merged into one combined window (bounds the combiner's
  /// stack scratch; well above any useful window — a window is only worth
  /// what fits in one wide KCAS).
  static constexpr int kMaxCombine = 64;

  /// `nshards` >= 1 partitions of the key space [0, keySpace).
  ShardedMap(int nshards, K keySpace, Config config = {})
      : config_(config), nshards_(nshards), keySpace_(keySpace) {
    PATHCAS_CHECK(nshards >= 1);
    PATHCAS_CHECK(keySpace >= 1);
    combineWindow_ = std::clamp(config_.combineWindow, 0, kMaxCombine);
    shards_.reserve(static_cast<std::size_t>(nshards));
    for (int s = 0; s < nshards; ++s) {
      shards_.push_back(std::make_unique<Shard>(config_.treeOptions));
      if (combining())
        shards_.back()->slots =
            std::make_unique<Padded<OpSlot>[]>(kMaxThreads);
    }
  }

  ShardedMap(const ShardedMap&) = delete;
  ShardedMap& operator=(const ShardedMap&) = delete;

  ~ShardedMap() {
    // Quiescent teardown, per shard: recycle limbo first (records name the
    // shard's pools as owners), then Shard's members unwind — tree (nodes
    // back to the pools), then the DomainSet (ebr, pools, kcas).
    for (auto& sh : shards_) sh->set->drain();
  }

  int shardCount() const { return nshards_; }
  K keySpace() const { return keySpace_; }

  /// Owning shard of a key: floor(k*N / keySpace) for k in [0, keySpace);
  /// out-of-range keys clamp to the boundary shards (deterministic, so
  /// every key still has exactly one home).
  int shardOf(K key) const {
    if (key < 0) return 0;
    if (key >= keySpace_) return nshards_ - 1;
    return static_cast<int>(
        (static_cast<unsigned __int128>(static_cast<std::uint64_t>(key)) *
         static_cast<unsigned __int128>(nshards_)) /
        static_cast<unsigned __int128>(static_cast<std::uint64_t>(keySpace_)));
  }

  /// Advisory home shard for a worker: round-robin over shards, which (via
  /// topology.hpp's shard→package dealing) also spreads workers across
  /// sockets when there are several.
  int homeShardForWorker(int worker) const {
    return worker >= 0 ? worker % nshards_ : 0;
  }

  // ----------------------------------------------------------------------
  // Point operations: route to the owning shard under its domain scope.
  // ----------------------------------------------------------------------

  bool insert(K key, V val) {
    Shard& sh = shard(key);
    if (combining()) return combinedUpdate(sh, true, key, val);
    k::ScopedDomain scope(sh.set->kcas());
    return sh.tree->insert(key, val);
  }

  bool erase(K key) {
    Shard& sh = shard(key);
    if (combining()) return combinedUpdate(sh, false, key, V{});
    k::ScopedDomain scope(sh.set->kcas());
    return sh.tree->erase(key);
  }

  bool contains(K key) {
    Shard& sh = shard(key);
    k::ScopedDomain scope(sh.set->kcas());
    return sh.tree->contains(key);
  }

  std::optional<V> get(K key) {
    Shard& sh = shard(key);
    k::ScopedDomain scope(sh.set->kcas());
    return sh.tree->get(key);
  }

  // ----------------------------------------------------------------------
  // Batched updates: a strictly-ascending key run is partitioned into
  // per-shard slices (shardOf is monotone in the key) and each slice drives
  // the shard tree's group commit. When combining is on, the shard's
  // combiner lock serializes these with combined windows.
  // ----------------------------------------------------------------------

  /// Mixed update over a strictly-ascending key run: op i inserts
  /// (isInsert[i]) or erases keys[i]; outcomes[i] true iff op i took
  /// effect. Returns the number of effective ops. Atomicity is per
  /// tree-level chunk, not across the whole run.
  std::size_t updateBatch(const K* keys, const V* vals, const bool* isInsert,
                          std::size_t n, bool* outcomes) {
    std::size_t applied = 0;
    forEachShardSlice(keys, n, [&](int s, std::size_t lo, std::size_t hi) {
      Shard& sh = *shards_[static_cast<std::size_t>(s)];
      CombinerLockGuard lock(*this, sh);
      k::ScopedDomain scope(sh.set->kcas());
      applied += sh.tree->updateBatch(keys + lo, vals + lo, isInsert + lo,
                                      hi - lo, outcomes + lo);
    });
    return applied;
  }

  // ----------------------------------------------------------------------
  // Linearizable range query across shards (protocol: header comment).
  // ----------------------------------------------------------------------

  std::size_t rangeQuery(K lo, K hi, std::vector<std::pair<K, V>>& out) {
    if (lo > hi) return 0;
    const int s0 = shardOf(lo);
    const int s1 = shardOf(hi);
    if (s0 == s1) {
      // Single-shard window: the tree's own validated scan is the snapshot.
      Shard& sh = *shards_[static_cast<std::size_t>(s0)];
      k::ScopedDomain scope(sh.set->kcas());
      return sh.tree->rangeQuery(lo, hi, out);
    }

    const std::size_t base = out.size();
    // Phase 0: pin every overlapped shard for the WHOLE protocol. While a
    // shard's EBR pin is held, nodes retired from it are never recycled, so
    // captured version words stay mapped and monotonic — the property the
    // phase-2 equality argument rests on.
    std::vector<std::unique_ptr<recl::Guard>> pins;
    pins.reserve(static_cast<std::size_t>(s1 - s0 + 1));
    for (int s = s0; s <= s1; ++s) {
      pins.push_back(std::make_unique<recl::Guard>(
          shards_[static_cast<std::size_t>(s)]->set->ebr()));
    }

    std::vector<std::vector<std::pair<k::AtomicWord*, k::word_t>>> caps(
        static_cast<std::size_t>(s1 - s0 + 1));
    // Capped decorrelated-jitter backoff between whole-window retries: two
    // scanners invalidated by the same churn do not re-collide in lockstep
    // (deterministic exponential schedules can), and the retry count is
    // surfaced (rqRetries) so livelock under churn is observable instead of
    // silent spinning.
    JitterBackoff backoff(
        static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this)) ^
        (static_cast<std::uint64_t>(ThreadRegistry::tid() + 1) << 32) ^
        static_cast<std::uint64_t>(lo));
    for (;;) {
      // Phase 1: per-shard validated scans, ascending (results concatenate
      // in key order), capturing each scan's visited set.
      bool ok = true;
      for (int s = s0; s <= s1 && ok; ++s) {
        auto& cap = caps[static_cast<std::size_t>(s - s0)];
        Shard& sh = *shards_[static_cast<std::size_t>(s)];
        k::ScopedDomain scope(sh.set->kcas());
        ok = sh.tree->rangeQueryCapture(
            lo, hi, out, [&cap](k::AtomicWord* addr, k::word_t enc) {
              cap.emplace_back(addr, enc);
            });
      }
      if (ok) {
        // Phase 2: re-read every captured version word through its owning
        // shard's domain (helping any in-flight operation). All equal =>
        // no visited node changed between its visit and this recheck, so
        // every shard's snapshot held simultaneously when phase 2 began.
        for (int s = s0; s <= s1 && ok; ++s) {
          Shard& sh = *shards_[static_cast<std::size_t>(s)];
          k::ScopedDomain scope(sh.set->kcas());
          for (const auto& [addr, enc] : caps[static_cast<std::size_t>(s - s0)]) {
            if (sh.set->kcas().readEncoded(addr) != enc) {
              ok = false;
              break;
            }
          }
        }
        if (ok) return out.size() - base;
      }
      out.resize(base);
      for (auto& c : caps) c.clear();
      rqRetries_.fetch_add(1, std::memory_order_relaxed);
      backoff.pause();
    }
  }

  /// Cross-shard range-query retries (phase-1 validation failures plus
  /// phase-2 mismatches) since construction. Relaxed counter: exact when
  /// read quiescent, monotone and approximately current under churn.
  std::uint64_t rqRetries() const {
    return rqRetries_.load(std::memory_order_relaxed);
  }

  // ----------------------------------------------------------------------
  // Parallel bulk load (quiescent: nothing else may run concurrently).
  // ----------------------------------------------------------------------

  /// Build from an ASCENDING key sequence (duplicates legal — inserted
  /// once); each key maps to value static_cast<V>(key), the bench prefill
  /// convention. Returns the keysum actually inserted. Shard slices are
  /// found by binary search, reordered median-first so plain BSTs come out
  /// balanced, and dispensed to `nthreads` workers in ~kBulkChunk-key
  /// chunks via per-shard cursors (home shard first, then stealing).
  std::int64_t bulkLoad(const std::vector<K>& sortedKeys, int nthreads) {
    PATHCAS_DCHECK(std::is_sorted(sortedKeys.begin(), sortedKeys.end()));
    // Slice per shard: shardOf is monotone in the key, so each shard's keys
    // form one contiguous run of the sorted input.
    std::vector<std::vector<K>> orders(static_cast<std::size_t>(nshards_));
    auto sliceBegin = sortedKeys.begin();
    for (int s = 0; s < nshards_; ++s) {
      auto sliceEnd = std::partition_point(
          sliceBegin, sortedKeys.end(),
          [this, s](K k) { return shardOf(k) <= s; });
      orders[static_cast<std::size_t>(s)] =
          medianFirstOrder(sliceBegin, sliceEnd);
      sliceBegin = sliceEnd;
    }

    // Insert order[b, e) of shard s; returns the keysum inserted.
    auto load = [this, &orders](int s, std::size_t b, std::size_t e) {
      const auto& order = orders[static_cast<std::size_t>(s)];
      Shard& sh = *shards_[static_cast<std::size_t>(s)];
      k::ScopedDomain scope(sh.set->kcas());
      std::int64_t sum = 0;
      for (std::size_t j = b; j < e; ++j) {
        const K k = order[j];
        if (sh.tree->insert(k, static_cast<V>(k))) sum += k;
      }
      return sum;
    };
    // The first chunk of each order (its top ~10 levels) goes in before any
    // worker starts. One BFS level is ascending, so a level inserted while
    // a stalled worker still holds the levels above it piles into chains;
    // under the top levels those chains could outgrow a plain BST's visit
    // bound (pathcas::kMaxVisited).
    std::vector<Padded<std::atomic<std::size_t>>> cursors(
        static_cast<std::size_t>(nshards_));
    std::int64_t topSum = 0;
    for (int s = 0; s < nshards_; ++s) {
      const std::size_t e =
          std::min(orders[static_cast<std::size_t>(s)].size(), kBulkChunk);
      topSum += load(s, 0, e);
      cursors[static_cast<std::size_t>(s)]->store(e);
    }
    auto work = [this, &orders, &cursors, &load](int worker) -> std::int64_t {
      const int home = homeShardForWorker(worker);
      if (config_.pinThreads) pinShardThread(home);
      std::int64_t sum = 0;
      for (int i = 0; i < nshards_; ++i) {
        const int s = (home + i) % nshards_;
        const std::size_t n = orders[static_cast<std::size_t>(s)].size();
        auto& cursor = *cursors[static_cast<std::size_t>(s)];
        for (;;) {
          const std::size_t b = cursor.fetch_add(kBulkChunk);
          if (b >= n) break;
          sum += load(s, b, std::min(n, b + kBulkChunk));
        }
      }
      return sum;
    };

    if (nthreads <= 1) return topSum + work(0);
    std::vector<std::int64_t> sums(static_cast<std::size_t>(nthreads), 0);
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(nthreads));
    for (int w = 0; w < nthreads; ++w) {
      workers.emplace_back([&, w] {
        ThreadGuard tg;  // recycle the dense id when the worker exits
        sums[static_cast<std::size_t>(w)] = work(w);
      });
    }
    for (auto& t : workers) t.join();
    std::int64_t total = topSum;
    for (std::int64_t s : sums) total += s;
    return total;
  }

  // ----------------------------------------------------------------------
  // Quiescent inspection (tests / bench validation), aggregated per shard.
  // ----------------------------------------------------------------------

  std::uint64_t size() const {
    std::uint64_t n = 0;
    for (const auto& sh : shards_) {
      k::ScopedDomain scope(sh->set->kcas());
      n += sh->tree->size();
    }
    return n;
  }

  std::int64_t keySum() const {
    std::int64_t sum = 0;
    for (const auto& sh : shards_) {
      k::ScopedDomain scope(sh->set->kcas());
      sum += sh->tree->keySum();
    }
    return sum;
  }

  std::uint64_t shardSize(int s) const {
    const auto& sh = *shards_[static_cast<std::size_t>(s)];
    k::ScopedDomain scope(sh.set->kcas());
    return sh.tree->size();
  }

  /// One shard's structure statistics (the tree's checkInvariants result —
  /// size, keysum, depth metrics). Quiescent; used by tests to assert e.g.
  /// that bulkLoad's median-first order kept the build shallow.
  auto shardStats(int s) const {
    const auto& sh = *shards_[static_cast<std::size_t>(s)];
    k::ScopedDomain scope(sh.set->kcas());
    return sh.tree->checkInvariants();
  }

  /// Per-shard combiner-queueing p99 in calibrated nanoseconds, index =
  /// shard id (quiescent; the histograms are written under the combiner
  /// locks). Empty unless combining with Config::combineStats — the bench
  /// driver's HasShardSched concept skips the JSON column on empty.
  std::vector<double> shardSchedP99Ns() const {
    std::vector<double> out;
    if (!combining() || !config_.combineStats) return out;
    out.reserve(static_cast<std::size_t>(nshards_));
    const double nsPerTick = TscCal::nsPerTick();
    for (const auto& sh : shards_)
      out.push_back(sh->combineWait.quantile(0.99) * nsPerTick);
    return out;
  }

  /// Number of combined ops recorded against shard s (quiescent).
  std::uint64_t shardSchedCount(int s) const {
    return shards_[static_cast<std::size_t>(s)]->combineWait.count();
  }

  /// Per-shard structural invariants PLUS the partition invariant: every
  /// key found in shard s must have shardOf(key) == s.
  void checkInvariants() const {
    for (int s = 0; s < nshards_; ++s) {
      const auto& sh = *shards_[static_cast<std::size_t>(s)];
      k::ScopedDomain scope(sh.set->kcas());
      sh.tree->checkInvariants();
      sh.tree->forEach([this, s](K k, V) { PATHCAS_CHECK(shardOf(k) == s); });
    }
  }

  /// Ascending in-order traversal across shards (quiescent).
  template <typename F>
  void forEach(F&& f) const {
    for (const auto& sh : shards_) {
      k::ScopedDomain scope(sh->set->kcas());
      sh->tree->forEach(f);
    }
  }

  std::uint64_t footprintBytes() const {
    std::uint64_t n = 0;
    for (const auto& sh : shards_) n += sh->set->footprintBytes();
    return n;
  }

  /// Nodes held by the shards' pools and not yet returned. After teardown
  /// of the trees and drain(), this is the leak count (expected 0) — but
  /// note the two sentinels per live tree always count.
  std::uint64_t liveNodes() const {
    std::uint64_t n = 0;
    for (const auto& sh : shards_) n += sh->set->liveNodes();
    return n;
  }

  /// Recycle every shard's limbo (requires quiescence).
  void drain() {
    for (auto& sh : shards_) sh->set->drain();
  }

 private:
  /// One thread's publication slot on one shard. Transitions: kEmpty ->
  /// kPending (owner, release), kPending -> kDone (combiner, under the
  /// combiner lock, release), kDone -> kEmpty (owner, after reading the
  /// result). The combiner only reads fields of kPending slots and only
  /// writes `result` before the kDone store, so slot fields need no atomics
  /// of their own.
  struct OpSlot {
    enum : std::uint8_t { kEmpty = 0, kPending = 1, kDone = 2 };
    std::atomic<std::uint8_t> state{kEmpty};
    bool isInsert = true;
    K key{};
    V val{};
    bool result = false;
    /// rdtsc at deposit (written by the owner before the kPending store, so
    /// the kPending acquire-load makes it visible to the combiner). Only
    /// stamped when Config::combineStats is on.
    std::uint64_t depositTicks = 0;
  };

  struct Shard {
    explicit Shard(const Options& opts)
        : set(std::make_unique<recl::DomainSet>()) {
      tree = std::make_unique<Tree>(opts, set->ebr(),
                                    &set->template pool<Node>());
    }
    std::unique_ptr<recl::DomainSet> set;
    // Declared after `set` => destroyed first (returns its nodes to the
    // set's pools while they are alive).
    std::unique_ptr<Tree> tree;
    /// Combining state; `slots` is allocated only when the map combines.
    std::atomic<bool> combinerLock{false};
    std::unique_ptr<Padded<OpSlot>[]> slots;
    /// Deposit-to-completion ticks of every combined op served by this
    /// shard (Config::combineStats). Written only under the combiner lock;
    /// read quiescent via shardSchedP99Ns()/shardSchedCount().
    bench::LatencyHistogram combineWait;
  };

  /// Scoped hold of a shard's combiner lock — a no-op when combining is
  /// off (direct commits need no mutation license).
  struct CombinerLockGuard {
    CombinerLockGuard(ShardedMap& m, Shard& sh)
        : lock_(m.combining() ? &sh.combinerLock : nullptr) {
      if (lock_ != nullptr) {
        Backoff backoff;
        while (lock_->exchange(true, std::memory_order_acquire))
          backoff.pause();
      }
    }
    ~CombinerLockGuard() {
      if (lock_ != nullptr) lock_->store(false, std::memory_order_release);
    }
    CombinerLockGuard(const CombinerLockGuard&) = delete;
    CombinerLockGuard& operator=(const CombinerLockGuard&) = delete;

   private:
    std::atomic<bool>* lock_;
  };

  bool combining() const { return combineWindow_ >= 2; }

  /// Deposit-and-spin protocol (header comment). The depositor either finds
  /// its result published, or wins the combiner lock and serves a window
  /// (its own op included) itself.
  bool combinedUpdate(Shard& sh, bool isInsert, K key, V val) {
    const int tid = ThreadRegistry::tid();
    OpSlot& my = *sh.slots[static_cast<std::size_t>(tid)];
    my.isInsert = isInsert;
    my.key = key;
    my.val = val;
    if (config_.combineStats) my.depositTicks = rdtsc();
    my.state.store(OpSlot::kPending, std::memory_order_release);
    Backoff backoff;
    for (;;) {
      if (my.state.load(std::memory_order_acquire) == OpSlot::kDone) {
        const bool r = my.result;
        my.state.store(OpSlot::kEmpty, std::memory_order_release);
        return r;
      }
      if (!sh.combinerLock.exchange(true, std::memory_order_acquire)) {
        combineShard(sh, &my);
        sh.combinerLock.store(false, std::memory_order_release);
      } else {
        backoff.pause();
      }
    }
  }

  /// Gather up to combineWindow_ pending ops (the caller's first, so a
  /// combiner always serves itself unless a previous window already did)
  /// and commit them. Runs under the shard's combiner lock.
  void combineShard(Shard& sh, OpSlot* mine) {
    OpSlot* ops[kMaxCombine];
    int n = 0;
    if (mine->state.load(std::memory_order_acquire) == OpSlot::kPending)
      ops[n++] = mine;
    const int maxTid = ThreadRegistry::instance().maxTid();
    for (int t = 0; t < maxTid && n < combineWindow_; ++t) {
      OpSlot& slot = *sh.slots[static_cast<std::size_t>(t)];
      if (&slot == mine) continue;
      if (slot.state.load(std::memory_order_acquire) == OpSlot::kPending)
        ops[n++] = &slot;
    }
    if (n == 0) return;
    // Snapshot deposit stamps BEFORE committing: after an op's kDone store
    // its owner may reset and reuse the slot, so slot fields are unsafe to
    // read once results are published.
    std::uint64_t deposits[kMaxCombine];
    if (config_.combineStats)
      for (int i = 0; i < n; ++i) deposits[i] = ops[i]->depositTicks;
    k::ScopedDomain scope(sh.set->kcas());
    if (n == 1) {
      // Low contention: direct per-op commit (the k=1 fast path), no
      // batching overhead beyond the lock exchange.
      OpSlot& s = *ops[0];
      s.result = s.isInsert ? sh.tree->insert(s.key, s.val)
                            : sh.tree->erase(s.key);
    } else {
      K keys[kMaxCombine];
      V vals[kMaxCombine];
      bool isInsert[kMaxCombine];
      bool outcomes[kMaxCombine];
      commitNetted(*sh.tree, ops, static_cast<std::size_t>(n),
                   NetRun<K, V>{keys, vals, isInsert, outcomes});
    }
    for (int i = 0; i < n; ++i)
      ops[i]->state.store(OpSlot::kDone, std::memory_order_release);
    if (config_.combineStats) {
      // Still under the combiner lock, so the histogram needs no atomics.
      const std::uint64_t now = rdtsc();
      for (int i = 0; i < n; ++i)
        sh.combineWait.record(now >= deposits[i] ? now - deposits[i] : 0);
    }
  }

  /// Call f(shard, lo, hi) for each maximal same-shard slice of an
  /// ascending key run (shardOf is monotone, so slices are contiguous).
  template <typename F>
  void forEachShardSlice(const K* keys, std::size_t n, F&& f) {
    std::size_t lo = 0;
    while (lo < n) {
      const int s = shardOf(keys[lo]);
      const K* const end =
          std::partition_point(keys + lo, keys + n,
                               [this, s](K k) { return shardOf(k) <= s; });
      const std::size_t hi = static_cast<std::size_t>(end - keys);
      f(s, lo, hi);
      lo = hi;
    }
  }

  Shard& shard(K key) {
    return *shards_[static_cast<std::size_t>(shardOf(key))];
  }

  /// Balanced (BFS over recursive medians) insertion order for one shard's
  /// sorted slice: parents precede children level by level, so sequential
  /// chunks hold same-depth keys and concurrent workers keep the tree at
  /// logarithmic depth.
  static std::vector<K> medianFirstOrder(
      typename std::vector<K>::const_iterator first,
      typename std::vector<K>::const_iterator last) {
    std::vector<K> out;
    const std::size_t n = static_cast<std::size_t>(last - first);
    out.reserve(n);
    if (n == 0) return out;
    std::vector<std::pair<std::size_t, std::size_t>> level = {{0, n}};
    std::vector<std::pair<std::size_t, std::size_t>> next;
    while (!level.empty()) {
      next.clear();
      for (const auto& [lo, hi] : level) {
        const std::size_t mid = lo + (hi - lo) / 2;
        out.push_back(*(first + static_cast<std::ptrdiff_t>(mid)));
        if (mid > lo) next.emplace_back(lo, mid);
        if (mid + 1 < hi) next.emplace_back(mid + 1, hi);
      }
      level.swap(next);
    }
    return out;
  }

  static constexpr std::size_t kBulkChunk = 1024;

  Config config_;
  int nshards_;
  K keySpace_;
  int combineWindow_ = 0;
  /// Cross-shard range-query whole-window retries (rqRetries()).
  std::atomic<std::uint64_t> rqRetries_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pathcas::service
