// Type-segregated node pool with per-thread free lists — the allocation half
// of the repo's recycling memory stack (the reclamation half is ebr.hpp).
//
// DEBRA (the paper's reclamation scheme, §4.3) is designed for retired nodes
// to be *recycled*, not handed back to the global allocator: on the
// update-heavy sweeps every insert allocates and every delete retires, so
// allocator locks and metadata would otherwise sit on every operation.
// NodePool<Node> closes that loop, and keeps the allocator off the path of
// fresh nodes too:
//
//   alloc()   — pop a slot from the calling thread's free list (pure
//               pointer ops, no synchronization); refill a whole chain from
//               a global shard on miss; when both are empty, bump a pointer
//               through the thread's own run of fresh slots, cutting the
//               next run from the pool's current slab (under the pool lock)
//               only when that run is used up.
//   retire    — EbrDomain limbo records carry `this` as the PoolBase owner;
//               when the grace period expires, recycleRaw() pushes the
//               still-cache-warm slot onto the *retiring* thread's free
//               list, so churny workloads keep reusing hot lines.
//   destroy() — immediate recycle, for nodes that were never published
//               (failed-insert spares, failed-vexec replacements) and for
//               quiescent teardown.
//
// Fresh slots sit back to back in slabs at a stride of slotSize() —
// sizeof(Node), with no cache-line padding — so a node costs its own size
// and a large tree spans as few pages as it can. Slabs double from
// kSlabMinBytes (64 KiB) to kSlabMaxBytes (2 MiB, the x86-64 huge page), so
// a small pool stays small. Each slab is aligned to its own size and advised
// for transparent huge pages where the platform has MADV_HUGEPAGE: every
// 2 MiB slab can then be one TLB entry, and a traversal of a tree far larger
// than the caches stops paying a page walk per node. Runs are kRunBytes, so
// the pool lock is taken once per few hundred fresh nodes.
//
// Free lists are intrusive (the link lives in the dead node's first bytes —
// legal because a slot is only linked after its grace period, when no thread
// can read it) and bounded: a local list that grows past kLocalCap spills a
// chain of kSpillBatch slots to one of kShards lock-protected global shard
// lists, where other threads' refills pick it up, so memory migrates between
// threads instead of accumulating.
//
// Slabs go back to the system whole, and only when no slot is live
// (drainQuiescent(), ~NodePool()): the free lists do not record which slab
// a slot came from, so one live node keeps every slab. A pool destroyed with
// live nodes — a defaultPool<N>() at exit, whose structures and limbo are
// never torn down — leaves its slabs mapped, and those nodes stay readable.
//
// Ownership rules (see docs/ARCHITECTURE.md, "The memory subsystem"):
//   * A pool must outlive (a) every structure allocating from it and
//     (b) every EbrDomain limbo record that names it as owner. Structures
//     default to a per-node-type process-lifetime pool (their defaultPool()),
//     which satisfies both; callers passing their own pool must declare it
//     before any local EbrDomain that will hold its retirees.
//   * Node types must be trivially destructible (checked): the pool reclaims
//     slots wholesale, and EBR recycling must not run user code on memory
//     another thread may still read.
//   * alloc()/destroy()/recycleRaw() may race freely across threads;
//     drainQuiescent() and the stats aggregators require quiescence.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <type_traits>
#include <vector>

#include "recl/ebr.hpp"
#include "util/defs.hpp"
#include "util/locks.hpp"
#include "util/padding.hpp"
#include "util/thread_registry.hpp"

namespace pathcas::recl {

/// Fresh-slot geometry: slab sizes double from kSlabMinBytes to kSlabMaxBytes
/// (one x86-64 huge page), and a thread takes a run of at most kRunBytes of
/// the current slab at a time.
inline constexpr std::size_t kSlabMinBytes = std::size_t{64} << 10;
inline constexpr std::size_t kSlabMaxBytes = std::size_t{2} << 20;
inline constexpr std::size_t kRunBytes = std::size_t{16} << 10;

struct PoolStats {
  std::uint64_t fresh = 0;      // slots carved from a slab run
  std::uint64_t reused = 0;     // slots obtained from a free list
  std::uint64_t recycled = 0;   // slots returned (EBR expiry or destroy())
  std::uint64_t spills = 0;     // local → global chain handoffs
  std::uint64_t refills = 0;    // global → local chain handoffs
  std::uint64_t drained = 0;    // slots released to the system with their slab
  std::uint64_t slabBytes = 0;  // slab memory mapped and not yet released
};

namespace detail {

inline void unmapOrDie(void* p, std::size_t bytes) {
  const int rc = ::munmap(p, bytes);
  PATHCAS_CHECK(rc == 0);
}

/// Map `bytes` of zeroed memory aligned to `bytes` (a power of two, at least
/// a page): map twice the size, then unmap the misaligned ends. The
/// huge-page advice has no effect below 2 MiB.
inline char* mapSlab(std::size_t bytes) {
  void* raw = ::mmap(nullptr, 2 * bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  char* const lo = static_cast<char*>(raw);
  const std::size_t head =
      (bytes - reinterpret_cast<std::uintptr_t>(raw) % bytes) % bytes;
  char* const slab = lo + head;
  if (head != 0) unmapOrDie(lo, head);
  unmapOrDie(slab + bytes, bytes - head);
#ifdef MADV_HUGEPAGE
  ::madvise(slab, bytes, MADV_HUGEPAGE);  // advice only: failure is harmless
#endif
  return slab;
}

}  // namespace detail

template <typename NodeT>
class NodePool final : public PoolBase {
 public:
  static_assert(std::is_trivially_destructible_v<NodeT>,
                "pooled nodes are reclaimed without running destructors");

  NodePool() = default;
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;
  ~NodePool() { drainQuiescent(); }

  /// Allocate and construct a node. Wait-free except on the cold miss path.
  template <typename... Args>
  NodeT* alloc(Args&&... args) {
    LocalCache& lc = *local_[ThreadRegistry::tid()];
    FreeSlot* slot = lc.head;
    if (PATHCAS_UNLIKELY(slot == nullptr)) {
      if (!refill(lc))
        return new (carve(lc)) NodeT(std::forward<Args>(args)...);
      slot = lc.head;
    }
    lc.head = slot->next;
    --lc.count;
    ++lc.stats.reused;
    return new (static_cast<void*>(slot)) NodeT(std::forward<Args>(args)...);
  }

  /// Immediately return a node's slot to the pool. Only legal for nodes no
  /// other thread can reach: never-published spares and quiescent teardown.
  /// Reachable nodes go through EbrDomain::retire(p, pool) instead.
  void destroy(NodeT* p) { recycleRaw(p); }

  /// PoolBase hook: EbrDomain hands back an expired slot (grace period over,
  /// nobody can read it) on the retiring thread. Null-safe, like the
  /// `delete` it replaces (destroy() funnels through here).
  void recycleRaw(void* p) override {
    if (p == nullptr) return;
    LocalCache& lc = *local_[ThreadRegistry::tid()];
    auto* slot = static_cast<FreeSlot*>(p);
    slot->next = lc.head;
    lc.head = slot;
    ++lc.count;
    ++lc.stats.recycled;
    if (PATHCAS_UNLIKELY(lc.count >= kLocalCap)) spill(lc);
  }

  /// Release every slab back to the system, provided no slot is live (in a
  /// structure or in EBR limbo). Free slots share slabs with live ones, so
  /// while any node is live this releases nothing and every node stays
  /// readable. Requires quiescence: no concurrent alloc/destroy/recycle.
  void drainQuiescent() {
    if (liveCount() != 0) return;
    const PoolStats before = stats();
    for (auto& padded : local_) {
      LocalCache& lc = *padded;
      lc.head = nullptr;
      lc.count = 0;
      lc.runNext = lc.runEnd = nullptr;
      lc.stats.slabBytes = 0;
    }
    for (auto& padded : shards_)
      padded->chains.store(nullptr, std::memory_order_relaxed);
    for (const Slab& slab : slabs_) detail::unmapOrDie(slab.base, slab.bytes);
    slabs_.clear();
    slabNext_ = slabEnd_ = nullptr;
    nextSlabBytes_ = kSlabMinBytes;
    // Nothing was live, so every slot handed out since the last drain was
    // free, and went with its slab.
    local_[ThreadRegistry::tid()]->stats.drained +=
        before.fresh - before.drained;
  }

  // ----------------------------------------------------------------------
  // Statistics (aggregators require quiescence; used by tests and the
  // footprint columns of the analysis benches).
  // ----------------------------------------------------------------------

  PoolStats stats() const {
    PoolStats total;
    for (auto& padded : local_) {
      const PoolStats& s = padded->stats;
      total.fresh += s.fresh;
      total.reused += s.reused;
      total.recycled += s.recycled;
      total.spills += s.spills;
      total.refills += s.refills;
      total.drained += s.drained;
      total.slabBytes += s.slabBytes;
    }
    return total;
  }

  /// Nodes handed out and not yet returned (live in structures or in limbo).
  std::uint64_t liveCount() const {
    const PoolStats s = stats();
    return s.fresh + s.reused - s.recycled;
  }

  /// Free slots currently cached (local lists + global shards).
  std::uint64_t freeCount() const {
    std::uint64_t n = 0;
    for (auto& padded : local_) n += padded->count;
    for (auto& padded : shards_) {
      Shard& sh = const_cast<Shard&>(*padded);
      sh.lock.lock();
      for (Chain* c = sh.chains.load(std::memory_order_relaxed); c != nullptr;
           c = c->nextChain) {
        n += c->count;
      }
      sh.lock.unlock();
    }
    return n;
  }

  /// Bytes of the slots the pool has handed out (live + free): what the
  /// paper's footprint analysis measures, from counters instead of a walk.
  /// The slabs holding them are stats().slabBytes; the difference is slack
  /// not yet carved, at most the current slab plus one run per thread.
  std::uint64_t footprintBytes() const {
    const PoolStats s = stats();
    return (s.fresh - s.drained) * kSlotSize;
  }

  static constexpr std::size_t slotSize() { return kSlotSize; }

 private:
  /// Intrusive free-list link, written over a dead node's first bytes.
  struct FreeSlot {
    FreeSlot* next;
  };
  /// A spilled chain's header, written over its first slot: the chain link,
  /// the remaining slots, and the total count (header slot included).
  struct Chain {
    Chain* nextChain;
    FreeSlot* slots;
    std::uint32_t count;
  };
  struct Slab {
    char* base;
    std::size_t bytes;
  };

  static constexpr std::size_t kSlotSize =
      std::max(sizeof(NodeT), sizeof(Chain));
  // Slots sit back to back, so the stride alone keeps each one aligned for
  // the node and for the Chain header written over it once it is free.
  static_assert(kSlotSize % alignof(NodeT) == 0 &&
                    kSlotSize % alignof(Chain) == 0,
                "the slot stride must preserve node and Chain alignment");
  static_assert(kSlotSize <= kRunBytes, "a run must hold at least one node");
  static constexpr std::size_t kRunSlots = kRunBytes / kSlotSize;

  static constexpr std::uint32_t kLocalCap = 512;
  static constexpr std::uint32_t kSpillBatch = kLocalCap / 2;
  static constexpr int kShards = 8;

  struct LocalCache {
    FreeSlot* head = nullptr;
    std::uint32_t count = 0;
    char* runNext = nullptr;  // the thread's run of fresh slots,
    char* runEnd = nullptr;   // [runNext, runEnd)
    PoolStats stats;
  };
  struct Shard {
    TatasLock lock;
    std::atomic<Chain*> chains{nullptr};  // mutated under lock; atomic so
                                          // refill can peek without it
  };

  /// The next slot of the thread's run, cutting a new run first if this one
  /// is used up.
  void* carve(LocalCache& lc) {
    if (lc.runNext == lc.runEnd) cutRun(lc);
    void* slot = lc.runNext;
    lc.runNext += kSlotSize;
    ++lc.stats.fresh;
    return slot;
  }

  /// Hand the thread the next kRunSlots slots of the current slab (fewer at
  /// the slab's end), mapping a new slab once the current one has none left.
  void cutRun(LocalCache& lc) {
    std::lock_guard<TatasLock> guard(slabLock_);
    if (static_cast<std::size_t>(slabEnd_ - slabNext_) < kSlotSize) {
      const std::size_t bytes = nextSlabBytes_;
      slabs_.push_back({detail::mapSlab(bytes), bytes});
      slabNext_ = slabs_.back().base;
      slabEnd_ = slabNext_ + bytes;
      nextSlabBytes_ = std::min(2 * bytes, kSlabMaxBytes);
      lc.stats.slabBytes += bytes;
    }
    const std::size_t slots = std::min(
        kRunSlots, static_cast<std::size_t>(slabEnd_ - slabNext_) / kSlotSize);
    lc.runNext = slabNext_;
    lc.runEnd = slabNext_ + slots * kSlotSize;
    slabNext_ = lc.runEnd;
  }

  void spill(LocalCache& lc) {
    // Keep the hottest (most recently freed, nearest the head) half local;
    // export the stale tail — the walk to the cut point costs the same
    // either way, and the local list stays cache-warm.
    FreeSlot* keepTail = lc.head;
    for (std::uint32_t i = 1; i < lc.count - kSpillBatch; ++i)
      keepTail = keepTail->next;
    FreeSlot* first = keepTail->next;  // head of the cold tail
    keepTail->next = nullptr;
    lc.count -= kSpillBatch;
    FreeSlot* rest = first->next;  // read before the header overwrites it
    auto* chain = new (static_cast<void*>(first)) Chain{nullptr, rest,
                                                        kSpillBatch};
    Shard& sh = *shards_[shardIndex()];
    sh.lock.lock();
    chain->nextChain = sh.chains.load(std::memory_order_relaxed);
    sh.chains.store(chain, std::memory_order_relaxed);
    sh.lock.unlock();
    ++lc.stats.spills;
  }

  bool refill(LocalCache& lc) {
    const int start = shardIndex();
    for (int i = 0; i < kShards; ++i) {
      Shard& sh = *shards_[(start + i) % kShards];
      if (sh.chains.load(std::memory_order_relaxed) == nullptr) continue;
      sh.lock.lock();
      Chain* chain = sh.chains.load(std::memory_order_relaxed);
      if (chain != nullptr)
        sh.chains.store(chain->nextChain, std::memory_order_relaxed);
      sh.lock.unlock();
      if (chain == nullptr) continue;
      // Turn the header slot back into a plain free slot at the chain head.
      FreeSlot* rest = chain->slots;
      const std::uint32_t count = chain->count;
      auto* headSlot = new (static_cast<void*>(chain)) FreeSlot{rest};
      lc.head = headSlot;
      lc.count = count;
      ++lc.stats.refills;
      return true;
    }
    return false;
  }

  static int shardIndex() { return ThreadRegistry::tid() % kShards; }

  Padded<LocalCache> local_[kMaxThreads];
  Padded<Shard> shards_[kShards];
  // The fresh-slot supply, guarded by slabLock_ (taken once per run): every
  // slab mapped so far, the current slab's uncut rest [slabNext_, slabEnd_),
  // and the size of the next slab.
  TatasLock slabLock_;
  std::vector<Slab> slabs_;
  char* slabNext_ = nullptr;
  char* slabEnd_ = nullptr;
  std::size_t nextSlabBytes_ = kSlabMinBytes;
};

/// The process-lifetime pool shared by every structure instance using node
/// type N — the default owner when a constructor is not handed one. Static
/// storage satisfies the pool ownership rule for the process-wide EbrDomain
/// (which is leaked, so it never outlives these).
template <typename N>
NodePool<N>& defaultPool() {
  static NodePool<N> pool;
  return pool;
}

}  // namespace pathcas::recl
