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
//               next run from the pool's arena (under the pool lock) only
//               when that run is used up.
//   retire    — EbrDomain limbo records carry `this` as the PoolBase owner;
//               when the grace period expires, recycleRaw() pushes the
//               still-cache-warm slot onto the *retiring* thread's free
//               list, so churny workloads keep reusing hot lines.
//   destroy() — immediate recycle, for nodes that were never published
//               (failed-insert spares, failed-vexec replacements) and for
//               quiescent teardown.
//
// Every slot lives in the pool's one arena: a reservation of address space
// made when the pool is built (PROT_NONE, so it costs no memory), aligned
// to kSlabMaxBytes, holding arenaSlots() slots back to back at a stride of
// slotSize() — sizeof(Node), with no cache-line padding — so a node costs
// its own size and a large tree spans as few pages as it can. A slot has an
// index, its offset in slots from the arena's base: at(i) and indexOf(p)
// convert by plain arithmetic, and slot 0 is never handed out, so index 0
// can stand for null. The internal trees keep both child links of a node in
// one word as two such indices (trees/internal_tree_core.hpp), which is
// why an index fits kArenaIndexBits bits.
//
// The arena is committed (made readable and writable) front to back, one
// slab at a time: each slab doubles the committed bytes from kSlabMinBytes
// (64 KiB) until a slab reaches kSlabMaxBytes (2 MiB, the x86-64 huge
// page), so a small pool stays small and every later slab is one aligned
// huge page. Slabs are advised for transparent huge pages where the
// platform has MADV_HUGEPAGE: every 2 MiB slab can then be one TLB entry,
// and a traversal of a tree far larger than the caches stops paying a page
// walk per node. Runs are kRunBytes, so the pool lock is taken once per few
// hundred fresh nodes.
//
// Free lists are intrusive (the link lives in the dead node's first bytes —
// legal because a slot is only linked after its grace period, when no thread
// can read it) and bounded: a local list that grows past kLocalCap spills a
// chain of kSpillBatch slots to one of kShards lock-protected global shard
// lists, where other threads' refills pick it up, so memory migrates between
// threads instead of accumulating.
//
// Committed memory goes back to the system whole, and only when no slot is
// live (drainQuiescent(), ~NodePool()): the free lists do not record where
// their slots lie, so one live node keeps every slab. A drain decommits the
// arena but keeps its base, so an index never changes while its node can be
// read; the destructor then releases the reservation. A pool destroyed with
// live nodes — a defaultPool<N>() at exit, whose structures and limbo are
// never torn down — leaves its arena mapped, and those nodes stay readable.
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
//   * alloc()/destroy()/recycleRaw()/at()/indexOf() may race freely across
//     threads; drainQuiescent() and the stats aggregators require
//     quiescence.
#pragma once

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <type_traits>

#include "recl/ebr.hpp"
#include "util/defs.hpp"
#include "util/locks.hpp"
#include "util/padding.hpp"
#include "util/thread_registry.hpp"

namespace pathcas::recl {

/// Arena geometry: slabs double the committed bytes from kSlabMinBytes
/// until a slab reaches kSlabMaxBytes (one x86-64 huge page, and the
/// arena's alignment), and a thread takes a run of at most kRunBytes of
/// committed slots at a time. A slot index fits kArenaIndexBits bits, and
/// an arena reserves at most kArenaMaxBytes of address space, so a pool of
/// nodes larger than 32 B holds fewer than 2^30 slots.
inline constexpr std::size_t kSlabMinBytes = std::size_t{64} << 10;
inline constexpr std::size_t kSlabMaxBytes = std::size_t{2} << 20;
inline constexpr std::size_t kRunBytes = std::size_t{16} << 10;
inline constexpr int kArenaIndexBits = 30;
inline constexpr std::size_t kArenaMaxBytes = std::size_t{32} << 30;

struct PoolStats {
  std::uint64_t fresh = 0;      // slots carved from a run
  std::uint64_t reused = 0;     // slots obtained from a free list
  std::uint64_t recycled = 0;   // slots returned (EBR expiry or destroy())
  std::uint64_t spills = 0;     // local → global chain handoffs
  std::uint64_t refills = 0;    // global → local chain handoffs
  std::uint64_t drained = 0;    // slots released to the system by a drain
  std::uint64_t slabBytes = 0;  // arena bytes committed and not yet released
};

namespace detail {

inline void unmapOrDie(void* p, std::size_t bytes) {
  const int rc = ::munmap(p, bytes);
  PATHCAS_CHECK(rc == 0);
}

/// Reserve `bytes` of address space aligned to kSlabMaxBytes, with no
/// access and no memory behind it: map a huge page more, then unmap the
/// misaligned ends.
inline char* reserveArena(std::size_t bytes) {
  void* raw = ::mmap(nullptr, bytes + kSlabMaxBytes, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  char* const lo = static_cast<char*>(raw);
  const std::size_t head =
      (kSlabMaxBytes - reinterpret_cast<std::uintptr_t>(raw) % kSlabMaxBytes) %
      kSlabMaxBytes;
  char* const base = lo + head;
  if (head != 0) unmapOrDie(lo, head);
  unmapOrDie(base + bytes, kSlabMaxBytes - head);
  return base;
}

/// Make [p, p + bytes) of a reservation readable and writable (zeroed on
/// first touch). The huge-page advice has no effect below 2 MiB.
inline void commit(char* p, std::size_t bytes) {
  if (::mprotect(p, bytes, PROT_READ | PROT_WRITE) != 0) throw std::bad_alloc();
#ifdef MADV_HUGEPAGE
  ::madvise(p, bytes, MADV_HUGEPAGE);  // advice only: failure is harmless
#endif
}

/// Return [p, p + bytes) to the system and to PROT_NONE: mapping fresh
/// inaccessible pages over it frees the old ones and keeps the addresses.
inline void decommit(char* p, std::size_t bytes) {
  void* const q = ::mmap(p, bytes, PROT_NONE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED, -1, 0);
  PATHCAS_CHECK(q == p);
}

}  // namespace detail

template <typename NodeT>
class NodePool final : public PoolBase {
 public:
  static_assert(std::is_trivially_destructible_v<NodeT>,
                "pooled nodes are reclaimed without running destructors");

  NodePool() : base_(detail::reserveArena(kArenaBytes)) {}
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;
  ~NodePool() {
    drainQuiescent();
    if (liveCount() == 0) detail::unmapOrDie(base_, kArenaBytes);
  }

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

  /// The node in slot i of the arena, or null for i == 0 (the slot never
  /// handed out). i must be below arenaSlots().
  NodeT* at(std::uint32_t i) const {
    if (i == 0) return nullptr;
    return reinterpret_cast<NodeT*>(base_ + std::size_t{i} * kSlotSize);
  }

  /// The address of slot i, slot 0 included: a prefetch target that needs
  /// no null test (prefetching the never-used slot 0 is harmless).
  const void* slotAddress(std::uint32_t i) const {
    return base_ + std::size_t{i} * kSlotSize;
  }

  /// The slot index of p, a node from this pool, or 0 for null.
  std::uint32_t indexOf(const NodeT* p) const {
    if (p == nullptr) return 0;
    return static_cast<std::uint32_t>(
        static_cast<std::size_t>(reinterpret_cast<const char*>(p) - base_) /
        kSlotSize);
  }

  /// Decommit the whole arena, provided no slot is live (in a structure or
  /// in EBR limbo). Free slots share the arena with live ones, so while any
  /// node is live this releases nothing and every node stays readable. The
  /// base stays, so the next fresh slot is at(1) again. Requires
  /// quiescence: no concurrent alloc/destroy/recycle.
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
    if (committedEnd_ != base_)
      detail::decommit(base_, static_cast<std::size_t>(committedEnd_ - base_));
    uncut_ = base_ + kSlotSize;
    committedEnd_ = base_;
    // Nothing was live, so every slot handed out since the last drain was
    // free, and went with the arena's memory.
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
  /// The committed slabs holding them are stats().slabBytes; the difference
  /// is slack not yet carved, at most the committed rest of the arena (less
  /// than a slab) plus one run per thread, and slot 0.
  std::uint64_t footprintBytes() const {
    const PoolStats s = stats();
    return (s.fresh - s.drained) * kSlotSize;
  }

  static constexpr std::size_t slotSize() { return kSlotSize; }
  /// Slots in the arena, slot 0 included: every index is below this.
  static constexpr std::size_t arenaSlots() { return kArenaSlots; }

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

  static constexpr std::size_t kSlotSize =
      std::max(sizeof(NodeT), sizeof(Chain));
  // Slots sit back to back from an aligned base, so the stride alone keeps
  // each one aligned for the node and for the Chain header written over it
  // once it is free.
  static_assert(kSlotSize % alignof(NodeT) == 0 &&
                    kSlotSize % alignof(Chain) == 0,
                "the slot stride must preserve node and Chain alignment");
  static_assert(kSlotSize <= kRunBytes, "a run must hold at least one node");
  static constexpr std::size_t kRunSlots = kRunBytes / kSlotSize;
  static constexpr std::size_t kArenaSlots = std::min(
      std::size_t{1} << kArenaIndexBits, kArenaMaxBytes / kSlotSize);
  // The reservation, whole slabs of the largest size.
  static constexpr std::size_t kArenaBytes =
      (kArenaSlots * kSlotSize + kSlabMaxBytes - 1) / kSlabMaxBytes *
      kSlabMaxBytes;

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

  /// Hand the thread the next kRunSlots uncut slots of the arena (fewer at
  /// its end), committing slabs until the run is committed.
  void cutRun(LocalCache& lc) {
    std::lock_guard<TatasLock> guard(arenaLock_);
    char* const arenaEnd = base_ + kArenaSlots * kSlotSize;
    const std::size_t slots = std::min(
        kRunSlots, static_cast<std::size_t>(arenaEnd - uncut_) / kSlotSize);
    if (slots == 0) throw std::bad_alloc();
    char* const runEnd = uncut_ + slots * kSlotSize;
    while (committedEnd_ < runEnd) {
      const auto committed = static_cast<std::size_t>(committedEnd_ - base_);
      const std::size_t bytes =
          std::clamp(committed, kSlabMinBytes, kSlabMaxBytes);
      detail::commit(committedEnd_, bytes);
      committedEnd_ += bytes;
      lc.stats.slabBytes += bytes;
    }
    lc.runNext = uncut_;
    lc.runEnd = runEnd;
    uncut_ = runEnd;
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
  char* const base_;  // the arena: slot i is at base_ + i * kSlotSize
  // The fresh-slot supply, guarded by arenaLock_ (taken once per run): the
  // first slot no run holds yet, and the end of the committed slabs.
  TatasLock arenaLock_;
  char* uncut_ = base_ + kSlotSize;  // slot 0 is never handed out
  char* committedEnd_ = base_;
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
