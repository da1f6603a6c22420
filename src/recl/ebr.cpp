#include "recl/ebr.hpp"

namespace pathcas::recl {

EbrDomain& EbrDomain::instance() {
  // Deliberately leaked — see the declaration comment: limbo records hold
  // PoolBase* into NodePools with static storage duration, and destroying
  // the domain after those pools would recycle into freed memory.
  static EbrDomain* domain = new EbrDomain();
  return *domain;
}

EbrDomain::EbrDomain() = default;

EbrDomain::~EbrDomain() {
  // Recycle whatever is still in limbo; at destruction no user threads run.
  // Owners (pools) must still be alive — declare pools before local domains.
  for (auto& padded : slots_) {
    for (int i = 0; i < ThreadSlot::kBags; ++i) freeBag(*padded, i);
    for (LimboChunk* c = padded->chunkCache; c != nullptr;) {
      LimboChunk* next = c->next;
      delete c;
      c = next;
    }
    padded->chunkCache = nullptr;
  }
}

void EbrDomain::doPin(ThreadSlot& slot) {
  const std::uint64_t e = globalEpoch_.load(std::memory_order_acquire);
  // The announcement must be globally visible before any data-structure
  // load in this epoch, or a racing advancer could miss us. That is a
  // store→load order, which only a full barrier gives: the seq_cst fence
  // below is it. The store itself can then be relaxed — a seq_cst store
  // would be a second full barrier (xchg on x86) for nothing.
  slot.announce.store((e << 1) | 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);

  if (slot.lastPinEpoch != e) {
    slot.lastPinEpoch = e;
    // Free horizon: 3 epochs, not the textbook 2. The classic argument —
    // "anyone who obtained a pointer pre-unlink was pinned with an
    // announcement < label+1, blocking the epoch from reaching label+2" —
    // covers pointers obtained *from the structure*, but KCAS helpers obtain
    // staged addresses *from a descriptor*, which outlives the commit until
    // its slot is reused. A helper pinned at label+1 can harvest such an
    // address (the retire-time label load may lag the true epoch by one
    // while the retirer is pinned), and pinned-at-current-epoch threads do
    // not block the next advance — so label+2 could be reached without ever
    // synchronizing with that helper, racing its doomed CAS against the
    // recycle. One extra epoch forces an advance that must observe every
    // such helper's announcement transition.
    for (int i = 0; i < ThreadSlot::kBags; ++i) {
      if (slot.bags[i] != nullptr && slot.bagLabel[i] + 3 <= e)
        freeBag(slot, i);
    }
  }
  if (++slot.pinCount % kAdvanceInterval == 0) tryAdvance();
}

void EbrDomain::doUnpin(ThreadSlot& slot) {
  const std::uint64_t a = slot.announce.load(std::memory_order_relaxed);
  slot.announce.store(a & ~1ULL, std::memory_order_release);
}

void EbrDomain::tryAdvance() {
  const std::uint64_t e = globalEpoch_.load(std::memory_order_acquire);
  const int n = ThreadRegistry::instance().maxTid();
  for (int i = 0; i < n; ++i) {
    const std::uint64_t a = slots_[i]->announce.load(std::memory_order_acquire);
    if ((a & 1) && (a >> 1) != e) return;  // someone pinned in an old epoch
  }
  std::uint64_t expected = e;
  globalEpoch_.compare_exchange_strong(expected, e + 1,
                                       std::memory_order_acq_rel);
}

void EbrDomain::freeBag(ThreadSlot& slot, int bagIdx) {
  // Hand every expired record back to its owner (NodePool recycle or the
  // HeapRecycler's delete), then return the chunks to this thread's cache —
  // the bag will reuse them the next time it fills.
  for (LimboChunk* c = slot.bags[bagIdx]; c != nullptr;) {
    for (int i = 0; i < c->count; ++i) {
      c->recs[i].owner->recycleRaw(c->recs[i].p);
      ++slot.freed;
    }
    LimboChunk* next = c->next;
    c->count = 0;
    c->next = slot.chunkCache;
    slot.chunkCache = c;
    c = next;
  }
  slot.bags[bagIdx] = nullptr;
}

void EbrDomain::retireRaw(void* p, PoolBase* owner) {
  auto& slot = *slots_[ThreadRegistry::tid()];
  // Label with the retire-time global epoch L. The bag slot L%kBags can only
  // hold leftovers labeled <= L-kBags, which are already freeable
  // (global == L and the free horizon is kBags-1).
  const std::uint64_t label = globalEpoch_.load(std::memory_order_acquire);
  const int idx = static_cast<int>(label % ThreadSlot::kBags);
  if (slot.bagLabel[idx] != label) {
    if (slot.bags[idx] != nullptr) {
      PATHCAS_DCHECK(slot.bagLabel[idx] + ThreadSlot::kBags <= label);
      freeBag(slot, idx);
    }
    slot.bagLabel[idx] = label;
  }
  LimboChunk* head = slot.bags[idx];
  if (head == nullptr || head->count == LimboChunk::kCapacity) {
    LimboChunk* c = slot.chunkCache;
    if (c != nullptr) {
      slot.chunkCache = c->next;
    } else {
      c = new LimboChunk();
    }
    c->next = head;
    c->count = 0;
    slot.bags[idx] = head = c;
  }
  head->recs[head->count++] = Retired{p, owner};
  ++slot.retired;
}

std::uint64_t EbrDomain::retiredCount() const {
  std::uint64_t sum = 0;
  for (auto& s : slots_) sum += s->retired;
  return sum;
}

std::uint64_t EbrDomain::freedCount() const {
  std::uint64_t sum = 0;
  for (auto& s : slots_) sum += s->freed;
  return sum;
}

void EbrDomain::drainAll() {
  const int n = ThreadRegistry::instance().maxTid();
  for (int i = 0; i < n; ++i) {
    PATHCAS_CHECK(!(slots_[i]->announce.load(std::memory_order_acquire) & 1));
  }
  for (auto& padded : slots_) {
    for (int i = 0; i < ThreadSlot::kBags; ++i) freeBag(*padded, i);
  }
}

}  // namespace pathcas::recl
