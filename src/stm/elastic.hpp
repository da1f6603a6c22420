// Simplified elastic transactions (Felber, Gramoli, Guerraoui, DISC'09) —
// the substrate of the paper's §5.2 comparison (`ext-bst-elastic`, the
// "speculation-friendly" tree).
//
// Elasticity is chosen per transaction, as in the original design:
// atomically() runs an ordinary TL2-style transaction (every read checked
// against the start snapshot, so a read-only transaction sees one consistent
// state), and atomicallyElastic() runs an elastic one. The TM trees run their
// operations through stm::elasticAtomically() (common.hpp), which picks the
// elastic form here and the ordinary one on every other TM.
//
// An elastic transaction behaves like a sequence of short sub-transactions:
// while the transaction has not written ("elastic phase"), each read only
// enforces consistency with a sliding window of the most recent kWindow
// reads — reads past a newer clock value slide the view forward instead of
// aborting, so hand-over-hand traversals are not invalidated by updates
// behind them. That relaxation is sound for read-only operations (a search
// in a linked structure is linearizable if each consecutive pair of reads
// is mutually consistent); it is NOT sound for updates, whose writes may
// depend on reads that slid out of the window. Update transactions
// therefore keep the full read set on the side and, on the first write,
// "harden" into a normal TL2-style transaction whose commit re-validates
// every read. (Usage contract: as in common.hpp — per-thread Tx slots keyed
// by ThreadRegistry::tid(), one transaction per thread, instance outlives
// all transactions.)
//
// This is a reduction of the elastic idea onto our TL2 ownership-record
// base: searches get the elastic benefit, updates pay TL2 prices —
// sufficient to reproduce the paper's observation that the elastic tree is
// much slower than hand-crafted lock-free trees.
#pragma once

#include <array>

#include "stm/common.hpp"
#include "stm/tl2.hpp"

namespace pathcas::stm {

class Elastic {
 public:
  static constexpr std::size_t kStripeCountLog2 = 16;
  static constexpr std::size_t kStripeCount = 1u << kStripeCountLog2;
  static constexpr int kWindow = 2;

  class Tx {
   public:
    template <typename T>
    T read(const tmword<T>& w) {
      auto* addr = const_cast<std::atomic<std::uint64_t>*>(&w.raw());
      if (const std::uint64_t* v = writeSet_.find(addr))
        return tmword<T>::unpack(*v);
      auto& stripe = tm_->stripeFor(addr);
      const std::uint64_t l1 = stripe.load(std::memory_order_acquire);
      const std::uint64_t v = addr->load(std::memory_order_acquire);
      const std::uint64_t l2 = stripe.load(std::memory_order_acquire);
      if (l1 != l2 || (l1 & 1)) throw AbortTx{};
      if (elastic_) {
        // Cut point: reads newer than rv_ slide the view forward instead of
        // aborting, and only the window entries must be mutually unchanged
        // (the sub-transaction is atomic). The read is still recorded below:
        // should the transaction turn out to be an update, commit re-validates
        // the whole set — the elastic relaxation is only trusted for
        // read-only transactions (hand-over-hand searches), where pairwise
        // consistency of consecutive reads is what linearizability needs.
        if ((l1 >> 1) > rv_) rv_ = tm_->clock_.load(std::memory_order_acquire);
        window_[windowPos_ % kWindow] = {&stripe, l1};
        ++windowPos_;
        for (int i = 0; i < kWindow && i < windowPos_; ++i) {
          const auto& e = window_[i];
          if (e.stripe != nullptr &&
              e.stripe->load(std::memory_order_acquire) != e.word) {
            throw AbortTx{};
          }
        }
      } else {
        if ((l1 >> 1) > rv_) throw AbortTx{};
      }
      readStripes_.push_back({&stripe, l1});
      return tmword<T>::unpack(v);
    }

    template <typename T>
    void write(tmword<T>& w, std::type_identity_t<T> v) {
      // Harden: from here on this is a TL2-style update transaction. The
      // elastic-phase reads are already in readStripes_ and will be
      // re-validated wholesale at commit.
      elastic_ = false;
      writeSet_.put(&w.raw(), tmword<T>::pack(v));
    }

    void abort() { throw AbortTx{}; }

    void begin(Elastic& tm) {
      tm_ = &tm;
      readStripes_.clear();
      writeSet_.clear();
      owned_.clear();
      elastic_ = elasticRequested_;
      windowPos_ = 0;
      window_.fill({nullptr, 0});
      rv_ = tm.clock_.load(std::memory_order_acquire);
    }

    void commit(Elastic& tm) {
      if (writeSet_.empty()) {
        ++tm.stats_[ThreadRegistry::tid()]->commits;
        return;
      }
      for (auto& e : writeSet_) {
        auto& stripe = tm.stripeFor(e.addr);
        if (isOwned(&stripe)) continue;
        std::uint64_t l = stripe.load(std::memory_order_acquire);
        if ((l & 1) ||
            !stripe.compare_exchange_strong(l, l | 1,
                                            std::memory_order_acq_rel)) {
          releaseOwned();
          throw AbortTx{};
        }
        owned_.push_back({&stripe, l});
      }
      const std::uint64_t wv =
          tm.clock_.fetch_add(1, std::memory_order_acq_rel) + 1;
      for (const auto& e : readStripes_) {
        // For stripes we locked ourselves, compare against the pre-lock word:
        // skipping owned stripes outright would hide a concurrent commit that
        // slipped in between our read and our lock acquisition.
        std::uint64_t cur = e.stripe->load(std::memory_order_acquire);
        for (const auto& o : owned_) {
          if (o.stripe == e.stripe) {
            cur = o.preLockWord;
            break;
          }
        }
        if (cur != e.word) {
          releaseOwned();
          throw AbortTx{};
        }
      }
      writeSet_.apply();
      for (auto& o : owned_)
        o.stripe->store(wv << 1, std::memory_order_release);
      owned_.clear();
      ++tm.stats_[ThreadRegistry::tid()]->commits;
    }

    void rollback(Elastic& tm) {
      releaseOwned();
      ++tm.stats_[ThreadRegistry::tid()]->aborts;
    }

   private:
    struct StripeRead {
      std::atomic<std::uint64_t>* stripe;
      std::uint64_t word;  // stripe word observed at read time
    };
    struct Owned {
      std::atomic<std::uint64_t>* stripe;
      std::uint64_t preLockWord;
    };
    bool isOwned(const std::atomic<std::uint64_t>* stripe) const {
      for (const auto& o : owned_)
        if (o.stripe == stripe) return true;
      return false;
    }
    void releaseOwned() {
      for (auto& o : owned_)
        o.stripe->store(o.preLockWord, std::memory_order_release);
      owned_.clear();
    }

    friend class Elastic;
    Elastic* tm_ = nullptr;
    std::uint64_t rv_ = 0;
    bool elasticRequested_ = false;  // set per atomically*() call
    bool elastic_ = false;
    int windowPos_ = 0;
    std::array<StripeRead, kWindow> window_{};
    std::vector<StripeRead> readStripes_;
    WriteSet writeSet_;
    std::vector<Owned> owned_;
  };

  /// An ordinary transaction: a consistent snapshot, read-only or not.
  template <typename Body>
  auto atomically(Body&& body) {
    myTx().elasticRequested_ = false;
    return atomicallyImpl(*this, std::forward<Body>(body));
  }

  /// An elastic transaction: until its first write, only each kWindow
  /// consecutive reads are kept mutually consistent — enough for a
  /// hand-over-hand search, not for a multi-location snapshot.
  template <typename Body>
  auto atomicallyElastic(Body&& body) {
    myTx().elasticRequested_ = true;
    return atomicallyImpl(*this, std::forward<Body>(body));
  }

  Tx& myTx() { return txs_[ThreadRegistry::tid()].value; }

  TmStats totalStats() const {
    TmStats total;
    for (const auto& s : stats_) {
      total.commits += s->commits;
      total.aborts += s->aborts;
    }
    return total;
  }

  static constexpr const char* name() { return "elastic"; }

 private:
  friend class Tx;
  std::atomic<std::uint64_t>& stripeFor(const void* addr) {
    const auto bits = reinterpret_cast<std::uintptr_t>(addr);
    const std::size_t idx =
        (bits >> 4) * 0x9e3779b97f4a7c15ULL >> (64 - kStripeCountLog2);
    return stripes_[idx];
  }

  alignas(kNoFalseSharing) std::atomic<std::uint64_t> clock_{0};
  std::vector<std::atomic<std::uint64_t>> stripes_ =
      std::vector<std::atomic<std::uint64_t>>(kStripeCount);
  Padded<Tx> txs_[kMaxThreads];
  Padded<TmStats> stats_[kMaxThreads];
};

}  // namespace pathcas::stm
