// Shared infrastructure for the software-transactional-memory baselines
// (Fig. 4's "Transactional Memory Algorithms"): transactional word type,
// abort signalling, read/write-set containers, and per-TM statistics.
//
// These TMs exist to reproduce the paper's comparisons; they are compiled
// into the data structures (templates), mirroring the paper's force-inlined
// setup ("we compiled each TM in the same compilation unit as the data
// structure").
//
// Usage requirements (all TMs in this directory):
//  * Each TM instance keeps per-thread Tx slots indexed by
//    ThreadRegistry::tid() — callers register lazily on first use and at
//    most kMaxThreads (256) threads may participate; worker threads should
//    hold a ThreadGuard so ids recycle.
//  * The TM object must outlive every transaction run against it and every
//    node whose reclamation it mediates; a thread runs one transaction at a
//    time (no nesting).
//  * tmwords read/written inside a transaction are owned by the enclosing
//    data structure, which must defer node frees past concurrent readers
//    (the TM trees retire via recl::EbrDomain).
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/backoff.hpp"
#include "util/defs.hpp"
#include "util/padding.hpp"
#include "util/thread_registry.hpp"

namespace pathcas::stm {

/// Thrown (internally) to roll back a transaction; atomically() retries.
struct AbortTx {};

/// Transactional word: full 64-bit payload (no descriptor tags needed — TMs
/// here use external metadata: a global seqlock or an ownership-record
/// table).
template <typename T>
class tmword {
  static_assert(std::is_pointer_v<T> || std::is_integral_v<T> ||
                std::is_enum_v<T>);

 public:
  tmword() : raw_(pack(T{})) {}
  explicit tmword(T v) : raw_(pack(v)) {}
  tmword(const tmword&) = delete;
  tmword& operator=(const tmword&) = delete;

  static std::uint64_t pack(T v) {
    if constexpr (std::is_pointer_v<T>) {
      return reinterpret_cast<std::uintptr_t>(v);
    } else {
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    }
  }
  static T unpack(std::uint64_t raw) {
    if constexpr (std::is_pointer_v<T>) {
      return reinterpret_cast<T>(static_cast<std::uintptr_t>(raw));
    } else {
      return static_cast<T>(static_cast<std::int64_t>(raw));
    }
  }

  /// Non-transactional initializing store (unpublished nodes only).
  void setInitial(T v) { raw_.store(pack(v), std::memory_order_release); }

  std::atomic<std::uint64_t>& raw() { return raw_; }
  const std::atomic<std::uint64_t>& raw() const { return raw_; }

 private:
  std::atomic<std::uint64_t> raw_;
};

struct ReadEntry {
  const std::atomic<std::uint64_t>* addr;
  std::uint64_t value;  // NOrec: value observed; TL2: unused
};

struct WriteEntry {
  std::atomic<std::uint64_t>* addr;
  std::uint64_t value;
};

/// Linear-scan write set: tree transactions write O(10) locations, so a
/// vector beats a hash table (one of the overheads the paper calls out).
class WriteSet {
 public:
  std::uint64_t* find(const std::atomic<std::uint64_t>* addr) {
    for (auto& e : entries_) {
      if (e.addr == addr) return &e.value;
    }
    return nullptr;
  }
  void put(std::atomic<std::uint64_t>* addr, std::uint64_t v) {
    if (std::uint64_t* existing = find(addr)) {
      *existing = v;
      return;
    }
    entries_.push_back({addr, v});
  }
  void apply() {
    for (auto& e : entries_) e.addr->store(e.value, std::memory_order_release);
  }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }
  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }

 private:
  std::vector<WriteEntry> entries_;
};

struct TmStats {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
};

/// Retry loop shared by every TM: begin / run body / commit, retrying on
/// AbortTx with bounded exponential backoff.
template <typename Tm, typename Body>
auto atomicallyImpl(Tm& tm, Body&& body) {
  auto& tx = tm.myTx();
  Backoff backoff(4, 4096);
  for (;;) {
    tx.begin(tm);
    try {
      if constexpr (std::is_void_v<decltype(body(tx))>) {
        body(tx);
        tx.commit(tm);
        return;
      } else {
        auto result = body(tx);
        tx.commit(tm);
        return result;
      }
    } catch (const AbortTx&) {
      tx.rollback(tm);
      backoff.pause();
    }
  }
}

/// Runs `body` as an elastic transaction on a TM that offers one
/// (Elastic::atomicallyElastic) and as an ordinary transaction on the rest.
/// The TM trees run every operation through it: their searches only need
/// consecutive reads to be consistent, and an update hardens into an
/// ordinary transaction at its first write.
template <typename Tm, typename Body>
auto elasticAtomically(Tm& tm, Body&& body) {
  if constexpr (requires { tm.atomicallyElastic(body); }) {
    return tm.atomicallyElastic(std::forward<Body>(body));
  } else {
    return tm.atomically(std::forward<Body>(body));
  }
}

}  // namespace pathcas::stm
