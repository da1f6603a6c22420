// Scoped KCAS-domain selection: which KcasDomain instance the free-function
// PathCAS API (pathcas::start/add/visit/...) and casword<T>::load() operate
// on for the calling thread.
//
// Historically every call site hard-wired DefaultDomain::instance(), i.e. one
// process-global domain. The sharded service layer (src/service/) gives each
// shard its OWN domain — descriptor tables, staging, DCSS descriptors — so
// that shards never contend on each other's descriptor cache lines and a
// (tid, seq) descriptor reference is only ever resolved against the domain
// that produced it. The selection is thread-local and RAII-scoped:
//
//   k::ScopedDomain scope(shard.kcas());   // enter the shard's domain
//   tree.insert(k, v);                     // all PathCAS calls inside use it
//   // scope exit restores the previous selection (nesting-safe)
//
// With no scope active, currentDomain() falls back to the process-wide
// DefaultDomain::instance(), so all pre-existing single-domain code is
// unchanged in behaviour. A lookup costs a TLS load, a branch and
// instance()'s static-guard test, so the per-node paths skip it:
// casword<T>::load() and visit() resolve the domain only when the word they
// load holds a descriptor (to help it), and visit() appends to the staging
// area the thread's last start() chose (KcasDomain::addPath).
//
// Correctness rule (see docs/ARCHITECTURE.md, "Sharded service layer"): a
// given structure instance must ALWAYS be operated under the same domain —
// helpers resolve descriptor references against the current domain's tables,
// so mixing domains on one structure would hand a helper another operation's
// descriptor. The sharded map enforces this by construction (every call on a
// shard's tree is wrapped in that shard's ScopedDomain).
#pragma once

#include "kcas/kcas.hpp"

namespace pathcas::k {

namespace detail {
/// The calling thread's active domain; nullptr = the process default.
/// Written only by ScopedDomain.
inline thread_local DefaultDomain* tlsCurrentDomain = nullptr;
}  // namespace detail

/// Domain the calling thread's PathCAS operations currently target.
inline DefaultDomain& currentDomain() {
  DefaultDomain* d = detail::tlsCurrentDomain;
  if (PATHCAS_UNLIKELY(d != nullptr)) return *d;
  return DefaultDomain::instance();
}

/// RAII selection of `domain` as the calling thread's current domain.
/// Nestable (restores the previous selection on destruction); must not
/// straddle a suspension point that migrates threads (plain TLS).
class ScopedDomain {
 public:
  explicit ScopedDomain(DefaultDomain& domain)
      : prev_(detail::tlsCurrentDomain) {
    detail::tlsCurrentDomain = &domain;
  }
  ~ScopedDomain() { detail::tlsCurrentDomain = prev_; }
  ScopedDomain(const ScopedDomain&) = delete;
  ScopedDomain& operator=(const ScopedDomain&) = delete;

 private:
  DefaultDomain* prev_;
};

}  // namespace pathcas::k
