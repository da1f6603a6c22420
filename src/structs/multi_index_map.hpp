// Multi-index map — the second cross-structure PathCAS composite: a primary
// ordered index (key → value) and a unique secondary index (value → key),
// each an IntBstPathCas, kept ATOMICALLY consistent. This is the
// examples/session_index.cpp seed promoted to a real structure: where the
// example re-ran two independent tree ops and could observe (and had to
// paper over) windows where the indexes disagreed, here every update stages
// both trees' entries into ONE KCAS — there is no reachable state, not even
// a transient one, in which (k, v) is in the primary but (v, k) missing from
// the secondary, or vice versa.
//
// Mechanics: both trees are built on ONE owned recl::DomainSet, so their
// staged entries and visited paths land in the same KCAS descriptor. The
// tree-level staging hooks (IntBstPathCas::stageInsert/stageErase/stageFind)
// each perform a full search + stage without committing; insert()/erase()
// below chain two of them and vexec() once. The commit's validation covers
// BOTH search paths, and a successful commit is the single linearization
// point of the composite update. A two-child erase on either side stages
// the successor-swap entry set, so a composite erase can reach ~10 entries
// across ~2× tree-depth visited nodes — MCMS-width descriptors on the
// cold staging path, like the LRU cache's eviction.
//
// Secondary uniqueness: insert(k, v) fails if k is taken OR v is taken
// (the secondary is a bijection's inverse, and tests rely on it). There is
// deliberately no in-place "update value" op: it would erase + insert in
// the secondary within one staged op and can collide on staged addresses
// (an op the KCAS refuses); erase-then-insert is the supported idiom.
//
// getChecked() is the composite's checked read: one op visits the primary
// search path for k and the secondary path for the found v, then
// validateVisited() proves the two reads formed an atomic cross-structure
// snapshot — the scanner in tests/test_multi_index_map.cpp drives it
// mid-churn and asserts the indexes NEVER observably diverge.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "kcas/domain.hpp"
#include "pathcas/pathcas.hpp"
#include "recl/domain_set.hpp"
#include "trees/int_bst_pathcas.hpp"
#include "util/defs.hpp"

namespace pathcas::ds {

template <typename K = std::int64_t, typename V = std::int64_t>
class MultiIndexMap {
 public:
  using KeyType = K;
  using ValueType = V;
  using OptionsType = IntBstOptions;
  using Primary = IntBstPathCas<K, V>;
  using Secondary = IntBstPathCas<V, K>;
  using PNode = typename Primary::Node;
  using SNode = typename Secondary::Node;

  explicit MultiIndexMap(IntBstOptions options = {})
      : primary_(std::make_unique<Primary>(options, set_.ebr(),
                                           &set_.pool<PNode>())),
        secondary_(std::make_unique<Secondary>(options, set_.ebr(),
                                               &set_.pool<SNode>())) {}

  MultiIndexMap(const MultiIndexMap&) = delete;
  MultiIndexMap& operator=(const MultiIndexMap&) = delete;

  ~MultiIndexMap() {
    // Built-in zero-leak check: destroy both trees (their destructors
    // recycle every reachable node), drain limbo, then the owned DomainSet
    // must account for every allocation.
    primary_.reset();
    secondary_.reset();
    set_.drain();
    PATHCAS_CHECK(set_.liveNodes() == 0);
  }

  /// Insert (k, v) iff k is absent from the primary AND v is absent from
  /// the secondary; both links commit in one KCAS.
  bool insert(K key, V val) {
    k::ScopedDomain scope(set_.kcas());
    auto guard = set_.ebr().pin();
    PNode* pSpare = nullptr;
    SNode* sSpare = nullptr;
    bool inserted = false;
    for (;;) {
      start();
      const auto ps = primary_->stageInsert(key, val, pSpare);
      if (ps == Primary::Staged::kRetry) continue;
      if (ps == Primary::Staged::kNoop) break;  // key present (§4.1 witness)
      const auto ss = secondary_->stageInsert(val, key, sSpare);
      if (ss == Secondary::Staged::kRetry) continue;
      if (ss == Secondary::Staged::kNoop) break;  // value taken (§4.1)
      if (vexec()) {
        pSpare = nullptr;  // consumed by the commit
        sSpare = nullptr;
        inserted = true;
        break;
      }
    }
    primary_->discardSpare(pSpare);
    secondary_->discardSpare(sSpare);
    return inserted;
  }

  /// Erase by key: both unlinks in one KCAS. The composite invariant
  /// guarantees the secondary holds (v, k) whenever the primary holds
  /// (k, v); a commit that validated both search paths cannot remove a
  /// mismatched pair.
  bool erase(K key) {
    k::ScopedDomain scope(set_.kcas());
    auto guard = set_.ebr().pin();
    for (;;) {
      start();
      PNode* pVictim = nullptr;
      V val{};
      const auto ps = primary_->stageErase(key, &pVictim, &val);
      if (ps == Primary::Staged::kRetry) continue;
      if (ps == Primary::Staged::kNoop) {
        if (validate()) return false;  // absence needs a witness
        continue;
      }
      SNode* sVictim = nullptr;
      K back{};
      const auto ss = secondary_->stageErase(val, &sVictim, &back);
      if (ss == Secondary::Staged::kRetry) continue;
      if (ss == Secondary::Staged::kNoop) continue;  // torn read: re-traverse
      if (vexec()) {
        PATHCAS_DCHECK(back == key);
        primary_->retireStaged(pVictim);
        secondary_->retireStaged(sVictim);
        return true;
      }
    }
  }

  /// Erase by secondary lookup: remove the pair whose value is `val`.
  bool eraseByValue(V val) {
    k::ScopedDomain scope(set_.kcas());
    auto guard = set_.ebr().pin();
    for (;;) {
      start();
      SNode* sVictim = nullptr;
      K key{};
      const auto ss = secondary_->stageErase(val, &sVictim, &key);
      if (ss == Secondary::Staged::kRetry) continue;
      if (ss == Secondary::Staged::kNoop) {
        if (validate()) return false;
        continue;
      }
      PNode* pVictim = nullptr;
      V back{};
      const auto ps = primary_->stageErase(key, &pVictim, &back);
      if (ps == Primary::Staged::kRetry) continue;
      if (ps == Primary::Staged::kNoop) continue;  // torn read: re-traverse
      if (vexec()) {
        PATHCAS_DCHECK(back == val);
        primary_->retireStaged(pVictim);
        secondary_->retireStaged(sVictim);
        return true;
      }
    }
  }

  bool contains(K key) {
    k::ScopedDomain scope(set_.kcas());
    return primary_->contains(key);
  }
  std::optional<V> get(K key) {
    k::ScopedDomain scope(set_.kcas());
    return primary_->get(key);
  }
  /// Reverse lookup through the secondary index.
  std::optional<K> getByValue(V val) {
    k::ScopedDomain scope(set_.kcas());
    return secondary_->get(val);
  }

  /// The checked cross-structure read: one atomic snapshot of BOTH search
  /// paths (validateVisited over the combined visited set). Returns the
  /// value for `key` (nullopt if absent) and ABORTS (PATHCAS_CHECK) if the
  /// snapshot catches the secondary disagreeing with the primary — which
  /// the one-KCAS updates make impossible; the scanner test runs this
  /// mid-churn precisely to prove that.
  std::optional<V> getChecked(K key) {
    k::ScopedDomain scope(set_.kcas());
    auto guard = set_.ebr().pin();
    for (;;) {
      start();
      V val{};
      const bool inPrimary = primary_->stageFind(key, &val);
      K back{};
      bool agree = true;
      if (inPrimary) {
        const bool inSecondary = secondary_->stageFind(val, &back);
        agree = inSecondary && back == key;
      }
      if (!validateVisited()) continue;
      if (!inPrimary) return std::nullopt;
      PATHCAS_CHECK(agree);  // composite invariant, observably
      return val;
    }
  }

  /// Linearizable range query over the primary index.
  std::size_t rangeQuery(K lo, K hi, std::vector<std::pair<K, V>>& out) {
    k::ScopedDomain scope(set_.kcas());
    return primary_->rangeQuery(lo, hi, out);
  }
  /// Linearizable range query over the secondary index ((value, key) pairs).
  std::size_t rangeQueryByValue(V lo, V hi,
                                std::vector<std::pair<V, K>>& out) {
    k::ScopedDomain scope(set_.kcas());
    return secondary_->rangeQuery(lo, hi, out);
  }

  // --- quiescent-state inspection ---
  std::uint64_t size() const { return primary_->size(); }
  std::int64_t keySum() const { return primary_->keySum(); }

  /// Both trees' structural invariants plus the cross-index bijection:
  /// identical pair sets, mirrored. Quiescent-only; aborts on violation.
  TreeStats checkInvariants() const {
    const TreeStats p = primary_->checkInvariants();
    const TreeStats st = secondary_->checkInvariants();
    PATHCAS_CHECK(p.size == st.size);
    std::vector<std::pair<K, V>> fromPrimary;
    primary_->forEach([&](K k, V v) { fromPrimary.emplace_back(k, v); });
    std::vector<std::pair<K, V>> fromSecondary;
    secondary_->forEach([&](V v, K k) { fromSecondary.emplace_back(k, v); });
    std::sort(fromSecondary.begin(), fromSecondary.end());
    PATHCAS_CHECK(fromPrimary == fromSecondary);  // primary walk is sorted
    return p;
  }

  std::uint64_t footprintBytes() const { return set_.footprintBytes(); }
  std::uint64_t liveNodes() const { return set_.liveNodes(); }
  /// Recycle limbo (requires quiescence) — the zero-leak teardown hook.
  void drain() { set_.drain(); }

  static constexpr const char* name() { return "multi-index-map"; }

 private:
  // set_ first: destroyed last, after both trees recycled their nodes.
  recl::DomainSet set_;
  std::unique_ptr<Primary> primary_;
  std::unique_ptr<Secondary> secondary_;
};

}  // namespace pathcas::ds
