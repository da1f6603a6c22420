// Lock-free *internal* binary search tree built with PathCAS (§4 of the
// paper, Algorithms 3-6), including the §4.1 validation-reduction
// optimizations (toggleable for the ablation benchmark).
//
// The reads, scans, per-op insert and erase (Algorithms 4 and 6) and the
// batch engine (insertBatch, eraseBatch, updateBatch) live in
// trees/internal_tree_core.hpp (shared with the AVL tree; it also describes
// the sentinels and linearizability). This header keeps the node type, the
// in-batch two-child swap and the composite staging hooks; the core's hooks
// record and do nothing here.
#pragma once

#include <cstdint>

#include "pathcas/pathcas.hpp"
#include "recl/ebr.hpp"
#include "recl/pool.hpp"
#include "trees/internal_tree_core.hpp"
#include "util/defs.hpp"

namespace pathcas::ds {

template <typename K, typename V>
struct IntBstNode {
  // Search-hot words first: a search reads ver, key and kids.
  casword<Version> ver;
  casword<K> key;
  casword<Kids> kids;  // both children, as slot indices in the tree's pool
  casword<V> val;

  IntBstNode(K k, V v) {
    key.setInitial(k);
    val.setInitial(v);
  }
};

static_assert(sizeof(IntBstNode<std::int64_t, std::int64_t>) == 32);
static_assert(searchHotFirst<IntBstNode<std::int64_t, std::int64_t>>());

template <typename K = std::int64_t, typename V = std::int64_t>
class IntBstPathCas
    : public InternalTreeCore<IntBstPathCas<K, V>, IntBstNode<K, V>, K, V> {
  using Core = InternalTreeCore<IntBstPathCas<K, V>, IntBstNode<K, V>, K, V>;
  friend Core;

 public:
  using Node = IntBstNode<K, V>;
  using Core::Core;
  using Core::kNegInf;
  using Core::kPosInf;

  // ------------------------------------------------------------------
  // Composite staging hooks (structs/multi_index_map.hpp). These stage one
  // logical tree op — search included — into the CALLING thread's current
  // PathCAS op without committing it, so a composite structure can combine
  // staged ops from SEVERAL trees sharing one KCAS domain into a single
  // atomic commit. Contract: the caller ran start(), every tree involved
  // was constructed on the same DomainSet, the calling thread holds a
  // k::ScopedDomain on it and an EBR pin, and the caller finishes with
  // vexec() (or abandons the op by calling start() again).
  // ------------------------------------------------------------------

  enum class Staged {
    kStaged,  // entries staged; on commit the caller owns the follow-up
              // (retireStaged for erases)
    kNoop,    // op has no effect (insert: key present; erase: key absent) —
              // the per-op witness rules apply (see callers)
    kRetry,   // torn/marked neighborhood: re-traverse the whole composite
  };

  /// Stage insertIfAbsent(key, val). On kStaged the new node is `spare`
  /// (allocated here on first use; carried across the caller's retries;
  /// consumed by a successful commit — set it to nullptr then — or released
  /// via discardSpare).
  Staged stageInsert(K key, V val, Node*& spare) {
    PATHCAS_DCHECK(key > kNegInf && key < kPosInf);
    const SearchResult s = search(key);
    if (s.found) return Staged::kNoop;
    if (isMarked(s.parentVer)) return Staged::kRetry;
    if (spare == nullptr) {
      spare = pool_.alloc(key, val);
    } else {
      spare->key.setInitial(key);  // unpublished: reinitialization is safe
      spare->val.setInitial(val);
    }
    const K parentKey = s.parent->key;
    add(s.parent->kids, s.parentKids,
        relink(s.parentKids, key > parentKey, spare));
    addVer(s.parent->ver, s.parentVer, verBump(s.parentVer));
    return Staged::kStaged;
  }

  /// Stage erase(key); mirrors erase()'s three shapes (leaf, one-child,
  /// two-child successor swap). On kStaged, *victim is the node to pass to
  /// retireStaged() once the composite commit succeeds, and *erasedVal the
  /// value removed (read under the staged pins).
  Staged stageErase(K key, Node** victim, V* erasedVal) {
    PATHCAS_DCHECK(key > kNegInf && key < kPosInf);
    const SearchResult s = search(key);
    if (!s.found) return Staged::kNoop;
    if (isMarked(s.currVer) || isMarked(s.parentVer)) return Staged::kRetry;
    Node* const curr = s.curr;
    Node* const parent = s.parent;
    const Kids currKids = curr->kids.load();
    Node* const currLeft = childOf(currKids, false);
    Node* const currRight = childOf(currKids, true);
    const V currVal = curr->val;
    if (erasedVal != nullptr) *erasedVal = currVal;
    if (currLeft == nullptr || currRight == nullptr) {
      Node* const childToKeep = (currLeft == nullptr) ? currRight : currLeft;
      add(parent->kids, s.parentKids,
          relink(s.parentKids, isRightChild(s.parentKids, curr), childToKeep));
      addVer(parent->ver, s.parentVer, verBump(s.parentVer));
      addVer(curr->ver, s.currVer, verMark(s.currVer));
      *victim = curr;
      return Staged::kStaged;
    }
    NoChain<Node> none;
    const Successor su = getSuccessor(curr, s.currVer, currKids, none);
    if (su.succ == nullptr || isMarked(su.succVer) || isMarked(su.succPVer))
      return Staged::kRetry;
    Node* const succR = childOf(su.succKids, true);
    if (succR != nullptr) {
      const Version succRVer = visit(succR);
      if (isMarked(succRVer)) return Staged::kRetry;
    }
    add(su.succP->kids, su.succPKids,
        relink(su.succPKids, isRightChild(su.succPKids, su.succ), succR));
    const V succVal = su.succ->val;
    add(curr->val, currVal, succVal);
    add(curr->key, key, su.succ->key.load());
    addVer(su.succ->ver, su.succVer, verMark(su.succVer));
    addVer(su.succP->ver, su.succPVer, verBump(su.succPVer));
    if (su.succP != curr) addVer(curr->ver, s.currVer, verBump(s.currVer));
    *victim = su.succ;
    return Staged::kStaged;
  }

  /// Validated-by-the-caller read: search within the current staged op. The
  /// whole search path lands in the visited set, so a composite caller can
  /// validateVisited() across several trees' searches at once — an atomic
  /// cross-structure snapshot (MultiIndexMap::getChecked).
  bool stageFind(K key, V* out) {
    PATHCAS_DCHECK(key > kNegInf && key < kPosInf);
    const SearchResult s = search(key);
    if (!s.found) return false;
    if (out != nullptr) *out = s.curr->val;
    return true;
  }

  /// The erase follow-up, after the composite commit succeeded.
  void retireStaged(Node* victim) { ebr_.retire(victim, pool_); }
  /// Release an unconsumed insert spare (never published: direct recycle).
  void discardSpare(Node* spare) {
    if (spare != nullptr) pool_.destroy(spare);
  }

  static constexpr const char* name() { return "int-bst-pathcas"; }

 private:
  using typename Core::BatchScratch, typename Core::SearchResult,
      typename Core::StageStatus, typename Core::Successor;
  using Core::childOf, Core::ebr_, Core::getSuccessor, Core::isRightChild,
      Core::pool_, Core::prefetchKids, Core::relink, Core::search,
      Core::stageBudgetLeft;

  // Core hooks: nothing to record or repair.
  using Chain = NoChain<Node>;
  void afterCommit(Chain&) {}
  static void adopt(Node*, Node*, Node*) {}

  /// Stage a two-child removal in-batch: the per-op successor swap (erase(),
  /// Algorithm 6), entry for entry. The core calls this from its singleton
  /// descent only, where the successor — the leftmost node of node's right
  /// subtree — lies strictly inside this partition's private subtree, so
  /// none of its words can already be staged by another partition. The
  /// partition walk still defers its two-child matches to per-op erase():
  /// there a sibling key may have staged a slot on the successor path.
  StageStatus stageEraseTwoChild(Node* node, Version nodeVer, Kids nodeKids,
                                 std::size_t i, BatchScratch& sc) {
    const K key = sc.keys[i];
    k::DefaultDomain& dom = *sc.dom;
    Node* succP = node;
    Version succPVer = nodeVer;
    Kids succPKids = nodeKids;
    if (!stageBudgetLeft(dom)) return StageStatus::kOverflow;
    Node* succ = childOf(nodeKids, true);
    Version succVer = visit(succ);
    Kids succKids;
    for (;;) {
      if (isMarked(succVer)) return StageStatus::kRetry;
      succKids = succ->kids.load();
      Node* const nl = childOf(succKids, false);
      if (nl == nullptr) break;
      if (!stageBudgetLeft(dom)) return StageStatus::kOverflow;
      prefetchKids(nl);
      succP = succ;
      succPVer = succVer;
      succPKids = succKids;
      succVer = visit(nl);
      succ = nl;
    }
    Node* const succR = childOf(succKids, true);
    if (succR != nullptr) {
      if (!stageBudgetLeft(dom)) return StageStatus::kOverflow;
      const Version succRVer = visit(succR);
      if (isMarked(succRVer)) return StageStatus::kRetry;
    }
    if (!stageBudgetLeft(dom, 6)) return StageStatus::kOverflow;
    add(succP->kids, succPKids, relink(succPKids, succP == node, succR));
    const V currVal = node->val;
    const V succVal = succ->val;
    add(node->val, currVal, succVal);
    add(node->key, key, succ->key.load());
    addVer(succ->ver, succVer, verMark(succVer));
    addVer(succP->ver, succPVer, verBump(succPVer));
    if (succP != node) addVer(node->ver, nodeVer, verBump(nodeVer));
    sc.unlink.push_back(succ);
    sc.staged.push_back(i);
    return StageStatus::kOk;
  }
};

}  // namespace pathcas::ds
