// Lock-free *internal* binary search tree built with PathCAS (§4 of the
// paper, Algorithms 3-6), including the §4.1 validation-reduction
// optimizations (toggleable for the ablation benchmark).
//
// The reads, scans, per-op insert and insertBatch/eraseBatch live in
// trees/internal_tree_core.hpp (shared with the AVL tree; it also describes
// the sentinels and linearizability). This header keeps the node type,
// erase(), the erase shapes a batch may stage, updateBatch and the
// composite staging hooks; both core hooks are empty here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pathcas/pathcas.hpp"
#include "recl/ebr.hpp"
#include "recl/pool.hpp"
#include "trees/internal_tree_core.hpp"
#include "util/defs.hpp"

namespace pathcas::ds {

template <typename K, typename V>
struct IntBstNode {
  casword<Version> ver;
  casword<K> key;
  casword<V> val;
  casword<IntBstNode*> left;
  casword<IntBstNode*> right;

  IntBstNode(K k, V v) {
    key.setInitial(k);
    val.setInitial(v);
  }
};

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

  /// delete(key) (Algorithm 6). Returns false iff key was absent.
  bool erase(K key) {
    PATHCAS_DCHECK(key > kNegInf && key < kPosInf);
    auto guard = ebr_.pin();
    for (;;) {
      start();
      const SearchResult s = search(key);
      if (!s.found) {
        if (validate()) return false;
        continue;
      }
      if (isMarked(s.currVer) || isMarked(s.parentVer)) continue;
      Node* curr = s.curr;
      Node* parent = s.parent;
      Node* const currLeft = curr->left;
      Node* const currRight = curr->right;

      if (currLeft == nullptr || currRight == nullptr) {
        // Leaf or one-child deletion: splice the child (null for a leaf)
        // into curr's place, and mark curr.
        Node* childToKeep = (currLeft == nullptr) ? currRight : currLeft;
        auto& ptrToChange =
            (curr == parent->left.load()) ? parent->left : parent->right;
        add(ptrToChange, curr, childToKeep);
        addVer(parent->ver, s.parentVer, verBump(s.parentVer));
        addVer(curr->ver, s.currVer, verMark(s.currVer));
        if (execOrVex()) {
          ebr_.retire(curr, pool_);
          return true;
        }
      } else {
        // Two-child deletion: replace curr's key/value with its successor's,
        // then unlink the successor (which has no left child).
        const Successor su = getSuccessor(curr, s.currVer);
        if (su.succ == nullptr || isMarked(su.succVer) ||
            isMarked(su.succPVer)) {
          continue;
        }
        Node* const succR = su.succ->right;
        if (succR != nullptr) {
          const Version succRVer = visit(succR);
          if (isMarked(succRVer)) continue;
        }
        auto& ptrToChange = (su.succP->right.load() == su.succ)
                                ? su.succP->right
                                : su.succP->left;
        add(ptrToChange, su.succ, succR);
        const V currVal = curr->val;
        const V succVal = su.succ->val;
        add(curr->val, currVal, succVal);
        add(curr->key, key, su.succ->key.load());
        addVer(su.succ->ver, su.succVer, verMark(su.succVer));
        addVer(su.succP->ver, su.succPVer, verBump(su.succPVer));
        if (su.succP != curr)
          addVer(curr->ver, s.currVer, verBump(s.currVer));
        if (vex()) {
          ebr_.retire(su.succ, pool_);
          return true;
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // Batched updates (group commit): insertBatch and eraseBatch come from
  // the core; updateBatch is the BST's own.
  // ------------------------------------------------------------------

  /// Mixed update over a strictly-ascending key run: op i inserts
  /// (isInsert[i]) or erases keys[i]. One shared traversal stages the whole
  /// chunk — both op kinds — into a single wide KCAS, so a netted
  /// group-commit window pays one descent and one descriptor instead of an
  /// erase pass plus an insert pass. outcomes[i] is set true iff op i took
  /// effect (key inserted / removed); returns the number of effective ops.
  std::size_t updateBatch(const K* keys, const V* vals, const bool* isInsert,
                          std::size_t n, bool* outcomes) {
    checkBatchKeys(keys, n);
    for (std::size_t i = 0; i < n; ++i) outcomes[i] = false;
    const std::size_t chunk = batchChunkWidth();
    std::size_t applied = 0;
    for (std::size_t i = 0; i < n; i += chunk)
      applied += updateRun(keys + i, vals + i, isInsert + i,
                           std::min(chunk, n - i), outcomes + i);
    return applied;
  }

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
    auto& ptrToChange = (key < parentKey) ? s.parent->left : s.parent->right;
    add(ptrToChange, static_cast<Node*>(nullptr), spare);
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
    Node* const currLeft = curr->left;
    Node* const currRight = curr->right;
    const V currVal = curr->val;
    if (erasedVal != nullptr) *erasedVal = currVal;
    if (currLeft == nullptr || currRight == nullptr) {
      Node* const childToKeep = (currLeft == nullptr) ? currRight : currLeft;
      auto& ptrToChange =
          (curr == parent->left.load()) ? parent->left : parent->right;
      add(ptrToChange, curr, childToKeep);
      addVer(parent->ver, s.parentVer, verBump(s.parentVer));
      addVer(curr->ver, s.currVer, verMark(s.currVer));
      *victim = curr;
      return Staged::kStaged;
    }
    const Successor su = getSuccessor(curr, s.currVer);
    if (su.succ == nullptr || isMarked(su.succVer) || isMarked(su.succPVer))
      return Staged::kRetry;
    Node* const succR = su.succ->right;
    if (succR != nullptr) {
      const Version succRVer = visit(succR);
      if (isMarked(succRVer)) return Staged::kRetry;
    }
    auto& ptrToChange =
        (su.succP->right.load() == su.succ) ? su.succP->right : su.succP->left;
    add(ptrToChange, su.succ, succR);
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
  using typename Core::EraseFrame, typename Core::EraseScratch,
      typename Core::SearchResult, typename Core::StagedLink,
      typename Core::StageStatus, typename Core::Successor;
  using Core::batchChunkWidth, Core::buildSubtree, Core::checkBatchKeys,
      Core::ebr_, Core::execOrVex, Core::freeSubtree, Core::getSuccessor,
      Core::kBatchRetries, Core::minRoot_, Core::pool_, Core::search,
      Core::stageBudgetLeft, Core::stageInsertOne, Core::vex;

  static void adopt(Node*, Node*, Node*, Node*) {}
  void afterCommit(Node*) {}

  // --- batched erase and mixed runs ---------------------------------

  /// Stage the removals of keys[lo..hi) under `node` (already visited at
  /// nodeVer). Bottom-up: a removed child reports its replacement and the
  /// parent stages the slot swing plus its own single version bump. A node
  /// is only removed in-batch when it is a leaf or one-child node AND none
  /// of its child slots were staged by this same batch (otherwise the swing
  /// would race the staged edit — such removals are deferred to per-op
  /// erase()). Keys partitioned into a null child are absent, witnessed by
  /// the commit's validation of the whole visited path.
  StageStatus stageEraseNode(Node* node, Version nodeVer, const K* keys,
                             std::size_t lo, std::size_t hi, EraseScratch& sc,
                             EraseFrame& fr) {
    if (isMarked(nodeVer)) return StageStatus::kRetry;
    const K nodeKey = node->key;
    const std::size_t mid = static_cast<std::size_t>(
        std::lower_bound(keys + lo, keys + hi, nodeKey) - keys);
    const bool matched = mid < hi && keys[mid] == nodeKey;
    const std::size_t rlo = matched ? mid + 1 : mid;
    // Load only the child slots this node actually needs (both for a
    // matched node — leaf test and replacement — one for a pass-through):
    // the DFS touches many pass-through nodes and a second slot load per
    // node is a second cache miss per hop.
    Node* const left = (matched || lo < mid) ? node->left.load() : nullptr;
    Node* const right = (matched || rlo < hi) ? node->right.load() : nullptr;
    bool childStaged = false;
    if (lo < mid && left != nullptr) {
      const StageStatus s = stageEraseEdge(node->left, left, keys, lo, mid,
                                           sc, childStaged);
      if (s != StageStatus::kOk) return s;
    }
    if (rlo < hi && right != nullptr) {
      const StageStatus s = stageEraseEdge(node->right, right, keys, rlo, hi,
                                           sc, childStaged);
      if (s != StageStatus::kOk) return s;
    }
    if (matched) {
      if (childStaged || (left != nullptr && right != nullptr)) {
        sc.deferredIdx.push_back(mid);
      } else {
        if (!stageBudgetLeft(*sc.dom, 2)) return StageStatus::kOverflow;
        // Leaf / one-child: mark node; the parent frame swings its slot and
        // bumps its own version. Matches the per-op entry set exactly.
        addVer(node->ver, nodeVer, verMark(nodeVer));
        fr.removed = true;
        fr.repl = (left != nullptr) ? left : right;
        sc.unlink.push_back(node);
        sc.stagedIdx.push_back(mid);
        return StageStatus::kOk;
      }
    }
    if (childStaged) {
      if (!stageBudgetLeft(*sc.dom)) return StageStatus::kOverflow;
      addVer(node->ver, nodeVer, verBump(nodeVer));
    }
    return StageStatus::kOk;
  }

  StageStatus stageEraseEdge(casword<Node*>& slot, Node* child, const K* keys,
                             std::size_t lo, std::size_t hi, EraseScratch& sc,
                             bool& childStaged) {
    if (!stageBudgetLeft(*sc.dom, 2)) return StageStatus::kOverflow;
    const Version childVer = visit(child);
    EraseFrame cf;
    const StageStatus s = (hi - lo == 1)
        ? stageEraseOne(child, childVer, keys, lo, sc, cf)
        : stageEraseNode(child, childVer, keys, lo, hi, sc, cf);
    if (s != StageStatus::kOk) return s;
    if (cf.removed) {
      add(slot, child, cf.repl);
      childStaged = true;
    }
    return StageStatus::kOk;
  }

  /// Iterative singleton descent for erase, tracking (parent, parentVer)
  /// like the per-op search. A match below the partition root stages the
  /// full per-op entry set — mark, slot swing, parent bump — directly: the
  /// parent lies inside this partition's subtree, which no other partition
  /// touches. A match AT the partition root reports through `fr` instead,
  /// because the caller's node owns that swing and may merge it with a bump
  /// for its other partition (the usual bottom-up rule). Sc is EraseScratch
  /// or MixedScratch (same field names).
  template <typename Sc>
  StageStatus stageEraseOne(Node* node, Version nodeVer, const K* keys,
                            std::size_t i, Sc& sc, EraseFrame& fr) {
    const K key = keys[i];
    k::DefaultDomain& dom = *sc.dom;
    Node* parent = nullptr;
    Version parentVer = 0;
    casword<Node*>* slot = nullptr;  // parent's slot holding `node`
    for (;;) {
      if (isMarked(nodeVer)) return StageStatus::kRetry;
      const K nodeKey = node->key;
      if (key == nodeKey) {
        Node* const left = node->left.load();
        Node* const right = node->right.load();
        if (left != nullptr && right != nullptr)
          return stageEraseTwoChild(node, nodeVer, right, key, i, sc);
        Node* const repl = left != nullptr ? left : right;
        if (parent == nullptr) {
          if (!stageBudgetLeft(dom, 2)) return StageStatus::kOverflow;
          addVer(node->ver, nodeVer, verMark(nodeVer));
          fr.removed = true;
          fr.repl = repl;
        } else {
          if (!stageBudgetLeft(dom, 3)) return StageStatus::kOverflow;
          addVer(node->ver, nodeVer, verMark(nodeVer));
          add(*slot, node, repl);
          addVer(parent->ver, parentVer, verBump(parentVer));
        }
        sc.unlink.push_back(node);
        sc.stagedIdx.push_back(i);
        return StageStatus::kOk;
      }
      casword<Node*>& next = key < nodeKey ? node->left : node->right;
      Node* const child = next.load();
      if (child == nullptr) return StageStatus::kOk;  // absent: path witness
      if (!stageBudgetLeft(dom)) return StageStatus::kOverflow;
      prefetch(child->left);
      prefetch(child->right);
      parent = node;
      parentVer = nodeVer;
      slot = &next;
      nodeVer = visit(child);
      node = child;
    }
  }

  /// Stage a two-child removal in-batch: the per-op successor swap (erase(),
  /// Algorithm 6), entry for entry. Only reachable from the singleton
  /// descent, where the successor — the leftmost node of node's right
  /// subtree — lies strictly inside this partition's private subtree, so
  /// none of its words can already be staged by another partition. The
  /// general DFS still defers its two-child matches to per-op erase(): there
  /// a sibling key may have staged a slot on the successor path.
  template <typename Sc>
  StageStatus stageEraseTwoChild(Node* node, Version nodeVer, Node* right,
                                 K key, std::size_t i, Sc& sc) {
    k::DefaultDomain& dom = *sc.dom;
    Node* succP = node;
    Version succPVer = nodeVer;
    if (!stageBudgetLeft(dom)) return StageStatus::kOverflow;
    Node* succ = right;
    Version succVer = visit(succ);
    for (;;) {
      if (isMarked(succVer)) return StageStatus::kRetry;
      Node* const nl = succ->left.load();
      if (nl == nullptr) break;
      if (!stageBudgetLeft(dom)) return StageStatus::kOverflow;
      prefetch(nl->left);
      succP = succ;
      succPVer = succVer;
      succVer = visit(nl);
      succ = nl;
    }
    Node* const succR = succ->right.load();
    if (succR != nullptr) {
      if (!stageBudgetLeft(dom)) return StageStatus::kOverflow;
      const Version succRVer = visit(succR);
      if (isMarked(succRVer)) return StageStatus::kRetry;
    }
    if (!stageBudgetLeft(dom, 6)) return StageStatus::kOverflow;
    auto& ptrToChange = (succP == node) ? node->right : succP->left;
    add(ptrToChange, succ, succR);
    const V currVal = node->val;
    const V succVal = succ->val;
    add(node->val, currVal, succVal);
    add(node->key, key, succ->key.load());
    addVer(succ->ver, succVer, verMark(succVer));
    addVer(succP->ver, succPVer, verBump(succPVer));
    if (succP != node) addVer(node->ver, nodeVer, verBump(nodeVer));
    sc.unlink.push_back(succ);
    sc.stagedIdx.push_back(i);
    return StageStatus::kOk;
  }

  /// Scratch for a mixed run: the union of InsertScratch and EraseScratch
  /// (field names match so the templated singleton helpers work on it),
  /// plus compaction buffers for all-null-slot partitions that hold both op
  /// kinds.
  struct MixedScratch {
    k::DefaultDomain* dom = nullptr;
    std::vector<Node*> built;  // unpublished subtree roots (freed on abort)
    std::vector<StagedLink> staged;  // insert ranges
    std::vector<std::size_t> insIdx;  // insert outcomes from filtered builds
    std::vector<Node*> unlink;             // staged-out nodes (retired on commit)
    std::vector<std::size_t> stagedIdx;    // erase outcomes staged
    std::vector<std::size_t> deferredIdx;  // per-op erase() after the commit
    std::vector<K> kTmp;                   // insert-key compaction (null slots)
    std::vector<V> vTmp;
  };

  void discardMixedAttempt(MixedScratch& sc) {
    for (Node* n : sc.built) freeSubtree(n);
    sc.built.clear();
    sc.staged.clear();
    sc.insIdx.clear();
    sc.unlink.clear();
    sc.stagedIdx.clear();
    sc.deferredIdx.clear();
  }

  /// Mixed-run DFS: one partition walk stages inserts AND erases of
  /// keys[lo..hi) under `node`. Same structure as the single-kind DFS's:
  /// partition around node->key, recurse, bump a changed node once. An
  /// erase match follows stageEraseNode's rules, upgraded to the in-batch
  /// successor swap when its partition is a singleton (nothing else staged
  /// in that subtree); an insert match is a present key (outcome false).
  StageStatus stageMixedNode(Node* node, Version nodeVer, const K* keys,
                             const V* vals, const bool* isIns, std::size_t lo,
                             std::size_t hi, MixedScratch& sc,
                             EraseFrame& fr) {
    if (isMarked(nodeVer)) return StageStatus::kRetry;
    const K nodeKey = node->key;
    const std::size_t mid = static_cast<std::size_t>(
        std::lower_bound(keys + lo, keys + hi, nodeKey) - keys);
    const bool matched = mid < hi && keys[mid] == nodeKey;
    const std::size_t rlo = matched ? mid + 1 : mid;
    const bool eraseMatch = matched && !isIns[mid];
    // Lazy child loads, as in stageEraseNode: one cache miss per
    // pass-through hop, both slots only when an erase match needs them.
    Node* const left = (eraseMatch || lo < mid) ? node->left.load() : nullptr;
    Node* const right = (eraseMatch || rlo < hi) ? node->right.load() : nullptr;
    bool childStaged = false;
    if (lo < mid) {
      const StageStatus s = stageMixedChild(node, node->left, left, keys, vals,
                                            isIns, lo, mid, sc, childStaged);
      if (s != StageStatus::kOk) return s;
    }
    if (rlo < hi) {
      const StageStatus s = stageMixedChild(node, node->right, right, keys,
                                            vals, isIns, rlo, hi, sc,
                                            childStaged);
      if (s != StageStatus::kOk) return s;
    }
    if (eraseMatch) {
      if (childStaged || (left != nullptr && right != nullptr)) {
        if (!childStaged && lo == mid && rlo == hi)
          return stageEraseTwoChild(node, nodeVer, right, nodeKey, mid, sc);
        sc.deferredIdx.push_back(mid);
      } else {
        if (!stageBudgetLeft(*sc.dom, 2)) return StageStatus::kOverflow;
        addVer(node->ver, nodeVer, verMark(nodeVer));
        fr.removed = true;
        fr.repl = (left != nullptr) ? left : right;
        sc.unlink.push_back(node);
        sc.stagedIdx.push_back(mid);
        return StageStatus::kOk;
      }
    }
    if (childStaged) {
      if (!stageBudgetLeft(*sc.dom)) return StageStatus::kOverflow;
      addVer(node->ver, nodeVer, verBump(nodeVer));
    }
    return StageStatus::kOk;
  }

  StageStatus stageMixedChild(Node* node, casword<Node*>& slot, Node* child,
                              const K* keys, const V* vals, const bool* isIns,
                              std::size_t lo, std::size_t hi, MixedScratch& sc,
                              bool& childStaged) {
    if (child != nullptr) {
      if (!stageBudgetLeft(*sc.dom)) return StageStatus::kOverflow;
      const Version childVer = visit(child);
      EraseFrame cf;
      StageStatus s;
      if (hi - lo == 1) {
        s = isIns[lo] ? stageInsertOne(child, childVer, keys, vals, lo, sc)
                      : stageEraseOne(child, childVer, keys, lo, sc, cf);
      } else {
        s = stageMixedNode(child, childVer, keys, vals, isIns, lo, hi, sc, cf);
      }
      if (s != StageStatus::kOk) return s;
      if (cf.removed) {
        add(slot, child, cf.repl);
        childStaged = true;
      }
      return StageStatus::kOk;
    }
    // Null slot: the partition's insert keys become one prebuilt subtree;
    // its erase keys are absent, witnessed by the validated path.
    sc.kTmp.clear();
    sc.vTmp.clear();
    for (std::size_t j = lo; j < hi; ++j) {
      if (isIns[j]) {
        sc.kTmp.push_back(keys[j]);
        sc.vTmp.push_back(vals[j]);
        sc.insIdx.push_back(j);
      }
    }
    if (sc.kTmp.empty()) return StageStatus::kOk;
    if (!stageBudgetLeft(*sc.dom, 2)) return StageStatus::kOverflow;
    Node* const sub = buildSubtree(sc.kTmp.data(), sc.vTmp.data(), 0,
                                   sc.kTmp.size(), node);
    sc.built.push_back(sub);
    add(slot, static_cast<Node*>(nullptr), sub);
    childStaged = true;
    return StageStatus::kOk;
  }

  std::size_t updateRun(const K* keys, const V* vals, const bool* isIns,
                        std::size_t n, bool* out) {
    if (n == 0) return 0;
    if (n == 1) {  // degraded to the per-op commit (k=1 fast path)
      out[0] = isIns[0] ? this->insert(keys[0], vals[0]) : erase(keys[0]);
      return out[0] ? 1u : 0u;
    }
    auto guard = ebr_.pin();
    MixedScratch sc;
    sc.dom = &domain();
    for (int attempt = 0; attempt < kBatchRetries; ++attempt) {
      start();
      const Version rootVer = visit(minRoot_);
      EraseFrame rootFrame;
      const StageStatus s =
          stageMixedNode(minRoot_, rootVer, keys, vals, isIns, 0, n, sc,
                         rootFrame);
      if (s == StageStatus::kOverflow) {
        discardMixedAttempt(sc);
        break;  // deterministic: retrying the same width cannot help
      }
      if (s == StageStatus::kRetry) {
        discardMixedAttempt(sc);
        continue;
      }
      PATHCAS_DCHECK(!rootFrame.removed);  // minRoot's key is a sentinel
      if (sc.built.empty() && sc.unlink.empty()) {
        // Nothing staged: absent erases still need the validated traversal
        // as their witness (same rule as erase()); present inserts inherit
        // it for free, deferred removals run per-op below.
        if (!validate()) {
          discardMixedAttempt(sc);
          continue;
        }
        return finishMixedRun(keys, out, sc);
      }
      if (vex()) {
        for (Node* dead : sc.unlink) ebr_.retire(dead, pool_);
        return finishMixedRun(keys, out, sc);
      }
      discardMixedAttempt(sc);
    }
    const std::size_t half = n / 2;  // split-and-retry
    return updateRun(keys, vals, isIns, half, out) +
           updateRun(keys + half, vals + half, isIns + half, n - half,
                     out + half);
  }

  std::size_t finishMixedRun(const K* keys, bool* out, MixedScratch& sc) {
    std::size_t applied = 0;
    for (const StagedLink& link : sc.staged) {
      for (std::size_t i = link.lo; i < link.hi; ++i) {
        out[i] = true;
        ++applied;
      }
    }
    for (std::size_t idx : sc.insIdx) {
      out[idx] = true;
      ++applied;
    }
    for (std::size_t idx : sc.stagedIdx) {
      out[idx] = true;
      ++applied;
    }
    for (std::size_t idx : sc.deferredIdx) {
      out[idx] = erase(keys[idx]);
      if (out[idx]) ++applied;
    }
    return applied;
  }
};

}  // namespace pathcas::ds
