// Lock-free *internal relaxed AVL tree* built with PathCAS (§4.2 and
// appendix D of the paper). The base is the internal BST of Algorithms 3-6;
// nodes are augmented with parent pointers and logical heights, and every
// successful update triggers Bougé-style relaxed rebalancing: fixHeight and
// the four rotations (Algorithms 8-11 plus mirrors), applied while walking
// parent pointers toward the root until a violation-free node is reached.
//
// Deviations from the paper's pseudocode (which contains typos) are
// normalized to one rule: ANY node whose fields change in a vexec — including
// pure parent-pointer retargeting — has its version incremented in the same
// vexec. This is strictly safer (concurrent validations always observe
// subtree movements) at the cost of a slightly wider KCAS.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "pathcas/pathcas.hpp"
#include "recl/ebr.hpp"
#include "recl/pool.hpp"
#include "trees/int_bst_pathcas.hpp"  // TreeStats, IntBstOptions
#include "util/defs.hpp"

namespace pathcas::ds {

template <typename K = std::int64_t, typename V = std::int64_t>
class IntAvlPathCas {
 public:
  static_assert(std::is_integral_v<K> && std::is_integral_v<V>);
  /// Exposed for generic frontends (service/sharded_map.hpp).
  using KeyType = K;
  using ValueType = V;
  using OptionsType = IntBstOptions;
  static constexpr K kNegInf = std::numeric_limits<K>::min() / 4;
  static constexpr K kPosInf = std::numeric_limits<K>::max() / 4;

  struct Node {
    casword<Version> ver;
    casword<K> key;
    casword<V> val;
    casword<Node*> left;
    casword<Node*> right;
    casword<Node*> parent;
    casword<std::int64_t> height;  // logical height (relaxed)

    Node(K k, V v, Node* p) {
      key.setInitial(k);
      val.setInitial(v);
      parent.setInitial(p);
      height.setInitial(1);
    }
  };

  explicit IntAvlPathCas(IntBstOptions options = {},
                         recl::EbrDomain& ebr = recl::EbrDomain::instance(),
                         recl::NodePool<Node>* pool = nullptr)
      : opt_(options), ebr_(ebr), pool_(pool ? *pool : recl::defaultPool<Node>()) {
    maxRoot_ = pool_.alloc(kPosInf, V{}, nullptr);
    minRoot_ = pool_.alloc(kNegInf, V{}, maxRoot_);
    maxRoot_->left.setInitial(minRoot_);
  }

  IntAvlPathCas(const IntAvlPathCas&) = delete;
  IntAvlPathCas& operator=(const IntAvlPathCas&) = delete;

  ~IntAvlPathCas() {
    // Quiescent-teardown exception: no thread pinned on this tree anymore,
    // so reachable nodes go straight back to the pool (no EBR).
    freeSubtree(minRoot_->right.load());
    pool_.destroy(minRoot_);
    pool_.destroy(maxRoot_);
  }

  bool contains(K key) {
    PATHCAS_DCHECK(key > kNegInf && key < kPosInf);
    auto guard = ebr_.pin();
    for (;;) {
      start();
      const SearchResult s = search(key);
      if (s.found && (opt_.reduceValidation || validate())) return true;
      if (!s.found && validate()) return false;
    }
  }

  std::optional<V> get(K key) {
    PATHCAS_DCHECK(key > kNegInf && key < kPosInf);
    auto guard = ebr_.pin();
    for (;;) {
      start();
      const SearchResult s = search(key);
      if (!s.found) {
        if (validate()) return std::nullopt;
        continue;
      }
      if (!opt_.reduceValidation && !validate()) continue;
      // Same seqlock-style pair check as IntBstPathCas::get — the two-child
      // erase swaps key/value in place and always bumps curr's version, so
      // an unchanged version re-read AFTER the value load proves the pair.
      const V val = s.curr->val.load();
      if (s.curr->ver.load() == s.currVer) return val;
    }
  }

  /// Linearizable range query (see IntBstPathCas::rangeQuery): append every
  /// (key, value) pair with lo <= key <= hi to `out` in ascending key order;
  /// returns the number appended. Rotations retarget pointers of visited
  /// nodes only with a version bump (the normalization rule above), so a
  /// validated scan is an atomic snapshot even while rebalancing runs.
  /// Bounded by pathcas::kMaxVisited examined nodes (footnote 2).
  std::size_t rangeQuery(K lo, K hi, std::vector<std::pair<K, V>>& out) {
    PATHCAS_DCHECK(lo > kNegInf && hi < kPosInf);
    if (lo > hi) return 0;
    auto guard = ebr_.pin();
    const std::size_t base = out.size();
    for (;;) {
      start();
      visit(minRoot_);  // pins the root pointer (minRoot_->right)
      collectRange(minRoot_->right.load(), lo, hi, out);
      if (vval()) return out.size() - base;
      out.resize(base);  // torn attempt: discard and re-traverse
    }
  }

  /// One validated scan attempt with visited-pair capture, for the sharded
  /// map's cross-shard linearization. Contract identical to
  /// IntBstPathCas::rangeQueryCapture: `cap(k::AtomicWord*, k::word_t)` is
  /// called per visited pair BEFORE validation; a false return means the
  /// caller must discard the capture and retry (no internal retry loop).
  template <typename Cap>
  bool rangeQueryCapture(K lo, K hi, std::vector<std::pair<K, V>>& out,
                         Cap&& cap) {
    PATHCAS_DCHECK(lo > kNegInf && hi < kPosInf);
    if (lo > hi) return true;
    auto guard = ebr_.pin();
    const std::size_t base = out.size();
    start();
    visit(minRoot_);  // pins the root pointer (minRoot_->right)
    collectRange(minRoot_->right.load(), lo, hi, out);
    domain().forEachStagedPath(cap);
    if (vval()) return true;
    out.resize(base);
    return false;
  }

  bool insert(K key, V val) {
    PATHCAS_DCHECK(key > kNegInf && key < kPosInf);
    auto guard = ebr_.pin();
    Node* leaf = nullptr;
    for (;;) {
      start();
      const SearchResult s = search(key);
      if (s.found) {
        if (opt_.reduceValidation || validate()) {
          // Never published (no add() committed it): direct recycle is safe.
          if (leaf != nullptr) pool_.destroy(leaf);
          return false;
        }
        continue;
      }
      if (leaf == nullptr) {
        leaf = pool_.alloc(key, val, s.parent);
      } else {
        leaf->parent.setInitial(s.parent);
      }
      const K parentKey = s.parent->key;
      auto& ptrToChange =
          (key < parentKey) ? s.parent->left : s.parent->right;
      add(ptrToChange, static_cast<Node*>(nullptr), leaf);
      addVer(s.parent->ver, s.parentVer, verBump(s.parentVer));
      if (vex()) {
        rebalance(s.parent);
        return true;
      }
    }
  }

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

      if (currLeft == nullptr && currRight == nullptr) {
        auto& ptrToChange =
            (curr == parent->left.load()) ? parent->left : parent->right;
        add(ptrToChange, curr, static_cast<Node*>(nullptr));
        addVer(parent->ver, s.parentVer, verBump(s.parentVer));
        addVer(curr->ver, s.currVer, verMark(s.currVer));
        if (execOrVex()) {
          ebr_.retire(curr, pool_);
          rebalance(parent);
          return true;
        }
      } else if (currLeft == nullptr || currRight == nullptr) {
        Node* childToKeep = (currLeft == nullptr) ? currRight : currLeft;
        if (!distinctNodes({parent, curr, childToKeep})) continue;
        const Version childVer = visit(childToKeep);
        if (isMarked(childVer)) continue;
        auto& ptrToChange =
            (curr == parent->left.load()) ? parent->left : parent->right;
        add(ptrToChange, curr, childToKeep);
        add(childToKeep->parent, curr, parent);
        addVer(childToKeep->ver, childVer, verBump(childVer));
        addVer(parent->ver, s.parentVer, verBump(s.parentVer));
        addVer(curr->ver, s.currVer, verMark(s.currVer));
        if (execOrVex()) {
          ebr_.retire(curr, pool_);
          rebalance(parent);
          return true;
        }
      } else {
        const Successor su = getSuccessor(curr, s.currVer);
        if (su.succ == nullptr || isMarked(su.succVer) ||
            isMarked(su.succPVer)) {
          continue;
        }
        Node* const succR = su.succ->right;
        // succP may be curr itself (succ is curr's right child); every
        // other pair must be distinct.
        if (!distinctNodes({curr, su.succ, succR}) ||
            !distinctNodes({su.succP, su.succ, succR})) {
          continue;
        }
        Version succRVer = 0;
        if (succR != nullptr) {
          succRVer = visit(succR);
          if (isMarked(succRVer)) continue;
        }
        auto& ptrToChange = (su.succP->right.load() == su.succ)
                                ? su.succP->right
                                : su.succP->left;
        add(ptrToChange, su.succ, succR);
        if (succR != nullptr) {
          add(succR->parent, su.succ, su.succP);
          addVer(succR->ver, succRVer, verBump(succRVer));
        }
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
          rebalance(su.succP);
          return true;
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // Batched updates (group commit). Same contract and split rules as
  // IntBstPathCas::insertBatch/eraseBatch; see the "Batched commits"
  // section of docs/ARCHITECTURE.md. AVL-specific deltas: inserted runs
  // become height-annotated balanced subtrees whose attach points are
  // rebalanced after the commit, and only LEAF removals are staged in the
  // wide KCAS — a one-child splice retargets the kept child's parent word,
  // which may already carry a staged version bump from the child's own
  // subtree in the same batch (an address staged twice is undefined), so
  // one-child and two-child removals defer to per-op erase().
  // ------------------------------------------------------------------

  /// insertIfAbsent over a strictly-ascending key run; see
  /// IntBstPathCas::insertBatch.
  std::size_t insertBatch(const K* keys, const V* vals, std::size_t n,
                          bool* outcomes) {
    checkBatchKeys(keys, n);
    for (std::size_t i = 0; i < n; ++i) outcomes[i] = false;
    const std::size_t chunk = batchChunkWidth();
    std::size_t inserted = 0;
    for (std::size_t i = 0; i < n; i += chunk)
      inserted += insertRun(keys + i, vals + i, std::min(chunk, n - i),
                            outcomes + i);
    return inserted;
  }

  /// delete over a strictly-ascending key run; see IntBstPathCas::eraseBatch.
  std::size_t eraseBatch(const K* keys, std::size_t n, bool* outcomes) {
    checkBatchKeys(keys, n);
    for (std::size_t i = 0; i < n; ++i) outcomes[i] = false;
    const std::size_t chunk = batchChunkWidth();
    std::size_t erased = 0;
    for (std::size_t i = 0; i < n; i += chunk)
      erased += eraseRun(keys + i, std::min(chunk, n - i), outcomes + i);
    return erased;
  }

  // ------------------------------------------------------------------
  // Quiescent-state inspection.
  // ------------------------------------------------------------------

  /// Checks BST order, that no reachable node is marked, parent-pointer
  /// consistency, and that logical heights are self-consistent
  /// (height == 1 + max(child heights)) — the state Bougé's rebalancing
  /// converges to. `requireStrictBalance` additionally asserts every node's
  /// children differ in height by <= 1 (holds after quiescent convergence).
  TreeStats checkInvariants(bool requireStrictBalance = false) const {
    PATHCAS_CHECK(maxRoot_->left.load() == minRoot_);
    TreeStats stats;
    std::uint64_t depthSum = 0;
    Node* root = minRoot_->right.load();
    if (root != nullptr) PATHCAS_CHECK(root->parent.load() == minRoot_);
    walk(root, kNegInf, kPosInf, 1, stats, depthSum, requireStrictBalance);
    stats.avgKeyDepth =
        stats.size ? static_cast<double>(depthSum) / stats.size : 0.0;
    stats.footprintBytes = (stats.nodeCount + 2) * sizeof(Node);
    return stats;
  }

  std::uint64_t size() const { return checkInvariants().size; }
  std::int64_t keySum() const { return checkInvariants().keySum; }

  void forEach(const std::function<void(K, V)>& f) const {
    forEachRec(minRoot_->right.load(), f);
  }

  /// Quiescent helper for tests: repeatedly apply rebalancing at every node
  /// until the tree is a strict AVL tree (Bougé's convergence theorem).
  void rebalanceToConvergence() {
    bool changed = true;
    while (changed) {
      changed = false;
      fixAll(minRoot_->right.load(), changed);
    }
  }

  static constexpr const char* name() { return "int-avl-pathcas"; }

 private:
  struct SearchResult {
    bool found;
    Node* curr;
    Version currVer;
    Node* parent;
    Version parentVer;
  };
  struct Successor {
    Node* succ;
    Version succVer;
    Node* succP;
    Version succPVer;
  };
  enum class FixResult { kSuccess, kFailure, kUnnecessary };

  SearchResult search(K key) {
    Node* parent = maxRoot_;
    Version parentVer = visit(parent);
    Node* curr = minRoot_;
    Version currVer = visit(curr);
    while (curr != nullptr) {
      const K currKey = curr->key;
      if (key == currKey) return {true, curr, currVer, parent, parentVer};
      Node* next = (key > currKey) ? curr->right.load() : curr->left.load();
      parent = curr;
      parentVer = currVer;
      curr = next;
      if (curr != nullptr) {
        // Warm the likely-next level while visit() pays this node's
        // validation cost (PATHCAS_PREFETCH: hint only, re-read after).
        prefetch(curr->left);
        prefetch(curr->right);
        currVer = visit(curr);
      }
    }
    return {false, nullptr, 0, parent, parentVer};
  }

  Successor getSuccessor(Node* start, Version startVer) {
    Node* succP = start;
    Version succPVer = startVer;
    Node* succ = start->right;
    if (succ == nullptr) return {nullptr, 0, nullptr, 0};
    Version succVer = visit(succ);
    for (;;) {
      Node* next = succ->left;
      if (next == nullptr) return {succ, succVer, succP, succPVer};
      succP = succ;
      succPVer = succVer;
      succ = next;
      prefetch(succ->left);
      succVer = visit(next);
    }
  }

  // --- batched-commit machinery (see IntBstPathCas for the protocol) --

  static constexpr int kBatchRetries = 3;
  static constexpr int kBatchStageBudget =
      static_cast<int>(k::DefaultDomain::kMaxEntries) - 16;

  enum class StageStatus { kOk, kRetry, kOverflow };

  static bool stageBudgetLeft(int need = 1) {
    return domain().stagedFootprint() + need <= kBatchStageBudget;
  }

  std::size_t batchChunkWidth() const {
    return opt_.batchOpsPerCommit > 1
               ? static_cast<std::size_t>(opt_.batchOpsPerCommit)
               : 1;
  }

  static void checkBatchKeys(const K* keys, std::size_t n) {
    (void)keys;
    (void)n;
#ifndef NDEBUG
    for (std::size_t i = 0; i < n; ++i) {
      PATHCAS_DCHECK(keys[i] > kNegInf && keys[i] < kPosInf);
      PATHCAS_DCHECK(i == 0 || keys[i - 1] < keys[i]);
    }
#endif
  }

  struct InsertScratch {
    std::vector<Node*> built;   // unpublished subtree roots (freed on abort)
    std::vector<Node*> attach;  // nodes gaining a subtree (rebalance roots)
    std::vector<std::pair<std::size_t, std::size_t>> staged;  // outcome ranges
  };

  void discardInsertAttempt(InsertScratch& sc) {
    for (Node* n : sc.built) freeSubtree(n);
    sc.built.clear();
    sc.attach.clear();
    sc.staged.clear();
  }

  /// Balanced, height-annotated subtree of keys[lo..hi), built privately
  /// under `parent` (setInitial): only shared if the staged link commits.
  Node* buildSubtree(const K* keys, const V* vals, std::size_t lo,
                     std::size_t hi, Node* parent) {
    const std::size_t mid = lo + (hi - lo) / 2;
    Node* const n = pool_.alloc(keys[mid], vals[mid], parent);
    std::int64_t lh = 0, rh = 0;
    if (lo < mid) {
      Node* const l = buildSubtree(keys, vals, lo, mid, n);
      n->left.setInitial(l);
      lh = l->height.load();
    }
    if (mid + 1 < hi) {
      Node* const r = buildSubtree(keys, vals, mid + 1, hi, n);
      n->right.setInitial(r);
      rh = r->height.load();
    }
    if (lh != 0 || rh != 0) n->height.setInitial(1 + std::max(lh, rh));
    return n;
  }

  StageStatus stageInsertNode(Node* node, Version nodeVer, const K* keys,
                              const V* vals, std::size_t lo, std::size_t hi,
                              InsertScratch& sc) {
    if (isMarked(nodeVer)) return StageStatus::kRetry;
    const K nodeKey = node->key;
    const std::size_t mid = static_cast<std::size_t>(
        std::lower_bound(keys + lo, keys + hi, nodeKey) - keys);
    std::size_t rlo = mid;
    if (rlo < hi && keys[rlo] == nodeKey) ++rlo;  // present: outcome stays false
    bool childStaged = false;
    if (lo < mid) {
      const StageStatus s = stageInsertChild(node, node->left, keys, vals, lo,
                                             mid, sc, childStaged);
      if (s != StageStatus::kOk) return s;
    }
    if (rlo < hi) {
      const StageStatus s = stageInsertChild(node, node->right, keys, vals,
                                             rlo, hi, sc, childStaged);
      if (s != StageStatus::kOk) return s;
    }
    if (childStaged) {
      if (!stageBudgetLeft()) return StageStatus::kOverflow;
      addVer(node->ver, nodeVer, verBump(nodeVer));
    }
    return StageStatus::kOk;
  }

  StageStatus stageInsertChild(Node* node, casword<Node*>& slot,
                               const K* keys, const V* vals, std::size_t lo,
                               std::size_t hi, InsertScratch& sc,
                               bool& childStaged) {
    Node* const child = slot.load();
    if (child != nullptr) {
      if (!stageBudgetLeft()) return StageStatus::kOverflow;
      const Version childVer = visit(child);
      return stageInsertNode(child, childVer, keys, vals, lo, hi, sc);
    }
    if (!stageBudgetLeft(2)) return StageStatus::kOverflow;
    Node* const sub = buildSubtree(keys, vals, lo, hi, node);
    sc.built.push_back(sub);
    sc.attach.push_back(node);
    sc.staged.emplace_back(lo, hi);
    add(slot, static_cast<Node*>(nullptr), sub);
    childStaged = true;
    return StageStatus::kOk;
  }

  std::size_t insertRun(const K* keys, const V* vals, std::size_t n,
                        bool* out) {
    if (n == 0) return 0;
    if (n == 1) {  // degraded to the per-op commit (k=1 fast path)
      out[0] = insert(keys[0], vals[0]);
      return out[0] ? 1u : 0u;
    }
    auto guard = ebr_.pin();
    InsertScratch sc;
    for (int attempt = 0; attempt < kBatchRetries; ++attempt) {
      start();
      const Version rootVer = visit(minRoot_);
      const StageStatus s =
          stageInsertNode(minRoot_, rootVer, keys, vals, 0, n, sc);
      if (s == StageStatus::kOverflow) {
        discardInsertAttempt(sc);
        break;  // deterministic: retrying the same width cannot help
      }
      if (s == StageStatus::kRetry) {
        discardInsertAttempt(sc);
        continue;
      }
      if (sc.staged.empty()) {
        if (opt_.reduceValidation || validate()) return 0;
        continue;
      }
      if (vex()) {
        std::size_t inserted = 0;
        for (const auto& range : sc.staged) {
          for (std::size_t i = range.first; i < range.second; ++i) {
            out[i] = true;
            ++inserted;
          }
        }
        // An attached subtree is internally balanced but may unbalance the
        // path above its attach point; repair from there (Bougé walk-up).
        for (Node* at : sc.attach) rebalance(at);
        return inserted;
      }
      discardInsertAttempt(sc);
    }
    const std::size_t half = n / 2;  // split-and-retry
    return insertRun(keys, vals, half, out) +
           insertRun(keys + half, vals + half, n - half, out + half);
  }

  struct EraseScratch {
    std::vector<Node*> unlink;             // staged-out leaves (retired on commit)
    std::vector<Node*> rebal;              // their parents (rebalance roots)
    std::vector<std::size_t> stagedIdx;    // outcome indices of staged removals
    std::vector<std::size_t> deferredIdx;  // per-op erase() after the commit
  };

  struct EraseFrame {
    bool removed = false;
  };

  StageStatus stageEraseNode(Node* node, Version nodeVer, const K* keys,
                             std::size_t lo, std::size_t hi, EraseScratch& sc,
                             EraseFrame& fr) {
    if (isMarked(nodeVer)) return StageStatus::kRetry;
    const K nodeKey = node->key;
    const std::size_t mid = static_cast<std::size_t>(
        std::lower_bound(keys + lo, keys + hi, nodeKey) - keys);
    const bool matched = mid < hi && keys[mid] == nodeKey;
    const std::size_t rlo = matched ? mid + 1 : mid;
    Node* const left = node->left.load();
    Node* const right = node->right.load();
    bool childStaged = false;
    if (lo < mid && left != nullptr) {
      const StageStatus s = stageEraseEdge(node, node->left, left, keys, lo,
                                           mid, sc, childStaged);
      if (s != StageStatus::kOk) return s;
    }
    if (rlo < hi && right != nullptr) {
      const StageStatus s = stageEraseEdge(node, node->right, right, keys,
                                           rlo, hi, sc, childStaged);
      if (s != StageStatus::kOk) return s;
    }
    if (matched) {
      if (!childStaged && left == nullptr && right == nullptr) {
        if (!stageBudgetLeft(2)) return StageStatus::kOverflow;
        // Leaf: mark node; the parent frame swings its slot and bumps its
        // own version. Matches the per-op leaf-deletion entry set exactly.
        addVer(node->ver, nodeVer, verMark(nodeVer));
        fr.removed = true;
        sc.unlink.push_back(node);
        sc.stagedIdx.push_back(mid);
        return StageStatus::kOk;
      }
      // One-child / two-child / touched-by-this-batch: per-op fallback.
      sc.deferredIdx.push_back(mid);
    }
    if (childStaged) {
      if (!stageBudgetLeft()) return StageStatus::kOverflow;
      addVer(node->ver, nodeVer, verBump(nodeVer));
    }
    return StageStatus::kOk;
  }

  StageStatus stageEraseEdge(Node* node, casword<Node*>& slot, Node* child,
                             const K* keys, std::size_t lo, std::size_t hi,
                             EraseScratch& sc, bool& childStaged) {
    if (!stageBudgetLeft(2)) return StageStatus::kOverflow;
    const Version childVer = visit(child);
    EraseFrame cf;
    const StageStatus s =
        stageEraseNode(child, childVer, keys, lo, hi, sc, cf);
    if (s != StageStatus::kOk) return s;
    if (cf.removed) {
      add(slot, child, static_cast<Node*>(nullptr));
      sc.rebal.push_back(node);
      childStaged = true;
    }
    return StageStatus::kOk;
  }

  std::size_t eraseRun(const K* keys, std::size_t n, bool* out) {
    if (n == 0) return 0;
    if (n == 1) {  // degraded to the per-op commit
      out[0] = erase(keys[0]);
      return out[0] ? 1u : 0u;
    }
    auto guard = ebr_.pin();
    EraseScratch sc;
    for (int attempt = 0; attempt < kBatchRetries; ++attempt) {
      start();
      sc.unlink.clear();
      sc.rebal.clear();
      sc.stagedIdx.clear();
      sc.deferredIdx.clear();
      const Version rootVer = visit(minRoot_);
      EraseFrame rootFrame;
      const StageStatus s =
          stageEraseNode(minRoot_, rootVer, keys, 0, n, sc, rootFrame);
      if (s == StageStatus::kOverflow) break;
      if (s == StageStatus::kRetry) continue;
      PATHCAS_DCHECK(!rootFrame.removed);  // minRoot's key is a sentinel
      if (sc.unlink.empty()) {
        if (!validate()) continue;
        return finishEraseRun(keys, out, sc);
      }
      if (vex()) {
        for (Node* dead : sc.unlink) ebr_.retire(dead, pool_);
        for (Node* p : sc.rebal) rebalance(p);
        return finishEraseRun(keys, out, sc);
      }
    }
    const std::size_t half = n / 2;  // split-and-retry
    return eraseRun(keys, half, out) +
           eraseRun(keys + half, n - half, out + half);
  }

  std::size_t finishEraseRun(const K* keys, bool* out, EraseScratch& sc) {
    std::size_t erased = sc.stagedIdx.size();
    for (std::size_t idx : sc.stagedIdx) out[idx] = true;
    for (std::size_t idx : sc.deferredIdx) {
      out[idx] = erase(keys[idx]);
      if (out[idx]) ++erased;
    }
    return erased;
  }

  bool vex() { return opt_.useHtmFastPath ? vexecFast() : vexec(); }
  bool vval() {
    return opt_.useHtmFastPath ? validateVisitedFast() : validateVisited();
  }
  bool execOrVex() {
    if (opt_.reduceValidation)
      return opt_.useHtmFastPath ? execFast() : pathcas::exec();
    return vex();
  }

  /// In-order walk of the subtrees overlapping [lo, hi], visiting every node
  /// examined; collected pairs are only meaningful if validation succeeds.
  void collectRange(Node* n, K lo, K hi, std::vector<std::pair<K, V>>& out) {
    if (n == nullptr) return;
    visit(n);
    const K k = n->key.load();
    if (k > lo) collectRange(n->left.load(), lo, hi, out);
    if (k >= lo && k <= hi) out.emplace_back(k, n->val.load());
    if (k < hi) collectRange(n->right.load(), lo, hi, out);
  }

  static std::int64_t heightOf(Node* n) {
    return n == nullptr ? 0 : n->height.load();
  }

  // ------------------------------------------------------------------
  // Rebalancing (appendix D, Algorithms 8-11 + mirrors).
  // ------------------------------------------------------------------

  /// Walk from n toward the root repairing violations (Algorithm 10). A
  /// thread that created a violation owns it — and any violation its own
  /// repairs create — until it reaches a violation-free or deleted node.
  void rebalance(Node* n) {
    // Bounded retries guard against pathological contention livelock; an
    // abandoned repair leaves a (correct) temporarily-unbalanced tree whose
    // violation the next updater through this region repairs.
    int attempts = 0;
    while (n != nullptr && n != minRoot_ && n != maxRoot_) {
      if (++attempts > kMaxRebalanceAttempts) return;
      start();
      const Version nV = n->ver.load();
      if (isMarked(nV)) return;  // deleted: someone else owns the path up
      Node* p = n->parent;
      if (p == nullptr) return;
      const Version pV = visit(p);
      if (isMarked(pV)) continue;
      Node* const l = n->left;
      Node* const r = n->right;
      Version lV = 0, rV = 0;
      if (l != nullptr) lV = visit(l);
      if (r != nullptr) rV = visit(r);
      if (isMarked(lV) || isMarked(rV)) continue;
      const std::int64_t lh = heightOf(l);
      const std::int64_t rh = heightOf(r);
      const std::int64_t balance = lh - rh;

      if (balance >= 2) {
        // Left-heavy: examine l's children to pick single vs double rotation.
        if (l == nullptr) continue;  // height raced; retry
        Node* const ll = l->left;
        Node* const lr = l->right;
        Version llV = 0, lrV = 0;
        if (ll != nullptr) llV = visit(ll);
        if (lr != nullptr) lrV = visit(lr);
        if (isMarked(llV) || isMarked(lrV)) continue;
        const std::int64_t lBalance = heightOf(ll) - heightOf(lr);
        if (lBalance < 0) {
          if (lr == nullptr) continue;
          if (rotateLeftRight(p, pV, n, nV, l, lV, lr, lrV)) {
            rebalance(n);
            rebalance(l);
            rebalance(lr);
            n = p;
          }
        } else {
          if (rotateRight(p, pV, n, nV, l, lV)) {
            rebalance(n);
            rebalance(l);
            n = p;
          }
        }
      } else if (balance <= -2) {
        if (r == nullptr) continue;
        Node* const rl = r->left;
        Node* const rr = r->right;
        Version rlV = 0, rrV = 0;
        if (rl != nullptr) rlV = visit(rl);
        if (rr != nullptr) rrV = visit(rr);
        if (isMarked(rlV) || isMarked(rrV)) continue;
        const std::int64_t rBalance = heightOf(rl) - heightOf(rr);
        if (rBalance > 0) {
          if (rl == nullptr) continue;
          if (rotateRightLeft(p, pV, n, nV, r, rV, rl, rlV)) {
            rebalance(n);
            rebalance(r);
            rebalance(rl);
            n = p;
          }
        } else {
          if (rotateLeft(p, pV, n, nV, r, rV)) {
            rebalance(n);
            rebalance(r);
            n = p;
          }
        }
      } else {
        const FixResult res = fixHeight(n, nV, l, lV, r, rV);
        if (res == FixResult::kFailure) continue;
        if (res == FixResult::kSuccess) {
          n = p;
          continue;
        }
        return;  // kUnnecessary: no violation here; the walk ends (Alg. 10)
      }
    }
  }

  /// Algorithm 8: set n.height = 1 + max(child heights), locking the
  /// children's versions (add old==new) so the computed height is consistent.
  FixResult fixHeight(Node* n, Version nV, Node* l, Version lV, Node* r,
                      Version rV) {
    // l/r/versions were visited by the caller in this same PathCAS op.
    if (!distinctNodes({n, l, r})) return FixResult::kFailure;
    if (l != nullptr) addVer(l->ver, lV, lV);
    if (r != nullptr) addVer(r->ver, rV, rV);
    const std::int64_t oldHeight = n->height;
    const std::int64_t newHeight = 1 + std::max(heightOf(l), heightOf(r));
    if (oldHeight == newHeight) {
      if (n->ver.load() == nV && (l == nullptr || l->ver.load() == lV) &&
          (r == nullptr || r->ver.load() == rV)) {
        return FixResult::kUnnecessary;
      }
      return FixResult::kFailure;
    }
    add(n->height, oldHeight, newHeight);
    addVer(n->ver, nV, verBump(nV));
    if (vex()) return FixResult::kSuccess;
    return FixResult::kFailure;
  }

  /// True iff the non-null nodes are pairwise distinct. A traversal's reads
  /// are not one snapshot, so a torn read can name one node in two roles of
  /// an update. Staging that node's words twice would leave the second old
  /// value unchecked — phase 1 and validation both accept the op's own
  /// lock — so every multi-node update checks this before staging anything
  /// and retries if it fails.
  static bool distinctNodes(std::initializer_list<const Node*> nodes) {
    for (auto a = nodes.begin(); a != nodes.end(); ++a)
      for (auto b = a + 1; b != nodes.end(); ++b)
        if (*a != nullptr && *a == *b) return false;
    return true;
  }

  /// Attach l in n's place under p. Returns false if n is not p's child.
  bool addParentSwing(Node* p, Node* n, Node* replacement) {
    if (p->right.load() == n) {
      add(p->right, n, replacement);
    } else if (p->left.load() == n) {
      add(p->left, n, replacement);
    } else {
      return false;
    }
    return true;
  }

  /// Algorithm 11 (and its mirror): single rotation.
  ///        p                p
  ///        n       =>       l
  ///       / \              / \ .
  ///      l   r            ll  n
  ///     / \                  / \ .
  ///    ll  lr               lr  r
  bool rotateRight(Node* p, Version pV, Node* n, Version nV, Node* l,
                   Version lV) {
    Node* const lr = l->right;
    if (!distinctNodes({p, n, l, lr})) return false;
    if (!addParentSwing(p, n, l)) return false;
    std::int64_t lrH = 0;
    if (lr != nullptr) {
      const Version lrV = visit(lr);
      if (isMarked(lrV)) return false;
      lrH = lr->height;
      add(lr->parent, l, n);
      addVer(lr->ver, lrV, verBump(lrV));
    }
    Node* const ll = l->left;
    std::int64_t llH = 0;
    if (ll != nullptr) {
      const Version llV = visit(ll);
      if (isMarked(llV)) return false;
      llH = ll->height;
    }
    Node* const r = n->right;
    std::int64_t rH = 0;
    if (r != nullptr) {
      const Version rV = visit(r);
      if (isMarked(rV)) return false;
      rH = r->height;
    }
    const std::int64_t oldNH = n->height;
    const std::int64_t oldLH = l->height;
    const std::int64_t newNH = 1 + std::max(lrH, rH);
    const std::int64_t newLH = 1 + std::max(llH, newNH);
    add(l->parent, n, p);
    add(n->left, l, lr);
    add(l->right, lr, n);
    add(n->parent, p, l);
    add(n->height, oldNH, newNH);
    add(l->height, oldLH, newLH);
    addVer(p->ver, pV, verBump(pV));
    addVer(n->ver, nV, verBump(nV));
    addVer(l->ver, lV, verBump(lV));
    return vex();
  }

  bool rotateLeft(Node* p, Version pV, Node* n, Version nV, Node* r,
                  Version rV) {
    Node* const rl = r->left;
    if (!distinctNodes({p, n, r, rl})) return false;
    if (!addParentSwing(p, n, r)) return false;
    std::int64_t rlH = 0;
    if (rl != nullptr) {
      const Version rlV = visit(rl);
      if (isMarked(rlV)) return false;
      rlH = rl->height;
      add(rl->parent, r, n);
      addVer(rl->ver, rlV, verBump(rlV));
    }
    Node* const rr = r->right;
    std::int64_t rrH = 0;
    if (rr != nullptr) {
      const Version rrV = visit(rr);
      if (isMarked(rrV)) return false;
      rrH = rr->height;
    }
    Node* const l = n->left;
    std::int64_t lH = 0;
    if (l != nullptr) {
      const Version lV = visit(l);
      if (isMarked(lV)) return false;
      lH = l->height;
    }
    const std::int64_t oldNH = n->height;
    const std::int64_t oldRH = r->height;
    const std::int64_t newNH = 1 + std::max(rlH, lH);
    const std::int64_t newRH = 1 + std::max(rrH, newNH);
    add(r->parent, n, p);
    add(n->right, r, rl);
    add(r->left, rl, n);
    add(n->parent, p, r);
    add(n->height, oldNH, newNH);
    add(r->height, oldRH, newRH);
    addVer(p->ver, pV, verBump(pV));
    addVer(n->ver, nV, verBump(nV));
    addVer(r->ver, rV, verBump(rV));
    return vex();
  }

  /// Algorithm 9 (and its mirror): double rotation, fused into one PathCAS.
  ///        p                 p
  ///        n                lr
  ///      /   \             /   \ .
  ///     l     r    =>     l     n
  ///    / \               / \   / \ .
  ///   ll  lr            ll lrl lrr r
  ///      /  \ .
  ///    lrl  lrr
  bool rotateLeftRight(Node* p, Version pV, Node* n, Version nV, Node* l,
                       Version lV, Node* lr, Version lrV) {
    Node* const lrl = lr->left;
    Node* const lrr = lr->right;
    if (!distinctNodes({p, n, l, lr, lrl, lrr})) return false;
    if (!addParentSwing(p, n, lr)) return false;
    std::int64_t lrlH = 0;
    if (lrl != nullptr) {
      const Version lrlV = visit(lrl);
      if (isMarked(lrlV)) return false;
      lrlH = lrl->height;
      add(lrl->parent, lr, l);
      addVer(lrl->ver, lrlV, verBump(lrlV));
    }
    std::int64_t lrrH = 0;
    if (lrr != nullptr) {
      const Version lrrV = visit(lrr);
      if (isMarked(lrrV)) return false;
      lrrH = lrr->height;
      add(lrr->parent, lr, n);
      addVer(lrr->ver, lrrV, verBump(lrrV));
    }
    Node* const r = n->right;
    std::int64_t rH = 0;
    if (r != nullptr) {
      const Version rV = visit(r);
      if (isMarked(rV)) return false;
      rH = r->height;
    }
    Node* const ll = l->left;
    std::int64_t llH = 0;
    if (ll != nullptr) {
      const Version llV = visit(ll);
      if (isMarked(llV)) return false;
      llH = ll->height;
    }
    const std::int64_t oldNH = n->height;
    const std::int64_t oldLH = l->height;
    const std::int64_t oldLRH = lr->height;
    const std::int64_t newNH = 1 + std::max(lrrH, rH);
    const std::int64_t newLH = 1 + std::max(llH, lrlH);
    const std::int64_t newLRH = 1 + std::max(newNH, newLH);
    add(lr->parent, l, p);
    add(lr->left, lrl, l);
    add(l->parent, n, lr);
    add(lr->right, lrr, n);
    add(n->parent, p, lr);
    add(l->right, lr, lrl);
    add(n->left, l, lrr);
    add(n->height, oldNH, newNH);
    add(l->height, oldLH, newLH);
    add(lr->height, oldLRH, newLRH);
    addVer(lr->ver, lrV, verBump(lrV));
    addVer(p->ver, pV, verBump(pV));
    addVer(n->ver, nV, verBump(nV));
    addVer(l->ver, lV, verBump(lV));
    return vex();
  }

  bool rotateRightLeft(Node* p, Version pV, Node* n, Version nV, Node* r,
                       Version rV, Node* rl, Version rlV) {
    Node* const rlr = rl->right;
    Node* const rll = rl->left;
    if (!distinctNodes({p, n, r, rl, rlr, rll})) return false;
    if (!addParentSwing(p, n, rl)) return false;
    std::int64_t rlrH = 0;
    if (rlr != nullptr) {
      const Version rlrV = visit(rlr);
      if (isMarked(rlrV)) return false;
      rlrH = rlr->height;
      add(rlr->parent, rl, r);
      addVer(rlr->ver, rlrV, verBump(rlrV));
    }
    std::int64_t rllH = 0;
    if (rll != nullptr) {
      const Version rllV = visit(rll);
      if (isMarked(rllV)) return false;
      rllH = rll->height;
      add(rll->parent, rl, n);
      addVer(rll->ver, rllV, verBump(rllV));
    }
    Node* const l = n->left;
    std::int64_t lH = 0;
    if (l != nullptr) {
      const Version lV = visit(l);
      if (isMarked(lV)) return false;
      lH = l->height;
    }
    Node* const rr = r->right;
    std::int64_t rrH = 0;
    if (rr != nullptr) {
      const Version rrV = visit(rr);
      if (isMarked(rrV)) return false;
      rrH = rr->height;
    }
    const std::int64_t oldNH = n->height;
    const std::int64_t oldRH = r->height;
    const std::int64_t oldRLH = rl->height;
    const std::int64_t newNH = 1 + std::max(rllH, lH);
    const std::int64_t newRH = 1 + std::max(rrH, rlrH);
    const std::int64_t newRLH = 1 + std::max(newNH, newRH);
    add(rl->parent, r, p);
    add(rl->right, rlr, r);
    add(r->parent, n, rl);
    add(rl->left, rll, n);
    add(n->parent, p, rl);
    add(r->left, rl, rlr);
    add(n->right, r, rll);
    add(n->height, oldNH, newNH);
    add(r->height, oldRH, newRH);
    add(rl->height, oldRLH, newRLH);
    addVer(rl->ver, rlV, verBump(rlV));
    addVer(p->ver, pV, verBump(pV));
    addVer(n->ver, nV, verBump(nV));
    addVer(r->ver, rV, verBump(rV));
    return vex();
  }

  // ------------------------------------------------------------------

  void walk(Node* n, K lo, K hi, std::uint64_t depth, TreeStats& stats,
            std::uint64_t& depthSum, bool strict) const {
    if (n == nullptr) return;
    const K k = n->key.load();
    PATHCAS_CHECK(k > lo && k < hi);
    PATHCAS_CHECK(!isMarked(n->ver.load()));
    Node* const l = n->left.load();
    Node* const r = n->right.load();
    if (l != nullptr) PATHCAS_CHECK(l->parent.load() == n);
    if (r != nullptr) PATHCAS_CHECK(r->parent.load() == n);
    if (strict) {
      PATHCAS_CHECK(n->height.load() ==
                    1 + std::max(heightOf(l), heightOf(r)));
      const std::int64_t bal = heightOf(l) - heightOf(r);
      PATHCAS_CHECK(bal >= -1 && bal <= 1);
    }
    ++stats.size;
    ++stats.nodeCount;
    stats.keySum += static_cast<std::int64_t>(k);
    depthSum += depth;
    stats.height = std::max(stats.height, depth);
    walk(l, lo, k, depth + 1, stats, depthSum, strict);
    walk(r, k, hi, depth + 1, stats, depthSum, strict);
  }

  void fixAll(Node* n, bool& changed) {
    if (n == nullptr) return;
    fixAll(n->left.load(), changed);
    fixAll(n->right.load(), changed);
    // Re-read children: a rotation below may have restructured.
    Node* const l = n->left.load();
    Node* const r = n->right.load();
    const std::int64_t want = 1 + std::max(heightOf(l), heightOf(r));
    const std::int64_t bal = heightOf(l) - heightOf(r);
    if (n->height.load() != want || bal >= 2 || bal <= -2) {
      rebalance(n);
      changed = true;
    }
  }

  void forEachRec(Node* n, const std::function<void(K, V)>& f) const {
    if (n == nullptr) return;
    forEachRec(n->left.load(), f);
    f(n->key.load(), n->val.load());
    forEachRec(n->right.load(), f);
  }

  void freeSubtree(Node* n) {
    if (n == nullptr) return;
    freeSubtree(n->left.load());
    freeSubtree(n->right.load());
    pool_.destroy(n);
  }

  static constexpr int kMaxRebalanceAttempts = 10000;

  IntBstOptions opt_;
  recl::EbrDomain& ebr_;
  recl::NodePool<Node>& pool_;
  Node* maxRoot_;
  Node* minRoot_;
};

}  // namespace pathcas::ds
