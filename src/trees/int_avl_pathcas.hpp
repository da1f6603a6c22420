// Lock-free *internal relaxed AVL tree* built with PathCAS (§4.2 and
// appendix D of the paper). The base is the internal BST of Algorithms 3-6;
// nodes are augmented with parent pointers and logical heights, and every
// successful update triggers Bougé-style relaxed rebalancing: fixHeight and
// the four rotations (Algorithms 8-11 plus mirrors), applied while walking
// parent pointers toward the root until a violation-free node is reached.
//
// That base is trees/internal_tree_core.hpp, shared with the BST: the reads,
// scans, per-op insert and the batch engine (insertBatch, eraseBatch,
// updateBatch). This header keeps the node type, erase(), rebalancing, and
// the core's hooks (adopt: parent word and height; afterCommit: rebalance;
// unlinksInPlace: leaves only).
//
// The height lives in the node's version word (bits 53-60, above the mark
// bit and the 52-bit counter; avlHeight/withAvlHeight below). A height only
// ever changes in a KCAS that also bumps that node's version, so fixHeight
// and the rotations write it into the version entry they stage anyway, and
// a visit() returns the node's height with its version, validated with it.
// The node is 48 B, with the words a search reads (ver, key, left, right)
// in its first 32 B.
//
// Deviations from the paper's pseudocode (which contains typos) are
// normalized to one rule: ANY node whose fields change in a vexec — including
// pure parent-pointer retargeting — has its version incremented in the same
// vexec. This is strictly safer (concurrent validations always observe
// subtree movements) at the cost of a slightly wider KCAS.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>

#include "pathcas/pathcas.hpp"
#include "recl/ebr.hpp"
#include "recl/pool.hpp"
#include "trees/internal_tree_core.hpp"
#include "util/defs.hpp"

namespace pathcas::ds {

/// An AVL node's version word: bit 0 the mark, bits 1-52 the counter
/// (verBump adds 2, verMark 1, so both keep the height), bits 53-60 the
/// relaxed height. Debug builds check the bound: a height of 256 needs a
/// path of 256 nodes, which a strict AVL tree cannot have below 2^170 keys
/// and a relaxed one only while rebalancing lags far behind its updates.
inline constexpr int kAvlHeightShift = 53;
inline constexpr std::int64_t kAvlHeightMax = 255;

/// The height held in version word v (0 for a null child's version 0).
constexpr std::int64_t avlHeight(Version v) {
  return static_cast<std::int64_t>(v >> kAvlHeightShift) & kAvlHeightMax;
}

/// v with its height replaced by h; the counter and the mark bit stay.
inline Version withAvlHeight(Version v, std::int64_t h) {
  PATHCAS_DCHECK(h >= 0 && h <= kAvlHeightMax);
  constexpr Version kMask = Version{kAvlHeightMax} << kAvlHeightShift;
  return (v & ~kMask) | (static_cast<Version>(h) << kAvlHeightShift);
}

template <typename K, typename V>
struct IntAvlNode {
  // Search-hot words first: a search reads ver, key, left and right.
  casword<Version> ver;  // mark, counter and height (avlHeight)
  casword<K> key;
  casword<IntAvlNode*> left;
  casword<IntAvlNode*> right;
  casword<V> val;
  casword<IntAvlNode*> parent;

  IntAvlNode(K k, V v) {
    ver.setInitial(withAvlHeight(0, 1));
    key.setInitial(k);
    val.setInitial(v);
  }
};

static_assert(sizeof(IntAvlNode<std::int64_t, std::int64_t>) == 48);
static_assert(searchHotFirst<IntAvlNode<std::int64_t, std::int64_t>>());

template <typename K = std::int64_t, typename V = std::int64_t>
class IntAvlPathCas
    : public InternalTreeCore<IntAvlPathCas<K, V>, IntAvlNode<K, V>, K, V> {
  using Core = InternalTreeCore<IntAvlPathCas<K, V>, IntAvlNode<K, V>, K, V>;
  friend Core;

 public:
  using Node = IntAvlNode<K, V>;
  using Core::Core;
  using Core::kNegInf;
  using Core::kPosInf;

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
  // Quiescent-state inspection.
  // ------------------------------------------------------------------

  /// Checks BST order, sentinel structure, that no reachable node is
  /// marked, parent-pointer consistency, and that logical heights are
  /// self-consistent (height == 1 + max(child heights)) — the state Bougé's
  /// rebalancing converges to. `requireStrictBalance` additionally asserts
  /// every node's children differ in height by <= 1 (holds after quiescent
  /// convergence).
  TreeStats checkInvariants(bool requireStrictBalance = false) const {
    return this->walkInvariants([requireStrictBalance](Node* n, Node* parent) {
      PATHCAS_CHECK(n->parent.load() == parent);
      if (requireStrictBalance) {
        Node* const l = n->left.load();
        Node* const r = n->right.load();
        PATHCAS_CHECK(heightOf(n) == 1 + std::max(heightOf(l), heightOf(r)));
        const std::int64_t bal = heightOf(l) - heightOf(r);
        PATHCAS_CHECK(bal >= -1 && bal <= 1);
      }
    });
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
  using typename Core::SearchResult, typename Core::Successor;
  using Core::ebr_, Core::execOrVex, Core::getSuccessor, Core::maxRoot_,
      Core::minRoot_, Core::pool_, Core::search, Core::vex;

  enum class FixResult { kSuccess, kFailure, kUnnecessary };

  // Core hooks. adopt: a node built or allocated privately takes its parent
  // word, and its height when it has children (a prebuilt subtree's nodes
  // are adopted bottom-up, so the children's heights are final).
  static void adopt(Node* n, Node* parent, Node* l, Node* r) {
    n->parent.setInitial(parent);
    if (l != nullptr || r != nullptr) {
      n->ver.setInitial(withAvlHeight(
          n->ver.load(), 1 + std::max(heightOf(l), heightOf(r))));
    }
  }
  void afterCommit(Node* n) { rebalance(n); }

  // A batch chunk unlinks only leaves in place: a one-child splice
  // retargets the kept child's parent word, which may already carry a
  // staged version bump from the child's own subtree in the same chunk (an
  // address staged twice is undefined), so one-child and two-child removals
  // defer to per-op erase().
  static bool unlinksInPlace(const Node* left, const Node* right) {
    return left == nullptr && right == nullptr;
  }

  static std::int64_t heightOf(Node* n) {
    return n == nullptr ? 0 : avlHeight(n->ver.load());
  }

  // ------------------------------------------------------------------
  // Rebalancing (appendix D, Algorithms 8-11 + mirrors). Every height comes
  // from a version word this op already read: n's own, or a visited
  // child's (a null child's version 0 reads as height 0). Every new height
  // rides in the version entry that bumps its node.
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
      Node* const l = n->left;
      Node* const r = n->right;
      Version lV = 0, rV = 0;
      if (l != nullptr) lV = visit(l);
      if (r != nullptr) rV = visit(r);
      if (isMarked(lV) || isMarked(rV)) continue;
      const std::int64_t balance = avlHeight(lV) - avlHeight(rV);

      if (balance > -2 && balance < 2) {
        const FixResult res = fixHeight(n, nV, l, lV, r, rV);
        if (res == FixResult::kUnnecessary) return;  // the walk ends (Alg. 10)
        if (res == FixResult::kSuccess) n = p;
        continue;
      }
      // A rotation swings p's child pointer: only it needs p's version.
      const Version pV = visit(p);
      if (isMarked(pV)) continue;
      if (balance >= 2) {
        // Left-heavy: examine l's children to pick single vs double rotation.
        if (l == nullptr) continue;  // height raced; retry
        Node* const ll = l->left;
        Node* const lr = l->right;
        Version llV = 0, lrV = 0;
        if (ll != nullptr) llV = visit(ll);
        if (lr != nullptr) lrV = visit(lr);
        if (isMarked(llV) || isMarked(lrV)) continue;
        const std::int64_t lBalance = avlHeight(llV) - avlHeight(lrV);
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
      } else {
        if (r == nullptr) continue;
        Node* const rl = r->left;
        Node* const rr = r->right;
        Version rlV = 0, rrV = 0;
        if (rl != nullptr) rlV = visit(rl);
        if (rr != nullptr) rrV = visit(rr);
        if (isMarked(rlV) || isMarked(rrV)) continue;
        const std::int64_t rBalance = avlHeight(rlV) - avlHeight(rrV);
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
      }
    }
  }

  /// Algorithm 8: set n's height to 1 + max(child heights), staging only
  /// n's version. The children's heights live in their versions, which the
  /// caller visited and the vex validates. n's child and parent words never
  /// change without a bump of n's version, which the entry checks, so l, r
  /// and the caller's p (all read after nV) are n's neighbours at the
  /// commit. A one-child fix commits as one DCSS (k=1, p=1).
  FixResult fixHeight(Node* n, Version nV, Node* l, Version lV, Node* r,
                      Version rV) {
    const std::int64_t newHeight =
        1 + std::max(avlHeight(lV), avlHeight(rV));
    if (avlHeight(nV) == newHeight) {
      if (n->ver.load() == nV && (l == nullptr || l->ver.load() == lV) &&
          (r == nullptr || r->ver.load() == rV)) {
        return FixResult::kUnnecessary;
      }
      return FixResult::kFailure;
    }
    addVer(n->ver, nV, withAvlHeight(verBump(nV), newHeight));
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

  /// Visit c and return its height (0 for null), or -1 if c is marked.
  static std::int64_t visitHeight(Node* c) {
    if (c == nullptr) return 0;
    const Version v = visit(c);
    return isMarked(v) ? -1 : avlHeight(v);
  }

  /// visitHeight, and if c is a live node, also stage its move from parent
  /// `from` to parent `to` (parent word and version bump).
  static std::int64_t visitMove(Node* c, Node* from, Node* to) {
    if (c == nullptr) return 0;
    const Version v = visit(c);
    if (isMarked(v)) return -1;
    add(c->parent, from, to);
    addVer(c->ver, v, verBump(v));
    return avlHeight(v);
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
    const std::int64_t lrH = visitMove(lr, l, n);
    if (lrH < 0) return false;
    const std::int64_t llH = visitHeight(l->left);
    if (llH < 0) return false;
    const std::int64_t rH = visitHeight(n->right);
    if (rH < 0) return false;
    const std::int64_t newNH = 1 + std::max(lrH, rH);
    const std::int64_t newLH = 1 + std::max(llH, newNH);
    add(l->parent, n, p);
    add(n->left, l, lr);
    add(l->right, lr, n);
    add(n->parent, p, l);
    addVer(p->ver, pV, verBump(pV));
    addVer(n->ver, nV, withAvlHeight(verBump(nV), newNH));
    addVer(l->ver, lV, withAvlHeight(verBump(lV), newLH));
    return vex();
  }

  bool rotateLeft(Node* p, Version pV, Node* n, Version nV, Node* r,
                  Version rV) {
    Node* const rl = r->left;
    if (!distinctNodes({p, n, r, rl})) return false;
    if (!addParentSwing(p, n, r)) return false;
    const std::int64_t rlH = visitMove(rl, r, n);
    if (rlH < 0) return false;
    const std::int64_t rrH = visitHeight(r->right);
    if (rrH < 0) return false;
    const std::int64_t lH = visitHeight(n->left);
    if (lH < 0) return false;
    const std::int64_t newNH = 1 + std::max(rlH, lH);
    const std::int64_t newRH = 1 + std::max(rrH, newNH);
    add(r->parent, n, p);
    add(n->right, r, rl);
    add(r->left, rl, n);
    add(n->parent, p, r);
    addVer(p->ver, pV, verBump(pV));
    addVer(n->ver, nV, withAvlHeight(verBump(nV), newNH));
    addVer(r->ver, rV, withAvlHeight(verBump(rV), newRH));
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
    const std::int64_t lrlH = visitMove(lrl, lr, l);
    if (lrlH < 0) return false;
    const std::int64_t lrrH = visitMove(lrr, lr, n);
    if (lrrH < 0) return false;
    const std::int64_t rH = visitHeight(n->right);
    if (rH < 0) return false;
    const std::int64_t llH = visitHeight(l->left);
    if (llH < 0) return false;
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
    addVer(lr->ver, lrV, withAvlHeight(verBump(lrV), newLRH));
    addVer(p->ver, pV, verBump(pV));
    addVer(n->ver, nV, withAvlHeight(verBump(nV), newNH));
    addVer(l->ver, lV, withAvlHeight(verBump(lV), newLH));
    return vex();
  }

  bool rotateRightLeft(Node* p, Version pV, Node* n, Version nV, Node* r,
                       Version rV, Node* rl, Version rlV) {
    Node* const rlr = rl->right;
    Node* const rll = rl->left;
    if (!distinctNodes({p, n, r, rl, rlr, rll})) return false;
    if (!addParentSwing(p, n, rl)) return false;
    const std::int64_t rlrH = visitMove(rlr, rl, r);
    if (rlrH < 0) return false;
    const std::int64_t rllH = visitMove(rll, rl, n);
    if (rllH < 0) return false;
    const std::int64_t lH = visitHeight(n->left);
    if (lH < 0) return false;
    const std::int64_t rrH = visitHeight(r->right);
    if (rrH < 0) return false;
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
    addVer(rl->ver, rlV, withAvlHeight(verBump(rlV), newRLH));
    addVer(p->ver, pV, verBump(pV));
    addVer(n->ver, nV, withAvlHeight(verBump(nV), newNH));
    addVer(r->ver, rV, withAvlHeight(verBump(rV), newRH));
    return vex();
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
    if (heightOf(n) != want || bal >= 2 || bal <= -2) {
      rebalance(n);
      changed = true;
    }
  }

  static constexpr int kMaxRebalanceAttempts = 10000;
};

}  // namespace pathcas::ds
