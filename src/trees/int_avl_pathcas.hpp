// Lock-free *internal relaxed AVL tree* built with PathCAS (§4.2 and
// appendix D of the paper). The base is the internal BST of Algorithms 3-6;
// nodes are augmented with logical heights, and every successful update
// triggers Bougé-style relaxed rebalancing: fixHeight and the four rotations
// (Algorithms 8-11 plus mirrors), applied while walking toward the root
// until a violation-free node is reached. Appendix D's nodes carry parent
// pointers for that walk; these carry none, and the walk climbs the chain
// of ancestors the update's own search recorded (rebalance below).
//
// That base is trees/internal_tree_core.hpp, shared with the BST: the reads,
// scans, per-op insert and erase, and the batch engine (insertBatch,
// eraseBatch, updateBatch). This header keeps the node type, rebalancing,
// and the core's hooks (Chain: the ancestors; afterCommit: rebalance;
// adopt: a prebuilt node's height).
//
// The height lives in the node's version word (bits 53-60, above the mark
// bit and the 52-bit counter; avlHeight/withAvlHeight below). A height only
// ever changes in a KCAS that also bumps that node's version, so fixHeight
// and the rotations write it into the version entry they stage anyway, and
// a visit() returns the node's height with its version, validated with it.
// The node is 32 B, the BST's size, with the words a search reads (ver,
// key, kids) first; kids holds both children as pool slot indices.
//
// Deviations from the paper's pseudocode (which contains typos) are
// normalized to one rule: ANY node whose fields change in a vexec has its
// version incremented in the same vexec. A node that only moves (a
// rotation's middle subtree) changes no field and keeps its version: its
// old and new parents are bumped, and every path to it runs through one.
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
  // Search-hot words first: a search reads ver, key and kids.
  casword<Version> ver;  // mark, counter and height (avlHeight)
  casword<K> key;
  casword<Kids> kids;  // both children, as slot indices in the tree's pool
  casword<V> val;

  IntAvlNode(K k, V v) {
    ver.setInitial(withAvlHeight(0, 1));
    key.setInitial(k);
    val.setInitial(v);
  }
};

static_assert(sizeof(IntAvlNode<std::int64_t, std::int64_t>) == 32);
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

  // ------------------------------------------------------------------
  // Quiescent-state inspection.
  // ------------------------------------------------------------------

  /// Checks BST order, sentinel structure and that no reachable node is
  /// marked. `requireStrictBalance` additionally asserts that every height
  /// is 1 + max(child heights) and that children differ in height by <= 1:
  /// the state Bougé's rebalancing converges to.
  TreeStats checkInvariants(bool requireStrictBalance = false) const {
    return this->walkInvariants([this, requireStrictBalance](Node* n) {
      if (requireStrictBalance) {
        const Kids kids = n->kids.load();
        Node* const l = childOf(kids, false);
        Node* const r = childOf(kids, true);
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
      fixAll(root(), changed);
    }
  }

  static constexpr const char* name() { return "int-avl-pathcas"; }

 private:
  using Core::childOf, Core::isRightChild, Core::minRoot_, Core::relink,
      Core::root, Core::search, Core::vex;
  using Chain = AncestorChain<Node>;

  enum class FixResult { kSuccess, kFailure, kUnnecessary };

  // Core hooks. A prebuilt batch subtree's nodes are adopted bottom-up, so
  // the children's heights are final.
  static void adopt(Node* n, Node* l, Node* r) {
    n->ver.setInitial(withAvlHeight(
        n->ver.load(), 1 + std::max(heightOf(l), heightOf(r))));
  }
  void afterCommit(Chain& chain) { rebalance(chain); }

  static std::int64_t heightOf(Node* n) {
    return n == nullptr ? 0 : avlHeight(n->ver.load());
  }

  // ------------------------------------------------------------------
  // Rebalancing (appendix D, Algorithms 8-11 + mirrors). Every height comes
  // from a version word this op already read: n's own, or a visited
  // child's (a null child's version 0 reads as height 0). Every new height
  // rides in the version entry that bumps its node.
  // ------------------------------------------------------------------

  /// Walk from chain.back() toward the root repairing violations (Algorithm
  /// 10), climbing the ancestors in chain (minRoot first). A thread that
  /// created a violation owns it — and any violation its own repairs
  /// create — until it reaches a violation-free or deleted node.
  ///
  /// A node moves to another parent without a version bump (a rotation's
  /// middle subtree, a one-child erase's kept child), so the chain can be
  /// stale. Each step checks, under its own validation, that the node it
  /// climbed from is still a child of the step's node; when it is not, or
  /// the step's node was deleted, the walk searches again for that node and
  /// climbs from its current parent. A rotation checks its parent from the
  /// chain the same way.
  void rebalance(Chain& chain) {
    // Bounded retries guard against pathological contention livelock; an
    // abandoned repair leaves a (correct) temporarily-unbalanced tree whose
    // violation the next updater through this region repairs.
    int attempts = 0;
    Node* from = nullptr;  // the node the walk climbed from, if any
    for (;;) {
      if (++attempts > kMaxRebalanceAttempts) return;
      Node* const n = chain.back();
      start();
      const Version nV = n->ver.load();
      const Kids nK = n->kids.load();
      Node* const l = childOf(nK, false);
      Node* const r = childOf(nK, true);
      if (from != nullptr && (isMarked(nV) || (from != l && from != r))) {
        if (!relocate(from, chain, attempts)) return;
        continue;
      }
      if (n == minRoot_) return;  // the top (from, if any, is the root)
      if (isMarked(nV)) return;  // deleted: someone else owns the path up
      Version lV = 0, rV = 0;
      if (l != nullptr) lV = visit(l);
      if (r != nullptr) rV = visit(r);
      if (isMarked(lV) || isMarked(rV)) continue;
#ifdef PATHCAS_TEST_HOOKS
      if (Core::stallHook) Core::stallHook(Core::Stall::kWalkStep, n);
#endif
      const std::int64_t balance = avlHeight(lV) - avlHeight(rV);

      if (balance > -2 && balance < 2) {
        const FixResult res = fixHeight(n, nV, l, lV, r, rV);
        if (res == FixResult::kUnnecessary) return;  // the walk ends (Alg. 10)
        if (res == FixResult::kSuccess) {
          from = n;
          chain.pop();
        }
        continue;
      }
      // A rotation relinks p's child: only it needs p's version.
      Node* const p = chain[chain.size() - 2];
      const Version pV = visit(p);
      const Kids pK = p->kids.load();
      if (isMarked(pV) || (childOf(pK, false) != n && childOf(pK, true) != n)) {
        if (!relocate(n, chain, attempts)) return;
        chain.push(n);
        continue;
      }
      // The taller child c rises; its children's heights pick a single or
      // a double rotation. `left` says c is n's left child (n left-heavy).
      const bool left = balance >= 2;
      Node* const c = left ? l : r;
      if (c == nullptr) continue;  // height raced; retry
      const Kids cK = c->kids.load();
      Node* const cl = childOf(cK, false);
      Node* const cr = childOf(cK, true);
      Version clV = 0, crV = 0;
      if (cl != nullptr) clV = visit(cl);
      if (cr != nullptr) crV = visit(cr);
      if (isMarked(clV) || isMarked(crV)) continue;
      Node* const inner = left ? cr : cl;  // c's child on n's side
      const Version innerV = left ? crV : clV;
      // The heights of c's children and of n's other child, as visited.
      const Heights h{avlHeight(innerV), avlHeight(left ? clV : crV),
                      avlHeight(left ? rV : lV)};
      const Seen ps{p, pV, pK}, ns{n, nV, nK}, cs{c, left ? lV : rV, cK};
      if (h.inner > h.outer) {
        if (inner == nullptr) continue;
        if (rotateDouble(ps, ns, cs, inner, innerV, h, left))
          from = afterRotation(chain, inner, {n, c});
      } else if (rotateSingle(ps, ns, cs, h, left)) {
        from = afterRotation(chain, c, {n});
      }
    }
  }

  /// Refill chain with c's ancestors (minRoot first) from a new search for
  /// c's current key. False if c was deleted, whose eraser then owns the
  /// path up, or the walk's attempts ran out.
  bool relocate(Node* c, Chain& chain, int& attempts) {
    while (++attempts <= kMaxRebalanceAttempts) {
      start();
      if (isMarked(c->ver.load())) return false;
      if (search(c->key.load(), chain).curr == c) return true;
    }
    return false;
  }

  /// A rotation put `top` in the place of chain.back(). Run the walks it
  /// owes — from each node it rotated below top, then from top — each on
  /// its own copy of the chain, and leave chain at top's parent, which the
  /// caller's walk climbs to from top.
  Node* afterRotation(Chain& chain, Node* top,
                      std::initializer_list<Node*> below) {
    chain.pop();
    chain.push(top);
    Chain own;
    for (Node* b : below) {
      own.assign(chain.begin(), chain.end());
      own.push(b);
      rebalance(own);
    }
    own.assign(chain.begin(), chain.end());
    rebalance(own);
    chain.pop();
    return top;
  }

  /// Algorithm 8: set n's height to 1 + max(child heights), staging only
  /// n's version. The children's heights live in their versions, which the
  /// caller visited and the vex validates. n's child words never change
  /// without a bump of n's version, which the entry checks, so l and r (read
  /// after nV) are n's children at the commit. A one-child fix commits as
  /// one DCSS (k=1, p=1).
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

  /// A node as the walk read it: its version, then its kids word.
  struct Seen {
    Node* n;
    Version ver;
    Kids kids;
  };

  /// A rotation's heights that the walk visited: c's child on n's side
  /// (inner), c's other child (outer), and n's child other than c.
  struct Heights {
    std::int64_t inner, outer, other;
  };

  /// Stage p's relink of its child n to replacement (the walk checked that
  /// p.kids holds n).
  void swingParent(const Seen& p, Node* n, Node* replacement) {
    add(p.n->kids, p.kids,
        relink(p.kids, isRightChild(p.kids, n), replacement));
  }

  /// Visit c and return its height (0 for null), or -1 if c is marked.
  static std::int64_t visitHeight(Node* c) {
    if (c == nullptr) return 0;
    const Version v = visit(c);
    return isMarked(v) ? -1 : avlHeight(v);
  }

  /// The child on side `left` (the left child if true) in kids word k.
  Node* side(Kids k, bool left) const { return childOf(k, !left); }

  /// k with its child on side `left` replaced by c.
  Kids withSide(Kids k, bool left, const Node* c) const {
    return relink(k, !left, c);
  }

  /// Algorithm 11 (and its mirror): single rotation, drawn for left = true
  /// (c = l; the mirror swaps every left and right). lr only moves, so it
  /// is visited, not staged. p, n and c each take one kids entry.
  ///        p                p
  ///        n       =>       l
  ///       / \              / \ .
  ///      l   r            ll  n
  ///     / \                  / \ .
  ///    ll  lr               lr  r
  bool rotateSingle(const Seen& p, const Seen& n, const Seen& c,
                    const Heights& h, bool left) {
    Node* const inner = side(c.kids, !left);  // lr
    const std::int64_t newNH = 1 + std::max(h.inner, h.other);
    const std::int64_t newCH = 1 + std::max(h.outer, newNH);
    swingParent(p, n.n, c.n);
    add(n.n->kids, n.kids, withSide(n.kids, left, inner));
    add(c.n->kids, c.kids, withSide(c.kids, !left, n.n));
    addVer(p.n->ver, p.ver, verBump(p.ver));
    addVer(n.n->ver, n.ver, withAvlHeight(verBump(n.ver), newNH));
    addVer(c.n->ver, c.ver, withAvlHeight(verBump(c.ver), newCH));
    return vex();
  }

  /// Algorithm 9 (and its mirror): double rotation, fused into one PathCAS,
  /// drawn for left = true (c = l, m = lr, visited at mV). lrl and lrr only
  /// move, so they are visited here, not staged. p, n, c and m each take
  /// one kids entry; m's takes both its new children.
  ///        p                 p
  ///        n                lr
  ///      /   \             /   \ .
  ///     l     r    =>     l     n
  ///    / \               / \   / \ .
  ///   ll  lr            ll lrl lrr r
  ///      /  \ .
  ///    lrl  lrr
  bool rotateDouble(const Seen& p, const Seen& n, const Seen& c, Node* m,
                    Version mV, const Heights& h, bool left) {
    const Kids mK = m->kids.load();
    Node* const mc = side(mK, left);   // lrl, which moves under c
    Node* const mn = side(mK, !left);  // lrr, which moves under n
    const std::int64_t mcH = visitHeight(mc);
    if (mcH < 0) return false;
    const std::int64_t mnH = visitHeight(mn);
    if (mnH < 0) return false;
    const std::int64_t newNH = 1 + std::max(mnH, h.other);
    const std::int64_t newCH = 1 + std::max(h.outer, mcH);
    const std::int64_t newMH = 1 + std::max(newNH, newCH);
    swingParent(p, n.n, m);
    add(m->kids, mK, withSide(withSide(mK, left, c.n), !left, n.n));
    add(c.n->kids, c.kids, withSide(c.kids, !left, mc));
    add(n.n->kids, n.kids, withSide(n.kids, left, mn));
    addVer(m->ver, mV, withAvlHeight(verBump(mV), newMH));
    addVer(p.n->ver, p.ver, verBump(p.ver));
    addVer(n.n->ver, n.ver, withAvlHeight(verBump(n.ver), newNH));
    addVer(c.n->ver, c.ver, withAvlHeight(verBump(c.ver), newCH));
    return vex();
  }

  void fixAll(Node* n, bool& changed) {
    if (n == nullptr) return;
    fixAll(childOf(n->kids.load(), false), changed);
    fixAll(childOf(n->kids.load(), true), changed);
    // Re-read children: a rotation below may have restructured.
    const Kids kids = n->kids.load();
    Node* const l = childOf(kids, false);
    Node* const r = childOf(kids, true);
    const std::int64_t want = 1 + std::max(heightOf(l), heightOf(r));
    const std::int64_t bal = heightOf(l) - heightOf(r);
    if (heightOf(n) != want || bal >= 2 || bal <= -2) {
      Chain chain;
      int attempts = 0;
      if (relocate(n, chain, attempts)) {
        chain.push(n);
        rebalance(chain);
      }
      changed = true;
    }
  }

  static constexpr int kMaxRebalanceAttempts = 10000;
};

}  // namespace pathcas::ds
