// Non-blocking external BST of Ellen, Fatourou, Ruppert & van Breugel
// (PODC'10) — the paper's `ext-bst-lf` baseline, implemented from scratch.
//
// Keys live in leaves; internal nodes carry routing keys and an `update`
// word packing (Info*, state) with state ∈ {CLEAN, IFLAG, DFLAG, MARK}.
// Updates flag the affected internal node(s) with an Info record describing
// the operation, so any thread encountering a flag can help the operation to
// completion — the classic fine-grained helping protocol PathCAS is designed
// to let you avoid writing.
//
// Info records, replaced leaves and unlinked internal nodes are reclaimed
// through EBR into type-segregated NodePools (one for Nodes, one for Info
// records) and recycled. A flag word keeps its last Info pointer in the
// CLEAN state, exactly as in the original algorithm, and the flag and mark
// CASes expect that value; they are ABA-free only while the record cannot
// be reused. So a record is retired not when its operation finishes but
// when a CAS replaces its CLEAN word: every thread that read the word is
// then pinned from before the retirement, and the slot is not reused while
// it might still CAS against it.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "recl/ebr.hpp"
#include "recl/pool.hpp"
#include "util/defs.hpp"

namespace pathcas::ds {

template <typename K = std::int64_t, typename V = std::int64_t>
class EllenBst {
 public:
  static constexpr K kInf1 = std::numeric_limits<K>::max() / 4 - 1;
  static constexpr K kInf2 = std::numeric_limits<K>::max() / 4;

  struct Node;
  /// Operation record for the helping protocol. Public (with Node) so
  /// callers can hand the constructor dedicated pools.
  struct Info {
    Node* gp = nullptr;
    Node* p = nullptr;
    Node* newInternal = nullptr;
    Node* l = nullptr;
    std::uint64_t pupdate = 0;
  };

  struct Node {
    const K key;
    const V val;
    const bool leaf;
    std::atomic<std::uint64_t> update{0};  // (Info* | state)
    std::atomic<Node*> left{nullptr};
    std::atomic<Node*> right{nullptr};
    Node(K k, V v, bool isLeaf) : key(k), val(v), leaf(isLeaf) {}
  };

  explicit EllenBst(recl::EbrDomain& ebr = recl::EbrDomain::instance(),
                    recl::NodePool<Node>* nodePool = nullptr,
                    recl::NodePool<Info>* infoPool = nullptr)
      : ebr_(ebr),
        nodePool_(nodePool ? *nodePool : recl::defaultPool<Node>()),
        infoPool_(infoPool ? *infoPool : recl::defaultPool<Info>()) {
    root_ = nodePool_.alloc(kInf2, V{}, /*leaf=*/false);
    root_->left.store(nodePool_.alloc(kInf1, V{}, true));
    root_->right.store(nodePool_.alloc(kInf2, V{}, true));
  }

  EllenBst(const EllenBst&) = delete;
  EllenBst& operator=(const EllenBst&) = delete;

  // Quiescent-teardown exception: direct recycle, no EBR needed. Each record
  // still named by a reachable node's flag word is recycled with that node
  // (no reachable node shares it: a delete's record also sits in its
  // removed parent, which is unreachable once the delete completed).
  ~EllenBst() { freeSubtree(root_); }

  bool contains(K key) {
    PATHCAS_DCHECK(key < kInf1);
    auto guard = ebr_.pin();
    const SearchResult s = search(key);
    return s.l->key == key;
  }

  bool insert(K key, V val) {
    PATHCAS_DCHECK(key < kInf1);
    auto guard = ebr_.pin();
    Node* newLeaf = nodePool_.alloc(key, val, true);
    for (;;) {
      const SearchResult s = search(key);
      if (s.l->key == key) {
        // Never published: direct recycle is safe.
        nodePool_.destroy(newLeaf);
        return false;
      }
      if (stateOf(s.pupdate) != kClean) {
        help(s.pupdate);
        continue;
      }
      Node* newSibling = nodePool_.alloc(s.l->key, s.l->val, true);
      Node* newInternal =
          nodePool_.alloc(std::max(key, s.l->key), V{}, /*leaf=*/false);
      if (key < s.l->key) {
        newInternal->left.store(newLeaf);
        newInternal->right.store(newSibling);
      } else {
        newInternal->left.store(newSibling);
        newInternal->right.store(newLeaf);
      }
      Info* op = infoPool_.alloc();
      op->p = s.p;
      op->newInternal = newInternal;
      op->l = s.l;
      std::uint64_t expected = s.pupdate;
      if (s.p->update.compare_exchange_strong(expected,
                                              pack(op, kIFlag))) {
        retireReplaced(s.pupdate);
        helpInsert(op);
        return true;
      }
      help(expected);
      // The flag CAS failed, so op/newSibling/newInternal were never
      // published: direct recycle is safe.
      nodePool_.destroy(newSibling);
      nodePool_.destroy(newInternal);
      infoPool_.destroy(op);
    }
  }

  bool erase(K key) {
    PATHCAS_DCHECK(key < kInf1);
    auto guard = ebr_.pin();
    for (;;) {
      const SearchResult s = search(key);
      if (s.l->key != key) return false;
      if (stateOf(s.gpupdate) != kClean) {
        help(s.gpupdate);
        continue;
      }
      if (stateOf(s.pupdate) != kClean) {
        help(s.pupdate);
        continue;
      }
      Info* op = infoPool_.alloc();
      op->gp = s.gp;
      op->p = s.p;
      op->l = s.l;
      op->pupdate = s.pupdate;
      std::uint64_t expected = s.gpupdate;
      if (s.gp->update.compare_exchange_strong(expected,
                                               pack(op, kDFlag))) {
        retireReplaced(s.gpupdate);
        if (helpDelete(op)) return true;
      } else {
        help(expected);
        infoPool_.destroy(op);  // flag CAS failed: never published
      }
    }
  }

  /// Best-effort range scan: append the (key, value) pairs with
  /// lo <= key <= hi observed during ONE traversal, in ascending key order;
  /// returns the number appended. NOT an atomic snapshot — the helping
  /// protocol gives per-key linearizability only, so a scan racing updates
  /// may mix states (the usual limitation of hand-crafted lock-free BSTs
  /// without versioned snapshots). Included for benchmark comparability with
  /// the validated PathCAS scans; quiescent scans are exact.
  std::size_t rangeQuery(K lo, K hi, std::vector<std::pair<K, V>>& out) {
    PATHCAS_DCHECK(hi < kInf1);
    if (lo > hi) return 0;
    auto guard = ebr_.pin();
    const std::size_t base = out.size();
    collectRange(root_, lo, hi, out);
    return out.size() - base;
  }

  std::uint64_t size() const {
    std::uint64_t n = 0;
    countLeaves(root_, n);
    return n - 2;  // sentinel leaves
  }
  std::int64_t keySum() const { return sumLeaves(root_); }

  /// Average depth of real keys (quiescent), for the Fig. 5 analysis.
  double avgKeyDepth() const {
    std::uint64_t depthSum = 0, keys = 0, nodes = 0;
    depthWalk(root_, 1, depthSum, keys, nodes);
    return keys ? static_cast<double>(depthSum) / static_cast<double>(keys)
                : 0.0;
  }
  /// Memory actually held for this structure's node types, from pool
  /// counters — the Fig. 5 memory column (via EllenAdapter::footprintBytes).
  std::uint64_t poolFootprintBytes() const {
    return nodePool_.footprintBytes() + infoPool_.footprintBytes();
  }

  static constexpr const char* name() { return "ext-bst-lf"; }

 private:
  enum State : std::uint64_t { kClean = 0, kIFlag = 1, kDFlag = 2, kMark = 3 };

  struct SearchResult {
    Node* gp;
    Node* p;
    Node* l;
    std::uint64_t pupdate;
    std::uint64_t gpupdate;
  };

  static std::uint64_t pack(Info* info, State s) {
    return reinterpret_cast<std::uintptr_t>(info) | s;
  }
  static State stateOf(std::uint64_t u) { return static_cast<State>(u & 3); }
  static Info* infoOf(std::uint64_t u) {
    return reinterpret_cast<Info*>(u & ~std::uint64_t{3});
  }

  SearchResult search(K key) const {
    SearchResult s{nullptr, nullptr, root_, 0, 0};
    while (!s.l->leaf) {
      s.gp = s.p;
      s.p = s.l;
      s.gpupdate = s.pupdate;
      s.pupdate = s.p->update.load(std::memory_order_acquire);
      s.l = (key < s.p->key) ? s.p->left.load(std::memory_order_acquire)
                             : s.p->right.load(std::memory_order_acquire);
    }
    return s;
  }

  void help(std::uint64_t u) {
    switch (stateOf(u)) {
      case kIFlag:
        helpInsert(infoOf(u));
        break;
      case kMark:
        helpMarked(infoOf(u));
        break;
      case kDFlag:
        helpDelete(infoOf(u));
        break;
      case kClean:
        break;
    }
  }

  /// Swing the parent's child pointer from `old` to `next` (key-directed).
  static void casChild(Node* parent, Node* old, Node* next) {
    std::atomic<Node*>& child =
        (next->key < parent->key) ? parent->left : parent->right;
    Node* expected = old;
    child.compare_exchange_strong(expected, next);
  }

  void helpInsert(Info* op) {
    casChild(op->p, op->l, op->newInternal);
    std::uint64_t expected = pack(op, kIFlag);
    if (op->p->update.compare_exchange_strong(expected, pack(op, kClean))) {
      // We finished the operation: retire the replaced leaf. The record
      // stays in p's CLEAN word until the next flag replaces it.
      ebr_.retire(op->l, nodePool_);
    }
  }

  bool helpDelete(Info* op) {
    std::uint64_t expected = op->pupdate;
    const std::uint64_t marked = pack(op, kMark);
    const bool markedNow =
        op->p->update.compare_exchange_strong(expected, marked);
    if (markedNow) retireReplaced(op->pupdate);
    if (markedNow || expected == marked) {
      helpMarked(op);
      return true;
    }
    help(op->p->update.load(std::memory_order_acquire));
    // Backtrack. The record stays in gp's CLEAN word.
    std::uint64_t flagged = pack(op, kDFlag);
    op->gp->update.compare_exchange_strong(flagged, pack(op, kClean));
    return false;
  }

  void helpMarked(Info* op) {
    Node* const p = op->p;
    Node* other = p->right.load(std::memory_order_acquire);
    if (other == op->l) other = p->left.load(std::memory_order_acquire);
    // `other` keys may be on either side of gp; direct by comparison with l.
    std::atomic<Node*>& child = (op->p == op->gp->left.load())
                                    ? op->gp->left
                                    : op->gp->right;
    Node* expected = op->p;
    child.compare_exchange_strong(expected, other);
    std::uint64_t flagged = pack(op, kDFlag);
    if (op->gp->update.compare_exchange_strong(flagged, pack(op, kClean))) {
      // The record stays in gp's CLEAN word (and in p, now unreachable).
      ebr_.retire(op->p, nodePool_);
      ebr_.retire(op->l, nodePool_);
    }
  }

  /// Called by the thread whose flag or mark CAS replaced the CLEAN word
  /// `u`: that word was the last place a new reader could find its record.
  void retireReplaced(std::uint64_t u) {
    if (Info* old = infoOf(u)) ebr_.retire(old, infoPool_);
  }

  void depthWalk(Node* n, std::uint64_t depth, std::uint64_t& depthSum,
                 std::uint64_t& keys, std::uint64_t& nodes) const {
    if (n == nullptr) return;
    ++nodes;
    if (n->leaf) {
      if (n->key < kInf1) {
        depthSum += depth;
        ++keys;
      }
      return;
    }
    depthWalk(n->left.load(), depth + 1, depthSum, keys, nodes);
    depthWalk(n->right.load(), depth + 1, depthSum, keys, nodes);
  }

  /// Internal node with key k routes keys < k left, >= k right; sentinel
  /// leaves (>= kInf1) are excluded from results.
  void collectRange(Node* n, K lo, K hi,
                    std::vector<std::pair<K, V>>& out) const {
    if (n == nullptr) return;
    if (n->leaf) {
      if (n->key >= lo && n->key <= hi && n->key < kInf1)
        out.emplace_back(n->key, n->val);
      return;
    }
    if (lo < n->key)
      collectRange(n->left.load(std::memory_order_acquire), lo, hi, out);
    if (hi >= n->key)
      collectRange(n->right.load(std::memory_order_acquire), lo, hi, out);
  }

  void countLeaves(Node* n, std::uint64_t& acc) const {
    if (n == nullptr) return;
    if (n->leaf) {
      ++acc;
      return;
    }
    countLeaves(n->left.load(), acc);
    countLeaves(n->right.load(), acc);
  }
  std::int64_t sumLeaves(Node* n) const {
    if (n == nullptr) return 0;
    if (n->leaf) return (n->key >= kInf1) ? 0 : static_cast<std::int64_t>(n->key);
    return sumLeaves(n->left.load()) + sumLeaves(n->right.load());
  }
  void freeSubtree(Node* n) {
    if (n == nullptr) return;
    if (!n->leaf) {
      freeSubtree(n->left.load());
      freeSubtree(n->right.load());
    }
    if (Info* info = infoOf(n->update.load())) infoPool_.destroy(info);
    nodePool_.destroy(n);
  }

  recl::EbrDomain& ebr_;
  recl::NodePool<Node>& nodePool_;
  recl::NodePool<Info>& infoPool_;
  Node* root_;
};

}  // namespace pathcas::ds
