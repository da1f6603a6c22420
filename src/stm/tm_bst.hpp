// Sequential internal BST compiled over a TM backend (NOrec / TL2 / TLE /
// Elastic) — the paper's int-bst-<tm> baselines. The data-structure code is
// a textbook sequential BST; every shared-field access goes through
// tx.read/tx.write, exactly the "derive concurrent implementations from
// sequential ones" TM workflow the paper contrasts PathCAS against.
//
// Ownership/lifetime: the tree owns its nodes; erased nodes are retired
// through an injected recl::EbrDomain (default: the process-wide instance),
// so operations must run on registered threads (hold a ThreadGuard in
// worker threads). The destructor frees the whole tree and must run after
// all operations have quiesced.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "recl/ebr.hpp"
#include "stm/common.hpp"
#include "util/defs.hpp"

namespace pathcas::stm {

template <typename TM, typename K = std::int64_t, typename V = std::int64_t>
class TmInternalBst {
 public:
  struct Node {
    tmword<K> key;
    tmword<V> val;
    tmword<Node*> left;
    tmword<Node*> right;
    Node(K k, V v) : key(k), val(v) {}
  };

  explicit TmInternalBst(TM& tm,
                         recl::EbrDomain& ebr = recl::EbrDomain::instance())
      : tm_(tm), ebr_(ebr) {}

  ~TmInternalBst() { freeSubtree(root_.raw().load()); }

  TmInternalBst(const TmInternalBst&) = delete;
  TmInternalBst& operator=(const TmInternalBst&) = delete;

  bool contains(K key) {
    auto guard = ebr_.pin();
    return elasticAtomically(tm_, [&](auto& tx) {
      int steps = 0;
      Node* cur = tx.read(root_);
      while (cur != nullptr) {
        guardSteps(tx, ++steps);
        const K k = tx.read(cur->key);
        if (key == k) return true;
        cur = (key < k) ? tx.read(cur->left) : tx.read(cur->right);
      }
      return false;
    });
  }

  std::optional<V> get(K key) {
    auto guard = ebr_.pin();
    return elasticAtomically(tm_, [&](auto& tx) -> std::optional<V> {
      int steps = 0;
      Node* cur = tx.read(root_);
      while (cur != nullptr) {
        guardSteps(tx, ++steps);
        const K k = tx.read(cur->key);
        if (key == k) return tx.read(cur->val);
        cur = (key < k) ? tx.read(cur->left) : tx.read(cur->right);
      }
      return std::nullopt;
    });
  }

  bool insert(K key, V val) {
    auto guard = ebr_.pin();
    Node* leaf = new Node(key, val);
    const bool inserted = elasticAtomically(tm_, [&](auto& tx) {
      int steps = 0;
      Node* cur = tx.read(root_);
      if (cur == nullptr) {
        tx.write(root_, leaf);
        return true;
      }
      for (;;) {
        guardSteps(tx, ++steps);
        const K k = tx.read(cur->key);
        if (key == k) return false;
        auto& childRef = (key < k) ? cur->left : cur->right;
        Node* child = tx.read(childRef);
        if (child == nullptr) {
          tx.write(childRef, leaf);
          return true;
        }
        cur = child;
      }
    });
    // Audit: safe direct delete — the transaction returned false, so
    // leaf was never written into the tree (unpublished).
    if (!inserted) delete leaf;
    return inserted;
  }

  bool erase(K key) {
    auto guard = ebr_.pin();
    Node* removed = nullptr;
    const bool erased = elasticAtomically(tm_, [&](auto& tx) {
      removed = nullptr;
      int steps = 0;
      Node* parent = nullptr;
      Node* cur = tx.read(root_);
      while (cur != nullptr) {
        guardSteps(tx, ++steps);
        const K k = tx.read(cur->key);
        if (key == k) break;
        parent = cur;
        cur = (key < k) ? tx.read(cur->left) : tx.read(cur->right);
      }
      if (cur == nullptr) return false;
      Node* const l = tx.read(cur->left);
      Node* const r = tx.read(cur->right);
      if (l != nullptr && r != nullptr) {
        // Two children: splice out the successor, pull its key/value here.
        Node* succParent = cur;
        Node* succ = r;
        for (;;) {
          guardSteps(tx, ++steps);
          Node* next = tx.read(succ->left);
          if (next == nullptr) break;
          succParent = succ;
          succ = next;
        }
        tx.write(cur->key, tx.read(succ->key));
        tx.write(cur->val, tx.read(succ->val));
        Node* const succR = tx.read(succ->right);
        if (succParent == cur) {
          tx.write(cur->right, succR);
        } else {
          tx.write(succParent->left, succR);
        }
        removed = succ;
      } else {
        Node* const child = (l != nullptr) ? l : r;
        if (parent == nullptr) {
          tx.write(root_, child);
        } else if (tx.read(parent->left) == cur) {
          tx.write(parent->left, child);
        } else {
          tx.write(parent->right, child);
        }
        removed = cur;
      }
      return true;
    });
    if (erased && removed != nullptr) ebr_.retire(removed);
    return erased;
  }

  // Quiescent-state helpers for tests/benches.
  std::uint64_t size() const { return count(root_.raw().load()); }
  std::int64_t keySum() const { return sum(root_.raw().load()); }

  double avgKeyDepth() const {
    std::uint64_t depthSum = 0, keys = 0;
    depthWalk(unpackNode(root_.raw().load()), 1, depthSum, keys);
    return keys ? static_cast<double>(depthSum) / static_cast<double>(keys)
                : 0.0;
  }
  std::uint64_t footprintBytes() const {
    return count(root_.raw().load()) * sizeof(Node);
  }

  static std::string name() { return std::string("int-bst-") + TM::name(); }

 private:
  /// Non-opaque backends (Elastic) can send a zombie traversal in circles;
  /// bail out to a retry after an implausible number of steps.
  template <typename Tx>
  static void guardSteps(Tx& tx, int steps) {
    if (PATHCAS_UNLIKELY(steps > kMaxSteps)) tx.abort();
  }
  static constexpr int kMaxSteps = 100000;

  static Node* unpackNode(std::uint64_t raw) {
    return tmword<Node*>::unpack(raw);
  }
  void depthWalk(Node* n, std::uint64_t depth, std::uint64_t& depthSum,
                 std::uint64_t& keys) const {
    if (n == nullptr) return;
    depthSum += depth;
    ++keys;
    depthWalk(unpackNode(n->left.raw().load()), depth + 1, depthSum, keys);
    depthWalk(unpackNode(n->right.raw().load()), depth + 1, depthSum, keys);
  }

  std::uint64_t count(std::uint64_t raw) const {
    Node* n = unpackNode(raw);
    if (n == nullptr) return 0;
    return 1 + count(n->left.raw().load()) + count(n->right.raw().load());
  }
  std::int64_t sum(std::uint64_t raw) const {
    Node* n = unpackNode(raw);
    if (n == nullptr) return 0;
    return static_cast<std::int64_t>(tmword<K>::unpack(n->key.raw().load())) +
           sum(n->left.raw().load()) + sum(n->right.raw().load());
  }
  void freeSubtree(std::uint64_t raw) {
    Node* n = unpackNode(raw);
    if (n == nullptr) return;
    freeSubtree(n->left.raw().load());
    freeSubtree(n->right.raw().load());
    delete n;
  }

  TM& tm_;
  recl::EbrDomain& ebr_;
  tmword<Node*> root_;
};

}  // namespace pathcas::stm
