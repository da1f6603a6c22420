// Sequential *external* (leaf-oriented) BST over a TM backend — the shape of
// Synchrobench's `ext-bst-elastic` ("speculation-friendly" tree minus its
// background rebalancer), used for the Fig. 7 comparison. Keys live in the
// leaves; internal nodes hold routing keys. Insert replaces a leaf with a
// small internal subtree; delete unlinks a leaf and its parent.
//
// Ownership/lifetime: the tree owns its nodes; unlinked leaf/router pairs
// are retired through an injected recl::EbrDomain (default: the process-wide
// instance), so operations must run on registered threads (hold a
// ThreadGuard in worker threads). The destructor frees the whole tree after
// all operations have quiesced.
#pragma once

#include <cstdint>
#include <limits>

#include "recl/ebr.hpp"
#include "stm/common.hpp"
#include "util/defs.hpp"

namespace pathcas::stm {

template <typename TM, typename K = std::int64_t, typename V = std::int64_t>
class TmExternalBst {
 public:
  static constexpr K kInf1 = std::numeric_limits<K>::max() / 4 - 1;
  static constexpr K kInf2 = std::numeric_limits<K>::max() / 4;

  struct Node {
    tmword<K> key;
    tmword<V> val;
    tmword<Node*> left;   // nullptr in both children <=> leaf
    tmword<Node*> right;
    Node(K k, V v) : key(k), val(v) {}
  };

  explicit TmExternalBst(TM& tm,
                         recl::EbrDomain& ebr = recl::EbrDomain::instance())
      : tm_(tm), ebr_(ebr) {
    // Ellen-style sentinel shape: root(inf2) over leaves inf1, inf2. Real
    // keys (all < inf1) descend into root's left subtree.
    root_ = new Node(kInf2, V{});
    root_->left.setInitial(new Node(kInf1, V{}));
    root_->right.setInitial(new Node(kInf2, V{}));
  }

  ~TmExternalBst() { freeSubtree(root_); }

  TmExternalBst(const TmExternalBst&) = delete;
  TmExternalBst& operator=(const TmExternalBst&) = delete;

  bool contains(K key) {
    PATHCAS_DCHECK(key < kInf1);
    auto guard = ebr_.pin();
    return elasticAtomically(tm_, [&](auto& tx) {
      int steps = 0;
      Node* leaf = root_;
      Node* next = tx.read(leaf->left);
      while (next != nullptr) {  // descend to a leaf
        if (PATHCAS_UNLIKELY(++steps > kMaxSteps)) tx.abort();
        leaf = next;
        next = (key < tx.read(leaf->key)) ? tx.read(leaf->left)
                                          : tx.read(leaf->right);
      }
      return tx.read(leaf->key) == key;
    });
  }

  bool insert(K key, V val) {
    PATHCAS_DCHECK(key < kInf1);
    auto guard = ebr_.pin();
    Node* newLeaf = new Node(key, val);
    Node* newInternal = new Node(K{}, V{});
    const bool inserted = elasticAtomically(tm_, [&](auto& tx) {
      int steps = 0;
      Node* parent = root_;
      Node* leaf = tx.read(parent->left);
      while (tx.read(leaf->left) != nullptr) {
        if (PATHCAS_UNLIKELY(++steps > kMaxSteps)) tx.abort();
        parent = leaf;
        leaf = (key < tx.read(leaf->key)) ? tx.read(leaf->left)
                                          : tx.read(leaf->right);
      }
      const K leafKey = tx.read(leaf->key);
      if (leafKey == key) return false;
      // Replace leaf with internal(max) over {newLeaf, leaf} ordered by key.
      newInternal->key.setInitial(std::max(key, leafKey));
      if (key < leafKey) {
        newInternal->left.setInitial(newLeaf);
        newInternal->right.setInitial(leaf);
      } else {
        newInternal->left.setInitial(leaf);
        newInternal->right.setInitial(newLeaf);
      }
      if (tx.read(parent->left) == leaf) {
        tx.write(parent->left, newInternal);
      } else {
        tx.write(parent->right, newInternal);
      }
      return true;
    });
    // Audit: safe direct deletes — the transaction returned false, so
    // neither node was written into the tree (unpublished).
    if (!inserted) {
      delete newLeaf;
      delete newInternal;
    }
    return inserted;
  }

  bool erase(K key) {
    PATHCAS_DCHECK(key < kInf1);
    auto guard = ebr_.pin();
    Node* removedLeaf = nullptr;
    Node* removedParent = nullptr;
    const bool erased = elasticAtomically(tm_, [&](auto& tx) {
      removedLeaf = removedParent = nullptr;
      int steps = 0;
      Node* gparent = nullptr;
      Node* parent = root_;
      Node* leaf = tx.read(parent->left);
      while (tx.read(leaf->left) != nullptr) {
        if (PATHCAS_UNLIKELY(++steps > kMaxSteps)) tx.abort();
        gparent = parent;
        parent = leaf;
        leaf = (key < tx.read(leaf->key)) ? tx.read(leaf->left)
                                          : tx.read(leaf->right);
      }
      if (tx.read(leaf->key) != key) return false;
      PATHCAS_CHECK(gparent != nullptr);  // sentinels are never deleted
      Node* const sibling = (tx.read(parent->left) == leaf)
                                ? tx.read(parent->right)
                                : tx.read(parent->left);
      if (tx.read(gparent->left) == parent) {
        tx.write(gparent->left, sibling);
      } else {
        tx.write(gparent->right, sibling);
      }
      removedLeaf = leaf;
      removedParent = parent;
      return true;
    });
    if (erased) {
      ebr_.retire(removedLeaf);
      ebr_.retire(removedParent);
    }
    return erased;
  }

  std::uint64_t size() const {
    return countKeys(root_) - 2;  // exclude the two sentinel leaves
  }
  std::int64_t keySum() const { return sumKeys(root_); }

  static std::string name() { return std::string("ext-bst-") + TM::name(); }

 private:
  static constexpr int kMaxSteps = 100000;

  static Node* load(const tmword<Node*>& w) {
    return tmword<Node*>::unpack(w.raw().load());
  }
  std::uint64_t countKeys(Node* n) const {
    if (n == nullptr) return 0;
    if (load(n->left) == nullptr) return 1;  // leaf
    return countKeys(load(n->left)) + countKeys(load(n->right));
  }
  std::int64_t sumKeys(Node* n) const {
    if (n == nullptr) return 0;
    if (load(n->left) == nullptr) {
      const K k = tmword<K>::unpack(n->key.raw().load());
      return (k >= kInf1) ? 0 : static_cast<std::int64_t>(k);
    }
    return sumKeys(load(n->left)) + sumKeys(load(n->right));
  }
  void freeSubtree(Node* n) {
    if (n == nullptr) return;
    freeSubtree(load(n->left));
    freeSubtree(load(n->right));
    delete n;
  }

  TM& tm_;
  recl::EbrDomain& ebr_;
  Node* root_;
};

}  // namespace pathcas::stm
