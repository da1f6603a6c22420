// The internal-BST core shared by the two PathCAS trees: the internal BST of
// §4 (Algorithms 3-6) and the relaxed AVL tree of §4.2, which the paper
// builds as that BST plus parent pointers, heights and rebalancing (this
// AVL tree keeps no parent pointers; see Chain below).
// IntBstPathCas and IntAvlPathCas derive from InternalTreeCore<Derived,
// Node, K, V> (CRTP), so the trees differ only where their algorithms do.
//
// The core owns the sentinels, the EBR and pool members, the reads, the
// range scans, per-op insert and erase, and the one batch engine behind
// insertBatch, eraseBatch and updateBatch. Each tree keeps its node type.
// A batch chunk unlinks a matched leaf or one-child node in place; the
// other removals defer to erase() after the chunk commits, except a
// two-child match in a singleton partition, which goes to
// stageEraseTwoChild: the core's defers, the BST hides it with the in-batch
// successor swap. The core calls into a tree only through:
//   Chain — what an update records of its search for afterCommit: the
//       nodes it stepped through, minRoot first (AVL: AncestorChain), or
//       nothing (BST: NoChain, so its updates compile as unrecorded);
//   afterCommit(chain) — after a committed update changed the child slots
//       of chain's last node (AVL: the rebalancing walk, which climbs the
//       chain; BST: nothing);
//   static adopt(n, l, r) — finish a node of a prebuilt batch subtree whose
//       children l and r are final (AVL: its height; BST: nothing).
// A rotation between two reads can show a traversal one node in two roles;
// the KCAS refuses an op that then stages that node's words twice, and the
// update retries like any other failed commit.
//
// Structure: two sentinels — maxRoot (key +inf) whose left child is minRoot
// (key -inf); all real keys live in minRoot's right subtree. Every node
// carries a PathCAS version word; nodes are unlinked and marked in the same
// atomic PathCAS (so reachability == unmarked), and retired through EBR.
// A node holds both child links in one word, `kids`: two slot indices into
// the tree's NodePool (Kids below). A search reads one child word per
// level, and an update stages one kids entry per node it relinks, however
// many of that node's children change.
//
// Linearizability follows the paper's appendix E argument: every update
// either performs a successful PathCAS whose validation/entries pin the
// relevant part of the structure, or returns after a validated search
// established an atomic snapshot of the search path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "pathcas/pathcas.hpp"
#include "recl/ebr.hpp"
#include "recl/pool.hpp"
#include "util/defs.hpp"

namespace pathcas::ds {

/// Aggregate structural statistics (quiescent-state only), used by the
/// benchmark harness for keysum validation and the Fig. 5 factor analysis.
struct TreeStats {
  std::uint64_t size = 0;          // keys logically present
  std::uint64_t nodeCount = 0;     // allocated reachable nodes
  std::uint64_t height = 0;
  double avgKeyDepth = 0.0;
  std::int64_t keySum = 0;
  std::uint64_t footprintBytes = 0;  // nodeCount * sizeof(Node)
  /// Mean number of 64 B lines a node's search-hot words (ver through
  /// kids) span, from the addresses of the reachable nodes: the lines one
  /// visited node costs a search.
  double hotLinesPerNode = 0.0;
};

/// A node's two child links in one word (its `kids` casword): the left
/// child's slot index in the tree's NodePool in bits 0-29, the right
/// child's in bits 30-59, and 0 for a null child (the pool never hands out
/// slot 0). Two pointers would not fit one casword payload; two indices
/// do, so one load reads both children and one entry relinks both.
using Kids = std::uint64_t;
inline constexpr int kKidBits = recl::kArenaIndexBits;
inline constexpr Kids kKidMask = (Kids{1} << kKidBits) - 1;
static_assert(2 * kKidBits <= 61, "both indices must fit a casword payload");

/// The slot index of the child on side `right` (the right child if true).
constexpr std::uint32_t kid(Kids k, bool right) {
  return static_cast<std::uint32_t>((k >> (right ? kKidBits : 0)) & kKidMask);
}

/// k with the child on side `right` replaced by slot index i.
constexpr Kids withKid(Kids k, bool right, std::uint32_t i) {
  const int shift = right ? kKidBits : 0;
  return (k & ~(kKidMask << shift)) | (Kids{i} << shift);
}

/// Bytes of a node's search-hot words: ver, key and kids.
inline constexpr std::size_t kSearchHotBytes = 3 * sizeof(k::word_t);

/// True iff Node keeps its search-hot words in its first kSearchHotBytes.
/// A 32 B node starts on a 32 B boundary of its pool's arena, so it then
/// reads one line per visit. Each tree asserts it next to its node type.
template <typename Node>
constexpr bool searchHotFirst() {
  return offsetof(Node, ver) < kSearchHotBytes &&
         offsetof(Node, key) < kSearchHotBytes &&
         offsetof(Node, kids) < kSearchHotBytes;
}

/// The Chain of a tree whose afterCommit climbs nothing (the BST): records
/// nothing, so its updates compile as if they recorded no chain.
template <typename Node>
struct NoChain {
  void clear() {}
  void push(Node*) {}
  void resize(std::size_t) {}
  std::size_t size() const { return 0; }
  void appendTo(std::vector<Node*>&) const {}
  template <typename It>
  void assign(It, It) {}
};

/// The nodes an update's search stepped through, minRoot first: the
/// ancestors of the node (or null slot) it stopped at. The AVL's
/// rebalancing walk climbs them. A search visits at most kMaxVisited nodes,
/// so no chain holds more.
template <typename Node>
class AncestorChain {
 public:
  AncestorChain() {}  // nodes_ stays uninitialized: only [0, size_) is read
  void clear() { size_ = 0; }
  void push(Node* n) {
    PATHCAS_DCHECK(size_ < static_cast<std::size_t>(kMaxVisited));
    nodes_[size_++] = n;
  }
  void pop() { --size_; }
  void resize(std::size_t n) { size_ = n; }
  std::size_t size() const { return size_; }
  Node* operator[](std::size_t i) const { return nodes_[i]; }
  Node* back() const { return nodes_[size_ - 1]; }
  Node* const* begin() const { return nodes_; }
  Node* const* end() const { return nodes_ + size_; }
  void appendTo(std::vector<Node*>& out) const {
    out.insert(out.end(), begin(), end());
  }
  template <typename It>
  void assign(It first, It last) {
    size_ = static_cast<std::size_t>(std::copy(first, last, nodes_) - nodes_);
  }

 private:
  Node* nodes_[kMaxVisited];
  std::size_t size_ = 0;
};

/// Configuration knobs (the §4.1 ablation).
struct IntBstOptions {
  /// Skip validation when contains/insert finds the key (§4.1) and use exec
  /// instead of vexec for leaf/one-child deletions.
  bool reduceValidation = true;
  /// Route updates through the HTM fast path (the paper's int-bst-pathcas+).
  bool useHtmFastPath = false;
  /// Max logical ops staged into one wide KCAS by insertBatch/eraseBatch/
  /// updateBatch before the sorted run is chunked into separate commits.
  /// Values <= 1 degrade batches to per-op commits; small values force
  /// deterministic splits (tests). 32 amortizes the per-commit fixed costs
  /// further than 16 while still fitting the staging budget for trees up to
  /// ~12 levels; deeper trees overflow the budget and split gracefully.
  int batchOpsPerCommit = 32;
};

template <typename Derived, typename Node, typename K, typename V>
class InternalTreeCore {
 public:
  static_assert(std::is_integral_v<K> && std::is_integral_v<V>);
  static_assert(recl::NodePool<Node>::arenaSlots() <= kKidMask + 1,
                "every slot index must fit its half of a kids word");
  /// Exposed for generic frontends (service/sharded_map.hpp).
  using KeyType = K;
  using ValueType = V;
  using OptionsType = IntBstOptions;
  /// Sentinel keys; user keys must lie strictly between them.
  static constexpr K kNegInf = std::numeric_limits<K>::min() / 4;
  static constexpr K kPosInf = std::numeric_limits<K>::max() / 4;

  explicit InternalTreeCore(IntBstOptions options = {},
                            recl::EbrDomain& ebr = recl::EbrDomain::instance(),
                            recl::NodePool<Node>* pool = nullptr)
      : opt_(options), ebr_(ebr), pool_(pool ? *pool : recl::defaultPool<Node>()) {
    maxRoot_ = pool_.alloc(kPosInf, V{});
    minRoot_ = pool_.alloc(kNegInf, V{});
    maxRoot_->kids.setInitial(relink(0, false, minRoot_));
  }

  InternalTreeCore(const InternalTreeCore&) = delete;
  InternalTreeCore& operator=(const InternalTreeCore&) = delete;

  /// True iff key is in the set. Validation is skipped on found keys when
  /// reduceValidation is on (§4.1: a reachable node was unmarked, hence in
  /// the set at some time during the operation).
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

  /// Returns the value associated with key, if present (linearized at the
  /// value read).
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
      // §4.1 covers membership, but not the value: a concurrent two-child
      // erase replaces this node's key AND value in place (successor swap),
      // so a bare val load here could return the successor's value under
      // the searched key. The swap always bumps curr's version, so
      // re-reading the version AFTER the value load (acquire loads — the
      // re-read cannot move before the val load) proves ⟨key, val⟩ was
      // read as one intact pair; a mismatch re-traverses.
      const V val = s.curr->val.load();
      if (s.curr->ver.load() == s.currVer) return val;
    }
  }

  /// Linearizable range query: append every (key, value) pair with
  /// lo <= key <= hi to `out`, in ascending key order; returns the number of
  /// pairs appended. The traversal visits every node it examines (the same
  /// ⟨node, version⟩ recording a vexec path uses), then revalidates the whole
  /// visited set: optimistic with bounded retries, escalating to the §3.5
  /// strong path, so scans cannot starve on spurious conflicts. The AVL's
  /// rotations retarget pointers of visited nodes only with a version bump,
  /// so a validated scan is an atomic snapshot even while rebalancing runs.
  /// Scans that would examine more than pathcas::kMaxVisited nodes are out
  /// of contract (footnote 2) — bound the range accordingly.
  std::size_t rangeQuery(K lo, K hi, std::vector<std::pair<K, V>>& out) {
    PATHCAS_DCHECK(lo > kNegInf && hi < kPosInf);
    if (lo > hi) return 0;
    auto guard = ebr_.pin();
    const std::size_t base = out.size();
    for (;;) {
      start();
      visit(minRoot_);  // pins the root link (minRoot_'s right child)
      collectRange(root(), lo, hi, out);
      if (vval()) return out.size() - base;
      out.resize(base);  // torn attempt: discard and re-traverse
    }
  }

  /// One validated scan ATTEMPT that additionally hands every visited
  /// ⟨version-word, observed-encoding⟩ pair to `cap(k::AtomicWord*,
  /// k::word_t)` — the raw material for the sharded map's cross-shard
  /// linearization protocol (phase-2 revalidation of all shards' scans
  /// together). The capture necessarily runs BEFORE validation, because
  /// validateVisited may consume the staging area through the §3.5 strong
  /// path; a true return retroactively blesses the captured pairs (they
  /// formed an atomic snapshot), a false return obliges the caller to
  /// discard them (out's tail is already discarded here). Unlike
  /// rangeQuery, this does not retry internally: a multi-shard caller must
  /// redo all shards together, so it owns the retry loop.
  template <typename Cap>
  bool rangeQueryCapture(K lo, K hi, std::vector<std::pair<K, V>>& out,
                         Cap&& cap) {
    PATHCAS_DCHECK(lo > kNegInf && hi < kPosInf);
    if (lo > hi) return true;
    auto guard = ebr_.pin();
    const std::size_t base = out.size();
    start();
    visit(minRoot_);  // pins the root link (minRoot_'s right child)
    collectRange(root(), lo, hi, out);
    domain().forEachStagedPath(cap);
    if (vval()) return true;
    out.resize(base);
    return false;
  }

  /// insertIfAbsent (Algorithm 4). Returns false iff key was already present.
  bool insert(K key, V val) {
    PATHCAS_DCHECK(key > kNegInf && key < kPosInf);
    auto guard = ebr_.pin();
    Node* leaf = nullptr;
    typename Derived::Chain chain;
    for (;;) {
      start();
      const SearchResult s = search(key, chain);
      if (s.found) {
        if (opt_.reduceValidation || validate()) {
          // Never published (no add() committed it): direct recycle is safe.
          if (leaf != nullptr) pool_.destroy(leaf);
          return false;
        }
        continue;
      }
      if (leaf == nullptr) leaf = pool_.alloc(key, val);
      const K parentKey = s.parent->key;
      add(s.parent->kids, s.parentKids,
          relink(s.parentKids, key > parentKey, leaf));
      addVer(s.parent->ver, s.parentVer, verBump(s.parentVer));
      if (vex()) {
        self().afterCommit(chain);
        return true;
      }
    }
  }

  /// delete(key) (Algorithm 6). Returns false iff key was absent.
  bool erase(K key) {
    PATHCAS_DCHECK(key > kNegInf && key < kPosInf);
    auto guard = ebr_.pin();
    typename Derived::Chain chain;
    for (;;) {
      start();
      const SearchResult s = search(key, chain);
      if (!s.found) {
        if (validate()) return false;
        continue;
      }
      if (isMarked(s.currVer) || isMarked(s.parentVer)) continue;
      Node* curr = s.curr;
      Node* parent = s.parent;
      const Kids currKids = curr->kids.load();
      Node* const currLeft = childOf(currKids, false);
      Node* const currRight = childOf(currKids, true);

      if (currLeft == nullptr || currRight == nullptr) {
        // Leaf or one-child deletion: splice the child (null for a leaf)
        // into curr's place, and mark curr.
        Node* childToKeep = (currLeft == nullptr) ? currRight : currLeft;
        add(parent->kids, s.parentKids,
            relink(s.parentKids, isRightChild(s.parentKids, curr),
                   childToKeep));
        addVer(parent->ver, s.parentVer, verBump(s.parentVer));
        addVer(curr->ver, s.currVer, verMark(s.currVer));
        if (execOrVex()) {
          ebr_.retire(curr, pool_);
          self().afterCommit(chain);
          return true;
        }
      } else {
        // Two-child deletion: replace curr's key/value with its successor's,
        // then unlink the successor (which has no left child).
        const Successor su = getSuccessor(curr, s.currVer, currKids, chain);
        if (su.succ == nullptr || isMarked(su.succVer) ||
            isMarked(su.succPVer)) {
          continue;
        }
        Node* const succR = childOf(su.succKids, true);
        if (succR != nullptr) {
          const Version succRVer = visit(succR);
          if (isMarked(succRVer)) continue;
        }
        add(su.succP->kids, su.succPKids,
            relink(su.succPKids, isRightChild(su.succPKids, su.succ), succR));
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
          self().afterCommit(chain);
          return true;
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // Batched updates (group commit). One shared traversal stages every op
  // of a sorted key run into a single wide KCAS, amortizing descriptor
  // publication and re-validation of the common path prefix across the
  // run. Chunks wider than batchOpsPerCommit — and chunks that overflow
  // the staging budget or keep losing their commit — are split in half
  // and retried, degrading to per-op insert()/erase() at width 1, so a
  // conflicted batch can never livelock the per-op fast paths. The three
  // APIs run one engine (runBatch) and differ only in their op kinds. See
  // the "Batched commits" section of docs/ARCHITECTURE.md.
  // ------------------------------------------------------------------

  /// insertIfAbsent over a strictly-ascending key run. outcomes[i] is set
  /// true iff keys[i] was inserted (false: already present); returns the
  /// number of insertions. All ops of one committed chunk linearize at its
  /// single KCAS; separate chunks linearize independently, in key order.
  std::size_t insertBatch(const K* keys, const V* vals, std::size_t n,
                          bool* outcomes) {
    return runBatch(
        {.keys = keys, .vals = vals, .allInsert = true, .out = outcomes}, n);
  }

  /// delete over a strictly-ascending key run. outcomes[i] is set true iff
  /// keys[i] was removed (false: absent); returns the number of removals.
  /// Leaf and one-child removals are staged into the chunk's wide KCAS; the
  /// rest — removals whose node was already touched by the same chunk (a
  /// child slot swing staged on it), and two-child shapes the tree does not
  /// stage — fall back to per-op erase() immediately after the chunk
  /// commits.
  std::size_t eraseBatch(const K* keys, std::size_t n, bool* outcomes) {
    return runBatch({.keys = keys, .out = outcomes}, n);
  }

  /// Mixed update over a strictly-ascending key run: op i inserts
  /// (isInsert[i]) or erases keys[i]. One shared traversal stages the whole
  /// chunk — both op kinds — into a single wide KCAS, so a netted
  /// group-commit window pays one descent and one descriptor instead of an
  /// erase pass plus an insert pass. outcomes[i] is set true iff op i took
  /// effect (key inserted / removed); returns the number of effective ops.
  std::size_t updateBatch(const K* keys, const V* vals, const bool* isInsert,
                          std::size_t n, bool* outcomes) {
    return runBatch(
        {.keys = keys, .vals = vals, .isInsert = isInsert, .out = outcomes},
        n);
  }

#ifdef PATHCAS_TEST_HOOKS
  /// Test builds only: the calling thread's stall point. The AVL's walk
  /// calls it at each step (kWalkStep), after reading the step's node's
  /// children and their versions, before it commits; the batch walk at each
  /// frame (kBatchFrame), after reading the frame's child slots, before it
  /// reads the children's.
  enum class Stall { kWalkStep, kBatchFrame };
  static inline thread_local std::function<void(Stall, const Node*)> stallHook;
#endif

  // ------------------------------------------------------------------
  // Quiescent-state inspection (tests and the benchmark harness only).
  // ------------------------------------------------------------------

  /// Walk the tree checking BST order, sentinel structure and that no
  /// reachable node is marked. Aborts (PATHCAS_CHECK) on violations.
  /// Returns statistics. The AVL's own checkInvariants(bool) adds its checks.
  TreeStats checkInvariants() const {
    return walkInvariants([](Node*) {});
  }

  std::uint64_t size() const { return self().checkInvariants().size; }
  std::int64_t keySum() const { return self().checkInvariants().keySum; }

  /// In-order traversal (quiescent), for oracle comparison in tests.
  void forEach(const std::function<void(K, V)>& f) const {
    forEachRec(root(), f);
  }

 protected:
  ~InternalTreeCore() {
    // Quiescent-teardown exception: no thread can be pinned on this tree
    // anymore, so reachable nodes go straight back to the pool (no EBR).
    freeSubtree(root());
    pool_.destroy(minRoot_);
    pool_.destroy(maxRoot_);
  }

  /// parentKids is the kids word the search read from parent, after
  /// visiting it at parentVer (so staging an entry on it is checked by
  /// both that entry and parentVer).
  struct SearchResult {
    bool found;
    Node* curr;
    Version currVer;
    Node* parent;
    Version parentVer;
    Kids parentKids;
  };
  /// Each kids word as read after its node's visit.
  struct Successor {
    Node* succ;
    Version succVer;
    Kids succKids;
    Node* succP;
    Version succPVer;
    Kids succPKids;
  };

  Derived& self() { return static_cast<Derived&>(*this); }
  const Derived& self() const { return static_cast<const Derived&>(*this); }

  /// The child on side `right` (the right child if true) of a node whose
  /// kids word is k.
  Node* childOf(Kids k, bool right) const { return pool_.at(kid(k, right)); }

  /// k with the child on side `right` replaced by c (null allowed).
  Kids relink(Kids k, bool right, const Node* c) const {
    return withKid(k, right, pool_.indexOf(c));
  }

  /// True iff c is the right child in k (c must be one of k's children).
  bool isRightChild(Kids k, const Node* c) const {
    return kid(k, true) == pool_.indexOf(c);
  }

  /// The root of the key tree: minRoot's right child.
  Node* root() const { return childOf(minRoot_->kids.load(), true); }

  /// Warm both children of n (PATHCAS_PREFETCH: a hint only). Like
  /// pathcas::prefetch, it samples n's kids word with a raw relaxed load —
  /// it may be mid-flight or immediately stale — and skips a word holding a
  /// descriptor; traversals re-read the word after visiting n. A null child
  /// prefetches slot 0 instead of taking a branch: near the leaves a null
  /// test there mispredicts often, a measurable cost on cache-resident trees.
  void prefetchKids(const Node* n) const {
    const k::word_t raw = n->kids.addr()->load(std::memory_order_relaxed);
    if (!k::isDescriptor(raw)) {
      const Kids kids = k::decodeVal(raw);
      PATHCAS_PREFETCH(pool_.slotAddress(kid(kids, false)));
      PATHCAS_PREFETCH(pool_.slotAddress(kid(kids, true)));
    }
  }

  /// Algorithm 3: traditional BST search, visiting every node traversed.
  SearchResult search(K key) {
    NoChain<Node> none;
    return descend(key, none);
  }

  /// The search of an update, which also records in `chain` the nodes it
  /// steps through, from minRoot to the result's parent. A NoChain takes
  /// search() itself, so the BST's updates and its reads share one search.
  template <typename Chain>
  SearchResult search(K key, Chain& chain) {
    if constexpr (std::is_same_v<Chain, NoChain<Node>>) {
      return search(key);
    } else {
      return descend(key, chain);
    }
  }

  /// Both searches' loop. Always inlined, so search() compiles as if it
  /// had the loop to itself.
  template <typename Chain>
  [[gnu::always_inline]] SearchResult descend(K key, Chain& chain) {
    chain.clear();
    Node* parent = maxRoot_;
    Version parentVer = visit(parent);
    Kids parentKids = 0;
    Node* curr = minRoot_;
    Version currVer = visit(curr);
    while (curr != nullptr) {
      const K currKey = curr->key;
      if (key == currKey)
        return {true, curr, currVer, parent, parentVer, parentKids};
      chain.push(curr);
      const Kids kids = curr->kids.load();
      parent = curr;
      parentVer = currVer;
      parentKids = kids;
      curr = childOf(kids, key > currKey);
      if (curr != nullptr) {
        // Warm the likely-next level while visit() pays this node's
        // validation cost (PATHCAS_PREFETCH: hint only, re-read after).
        prefetchKids(curr);
        currVer = visit(curr);
      }
    }
    return {false, nullptr, 0, parent, parentVer, parentKids};
  }

  /// Algorithm 5: locate the successor of start (whose kids word, read
  /// after visiting it at startVer, is startKids), visiting the traversed
  /// nodes, and extend `chain` from start to the successor's parent.
  template <typename Chain>
  Successor getSuccessor(Node* start, Version startVer, Kids startKids,
                         Chain& chain) {
    Node* succP = start;
    Version succPVer = startVer;
    Kids succPKids = startKids;
    Node* succ = childOf(startKids, true);
    if (succ == nullptr) return {nullptr, 0, 0, nullptr, 0, 0};
    chain.push(start);
    Version succVer = visit(succ);
    for (;;) {
      const Kids succKids = succ->kids.load();
      Node* next = childOf(succKids, false);
      if (next == nullptr)
        return {succ, succVer, succKids, succP, succPVer, succPKids};
      chain.push(succ);
      succP = succ;
      succPVer = succVer;
      succPKids = succKids;
      succ = next;
      prefetchKids(succ);
      succVer = visit(next);
    }
  }

  // --- batch engine -------------------------------------------------

  /// Attempts per chunk before splitting; conflicts under contention are
  /// expected, and halving converges to the per-op paths quickly.
  static constexpr int kBatchRetries = 3;
  /// Combined path+entries budget for one chunk. vexec's strong path merges
  /// the visited set into the entry array (cap k::DefaultDomain::kMaxEntries),
  /// so a batch must leave headroom below that cap or the escalation would
  /// overflow.
  static constexpr int kBatchStageBudget =
      static_cast<int>(k::DefaultDomain::kMaxEntries) - 16;

  enum class StageStatus {
    kOk,
    kRetry,    // transient (marked node seen): same width, fresh traversal
    kOverflow  // staging budget: deterministic, split without retrying
  };

  /// `dom` is the call's cached domain reference: the probe runs once per
  /// visited node, and re-resolving the thread-local domain each time costs
  /// more than the comparison itself.
  static bool stageBudgetLeft(k::DefaultDomain& dom, int need = 1) {
    return dom.stagedFootprint() + need <= kBatchStageBudget;
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

  /// One batch call: its ops, and what the current chunk attempt staged.
  /// The vectors serve every chunk and split-in-half retry of the call.
  struct BatchScratch {
    const K* keys = nullptr;
    const V* vals = nullptr;         // read for insert ops only
    const bool* isInsert = nullptr;  // per-op kinds (updateBatch), or null:
    bool allInsert = false;          // then every op has this one kind
    bool* out = nullptr;
    k::DefaultDomain* dom = nullptr;  // cached once per call (budget probes)
    std::vector<std::size_t> staged{};    // ops this attempt staged
    std::vector<std::size_t> deferred{};  // erases run per-op after commit
    std::vector<Node*> built{};   // unpublished subtree roots (freed on abort)
    std::vector<Node*> unlink{};  // staged-out nodes (retired on commit)
    // The ancestors of the node being staged, minRoot first (the walk's
    // stack; a failed attempt leaves it dirty, and each attempt clears it).
    typename Derived::Chain chain{};
    // afterCommit chains back to back, each from minRoot (which no chain
    // holds twice) to its repair root: an attach point or the parent of an
    // unlinked node.
    std::vector<Node*> repair{};

    bool insertOp(std::size_t i) const {
      return isInsert != nullptr ? isInsert[i] : allInsert;
    }
    bool onlyInserts(std::size_t lo, std::size_t hi) const {
      if (isInsert == nullptr) return allInsert;
      return std::all_of(isInsert + lo, isInsert + hi, [](bool b) { return b; });
    }
    void clear() {
      staged.clear();
      deferred.clear();
      built.clear();
      unlink.clear();
      repair.clear();
    }
  };

  struct EraseFrame {
    bool removed = false;
    Node* repl = nullptr;  // what the parent should swing its slot to
  };

  std::size_t runBatch(BatchScratch sc, std::size_t n) {
    checkBatchKeys(sc.keys, n);
    std::fill_n(sc.out, n, false);
    sc.dom = &domain();
    const std::size_t chunk =
        opt_.batchOpsPerCommit > 1
            ? static_cast<std::size_t>(opt_.batchOpsPerCommit)
            : 1;
    std::size_t applied = 0;
    for (std::size_t lo = 0; lo < n; lo += chunk)
      applied += batchRun(lo, std::min(lo + chunk, n), sc);
    return applied;
  }

  /// Stage ops [lo, hi) as one chunk and commit it; returns the number of
  /// ops that took effect.
  std::size_t batchRun(std::size_t lo, std::size_t hi, BatchScratch& sc) {
    if (hi - lo == 1) {  // degraded to the per-op commit (k=1 fast path)
      const K key = sc.keys[lo];
      sc.out[lo] = sc.insertOp(lo) ? insert(key, sc.vals[lo]) : erase(key);
      return sc.out[lo] ? 1u : 0u;
    }
    auto guard = ebr_.pin();
    // A chunk that stages nothing still needs a validated traversal as the
    // witness of its absent erase keys (same rule as erase()); a chunk of
    // present inserts alone skips it under §4.1, as insert() does.
    const bool witness = !(opt_.reduceValidation && sc.onlyInserts(lo, hi));
    for (int attempt = 0; attempt < kBatchRetries; ++attempt) {
      start();
      const Version rootVer = visit(minRoot_);
      sc.chain.clear();
      EraseFrame rootFrame;
      const StageStatus s =
          stageBatchNode(minRoot_, rootVer, lo, hi, sc, rootFrame);
      PATHCAS_DCHECK(!rootFrame.removed);  // minRoot's key is a sentinel
      if (s == StageStatus::kOk &&
          (sc.staged.empty() ? !witness || validate() : vex()))
        return finishBatchRun(sc);
      discardBatchAttempt(sc);
      // Overflow is deterministic: retrying the same width cannot help.
      if (s == StageStatus::kOverflow) break;
    }
    const std::size_t mid = lo + (hi - lo) / 2;  // split-and-retry
    return batchRun(lo, mid, sc) + batchRun(mid, hi, sc);
  }

  std::size_t finishBatchRun(BatchScratch& sc) {
    for (Node* dead : sc.unlink) ebr_.retire(dead, pool_);
    // An attached subtree is internally balanced but may unbalance the path
    // above its attach point, and an unlink shortens the path above its
    // parent: repair from there (the AVL's Bougé walk-up), in staging order.
    typename Derived::Chain chain;
    for (auto first = sc.repair.begin(); first != sc.repair.end();) {
      const auto last = std::find(first + 1, sc.repair.end(), minRoot_);
      chain.assign(first, last);
      self().afterCommit(chain);
      first = last;
    }
    std::size_t applied = sc.staged.size();
    for (std::size_t i : sc.staged) sc.out[i] = true;
    for (std::size_t i : sc.deferred) {
      sc.out[i] = erase(sc.keys[i]);
      if (sc.out[i]) ++applied;
    }
    sc.clear();  // the built subtrees are shared now
    return applied;
  }

  void discardBatchAttempt(BatchScratch& sc) {
    for (Node* n : sc.built) freeSubtree(n);
    sc.clear();
  }

  /// Stage ops [lo, hi) under `node` (already visited at nodeVer by the
  /// caller). The ops partition around node->key and recurse left and
  /// right, so ops sharing a path prefix share its visit()s. Bottom-up: a
  /// removed child reports its replacement through `fr`, and the parent
  /// stages the relink plus its own single version bump, so no address is
  /// staged twice: both partitions relink into one copy of node's kids
  /// word, which takes one entry even when both of node's children change.
  /// An insert match is a present key (outcome false). An erase match is
  /// unlinked in-batch only when it has at most one child AND none of its
  /// children were relinked by this same chunk (otherwise the splice would
  /// race the staged edit); the rest defer to per-op erase(). Keys
  /// partitioned into a null child slot are absent erases or new inserts.
  StageStatus stageBatchNode(Node* node, Version nodeVer, std::size_t lo,
                             std::size_t hi, BatchScratch& sc,
                             EraseFrame& fr) {
    if (isMarked(nodeVer)) return StageStatus::kRetry;
    const K nodeKey = node->key;
    const std::size_t mid = static_cast<std::size_t>(
        std::lower_bound(sc.keys + lo, sc.keys + hi, nodeKey) - sc.keys);
    const bool matched = mid < hi && sc.keys[mid] == nodeKey;
    const std::size_t rlo = matched ? mid + 1 : mid;
    const bool eraseMatch = matched && !sc.insertOp(mid);
    const Kids kids = node->kids.load();
    Node* const left = childOf(kids, false);
    Node* const right = childOf(kids, true);
#ifdef PATHCAS_TEST_HOOKS
    if (stallHook) stallHook(Stall::kBatchFrame, node);
#endif
    Kids relinked = kids;
    sc.chain.push(node);  // the children's ancestors end at node
    if (lo < mid) {
      const StageStatus s = stageBatchChild(left, false, lo, mid, sc, relinked);
      if (s != StageStatus::kOk) return s;
    }
    if (rlo < hi) {
      const StageStatus s = stageBatchChild(right, true, rlo, hi, sc, relinked);
      if (s != StageStatus::kOk) return s;
    }
    const bool childStaged = relinked != kids;
    if (eraseMatch) {
      if (childStaged || (left != nullptr && right != nullptr)) {
        sc.deferred.push_back(mid);
      } else {
        if (!stageBudgetLeft(*sc.dom, 2)) return StageStatus::kOverflow;
        // Mark node; the parent frame relinks it and bumps its own
        // version. Matches the per-op entry set exactly.
        addVer(node->ver, nodeVer, verMark(nodeVer));
        fr.removed = true;
        fr.repl = (left != nullptr) ? left : right;
        sc.unlink.push_back(node);
        sc.staged.push_back(mid);
        return StageStatus::kOk;
      }
    }
    if (childStaged) {
      if (!stageBudgetLeft(*sc.dom, 2)) return StageStatus::kOverflow;
      add(node->kids, kids, relinked);
      addVer(node->ver, nodeVer, verBump(nodeVer));
    }
    return StageStatus::kOk;
  }

  /// Stage ops [lo, hi) into the child on side `right` of sc.chain's last
  /// node, which held `child`, and record a change of that child in
  /// `relinked`, the node's kids word to be. That node is the repair root
  /// of the change.
  StageStatus stageBatchChild(Node* child, bool right, std::size_t lo,
                              std::size_t hi, BatchScratch& sc,
                              Kids& relinked) {
    if (child != nullptr) {
      if (!stageBudgetLeft(*sc.dom)) return StageStatus::kOverflow;
      const Version childVer = visit(child);
      EraseFrame cf;
      const std::size_t depth = sc.chain.size();
      const StageStatus s =
          hi - lo > 1       ? stageBatchNode(child, childVer, lo, hi, sc, cf)
          : sc.insertOp(lo) ? stageInsertOne(child, childVer, lo, sc)
                            : stageEraseOne(child, childVer, lo, sc, cf);
      if (s != StageStatus::kOk) return s;
      sc.chain.resize(depth);
      if (cf.removed) {
        relinked = relink(relinked, right, cf.repl);
        sc.chain.appendTo(sc.repair);
      }
      return StageStatus::kOk;
    }
    // Null slot: the partition's inserts become one prebuilt subtree; its
    // erase keys are absent, witnessed by the validated path.
    const std::size_t first = sc.staged.size();
    for (std::size_t i = lo; i < hi; ++i)
      if (sc.insertOp(i)) sc.staged.push_back(i);
    if (sc.staged.size() == first) return StageStatus::kOk;
    if (!stageBudgetLeft(*sc.dom, 2)) return StageStatus::kOverflow;
    Node* const sub = buildSubtree(sc, first, sc.staged.size());
    sc.built.push_back(sub);
    sc.chain.appendTo(sc.repair);
    relinked = relink(relinked, right, sub);
    return StageStatus::kOk;
  }

  /// Balanced subtree of the inserts sc.staged[lo..hi), built privately
  /// (setInitial, then adopt): it only becomes shared if the staged link to
  /// it commits.
  Node* buildSubtree(const BatchScratch& sc, std::size_t lo, std::size_t hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::size_t op = sc.staged[mid];
    Node* const n = pool_.alloc(sc.keys[op], sc.vals[op]);
    Node* const l = lo < mid ? buildSubtree(sc, lo, mid) : nullptr;
    Node* const r = mid + 1 < hi ? buildSubtree(sc, mid + 1, hi) : nullptr;
    n->kids.setInitial(relink(relink(0, false, l), true, r));
    Derived::adopt(n, l, r);
    return n;
  }

  /// Tight iterative descent once a partition has narrowed to one insert —
  /// the common case for every key below the batch's shared prefix. Matches
  /// search()'s loop body: no partitioning, no recursion, one budget probe
  /// per hop. The node whose null slot takes the leaf gets the one version
  /// bump; it lies strictly inside this partition's subtree, which no other
  /// partition touches, so no address is staged twice. Each hop extends
  /// sc.chain by the node it leaves; the caller trims it.
  StageStatus stageInsertOne(Node* node, Version nodeVer, std::size_t i,
                             BatchScratch& sc) {
    const K key = sc.keys[i];
    k::DefaultDomain& dom = *sc.dom;
    for (;;) {
      if (isMarked(nodeVer)) return StageStatus::kRetry;
      const K nodeKey = node->key;
      if (key == nodeKey) return StageStatus::kOk;  // present: outcome false
      const Kids kids = node->kids.load();
      const bool right = key > nodeKey;
      Node* const child = childOf(kids, right);
      sc.chain.push(node);
      if (child == nullptr) {
        if (!stageBudgetLeft(dom, 2)) return StageStatus::kOverflow;
        Node* const leaf = pool_.alloc(key, sc.vals[i]);
        sc.built.push_back(leaf);
        sc.staged.push_back(i);
        sc.chain.appendTo(sc.repair);
        add(node->kids, kids, relink(kids, right, leaf));
        addVer(node->ver, nodeVer, verBump(nodeVer));
        return StageStatus::kOk;
      }
      if (!stageBudgetLeft(dom)) return StageStatus::kOverflow;
      prefetchKids(child);
      nodeVer = visit(child);
      node = child;
    }
  }

  /// The erase counterpart, tracking (parent, parentVer, parentKids) and
  /// sc.chain like the per-op search. A match below the partition root
  /// stages the full per-op entry set — mark, relink, parent bump —
  /// directly: the parent lies inside this partition's subtree, which no
  /// other partition touches. A match AT the partition root reports through
  /// `fr` instead, because the caller's node owns that relink and may merge
  /// it with its other partition's (the usual bottom-up rule).
  StageStatus stageEraseOne(Node* node, Version nodeVer, std::size_t i,
                            BatchScratch& sc, EraseFrame& fr) {
    const K key = sc.keys[i];
    k::DefaultDomain& dom = *sc.dom;
    Node* parent = nullptr;
    Version parentVer = 0;
    Kids parentKids = 0;  // parent's kids word, which holds `node`
    for (;;) {
      if (isMarked(nodeVer)) return StageStatus::kRetry;
      const K nodeKey = node->key;
      const Kids kids = node->kids.load();
      if (key == nodeKey) {
        Node* const left = childOf(kids, false);
        Node* const right = childOf(kids, true);
        if (left != nullptr && right != nullptr)
          return self().stageEraseTwoChild(node, nodeVer, kids, i, sc);
        Node* const repl = left != nullptr ? left : right;
        if (parent == nullptr) {
          if (!stageBudgetLeft(dom, 2)) return StageStatus::kOverflow;
          addVer(node->ver, nodeVer, verMark(nodeVer));
          fr.removed = true;
          fr.repl = repl;
        } else {
          if (!stageBudgetLeft(dom, 3)) return StageStatus::kOverflow;
          addVer(node->ver, nodeVer, verMark(nodeVer));
          add(parent->kids, parentKids,
              relink(parentKids, isRightChild(parentKids, node), repl));
          addVer(parent->ver, parentVer, verBump(parentVer));
          sc.chain.appendTo(sc.repair);  // it ends at parent
        }
        sc.unlink.push_back(node);
        sc.staged.push_back(i);
        return StageStatus::kOk;
      }
      Node* const child = childOf(kids, key > nodeKey);
      if (child == nullptr) return StageStatus::kOk;  // absent: path witness
      if (!stageBudgetLeft(dom)) return StageStatus::kOverflow;
      prefetchKids(child);
      sc.chain.push(node);
      parent = node;
      parentVer = nodeVer;
      parentKids = kids;
      nodeVer = visit(child);
      node = child;
    }
  }

  /// A two-child match in a singleton partition: runs per-op after the
  /// commit, unless the tree hides this with an in-batch shape (the BST's
  /// successor swap).
  StageStatus stageEraseTwoChild(Node*, Version, Kids, std::size_t i,
                                 BatchScratch& sc) {
    sc.deferred.push_back(i);
    return StageStatus::kOk;
  }

  bool vex() { return opt_.useHtmFastPath ? vexecFast() : vexec(); }
  bool vval() {
    return opt_.useHtmFastPath ? validateVisitedFast() : validateVisited();
  }
  /// §4.1: leaf/one-child deletions need no path validation — the entries
  /// themselves pin parent and curr.
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
    const Kids kids = n->kids.load();
    if (k > lo) collectRange(childOf(kids, false), lo, hi, out);
    if (k >= lo && k <= hi) out.emplace_back(k, n->val.load());
    if (k < hi) collectRange(childOf(kids, true), lo, hi, out);
  }

  /// Walk the tree checking BST order, sentinel structure and that no
  /// reachable node is marked; `check(n)` adds the tree's own
  /// per-node checks. Aborts (PATHCAS_CHECK) on violations. Returns
  /// statistics.
  template <typename Check>
  TreeStats walkInvariants(Check&& check) const {
    const Kids maxKids = maxRoot_->kids.load();
    PATHCAS_CHECK(childOf(maxKids, false) == minRoot_);
    PATHCAS_CHECK(childOf(maxKids, true) == nullptr);
    PATHCAS_CHECK(childOf(minRoot_->kids.load(), false) == nullptr);
    TreeStats stats;
    WalkSums sums;
    walk(root(), kNegInf, kPosInf, 1, stats, sums, check);
    if (stats.size) {
      stats.avgKeyDepth = static_cast<double>(sums.depth) / stats.size;
      stats.hotLinesPerNode =
          static_cast<double>(sums.hotLines) / stats.nodeCount;
    }
    stats.footprintBytes = (stats.nodeCount + 2) * sizeof(Node);
    return stats;
  }

  struct WalkSums {
    std::uint64_t depth = 0;
    std::uint64_t hotLines = 0;
  };

  /// 64 B lines spanned by n's words from ver through kids.
  static std::uint64_t hotLines(const Node* n) {
    const auto first = reinterpret_cast<std::uintptr_t>(n->ver.addr());
    const auto last = reinterpret_cast<std::uintptr_t>(n->kids.addr() + 1) - 1;
    return last / kCacheLine - first / kCacheLine + 1;
  }

  template <typename Check>
  void walk(Node* n, K lo, K hi, std::uint64_t depth, TreeStats& stats,
            WalkSums& sums, Check& check) const {
    if (n == nullptr) return;
    const K k = n->key.load();
    PATHCAS_CHECK(k > lo && k < hi);
    PATHCAS_CHECK(!isMarked(n->ver.load()));
    check(n);
    ++stats.size;
    ++stats.nodeCount;
    stats.keySum += static_cast<std::int64_t>(k);
    sums.depth += depth;
    sums.hotLines += hotLines(n);
    stats.height = std::max(stats.height, depth);
    const Kids kids = n->kids.load();
    walk(childOf(kids, false), lo, k, depth + 1, stats, sums, check);
    walk(childOf(kids, true), k, hi, depth + 1, stats, sums, check);
  }

  void forEachRec(Node* n, const std::function<void(K, V)>& f) const {
    if (n == nullptr) return;
    const Kids kids = n->kids.load();
    forEachRec(childOf(kids, false), f);
    f(n->key.load(), n->val.load());
    forEachRec(childOf(kids, true), f);
  }

  void freeSubtree(Node* n) {
    if (n == nullptr) return;
    const Kids kids = n->kids.load();
    freeSubtree(childOf(kids, false));
    freeSubtree(childOf(kids, true));
    pool_.destroy(n);
  }

  IntBstOptions opt_;
  recl::EbrDomain& ebr_;
  recl::NodePool<Node>& pool_;
  Node* maxRoot_;
  Node* minRoot_;
};

}  // namespace pathcas::ds
