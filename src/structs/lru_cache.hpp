// Capacity-bounded LRU/TTL cache — the first cross-structure PathCAS
// composite. Two structures share one set of nodes:
//
//   - a hash index: power-of-two bucket array of unsorted, null-terminated
//     chains (insert-at-head), each bucket carrying its own version word;
//   - an intrusive doubly-linked recency list between two sentinels
//     (head_ = MRU end, tail_ = LRU end).
//
// Every mutation commits as ONE KCAS whose entries span words in both
// structures plus a shared size word:
//
//   get (hit)      — splice the node out of its recency position and in at
//                    MRU: 6 data entries + up to 5 version bumps, all
//                    validated against the hash-chain path walked to find it.
//   put (insert)   — bucket head swing + MRU splice + size+1.
//   put (evict)    — the MCMS-width showcase: new node into its bucket and
//                    the MRU slot, LRU victim out of the recency tail AND out
//                    of its own (possibly different, possibly the same)
//                    bucket, victim marked, size unchanged — up to ~10 data
//                    entries and ~7 version bumps in one descriptor, which is
//                    exactly the cold-staging path the PR 5 hot/cold
//                    descriptor split exists for.
//   TTL expiry     — lazily on get (or via purgeExpired()): the expired
//                    node's full two-structure removal in one KCAS. Expiry
//                    deadlines are read through util/timing.hpp's TtlClock so
//                    tests drive them deterministically.
//
// The one-KCAS structure makes the composite invariants (hash membership ==
// recency membership, size == list length <= capacity) hold in EVERY
// reachable state, not just quiescent ones; tests/test_lru_cache.cpp checks
// them against a sequential oracle and under churn.
//
// Duplicate staged addresses are undefined for the KCAS (kcas.hpp checks
// them), and composite neighborhoods routinely overlap — the victim's chain
// predecessor may be a recency neighbor, the victim may live in the new
// key's bucket, the list may hold one element. All version bumps therefore
// go through a small address-deduplicating collector (Bumps), and the
// aliasing cases have explicit branches below.
//
// Domain rules: the cache owns a private recl::DomainSet; every public
// operation scopes the calling thread to it (k::ScopedDomain) and pins its
// EbrDomain, so callers never touch the process-global domains and two
// caches never contend on descriptor tables or epochs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "kcas/domain.hpp"
#include "pathcas/pathcas.hpp"
#include "recl/domain_set.hpp"
#include "util/defs.hpp"
#include "util/timing.hpp"

namespace pathcas::ds {

enum class CacheGet { kHit, kMiss, kExpired };

template <typename K = std::int64_t, typename V = std::int64_t>
class LruTtlCache {
 public:
  struct Node {
    casword<Version> ver;
    casword<K> key;  // immutable after publication
    casword<V> val;
    casword<std::uint64_t> expiryNs;  // TtlClock deadline; 0 = never expires
    casword<Node*> hnext;             // hash-chain successor (null-terminated)
    casword<Node*> rprev;             // recency link toward the MRU sentinel
    casword<Node*> rnext;             // recency link toward the LRU sentinel
    Node(K k, V v) {
      key.setInitial(k);
      val.setInitial(v);
    }
  };

  struct PutResult {
    bool updated = false;   // key was present: value/TTL refreshed, promoted
    bool inserted = false;  // new entry linked at MRU
    bool evicted = false;   // the insert displaced the LRU victim
    K victim{};             // valid iff evicted
  };

  explicit LruTtlCache(std::size_t capacity, std::size_t bucketCount = 0)
      : capacity_(static_cast<std::int64_t>(capacity)),
        mask_(roundUpPow2(bucketCount != 0 ? bucketCount
                                           : (capacity < 8 ? 8 : capacity)) -
              1),
        buckets_(new Bucket[mask_ + 1]) {
    PATHCAS_CHECK(capacity >= 1);
    head_.rnext.setInitial(&tail_);
    tail_.rprev.setInitial(&head_);
    size_.setInitial(0);
  }

  LruTtlCache(const LruTtlCache&) = delete;
  LruTtlCache& operator=(const LruTtlCache&) = delete;

  ~LruTtlCache() {
    // Quiescent-teardown exception: direct recycle, no EBR needed. set_ is
    // declared first, so its pools (and the EbrDomain draining limbo into
    // them) outlive this walk.
    for (std::size_t i = 0; i <= mask_; ++i) {
      Node* n = buckets_[i].head.load();
      while (n != nullptr) {
        Node* const nx = n->hnext.load();
        pool_.destroy(n);
        n = nx;
      }
    }
    // Built-in zero-leak check: with every reachable node recycled and limbo
    // drained, the owned DomainSet must account for every allocation.
    set_.drain();
    PATHCAS_CHECK(set_.liveNodes() == 0);
  }

  /// Lookup with promotion: a hit splices the node to MRU in one KCAS (no-op
  /// commit-free fast path when it already is MRU); an entry whose TTL
  /// lapsed is collected — removed from BOTH structures in one KCAS — and
  /// reported as kExpired (a miss with attribution).
  CacheGet get(K key, V* out) {
    k::ScopedDomain scope(set_.kcas());
    auto guard = set_.ebr().pin();
    const std::uint64_t now = TtlClock::nowNs();
    for (;;) {
      start();
      const Chain c = findInChain(key);
      if (!c.found) {
        if (validate()) return CacheGet::kMiss;  // absent needs a witness
        continue;
      }
      if (isMarked(c.nodeVer)) continue;
      const std::uint64_t exp = c.node->expiryNs;
      if (exp != 0 && exp <= now) {
        Bumps bumps;
        if (!stageRemoval(c, bumps)) continue;
        bumps.stage();
        if (vexec()) {
          set_.ebr().retire(c.node, pool_);
          return CacheGet::kExpired;
        }
        continue;
      }
      const V v = c.node->val;
      if (head_.rnext.load() == c.node) {
        // Already MRU: reachable + unmarked => present (the paper's §4.1
        // argument); no commit, no validation needed for a hit.
        if (out != nullptr) *out = v;
        return CacheGet::kHit;
      }
      Bumps bumps;
      const Promo p = stagePromotion(c.node, c.nodeVer, bumps);
      if (p == Promo::kRetry) continue;
      if (p == Promo::kAlreadyMru) {
        if (out != nullptr) *out = v;
        return CacheGet::kHit;
      }
      bumps.stage();
      if (vexec()) {
        if (out != nullptr) *out = v;
        return CacheGet::kHit;
      }
    }
  }

  std::optional<V> get(K key) {
    V v{};
    return get(key, &v) == CacheGet::kHit ? std::optional<V>(v) : std::nullopt;
  }

  /// Insert or refresh. Present key (even one whose TTL already lapsed but
  /// was never collected): value + deadline overwritten and the node
  /// promoted, one KCAS. Absent key with room: bucket link + MRU splice +
  /// size+1, one KCAS. Absent key at capacity: the new entry goes in and the
  /// LRU victim comes out of both structures atomically — there is no
  /// intermediate state that is over capacity or missing the victim from
  /// only one index. ttlNs == 0 means no expiry.
  PutResult put(K key, V val, std::uint64_t ttlNs = 0) {
    k::ScopedDomain scope(set_.kcas());
    auto guard = set_.ebr().pin();
    const std::uint64_t now = TtlClock::nowNs();
    const std::uint64_t exp = ttlNs == 0 ? 0 : now + ttlNs;
    PutResult res;
    Node* spare = nullptr;
    for (;;) {
      start();
      const Chain c = findInChain(key);
      if (c.found) {
        if (isMarked(c.nodeVer)) continue;
        const V oldV = c.node->val;
        const std::uint64_t oldExp = c.node->expiryNs;
        if (oldV != val) add(c.node->val, oldV, val);
        if (oldExp != exp) add(c.node->expiryNs, oldExp, exp);
        Bumps bumps;
        const Promo p = stagePromotion(c.node, c.nodeVer, bumps);
        if (p == Promo::kRetry) continue;
        bumps.stage();
        if (vexec()) {
          res.updated = true;
          break;
        }
        continue;
      }
      const std::int64_t sz = size_;
      if (sz < capacity_) {
        if (spare == nullptr) spare = pool_.alloc(key, val);
        spare->val.setInitial(val);
        spare->expiryNs.setInitial(exp);
        const Version hv = visitVer(head_.ver);
        Node* const m = head_.rnext;
        if (m == &head_) continue;  // torn read
        const Version mv = visit(m);
        if (isMarked(mv)) continue;
        spare->hnext.setInitial(c.head);
        spare->rprev.setInitial(&head_);
        spare->rnext.setInitial(m);
        add(c.b->head, c.head, spare);
        add(head_.rnext, m, spare);
        add(m->rprev, &head_, spare);
        add(size_, sz, sz + 1);
        Bumps bumps;
        bumps.note(c.b->ver, c.bVer);
        bumps.note(head_.ver, hv);
        bumps.note(m->ver, mv);
        bumps.stage();
        if (vexec()) {
          spare = nullptr;
          res.inserted = true;
          break;
        }
        continue;
      }
      if (stagePutEvict(c, spare, key, val, exp, sz, res)) break;
    }
    if (spare != nullptr) pool_.destroy(spare);  // never published
    return res;
  }

  /// Remove the entry (expired or not). One KCAS: chain unlink + recency
  /// unlink + size-1 + mark.
  bool erase(K key) {
    k::ScopedDomain scope(set_.kcas());
    auto guard = set_.ebr().pin();
    for (;;) {
      start();
      const Chain c = findInChain(key);
      if (!c.found) {
        if (validate()) return false;
        continue;
      }
      if (isMarked(c.nodeVer)) continue;
      Bumps bumps;
      if (!stageRemoval(c, bumps)) continue;
      bumps.stage();
      if (vexec()) {
        set_.ebr().retire(c.node, pool_);
        return true;
      }
    }
  }

  /// Validated read with NO side effects: no promotion, and an expired entry
  /// is reported (kExpired) rather than collected. The oracle tests use this
  /// to observe state without perturbing recency.
  CacheGet peek(K key, V* out = nullptr) {
    k::ScopedDomain scope(set_.kcas());
    auto guard = set_.ebr().pin();
    const std::uint64_t now = TtlClock::nowNs();
    for (;;) {
      start();
      const Chain c = findInChain(key);
      if (!c.found) {
        if (validate()) return CacheGet::kMiss;
        continue;
      }
      if (isMarked(c.nodeVer)) continue;
      const std::uint64_t exp = c.node->expiryNs;
      if (exp != 0 && exp <= now) return CacheGet::kExpired;
      if (out != nullptr) *out = c.node->val;
      return CacheGet::kHit;
    }
  }

  bool contains(K key) { return peek(key) == CacheGet::kHit; }

  /// Collect up to `maxVictims` expired entries (each removal its own
  /// one-KCAS commit), sweeping the recency list from the LRU end. The sweep
  /// itself is an unvalidated walk — every candidate is re-found and
  /// re-checked under its own validated commit, so false positives are
  /// harmless. Returns the number collected.
  std::size_t purgeExpired(
      std::size_t maxVictims = std::numeric_limits<std::size_t>::max()) {
    k::ScopedDomain scope(set_.kcas());
    auto guard = set_.ebr().pin();
    const std::uint64_t now = TtlClock::nowNs();
    std::vector<K> candidates;
    std::size_t steps = 0;
    const std::size_t maxSteps = static_cast<std::size_t>(capacity_) * 2 + 8;
    for (Node* n = tail_.rprev.load();
         n != &head_ && n != nullptr && steps < maxSteps &&
         candidates.size() < maxVictims;
         n = n->rprev.load(), ++steps) {
      const std::uint64_t exp = n->expiryNs.load();
      if (exp != 0 && exp <= now) candidates.push_back(n->key.load());
    }
    std::size_t collected = 0;
    for (const K key : candidates) {
      for (;;) {
        start();
        const Chain c = findInChain(key);
        if (!c.found) {
          if (validate()) break;
          continue;
        }
        if (isMarked(c.nodeVer)) continue;
        const std::uint64_t exp = c.node->expiryNs;
        if (exp == 0 || exp > now) break;  // refreshed since the sweep
        Bumps bumps;
        if (!stageRemoval(c, bumps)) continue;
        bumps.stage();
        if (vexec()) {
          set_.ebr().retire(c.node, pool_);
          ++collected;
          break;
        }
      }
    }
    return collected;
  }

  std::int64_t size() const { return size_.load(); }
  std::int64_t capacity() const { return capacity_; }
  std::uint64_t footprintBytes() const {
    return set_.footprintBytes() + (mask_ + 1) * sizeof(Bucket);
  }
  std::uint64_t liveNodes() const { return set_.liveNodes(); }
  /// Recycle limbo (requires quiescence) — the zero-leak teardown hook.
  void drain() { set_.drain(); }

  /// Quiescent-only: keys in recency order, MRU first. Tests use this to
  /// assert "hit promotes to MRU" and "evicted key was the true LRU".
  std::vector<K> recencyKeys() const {
    std::vector<K> out;
    for (Node* n = head_.rnext.load(); n != &tail_; n = n->rnext.load())
      out.push_back(n->key.load());
    return out;
  }

  /// Quiescent-only composite invariants: the hash index and the recency
  /// list hold exactly the same nodes, both directions of the list agree,
  /// no reachable node is marked, every node hashes to the bucket holding
  /// it, and size_ == |entries| <= capacity.
  void checkInvariants() const {
    std::vector<const Node*> fromHash;
    for (std::size_t i = 0; i <= mask_; ++i) {
      for (Node* n = buckets_[i].head.load(); n != nullptr;
           n = n->hnext.load()) {
        PATHCAS_CHECK(!isMarked(n->ver.load()));
        PATHCAS_CHECK(&bucketOf(n->key.load()) == &buckets_[i]);
        fromHash.push_back(n);
      }
    }
    std::vector<const Node*> fromList;
    for (Node* n = head_.rnext.load(); n != &tail_; n = n->rnext.load()) {
      PATHCAS_CHECK(n->rnext.load()->rprev.load() == n);
      fromList.push_back(n);
    }
    PATHCAS_CHECK(tail_.rprev.load() == &head_ ||
                  tail_.rprev.load()->rnext.load() == &tail_);
    std::sort(fromHash.begin(), fromHash.end());
    std::sort(fromList.begin(), fromList.end());
    PATHCAS_CHECK(fromHash == fromList);
    PATHCAS_CHECK(size_.load() == static_cast<std::int64_t>(fromHash.size()));
    PATHCAS_CHECK(size_.load() <= capacity_);
  }

  static constexpr const char* name() { return "lru-ttl-cache"; }

 private:
  struct Bucket {
    casword<Version> ver;
    casword<Node*> head;
  };

  struct Chain {
    bool found = false;
    Bucket* b = nullptr;
    Version bVer = 0;
    Node* head = nullptr;  // observed chain head (may be null)
    Node* node = nullptr;  // the match, iff found
    Version nodeVer = 0;
    Node* pred = nullptr;  // chain predecessor of node; null = head slot
    Version predVer = 0;
  };

  /// Address-deduplicating version-bump collector. The KCAS refuses an op
  /// that stages one word twice, and composite neighborhoods overlap (the
  /// victim's chain predecessor may also be a recency neighbor; both keys
  /// may share a bucket). The FIRST observed version per word wins — if a
  /// later observation disagreed, validation fails the commit anyway.
  struct Bumps {
    static constexpr int kMax = 10;
    casword<Version>* w[kMax];
    Version v[kMax];
    int n = 0;
    void note(casword<Version>& word, Version ver) {
      for (int i = 0; i < n; ++i) {
        if (w[i] == &word) return;
      }
      PATHCAS_DCHECK(n < kMax);
      w[n] = &word;
      v[n] = ver;
      ++n;
    }
    void stage() const {
      for (int i = 0; i < n; ++i) addVer(*w[i], v[i], verBump(v[i]));
    }
  };

  enum class Promo { kOk, kAlreadyMru, kRetry };

  static std::size_t roundUpPow2(std::size_t v) {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }
  Bucket& bucketOf(K key) const {
    const auto h = static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
    return buckets_[(h >> 32) & mask_];
  }

  /// Visit the bucket's version word, then walk its chain visiting every
  /// node, looking for `key`. The whole walk lands in the op's visited path,
  /// so the eventual vexec()/validate() certifies it.
  Chain findInChain(K key) {
    Chain c;
    c.b = &bucketOf(key);
    c.bVer = visitVer(c.b->ver);
    c.head = c.b->head;
    Node* prev = nullptr;
    Version prevVer = 0;
    Node* n = c.head;
    while (n != nullptr) {
      const Version nv = visit(n);
      const K nk = n->key;
      if (nk == key) {
        c.found = true;
        c.node = n;
        c.nodeVer = nv;
        c.pred = prev;
        c.predVer = prevVer;
        return c;
      }
      prev = n;
      prevVer = nv;
      n = n->hnext;
    }
    return c;
  }

  /// Stage the recency splice that moves `n` (visited at `nv`, unmarked) to
  /// MRU: 6 data entries; version bumps for head_, the displaced MRU, n's
  /// old neighbors, and n itself go into `bumps`. kRetry on any marked or
  /// aliased-torn neighborhood — the caller re-traverses.
  Promo stagePromotion(Node* n, Version nv, Bumps& bumps) {
    const Version hv = visitVer(head_.ver);
    Node* const m = head_.rnext;
    if (m == n) {
      // Raced into MRU between the caller's check and ours. Still bump n so
      // callers changing n's payload words (put-refresh) stay well-formed.
      bumps.note(n->ver, nv);
      return Promo::kAlreadyMru;
    }
    const Version mv = visit(m);
    if (isMarked(mv)) return Promo::kRetry;
    Node* const a = n->rprev;  // reads pinned by n's staged bump below
    Node* const b = n->rnext;
    // Aliases that only arise from torn (will-fail-validation) reads, but
    // must not reach the staging layer as duplicate addresses:
    if (a == n || b == n || a == &head_ || a == &tail_ || b == &head_ ||
        b == m) {
      return Promo::kRetry;
    }
    const Version av = (a == m) ? mv : visit(a);
    if (isMarked(av)) return Promo::kRetry;
    const Version bv = (b == a) ? av : visit(b);
    if (isMarked(bv)) return Promo::kRetry;
    add(a->rnext, n, b);
    add(b->rprev, n, a);
    add(head_.rnext, m, n);
    add(m->rprev, &head_, n);
    add(n->rprev, a, &head_);
    add(n->rnext, b, m);
    bumps.note(head_.ver, hv);
    bumps.note(m->ver, mv);
    bumps.note(a->ver, av);
    bumps.note(b->ver, bv);
    bumps.note(n->ver, nv);
    return Promo::kOk;
  }

  /// Stage the full one-KCAS removal of `c.node`: hash-chain unlink, recency
  /// unlink, size-1, and the node's mark. false = re-traverse.
  bool stageRemoval(const Chain& c, Bumps& bumps) {
    Node* const n = c.node;
    Node* const hs = n->hnext;
    if (c.pred != nullptr) {
      if (isMarked(c.predVer)) return false;
      add(c.pred->hnext, n, hs);
      bumps.note(c.pred->ver, c.predVer);
    } else {
      add(c.b->head, n, hs);
    }
    bumps.note(c.b->ver, c.bVer);
    Node* const a = n->rprev;
    Node* const b = n->rnext;
    if (a == n || b == n || a == &tail_ || b == &head_) return false;
    const Version av = visit(a);
    if (isMarked(av)) return false;
    const Version bv = (b == a) ? av : visit(b);
    if (isMarked(bv)) return false;
    add(a->rnext, n, b);
    add(b->rprev, n, a);
    bumps.note(a->ver, av);
    bumps.note(b->ver, bv);
    addVer(n->ver, c.nodeVer, verMark(c.nodeVer));
    const std::int64_t sz = size_;
    add(size_, sz, sz - 1);
    return true;
  }

  /// The at-capacity put: link the new node (bucket head + MRU) AND unlink
  /// the LRU victim (recency tail + its own bucket) in one KCAS, size
  /// unchanged. Handles the aliasing branches: victim in the same bucket as
  /// the new key (possibly at its chain head), single-element list (victim
  /// IS the MRU), two-element list (victim's recency pred IS the MRU).
  /// Returns true when committed (res filled in); false = caller retries.
  bool stagePutEvict(const Chain& c, Node*& spare, K key, V val,
                     std::uint64_t exp, std::int64_t sz, PutResult& res) {
    if (spare == nullptr) spare = pool_.alloc(key, val);
    spare->val.setInitial(val);
    spare->expiryNs.setInitial(exp);
    const Version tv = visitVer(tail_.ver);
    Node* const v = tail_.rprev;
    if (v == &head_ || v == &tail_) return false;  // raced to empty / torn
    const Version vv = visit(v);
    if (isMarked(vv)) return false;
    const Version hv = visitVer(head_.ver);
    Node* const m = head_.rnext;
    if (m == &head_ || m == &tail_) return false;  // torn: v exists
    const Version mv = (m == v) ? vv : visit(m);
    if (isMarked(mv)) return false;
    Bumps bumps;
    if (m == v) {
      // Single-entry list: [v] becomes [spare].
      add(head_.rnext, v, spare);
      add(tail_.rprev, v, spare);
      spare->rprev.setInitial(&head_);
      spare->rnext.setInitial(&tail_);
    } else {
      Node* const vp = v->rprev;  // vp == m is the normal two-element case
      if (vp == &head_ || vp == &tail_ || vp == v) return false;
      const Version vpv = (vp == m) ? mv : visit(vp);
      if (isMarked(vpv)) return false;
      add(head_.rnext, m, spare);
      add(m->rprev, &head_, spare);
      add(vp->rnext, v, &tail_);
      add(tail_.rprev, v, vp);
      spare->rprev.setInitial(&head_);
      spare->rnext.setInitial(m);
      bumps.note(vp->ver, vpv);
      bumps.note(m->ver, mv);
    }
    bumps.note(head_.ver, hv);
    bumps.note(tail_.ver, tv);
    // Victim's hash-chain unlink: walk its bucket for the predecessor.
    const K vkey = v->key;
    Bucket& vb = bucketOf(vkey);
    const bool sameBucket = (&vb == c.b);
    const Version vbVer = sameBucket ? c.bVer : visitVer(vb.ver);
    Node* vpred = nullptr;
    Version vpredVer = 0;
    bool walkOk = true;
    for (Node* x = vb.head; x != v;) {
      if (x == nullptr) {
        walkOk = false;  // raced: v left the chain
        break;
      }
      const Version xv = visit(x);
      if (isMarked(xv)) {
        walkOk = false;
        break;
      }
      vpred = x;
      vpredVer = xv;
      x = x->hnext;
    }
    if (!walkOk) return false;
    Node* const vhs = v->hnext;
    if (sameBucket && vpred == nullptr) {
      // Victim heads the very chain the new node enters: one head swing
      // replaces it (the chain is unsorted; position is irrelevant).
      spare->hnext.setInitial(vhs);
      add(vb.head, v, spare);
    } else {
      spare->hnext.setInitial(c.head);
      add(c.b->head, c.head, spare);
      if (vpred == nullptr) {
        add(vb.head, v, vhs);
      } else {
        add(vpred->hnext, v, vhs);
        bumps.note(vpred->ver, vpredVer);
      }
    }
    bumps.note(c.b->ver, c.bVer);
    bumps.note(vb.ver, vbVer);
    // Size anchor (old == new): eviction leaves the size unchanged, but
    // staging the word pins "the cache really was full at the linearization
    // point" — a stale full-looking read racing an erase would otherwise
    // commit an eviction below capacity.
    add(size_, sz, sz);
    addVer(v->ver, vv, verMark(vv));
    bumps.stage();
    if (!vexec()) return false;
    set_.ebr().retire(v, pool_);
    spare = nullptr;
    res.inserted = true;
    res.evicted = true;
    res.victim = vkey;
    return true;
  }

  // set_ first: destroyed last, after ~LruTtlCache recycled every node.
  mutable recl::DomainSet set_;
  recl::NodePool<Node>& pool_ = set_.pool<Node>();
  const std::int64_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<Bucket[]> buckets_;
  Node head_{K{}, V{}};  // MRU sentinel (never examined by key)
  Node tail_{K{}, V{}};  // LRU sentinel
  casword<std::int64_t> size_;
};

}  // namespace pathcas::ds
