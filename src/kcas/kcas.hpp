// Lock-free multi-word CAS with search-path validation — the engine under
// PathCAS.
//
// This is the Harris-Fraser-Pratt (HFP) KCAS algorithm with two extensions:
//  1. the Arbel-Raviv & Brown descriptor-reuse transformation (per-thread
//     reusable descriptors referenced by (tid, seq) tagged words; see
//     word.hpp), and
//  2. the paper's validation phase (the "two red lines" of Algorithm 1): a
//     descriptor additionally carries a `path` of ⟨version-word, expected⟩
//     pairs which are re-checked after all entry addresses are locked and
//     before the operation's status is decided.
//
// The user-facing start/read/add/visit/validate/exec/vexec interface lives in
// pathcas/pathcas.hpp; this layer exposes owner-side argument staging, the
// helping machinery, and a plain KCAS (no path) used by the MCMS baseline.
//
// The commit path (docs/ARCHITECTURE.md, "Commit-path fast paths &
// memory-order discipline") has three parts beyond plain HFP:
//
//  * Degenerate fast paths. A staged op with exactly one entry and no path
//    commits with a single CAS — no descriptor publication, nothing a helper
//    could ever observe. One entry plus one visited version commits with a
//    single DCSS whose guard word is the visited version (check-version-and-
//    swap is exactly the k=1/p=1 vexec semantic). Contention (a descriptor
//    in the way) falls back to the general descriptor-based path, preserving
//    lock-freedom.
//
//  * Fence discipline. Descriptor fields are published with relaxed stores
//    after one release fence, and phase-2 unlock CASes are acq_rel. The
//    (tid, seq) validation protocol already makes stale reads harmless, so
//    publication only needs the release edges the protocol consumes; the
//    justification for each ordering sits next to it below.
//
//  * One staging rule (selfInconsistent). execute() fails an op that names
//    one address two ways, before it publishes anything: two entries on
//    one address, or a path slot that disagrees with the op's own entry on
//    its word. Such an op comes from a torn view, which means another op
//    succeeded, so failing it keeps property P1.
//
//  * Hot/cold layout and allocation-free staging. KcasDesc and the
//    owner-private Staging keep their first kInline (8) entry/path slots in
//    a packed header, with the MCMS-sized remainder in a cold overflow
//    region, so a tree-sized op touches a couple of cache lines. Entries are
//    kept address-sorted by a shifting insert while an op fits the inline
//    slots; past them addEntry() appends and execute()/promotePathToEntries()
//    run one std::sort. No commit calls the allocator. A thread-local
//    (domain, tid, pointers) cache lets begin/addEntry/validate skip the
//    ThreadRegistry::tid() resolution and Padded-array indexing. begin()
//    also leaves the thread's staging area in one thread-local pointer, so
//    a PathCAS visit appends through it without resolving the domain at
//    all (addPath).
//
// Thread model: any thread calling into this class is registered with
// ThreadRegistry (registration happens lazily on the first call; worker
// threads should hold a ThreadGuard so ids recycle). A thread performs at
// most one KCAS operation at a time (the staging area is per-thread), but
// may help any number of other operations while reading.
//
// Ownership/lifetime: a domain's descriptor tables are statically sized by
// kMaxThreads — no descriptor is ever heap-allocated or freed. Structures
// run on DefaultDomain::instance(), the process-wide domain, unless a
// k::ScopedDomain (kcas/domain.hpp) selects another one, such as the
// private domain each recl::DomainSet (one per ShardedMap shard) owns. The
// AtomicWords passed to addEntry()/addPath() are owned by the caller and
// must remain mapped until no helper can still hold a (tid, seq) reference
// that resolves to them; data structures guarantee this by retiring nodes
// through recl::EbrDomain, which recycles each expired node's memory into
// its owning recl::NodePool (never freeing or overwriting it before the
// grace period ends). Helpers may therefore dereference a node's words
// during the whole grace period; after it, the slot may be reused for a new
// node of the same type.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "kcas/word.hpp"
#include "util/defs.hpp"
#include "util/padding.hpp"
#include "util/thread_registry.hpp"

namespace pathcas::k {

/// Result of an owner's execute() — helpers do not consume results.
enum class ExecResult {
  kSucceeded,
  kFailedValue,       // some added address held an unexpected value (genuine)
  kFailedValidation,  // a visited node changed or was locked (maybe spurious)
};

// Defaults sized for the widest users: MCMS-style full-path compares need
// ~2 entries per tree level; PathCAS visits need one path slot per level.
// Exceeding either bound is a checked error (the paper's footnote 2:
// over-allocate, or use structures with a known practical height bound).
template <int MaxEntries = 512, int MaxPath = 512>
class KcasDomain {
 public:
  static constexpr int kMaxEntries = MaxEntries;
  static constexpr int kMaxPath = MaxPath;

  /// Process-wide domain: what every structure uses unless a
  /// k::ScopedDomain selects another (header comment).
  static KcasDomain& instance() {
    static KcasDomain domain;
    return domain;
  }

  // ----------------------------------------------------------------------
  // Owner-side argument staging (wait-free; the paper's start/add/visit).
  // ----------------------------------------------------------------------

  /// Begin staging a new operation for the calling thread, and make this
  /// domain's staging area the one addPath() appends to.
  void begin() {
    Staging& st = *slots().st;
    st.numEntries = 0;
    st.numPath = 0;
    st.sorted = true;
    st.namedTwice = false;
    tlsBegun_ = &st;
  }

  /// Stage ⟨addr, old, new⟩ (already-encoded words).
  void addEntry(AtomicWord* addr, word_t oldEnc, word_t newEnc) {
    addEntryImpl(addr, oldEnc, newEnc, /*isVersionWord=*/false);
  }

  /// Stage a version-word change. Identical semantics; flagged so the HTM
  /// fast path can write version words around the data words.
  void addVerEntry(AtomicWord* addr, word_t oldEnc, word_t newEnc) {
    addEntryImpl(addr, oldEnc, newEnc, /*isVersionWord=*/true);
  }

  /// Stage a visited version word and the (encoded) value observed, in the
  /// staging area of the calling thread's last begin() on a domain of this
  /// type. Static: it follows one thread-local pointer instead of resolving
  /// a domain and the thread's slots, because visit() runs once per
  /// traversed node. So call it after begin() on the domain the operation
  /// runs on; begunHere() is the Debug check.
  static void addPath(AtomicWord* verAddr, word_t expectedEnc) {
    Staging& st = *tlsBegun_;
    PATHCAS_CHECK(st.numPath < MaxPath);
    st.pathAt(st.numPath++) = StagedPath{verAddr, expectedEnc};
  }

  /// True iff the calling thread's last begin() was on this domain, under
  /// the thread's current tid.
  bool begunHere() { return tlsBegun_ == slots().st; }

  int numStagedEntries() { return slots().st->numEntries; }
  int numStagedPath() { return slots().st->numPath; }
  /// numEntries + numPath through one TLS lookup: the batch-staging budget
  /// probe runs once per visited node, so the two separate accessors would
  /// pay the slots() indirection twice per hop on the hottest tree path.
  int stagedFootprint() {
    const Staging& st = *slots().st;
    return st.numEntries + st.numPath;
  }

  /// Drop the staged path (exec = vexec without validation, §3.3).
  void clearPath() { slots().st->numPath = 0; }

  /// Strong vexec support (§3.5): convert every staged ⟨node, ver⟩ pair into
  /// a ⟨node.ver, v, v⟩ entry (skipping version words that already have a
  /// real entry, e.g. a visited parent whose version is being incremented,
  /// and duplicate visits of the same node — the first observation wins),
  /// then clear the path. The subsequent execute(false) locks the
  /// versions instead of validating them. A visit that expects another
  /// value than the real entry on its word makes execute() refuse the op,
  /// as an unpromoted path slot would (selfInconsistent).
  ///
  /// Implementation is a sorted merge: sort a copy of the path by (address,
  /// visit order), keep the first slot of each address, and merge it with
  /// the (sorted) entries — O((n+p)·log) overall and allocation-free, so a
  /// kMaxVisited-wide scan's escalation stays cheap.
  void promotePathToEntries() {
    Staging& st = *slots().st;
    if (!st.sorted) sortEntries(st);
    struct Visit {
      AtomicWord* addr;
      int order;
      word_t expectedEnc;
    };
    const int np = st.numPath;
    Visit visits[MaxPath];
    for (int i = 0; i < np; ++i) {
      const StagedPath& p = st.pathAt(i);
      visits[i] = Visit{p.addr, i, p.expectedEnc};
    }
    std::sort(visits, visits + np, [](const Visit& a, const Visit& b) {
      return a.addr != b.addr ? a.addr < b.addr : a.order < b.order;
    });
    const int n = st.numEntries;
    StagedEntry merged[MaxEntries];
    int out = 0, ei = 0;
    for (int i = 0; i < np; ++i) {
      while (ei < n && st.entry(ei).addr < visits[i].addr)
        merged[out++] = st.entry(ei++);
      if (ei < n && st.entry(ei).addr == visits[i].addr) {  // real entry
        if (st.entry(ei).oldEnc != visits[i].expectedEnc) st.namedTwice = true;
        continue;
      }
      if (i > 0 && visits[i].addr == visits[i - 1].addr) continue;  // revisit
      PATHCAS_CHECK(out < MaxEntries - (n - ei));
      merged[out++] = StagedEntry{visits[i].addr, visits[i].expectedEnc,
                                  visits[i].expectedEnc,
                                  /*isVersionWord=*/true};
    }
    while (ei < n) merged[out++] = st.entry(ei++);
    for (int i = 0; i < out; ++i) st.entry(i) = merged[i];
    st.numEntries = out;
    st.numPath = 0;
  }

  /// True iff the staged operation can never pass validation no matter how
  /// many times it is replayed: a visited version was already marked when it
  /// was recorded, or a staged version-word entry expects a marked old value
  /// (no legitimate operation stages one — marking is always old-unmarked →
  /// new-marked). The strong path (§3.5) skips validation entirely, so its
  /// callers must reject such operations as genuine failures first;
  /// otherwise a ⟨ver, v, v⟩ lock on a marked version would "validate" a
  /// node that was already unlinked.
  bool stagedMarkDoomed() {
    Staging& st = *slots().st;
    for (int i = 0; i < st.numPath; ++i) {
      if (decodeVal(st.pathAt(i).expectedEnc) & 1) return true;
    }
    for (int i = 0; i < st.numEntries; ++i) {
      const StagedEntry& e = st.entry(i);
      if (e.isVersionWord && (decodeVal(e.oldEnc) & 1)) return true;
    }
    return false;
  }

  /// True iff some staged path word currently holds a descriptor reference
  /// (i.e. the last validation failure may have been spurious, §3.5).
  bool pathBlockedByDescriptor() {
    Staging& st = *slots().st;
    for (int i = 0; i < st.numPath; ++i) {
      if (isDescriptor(st.pathAt(i).addr->load(std::memory_order_acquire)))
        return true;
    }
    return false;
  }

  /// Iterate the staged operation (HTM fast path). f(addr, old, new, isVer).
  /// Entries come in staging order, which is address order up to kInline
  /// entries and after stagedSelfInconsistent(), execute() or
  /// promotePathToEntries(); the fast path's write passes are insensitive
  /// to it.
  template <typename F>
  void forEachStagedEntry(F&& f) {
    Staging& st = *slots().st;
    for (int i = 0; i < st.numEntries; ++i) {
      const StagedEntry& e = st.entry(i);
      f(e.addr, e.oldEnc, e.newEnc, e.isVersionWord);
    }
  }
  /// f(addr, expectedEnc) over the staged path.
  template <typename F>
  void forEachStagedPath(F&& f) {
    Staging& st = *slots().st;
    for (int i = 0; i < st.numPath; ++i) {
      const StagedPath& p = st.pathAt(i);
      f(p.addr, p.expectedEnc);
    }
  }

  /// Owner-side read-only validation of the staged path (the paper's
  /// validate()). May fail spuriously when a visited node is locked by
  /// another in-flight operation.
  bool validateStaged() { return validateStagedOn(*slots().st); }

  /// True iff the staged op names one address two ways (selfInconsistent),
  /// counting the path only with validation. execute() refuses such an op;
  /// the HTM fast path, which would write both entries, asks first.
  bool stagedSelfInconsistent(bool withValidation) {
    Staging& st = *slots().st;
    return selfInconsistent(st, withValidation ? st.numPath : 0);
  }

  // ----------------------------------------------------------------------
  // Execution.
  // ----------------------------------------------------------------------

  /// Publish the staged operation and run it to completion (helping as
  /// needed). Staging is preserved, so a spuriously failed vexec can be
  /// replayed verbatim (§3.5). `withValidation` distinguishes vexec (true)
  /// from exec (false).
  ExecResult execute(bool withValidation) {
    TlsSlots& s = slots();
    Staging& st = *s.st;
    const int nPath = withValidation ? st.numPath : 0;

    // Degenerate shapes commit without publishing a descriptor. Safe
    // because nothing partial is ever observable: a single CAS (or single
    // DCSS) is atomic on its own, so there is no helper protocol to
    // participate in and no state a concurrent thread could complete.
    if (st.numEntries == 0) {
      // Validation-only op (or a no-op). A single read pass over the path
      // is exactly what the general path's validateDesc would do — it
      // takes no locks when there are no entries.
      if (nPath == 0) return ExecResult::kSucceeded;
      return validateStagedOn(st) ? ExecResult::kSucceeded
                                  : ExecResult::kFailedValidation;
    }
    if (PATHCAS_UNLIKELY(selfInconsistent(st, nPath)))
      return ExecResult::kFailedValue;
    if (st.numEntries == 1) {
      if (nPath == 0) return execK1(st);
      if (nPath == 1) {
        ExecResult r;
        if (execK1Path(st, r)) return r;
        // Contention budget exhausted: resolve through the general path.
      }
    }

    KcasDesc& des = *s.des;

    // Entries are address-sorted before publication: the lock-freedom
    // argument (appendix C) relies on every helper locking addresses in one
    // global order. Ops within the inline slots were kept sorted at
    // addEntry time; selfInconsistent sorted wider ops, once.

    // Reuse protocol (Arbel-Raviv & Brown): advance seqState FIRST — any
    // helper of the previous operation that later reads a freshly written
    // field is forced to also observe the new seq and discard it — then
    // publish the fields, then hand out the reference via phase-1 installs.
    //
    // Ordering: the seq bump itself is relaxed and the field stores are
    // relaxed; the single release fence between them is what carries both
    // required edges. (1) Stale-helper safety: a helper's acquire load that
    // observes any post-fence field store synchronizes with the fence
    // (fence-atomic synchronization), making the pre-fence seq bump visible
    // to its readField freshness re-check. (2) Fresh-helper safety: a helper
    // only learns `ref` from a phase-1 install CAS, which is seq_cst and
    // sequenced after every field store, so all fields (and the undecided
    // seqState the DCSS guard compares) are visible to it. Nothing here
    // needs seq_cst: no thread can act on this operation until the install
    // publishes it.
    const std::uint64_t seq =
        seqOf(des.seqState.load(std::memory_order_relaxed)) + 1;
    des.seqState.store(packSeqState(seq, State::kUndecided),
                       std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    constexpr std::memory_order po = std::memory_order_relaxed;
    for (int i = 0; i < st.numEntries; ++i) {
      const StagedEntry& e = st.entry(i);
      des.entryAddr(i).store(reinterpret_cast<word_t>(e.addr), po);
      des.entryOldv(i).store(e.oldEnc, po);
      des.entryNewv(i).store(e.newEnc, po);
    }
    for (int i = 0; i < nPath; ++i) {
      const StagedPath& p = st.pathAt(i);
      des.pathAddr(i).store(reinterpret_cast<word_t>(p.addr), po);
      des.pathExpected(i).store(p.expectedEnc, po);
    }
    des.numEntries.store(static_cast<std::uint32_t>(st.numEntries), po);
    des.numPath.store(static_cast<std::uint32_t>(nPath), po);

    const word_t ref = packRef(kTagKcas, s.tid, seq);
    return help(ref, /*isOwner=*/true);
  }

  /// KCASRead: read an application value (encoded), helping any operation
  /// found in the word. Never returns a descriptor reference.
  word_t readEncoded(AtomicWord* addr) {
    for (;;) {
      const word_t w = addr->load(std::memory_order_acquire);
      if (PATHCAS_LIKELY(!isDescriptor(w))) return w;
      if (isKcas(w)) {
        help(w, /*isOwner=*/false);
      } else {
        helpDcss(w);
      }
    }
  }

  /// Raw load without helping: used by validateDesc (Algorithm 2 reads
  /// version words raw so that our own lock reads as "ours") and by
  /// HTM-fast-path code that must abort on descriptors.
  static word_t loadRaw(AtomicWord* addr) {
    return addr->load(std::memory_order_acquire);
  }

  // ----------------------------------------------------------------------
  // DCSS (double-compare single-swap), software, per HFP. In the general
  // KCAS path addr1 is a KCAS descriptor's seqState and exp1 the undecided
  // status for its seq, confining installations of KCAS references to
  // undecided operations (no resurrection of completed operations). The
  // k=1-with-path fast path reuses it with addr1 = a visited version word.
  // Public so the DCSS microbenchmark (BM_DcssPublish) and the fast-path
  // injection tests can drive it directly; not part of the structure-facing
  // API.
  // ----------------------------------------------------------------------

  /// Perform DCSS as the owner (using the calling thread's DCSS descriptor).
  /// Returns the (raw) value seen at addr2: exp2 indicates the descriptor
  /// was installed and the DCSS ran to completion; any other value is
  /// returned for the caller to dispatch on (application value => entry
  /// failure, KCAS ref => help). When installed, *outcome (if non-null)
  /// reports whether the swap committed new2 (addr1 held exp1 at the
  /// decision point) or reverted to exp2.
  ///
  /// Passing a non-null outcome switches the descriptor into
  /// decision-recording mode: every completer CASes its addr1 verdict into
  /// seqStatus and swings addr2 per the recorded (first) verdict, so the
  /// owner can read the authoritative outcome afterwards. The general KCAS
  /// path passes nullptr and skips that extra CAS — it re-examines memory
  /// anyway, divergent helper verdicts are harmless there (only the first
  /// swing of addr2 can succeed), and the entry-lock DCSS is hot enough
  /// that one more lock-prefixed op per entry is measurable.
  word_t dcss(AtomicWord* a1, word_t e1, AtomicWord* a2, word_t e2, word_t n2,
              bool* outcome = nullptr) {
    TlsSlots& s = slots();
    DcssDesc& d = *s.dcss;
    // Same publication protocol as execute(): bump-to-undecided first (which
    // doubles as the decision word), one release fence, relaxed fields. A
    // helper can only decide this operation after obtaining `ref` from the
    // install CAS below, which is seq_cst and publishes everything.
    const std::uint64_t seq =
        seqOf(d.seqStatus.load(std::memory_order_relaxed)) + 1;
    d.seqStatus.store(packSeqState(seq, State::kUndecided),
                      std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    constexpr std::memory_order po = std::memory_order_relaxed;
    d.addr1.store(reinterpret_cast<word_t>(a1), po);
    d.exp1.store(e1, po);
    d.addr2.store(reinterpret_cast<word_t>(a2), po);
    d.exp2.store(e2, po);
    d.new2.store(n2, po);
    d.recordDecision.store(outcome != nullptr ? 1 : 0, po);
    const word_t ref = packRef(kTagDcss, s.tid, seq);
    for (;;) {
      word_t seen = e2;
      if (a2->compare_exchange_strong(seen, ref,
                                      std::memory_order_seq_cst)) {
        completeDcss(d, ref, a1, e1, a2, e2, n2, outcome != nullptr);
        // The owner has not reused the descriptor, so seqStatus still
        // carries this operation's decided state.
        if (outcome != nullptr) {
          *outcome = stateOf(d.seqStatus.load(std::memory_order_acquire)) ==
                     State::kSucceeded;
        }
        return e2;
      }
      if (isDcss(seen)) {
        helpDcss(seen);
        continue;
      }
      return seen;
    }
  }

 private:
  struct StagedEntry {
    AtomicWord* addr;
    word_t oldEnc;
    word_t newEnc;
    bool isVersionWord;
  };
  struct StagedPath {
    AtomicWord* addr;
    word_t expectedEnc;
  };

  /// Inline ("hot") slot count shared by the descriptor and staging layouts,
  /// and the widest op staged by shifting insert.
  static constexpr int kInline = 8;
  static constexpr int kColdEntries = MaxEntries - kInline;
  static constexpr int kColdPath = MaxPath - kInline;
  static_assert(kColdEntries > 0 && kColdPath > 0,
                "the cold overflow region must hold at least one slot");

  /// Owner-private staging area; never read by other threads. Hot/cold
  /// split: a tree-sized op (≤ kInline entries and path slots) lives
  /// entirely in the leading bytes — one or two cache lines, one page —
  /// instead of having its path slots sizeof(entries[MaxEntries]) away.
  /// `sorted` says the entries are address-sorted: addEntryImpl keeps them
  /// so by a shifting insert while they fit the hot slots and clears it
  /// when it appends past them; execute/promote then sort once. The sorted
  /// order is what the lock-freedom argument needs (one global locking
  /// order) and what lets promotePathToEntries merge instead of scanning.
  struct Staging {
    std::int32_t numEntries = 0;
    std::int32_t numPath = 0;
    bool sorted = true;
    /// Some address was named two ways: a second entry on it, or a
    /// promoted visit that disagrees with its entry (selfInconsistent).
    bool namedTwice = false;
    StagedEntry hotEntries[kInline];
    StagedPath hotPath[kInline];
    StagedEntry coldEntries[kColdEntries];
    StagedPath coldPath[kColdPath];

    StagedEntry& entry(int i) {
      return i < kInline ? hotEntries[i] : coldEntries[i - kInline];
    }
    StagedPath& pathAt(int i) {
      return i < kInline ? hotPath[i] : coldPath[i - kInline];
    }
  };

  /// Shared descriptor fields. Helpers read these concurrently with the
  /// owner's reuse of the descriptor for a later operation, hence every
  /// field is an atomic and every helper read is validated against seqState
  /// (readField below).
  ///
  /// Layout: hot header first — seqState, the counts, and kInline entry/path
  /// slots as structure-of-arrays (addr[]/oldv[]/newv[], so phase 1 streams
  /// addr+oldv without dragging newv lines in, and phase 2 streams newv) —
  /// then the cold overflow region for MCMS-sized ops. A k ≤ 4 helper
  /// touches the first handful of cache lines instead of striding an
  /// array-of-structs laid out for k = MaxEntries.
  struct alignas(kCacheLine) KcasDesc {
    std::atomic<word_t> seqState{packSeqState(0, State::kUndecided)};
    std::atomic<std::uint32_t> numEntries{0}, numPath{0};
    // Hot SoA slots.
    AtomicWord hotAddr[kInline], hotOldv[kInline], hotNewv[kInline];
    AtomicWord hotPathAddr[kInline], hotPathExp[kInline];
    // Cold overflow.
    AtomicWord coldAddr[kColdEntries], coldOldv[kColdEntries],
        coldNewv[kColdEntries];
    AtomicWord coldPathAddr[kColdPath], coldPathExp[kColdPath];

    AtomicWord& entryAddr(int i) { return pick(hotAddr, coldAddr, i); }
    AtomicWord& entryOldv(int i) { return pick(hotOldv, coldOldv, i); }
    AtomicWord& entryNewv(int i) { return pick(hotNewv, coldNewv, i); }
    AtomicWord& pathAddr(int i) { return pick(hotPathAddr, coldPathAddr, i); }
    AtomicWord& pathExpected(int i) { return pick(hotPathExp, coldPathExp, i); }

   private:
    static AtomicWord& pick(AtomicWord* hot, AtomicWord* cold, int i) {
      return i < kInline ? hot[i] : cold[i - kInline];
    }
  };

  /// DCSS descriptor. seqStatus packs [seq | state] (same encoding as a KCAS
  /// seqState): the seq half is the reuse-validation tag; the state half is
  /// the operation's decision word when recordDecision is set. Recording the
  /// decision in the descriptor (instead of each helper acting on its own
  /// read of addr1) gives every completer the same verdict and lets the
  /// owner learn the outcome after the fact — which the k=1-with-path fast
  /// path needs to distinguish "committed" from "reverted because the guard
  /// moved". The general path leaves recordDecision off and skips the extra
  /// CAS (see dcss()).
  struct DcssDesc {
    std::atomic<word_t> seqStatus{packSeqState(0, State::kFailed)};
    AtomicWord addr1{0}, exp1{0}, addr2{0}, exp2{0}, new2{0};
    AtomicWord recordDecision{0};
  };

  /// Thread-local fast-access cache: resolved once per (domain, tid) pair,
  /// so the staging hot path is a TLS load plus one predictable branch
  /// instead of a ThreadRegistry::tid() call and three Padded-array
  /// indexings per begin/addEntry/visit. Revalidated against both the
  /// domain identity (tests build private domains) and the tid (ThreadGuard
  /// recycles ids across threads).
  struct TlsSlots {
    const KcasDomain* dom = nullptr;
    int tid = -1;
    Staging* st = nullptr;
    KcasDesc* des = nullptr;
    DcssDesc* dcss = nullptr;
  };

  TlsSlots& slots() {
    TlsSlots& s = tlsSlots_;
    const int t = ThreadRegistry::tid();
    if (PATHCAS_UNLIKELY(s.dom != this || s.tid != t)) {
      s.dom = this;
      s.tid = t;
      s.st = &staging_[t].value;
      s.des = &descs_[t].value;
      s.dcss = &dcssDescs_[t].value;
    }
    return s;
  }

  /// Ops that fit the hot slots stay address-sorted by a shifting insert
  /// (most single-key ops do, and shifting beats sorting at that size);
  /// wider ops (an MCMS compare set, a batched tree commit) append in O(1)
  /// each and execute()/promote() sort them once.
  void addEntryImpl(AtomicWord* addr, word_t oldEnc, word_t newEnc,
                    bool isVersionWord) {
    Staging& st = *slots().st;
    PATHCAS_CHECK(st.numEntries < MaxEntries);
    const StagedEntry e{addr, oldEnc, newEnc, isVersionWord};
    if (st.numEntries >= kInline) {
      st.entry(st.numEntries++) = e;
      st.sorted = false;
      return;
    }
    // Below kInline entries every entry is hot and the array is sorted, so
    // an entry already on addr is the one the insert stops below.
    int pos = st.numEntries++;
    for (; pos > 0 && addr < st.hotEntries[pos - 1].addr; --pos)
      st.hotEntries[pos] = st.hotEntries[pos - 1];
    if (pos > 0 && st.hotEntries[pos - 1].addr == addr) st.namedTwice = true;
    st.hotEntries[pos] = e;
  }

  /// Sort the staged entries by address, noting a repeated address. The
  /// hot/cold split is not contiguous, so sort a flat copy and write it back.
  static void sortEntries(Staging& st) {
    StagedEntry tmp[MaxEntries];
    const int n = st.numEntries;
    for (int i = 0; i < n; ++i) tmp[i] = st.entry(i);
    std::sort(tmp, tmp + n, [](const StagedEntry& a, const StagedEntry& b) {
      return a.addr < b.addr;
    });
    for (int i = 0; i < n; ++i) {
      st.entry(i) = tmp[i];
      if (i > 0 && tmp[i].addr == tmp[i - 1].addr) st.namedTwice = true;
    }
    st.sorted = true;
  }

  /// True iff the op names one address two ways: two entries on it, or one
  /// of the first nPath path slots expects another value than the op's own
  /// entry on its word. Phase 1 and validateDesc accept the op's own lock,
  /// so either would leave an observation unchecked; the owner refuses the
  /// op before publishing it instead. Sorts the entries (a repeat is then
  /// adjacent).
  static bool selfInconsistent(Staging& st, int nPath) {
    if (st.numEntries == 0) return false;
    if (!st.sorted) sortEntries(st);
    if (PATHCAS_UNLIKELY(st.namedTwice)) {
#ifndef NDEBUG
      checkRepeatIsTorn(st);
#endif
      return true;
    }
    // A one-word filter of the entries' addresses rules out most path
    // slots with one well-predicted branch before any lookup (an address
    // range test mispredicts on path slots scattered around the entries).
    std::uint64_t filter = 0;
    for (int i = 0; i < st.numEntries; ++i)
      filter |= addrBit(st.entry(i).addr);
    for (int i = 0; i < nPath; ++i) {
      const StagedPath& p = st.pathAt(i);
      if ((filter & addrBit(p.addr)) == 0) continue;
      const StagedEntry* e = entryOn(st, p.addr);
      if (e != nullptr && e->oldEnc != p.expectedEnc) return true;
    }
    return false;
  }

  /// One of 64 bits, by a Fibonacci hash of the address.
  static std::uint64_t addrBit(const AtomicWord* a) {
    const auto h = reinterpret_cast<std::uintptr_t>(a) * 0x9E3779B97F4A7C15ull;
    return std::uint64_t{1} << (h >> 58);
  }

  /// The staged entry on addr, or null. Entries are sorted: scan the hot
  /// slots, or binary-search for the last entry at or below addr.
  static const StagedEntry* entryOn(Staging& st, const AtomicWord* addr) {
    int lo = 0, hi = st.numEntries;
    if (hi > kInline) {
      while (hi - lo > 1) {
        const int mid = (lo + hi) / 2;
        (st.entry(mid).addr <= addr ? lo : hi) = mid;
      }
    }
    for (int i = lo; i < hi; ++i)
      if (st.entry(i).addr == addr) return &st.entry(i);
    return nullptr;
  }

#ifndef NDEBUG
  /// A repeat whose observations all still hold (the path validates, every
  /// entry's old value is in its word) came from no race but from a caller
  /// that stages one address twice in a consistent view, which every retry
  /// would repeat. Abort, naming the address.
  static void checkRepeatIsTorn(Staging& st) {
    if (!validateStagedOn(st)) return;
    const AtomicWord* repeat = nullptr;
    for (int i = 0; i < st.numEntries; ++i) {
      if (loadRaw(st.entry(i).addr) != st.entry(i).oldEnc) return;
      if (i > 0 && st.entry(i - 1).addr == st.entry(i).addr)
        repeat = st.entry(i).addr;
    }
    if (repeat != nullptr)
      std::fprintf(stderr, "KCAS: address %p staged twice\n",
                   static_cast<const void*>(repeat));
    PATHCAS_DCHECK(repeat == nullptr && "a repeat no race explains");
  }
#endif

  static bool validateStagedOn(Staging& st) {
    for (int i = 0; i < st.numPath; ++i) {
      const StagedPath& p = st.pathAt(i);
      const word_t cur = p.addr->load(std::memory_order_acquire);
      if (isDescriptor(cur)) return false;
      if (cur != p.expectedEnc) return false;
      if (decodeVal(cur) & 1) return false;  // visited node was marked
    }
    return true;
  }

  // ----------------------------------------------------------------------
  // Degenerate fast paths. Neither publishes the KCAS descriptor, so no
  // helper can ever observe a partial operation — atomicity is the CAS's
  // (or the DCSS's) own.
  // ----------------------------------------------------------------------

  /// k=1, no path: the operation IS a single CAS. Helping any descriptor
  /// found in the word preserves lock-freedom (each retry implies another
  /// operation completed); a plain-value mismatch is a genuine failure.
  ExecResult execK1(Staging& st) {
    const StagedEntry& e = st.entry(0);
    for (;;) {
      word_t seen = e.oldEnc;
      // seq_cst: this CAS is the whole operation's linearization point,
      // matching the strength of the general path's status-decision CAS.
      if (e.addr->compare_exchange_strong(seen, e.newEnc,
                                          std::memory_order_seq_cst)) {
        return ExecResult::kSucceeded;
      }
      if (isKcas(seen)) {
        help(seen, /*isOwner=*/false);
        continue;
      }
      if (isDcss(seen)) {
        helpDcss(seen);
        continue;
      }
      return ExecResult::kFailedValue;
    }
  }

  /// k=1 with one visited version: check-version-and-swap, which is exactly
  /// one DCSS (guard = the visited version word). Returns false when the
  /// contention budget is exhausted — the caller then runs the general
  /// descriptor path, preserving lock-freedom. Returns true with `r` set
  /// otherwise.
  ///
  /// Linearizability: the DCSS decision point atomically observes
  /// ⟨guard == expected, entry == old⟩ and swings the entry, which is the
  /// k=1/p=1 vexec semantic verbatim. The optimistic pre-validation below
  /// is a cheap genuine-failure filter only — versions are monotonic, so a
  /// changed version can never validate again; correctness rests on the
  /// DCSS alone.
  bool execK1Path(Staging& st, ExecResult& r) {
    const StagedEntry& e = st.entry(0);
    const StagedPath& p = st.pathAt(0);
    if (p.addr == e.addr) {
      // A path slot aliasing the single entry is subsumed by the entry CAS:
      // execute() refused the op unless the slot expects the entry's old
      // value, so the entry's old-value check covers both.
      r = execK1(st);
      return true;
    }
    if (decodeVal(p.expectedEnc) & 1) {
      // Visited node was already marked: can never validate (the general
      // path's validateDesc rejects it the same way).
      r = ExecResult::kFailedValidation;
      return true;
    }
    for (int attempt = 0; attempt < kFastPathRetries; ++attempt) {
      const word_t pcur = p.addr->load(std::memory_order_acquire);
      if (isDescriptor(pcur)) return false;  // guard locked: general path
      if (pcur != p.expectedEnc) {
        r = ExecResult::kFailedValidation;  // genuine: versions are monotonic
        return true;
      }
      bool committed = false;
      const word_t seen =
          dcss(p.addr, p.expectedEnc, e.addr, e.oldEnc, e.newEnc, &committed);
      if (seen == e.oldEnc) {
        // Installed and completed. Not committed means the guard moved
        // between the install and the decision — genuine or spurious is
        // resolved by the caller's validate/blocked probes, exactly as for
        // a general-path validation failure.
        r = committed ? ExecResult::kSucceeded : ExecResult::kFailedValidation;
        return true;
      }
      if (isKcas(seen)) {
        help(seen, /*isOwner=*/false);
        continue;  // dcss() already resolves DCSS descriptors internally
      }
      r = ExecResult::kFailedValue;  // entry held a different application value
      return true;
    }
    return false;
  }

  /// Validated helper read: the field value is only meaningful if the
  /// descriptor still belongs to operation `seq` after the read. The
  /// acquire on the field load is load-bearing: reading a value the owner
  /// stored after its release fence synchronizes with that fence, so the
  /// freshness re-check is guaranteed to observe the owner's seq bump.
  template <typename Atomic, typename V>
  static bool readField(const std::atomic<word_t>& seqState, std::uint64_t seq,
                        const Atomic& field, V& out) {
    out = static_cast<V>(field.load(std::memory_order_acquire));
    return seqOf(seqState.load(std::memory_order_acquire)) == seq;
  }

  /// Second half of DCSS, run by owner and helpers alike: decide by reading
  /// addr1, then swing addr2 from the descriptor reference to new2 or back
  /// to exp2. Without decision recording (`record` false, the general KCAS
  /// path) completers race on their own addr1 reads, per HFP — only the
  /// first swing CAS can succeed, so divergent verdicts are harmless. With
  /// recording, the first verdict is CASed into seqStatus and every
  /// completer swings per the recorded state, so the owner can read the
  /// authoritative outcome afterwards.
  void completeDcss(DcssDesc& d, word_t ref, AtomicWord* a1, word_t e1,
                    AtomicWord* a2, word_t e2, word_t n2, bool record) {
    const std::uint64_t seq = refSeq(ref);
    word_t ss = d.seqStatus.load(std::memory_order_acquire);
    if (seqOf(ss) != seq) return;  // already completed; reference is stale
    bool succeeded;
    if (!record) {
      // seq_cst load: the decision point of the DCSS.
      succeeded = a1->load(std::memory_order_seq_cst) == e1;
    } else {
      if (stateOf(ss) == State::kUndecided) {
        // seq_cst load: the decision point of the DCSS (and, through the
        // fast path, of a whole k=1 vexec).
        const State decided = (a1->load(std::memory_order_seq_cst) == e1)
                                  ? State::kSucceeded
                                  : State::kFailed;
        word_t expected = packSeqState(seq, State::kUndecided);
        d.seqStatus.compare_exchange_strong(expected,
                                            packSeqState(seq, decided),
                                            std::memory_order_seq_cst);
        ss = d.seqStatus.load(std::memory_order_acquire);
        if (seqOf(ss) != seq) return;  // owner finished and moved on
      }
      succeeded = stateOf(ss) == State::kSucceeded;
    }
    word_t expected = ref;
    // acq_rel suffices: the release half publishes nothing beyond what the
    // install already released, and the swung-in value is either exp2
    // (already public) or new2 (a KCAS ref whose fields the owner released
    // before calling dcss — the helper's acquire of `ref` chains the edge).
    a2->compare_exchange_strong(expected, succeeded ? n2 : e2,
                                std::memory_order_acq_rel);
  }

  /// Help a DCSS found in memory via its tagged reference.
  void helpDcss(word_t ref) {
    DcssDesc& d = dcssDescs_[refTid(ref)].value;
    const std::uint64_t seq = refSeq(ref);
    word_t a1raw, e1, a2raw, e2, n2, record;
    a1raw = d.addr1.load(std::memory_order_acquire);
    e1 = d.exp1.load(std::memory_order_acquire);
    a2raw = d.addr2.load(std::memory_order_acquire);
    e2 = d.exp2.load(std::memory_order_acquire);
    n2 = d.new2.load(std::memory_order_acquire);
    record = d.recordDecision.load(std::memory_order_acquire);
    // Freshness: if any load above returned a later operation's value, this
    // check observes the later seq (acquire-load/release-fence pairing, see
    // readField) and we bail; the operation already completed.
    if (seqOf(d.seqStatus.load(std::memory_order_acquire)) != seq) return;
    completeDcss(d, ref, reinterpret_cast<AtomicWord*>(a1raw), e1,
                 reinterpret_cast<AtomicWord*>(a2raw), e2, n2, record != 0);
  }

  // ----------------------------------------------------------------------
  // KCAS help (Algorithm 1). Owner and helpers run the same code; only the
  // owner's return value is meaningful.
  // ----------------------------------------------------------------------

  ExecResult help(word_t ref, bool isOwner) {
    KcasDesc& des = descs_[refTid(ref)].value;
    const std::uint64_t seq = refSeq(ref);
    const word_t undecided = packSeqState(seq, State::kUndecided);

    word_t ss = des.seqState.load(std::memory_order_acquire);
    if (seqOf(ss) != seq) return ExecResult::kFailedValue;  // stale (helper)

    // Whether *this* helper locally observed a genuine value mismatch. Used
    // only by the owner to classify failures (§3.5): a failure with no local
    // value mismatch is possibly spurious and worth retrying / escalating to
    // the strong path.
    bool sawValueMismatch = false;
    if (stateOf(ss) == State::kUndecided) {
      // Phase 1: lock every entry address via DCSS, in sorted order.
      State newState = State::kSucceeded;
      std::uint32_t n;
      if (!readField(des.seqState, seq, des.numEntries, n))
        return done(ref, isOwner);
      for (std::uint32_t i = 0; i < n && newState == State::kSucceeded; ++i) {
        word_t addrRaw, oldv;
        if (!readField(des.seqState, seq, des.entryAddr(i), addrRaw) ||
            !readField(des.seqState, seq, des.entryOldv(i), oldv)) {
          return done(ref, isOwner);
        }
        auto* addr = reinterpret_cast<AtomicWord*>(addrRaw);
        for (;;) {
          const word_t seen = dcss(&des.seqState, undecided, addr, oldv, ref);
          if (seen == oldv || seen == ref) break;  // locked (by us or another)
          if (isKcas(seen)) {
            help(seen, /*isOwner=*/false);
            continue;
          }
          // Unexpected application value: the operation must fail.
          newState = State::kFailed;
          sawValueMismatch = true;
          break;
        }
      }
      // Phase 1b (the paper's extension): validate visited nodes.
      if (newState == State::kSucceeded) {
        std::uint32_t np;
        if (!readField(des.seqState, seq, des.numPath, np))
          return done(ref, isOwner);
        if (np > 0 && !validateDesc(des, seq, ref, np)) {
          newState = State::kFailed;
        }
      }
      word_t expected = undecided;
      // seq_cst: the operation's linearization point (status decision).
      des.seqState.compare_exchange_strong(expected,
                                           packSeqState(seq, newState),
                                           std::memory_order_seq_cst);
    }

    // Phase 2: unlock all entry addresses according to the decided state.
    const ExecResult r = done(ref, isOwner);
    if (isOwner && r != ExecResult::kSucceeded && !sawValueMismatch) {
      // Misclassifying a genuine failure as retryable only costs one extra
      // attempt (the retry then observes the value mismatch directly).
      return ExecResult::kFailedValidation;
    }
    return r;
  }

  /// Phase 2 + result extraction. Safe to call at any point after the
  /// operation's state is decided (or the descriptor went stale).
  ExecResult done(word_t ref, [[maybe_unused]] bool isOwner) {
    KcasDesc& des = descs_[refTid(ref)].value;
    const std::uint64_t seq = refSeq(ref);
    const word_t ss = des.seqState.load(std::memory_order_acquire);
    if (seqOf(ss) != seq) {
      PATHCAS_DCHECK(!isOwner);
      return ExecResult::kFailedValue;  // stale helper; result irrelevant
    }
    const State st = stateOf(ss);
    PATHCAS_DCHECK(st != State::kUndecided || !isOwner);
    if (st == State::kUndecided) return ExecResult::kFailedValue;
    const bool succeeded = (st == State::kSucceeded);
    std::uint32_t n;
    if (!readField(des.seqState, seq, des.numEntries, n))
      return succeeded ? ExecResult::kSucceeded : ExecResult::kFailedValue;
    for (std::uint32_t i = 0; i < n; ++i) {
      word_t addrRaw, oldv, newv;
      if (!readField(des.seqState, seq, des.entryAddr(i), addrRaw) ||
          !readField(des.seqState, seq, des.entryOldv(i), oldv) ||
          !readField(des.seqState, seq, des.entryNewv(i), newv)) {
        break;  // stale: the owner finished phase 2 already
      }
      auto* addr = reinterpret_cast<AtomicWord*>(addrRaw);
      word_t expected = ref;
      // Unlock CAS. acq_rel suffices: the release half publishes the
      // operation's writes to subsequent readers of this word; nothing after
      // this CAS in program order is part of the protocol, and the decision
      // the swing depends on was read through the acquire on seqState above.
      addr->compare_exchange_strong(expected, succeeded ? newv : oldv,
                                    std::memory_order_acq_rel);
    }
    return succeeded ? ExecResult::kSucceeded : ExecResult::kFailedValue;
  }

  /// Algorithm 2. Raw (non-helping) reads: our own lock on a version word
  /// reads as `ref` and passes; any other descriptor fails validation. The
  /// owner refused the op unless such a slot expects the value its entry
  /// locked (selfInconsistent), so the lock vouches for the slot too.
  bool validateDesc(KcasDesc& des, std::uint64_t seq, word_t ref,
                    std::uint32_t np) {
    for (std::uint32_t i = 0; i < np; ++i) {
      word_t addrRaw, expected;
      if (!readField(des.seqState, seq, des.pathAddr(i), addrRaw) ||
          !readField(des.seqState, seq, des.pathExpected(i), expected)) {
        return false;  // stale helper: fail conservatively; CAS will no-op
      }
      const word_t cur =
          reinterpret_cast<AtomicWord*>(addrRaw)->load(std::memory_order_acquire);
      if (cur == ref) continue;              // locked for *our* operation
      if (isDescriptor(cur)) return false;   // locked for a different one
      if (cur != expected) return false;     // version changed
      if (decodeVal(expected) & 1) return false;  // node was already marked
    }
    return true;
  }

  /// Fast-path contention budget before deferring to the general path.
  static constexpr int kFastPathRetries = 4;

  static inline thread_local TlsSlots tlsSlots_{};
  /// The staging area of the calling thread's last begin(); see addPath().
  static inline thread_local Staging* tlsBegun_ = nullptr;

  Padded<KcasDesc> descs_[kMaxThreads];
  Padded<DcssDesc> dcssDescs_[kMaxThreads];
  Padded<Staging> staging_[kMaxThreads];
};

/// The domain type every PathCAS structure runs on: the process-wide
/// instance() and each recl::DomainSet's private domain.
using DefaultDomain = KcasDomain<>;

}  // namespace pathcas::k
