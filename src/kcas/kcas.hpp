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
// ---------------------------------------------------------------------------
// Commit-path engineering (docs/ARCHITECTURE.md, "Commit-path fast paths &
// memory-order discipline"). Three orthogonal optimizations, each toggleable
// through the KcasPolicy template parameter so bench/ablation_hotpath.cpp can
// attribute the win per optimization:
//
//  * Degenerate fast paths (Policy::kDegenerateFastPaths). A staged op with
//    exactly one entry and no path commits with a single CAS — no descriptor
//    publication, no DCSS, nothing a helper could ever observe. One entry
//    plus one visited version commits with a single DCSS whose guard word is
//    the visited version (check-version-and-swap is exactly the k=1/p=1
//    vexec semantic). Contention (a descriptor in the way) falls back to the
//    general descriptor-based path, preserving lock-freedom.
//
//  * Fence discipline (Policy::kRelaxedPublication). Descriptor fields are
//    published with relaxed stores capped by one release fence instead of a
//    seq_cst seq bump plus per-field release stores; phase-2 unlock CASes
//    drop from seq_cst to acq_rel. Per-site justifications sit next to each
//    ordering below — the gist is that the (tid, seq) validation protocol
//    already makes stale reads harmless, so publication only needs the
//    minimal release edges the protocol consumes.
//
//  * Hot/cold descriptor layout (Policy::kInlineEntries). KcasDesc keeps its
//    first kInlineEntries entry/path slots in a packed structure-of-arrays
//    header next to seqState and the counts, with the MCMS-sized remainder
//    in a cold overflow region, so a helper processing a tree-sized op (k ≤
//    4) touches a couple of leading cache lines instead of striding an
//    array-of-structs sized for k = 512. The owner-private Staging area gets
//    the same split (small ops stay within one page), entries are kept
//    address-sorted by insertion at addEntry() time (ops stage ≤ 4 entries,
//    so a shifting insert beats the per-execute std::sort it replaces), and
//    a thread-local (domain, tid, pointers) cache lets begin/addEntry/visit
//    skip the ThreadRegistry::tid() resolution and Padded-array indexing on
//    every call.
// ---------------------------------------------------------------------------
//
// Thread model: any thread calling into this class is registered with
// ThreadRegistry (registration happens lazily on the first call; worker
// threads should hold a ThreadGuard so ids recycle). A thread performs at
// most one KCAS operation at a time (the staging area is per-thread), but
// may help any number of other operations while reading.
//
// Ownership/lifetime: KcasDomain::instance() is a process-lifetime singleton
// whose descriptor tables are statically sized by kMaxThreads — no
// descriptor is ever heap-allocated or freed. The AtomicWords passed to
// addEntry()/addPath() are owned by the caller and must remain mapped until
// no helper can still hold a (tid, seq) reference that resolves to them;
// data structures guarantee this by retiring nodes through recl::EbrDomain,
// which recycles each expired node's memory into its owning recl::NodePool
// (never freeing or overwriting it before the grace period ends). Helpers
// may therefore dereference a node's words during the whole grace period;
// after it, the slot may be reused for a new node of the same type.
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

/// Compile-time switches for the commit-path optimizations (see the header
/// comment). Each one is independently toggleable so the ablation benchmark
/// can attribute wins; production code uses TunedPolicy.
template <bool DegenerateFastPaths, bool RelaxedPublication, int InlineSlots,
          bool StagingMerge = true>
struct KcasPolicy {
  /// k=1 ops bypass descriptor publication (plain CAS / single DCSS).
  static constexpr bool kDegenerateFastPaths = DegenerateFastPaths;
  /// Relaxed field publication capped by one release fence; acq_rel unlocks.
  static constexpr bool kRelaxedPublication = RelaxedPublication;
  /// Entry/path slots kept inline in the hot descriptor header (0 = all
  /// slots live in the cold region, approximating the pre-split layout).
  static constexpr int kInlineEntries = InlineSlots;
  /// Sorted staging via append + one tail-merge past k<=4 instead of a
  /// per-entry shifting insert (quadratic for 5..kInline-entry ops) or a
  /// full per-execute sort. Off reproduces the PR 5 staging exactly.
  static constexpr bool kStagingMerge = StagingMerge;
};

/// Everything on: what DefaultDomain (and therefore every structure) runs.
using TunedPolicy = KcasPolicy<true, true, 8>;
/// Everything off: the pre-optimization engine, kept as the ablation
/// baseline (seq_cst publication, descriptor for every op, flat layout,
/// per-execute full sort).
using LegacyPolicy = KcasPolicy<false, false, 0, false>;

// Defaults sized for the widest users: MCMS-style full-path compares need
// ~2 entries per tree level; PathCAS visits need one path slot per level.
// Exceeding either bound is a checked error (the paper's footnote 2:
// over-allocate, or use structures with a known practical height bound).
template <int MaxEntries = 512, int MaxPath = 512, class Policy = TunedPolicy>
class KcasDomain {
 public:
  static constexpr int kMaxEntries = MaxEntries;
  static constexpr int kMaxPath = MaxPath;

  /// Process-wide domain. All data structures in this repo share it (one
  /// operation per thread at a time, as in the paper's implementation).
  static KcasDomain& instance() {
    static KcasDomain domain;
    return domain;
  }

  // ----------------------------------------------------------------------
  // Owner-side argument staging (wait-free; the paper's start/add/visit).
  // ----------------------------------------------------------------------

  /// Begin staging a new operation for the calling thread.
  void begin() {
    Staging& st = *slots().st;
    st.numEntries = 0;
    st.numPath = 0;
    st.sortedPrefix = 0;
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

  /// Stage a visited version word and the (encoded) value observed.
  void addPath(AtomicWord* verAddr, word_t expectedEnc) {
    Staging& st = *slots().st;
    PATHCAS_CHECK(st.numPath < MaxPath);
    st.pathAt(st.numPath++) = StagedPath{verAddr, expectedEnc};
  }

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
  /// and duplicate visits of the same node — first observation wins, as
  /// before), then clear the path. The subsequent execute(false) locks the
  /// versions instead of validating them.
  ///
  /// Implementation is a sorted merge: stable-sort a copy of the path,
  /// dedup adjacent slots, and merge it with the (sorted) entries —
  /// O((n+p)·log) overall, replacing the O(p·n + p²) scans this used to do,
  /// so PATHCAS_CHECKed debug builds are no longer quadratic in path length
  /// and a kMaxVisited-wide scan's escalation stays cheap.
  void promotePathToEntries() {
    Staging& st = *slots().st;
    if (st.sortedPrefix != st.numEntries) sortEntries(st);
    const int np = st.numPath;
    StagedPath paths[MaxPath];
    for (int i = 0; i < np; ++i) paths[i] = st.pathAt(i);
    std::stable_sort(paths, paths + np,
                     [](const StagedPath& a, const StagedPath& b) {
                       return a.addr < b.addr;
                     });
    const int n = st.numEntries;
    StagedEntry merged[MaxEntries];
    int out = 0, ei = 0;
    for (int i = 0; i < np; ++i) {
      if (i > 0 && paths[i].addr == paths[i - 1].addr) continue;  // revisit
      while (ei < n && st.entry(ei).addr < paths[i].addr)
        merged[out++] = st.entry(ei++);
      if (ei < n && st.entry(ei).addr == paths[i].addr) continue;  // real entry
      PATHCAS_CHECK(out < MaxEntries - (n - ei));
      merged[out++] = StagedEntry{paths[i].addr, paths[i].expectedEnc,
                                  paths[i].expectedEnc,
                                  /*isVersionWord=*/true};
    }
    while (ei < n) merged[out++] = st.entry(ei++);
    for (int i = 0; i < out; ++i) st.entry(i) = merged[i];
    st.numEntries = out;
    st.sortedPrefix = out;
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
  /// Entries are visited in address order (the sorted-staging invariant),
  /// which the fast path's two write passes are insensitive to.
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

    if constexpr (Policy::kDegenerateFastPaths) {
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
      if (st.numEntries == 1) {
        if (nPath == 0) return execK1(st);
        if (nPath == 1) {
          ExecResult r;
          if (execK1Path(st, r)) return r;
          // Contention budget exhausted: resolve through the general path.
        }
      }
    }

    KcasDesc& des = *s.des;

    // Entries must be address-sorted before publication: the lock-freedom
    // argument (appendix C) relies on every helper locking addresses in one
    // global order. Small ops maintained the invariant at addEntry time;
    // append-mode staging restores it here, once (a tail-sort + merge with
    // the sorted prefix, or the legacy full sort — see sortEntries).
    if (st.sortedPrefix != st.numEntries) sortEntries(st);

    // Reuse protocol (Arbel-Raviv & Brown): advance seqState FIRST — any
    // helper of the previous operation that later reads a freshly written
    // field is forced to also observe the new seq and discard it — then
    // publish the fields, then hand out the reference via phase-1 installs.
    //
    // Ordering, tuned flavour: the seq bump itself is relaxed and the field
    // stores are relaxed; the single release fence between them is what
    // carries both required edges. (1) Stale-helper safety: a helper's
    // acquire load that observes any post-fence field store synchronizes
    // with the fence (fence-atomic synchronization), making the pre-fence
    // seq bump visible to its readField freshness re-check. (2) Fresh-helper
    // safety: a helper only learns `ref` from a phase-1 install CAS, which
    // is seq_cst and sequenced after every field store, so all fields (and
    // the undecided seqState the DCSS guard compares) are visible to it.
    // Nothing here needs seq_cst: no thread can act on this operation until
    // the install publishes it.
    const std::uint64_t seq =
        seqOf(des.seqState.load(std::memory_order_relaxed)) + 1;
    des.seqState.store(packSeqState(seq, State::kUndecided),
                       Policy::kRelaxedPublication ? std::memory_order_relaxed
                                                   : std::memory_order_seq_cst);
    if constexpr (Policy::kRelaxedPublication) {
      std::atomic_thread_fence(std::memory_order_release);
    }
    // Legacy flavour: per-field release stores (each one redundantly carries
    // the edge the single fence provides above).
    constexpr std::memory_order po = Policy::kRelaxedPublication
                                         ? std::memory_order_relaxed
                                         : std::memory_order_release;
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
                      Policy::kRelaxedPublication ? std::memory_order_relaxed
                                                  : std::memory_order_seq_cst);
    if constexpr (Policy::kRelaxedPublication) {
      std::atomic_thread_fence(std::memory_order_release);
    }
    constexpr std::memory_order po = Policy::kRelaxedPublication
                                         ? std::memory_order_relaxed
                                         : std::memory_order_release;
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

  // Inline ("hot") slot count shared by the descriptor and staging layouts.
  static constexpr int kInline = Policy::kInlineEntries;
  static constexpr int kHotSlots = kInline > 0 ? kInline : 1;
  static constexpr int kColdEntrySlots =
      MaxEntries > kInline ? MaxEntries - kInline : 1;
  static constexpr int kColdPathSlots =
      MaxPath > kInline ? MaxPath - kInline : 1;

  /// Owner-private staging area; never read by other threads. Hot/cold
  /// split: a tree-sized op (≤ kInline entries and path slots) lives
  /// entirely in the leading bytes — one or two cache lines, one page —
  /// instead of having its path slots sizeof(entries[MaxEntries]) away.
  /// Entries [0, sortedPrefix) are address-sorted (addEntryImpl's shifting
  /// insert maintains it up to kShiftBound entries); anything past the
  /// prefix was appended out of order, and execute/promote restore the
  /// full-sorted invariant once per op (sortEntries: with the staging-merge
  /// policy a tail-sort plus one inplace_merge against the prefix, O(t log
  /// t + n); legacy a full O(n log n) sort). The sorted invariant is what
  /// the lock-freedom argument needs (one global locking order) and what
  /// lets promotePathToEntries and the duplicate-address debug check use
  /// binary search / a merge instead of O(n²) scans.
  struct Staging {
    std::int32_t numEntries = 0;
    std::int32_t numPath = 0;
    std::int32_t sortedPrefix = 0;
    StagedEntry hotEntries[kHotSlots];
    StagedPath hotPath[kHotSlots];
    StagedEntry coldEntries[kColdEntrySlots];
    StagedPath coldPath[kColdPathSlots];

    StagedEntry& entry(int i) {
      if constexpr (kInline > 0) {
        return i < kInline ? hotEntries[i] : coldEntries[i - kInline];
      } else {
        return coldEntries[i];
      }
    }
    StagedPath& pathAt(int i) {
      if constexpr (kInline > 0) {
        return i < kInline ? hotPath[i] : coldPath[i - kInline];
      } else {
        return coldPath[i];
      }
    }
    /// First index whose entry address is >= addr (entries are sorted).
    int lowerBound(const AtomicWord* addr) {
      int lo = 0, hi = numEntries;
      while (lo < hi) {
        const int mid = (lo + hi) / 2;
        if (entry(mid).addr < addr) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
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
    AtomicWord hotAddr[kHotSlots], hotOldv[kHotSlots], hotNewv[kHotSlots];
    AtomicWord hotPathAddr[kHotSlots], hotPathExp[kHotSlots];
    // Cold overflow.
    AtomicWord coldAddr[kColdEntrySlots], coldOldv[kColdEntrySlots],
        coldNewv[kColdEntrySlots];
    AtomicWord coldPathAddr[kColdPathSlots], coldPathExp[kColdPathSlots];

    AtomicWord& entryAddr(int i) { return pick(hotAddr, coldAddr, i); }
    AtomicWord& entryOldv(int i) { return pick(hotOldv, coldOldv, i); }
    AtomicWord& entryNewv(int i) { return pick(hotNewv, coldNewv, i); }
    AtomicWord& pathAddr(int i) { return pick(hotPathAddr, coldPathAddr, i); }
    AtomicWord& pathExpected(int i) { return pick(hotPathExp, coldPathExp, i); }

   private:
    template <int H, int C>
    static AtomicWord& pick(AtomicWord (&hot)[H], AtomicWord (&cold)[C],
                            int i) {
      if constexpr (kInline > 0) {
        return i < kInline ? hot[i] : cold[i - kInline];
      } else {
        return cold[i];
      }
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

  /// Staged ops stay address-sorted by shifting insert up to kShiftBound
  /// entries; past it staging degrades to plain appends and
  /// execute()/promote() restore the invariant once. With the staging-merge
  /// policy the shift bound is 4 — every tree/list/queue op (k ≤ 4) pays a
  /// tiny shifting insert and NO sort, while wider ops (a mid-size k=5..8
  /// op, an MCMS compare set, or a batched tree commit appending dozens of
  /// entries) append in O(1) each and pay one tail-sort + merge at execute.
  /// Shifting all the way to kInline (the PR 5 behavior, kept as the
  /// ablation baseline) is quadratic in moves exactly in that 5..8 range.
  /// With the layout toggle off the legacy bound is 0, i.e. pure
  /// append+sort.
  static constexpr int kShiftBound =
      Policy::kStagingMerge ? (MaxEntries < 4 ? MaxEntries : 4) : kInline;

  void addEntryImpl(AtomicWord* addr, word_t oldEnc, word_t newEnc,
                    bool isVersionWord) {
    Staging& st = *slots().st;
    PATHCAS_CHECK(st.numEntries < MaxEntries);
    if (st.sortedPrefix != st.numEntries || st.numEntries >= kShiftBound) {
#ifndef NDEBUG
      // Debug duplicate scan, linear like the old engine's (the sorted
      // prefix no longer covers the appended tail).
      for (int i = 0; i < st.numEntries; ++i)
        PATHCAS_DCHECK(st.entry(i).addr != addr &&
                       "address added twice (undefined per the paper)");
#endif
      st.entry(st.numEntries++) = StagedEntry{addr, oldEnc, newEnc,
                                              isVersionWord};
      return;
    }
    const int pos = st.lowerBound(addr);
    PATHCAS_DCHECK(!(pos < st.numEntries && st.entry(pos).addr == addr) &&
                   "address added twice (undefined per the paper)");
    for (int j = st.numEntries; j > pos; --j) st.entry(j) = st.entry(j - 1);
    st.entry(pos) = StagedEntry{addr, oldEnc, newEnc, isVersionWord};
    ++st.numEntries;
    ++st.sortedPrefix;
  }

  /// Restore the sorted-entry invariant after append-mode staging. The
  /// hot/cold split is not contiguous, so work on a flat copy and write
  /// back. Staging-merge policy: only the appended tail is sorted, then
  /// merged once with the already-sorted prefix — O(t log t + n) for a
  /// t-entry tail, which is what makes batch-append staging (one append
  /// per entry, one merge per commit) cheaper than per-entry shifting.
  /// Legacy policy: the old engine's full O(n log n) sort.
  static void sortEntries(Staging& st) {
    StagedEntry tmp[MaxEntries];
    const int n = st.numEntries;
    for (int i = 0; i < n; ++i) tmp[i] = st.entry(i);
    const auto byAddr = [](const StagedEntry& a, const StagedEntry& b) {
      return a.addr < b.addr;
    };
    if constexpr (Policy::kStagingMerge) {
      std::sort(tmp + st.sortedPrefix, tmp + n, byAddr);
      std::inplace_merge(tmp, tmp + st.sortedPrefix, tmp + n, byAddr);
    } else {
      std::sort(tmp, tmp + n, byAddr);
    }
    for (int i = 0; i < n; ++i) st.entry(i) = tmp[i];
    st.sortedPrefix = n;
  }

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
      // the general path locks the word and Algorithm 2 accepts its own
      // lock, so the entry's old-value check is the only constraint.
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
    // acq_rel suffices (tuned): the release half publishes nothing beyond
    // what the install already released, and the swung-in value is either
    // exp2 (already public) or new2 (a KCAS ref whose fields the owner
    // released before calling dcss — the helper's acquire of `ref` chains
    // the edge). Legacy keeps seq_cst.
    a2->compare_exchange_strong(expected, succeeded ? n2 : e2,
                                Policy::kRelaxedPublication
                                    ? std::memory_order_acq_rel
                                    : std::memory_order_seq_cst);
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
      // Unlock CAS. acq_rel suffices (tuned): the release half publishes
      // the operation's writes to subsequent readers of this word; nothing
      // after this CAS in program order is part of the protocol, and the
      // decision the swing depends on was read through the acquire on
      // seqState above. Seq_cst bought nothing but a fence. Legacy keeps it.
      addr->compare_exchange_strong(expected, succeeded ? newv : oldv,
                                    Policy::kRelaxedPublication
                                        ? std::memory_order_acq_rel
                                        : std::memory_order_seq_cst);
    }
    return succeeded ? ExecResult::kSucceeded : ExecResult::kFailedValue;
  }

  /// Algorithm 2. Raw (non-helping) reads: our own lock on a version word
  /// reads as `ref` and passes; any other descriptor fails validation.
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

  Padded<KcasDesc> descs_[kMaxThreads];
  Padded<DcssDesc> dcssDescs_[kMaxThreads];
  Padded<Staging> staging_[kMaxThreads];
};

/// The domain all PathCAS data structures in this repository share.
using DefaultDomain = KcasDomain<>;

}  // namespace pathcas::k
