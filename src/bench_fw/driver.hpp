// Setbench-style benchmark driver (§5 "Our experiments follow the
// methodology of [9]"): prefill the structure to half its key range with a
// random key subset, run T threads issuing a mix of insert/delete/contains —
// plus, when cfg.rqFrac > 0, fixed-width range queries (index-scan style) —
// for a fixed duration, then validate the run with the keysum invariant (sum
// of successfully inserted keys minus successfully deleted keys must equal
// the structure's final keysum) before reporting throughput. Operations are
// counted per category, so RQ-heavy mixes report range-query throughput
// separately from point ops.
//
// Keys are drawn from a pluggable distribution (workload.hpp: uniform,
// Zipfian, hotspot, latest, sequential) selected by TrialConfig::dist, and
// the operation mix can be set from a named preset (TrialConfig::mix records
// which). Both are overridable from the environment (PATHCAS_BENCH_DIST /
// PATHCAS_BENCH_MIX, applied by applyEnvWorkload) and are recorded in every
// trial's JSON object, so a result row is never ambiguous about the workload
// that produced it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_fw/admission.hpp"
#include "bench_fw/latency.hpp"
#include "bench_fw/workload.hpp"
#include "recl/ebr.hpp"
#include "service/netting.hpp"
#include "util/backoff.hpp"
#include "util/defs.hpp"
#include "util/padding.hpp"
#include "util/rand.hpp"
#include "util/thread_registry.hpp"
#include "util/timing.hpp"

namespace pathcas::bench {

struct TrialConfig {
  int threads = 1;
  std::int64_t keyRange = 1 << 16;
  /// Shard count for partitioned frontends (service/sharded_map.hpp);
  /// 1 (a single partition) for plain structures. Recorded in CSV/JSON so
  /// shard-sweep rows are self-describing, and consumed by adapters that are
  /// constructible from the TrialConfig (see sweepThreads).
  int shards = 1;
  double insertFrac = 0.05;  // e.g. 10% updates = 5% insert + 5% delete
  double deleteFrac = 0.05;
  /// Fraction of operations that are range queries (the structure must
  /// provide rangeQuery); the remainder after insert/delete/rq is contains.
  double rqFrac = 0.0;
  /// Width of each range query's key window: [k, k + rqSize - 1]. Must keep
  /// the scan's examined-node count within pathcas::kMaxVisited (roughly
  /// rqSize/2 live keys on a half-full range, plus the descent path).
  std::int64_t rqSize = 64;
  int durationMs = 200;
  std::uint64_t seed = 1;
  /// Key distribution the workers draw from (workload.hpp). Defaults to the
  /// paper's uniform-random keys.
  DistSpec dist;
  /// Name of the operation mix the fracs above encode ("u10", "ycsb-b", ...;
  /// "custom" when set by hand). Recorded in CSV/JSON so rows are
  /// self-describing; applyMix / withUpdates keep it in sync.
  std::string mix = "u10";
  /// Per-worker update batch width, for structures with updateBatch
  /// (HasBatchOps): workers buffer this many updates and commit each buffer
  /// as one netted updateBatch run (service/netting.hpp). 1 (default) is
  /// per-op commits — the k=1 fast-path baseline. Recorded in CSV/JSON;
  /// PATHCAS_BENCH_BATCH selects the sweep values (bench_helpers.hpp).
  int batch = 1;
  /// Ignored, like the sharded map's Config::combineWindow: sharded updates
  /// commit directly (service/sharded_map.hpp). Stays only while
  /// perfbench/pcbench.cpp still sets it.
  int combineWindow = 0;
  /// Per-op latency recording (bench_fw/latency.hpp): when on, sampled op
  /// durations land in a per-thread per-category tick histogram and the
  /// trial reports p50/p99/p999/max in calibrated nanoseconds. Off by
  /// default. PATHCAS_BENCH_LATENCY=1 turns it on everywhere
  /// (applyEnvLatency).
  bool latency = false;
  /// Recording samples every 2^latSampleShift-th op per thread (default
  /// 1-in-8): a sampled op pays two clock reads, so on ~250ns ops full
  /// recording costs >10% throughput while 1-in-8 stays under ~2%. Quantile
  /// accuracy is unaffected in distribution (sampling is op-count-strided,
  /// uncorrelated with op cost); per-category `count` fields then report
  /// SAMPLES, not ops. Set 0 to record every op (overload_profile's
  /// high-fidelity mode).
  int latSampleShift = 3;
  /// Arrival process (workload.hpp, ArrivalSpec): closed loop (default) or
  /// open-loop Poisson arrivals at a fixed total rate, where latency is
  /// measured from each op's *scheduled* arrival so coordinated omission
  /// shows up as queueing delay instead of vanishing.
  /// PATHCAS_BENCH_ARRIVAL carries the same grammar (applyEnvArrival).
  /// `arrival.qdepth` / `arrival.deadlineNs` are an open loop's only
  /// admission settings: a bounded per-worker queue (arrivals rejected at
  /// the bound) and a queue-wait deadline past which queued ops are shed
  /// before execution (bench_fw/admission.hpp). The deadline is also the
  /// batching window's flush deadline: a partially filled window is flushed
  /// in time for its oldest buffered op, aged from its scheduled arrival, to
  /// commit within the deadline, and the window width adapts —
  /// shrink under deadline pressure, regrow under headroom
  /// (AdaptiveFlushPolicy). Without a deadline, windows flush only when
  /// full or at the stop drain — the pre-adaptive behavior, where a cold
  /// window can hold an op indefinitely at a low offered rate.
  ArrivalSpec arrival;
};

struct TrialResult {
  double mops = 0.0;          // million *submitted* ops per second (total)
  /// Ops submitted by the workers. Under window netting (batch > 1) one op
  /// per key and window executes against the structure; the key's other
  /// buffered updates are still submitted — the client issued and completed
  /// them — but netting settles them without executing. JSON `total_ops`
  /// keeps meaning submitted.
  std::uint64_t totalOps = 0;
  /// Ops that actually executed against the structure: submitted minus
  /// netted away. Equal to totalOps when batch <= 1. The honest denominator
  /// for per-op structure cost (batch_commit's attribution uses
  /// mopsApplied, not mops).
  std::uint64_t opsApplied = 0;
  double mopsApplied = 0.0;   // million applied ops per second
  /// Mean wall-nanoseconds per submitted op over the timed window, summed
  /// across threads and calibrated via TscCal (tsc→ns). The portable per-op
  /// cost number; in open-loop mode it includes arrival idle time.
  double nsPerOp = 0.0;
  /// Derived: raw rdtsc ticks per submitted op. Platform-dependent units
  /// (TSC increments on x86, steady_clock ticks elsewhere) — kept for
  /// continuity with the paper's cycle counts, but ns_per_op is primary.
  double cyclesPerOp = 0.0;
  /// The timed window, go→stop. Excludes worker join and the post-stop
  /// batch drain (drainSec), which earlier versions folded in — skewing
  /// mops and cycles/op with batch width.
  double elapsedSec = 0.0;
  /// Post-stop wall time: outstanding batch-window drain + thread join.
  /// Reported separately so wide windows can't inflate the timed window.
  double drainSec = 0.0;
  /// Per-category latency quantiles (valid iff TrialConfig::latency).
  LatencySummary lat;
  bool keysumOk = false;
  std::uint64_t inserts = 0, deletes = 0, finds = 0;
  std::uint64_t rqs = 0;      // range queries completed
  std::uint64_t rqKeys = 0;   // keys returned across all range queries
  /// Per-thread op-count extremes: under skewed keys, threads serialize on
  /// the hot set at different rates, and max/min >> 1 makes that imbalance
  /// visible in the output without dumping per-thread rows.
  std::uint64_t minThreadOps = 0, maxThreadOps = 0;
  /// Structure memory at trial end (pool counters), when the structure
  /// exposes footprintBytes(); 0 otherwise.
  std::uint64_t footprintBytes = 0;
  /// Admission accounting (bench_fw/admission.hpp). The identity
  ///   opsOffered == totalOps + opsShed + opsRejected
  /// holds exactly in every trial (checked in runTrial): totalOps IS the
  /// admitted count — one executed op per admit. Closed loop (and open loop
  /// without admission) degenerates to opsOffered == totalOps, rest 0.
  std::uint64_t opsOffered = 0;
  std::uint64_t opsShed = 0;      // queued past the deadline, dropped
  std::uint64_t opsRejected = 0;  // arrived at a full queue, dropped
  /// Million ops/sec that completed within the admission deadline — the
  /// y-axis of a goodput-vs-offered-load curve. Equals mops when no
  /// deadline is configured (every completed op is good).
  double goodputMops = 0.0;
  /// Netting-window flushes by trigger: the flush deadline firing on a
  /// partial window vs. the window filling to its adaptive width.
  std::uint64_t deadlineFlushes = 0, fullFlushes = 0;
  /// Cross-shard range-query retries (HasRqRetries structures); 0 otherwise.
  std::uint64_t rqRetries = 0;
};

/// Apply a named mix preset to a config (fracs + mix name + rqSize for
/// scan-bearing presets like ycsb-e).
inline void applyMix(TrialConfig& cfg, const MixSpec& m) {
  cfg.insertFrac = m.insertFrac;
  cfg.deleteFrac = m.deleteFrac;
  cfg.rqFrac = m.rqFrac;
  if (m.rqSize > 0) cfg.rqSize = m.rqSize;
  cfg.mix = m.name;
}

inline bool applyMixByName(TrialConfig& cfg, const std::string& name) {
  MixSpec m;
  if (!findMix(name, &m)) return false;
  applyMix(cfg, m);
  return true;
}

/// PATHCAS_BENCH_DIST override (grammar: DistSpec::parse). Returns true iff
/// a well-formed spec was applied; malformed values warn on stderr and leave
/// the config unchanged.
inline bool applyEnvDist(TrialConfig& cfg) {
  const char* d = std::getenv("PATHCAS_BENCH_DIST");
  if (d == nullptr || *d == '\0') return false;
  if (!DistSpec::parse(d, &cfg.dist)) {
    static bool warned = false;  // once per process, not per sweep cell
    if (!warned) {
      warned = true;
      std::fprintf(stderr,
                   "ignoring malformed PATHCAS_BENCH_DIST=\"%s\" (want e.g. "
                   "uniform | zipfian:0.99 | hotspot:0.2:0.8 | latest | seq)\n",
                   d);
    }
    return false;
  }
  return true;
}

/// PATHCAS_BENCH_MIX override (preset names: workload.hpp). Returns true iff
/// a known preset was applied.
inline bool applyEnvMix(TrialConfig& cfg) {
  const char* m = std::getenv("PATHCAS_BENCH_MIX");
  if (m == nullptr || *m == '\0') return false;
  if (!applyMixByName(cfg, m)) {
    static bool warned = false;  // once per process, not per sweep cell
    if (!warned) {
      warned = true;
      std::fprintf(stderr,
                   "ignoring unknown PATHCAS_BENCH_MIX=\"%s\" (presets:", m);
      for (const MixSpec& p : mixPresets())
        std::fprintf(stderr, " %s", p.name);
      std::fprintf(stderr, ")\n");
    }
    return false;
  }
  return true;
}

/// PATHCAS_BENCH_LATENCY override: "1"/"on" enables per-op latency
/// recording, "0"/"off" disables it. Returns true iff the knob was present
/// and well-formed.
inline bool applyEnvLatency(TrialConfig& cfg) {
  const char* v = std::getenv("PATHCAS_BENCH_LATENCY");
  if (v == nullptr || *v == '\0') return false;
  const std::string s(v);
  if (s == "1" || s == "on") {
    cfg.latency = true;
    return true;
  }
  if (s == "0" || s == "off") {
    cfg.latency = false;
    return true;
  }
  static bool warned = false;  // once per process, not per sweep cell
  if (!warned) {
    warned = true;
    std::fprintf(stderr,
                 "ignoring malformed PATHCAS_BENCH_LATENCY=\"%s\" "
                 "(want 1/on or 0/off)\n",
                 v);
  }
  return false;
}

/// PATHCAS_BENCH_ARRIVAL override (grammar: ArrivalSpec::parse — "closed"
/// or "poisson:<opsPerSec>[:q<qdepth>][:d<deadlineNs>]"). Returns true iff a
/// well-formed spec was applied; malformed values warn on stderr and leave
/// the config unchanged.
inline bool applyEnvArrival(TrialConfig& cfg) {
  const char* a = std::getenv("PATHCAS_BENCH_ARRIVAL");
  if (a == nullptr || *a == '\0') return false;
  if (!ArrivalSpec::parse(a, &cfg.arrival)) {
    static bool warned = false;  // once per process, not per sweep cell
    if (!warned) {
      warned = true;
      std::fprintf(stderr,
                   "ignoring malformed PATHCAS_BENCH_ARRIVAL=\"%s\" (want "
                   "closed | poisson:<opsPerSec>[:q<qdepth>][:d<ns>])\n",
                   a);
    }
    return false;
  }
  return true;
}

/// All the environment overrides, honoured by every bench that goes
/// through sweepThreads (and applied explicitly by the benches that drive
/// runTrial themselves). Benches whose mix IS the experiment's axis
/// (fig06's update-vs-search columns) apply only applyEnvDist.
inline void applyEnvWorkload(TrialConfig& cfg) {
  applyEnvDist(cfg);
  applyEnvMix(cfg);
  applyEnvLatency(cfg);
  applyEnvArrival(cfg);
}

/// One-line workload description for bench headers, e.g.
/// "dist=zipfian:0.99 mix=ycsb-b arrival=poisson:500000".
inline std::string describeWorkload(const TrialConfig& cfg) {
  std::string s = "dist=" + cfg.dist.label() + " mix=" + cfg.mix;
  if (cfg.arrival.open) s += " arrival=" + cfg.arrival.label();
  return s;
}

/// Structures that support the range-query mix (rqFrac > 0).
template <typename Set>
concept HasRangeQuery =
    requires(Set s, std::vector<std::pair<std::int64_t, std::int64_t>> buf) {
      { s.rangeQuery(std::int64_t{}, std::int64_t{}, buf) };
    };

/// Structures whose memory use can be read from pool counters; their trials
/// carry footprint_bytes in the JSON output.
template <typename Set>
concept HasFootprint = requires(const Set s) {
  { s.footprintBytes() } -> std::convertible_to<std::uint64_t>;
};

/// Structures that can be built in parallel from a sorted key vector
/// (service/sharded_map.hpp). prefillHalf hands them the prefill sorted
/// instead of inserting it; bulkLoad returns the inserted keysum, same
/// contract.
template <typename Set>
concept HasBulkLoad = requires(Set s, std::vector<std::int64_t> keys) {
  { s.bulkLoad(keys, int{}) } -> std::convertible_to<std::int64_t>;
};

/// Structures exposing the sorted-run group commit (the trees' and the
/// sharded map's updateBatch): one sorted run carrying per-op insert/erase
/// flags, staged in a single traversal with one wide KCAS per chunk. Only
/// these honour TrialConfig::batch > 1.
template <typename Set>
concept HasBatchOps =
    requires(Set s, const std::int64_t* ks, const std::int64_t* vs,
             const bool* ins, std::size_t n, bool* out) {
      {
        s.updateBatch(ks, vs, ins, n, out)
      } -> std::convertible_to<std::size_t>;
    };

/// Structures surfacing their cross-shard range-query retry counter
/// (service/sharded_map.hpp): livelock under churn becomes an observable
/// per-trial `rq_retries` column instead of silent spinning.
template <typename Set>
concept HasRqRetries = requires(const Set s) {
  { s.rqRetries() } -> std::convertible_to<std::uint64_t>;
};

/// Benchmark scale, from PATHCAS_BENCH_SCALE ("quick" default, "full" for
/// paper-scale key ranges and durations).
inline bool fullScale() {
  const char* s = std::getenv("PATHCAS_BENCH_SCALE");
  return s != nullptr && std::string(s) == "full";
}
inline int scaledDurationMs(int quickMs, int fullMs) {
  return fullScale() ? fullMs : quickMs;
}
inline std::int64_t scaledKeys(std::int64_t quick, std::int64_t full) {
  return fullScale() ? full : quick;
}

/// Worker count for prefillHalf, bulk-loaded or not: the machine's
/// concurrency, capped — prefill is bandwidth-bound well before 8 threads.
inline int prefillThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 8u));
}

/// The prefill's key subset: a random half of [0, keyRange), in random
/// order (a Fisher-Yates shuffle of the whole range, then its first half).
inline std::vector<std::int64_t> prefillKeys(std::int64_t keyRange,
                                             std::uint64_t seed = 12345) {
  std::vector<std::int64_t> keys(static_cast<std::size_t>(keyRange));
  for (std::int64_t i = 0; i < keyRange; ++i)
    keys[static_cast<std::size_t>(i)] = i;
  Xoshiro256 rng(seed);
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.nextBounded(i)]);
  }
  keys.resize(static_cast<std::size_t>(keyRange / 2));
  return keys;
}

/// Prefill with prefillKeys' random half of the key range on
/// prefillThreads() workers; returns the keysum inserted. Structures with a
/// parallel bulkLoad get the subset sorted. Any other set gets it in its
/// shuffled order, worker w inserting the keys at positions i = w (mod n),
/// so an unbalanced tree still grows in random order and gets its expected
/// logarithmic depth. The key set depends only on the seed; a tree's exact
/// shape also depends on the workers' interleaving.
template <typename Set>
std::int64_t prefillHalf(Set& set, std::int64_t keyRange,
                         std::uint64_t seed = 12345) {
  std::vector<std::int64_t> keys = prefillKeys(keyRange, seed);
  const int n = prefillThreads();
  if constexpr (HasBulkLoad<Set>) {
    std::sort(keys.begin(), keys.end());
    return set.bulkLoad(keys, n);
  } else {
    const auto stride = static_cast<std::size_t>(n);
    std::vector<std::int64_t> sums(stride, 0);
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < stride; ++w) {
      workers.emplace_back([&, w] {
        ThreadGuard tg;
        std::int64_t sum = 0;
        for (std::size_t i = w; i < keys.size(); i += stride) {
          if (set.insert(keys[i], keys[i])) sum += keys[i];
        }
        sums[w] = sum;
      });
    }
    for (auto& t : workers) t.join();
    std::int64_t keysum = 0;
    for (const std::int64_t sum : sums) keysum += sum;
    return keysum;
  }
}

/// Run one timed trial against a prefilled set. `prefillSum` is the keysum
/// after prefill, used for validation.
///
/// Each worker serves every op in three steps:
///   1. arrival: a closed-loop op is submitted at once; an open-loop op
///      waits for its scheduled arrival, through the admission queue when
///      the arrival spec bounds it;
///   2. run or buffer: reads and unbatched updates execute at once, and a
///      batched update joins the netting window that executes at its flush;
///   3. complete: complete(op, endNs) applies the op's result to the
///      keysum, records its latency and counts its goodput, whether the op
///      ran at once or was netted at a window flush.
/// Every latency origin and end is a TtlClock nanosecond, and an unsampled
/// closed-loop op reads no clock at all.
template <typename Set>
TrialResult runTrial(Set& set, const TrialConfig& cfg,
                     std::int64_t prefillSum) {
  struct alignas(kNoFalseSharing) PerThread {
    std::uint64_t ops = 0, opsApplied = 0;
    std::uint64_t byCat[4] = {};  // insert, erase, find, rq (OpCat order)
    std::uint64_t rqKeys = 0;
    std::int64_t keysumDelta = 0;
    std::uint64_t cycles = 0;
    // Admission accounting (== ops/0/0/ops without admission control) and
    // deadline-good completions; flush counts by trigger.
    std::uint64_t offered = 0, shed = 0, rejected = 0, good = 0;
    std::uint64_t deadlineFlushes = 0, fullFlushes = 0;
  };
  if constexpr (!HasRangeQuery<Set>) {
    PATHCAS_CHECK(cfg.rqFrac == 0.0 &&
                  "rqFrac > 0 requires a structure with rangeQuery()");
  }
  if (cfg.arrival.open)
    PATHCAS_CHECK(cfg.arrival.ratePerSec > 0.0 &&
                  "open-loop arrival needs a positive rate");
  // Force the one-time tsc→ns calibration (a ~20ms spin) before any worker
  // exists, so it can never land inside a timed window: ns_per_op and every
  // TtlClock read need it, and recording turns ns durations into ticks.
  const double nsPerTick = TscCal::nsPerTick();
  const double ticksPerNs = 1.0 / nsPerTick;
  std::vector<PerThread> stats(static_cast<std::size_t>(cfg.threads));
  // Per-thread latency recorders live outside PerThread: each is tens of KB
  // of histogram buckets, only allocated when recording is on.
  std::vector<LatencyRecorder> recs(
      cfg.latency ? static_cast<std::size_t>(cfg.threads) : 0);
  std::atomic<bool> go{false}, stop{false};
  std::atomic<int> ready{0};

  // Zipfian constants are computed here, once, before any worker exists (the
  // incremental zeta table makes repeat trials at the same key range free).
  SharedWorkloadState wstate(cfg.dist, cfg.keyRange);

  // Release any registry slot the calling thread holds (a structure access
  // registers it lazily: a bench's own setup, or an earlier trial's keysum
  // validation), so a kMaxThreads-wide sweep can register every worker. The
  // caller re-registers automatically on its next structure access (the
  // keysum validation below), after the workers have deregistered.
  ThreadRegistry::instance().deregisterThread();

  const std::uint64_t insertCut =
      static_cast<std::uint64_t>(cfg.insertFrac * 1e9);
  const std::uint64_t deleteCut =
      insertCut + static_cast<std::uint64_t>(cfg.deleteFrac * 1e9);
  const std::uint64_t rqCut =
      deleteCut + static_cast<std::uint64_t>(cfg.rqFrac * 1e9);

  std::vector<std::thread> workers;
  for (int t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      ThreadGuard tg;
      // Two independent deterministic streams per worker: the key generator
      // owns one (so replacing the op-type dice can never perturb the key
      // sequence) and the dice keep the legacy seeding.
      KeyGen keys(cfg.dist, cfg.keyRange, &wstate, cfg.seed, t, cfg.threads);
      Xoshiro256 rng(cfg.seed * 1000003 + static_cast<std::uint64_t>(t));
      PerThread& my = stats[static_cast<std::size_t>(t)];
      LatencyRecorder* rec =
          cfg.latency ? &recs[static_cast<std::size_t>(t)] : nullptr;
      std::vector<std::pair<std::int64_t, std::int64_t>> rqBuf;
      rqBuf.reserve(static_cast<std::size_t>(cfg.rqSize));

      // Admission comes from the arrival spec alone, and only an open loop
      // has any: a bounded per-worker queue (q) and a queue-wait deadline
      // (d). The deadline is also the netting window's flush deadline: an
      // op the client would shed for queue-waiting must not sit just as
      // long in a cold window. Time runs in TtlClock nanoseconds (real
      // mode: calibrated tsc; virtual mode: the test clock), so admission
      // and flush decisions are deterministic under a pinned virtual clock.
      const bool openLoop = cfg.arrival.open;
      const int qdepth = openLoop ? cfg.arrival.qdepth : 0;
      const std::uint64_t deadlineNs =
          openLoop && cfg.arrival.deadlineNs > 0
              ? static_cast<std::uint64_t>(cfg.arrival.deadlineNs)
              : 0;
      const bool admission = qdepth > 0 || deadlineNs > 0;
      ArrivalGen arrivals(
          openLoop ? cfg.arrival.ratePerSec / cfg.threads : 1.0, cfg.seed, t);
      AdmissionQueue aq(qdepth, static_cast<std::int64_t>(deadlineNs));

      // One record per op. The netting rule (service/netting.hpp) reads a
      // buffered op's key, val and isInsert and sets its result.
      struct Op {
        std::int64_t key, val;
        std::uint64_t t0Ns;       // latency origin (0: unsampled)
        std::uint64_t arrivalNs;  // scheduled arrival (0: closed loop)
        OpCat cat;
        bool isInsert;            // cat == OpCat::kInsert
        bool result;              // true iff an update changed the set
      };
      const auto since = [](std::uint64_t endNs, std::uint64_t originNs) {
        return endNs > originNs ? endNs - originNs : 0;
      };
      // Complete one op at endNs: the only place an op's result reaches the
      // keysum, its latency the recorder, and its completion the goodput
      // count (without a deadline every completed op is good). endNs is 0
      // unless the op is sampled or a deadline judges it.
      const auto complete = [&](const Op& op, std::uint64_t endNs) {
        if (op.result) {
          my.keysumDelta += op.isInsert ? op.key : -op.key;
          if (op.isInsert) keys.noteInsert(op.key);
        }
        if (op.t0Ns != 0)
          rec->record(op.cat, static_cast<std::uint64_t>(
                                  since(endNs, op.t0Ns) * ticksPerNs));
        if (deadlineNs == 0 || since(endNs, op.arrivalNs) <= deadlineNs)
          ++my.good;
      };

      // Group-commit mode (cfg.batch > 1 on a HasBatchOps structure):
      // updates are buffered into a window of cfg.batch ops and settled at
      // the flush. All ops in one window are concurrent (the submitter has
      // not observed any of their results yet), so the flush nets them by
      // the same-key rule (service/netting.hpp): one op per key, committed
      // as one sorted updateBatch run, and a result for every op. The
      // keysum follows those per-op results, so the trial's keysum check
      // also checks the netting rule.
      // Reads stay immediate.
      const bool batching = HasBatchOps<Set> && cfg.batch > 1;
      const std::size_t batchW =
          static_cast<std::size_t>(std::max(cfg.batch, 1));
      std::vector<Op> win;
      std::vector<std::int64_t> netKeys, netVals;
      std::unique_ptr<bool[]> netIns, netOut;
      if (batching) {
        win.reserve(batchW);
        netKeys.resize(batchW);
        netVals.resize(batchW);
        netIns = std::make_unique<bool[]>(batchW);
        netOut = std::make_unique<bool[]>(batchW);
      }
      AdaptiveFlushPolicy flushPol(batchW, deadlineNs);
      const bool flushTimed = batching && flushPol.timed();
      // Every op in the window completes at the flush, so window fill time
      // is measured as the serving latency it really is. The caller notes
      // the trigger (full or deadline) on flushPol first; the stop drain is
      // neither pressure nor headroom and notes nothing.
      // A timed window also measures its commit's cost per op, from which
      // the next deadline flush predicts its own and starts that early.
      const auto flush = [&] {
        if constexpr (HasBatchOps<Set>) {
          if (win.empty()) return;
          const std::uint64_t startNs = flushTimed ? TtlClock::nowNs() : 0;
          my.opsApplied += service::commitNetted(
              set, win.data(), win.size(),
              service::NetRun<std::int64_t, std::int64_t>{
                  netKeys.data(), netVals.data(), netIns.get(), netOut.get()});
          const std::uint64_t endNs =
              rec != nullptr || deadlineNs != 0 ? TtlClock::nowNs() : 0;
          if (flushTimed)
            flushPol.noteCommit(since(endNs, startNs), win.size());
          for (const Op& op : win) complete(op, endNs);
          win.clear();
        }
      };
      // Buffer one update at nowNs (its admission instant; only a timed
      // window, which needs an open loop, reads it): a new window ages from
      // the op's scheduled arrival. Then flush on width (adaptive) or, when
      // the oldest op would otherwise miss its deadline, on the deadline.
      const auto buffer = [&](const Op& op, std::uint64_t nowNs) {
        if (flushTimed && win.empty()) flushPol.windowOpened(op.arrivalNs);
        win.push_back(op);
        if (win.size() >= flushPol.window()) {
          flushPol.noteFull();
          flush();
        } else if (flushTimed && flushPol.flushDue(nowNs, win.size())) {
          flushPol.noteDeadline();
          flush();
        }
      };

      // Open loop: the next not-yet-consumed scheduled arrival. Arrivals
      // advance in VIRTUAL time, independent of service progress: a worker
      // that falls behind keeps the (past) scheduled instants as latency
      // origins, so backlog is measured as queueing delay — the
      // coordinated-omission fix — instead of silently stretching the
      // arrival schedule. With admission control, every due arrival is
      // materialized into the bounded queue first, so overload becomes
      // rejections (full queue) and sheds (deadline) instead of an
      // unbounded implicit backlog.
      std::uint64_t pendingNs = 0;
      // Wait for the next admitted arrival; set its scheduled instant and
      // the admission instant. Returns false if the trial stopped first.
      const auto arrive = [&](std::uint64_t* arrivalNs, std::uint64_t* nowNs) {
        for (;;) {
          *nowNs = TtlClock::nowNs();
          if (admission) {
            // Materialize every due arrival, then serve the queue front:
            // reject at the bound, shed past the deadline, admit the rest.
            while (pendingNs <= *nowNs) {
              aq.offer(pendingNs);
              pendingNs += static_cast<std::uint64_t>(arrivals.nextGapNs());
            }
            AdmissionQueue::Pop res;
            do res = aq.pop(*nowNs, arrivalNs);
            while (res == AdmissionQueue::Pop::kShed);
            if (res == AdmissionQueue::Pop::kAdmit) return true;
          } else if (*nowNs >= pendingNs) {
            *arrivalNs = pendingNs;
            pendingNs += static_cast<std::uint64_t>(arrivals.nextGapNs());
            return true;
          }
          // Idle until the next scheduled arrival. A timed partial window
          // still flushes in time for its oldest op's deadline — the
          // cold-window hang fix: at 1 op/s a buffered update no longer
          // waits for the window to fill (or the trial to end) to execute.
          if (stop.load(std::memory_order_relaxed)) return false;
          if (flushTimed && !win.empty() &&
              flushPol.flushDue(*nowNs, win.size())) {
            flushPol.noteDeadline();
            flush();
          }
          cpuRelax();
        }
      };

      // Sampled recording: every 2^latSampleShift-th op (per thread) is
      // timed; the rest run untouched. The stride counter is deterministic
      // and uncorrelated with op kind or cost, so the sampled subset is an
      // unbiased draw from the op stream.
      const std::uint64_t sampleMask =
          (1ULL << static_cast<unsigned>(std::max(cfg.latSampleShift, 0))) -
          1;
      std::uint64_t sampleCtr = 0;

      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) cpuRelax();
      const std::uint64_t c0 = rdtsc();
      if (openLoop)
        pendingNs = TtlClock::nowNs() +
                    static_cast<std::uint64_t>(arrivals.nextGapNs());
      while (!stop.load(std::memory_order_relaxed)) {
        const std::int64_t k = keys.next();
        const std::uint64_t dice = rng.nextBounded(1000000000ULL);
        const bool sampled =
            rec != nullptr && (sampleCtr++ & sampleMask) == 0;
        Op op{k, k, 0, 0, OpCat::kFind, false, false};
        if (dice < insertCut) {
          op.cat = OpCat::kInsert;
          op.isInsert = true;
        } else if (dice < deleteCut) {
          op.cat = OpCat::kErase;
        } else if (dice < rqCut) {
          op.cat = OpCat::kRq;
        }
        // 1. Arrival. The latency origin is the op's scheduled arrival in
        // open loop (queueing included, and recorded apart as kSched), the
        // submission instant in closed loop.
        std::uint64_t nowNs = 0;
        if (openLoop) {
          if (!arrive(&op.arrivalNs, &nowNs)) break;  // stopped while idle
          if (sampled) {
            op.t0Ns = op.arrivalNs;
            rec->record(OpCat::kSched,
                        static_cast<std::uint64_t>(
                            since(nowNs, op.arrivalNs) * ticksPerNs));
          }
        } else if (sampled) {
          op.t0Ns = TtlClock::nowNs();
        }
        ++my.ops;
        ++my.byCat[static_cast<int>(op.cat)];
        // 2. Run or buffer.
        if (batching && op.cat != OpCat::kFind && op.cat != OpCat::kRq) {
          buffer(op, nowNs);  // completes at its window's flush
          continue;
        }
        switch (op.cat) {
          case OpCat::kInsert:
            op.result = set.insert(op.key, op.val);
            break;
          case OpCat::kErase:
            op.result = set.erase(op.key);
            break;
          case OpCat::kRq:
            if constexpr (HasRangeQuery<Set>) {
              rqBuf.clear();
              my.rqKeys += static_cast<std::uint64_t>(
                  set.rangeQuery(op.key, op.key + cfg.rqSize - 1, rqBuf));
            }
            break;
          default:
            (void)set.contains(op.key);
        }
        ++my.opsApplied;
        // 3. Complete.
        complete(op, sampled || deadlineNs != 0 ? TtlClock::nowNs() : 0);
      }
      // Stop the per-thread clock BEFORE the post-stop drain: my.cycles
      // covers exactly the timed window, so ns/op and cycles/op no longer
      // skew with batch width (the drain is reported separately as
      // TrialResult::drainSec).
      my.cycles = rdtsc() - c0;
      // Settle outstanding updates so keysum stays exact.
      flush();
      // Everything still queued at stop is shed; the accounting identity
      // offered == admitted(executed) + shed + rejected is then exact.
      aq.shedRemaining();
      // Without admission every arrival executes: offered == ops.
      my.offered = admission ? aq.offered() : my.ops;
      my.shed = aq.shed();
      my.rejected = aq.rejected();
      my.deadlineFlushes = flushPol.deadlineFlushes();
      my.fullFlushes = flushPol.fullFlushes();
    });
  }
  while (ready.load() != cfg.threads) std::this_thread::yield();
  StopWatch sw;
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.durationMs));
  stop.store(true, std::memory_order_release);
  // Read the timed window at stop, BEFORE joining: join waits for the
  // workers' post-stop batch drains, and folding that into `elapsed` made
  // mops skew with batch width. The drain + join tail is reported
  // separately.
  const double elapsed = sw.elapsedSeconds();
  for (auto& w : workers) w.join();
  const double drain = sw.elapsedSeconds() - elapsed;

  TrialResult r;
  std::int64_t expected = prefillSum;
  std::uint64_t cycles = 0;
  std::uint64_t goodOps = 0;
  r.minThreadOps = stats.empty() ? 0 : stats.front().ops;
  for (const auto& s : stats) {
    r.totalOps += s.ops;
    r.opsApplied += s.opsApplied;
    r.inserts += s.byCat[static_cast<int>(OpCat::kInsert)];
    r.deletes += s.byCat[static_cast<int>(OpCat::kErase)];
    r.finds += s.byCat[static_cast<int>(OpCat::kFind)];
    r.rqs += s.byCat[static_cast<int>(OpCat::kRq)];
    r.rqKeys += s.rqKeys;
    r.minThreadOps = std::min(r.minThreadOps, s.ops);
    r.maxThreadOps = std::max(r.maxThreadOps, s.ops);
    expected += s.keysumDelta;
    cycles += s.cycles;
    r.opsOffered += s.offered;
    r.opsShed += s.shed;
    r.opsRejected += s.rejected;
    goodOps += s.good;
    r.deadlineFlushes += s.deadlineFlushes;
    r.fullFlushes += s.fullFlushes;
  }
  // The admission accounting identity holds in every trial — JSON rows are
  // emitted only from results that passed this check.
  PATHCAS_CHECK(r.opsOffered == r.totalOps + r.opsShed + r.opsRejected &&
                "admission accounting identity violated");
  r.elapsedSec = elapsed;
  r.drainSec = drain;
  r.mops = static_cast<double>(r.totalOps) / elapsed / 1e6;
  r.mopsApplied = static_cast<double>(r.opsApplied) / elapsed / 1e6;
  r.nsPerOp = r.totalOps ? TscCal::toNs(cycles) /
                               static_cast<double>(r.totalOps)
                         : 0.0;
  r.cyclesPerOp = r.totalOps ? static_cast<double>(cycles) /
                                   static_cast<double>(r.totalOps)
                             : 0.0;
  r.goodputMops =
      elapsed > 0.0 ? static_cast<double>(goodOps) / elapsed / 1e6 : 0.0;
  if (cfg.latency)
    r.lat = summarizeLatency(recs.data(), cfg.threads, nsPerTick);
  r.keysumOk = (set.keySum() == expected);
  PATHCAS_CHECK(r.keysumOk && "keysum validation failed — correctness bug");
  if constexpr (HasFootprint<Set>) r.footprintBytes = set.footprintBytes();
  if constexpr (HasRqRetries<Set>) r.rqRetries = set.rqRetries();
  return r;
}

/// Convenience: construct, prefill, run, return result (one fresh structure
/// per cell, as in setbench).
template <typename MakeSet>
TrialResult runCell(MakeSet&& makeSet, const TrialConfig& cfg) {
  auto set = makeSet();
  const std::int64_t prefillSum = prefillHalf(*set, cfg.keyRange);
  return runTrial(*set, cfg, prefillSum);
}

// ---------------------------------------------------------------------------
// Output helpers: the benches print paper-style rows plus a CSV block that
// experiment logs can be grepped from (`grep '^csv,'`), and — opt-in via
// PATHCAS_BENCH_JSON=<path> — machine-readable JSON Lines (one object per
// trial, appended) so perf trajectory can be tracked across PRs.
// ---------------------------------------------------------------------------

/// The JSON sink, opened (append mode) on first use from PATHCAS_BENCH_JSON.
/// Returns nullptr when the knob is unset or the file cannot be opened.
inline std::FILE* jsonSink() {
  static std::FILE* sink = []() -> std::FILE* {
    const char* path = std::getenv("PATHCAS_BENCH_JSON");
    if (path == nullptr || *path == '\0') return nullptr;
    std::FILE* f = std::fopen(path, "a");
    if (f == nullptr)
      std::fprintf(stderr, "PATHCAS_BENCH_JSON: cannot open %s\n", path);
    return f;
  }();
  return sink;
}

/// Append one JSON object (one line) describing a completed trial. Every
/// bench emits the same schema — including `dist`, `theta` and `mix` even
/// for the uniform default — so rows from different benches aggregate
/// without per-experiment special cases (schema: docs/BENCHMARKING.md).
/// `extraFields`, when given, is a comma-separated list of `"name":value`
/// members appended after the standard ones (cache_workload's counters).
inline void jsonAppendTrial(const std::string& experiment,
                            const std::string& algo, const TrialConfig& cfg,
                            const TrialResult& r,
                            const std::string& extraFields = {}) {
  std::FILE* f = jsonSink();
  if (f == nullptr) return;
  const double rqMops =
      r.elapsedSec > 0.0 ? static_cast<double>(r.rqs) / r.elapsedSec / 1e6
                         : 0.0;
  const bool skewed = cfg.dist.kind == DistKind::kZipfian ||
                      cfg.dist.kind == DistKind::kLatest;
  std::fprintf(
      f,
      "{\"experiment\":\"%s\",\"algo\":\"%s\",\"threads\":%d,\"shards\":%d,"
      "\"batch\":%d,"
      "\"key_range\":%lld,\"dist\":\"%s\",\"theta\":%g,\"mix\":\"%s\","
      "\"arrival\":\"%s\",\"update_pct\":%.1f,\"rq_pct\":%.1f,"
      "\"rq_size\":%lld,\"mops\":%.4f,\"mops_applied\":%.4f,"
      "\"rq_mops\":%.4f,"
      "\"total_ops\":%llu,\"ops_applied\":%llu,"
      "\"ops_min_thread\":%llu,\"ops_max_thread\":%llu,"
      "\"rqs\":%llu,\"rq_keys\":%llu,"
      "\"ns_per_op\":%.1f,\"cycles_per_op\":%.1f,\"footprint_bytes\":%llu,"
      "\"elapsed_sec\":%.4f,\"drain_sec\":%.4f,\"keysum_ok\":%s",
      experiment.c_str(), algo.c_str(), cfg.threads, cfg.shards, cfg.batch,
      static_cast<long long>(cfg.keyRange),
      cfg.dist.label().c_str(), skewed ? cfg.dist.theta : 0.0,
      cfg.mix.c_str(), cfg.arrival.label().c_str(),
      (cfg.insertFrac + cfg.deleteFrac) * 100.0, cfg.rqFrac * 100.0,
      static_cast<long long>(cfg.rqSize), r.mops, r.mopsApplied, rqMops,
      static_cast<unsigned long long>(r.totalOps),
      static_cast<unsigned long long>(r.opsApplied),
      static_cast<unsigned long long>(r.minThreadOps),
      static_cast<unsigned long long>(r.maxThreadOps),
      static_cast<unsigned long long>(r.rqs),
      static_cast<unsigned long long>(r.rqKeys), r.nsPerOp, r.cyclesPerOp,
      static_cast<unsigned long long>(r.footprintBytes), r.elapsedSec,
      r.drainSec, r.keysumOk ? "true" : "false");
  // Admission / goodput columns (docs/BENCHMARKING.md, "Overload and
  // goodput"). ops_admitted == total_ops by construction; it is emitted
  // explicitly so the identity ops_offered == ops_admitted + ops_shed +
  // ops_rejected can be checked row-by-row without schema knowledge.
  std::fprintf(
      f,
      ",\"qdepth\":%d,\"deadline_ns\":%lld,"
      "\"ops_offered\":%llu,\"ops_admitted\":%llu,\"ops_shed\":%llu,"
      "\"ops_rejected\":%llu,\"goodput_mops\":%.4f,"
      "\"deadline_flushes\":%llu,\"full_flushes\":%llu,\"rq_retries\":%llu",
      cfg.arrival.qdepth, static_cast<long long>(cfg.arrival.deadlineNs),
      static_cast<unsigned long long>(r.opsOffered),
      static_cast<unsigned long long>(r.totalOps),
      static_cast<unsigned long long>(r.opsShed),
      static_cast<unsigned long long>(r.opsRejected), r.goodputMops,
      static_cast<unsigned long long>(r.deadlineFlushes),
      static_cast<unsigned long long>(r.fullFlushes),
      static_cast<unsigned long long>(r.rqRetries));
  if (r.lat.valid) {
    // Overall op quantiles at the top level (what bench_compare.py gates),
    // the open-loop queueing-delay p99 beside them, and the per-category
    // breakdown nested under "lat" (schema: docs/BENCHMARKING.md).
    std::fprintf(f,
                 ",\"p50_ns\":%.1f,\"p99_ns\":%.1f,\"p999_ns\":%.1f,"
                 "\"max_ns\":%.1f,\"sched_p99_ns\":%.1f,\"lat\":{",
                 r.lat.overall.p50Ns, r.lat.overall.p99Ns,
                 r.lat.overall.p999Ns, r.lat.overall.maxNs,
                 r.lat.of(OpCat::kSched).p99Ns);
    for (int c = 0; c < kNumOpCats; ++c) {
      const LatencySummary::Cat& cat = r.lat.cat[c];
      std::fprintf(f,
                   "%s\"%s\":{\"count\":%llu,\"p50_ns\":%.1f,"
                   "\"p99_ns\":%.1f,\"p999_ns\":%.1f,\"max_ns\":%.1f}",
                   c == 0 ? "" : ",", kOpCatNames[c],
                   static_cast<unsigned long long>(cat.count), cat.p50Ns,
                   cat.p99Ns, cat.p999Ns, cat.maxNs);
    }
    std::fprintf(f, "}");
  }
  if (!extraFields.empty()) std::fprintf(f, ",%s", extraFields.c_str());
  std::fprintf(f, "}\n");
  std::fflush(f);
}

inline void printHeader(const std::string& title,
                        const std::vector<int>& threadCounts) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-22s", "algorithm");
  for (int t : threadCounts) std::printf("  t=%-8d", t);
  std::printf("   (Mops/s per thread count)\n");
}

inline void printRow(const std::string& algo,
                     const std::vector<double>& mops) {
  std::printf("%-22s", algo.c_str());
  for (double m : mops) std::printf("  %-10.3f", m);
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace pathcas::bench
