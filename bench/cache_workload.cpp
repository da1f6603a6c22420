// Cache workload: hit-ratio × skew sweep for the KCAS-backed LRU/TTL cache
// (structs/lru_cache.hpp), the cross-structure composite where every
// mutation — hit promotion, insert, eviction, TTL collection — commits the
// hash index and the recency list in one KCAS. The grid crosses Zipfian θ
// (how concentrated the working set is) with the capacity FRACTION (cache
// capacity / key range): a skewed workload in a small cache still hits —
// the classic cache-sizing curve — while a uniform workload thrashes, and
// every miss-fill at capacity runs the widest descriptor in the repo (MCMS
// cold path: two bucket chains + four recency splices + mark + size anchor
// in one commit). YCSB-style cache-aside clients: lookup-heavy, fill on
// miss, a trickle of write-throughs and invalidations, 1-in-8 fills carrying
// a short TTL so the expiry path stays in the racing mix.
//
// Per cell: throughput plus hit/miss/expired/eviction accounting, a
// quiescent checkInvariants() (a bench run is also a correctness run), CSV
// rows (`grep '^csv,cache_workload'`), and — under PATHCAS_BENCH_JSON —
// one JSON object per trial carrying the standard identity + mops + latency
// fields bench_compare.py gates on, extended with the cache counters.
//
// Default grid: dist ∈ {uniform, zipfian:0.60, zipfian:0.90, zipfian:0.99}
// × capacity fraction ∈ {5%, 25%, 50%} × PATHCAS_BENCH_THREADS. Setting
// PATHCAS_BENCH_DIST collapses the distribution axis to that one spec (the
// CI smoke runs `zipfian:0.99`); PATHCAS_BENCH_LATENCY / _ARRIVAL / _SCALE /
// _JSON behave as everywhere else, except that this loop has no admission
// queue: an arrival spec's q/d suffixes are dropped with a warning, so the
// `arrival` field names what ran. The operation mix is the cache-aside
// loop itself (not a set mix), so PATHCAS_BENCH_MIX does not apply; the
// `mix` identity column carries the capacity fraction ("cache-cf25").
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_helpers.hpp"
#include "structs/lru_cache.hpp"

using namespace pathcas;
using namespace pathcas::bench;

namespace {

constexpr std::int64_t kLookupPct = 90;  // rest: 8% write-through, 2% inval
constexpr std::int64_t kWritePct = 8;
constexpr std::uint64_t kTtlNs = 5'000'000;  // 5ms; every 8th fill carries it

struct CacheCounters {
  std::uint64_t hits = 0, misses = 0, expired = 0;
  std::uint64_t fills = 0, evictions = 0, invals = 0;
  double hitPct() const {
    const std::uint64_t lookups = hits + misses + expired;
    return lookups ? 100.0 * static_cast<double>(hits) /
                         static_cast<double>(lookups)
                   : 0.0;
  }
};

/// One timed trial of the cache-aside loop. Mirrors driver.hpp's runTrial
/// (tsc pre-calibration, ready/go/stop handshake, sampled latency, optional
/// open-loop arrivals) but drives the cache interface — get with fill on
/// miss — instead of a set mix, and settles the hit/miss/evict accounting
/// the set driver has no notion of.
TrialResult runCacheTrial(const TrialConfig& cfg, std::int64_t capacity,
                          CacheCounters* out) {
  struct alignas(kNoFalseSharing) PerThread {
    std::uint64_t ops = 0, cycles = 0;
    CacheCounters c;
  };
  const double nsPerTick = TscCal::nsPerTick();  // calibrate pre-window
  const double ticksPerNs = 1.0 / nsPerTick;
  ds::LruTtlCache<> cache(static_cast<std::size_t>(capacity));

  // Warm prefill from the trial's own distribution, so the resident set is
  // the hot set and the timed window starts at steady-state hit ratio.
  SharedWorkloadState wstate(cfg.dist, cfg.keyRange);
  {
    KeyGen keys(cfg.dist, cfg.keyRange, &wstate, cfg.seed ^ 0xF111, 0, 1);
    for (std::int64_t i = 0; i < capacity * 4 && cache.size() < capacity;
         ++i) {
      const std::int64_t k = keys.next();
      cache.put(k, k * 2 + 1);
    }
  }
  ThreadRegistry::instance().deregisterThread();

  std::vector<PerThread> stats(static_cast<std::size_t>(cfg.threads));
  std::vector<LatencyRecorder> recs(
      cfg.latency ? static_cast<std::size_t>(cfg.threads) : 0);
  std::atomic<bool> go{false}, stop{false};
  std::atomic<int> ready{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      ThreadGuard tg;
      KeyGen keys(cfg.dist, cfg.keyRange, &wstate, cfg.seed, t, cfg.threads);
      Xoshiro256 rng(cfg.seed * 1000003 + static_cast<std::uint64_t>(t));
      PerThread& my = stats[static_cast<std::size_t>(t)];
      LatencyRecorder* rec =
          cfg.latency ? &recs[static_cast<std::size_t>(t)] : nullptr;
      const bool openLoop = cfg.arrival.open;
      ArrivalGen arrivals(
          openLoop ? cfg.arrival.ratePerSec / cfg.threads : 1.0, cfg.seed, t);
      const std::uint64_t sampleMask =
          (1ULL << static_cast<unsigned>(std::max(cfg.latSampleShift, 0))) -
          1;
      std::uint64_t sampleCtr = 0;

      // Every 8th fill carries the short TTL (per-thread stride: cheap and
      // deterministic), so expiry collection happens inside the timed mix.
      std::uint64_t fillCtr = 0;
      auto fill = [&](std::int64_t k) {
        const std::uint64_t ttl = (fillCtr++ & 7) == 0 ? kTtlNs : 0;
        const auto r = cache.put(k, k * 2 + 1, ttl);
        ++my.c.fills;
        if (r.evicted) ++my.c.evictions;
        if (r.inserted) keys.noteInsert(k);
      };

      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) cpuRelax();
      const std::uint64_t c0 = rdtsc();
      std::uint64_t nextArrival = c0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::int64_t k = keys.next();
        const std::uint64_t dice = rng.nextBounded(100);
        const bool sampled =
            rec != nullptr && (sampleCtr++ & sampleMask) == 0;
        std::uint64_t opStart = 0;
        if (openLoop) {
          nextArrival += static_cast<std::uint64_t>(arrivals.nextGapNs() *
                                                    ticksPerNs);
          std::uint64_t now = rdtsc();
          while (now < nextArrival &&
                 !stop.load(std::memory_order_relaxed)) {
            cpuRelax();
            now = rdtsc();
          }
          if (now < nextArrival) break;  // stopped while idle pre-arrival
          if (sampled) {
            rec->record(OpCat::kSched, now - nextArrival);
            opStart = nextArrival;
          }
        } else if (sampled) {
          opStart = rdtsc();
        }
        OpCat cat = OpCat::kFind;
        if (dice < kLookupPct) {
          // Cache-aside lookup: the fill on a miss is part of the same
          // logical op (and of its measured latency — that IS the cost a
          // missing client pays).
          std::int64_t v = 0;
          switch (cache.get(k, &v)) {
            case ds::CacheGet::kHit:
              ++my.c.hits;
              break;
            case ds::CacheGet::kMiss:
              ++my.c.misses;
              fill(k);
              break;
            case ds::CacheGet::kExpired:
              ++my.c.expired;
              fill(k);
              break;
          }
        } else if (dice < kLookupPct + kWritePct) {
          cat = OpCat::kInsert;  // write-through update
          fill(k);
        } else {
          cat = OpCat::kErase;  // invalidation
          if (cache.erase(k)) ++my.c.invals;
        }
        ++my.ops;
        if (sampled) rec->record(cat, rdtsc() - opStart);
      }
      my.cycles = rdtsc() - c0;
    });
  }
  while (ready.load() != cfg.threads) std::this_thread::yield();
  StopWatch sw;
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.durationMs));
  stop.store(true, std::memory_order_release);
  const double elapsed = sw.elapsedSeconds();
  for (auto& w : workers) w.join();

  TrialResult r;
  std::uint64_t cycles = 0;
  r.minThreadOps = stats.empty() ? 0 : stats.front().ops;
  for (const auto& s : stats) {
    r.totalOps += s.ops;
    r.minThreadOps = std::min(r.minThreadOps, s.ops);
    r.maxThreadOps = std::max(r.maxThreadOps, s.ops);
    cycles += s.cycles;
    out->hits += s.c.hits;
    out->misses += s.c.misses;
    out->expired += s.c.expired;
    out->fills += s.c.fills;
    out->evictions += s.c.evictions;
    out->invals += s.c.invals;
  }
  r.opsApplied = r.totalOps;
  r.opsOffered = r.totalOps;  // closed loop: offered == executed
  r.elapsedSec = elapsed;
  r.mops = static_cast<double>(r.totalOps) / elapsed / 1e6;
  r.mopsApplied = r.mops;
  r.goodputMops = r.mops;
  r.nsPerOp = r.totalOps ? TscCal::toNs(cycles) /
                               static_cast<double>(r.totalOps)
                         : 0.0;
  r.cyclesPerOp = r.totalOps ? static_cast<double>(cycles) /
                                   static_cast<double>(r.totalOps)
                             : 0.0;
  if (cfg.latency)
    r.lat = summarizeLatency(recs.data(), cfg.threads, nsPerTick);
  r.inserts = out->fills;
  r.deletes = out->invals;
  r.finds = out->hits + out->misses + out->expired;
  // A bench run is also a correctness run: the workers have joined, so the
  // composite invariants (hash set == list set, size honest, <= capacity)
  // are checkable quiescently.
  cache.checkInvariants();
  r.keysumOk = true;
  r.footprintBytes = cache.footprintBytes();
  return r;
}

/// Cache JSON row: the standard trial identity + throughput/latency fields
/// (exactly the names bench_compare.py joins and gates on) extended with
/// the cache accounting. Extra fields are ignored by older tooling.
void jsonAppendCacheTrial(const TrialConfig& cfg, std::int64_t capacity,
                          const TrialResult& r, const CacheCounters& c) {
  std::FILE* f = jsonSink();
  if (f == nullptr) return;
  const bool skewed = cfg.dist.kind == DistKind::kZipfian ||
                      cfg.dist.kind == DistKind::kLatest;
  std::fprintf(
      f,
      "{\"experiment\":\"cache_workload\",\"algo\":\"%s\",\"threads\":%d,"
      "\"shards\":%d,\"batch\":%d,\"combine_window\":%d,"
      "\"key_range\":%lld,\"dist\":\"%s\",\"theta\":%g,\"mix\":\"%s\","
      "\"arrival\":\"%s\",\"update_pct\":%.1f,\"rq_pct\":0.0,\"rq_size\":0,"
      "\"capacity\":%lld,"
      "\"mops\":%.4f,\"total_ops\":%llu,\"ns_per_op\":%.1f,"
      "\"hit_pct\":%.2f,\"hits\":%llu,\"misses\":%llu,\"expired\":%llu,"
      "\"fills\":%llu,\"evictions\":%llu,\"invalidations\":%llu,"
      "\"footprint_bytes\":%llu,\"elapsed_sec\":%.4f",
      ds::LruTtlCache<>::name(), cfg.threads, cfg.shards, cfg.batch,
      cfg.combineWindow, static_cast<long long>(cfg.keyRange),
      cfg.dist.label().c_str(), skewed ? cfg.dist.theta : 0.0,
      cfg.mix.c_str(), cfg.arrival.label().c_str(),
      static_cast<double>(100 - kLookupPct),
      static_cast<long long>(capacity), r.mops,
      static_cast<unsigned long long>(r.totalOps), r.nsPerOp, c.hitPct(),
      static_cast<unsigned long long>(c.hits),
      static_cast<unsigned long long>(c.misses),
      static_cast<unsigned long long>(c.expired),
      static_cast<unsigned long long>(c.fills),
      static_cast<unsigned long long>(c.evictions),
      static_cast<unsigned long long>(c.invals),
      static_cast<unsigned long long>(r.footprintBytes), r.elapsedSec);
  if (r.lat.valid) {
    std::fprintf(f,
                 ",\"p50_ns\":%.1f,\"p99_ns\":%.1f,\"p999_ns\":%.1f,"
                 "\"sched_p99_ns\":%.1f",
                 r.lat.overall.p50Ns, r.lat.overall.p99Ns,
                 r.lat.overall.p999Ns, r.lat.of(OpCat::kSched).p99Ns);
  }
  std::fprintf(f, "}\n");
  std::fflush(f);
}

void runCell(const TrialConfig& base, int threads, int cfPct) {
  TrialConfig cfg = base;
  cfg.threads = threads;
  cfg.mix = "cache-cf" + std::to_string(cfPct);
  const std::int64_t capacity =
      std::max<std::int64_t>(1, cfg.keyRange * cfPct / 100);
  CacheCounters c;
  const TrialResult r = runCacheTrial(cfg, capacity, &c);
  std::printf("  cf=%2d%% t=%-3d %8.3f Mops  hit %6.2f%%  "
              "(miss %llu, expired %llu, evict %llu)\n",
              cfPct, threads, r.mops, c.hitPct(),
              static_cast<unsigned long long>(c.misses),
              static_cast<unsigned long long>(c.expired),
              static_cast<unsigned long long>(c.evictions));
  // csv,cache_workload,algo,threads,keyrange,capacity,cf_pct,dist,theta,
  //     mops,hit_pct,hits,misses,expired,fills,evictions,invals,
  //     p50_ns,p99_ns,footprint_bytes
  std::printf("csv,cache_workload,%s,%d,%lld,%lld,%d,%s,%g,%.3f,%.2f,"
              "%llu,%llu,%llu,%llu,%llu,%llu,%.0f,%.0f,%llu\n",
              ds::LruTtlCache<>::name(), cfg.threads,
              static_cast<long long>(cfg.keyRange),
              static_cast<long long>(capacity), cfPct,
              cfg.dist.label().c_str(),
              cfg.dist.kind == DistKind::kZipfian ||
                      cfg.dist.kind == DistKind::kLatest
                  ? cfg.dist.theta
                  : 0.0,
              r.mops, c.hitPct(), static_cast<unsigned long long>(c.hits),
              static_cast<unsigned long long>(c.misses),
              static_cast<unsigned long long>(c.expired),
              static_cast<unsigned long long>(c.fills),
              static_cast<unsigned long long>(c.evictions),
              static_cast<unsigned long long>(c.invals),
              r.lat.overall.p50Ns, r.lat.overall.p99Ns,
              static_cast<unsigned long long>(r.footprintBytes));
  std::fflush(stdout);
  jsonAppendCacheTrial(cfg, capacity, r, c);
}

void runGrid(const std::vector<int>& threads, const TrialConfig& base) {
  std::printf("\n== cache workload: %s, keyrange %lld ==\n",
              base.dist.label().c_str(),
              static_cast<long long>(base.keyRange));
  for (int cfPct : {5, 25, 50}) {
    for (int t : threads) runCell(base, t, cfPct);
  }
}

}  // namespace

int main() {
  const auto threads = defaultThreads();
  TrialConfig base;
  base.keyRange = scaledKeys(1 << 14, 1 << 18);
  base.durationMs = scaledDurationMs(80, 1000);
  applyEnvLatency(base);
  if (applyEnvArrival(base) &&
      (base.arrival.qdepth > 0 || base.arrival.deadlineNs > 0)) {
    std::fprintf(stderr,
                 "cache_workload: no admission queue; ignoring the q/d "
                 "suffixes of PATHCAS_BENCH_ARRIVAL\n");
    base.arrival.qdepth = 0;
    base.arrival.deadlineNs = 0;
  }

  if (applyEnvDist(base)) {
    // Single-distribution mode (the CI smoke): just that spec's grid.
    runGrid(threads, base);
    return 0;
  }
  std::vector<DistSpec> grid;
  grid.push_back({});  // uniform: the thrash end of the curve
  for (double theta : {0.60, 0.90, 0.99}) {
    DistSpec d;
    d.kind = DistKind::kZipfian;
    d.theta = theta;
    grid.push_back(d);
  }
  for (const DistSpec& d : grid) {
    TrialConfig cfg = base;
    cfg.dist = d;
    runGrid(threads, cfg);
  }
  return 0;
}
