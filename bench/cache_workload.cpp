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
// The clients are driver.hpp's runTrial workers, driving CacheAsideClient
// like any set (90% contains = lookup, 8% insert = write-through, 2% erase
// = invalidation), so the cache gets the same serving loop, clock,
// admission and keysum check as every other bench. Per cell: throughput
// plus hit/miss/expired/eviction accounting, a quiescent checkInvariants()
// (a bench run is also a correctness run), CSV rows
// (`grep '^csv,cache_workload'`), and — under PATHCAS_BENCH_JSON — one
// standard JSON object per trial carrying the cache counters as extra
// fields.
//
// Default grid: dist ∈ {uniform, zipfian:0.60, zipfian:0.90, zipfian:0.99}
// × capacity fraction ∈ {5%, 25%, 50%} × PATHCAS_BENCH_THREADS. Setting
// PATHCAS_BENCH_DIST collapses the distribution axis to that one spec (the
// CI smoke runs `zipfian:0.99`); PATHCAS_BENCH_LATENCY / _ARRIVAL (with its
// q/d admission suffixes) / _SCALE / _JSON behave as everywhere else. The
// operation mix is the cache-aside loop itself (not a set mix), so
// PATHCAS_BENCH_MIX does not apply; the `mix` identity column carries the
// capacity fraction ("cache-cf25").
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_helpers.hpp"
#include "structs/lru_cache.hpp"

using namespace pathcas;
using namespace pathcas::bench;

namespace {

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

/// A cache-aside client over the LRU/TTL cache, in the set interface
/// runTrial drives: contains() is the lookup, which fills the key on a miss
/// or on a collected expiry; insert() is the write-through put; erase() is
/// the invalidation. Every 8th fill of a thread (lookup fill or
/// write-through) carries the short TTL, so expiry collection happens inside
/// the timed mix.
///
/// runTrial's keysum sees only insert()'s and erase()'s results. keySum()
/// is therefore the resident keys' sum minus every change the client made
/// behind those results — keys inserted by lookup fills, evicted victims and
/// collected expiries — so runTrial's keysum check covers all of them.
class CacheAsideClient {
 public:
  explicit CacheAsideClient(std::int64_t capacity)
      : cache(static_cast<std::size_t>(capacity)) {}

  bool contains(std::int64_t k) {
    Slot& s = slot();
    switch (cache.get(k, nullptr)) {
      case ds::CacheGet::kHit:
        ++s.c.hits;
        return true;
      case ds::CacheGet::kMiss:
        ++s.c.misses;
        break;
      case ds::CacheGet::kExpired:
        ++s.c.expired;
        s.unseenSum -= k;
        break;
    }
    if (fill(s, k, k).inserted) s.unseenSum += k;
    return false;
  }
  bool insert(std::int64_t k, std::int64_t v) {
    return fill(slot(), k, v).inserted;
  }
  bool erase(std::int64_t k) {
    if (!cache.erase(k)) return false;
    ++slot().c.invals;
    return true;
  }

  /// Quiescent only.
  std::int64_t keySum() const {
    std::int64_t sum = 0;
    for (const std::int64_t k : cache.recencyKeys()) sum += k;
    for (const Padded<Slot>& s : slots_) sum -= s->unseenSum;
    return sum;
  }
  /// Quiescent only: the counters summed over threads.
  CacheCounters counters() const {
    CacheCounters c;
    for (const Padded<Slot>& s : slots_) {
      c.hits += s->c.hits;
      c.misses += s->c.misses;
      c.expired += s->c.expired;
      c.fills += s->c.fills;
      c.evictions += s->c.evictions;
      c.invals += s->c.invals;
    }
    return c;
  }
  std::uint64_t footprintBytes() const { return cache.footprintBytes(); }

  ds::LruTtlCache<> cache;

 private:
  struct Slot {
    CacheCounters c;
    std::uint64_t fillCtr = 0;
    std::int64_t unseenSum = 0;  // keysum changes runTrial cannot see
  };
  Slot& slot() {
    return *slots_[ThreadRegistry::tid()];
  }
  ds::LruTtlCache<>::PutResult fill(Slot& s, std::int64_t k, std::int64_t v) {
    const std::uint64_t ttl = (s.fillCtr++ & 7) == 0 ? kTtlNs : 0;
    const auto r = cache.put(k, v, ttl);
    ++s.c.fills;
    if (r.evicted) {
      ++s.c.evictions;
      s.unseenSum -= r.victim;
    }
    return r;
  }

  Padded<Slot> slots_[kMaxThreads];
};

void runCell(const TrialConfig& base, int threads, int cfPct) {
  TrialConfig cfg = base;
  cfg.threads = threads;
  cfg.mix = "cache-cf" + std::to_string(cfPct);
  const std::int64_t capacity =
      std::max<std::int64_t>(1, cfg.keyRange * cfPct / 100);
  CacheAsideClient client(capacity);
  {
    // Warm prefill from the trial's own distribution, so the resident set
    // is the hot set and the timed window starts at steady-state hit ratio.
    SharedWorkloadState wstate(cfg.dist, cfg.keyRange);
    KeyGen keys(cfg.dist, cfg.keyRange, &wstate, cfg.seed ^ 0xF111, 0, 1);
    for (std::int64_t i = 0;
         i < capacity * 4 && client.cache.size() < capacity; ++i) {
      const std::int64_t k = keys.next();
      client.cache.put(k, k);
    }
  }
  const TrialResult r = runTrial(client, cfg, client.keySum());
  // The workers have joined, so the composite invariants (hash set == list
  // set, size honest, <= capacity) are checkable quiescently, and every
  // lookup was one find whose fill (if any) the fills count includes.
  client.cache.checkInvariants();
  const CacheCounters c = client.counters();
  PATHCAS_CHECK(c.hits + c.misses + c.expired == r.finds &&
                c.fills == c.misses + c.expired + r.inserts &&
                "cache counters disagree with the trial's op counts");
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
  char extra[512];
  std::snprintf(extra, sizeof extra,
                "\"capacity\":%lld,\"hit_pct\":%.2f,\"hits\":%llu,"
                "\"misses\":%llu,\"expired\":%llu,\"fills\":%llu,"
                "\"evictions\":%llu,\"invalidations\":%llu",
                static_cast<long long>(capacity), c.hitPct(),
                static_cast<unsigned long long>(c.hits),
                static_cast<unsigned long long>(c.misses),
                static_cast<unsigned long long>(c.expired),
                static_cast<unsigned long long>(c.fills),
                static_cast<unsigned long long>(c.evictions),
                static_cast<unsigned long long>(c.invals));
  jsonAppendTrial("cache_workload", ds::LruTtlCache<>::name(), cfg, r, extra);
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
  // The cache-aside mix: 90% lookups, 8% write-throughs, 2% invalidations.
  base.insertFrac = 0.08;
  base.deleteFrac = 0.02;
  base.rqSize = 0;
  applyEnvLatency(base);
  applyEnvArrival(base);

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
