// Overload and tail-latency serving profile: what the open loop measures
// once the offered load nears capacity, and what admission control buys
// when it crosses it.
//
// Each (structure, batch) cell first runs a CLOSED-loop capacity probe
// (latency on, unsampled), then sweeps OPEN-loop offered loads at
// {0.5, 0.9, 1.1, 1.5, 2.0}x that capacity, each factor twice:
//
//   shed off  plain poisson:<rate> — the seed's open loop. Every arrival is
//             eventually executed, so past capacity the backlog (and the
//             measured p99, which starts at the scheduled arrival) grows
//             without bound for the duration of the trial.
//   shed on   poisson:<rate>:q<depth>:d<deadline> — bounded admission queue
//             plus deadline shedding (bench_fw/admission.hpp). Arrivals that
//             find the queue full are rejected; queued ops whose wait
//             exceeds the deadline are shed unexecuted. What remains — the
//             goodput — are ops that completed within the deadline, i.e.
//             responses a deadline-bound client was still waiting for.
//
// The closed probe and the shed-off rows at 0.5x, 0.9x and 1.1x are the
// tail-latency comparison. Per the coordinated-omission argument
// (bench_fw/latency.hpp), the closed-loop p99 stays flat while the
// open-loop p99 blows up as the rate approaches capacity: closed-loop
// clients politely stop submitting when the structure stalls, open-loop
// clients keep the schedule and measure the backlog. Past saturation the
// shed-on trial keeps executing near capacity with a bounded admitted p99
// — the queue wait of an admitted op is at most the deadline, by
// construction. Every trial prints its per-category quantiles
// (insert/erase/find/rq plus the sched queueing delay) beneath its summary
// line.
//
// Recording runs unsampled (latSampleShift = 0): this bench reports
// latency, not throughput, so recording every op is worth its cost.
//
// The deadline defaults to 5x the cell's 0.5x-load p99 (clamped to
// [10us, 50ms]) so it scales with the machine instead of hard-coding a
// latency class; PATHCAS_BENCH_DEADLINE pins it. For batched cells the flush
// deadline is the admission deadline (driver.hpp), exercising the adaptive
// partial-window flush under low per-worker arrival rates.
//
// Knobs: PATHCAS_BENCH_THREADS (last count = serving threads; the load
// sweep is the axis, not threads), PATHCAS_BENCH_BATCH (default "1,64"),
// PATHCAS_BENCH_QDEPTH (default 256), PATHCAS_BENCH_DEADLINE (ns; default
// derived), PATHCAS_BENCH_CAPACITY (ops/sec; pins the probe for join-stable
// CI rows), PATHCAS_BENCH_DIST / _MIX as usual. PATHCAS_BENCH_QDEPTH and _DEADLINE are this bench's own
// sweep settings; no other bench reads them. PATHCAS_BENCH_LATENCY and
// _ARRIVAL are ignored: both are this experiment's own axes.
//
// CSV schema (one row per trial):
//   csv,overload_profile,<algo>,<threads>,<batch>,<arrival>,<factor>,
//   <capacity_mops>,<mops>,<goodput_mops>,<ops_offered>,<ops_admitted>,
//   <ops_shed>,<ops_rejected>,<p50_ns>,<p99_ns>,<sched_p99_ns>,
//   <deadline_flushes>,<full_flushes>
// JSON rows (PATHCAS_BENCH_JSON) carry the full admission accounting and
// the per-category latency breakdown.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_helpers.hpp"

using namespace pathcas;
using namespace pathcas::bench;
using namespace pathcas::testing;

namespace {

constexpr double kFactors[] = {0.5, 0.9, 1.1, 1.5, 2.0};
constexpr std::int64_t kMinDeadlineNs = 10'000;       // 10us
constexpr std::int64_t kMaxDeadlineNs = 50'000'000;   // 50ms

std::int64_t envNs(const char* name, std::int64_t fallback) {
  if (const char* s = std::getenv(name)) {
    std::int64_t v = 0;
    if (bench::detail::parseInt64(s, &v) && v > 0) return v;
    std::fprintf(stderr, "ignoring malformed %s=\"%s\" (want a positive ns "
                 "count)\n", name, s);
  }
  return fallback;
}

void printOverloadCsv(const std::string& algo, const TrialConfig& cfg,
                      double factor, double capacityMops,
                      const TrialResult& r) {
  std::printf(
      "csv,overload_profile,%s,%d,%d,%s,%.2f,%.3f,%.3f,%.3f,%llu,%llu,%llu,"
      "%llu,%.0f,%.0f,%.0f,%llu,%llu\n",
      algo.c_str(), cfg.threads, cfg.batch, cfg.arrival.label().c_str(),
      factor, capacityMops, r.mops, r.goodputMops,
      static_cast<unsigned long long>(r.opsOffered),
      static_cast<unsigned long long>(r.totalOps),
      static_cast<unsigned long long>(r.opsShed),
      static_cast<unsigned long long>(r.opsRejected), r.lat.overall.p50Ns,
      r.lat.overall.p99Ns, r.lat.of(OpCat::kSched).p99Ns,
      static_cast<unsigned long long>(r.deadlineFlushes),
      static_cast<unsigned long long>(r.fullFlushes));
}

void printCatRows(const TrialResult& r) {
  for (int c = 0; c < kNumOpCats; ++c) {
    const LatencySummary::Cat& cat = r.lat.cat[c];
    if (cat.count == 0) continue;
    std::printf("      %-7s n=%-9llu p50=%-9.0f p99=%-9.0f p999=%-9.0f "
                "max=%.0f ns\n",
                kOpCatNames[c], static_cast<unsigned long long>(cat.count),
                cat.p50Ns, cat.p99Ns, cat.p999Ns, cat.maxNs);
  }
}

template <typename Adapter>
TrialResult runOverloadCell(const TrialConfig& cfg, double factor,
                            double capacityMops) {
  const TrialResult r = runCell(
      [&cfg] {
        if constexpr (std::is_constructible_v<Adapter, const TrialConfig&>) {
          return std::make_unique<Adapter>(cfg);
        } else {
          return std::make_unique<Adapter>();
        }
      },
      cfg);
  std::printf("    %-28s %6.3f Mops  good %6.3f  p99 %10.0f ns  "
              "shed %llu  rej %llu\n",
              cfg.arrival.label().c_str(), r.mops, r.goodputMops,
              r.lat.overall.p99Ns, static_cast<unsigned long long>(r.opsShed),
              static_cast<unsigned long long>(r.opsRejected));
  printCatRows(r);
  printOverloadCsv(Adapter::name(), cfg, factor, capacityMops, r);
  jsonAppendTrial("overload_profile", Adapter::name(), cfg, r);
  recl::EbrDomain::instance().drainAll();
  return r;
}

/// One (structure, batch) cell: closed capacity probe, 0.5x reference to
/// derive the deadline, then the factor sweep with shedding off and on.
/// Returns true when the cell's acceptance checks held (informational).
template <typename Adapter>
bool profileCell(TrialConfig cfg) {
  std::printf("  %s  (batch %d)\n", Adapter::name().c_str(), cfg.batch);
  cfg.arrival = ArrivalSpec{};  // closed capacity probe
  const TrialResult closed = runOverloadCell<Adapter>(cfg, 0.0, 0.0);
  double capacity = closed.mops * 1e6;  // submitted ops/sec
  if (const char* s = std::getenv("PATHCAS_BENCH_CAPACITY")) {
    // Pinned capacity: every arrival label (part of the JSON join key)
    // becomes machine-independent, so CI can gate the open-loop rows.
    std::int64_t v = 0;
    if (bench::detail::parseInt64(s, &v) && v > 0) capacity = static_cast<double>(v);
    else std::fprintf(stderr,
                      "ignoring malformed PATHCAS_BENCH_CAPACITY=\"%s\"\n", s);
  }
  if (capacity <= 0.0) return false;
  const double capacityMops = capacity / 1e6;

  // Round to whole ops/sec: the capacity estimate carries no sub-op/sec
  // information and integral rates keep the arrival labels readable.
  auto rateFor = [capacity](double f) {
    return std::max(1.0, std::round(capacity * f));
  };

  // Shed-off reference at half load: its p99 is the uncontended service
  // latency the deadline is quoted against.
  TrialConfig ref = cfg;
  ref.arrival.open = true;
  ref.arrival.ratePerSec = rateFor(0.5);
  const TrialResult refR = runOverloadCell<Adapter>(ref, 0.5, capacityMops);
  std::int64_t deadlineNs =
      static_cast<std::int64_t>(std::llround(refR.lat.overall.p99Ns * 5.0));
  deadlineNs = std::clamp(deadlineNs, kMinDeadlineNs, kMaxDeadlineNs);
  deadlineNs = envNs("PATHCAS_BENCH_DEADLINE", deadlineNs);
  const std::int64_t qdepth = envNs("PATHCAS_BENCH_QDEPTH", 256);
  std::printf("    [deadline %lld ns, qdepth %lld]\n",
              static_cast<long long>(deadlineNs),
              static_cast<long long>(qdepth));

  std::map<double, TrialResult> shedOn, shedOff;
  shedOff[0.5] = refR;
  for (double f : kFactors) {
    if (f != 0.5) {
      TrialConfig off = cfg;
      off.arrival.open = true;
      off.arrival.ratePerSec = rateFor(f);
      shedOff[f] = runOverloadCell<Adapter>(off, f, capacityMops);
    }
    TrialConfig on = cfg;
    on.arrival.open = true;
    on.arrival.ratePerSec = rateFor(f);
    on.arrival.qdepth = static_cast<int>(qdepth);
    on.arrival.deadlineNs = deadlineNs;
    shedOn[f] = runOverloadCell<Adapter>(on, f, capacityMops);
  }

  // Acceptance (informational; printed, not fatal — CI gates on the JSON):
  //  - at 1.5x offered, admission keeps goodput >= 70% of capacity;
  //  - the admitted p99 stays <= 10x the 0.5x-load admitted p99;
  //  - shedding off shows the overload: p99 blows past the deadline.
  const TrialResult& hot = shedOn[1.5];
  const TrialResult& base = shedOn[0.5];
  const bool goodputOk = hot.goodputMops >= 0.7 * capacityMops;
  const bool p99Ok = base.lat.overall.p99Ns <= 0.0 ||
                     hot.lat.overall.p99Ns <= 10.0 * base.lat.overall.p99Ns;
  const bool blowupShown =
      shedOff[1.5].lat.overall.p99Ns > static_cast<double>(deadlineNs);
  std::printf("    acceptance: goodput@1.5x %.3f/%.3f Mops [%s]  "
              "p99@1.5x %.0f vs 10x %.0f ns [%s]  shed-off blowup [%s]\n",
              hot.goodputMops, 0.7 * capacityMops,
              goodputOk ? "ok" : "MISS", hot.lat.overall.p99Ns,
              10.0 * base.lat.overall.p99Ns, p99Ok ? "ok" : "MISS",
              blowupShown ? "ok" : "MISS");
  return goodputOk && p99Ok && blowupShown;
}

template <typename Adapter>
void profileStructure(const TrialConfig& base,
                      const std::vector<int>& batches) {
  for (int b : batches) {
    // A batch axis only exists on structures with group commits; a batch>1
    // cell on anything else silently degenerates to per-op and would just
    // duplicate the batch=1 rows.
    if (b > 1 && !HasBatchOps<Adapter>) continue;
    TrialConfig cfg = base;
    cfg.batch = b;
    profileCell<Adapter>(cfg);
  }
}

}  // namespace

int main() {
  const auto threadList = defaultThreads();
  const int threads = threadList.back();

  TrialConfig base;
  base.threads = threads;
  base.keyRange = 1 << 16;
  base.durationMs = scaledDurationMs(150, 2000);
  base.latency = true;
  base.latSampleShift = 0;  // unsampled: latency fidelity over throughput
  base = withUpdates(base, 20.0);
  applyEnvDist(base);
  applyEnvMix(base);

  std::vector<int> batches = {1, 64};
  if (std::getenv("PATHCAS_BENCH_BATCH") != nullptr)
    batches = defaultBatches();

  std::printf("Overload profile: %s, %d serving threads, keyrange %lld\n",
              describeWorkload(base).c_str(), threads,
              static_cast<long long>(base.keyRange));
  std::printf("csv schema: csv,overload_profile,algo,threads,batch,arrival,"
              "factor,capacity_mops,mops,goodput_mops,ops_offered,"
              "ops_admitted,ops_shed,ops_rejected,p50_ns,p99_ns,sched_p99_ns,"
              "deadline_flushes,full_flushes\n");

  profileStructure<PathCasBstAdapter<false>>(base, batches);
  profileStructure<PathCasAvlAdapter<false>>(base, batches);
  {
    TrialConfig sharded = base;
    sharded.shards = defaultShards().back();
    profileStructure<ShardedBstAdapter<>>(sharded, batches);
  }
  return 0;
}
