// Figure 5: "Detailed analysis for 100% updates" — per-operation cycles,
// average key depth and memory footprint for the main trees. The paper's
// argument: int-bst-pathcas executes MORE instructions per op yet FEWER
// cycles and LLC misses, because the internal tree is shallower and smaller
// than the external baselines. We reproduce the structural drivers (avg key
// depth, footprint) plus calibrated ns/op, and for the two internal PathCAS
// trees the mean number of 64 B lines a visited node's search-hot words span
// (TreeStats::hotLinesPerNode, from node addresses).
#include <cstdio>
#include <string>

#include "bench_helpers.hpp"

using namespace pathcas;
using namespace pathcas::bench;
using namespace pathcas::testing;

namespace {

/// Lines per visited node for the internal PathCAS trees; "-" elsewhere.
template <typename Adapter>
std::string hotLines(const Adapter& set) {
  if constexpr (requires { set.tree.checkInvariants().hotLinesPerNode; }) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f",
                  set.tree.checkInvariants().hotLinesPerNode);
    return buf;
  } else {
    return "-";
  }
}

template <typename Adapter>
void analyze(const TrialConfig& cfg) {
  auto set = std::make_unique<Adapter>();
  const std::int64_t prefillSum = prefillHalf(*set, cfg.keyRange);
  const TrialResult r = runTrial(*set, cfg, prefillSum);
  std::printf("%-22s %10.3f %12.1f %10.2f %12.2f %10s  %s %s\n",
              Adapter::name().c_str(), r.mops, r.nsPerOp,
              set->avgKeyDepth(),
              static_cast<double>(set->footprintBytes()) / (1024.0 * 1024.0),
              hotLines(*set).c_str(), cfg.dist.label().c_str(),
              cfg.mix.c_str());
  std::fflush(stdout);
  jsonAppendTrial("fig05_analysis", Adapter::name(), cfg, r);
  set.reset();
  recl::EbrDomain::instance().drainAll();
}

}  // namespace

int main() {
  TrialConfig cfg;
  cfg.threads = 4;
  cfg.keyRange = scaledKeys(1 << 17, 20 * 1000 * 1000);
  cfg.durationMs = scaledDurationMs(250, 5000);
  cfg = withUpdates(cfg, 100.0);  // 50% insert / 50% delete
  applyEnvWorkload(cfg);  // fig05 drives runTrial itself, so apply explicitly

  std::printf(
      "\n== Figure 5: detailed analysis, %d threads, keyrange %lld, %s ==\n",
      cfg.threads, static_cast<long long>(cfg.keyRange),
      describeWorkload(cfg).c_str());
  std::printf("%-22s %10s %12s %10s %12s %10s  %s\n", "algorithm", "Mops/s",
              "ns/op", "avg depth", "mem (MiB)", "lines/node", "dist mix");
  analyze<EllenAdapter>(cfg);
  analyze<TicketAdapter>(cfg);
  analyze<PathCasBstAdapter<false>>(cfg);
  analyze<TmAvlAdapter<stm::NOrec>>(cfg);
  analyze<TmAvlAdapter<stm::TL2>>(cfg);
  analyze<PathCasAvlAdapter<false>>(cfg);
  return 0;
}
