// Microbenchmarks (google-benchmark) for the primitives themselves: casword
// read overhead vs a plain atomic load, KCAS cost as a function of width,
// visit+validate cost as a function of path length, EBR pin cost, and the
// node-allocation baselines (NodePool alloc+recycle vs malloc new+delete,
// the cost a pooled structure removes from every update). Not a paper
// figure; establishes the engineering baselines the architecture notes
// (docs/ARCHITECTURE.md) reference.
#include <benchmark/benchmark.h>

#include "pathcas/pathcas.hpp"
#include "recl/ebr.hpp"
#include "recl/pool.hpp"
#include "util/thread_registry.hpp"

namespace {

using namespace pathcas;

struct BenchNode {
  casword<Version> ver;
  casword<std::int64_t> val;
};

void BM_PlainAtomicLoad(benchmark::State& state) {
  std::atomic<std::int64_t> x{42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.load(std::memory_order_acquire));
  }
}
BENCHMARK(BM_PlainAtomicLoad);

void BM_CaswordRead(benchmark::State& state) {
  casword<std::int64_t> x(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.load());
  }
}
BENCHMARK(BM_CaswordRead);

void BM_KcasWidthSweep(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::vector<BenchNode> nodes(static_cast<std::size_t>(k));
  for (auto _ : state) {
    start();
    for (int i = 0; i < k; ++i) {
      const std::int64_t v = nodes[i].val;
      add(nodes[i].val, v, v + 1);
    }
    benchmark::DoNotOptimize(exec());
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_KcasWidthSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_VisitValidateSweep(benchmark::State& state) {
  const int pathLen = static_cast<int>(state.range(0));
  std::vector<BenchNode> nodes(static_cast<std::size_t>(pathLen));
  for (auto _ : state) {
    start();
    for (int i = 0; i < pathLen; ++i) visitVer(nodes[i].ver);
    benchmark::DoNotOptimize(validate());
  }
  state.SetItemsProcessed(state.iterations() * pathLen);
}
BENCHMARK(BM_VisitValidateSweep)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// The degenerate-fast-path counters: a k=1 exec commits with one CAS (no
// descriptor publication), a k=1-with-one-visit vexec with one DCSS. Compare
// against BM_KcasWidthSweep/1; the recorded fast-path ablation is in
// docs/ARCHITECTURE.md ("Commit-path fast paths & memory-order discipline").
void BM_ExecK1(benchmark::State& state) {
  BenchNode n;
  for (auto _ : state) {
    start();
    const std::int64_t v = n.val;
    add(n.val, v, v + 1);
    benchmark::DoNotOptimize(exec());
  }
}
BENCHMARK(BM_ExecK1);

void BM_VexecK1Path(benchmark::State& state) {
  BenchNode guard, target;
  for (auto _ : state) {
    start();
    benchmark::DoNotOptimize(visit(&guard));
    const std::int64_t v = target.val;
    add(target.val, v, v + 1);
    benchmark::DoNotOptimize(vexec());
  }
}
BENCHMARK(BM_VexecK1Path);

// Raw DCSS publication + install + completion cost (the unit phase 1 pays
// per entry, and the whole commit of the k=1-with-path fast path).
void BM_DcssPublish(benchmark::State& state) {
  k::AtomicWord guard{k::encodeVal(7)}, target{k::encodeVal(0)};
  auto& dom = k::DefaultDomain::instance();
  std::uint64_t v = 0;
  for (auto _ : state) {
    bool committed = false;
    benchmark::DoNotOptimize(
        dom.dcss(&guard, k::encodeVal(7), &target, k::encodeVal(v),
                 k::encodeVal(v + 1), &committed));
    benchmark::DoNotOptimize(committed);
    ++v;
  }
}
BENCHMARK(BM_DcssPublish);

void BM_VexecOneVisitOneAdd(benchmark::State& state) {
  BenchNode parent, target;
  for (auto _ : state) {
    start();
    benchmark::DoNotOptimize(visit(&parent));
    const std::int64_t v = target.val;
    const Version tv = target.ver.load();
    add(target.val, v, v + 1);
    addVer(target.ver, tv, verBump(tv));
    benchmark::DoNotOptimize(vexec());
  }
}
BENCHMARK(BM_VexecOneVisitOneAdd);

void BM_EbrPin(benchmark::State& state) {
  auto& domain = recl::EbrDomain::instance();
  for (auto _ : state) {
    auto g = domain.pin();
    benchmark::DoNotOptimize(&g);
  }
}
BENCHMARK(BM_EbrPin);

// A node shaped like the BST's (five 8-byte words), so the allocation
// baselines measure what the structures actually pay per update.
struct AllocBenchNode {
  std::uint64_t ver, key, val, left, right;
  AllocBenchNode(std::uint64_t k, std::uint64_t v)
      : ver(0), key(k), val(v), left(0), right(0) {}
};

void BM_MallocNewDelete(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto* n = new AllocBenchNode(i, i);
    benchmark::DoNotOptimize(n);
    delete n;
    ++i;
  }
}
BENCHMARK(BM_MallocNewDelete);

void BM_PoolAllocRecycle(benchmark::State& state) {
  static recl::NodePool<AllocBenchNode> pool;
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto* n = pool.alloc(i, i);
    benchmark::DoNotOptimize(n);
    pool.destroy(n);
    ++i;
  }
}
BENCHMARK(BM_PoolAllocRecycle);

// The full update-path memory cost: allocate from the pool, retire through
// EBR, and let expiry recycle the slot back — what insert+erase pairs pay.
void BM_PoolRetireRecycleCycle(benchmark::State& state) {
  static recl::NodePool<AllocBenchNode> pool;
  auto& domain = recl::EbrDomain::instance();
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto g = domain.pin();
    auto* n = pool.alloc(i, i);
    benchmark::DoNotOptimize(n);
    domain.retire(n, pool);
    ++i;
  }
}
BENCHMARK(BM_PoolRetireRecycleCycle);

void BM_HtmEmulatedTransaction(benchmark::State& state) {
  BenchNode n;
  for (auto _ : state) {
    start();
    const std::int64_t v = n.val;
    add(n.val, v, v + 1);
    benchmark::DoNotOptimize(execFast());
  }
}
BENCHMARK(BM_HtmEmulatedTransaction);

}  // namespace

BENCHMARK_MAIN();
