// Uniform adapters over every concurrent-set implementation in the repo, so
// one generic (typed) test suite and one benchmark driver cover them all.
// Each adapter exposes: insert(k,v) / erase(k) / contains(k) -> bool,
// size() / keySum() (quiescent), name(), and footprintBytes() (picked up by
// the driver's HasFootprint concept and recorded per trial in the JSON
// output, alongside rangeQuery via HasRangeQuery). The pooled-tree adapters own
// DEDICATED NodePools (not the shared per-type defaults), so their
// footprintBytes() — read from pool counters rather than a reachable-node
// walk — measures exactly the trial at hand, not cross-trial accumulation.
// Their destructors drain the EbrDomain first (quiescent by contract at
// adapter destruction) so no limbo record outlives the dedicated pool.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_fw/driver.hpp"
#include "recl/ebr.hpp"
#include "recl/pool.hpp"
#include "service/sharded_map.hpp"

#include "mcms/mcms_bst.hpp"
#include "stm/elastic.hpp"
#include "stm/glock.hpp"
#include "stm/norec.hpp"
#include "stm/tl2.hpp"
#include "stm/tle.hpp"
#include "stm/tm_avl.hpp"
#include "stm/tm_bst.hpp"
#include "stm/tm_ext_bst.hpp"
#include "structs/abtree_pathcas.hpp"
#include "structs/list_pathcas.hpp"
#include "structs/multi_index_map.hpp"
#include "structs/skiplist_pathcas.hpp"
#include "trees/ellen_bst.hpp"
#include "trees/int_avl_pathcas.hpp"
#include "trees/int_bst_pathcas.hpp"
#include "trees/ticket_bst.hpp"

namespace pathcas::testing {

using Key = std::int64_t;
using Val = std::int64_t;

/// (key, value) output buffer shared by every adapter's rangeQuery.
using RqOut = std::vector<std::pair<Key, Val>>;

template <bool UseHtm>
struct PathCasBstAdapter {
  recl::NodePool<typename ds::IntBstPathCas<Key, Val>::Node> pool;
  ds::IntBstPathCas<Key, Val> tree{ds::IntBstOptions{.useHtmFastPath = UseHtm},
                                   recl::EbrDomain::instance(), &pool};
  ~PathCasBstAdapter() { recl::EbrDomain::instance().drainAll(); }
  bool insert(Key k, Val v) { return tree.insert(k, v); }
  bool erase(Key k) { return tree.erase(k); }
  std::size_t updateBatch(const Key* ks, const Val* vs, const bool* isInsert,
                          std::size_t n, bool* out) {
    return tree.updateBatch(ks, vs, isInsert, n, out);
  }
  bool contains(Key k) { return tree.contains(k); }
  std::size_t rangeQuery(Key lo, Key hi, RqOut& out) {
    return tree.rangeQuery(lo, hi, out);
  }
  std::uint64_t size() const { return tree.size(); }
  std::int64_t keySum() const { return tree.keySum(); }
  void checkInvariants() const { tree.checkInvariants(); }
  double avgKeyDepth() const { return tree.checkInvariants().avgKeyDepth; }
  std::uint64_t footprintBytes() const { return pool.footprintBytes(); }
  static std::string name() {
    return UseHtm ? "int-bst-pathcas+" : "int-bst-pathcas";
  }
};

template <bool UseHtm>
struct PathCasAvlAdapter {
  recl::NodePool<typename ds::IntAvlPathCas<Key, Val>::Node> pool;
  ds::IntAvlPathCas<Key, Val> tree{ds::IntBstOptions{.useHtmFastPath = UseHtm},
                                   recl::EbrDomain::instance(), &pool};
  ~PathCasAvlAdapter() { recl::EbrDomain::instance().drainAll(); }
  bool insert(Key k, Val v) { return tree.insert(k, v); }
  bool erase(Key k) { return tree.erase(k); }
  std::size_t updateBatch(const Key* ks, const Val* vs, const bool* isInsert,
                          std::size_t n, bool* out) {
    return tree.updateBatch(ks, vs, isInsert, n, out);
  }
  bool contains(Key k) { return tree.contains(k); }
  std::size_t rangeQuery(Key lo, Key hi, RqOut& out) {
    return tree.rangeQuery(lo, hi, out);
  }
  std::uint64_t size() const { return tree.size(); }
  std::int64_t keySum() const { return tree.keySum(); }
  void checkInvariants() const { tree.checkInvariants(false); }
  double avgKeyDepth() const { return tree.checkInvariants().avgKeyDepth; }
  std::uint64_t footprintBytes() const { return pool.footprintBytes(); }
  static std::string name() {
    return UseHtm ? "int-avl-pathcas+" : "int-avl-pathcas";
  }
};

struct EllenAdapter {
  recl::NodePool<typename ds::EllenBst<Key, Val>::Node> nodePool;
  recl::NodePool<typename ds::EllenBst<Key, Val>::Info> infoPool;
  ds::EllenBst<Key, Val> tree{recl::EbrDomain::instance(), &nodePool,
                              &infoPool};
  ~EllenAdapter() { recl::EbrDomain::instance().drainAll(); }
  bool insert(Key k, Val v) { return tree.insert(k, v); }
  bool erase(Key k) { return tree.erase(k); }
  bool contains(Key k) { return tree.contains(k); }
  std::size_t rangeQuery(Key lo, Key hi, RqOut& out) {
    return tree.rangeQuery(lo, hi, out);  // best-effort (see EllenBst)
  }
  std::uint64_t size() const { return tree.size(); }
  std::int64_t keySum() const { return tree.keySum(); }
  void checkInvariants() const {}
  double avgKeyDepth() const { return tree.avgKeyDepth(); }
  std::uint64_t footprintBytes() const { return tree.poolFootprintBytes(); }
  static std::string name() { return "ext-bst-lf"; }
};

struct TicketAdapter {
  recl::NodePool<typename ds::TicketBst<Key, Val>::Node> pool;
  ds::TicketBst<Key, Val> tree{recl::EbrDomain::instance(), &pool};
  ~TicketAdapter() { recl::EbrDomain::instance().drainAll(); }
  bool insert(Key k, Val v) { return tree.insert(k, v); }
  bool erase(Key k) { return tree.erase(k); }
  bool contains(Key k) { return tree.contains(k); }
  std::size_t rangeQuery(Key lo, Key hi, RqOut& out) {
    return tree.rangeQuery(lo, hi, out);  // best-effort (see TicketBst)
  }
  std::uint64_t size() const { return tree.size(); }
  std::int64_t keySum() const { return tree.keySum(); }
  void checkInvariants() const {}
  double avgKeyDepth() const { return tree.avgKeyDepth(); }
  std::uint64_t footprintBytes() const { return tree.poolFootprintBytes(); }
  static std::string name() { return "ext-bst-locks"; }
};

struct SkipListAdapter {
  recl::NodePool<typename ds::SkipListPathCas<Key, Val>::Node> pool;
  ds::SkipListPathCas<Key, Val> list{recl::EbrDomain::instance(), &pool};
  ~SkipListAdapter() { recl::EbrDomain::instance().drainAll(); }
  bool insert(Key k, Val v) { return list.insert(k, v); }
  bool erase(Key k) { return list.erase(k); }
  bool contains(Key k) { return list.contains(k); }
  std::size_t rangeQuery(Key lo, Key hi, RqOut& out) {
    return list.rangeQuery(lo, hi, out);
  }
  std::uint64_t size() const { return list.size(); }
  std::int64_t keySum() const { return list.keySum(); }
  void checkInvariants() const { list.checkInvariants(); }
  double avgKeyDepth() const { return 0.0; }  // not a tree
  std::uint64_t footprintBytes() const { return pool.footprintBytes(); }
  static std::string name() { return "skiplist-pathcas"; }
};

/// NOTE: the list's whole-prefix read sets bound usable key ranges to a few
/// hundred keys (pathcas::kMaxVisited); benches must use a small keyRange.
struct ListAdapter {
  recl::NodePool<typename ds::ListPathCas<Key, Val>::Node> pool;
  ds::ListPathCas<Key, Val> list{recl::EbrDomain::instance(), &pool};
  ~ListAdapter() { recl::EbrDomain::instance().drainAll(); }
  bool insert(Key k, Val v) { return list.insert(k, v); }
  bool erase(Key k) { return list.erase(k); }
  bool contains(Key k) { return list.contains(k); }
  std::size_t rangeQuery(Key lo, Key hi, RqOut& out) {
    return list.rangeQuery(lo, hi, out);
  }
  std::uint64_t size() const { return list.size(); }
  std::int64_t keySum() const { return list.keySum(); }
  void checkInvariants() const {}
  double avgKeyDepth() const { return 0.0; }  // not a tree
  std::uint64_t footprintBytes() const { return pool.footprintBytes(); }
  static std::string name() { return "list-pathcas"; }
};

struct AbTreeAdapter {
  recl::NodePool<typename ds::AbTreePathCas<Key, Val>::Node> pool;
  ds::AbTreePathCas<Key, Val> tree{recl::EbrDomain::instance(), &pool};
  ~AbTreeAdapter() { recl::EbrDomain::instance().drainAll(); }
  bool insert(Key k, Val v) { return tree.insert(k, v); }
  bool erase(Key k) { return tree.erase(k); }
  bool contains(Key k) { return tree.contains(k); }
  std::size_t rangeQuery(Key lo, Key hi, RqOut& out) {
    return tree.rangeQuery(lo, hi, out);
  }
  std::uint64_t size() const { return tree.size(); }
  std::int64_t keySum() const { return tree.keySum(); }
  void checkInvariants() const { tree.checkInvariants(); }
  double avgKeyDepth() const { return 0.0; }  // leaf-oriented; not comparable
  std::uint64_t footprintBytes() const { return pool.footprintBytes(); }
  static std::string name() { return "abtree-pathcas"; }
};

/// Sharded-service frontends (service/sharded_map.hpp). Two construction
/// modes share one template:
///   - NShards > 0: fixed shard count over a small key space — the typed
///     test suite's mode (shard boundaries land inside the tests' key
///     ranges). Default-constructible, like every other adapter.
///   - NShards == 0: shard count and key space come from the TrialConfig
///     (cfg.shards / cfg.keyRange) — the bench mode; sweepThreads detects
///     the TrialConfig constructor and the shard count is recorded in the
///     CSV/JSON `shards` column rather than the algorithm name.
/// The ShardedMap owns a private DomainSet per shard, so unlike the pooled
/// adapters above there is nothing process-global to drain in ~adapter.
template <typename Tree, int NShards>
struct ShardedAdapterBase {
  static constexpr Key kTestKeySpace = 256;
  service::ShardedMap<Tree> map;

  ShardedAdapterBase() : map(NShards > 0 ? NShards : 1, kTestKeySpace) {}
  explicit ShardedAdapterBase(const bench::TrialConfig& cfg)
      : map(cfg.shards > 0 ? cfg.shards : 1, cfg.keyRange > 0 ? cfg.keyRange : 1,
            shardConfig(cfg)) {}

  bool insert(Key k, Val v) { return map.insert(k, v); }
  bool erase(Key k) { return map.erase(k); }
  std::size_t updateBatch(const Key* ks, const Val* vs, const bool* isInsert,
                          std::size_t n, bool* out) {
    return map.updateBatch(ks, vs, isInsert, n, out);
  }
  bool contains(Key k) { return map.contains(k); }
  std::size_t rangeQuery(Key lo, Key hi, RqOut& out) {
    return map.rangeQuery(lo, hi, out);
  }
  std::int64_t bulkLoad(const std::vector<Key>& sortedKeys, int nthreads) {
    return map.bulkLoad(sortedKeys, nthreads);
  }
  std::uint64_t size() const { return map.size(); }
  std::int64_t keySum() const { return map.keySum(); }
  void checkInvariants() const { map.checkInvariants(); }
  double avgKeyDepth() const { return 0.0; }  // per-shard depths, not pooled
  std::uint64_t footprintBytes() const { return map.footprintBytes(); }
  std::uint64_t rqRetries() const { return map.rqRetries(); }
  std::vector<double> shardSchedP99Ns() const { return map.shardSchedP99Ns(); }

 private:
  static typename service::ShardedMap<Tree>::Config shardConfig(
      const bench::TrialConfig& cfg) {
    typename service::ShardedMap<Tree>::Config c;
    c.combineWindow = cfg.combineWindow;
    // Latency trials pay for per-shard combiner-queueing histograms so the
    // sched column can be attributed shard-by-shard.
    c.combineStats = cfg.latency;
    return c;
  }
};

template <int NShards = 0>
struct ShardedBstAdapter
    : ShardedAdapterBase<ds::IntBstPathCas<Key, Val>, NShards> {
  using ShardedAdapterBase<ds::IntBstPathCas<Key, Val>,
                           NShards>::ShardedAdapterBase;
  static std::string name() {
    return NShards > 0 ? "sharded-bst-" + std::to_string(NShards)
                       : "sharded-bst";
  }
};

template <int NShards = 0>
struct ShardedAvlAdapter
    : ShardedAdapterBase<ds::IntAvlPathCas<Key, Val>, NShards> {
  using ShardedAdapterBase<ds::IntAvlPathCas<Key, Val>,
                           NShards>::ShardedAdapterBase;
  static std::string name() {
    return NShards > 0 ? "sharded-avl-" + std::to_string(NShards)
                       : "sharded-avl";
  }
};

template <typename TM>
struct TmBstAdapter {
  std::unique_ptr<TM> tm = std::make_unique<TM>();
  stm::TmInternalBst<TM, Key, Val> tree{*tm};
  bool insert(Key k, Val v) { return tree.insert(k, v); }
  bool erase(Key k) { return tree.erase(k); }
  bool contains(Key k) { return tree.contains(k); }
  std::uint64_t size() const { return tree.size(); }
  std::int64_t keySum() const { return tree.keySum(); }
  void checkInvariants() const {}
  double avgKeyDepth() const { return tree.avgKeyDepth(); }
  std::uint64_t footprintBytes() const { return tree.footprintBytes(); }
  static std::string name() { return "int-bst-" + std::string(TM::name()); }
};

template <typename TM>
struct TmAvlAdapter {
  std::unique_ptr<TM> tm = std::make_unique<TM>();
  stm::TmInternalAvl<TM, Key, Val> tree{*tm};
  bool insert(Key k, Val v) { return tree.insert(k, v); }
  bool erase(Key k) { return tree.erase(k); }
  bool contains(Key k) { return tree.contains(k); }
  std::uint64_t size() const { return tree.size(); }
  std::int64_t keySum() const { return tree.keySum(); }
  void checkInvariants() const { tree.checkInvariants(); }
  double avgKeyDepth() const { return tree.avgKeyDepth(); }
  std::uint64_t footprintBytes() const { return tree.footprintBytes(); }
  static std::string name() { return "int-avl-" + std::string(TM::name()); }
};

template <typename TM>
struct TmExtBstAdapter {
  std::unique_ptr<TM> tm = std::make_unique<TM>();
  stm::TmExternalBst<TM, Key, Val> tree{*tm};
  bool insert(Key k, Val v) { return tree.insert(k, v); }
  bool erase(Key k) { return tree.erase(k); }
  bool contains(Key k) { return tree.contains(k); }
  std::uint64_t size() const { return tree.size(); }
  std::int64_t keySum() const { return tree.keySum(); }
  void checkInvariants() const {}
  double avgKeyDepth() const { return 0.0; }
  std::uint64_t footprintBytes() const { return 0; }
  static std::string name() { return "ext-bst-" + std::string(TM::name()); }
};

template <bool UseHtm>
struct McmsBstAdapter {
  mcms::McmsBst<Key, Val> tree{UseHtm};
  bool insert(Key k, Val v) { return tree.insert(k, v); }
  bool erase(Key k) { return tree.erase(k); }
  bool contains(Key k) { return tree.contains(k); }
  std::uint64_t size() const { return tree.size(); }
  std::int64_t keySum() const { return tree.keySum(); }
  void checkInvariants() const {}
  double avgKeyDepth() const { return 0.0; }
  std::uint64_t footprintBytes() const { return 0; }
  static std::string name() {
    return UseHtm ? "int-bst-mcms+" : "int-bst-mcms-";
  }
};

/// The cross-structure composite (structs/multi_index_map.hpp): primary +
/// secondary tree per instance on an OWNED DomainSet, so like the sharded
/// adapters there is nothing process-global to drain — teardown (and the
/// zero-leak abort) lives in ~MultiIndexMap itself. Point/range ops go
/// through the primary index; every mutation is a two-tree KCAS.
struct MultiIndexMapAdapter {
  ds::MultiIndexMap<Key, Val> map;
  bool insert(Key k, Val v) { return map.insert(k, v); }
  bool erase(Key k) { return map.erase(k); }
  bool contains(Key k) { return map.contains(k); }
  std::size_t rangeQuery(Key lo, Key hi, RqOut& out) {
    return map.rangeQuery(lo, hi, out);
  }
  std::uint64_t size() const { return map.size(); }
  std::int64_t keySum() const { return map.keySum(); }
  void checkInvariants() const { map.checkInvariants(); }
  double avgKeyDepth() const { return map.checkInvariants().avgKeyDepth; }
  std::uint64_t footprintBytes() const { return map.footprintBytes(); }
  static std::string name() { return "multi-index-map"; }
};

}  // namespace pathcas::testing
