// ShardedFusionEngine: K independent FusionEngines behind one router, with
// scores byte-identical to a single unsharded engine on the same data.
//
// Why this is exact rather than approximate: the paper's per-triple
// inference factors through (a) each triple's own observation pattern and
// (b) globally-estimated parameters — source quality, the cluster
// partition, and per-cluster joint statistics — all of which are ratios of
// *integer counts over training triples*. Counts over disjoint partitions
// of the corpus sum exactly, so the router
//
//   1. partitions triples by domain hash (shard/partition.h; scopes never
//      cross domains, so each shard's scope relation is the global one
//      restricted to its triples),
//   2. lets every shard count its own partition (quality counts, pairwise
//      correlation counts, joint-stats pattern counts),
//   3. merges the integer counts and finalizes them with the *same*
//      arithmetic the unsharded estimators use (FinalizeQualityFromCounts,
//      PairwiseCorrelationsFromCounts, MergeJointStatsStates), and
//   4. pushes the merged parameters back into every shard
//      (FusionEngine::AdoptParameters), which then scores its own triples
//      with the stock method implementations. Shard engines are
//      router-managed from then on: FusionEngine::Update on one fails, and
//      batches reach it only through the router.
//
// Methods whose scores couple triples across the corpus (cosine,
// 3-estimates, LTM — iterative fixed points) cannot be stitched this way
// and return Unimplemented (FusionMethod::shardable).
//
// Streaming Update is FusionEngine::Update's one update path run over K
// shards: each dirty shard applies its slice (FusionEngine::ApplyShardBatch),
// the router merges their counts and runs the same model step
// (UpdateCorrelationModel) over all of their results, and every shard adopts
// the result. Untouched shards pay one near-free AdoptParameters (a quality
// vector copy plus a snapshot publish) instead of re-running estimation,
// which is where the aggregate ingest speedup at K shards comes from
// (bench/bench_sharding.cc).
//
// Thread budget: the configured num_threads T is a host-wide budget, not
// per shard — each shard engine gets max(1, T/K) workers and the router
// fans out across shards with min(K, T) threads.
#ifndef FUSER_SHARD_SHARDED_ENGINE_H_
#define FUSER_SHARD_SHARDED_ENGINE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "shard/sharded_dataset.h"

namespace fuser {

/// One immutable published state of the sharded engine: one pinned
/// FusionSnapshot per shard plus the global -> (shard, local) map to route
/// reads. Readers pin this and every query is answered from exactly these
/// shard snapshots, no matter what the writer does concurrently.
struct ShardedSnapshot {
  uint64_t id = 0;
  size_t num_triples = 0;
  size_t num_sources = 0;
  std::shared_ptr<const ShardMap> map;
  std::vector<std::shared_ptr<const FusionSnapshot>> shards;

  ShardLocation Locate(TripleId global) const { return map->Get(global); }
};

class ShardedFusionEngine {
 public:
  /// Takes ownership of a finalized corpus (ShardedCorpus::Partition or
  /// build it directly). `options.num_threads` is the host-wide budget.
  static StatusOr<std::unique_ptr<ShardedFusionEngine>> Create(
      ShardedCorpus corpus, const EngineOptions& options);

  /// Convenience: partition `full` and create. `full` is only read during
  /// construction (the shards own copies).
  static StatusOr<std::unique_ptr<ShardedFusionEngine>> Create(
      const Dataset& full, const ShardingOptions& sharding,
      const EngineOptions& options);

  /// Estimates parameters from `train_mask` (over global triple ids):
  /// every shard counts its partition under its projected mask, the router
  /// merges and finalizes, and the merged quality is adopted everywhere.
  Status Prepare(const DynamicBitset& train_mask);

  /// Streaming ingestion, byte-identical to FusionEngine::Update on the
  /// unsharded corpus: routes the batch to the owning shards, merges their
  /// per-shard statistics, and runs the unsharded engine's model step over
  /// every dirty shard's result — the global model is cloned once with all
  /// pattern deltas folded in, or dropped for a lazy rebuild on exactly the
  /// same batches (full_invalidations() equals the unsharded count). Shards
  /// the batch does not touch only adopt the refreshed global quality.
  Status Update(const ObservationBatch& batch);

  /// Runs one shardable method on every shard and stitches the per-shard
  /// scores into global id order. Unimplemented for methods that are not
  /// shardable and for sketch-based clustering.
  StatusOr<FusionRun> Run(const MethodSpec& spec);
  StatusOr<std::vector<FusionRun>> RunAll(const std::vector<MethodSpec>& specs);

  /// Materializes serving state for `specs` on every shard and publishes
  /// one ShardedSnapshot pinning all K shard snapshots.
  StatusOr<std::shared_ptr<const ShardedSnapshot>> PublishSnapshot(
      const std::vector<MethodSpec>& specs);

  /// Latest published state / latest state with serving entries. Same
  /// reader contract as the unsharded engine. Thread-safe.
  std::shared_ptr<const ShardedSnapshot> CurrentSnapshot() const;
  std::shared_ptr<const ShardedSnapshot> CurrentServableSnapshot() const;

  /// Persists the engine as one snapshot file at `path`: part k is shard
  /// k's state and the ROUTER section records the partition plan and the
  /// per-shard local -> global id maps (see shard/sharded_persist.h). The
  /// file is one persist::WriteFileDurably call, so a crash leaves the old
  /// file or the whole new one, and a failed save leaves nothing behind.
  Status SaveSnapshot(const std::string& path) const;

  /// Rebuilds a sharded engine from SaveSnapshot output: decodes the
  /// ROUTER section, loads part k for every shard (reading only that
  /// part's byte ranges), reassembles the global id maps, and warm-starts
  /// each shard engine. A file without a ROUTER section (a FusionEngine
  /// save), a corrupt file or one from another format version fails the
  /// whole warm start. `options.num_threads` is the host budget; every
  /// other option comes from the saved state.
  static StatusOr<std::unique_ptr<ShardedFusionEngine>> WarmStart(
      const std::string& path, const EngineOptions& options);

  // ---- Introspection ----

  const ShardedCorpus& corpus() const { return corpus_; }
  size_t num_shards() const { return engines_.size(); }
  size_t num_triples() const { return corpus_.num_triples(); }
  FusionEngine* shard_engine(size_t k) { return engines_[k].get(); }
  const FusionEngine& shard_engine(size_t k) const { return *engines_[k]; }
  /// Router-merged global quality (equals the unsharded engine's).
  const std::vector<SourceQuality>& source_quality() const { return quality_; }
  /// Global training mask (what Prepare received, extended by Update).
  const DynamicBitset& train_mask() const { return train_mask_; }
  const EngineOptions& options() const { return options_; }
  size_t updates_applied() const { return updates_applied_; }
  size_t full_invalidations() const { return full_invalidations_; }

 private:
  ShardedFusionEngine(ShardedCorpus corpus, const EngineOptions& options);

  /// Builds the global model from merged per-shard counts and adopts it
  /// (with the merged quality) into every shard. No-op when already built.
  Status EnsureGlobalModel();
  /// Rejects specs the sharded router cannot serve exactly.
  Status CheckSpecs(const std::vector<MethodSpec>& specs,
                    bool* needs_model) const;
  /// Merges the cached per-shard quality counts into quality_.
  Status MergeQuality();
  /// Runs fn(k) for every shard, across min(K, T) router threads.
  void ForEachShard(const std::function<void(size_t)>& fn);
  /// Publishes the shards' current snapshots as one ShardedSnapshot.
  void PublishCurrent();
  /// Wraps `shards` in a ShardedSnapshot and installs it as the current
  /// snapshot (and as the serving snapshot too when `servable`).
  std::shared_ptr<const ShardedSnapshot> StoreSnapshot(
      std::vector<std::shared_ptr<const FusionSnapshot>> shards,
      bool servable);

  ShardedCorpus corpus_;
  EngineOptions options_;
  std::vector<std::unique_ptr<FusionEngine>> engines_;
  std::unique_ptr<ThreadPool> router_pool_;
  size_t router_threads_ = 1;
  bool prepared_ = false;
  DynamicBitset train_mask_;
  std::vector<SourceQuality> quality_;
  /// Per-shard quality (raw counts), cached so one dirty shard's update
  /// re-merges in O(K * S) instead of re-estimating clean shards.
  std::vector<std::vector<SourceQuality>> shard_quality_;
  std::shared_ptr<const CorrelationModel> model_;
  size_t updates_applied_ = 0;
  size_t full_invalidations_ = 0;

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const ShardedSnapshot> snapshot_;
  std::shared_ptr<const ShardedSnapshot> serving_snapshot_;
  uint64_t snapshots_published_ = 0;
};

}  // namespace fuser

#endif  // FUSER_SHARD_SHARDED_ENGINE_H_
