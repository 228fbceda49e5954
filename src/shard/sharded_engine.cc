#include "shard/sharded_engine.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/clustering.h"
#include "core/correlation.h"
#include "core/joint_stats.h"
#include "core/quality.h"
#include "persist/snapshot_io.h"
#include "shard/sharded_persist.h"

namespace fuser {

namespace {
const std::vector<TripleId> kNoChangedExisting;
}  // namespace

ShardedFusionEngine::ShardedFusionEngine(ShardedCorpus corpus,
                                         const EngineOptions& options)
    : corpus_(std::move(corpus)), options_(options) {
  const size_t num_shards = corpus_.num_shards();
  const size_t budget = ResolveNumThreads(options_.num_threads);
  EngineOptions shard_options = options_;
  shard_options.num_threads = std::max<size_t>(1, budget / num_shards);
  engines_.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    engines_.push_back(
        std::make_unique<FusionEngine>(corpus_.mutable_shard(k), shard_options));
  }
  router_threads_ = std::min(num_shards, budget);
  if (router_threads_ > 1) {
    router_pool_ = std::make_unique<ThreadPool>(router_threads_);
  }
  shard_quality_.resize(num_shards);
}

StatusOr<std::unique_ptr<ShardedFusionEngine>> ShardedFusionEngine::Create(
    ShardedCorpus corpus, const EngineOptions& options) {
  if (corpus.num_shards() == 0) {
    return Status::InvalidArgument("sharded corpus has no shards");
  }
  for (size_t k = 0; k < corpus.num_shards(); ++k) {
    if (!corpus.shard(k).finalized()) {
      return Status::FailedPrecondition(
          "sharded corpus must be finalized before engine creation");
    }
  }
  return std::unique_ptr<ShardedFusionEngine>(
      new ShardedFusionEngine(std::move(corpus), options));
}

StatusOr<std::unique_ptr<ShardedFusionEngine>> ShardedFusionEngine::Create(
    const Dataset& full, const ShardingOptions& sharding,
    const EngineOptions& options) {
  FUSER_ASSIGN_OR_RETURN(ShardedCorpus corpus,
                         ShardedCorpus::Partition(full, sharding));
  return Create(std::move(corpus), options);
}

void ShardedFusionEngine::ForEachShard(const std::function<void(size_t)>& fn) {
  const size_t num_shards = engines_.size();
  if (router_pool_ == nullptr || num_shards <= 1) {
    for (size_t k = 0; k < num_shards; ++k) fn(k);
    return;
  }
  ParallelForOptions options;
  options.pool = router_pool_.get();
  ParallelFor(num_shards, router_threads_, fn, options);
}

Status ShardedFusionEngine::MergeQuality() {
  std::vector<SourceQuality> merged = shard_quality_[0];
  for (size_t k = 1; k < shard_quality_.size(); ++k) {
    FUSER_RETURN_IF_ERROR(MergeQualityCounts(&merged, shard_quality_[k]));
  }
  FUSER_RETURN_IF_ERROR(
      FinalizeQualityFromCounts(options_.model.ToQualityOptions(), &merged));
  quality_ = std::move(merged);
  return Status::OK();
}

Status ShardedFusionEngine::Prepare(const DynamicBitset& train_mask) {
  if (train_mask.size() != corpus_.num_triples()) {
    return Status::InvalidArgument(
        "train mask size does not match the corpus");
  }
  const size_t num_shards = engines_.size();
  std::vector<DynamicBitset> shard_masks;
  shard_masks.reserve(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    shard_masks.emplace_back(corpus_.shard(k).num_triples());
  }
  train_mask.ForEach([&](size_t global) {
    const ShardLocation loc = corpus_.Locate(static_cast<TripleId>(global));
    shard_masks[loc.shard].Set(loc.local);
  });

  std::vector<Status> statuses(num_shards);
  ForEachShard(
      [&](size_t k) { statuses[k] = engines_[k]->Prepare(shard_masks[k]); });
  for (const Status& s : statuses) FUSER_RETURN_IF_ERROR(s);

  for (size_t k = 0; k < num_shards; ++k) {
    shard_quality_[k] = engines_[k]->source_quality();
  }
  FUSER_RETURN_IF_ERROR(MergeQuality());
  model_ = nullptr;
  for (size_t k = 0; k < num_shards; ++k) {
    FUSER_RETURN_IF_ERROR(
        engines_[k]->AdoptParameters(quality_, nullptr, kNoChangedExisting));
  }
  train_mask_ = train_mask;
  prepared_ = true;
  PublishCurrent();
  return Status::OK();
}

Status ShardedFusionEngine::Update(const ObservationBatch& batch) {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare before Update");
  }
  FUSER_ASSIGN_OR_RETURN(RoutedBatch routed, corpus_.RouteBatch(batch));
  const size_t num_shards = engines_.size();

  std::vector<ShardUpdateResult> results(num_shards);
  std::vector<Status> statuses(num_shards);
  ForEachShard([&](size_t k) {
    if (!routed.dirty[k]) return;
    StatusOr<ShardUpdateResult> result =
        engines_[k]->ApplyShardBatch(routed.per_shard[k], model_.get());
    if (!result.ok()) {
      statuses[k] = result.status();
      return;
    }
    results[k] = std::move(result).value();
  });
  for (const Status& s : statuses) FUSER_RETURN_IF_ERROR(s);

  std::vector<const DatasetDelta*> deltas(num_shards, nullptr);
  std::vector<const ShardUpdateResult*> dirty;
  for (size_t k = 0; k < num_shards; ++k) {
    if (!routed.dirty[k]) continue;
    deltas[k] = &results[k].delta;
    dirty.push_back(&results[k]);
  }
  FUSER_RETURN_IF_ERROR(corpus_.CommitRoute(routed, deltas));
  ++updates_applied_;

  // Extend the global training mask exactly as the shards extended theirs.
  train_mask_.Resize(corpus_.num_triples());
  for (size_t k = 0; k < num_shards; ++k) {
    if (!routed.dirty[k]) continue;
    for (const auto& change : results[k].delta.label_changes) {
      if (change.second == Label::kUnknown) {
        train_mask_.Set(corpus_.GlobalOf(k, change.first));
      }
    }
    shard_quality_[k] = std::move(results[k].shard_quality);
  }
  FUSER_RETURN_IF_ERROR(MergeQuality());

  // The unsharded engine's model step over every dirty shard's result; on
  // failure the model is dropped (rebuilt lazily) and the error returned.
  StatusOr<ModelUpdate> next =
      UpdateCorrelationModel(model_.get(), quality_, dirty);
  model_ = next.ok() ? next->model : nullptr;
  if (next.ok() && next->invalidated) ++full_invalidations_;
  for (size_t k = 0; k < num_shards; ++k) {
    FUSER_RETURN_IF_ERROR(engines_[k]->AdoptParameters(
        quality_, model_,
        routed.dirty[k] ? results[k].changed_existing : kNoChangedExisting));
  }
  PublishCurrent();
  return next.status();
}

Status ShardedFusionEngine::EnsureGlobalModel() {
  if (model_ != nullptr) return Status::OK();
  const ModelOptions& mo = options_.model;
  const size_t num_sources = corpus_.num_sources();
  const size_t num_shards = engines_.size();

  SourceClustering clustering;
  if (!mo.enable_clustering) {
    FUSER_ASSIGN_OR_RETURN(clustering, SingleClusterOf(num_sources));
  } else if (mo.clustering.use_sketch) {
    return Status::Unimplemented(
        "sketch-based clustering is not supported with sharding (merged "
        "exact pairwise counts are required for byte-identical clusters)");
  } else {
    std::vector<SourceId> sources(num_sources);
    std::iota(sources.begin(), sources.end(), SourceId{0});
    PairwiseCounts merged;
    for (size_t k = 0; k < num_shards; ++k) {
      FUSER_ASSIGN_OR_RETURN(
          PairwiseCounts counts,
          ComputePairwiseCounts(corpus_.shard(k), engines_[k]->train_mask(),
                                sources));
      if (k == 0) {
        merged = std::move(counts);
      } else {
        FUSER_RETURN_IF_ERROR(MergePairwiseCounts(&merged, counts));
      }
    }
    FUSER_ASSIGN_OR_RETURN(
        std::vector<PairwiseCorrelation> pairs,
        PairwiseCorrelationsFromCounts(merged, mo.ToJointStatsOptions()));
    FUSER_ASSIGN_OR_RETURN(
        clustering, ClusterSourcesFromPairs(num_sources, pairs, mo.clustering));
  }

  CorrelationModel model;
  model.source_quality = quality_;
  model.clustering = std::move(clustering);
  model.alpha = mo.alpha;
  model.use_scopes = mo.use_scopes;
  model.cluster_stats.reserve(model.clustering.clusters.size());
  for (const std::vector<SourceId>& cluster : model.clustering.clusters) {
    std::vector<EmpiricalJointStatsState> states;
    states.reserve(num_shards);
    for (size_t k = 0; k < num_shards; ++k) {
      FUSER_ASSIGN_OR_RETURN(
          std::unique_ptr<EmpiricalJointStats> stats,
          EmpiricalJointStats::Create(corpus_.shard(k),
                                      engines_[k]->train_mask(), cluster,
                                      mo.ToJointStatsOptions()));
      states.push_back(stats->ExportState());
    }
    FUSER_ASSIGN_OR_RETURN(EmpiricalJointStatsState merged_state,
                           MergeJointStatsStates(states));
    FUSER_ASSIGN_OR_RETURN(std::unique_ptr<EmpiricalJointStats> provider,
                           EmpiricalJointStats::FromState(merged_state));
    model.cluster_stats.push_back(std::move(provider));
  }

  model_ = std::make_shared<const CorrelationModel>(std::move(model));
  for (size_t k = 0; k < num_shards; ++k) {
    FUSER_RETURN_IF_ERROR(
        engines_[k]->AdoptParameters(quality_, model_, kNoChangedExisting));
  }
  PublishCurrent();
  return Status::OK();
}

Status ShardedFusionEngine::CheckSpecs(const std::vector<MethodSpec>& specs,
                                       bool* needs_model) const {
  *needs_model = false;
  for (const MethodSpec& spec : specs) {
    const FusionMethod* method = MethodRegistry::Global().Find(spec.kind);
    if (method == nullptr) {
      return Status::Unimplemented("method kind is not registered: " +
                                   spec.Name());
    }
    if (!method->shardable()) {
      return Status::Unimplemented(
          "method '" + std::string(method->id()) +
          "' couples triples across the corpus and cannot run sharded");
    }
    if (method->needs_model() || method->uses_pattern_pipeline()) {
      *needs_model = true;
    }
  }
  if (*needs_model && options_.model.enable_clustering &&
      options_.model.clustering.use_sketch) {
    return Status::Unimplemented(
        "sketch-based clustering is not supported with sharding (merged "
        "exact pairwise counts are required for byte-identical clusters)");
  }
  return Status::OK();
}

StatusOr<std::vector<FusionRun>> ShardedFusionEngine::RunAll(
    const std::vector<MethodSpec>& specs) {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare before Run");
  }
  bool needs_model = false;
  FUSER_RETURN_IF_ERROR(CheckSpecs(specs, &needs_model));
  if (needs_model) {
    FUSER_RETURN_IF_ERROR(EnsureGlobalModel());
  }

  const size_t num_shards = engines_.size();
  std::vector<std::vector<FusionRun>> shard_runs(num_shards);
  std::vector<Status> statuses(num_shards);
  ForEachShard([&](size_t k) {
    StatusOr<std::vector<FusionRun>> runs = engines_[k]->RunAll(specs);
    if (!runs.ok()) {
      statuses[k] = runs.status();
      return;
    }
    shard_runs[k] = std::move(runs).value();
  });
  for (const Status& s : statuses) FUSER_RETURN_IF_ERROR(s);

  const size_t num_triples = corpus_.num_triples();
  std::vector<FusionRun> runs(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    FusionRun& run = runs[i];
    run.spec = specs[i];
    run.threshold = shard_runs[0][i].threshold;
    run.dataset_version = 0;  // stitched run: no single dataset version
    run.scores.resize(num_triples);
    double seconds = 0.0;
    for (size_t k = 0; k < num_shards; ++k) {
      seconds += shard_runs[k][i].seconds;
    }
    run.seconds = seconds;
  }
  for (size_t g = 0; g < num_triples; ++g) {
    const ShardLocation loc = corpus_.Locate(static_cast<TripleId>(g));
    for (size_t i = 0; i < specs.size(); ++i) {
      runs[i].scores[g] = shard_runs[loc.shard][i].scores[loc.local];
    }
  }
  return runs;
}

StatusOr<FusionRun> ShardedFusionEngine::Run(const MethodSpec& spec) {
  FUSER_ASSIGN_OR_RETURN(std::vector<FusionRun> runs, RunAll({spec}));
  return std::move(runs.front());
}

StatusOr<std::shared_ptr<const ShardedSnapshot>>
ShardedFusionEngine::PublishSnapshot(const std::vector<MethodSpec>& specs) {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare before PublishSnapshot");
  }
  bool needs_model = false;
  FUSER_RETURN_IF_ERROR(CheckSpecs(specs, &needs_model));
  if (needs_model) {
    FUSER_RETURN_IF_ERROR(EnsureGlobalModel());
  }

  const size_t num_shards = engines_.size();
  std::vector<std::shared_ptr<const FusionSnapshot>> shards(num_shards);
  std::vector<Status> statuses(num_shards);
  ForEachShard([&](size_t k) {
    StatusOr<std::shared_ptr<const FusionSnapshot>> snapshot =
        engines_[k]->PublishSnapshot(specs);
    if (!snapshot.ok()) {
      statuses[k] = snapshot.status();
      return;
    }
    shards[k] = std::move(snapshot).value();
  });
  for (const Status& s : statuses) FUSER_RETURN_IF_ERROR(s);
  return StoreSnapshot(std::move(shards), /*servable=*/!specs.empty());
}

std::shared_ptr<const ShardedSnapshot> ShardedFusionEngine::StoreSnapshot(
    std::vector<std::shared_ptr<const FusionSnapshot>> shards, bool servable) {
  auto snapshot = std::make_shared<ShardedSnapshot>();
  snapshot->num_triples = corpus_.num_triples();
  snapshot->num_sources = corpus_.num_sources();
  snapshot->map = corpus_.SnapshotMap();
  snapshot->shards = std::move(shards);
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot->id = ++snapshots_published_;
  snapshot_ = snapshot;
  if (servable) serving_snapshot_ = snapshot;
  return snapshot;
}

void ShardedFusionEngine::PublishCurrent() {
  std::vector<std::shared_ptr<const FusionSnapshot>> shards;
  shards.reserve(engines_.size());
  for (const auto& engine : engines_) {
    shards.push_back(engine->CurrentSnapshot());
  }
  StoreSnapshot(std::move(shards), /*servable=*/false);
}

std::shared_ptr<const ShardedSnapshot> ShardedFusionEngine::CurrentSnapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::shared_ptr<const ShardedSnapshot>
ShardedFusionEngine::CurrentServableSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return serving_snapshot_;
}

Status ShardedFusionEngine::SaveSnapshot(const std::string& path) const {
  std::vector<std::shared_ptr<const FusionSnapshot>> pinned;
  std::vector<SnapshotPart> parts;
  for (const std::unique_ptr<FusionEngine>& engine : engines_) {
    FUSER_ASSIGN_OR_RETURN(std::shared_ptr<const FusionSnapshot> snapshot,
                           engine->SnapshotToSave());
    parts.push_back({engine->dataset(), &engine->train_mask(), snapshot.get()});
    pinned.push_back(std::move(snapshot));
  }
  return SaveSnapshotParts(path, parts, EncodeShardRouter(corpus_));
}

StatusOr<std::unique_ptr<ShardedFusionEngine>> ShardedFusionEngine::WarmStart(
    const std::string& path, const EngineOptions& options) {
  std::string router_bytes;
  FUSER_ASSIGN_OR_RETURN(std::vector<LoadedSnapshot> loaded,
                         LoadSnapshotParts(path, &router_bytes));
  FUSER_ASSIGN_OR_RETURN(ShardRouterState router,
                         DecodeShardRouter(router_bytes));
  const size_t num_shards = router.sharding.num_shards;
  if (loaded.size() != num_shards) {
    return Status::InvalidArgument(
        "snapshot router names " + std::to_string(num_shards) +
        " shards but the file holds " + std::to_string(loaded.size()) +
        " parts: " + path);
  }
  // The corpus owns the datasets; the shard engine's WarmStart skips its
  // pointer-identity check for a moved-out dataset (the object itself is
  // unmoved, so the snapshot's internal pointers stay valid).
  std::vector<std::unique_ptr<Dataset>> datasets;
  for (LoadedSnapshot& part : loaded) {
    datasets.push_back(std::move(part.dataset));
  }

  FUSER_ASSIGN_OR_RETURN(
      ShardedCorpus corpus,
      ShardedCorpus::FromShards(std::move(datasets), router.local_to_global,
                                router.sharding));
  if (corpus.num_triples() != router.num_triples ||
      corpus.num_sources() != router.num_sources) {
    return Status::InvalidArgument(
        "shard router totals do not match the snapshot's parts: " + path);
  }

  std::unique_ptr<ShardedFusionEngine> engine(
      new ShardedFusionEngine(std::move(corpus), options));
  for (size_t k = 0; k < num_shards; ++k) {
    FUSER_RETURN_IF_ERROR(engine->engines_[k]->WarmStart(loaded[k]));
    // The saved parameters are router-merged, as if adopted.
    engine->engines_[k]->external_parameters_ = true;
  }

  // The saved options govern all estimation; the thread budget stays the
  // caller's (per-shard budgets were already applied at construction).
  engine->options_ = engine->engines_[0]->options();
  engine->options_.num_threads = options.num_threads;

  engine->train_mask_ = DynamicBitset(engine->corpus_.num_triples());
  for (size_t k = 0; k < num_shards; ++k) {
    const size_t shard = k;
    engine->engines_[k]->train_mask().ForEach([&](size_t local) {
      engine->train_mask_.Set(engine->corpus_.GlobalOf(
          shard, static_cast<TripleId>(local)));
    });
    FUSER_ASSIGN_OR_RETURN(
        engine->shard_quality_[k],
        EstimateSourceQuality(engine->corpus_.shard(k),
                              engine->engines_[k]->train_mask(),
                              engine->options_.model.ToQualityOptions()));
  }
  FUSER_RETURN_IF_ERROR(engine->MergeQuality());

  // Every shard saved the same adopted global parameters; shard 0's model
  // object becomes the router's (values are identical across shards).
  engine->model_ = engine->engines_[0]->CurrentSnapshot()->model;
  engine->prepared_ = true;

  // Servable only if every shard has serving entries.
  std::vector<std::shared_ptr<const FusionSnapshot>> shards;
  bool servable = true;
  for (const auto& shard : engine->engines_) {
    shards.push_back(shard->CurrentSnapshot());
    servable = servable && !shards.back()->serving.empty();
  }
  engine->StoreSnapshot(std::move(shards), servable);
  return engine;
}

}  // namespace fuser
