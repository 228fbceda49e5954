// FusionEngine: the library's one-stop public API.
//
// Typical use:
//   Dataset dataset = ...;                       // build or load
//   EngineOptions options;
//   options.model.alpha = 0.5;
//   FusionEngine engine(&dataset, options);
//   engine.Prepare(FullGoldSplit(dataset).train);  // estimate parameters
//   auto run = engine.Run({MethodKind::kPrecRecCorr});
//   auto eval = engine.Evaluate(*run, dataset.labeled_mask());
//
// The engine estimates source quality and the correlation model from the
// training mask, resolves methods through the MethodRegistry (see
// core/fusion_method.h), and evaluates decisions and ranking quality
// against the gold standard. Shared inputs — the correlation model and the
// distinct-pattern grouping — are built lazily, once, and reused by every
// method that declares a need for them, so RunAll scores a whole method
// lineup over a single pass of the shared work.
//
// The engine is also the writer half of a single-writer/many-readers
// split: after every Prepare/Update (and whenever a shared input is first
// built) it publishes an immutable FusionSnapshot (see core/snapshot.h).
// Reader threads pin the current snapshot via CurrentSnapshot() — or the
// FusionService facade in serving/ — and keep scoring against it while
// this engine ingests further batches; Update clones the model and the
// grouping before applying deltas, so published state never moves.
//
// Update is the K=1 case of the one streaming-update path: ApplyShardBatch,
// then the model step UpdateCorrelationModel, then the grouping step. A
// ShardedFusionEngine runs the same steps over K shard engines, which then
// take batches only from it.
#ifndef FUSER_CORE_ENGINE_H_
#define FUSER_CORE_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/correlation_model.h"
#include "core/fusion_method.h"
#include "core/pattern_pipeline.h"
#include "core/snapshot.h"
#include "model/dataset.h"
#include "stats/curves.h"
#include "stats/metrics.h"

namespace fuser {

struct LoadedSnapshot;  // src/persist/snapshot_io.h
class ShardedFusionEngine;  // src/shard/sharded_engine.h

/// Output of one method execution.
struct FusionRun {
  MethodSpec spec;
  std::vector<double> scores;  // per TripleId, in [0, 1]
  double threshold = 0.5;      // decision threshold used for this method
  /// Dataset::version() at scoring time; Evaluate rejects a run whose
  /// dataset has since changed (0 = unknown provenance, size-checked only).
  uint64_t dataset_version = 0;
  /// Scoring wall time. Excludes engine Prepare and the shared inputs
  /// (correlation model, pattern grouping), which are built once and
  /// reused across methods like the paper's offline parameters.
  double seconds = 0.0;
};

/// The first half of every streaming update: what one batch did to one
/// partition of the corpus, produced by FusionEngine::ApplyShardBatch
/// without touching the engine's quality/model/grouping or publishing.
/// FusionEngine::Update (K=1) and ShardedFusionEngine::Update (the dirty
/// shards) pass their results to UpdateCorrelationModel.
struct ShardUpdateResult {
  DatasetDelta delta;
  /// The correlation model must rebuild lazily: the batch added sources
  /// (the cluster partition changes), or, with enable_clustering, it
  /// changed this partition's training contribution (label changes, new
  /// provides on training triples, or scope gains under use_scopes), which
  /// can re-cluster.
  bool invalidates_model = false;
  /// Existing triples whose provider/scope masks changed.
  std::vector<TripleId> changed_existing;
  /// Exact per-cluster pattern-count deltas against the clustering of the
  /// model passed to ApplyShardBatch (empty when no model was passed or
  /// invalidates_model is set).
  std::vector<std::vector<JointPatternDelta>> cluster_deltas;
  /// Post-batch per-source quality of this shard's partition. Only the raw
  /// counts are meaningful globally: merge across shards with
  /// MergeQualityCounts and finalize with FinalizeQualityFromCounts.
  std::vector<SourceQuality> shard_quality;
};

/// The model step's outcome: the correlation model to install next.
struct ModelUpdate {
  /// A clone of the current model carrying the new quality and every
  /// cluster delta, or null when the model rebuilds lazily.
  std::shared_ptr<const CorrelationModel> model;
  /// The current model was dropped for a lazy rebuild (a full
  /// invalidation). False when there was no model to update.
  bool invalidated = false;
};

/// The model step of every streaming update. Copy-on-write: `model` (which
/// pinned snapshots may share) is never modified. Returns a null model when
/// `model` is null (nothing built yet); a null model, invalidated, when any
/// of the dirty partitions' `results` invalidates the model or the joint
/// stats have no clone or no incremental path (Unimplemented); otherwise a
/// clone with `quality` and every result's cluster deltas folded in. Any
/// other clone or delta failure is returned as is.
StatusOr<ModelUpdate> UpdateCorrelationModel(
    const CorrelationModel* model, const std::vector<SourceQuality>& quality,
    const std::vector<const ShardUpdateResult*>& results);

/// Decision and ranking quality of a run on an evaluation set. When the
/// eval mask is single-class (all true or all false), ranked curves are
/// undefined: `curves_available` is false and both AUCs are NaN, but the
/// confusion counts and precision/recall/F1 are still reported.
struct EvalSummary {
  ConfusionCounts counts;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double auc_pr = 0.0;
  double auc_roc = 0.0;
  bool curves_available = true;
  double seconds = 0.0;
};

class FusionEngine {
 public:
  /// `dataset` must outlive the engine and be finalized. An engine built
  /// over a const dataset cannot Update (streaming requires the mutable
  /// overload below).
  FusionEngine(const Dataset* dataset, EngineOptions options);

  /// Streaming-capable engine: same as above, plus Update(batch) ingests
  /// micro-batches through this pointer. The dataset must not be mutated
  /// behind the engine's back (Run detects it via Dataset::version and
  /// fails).
  FusionEngine(Dataset* dataset, EngineOptions options);

  /// Estimates source quality from `train_mask` (labeled triples). Must be
  /// called before Run. The correlation model and the pattern grouping are
  /// built lazily on the first Run that needs them.
  Status Prepare(const DynamicBitset& train_mask);

  /// Streaming ingestion: applies `batch` to the dataset and incrementally
  /// maintains every shared input instead of rebuilding it. After any
  /// sequence of Update calls, Run/RunAll scores are byte-identical to a
  /// fresh engine prepared on the resulting dataset with train_mask().
  ///
  ///  * Triples newly labeled by the batch join the training set; source
  ///    quality is re-estimated (one cheap bitset pass).
  ///  * Per-cluster EmpiricalJointStats receive exact pattern-count deltas
  ///    for the affected training triples (memo/SoS tables updated or
  ///    rebuilt, whichever is cheaper).
  ///  * The cached PatternGrouping assigns new triples to existing distinct
  ///    patterns in O(batch x clusters), appending only genuinely new
  ///    patterns (scored lazily on the next Run) — it is not rebuilt, see
  ///    pattern_grouping_builds().
  ///  * Changes with no incremental story invalidate the affected caches,
  ///    which rebuild lazily: new sources change the cluster partition, and
  ///    with enable_clustering any training change can re-cluster (see
  ///    full_invalidations()).
  ///
  /// Runs ApplyShardBatch, UpdateCorrelationModel and the grouping step in
  /// turn. Requires the mutable constructor and a prior Prepare. Fails with
  /// FailedPrecondition on a router-managed engine (one that has adopted
  /// parameters from a ShardedFusionEngine): it holds one shard of the
  /// corpus, and only the router can route a batch to it.
  Status Update(const ObservationBatch& batch);

  // ---- Sharded operation (driven by shard/ShardedFusionEngine) ----------

  /// The dataset this engine scores (shard routers stitch results through
  /// per-shard datasets).
  const Dataset* dataset() const { return dataset_; }

  /// The first half of every Update: applies the batch to this engine's
  /// dataset, extends the train mask, decides whether the model must
  /// rebuild, and returns the per-partition integer statistics — without
  /// touching this engine's quality/model/grouping and without publishing.
  /// `model` (may be null) supplies the clustering the per-cluster pattern
  /// deltas are computed against; they are skipped when the model must
  /// rebuild anyway. Update calls it on itself; a shard router calls it on
  /// every dirty shard and must follow with AdoptParameters before the
  /// shard serves again.
  StatusOr<ShardUpdateResult> ApplyShardBatch(const ObservationBatch& batch,
                                              const CorrelationModel* model);

  /// The router's second half of an update: installs router-merged global
  /// quality and (optionally) the correlation model shared by every shard,
  /// runs Update's grouping step against `changed_existing` (triples whose
  /// masks changed), and publishes. A null model drops the cached
  /// model/grouping (the router rebuilds lazily); a shard the batch did not
  /// touch keeps its grouping as-is — the near-free path. Marks the engine
  /// router-managed: Update fails, and EnsureModel no longer builds from
  /// the shard-local dataset (which would be globally wrong) but fails
  /// until the next adoption.
  Status AdoptParameters(std::vector<SourceQuality> quality,
                         std::shared_ptr<const CorrelationModel> model,
                         const std::vector<TripleId>& changed_existing);

  /// Warm start (src/persist/): adopts the engine state saved in the
  /// snapshot file at `path` — training mask, source quality, correlation
  /// model, pattern grouping, and per-method serving entries — and
  /// publishes it as a servable snapshot, all without running any of the
  /// training pipeline. The engine's dataset must be the one the snapshot
  /// was saved against, at the same version (triples streamed in after the
  /// save mean the state no longer matches; that is InvalidArgument — use
  /// Update to move forward, or re-Prepare). Afterwards the engine behaves
  /// exactly like the one that saved the file: Run/RunAll scores are
  /// byte-identical, and Update applies incrementally on top through the
  /// usual clone-on-write path. Replaces the options the engine was
  /// constructed with by the saved ones — except num_threads, which stays
  /// the engine's own (thread count belongs to the host, not the trained
  /// state; scores are thread-count invariant). A file saved by
  /// ShardedFusionEngine is InvalidArgument.
  Status WarmStart(const std::string& path);

  /// Same, from an already-loaded snapshot (LoadSnapshot). The engine must
  /// have been constructed over `loaded.dataset.get()` (or, for
  /// LoadSnapshotFor results, over the dataset they were attached to).
  Status WarmStart(const LoadedSnapshot& loaded);

  /// Persists the latest published snapshot plus the dataset and training
  /// mask behind it (see persist::SaveSnapshot). Publish the serving
  /// entries you want warm-started first (PublishSnapshot); a snapshot
  /// published before the model/grouping were built saves without them and
  /// the warm-started engine rebuilds those lazily.
  Status SaveSnapshot(const std::string& path) const;

  /// Runs one method over the full dataset.
  StatusOr<FusionRun> Run(const MethodSpec& spec);

  /// Runs every spec over the full dataset, sharing the correlation model
  /// and the pattern grouping across methods (the paper's many-methods
  /// workload, Figs. 4/6/7). Scores are identical to per-spec Run calls;
  /// the shared inputs are built at most once. Fails before any scoring
  /// when a spec does not resolve.
  StatusOr<std::vector<FusionRun>> RunAll(const std::vector<MethodSpec>& specs);

  /// Evaluates decisions (threshold) and ranking (curves) on `eval_mask`.
  StatusOr<EvalSummary> Evaluate(const FusionRun& run,
                                 const DynamicBitset& eval_mask) const;

  /// Convenience: Run followed by Evaluate.
  StatusOr<EvalSummary> RunAndEvaluate(const MethodSpec& spec,
                                       const DynamicBitset& eval_mask);

  /// The latest published snapshot: the engine's state as of the last
  /// Prepare/Update/publish, immutable and ref-counted. Thread-safe — any
  /// number of reader threads may call this (and keep the result pinned)
  /// while the writer thread keeps calling Update/Run/PublishSnapshot.
  /// Null before the first Prepare. Snapshots published before the serving
  /// state was materialized (see PublishSnapshot) have no model/grouping/
  /// serving entries yet; FusionService reports that per query.
  std::shared_ptr<const FusionSnapshot> CurrentSnapshot() const;

  /// The latest published snapshot that carries serving entries (the
  /// newest PublishSnapshot result). Between an Update and the writer's
  /// next PublishSnapshot the engine's *current* snapshot has no serving
  /// state yet; readers that want uninterrupted serving pin this one
  /// instead — slightly stale, always servable. Null until the first
  /// PublishSnapshot with a non-empty spec list. Thread-safe.
  std::shared_ptr<const FusionSnapshot> CurrentServableSnapshot() const;

  /// Materializes serving state for `specs` (shared inputs plus one
  /// MethodServing per spec — posterior tables for pattern-serving
  /// methods, dense scores otherwise), publishes the result atomically,
  /// and returns the published snapshot. Entries already published for the
  /// same inputs are reused, so republishing after no change is cheap.
  /// Writer-side: call it from the same thread as Prepare/Update/Run;
  /// readers consume the result via CurrentSnapshot()/FusionService.
  StatusOr<std::shared_ptr<const FusionSnapshot>> PublishSnapshot(
      const std::vector<MethodSpec>& specs);

  /// The correlation model (builds it if not yet built). The pointer is
  /// owned by the published snapshot: it stays valid while this engine
  /// still serves it *or* any caller keeps a snapshot from before the next
  /// Prepare/Update pinned (Prepare and invalidating Updates unreference
  /// the model instead of destroying it; incremental Updates clone it and
  /// stream deltas into the clone). Cache it across Prepare/Update
  /// boundaries only by pinning the owning snapshot.
  StatusOr<const CorrelationModel*> GetModel();

  /// The distinct-pattern grouping (builds model and grouping if needed).
  /// Same ownership rule as GetModel: snapshot-owned, never mutated after
  /// publication — pin the snapshot to keep the pointer valid across
  /// Prepare/Update boundaries.
  StatusOr<const PatternGrouping*> GetPatternGrouping();

  /// Per-source quality estimated by Prepare (and kept current by Update).
  const std::vector<SourceQuality>& source_quality() const {
    return quality_;
  }

  /// The effective training mask: what Prepare received, extended by every
  /// triple labeled through Update. A fresh engine prepared on the current
  /// dataset with this mask reproduces this engine's scores exactly.
  const DynamicBitset& train_mask() const { return train_mask_; }

  const EngineOptions& options() const { return options_; }

  /// How many times the pattern grouping has been built from scratch
  /// (tests assert that RunAll shares one grouping across methods and that
  /// Update maintains it incrementally instead of rebuilding).
  size_t pattern_grouping_builds() const { return grouping_builds_; }

  /// Number of Update calls absorbed, and how many of them invalidated the
  /// cached model/grouping (lazy full rebuild) instead of updating
  /// incrementally.
  size_t updates_applied() const { return updates_applied_; }
  size_t full_invalidations() const { return full_invalidations_; }

 private:
  // Marks the shard engines it warm-starts router-managed.
  friend class ShardedFusionEngine;

  using ServingMap =
      std::unordered_map<std::string, std::shared_ptr<const MethodServing>>;

  Status EnsureModel();
  Status EnsureGrouping();
  /// Publishes the current writer state (quality, model, grouping,
  /// `serving`) as a fresh immutable snapshot. The swap is the only
  /// writer/reader touch point and is mutex-guarded; everything inside the
  /// snapshot is frozen before the swap.
  void Publish(ServingMap serving);
  /// Publish preserving the serving entries of the current snapshot (used
  /// when only the shared inputs changed lazily, at the same dataset
  /// version, so existing entries remain valid).
  void RepublishKeepServing();
  /// The engine's persistent worker pool, created lazily on the first
  /// parallel section and reused by every Run/Update/grouping build after
  /// it (repeated calls stop paying per-call thread creation). Returns
  /// nullptr when the resolved thread count is 1 — everything runs inline.
  ThreadPool* WorkerPool();
  /// Out-of-band mutation guard: the dataset's version must match what the
  /// engine last saw (Prepare or Update).
  Status CheckDatasetVersion() const;
  /// The latest published snapshot, if it still describes the dataset:
  /// what SaveSnapshot persists (ShardedFusionEngine saves one per shard).
  StatusOr<std::shared_ptr<const FusionSnapshot>> SnapshotToSave() const;
  /// Resolves `spec` through the registry and assembles the context with
  /// every shared input the method declares (model, pattern grouping).
  StatusOr<const FusionMethod*> ResolveAndPrepareContext(
      const MethodSpec& spec, MethodContext* context);
  /// Existing triples whose provider or scope masks changed in `delta`.
  std::vector<TripleId> CollectChangedExisting(const DatasetDelta& delta,
                                               bool use_scopes) const;
  /// Exact per-cluster pattern-count deltas for a just-applied batch.
  /// Reads the post-batch dataset and train_mask_.
  std::vector<std::vector<JointPatternDelta>> ComputeClusterDeltas(
      const DatasetDelta& delta, const DynamicBitset& old_train,
      const std::vector<TripleId>& changed_existing,
      const SourceClustering& clustering) const;
  /// The last step of every update: installs `quality` and `model`, brings
  /// the cached grouping in line with `model` (the grouping step), and
  /// publishes. The grouping is kept as-is when nothing it depends on
  /// changed, updated in a copy (pinned snapshots keep the old one) against
  /// `changed_existing` otherwise, and dropped for a lazy rebuild when the
  /// update fails or `model` is null.
  void Install(std::vector<SourceQuality> quality,
               std::shared_ptr<const CorrelationModel> model,
               const std::vector<TripleId>& changed_existing);

  const Dataset* dataset_;
  Dataset* mutable_dataset_ = nullptr;  // non-null iff streaming-capable
  EngineOptions options_;
  bool prepared_ = false;
  /// Set by AdoptParameters and ShardedFusionEngine::WarmStart: this engine
  /// is router-managed. Its model is never built from the shard-local
  /// dataset, and batches reach it only through ApplyShardBatch.
  bool external_parameters_ = false;
  uint64_t dataset_version_ = 0;
  DynamicBitset train_mask_;
  std::vector<SourceQuality> quality_;
  // Shared inputs are shared_ptrs into the published snapshots: the writer
  // replaces them (clone-on-write in Update, reset in Prepare) but never
  // mutates them once a snapshot holds them.
  std::shared_ptr<const CorrelationModel> model_;
  std::shared_ptr<const PatternGrouping> grouping_;
  std::unique_ptr<ThreadPool> pool_;
  size_t grouping_builds_ = 0;
  size_t updates_applied_ = 0;
  size_t full_invalidations_ = 0;

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const FusionSnapshot> snapshot_;
  /// Latest snapshot with non-empty serving entries (what readers pin for
  /// uninterrupted serving across the writer's Update→publish window).
  std::shared_ptr<const FusionSnapshot> serving_snapshot_;
  uint64_t snapshots_published_ = 0;
};

}  // namespace fuser

#endif  // FUSER_CORE_ENGINE_H_
