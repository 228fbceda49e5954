// ShardedFusionService: concurrent point-query scoring over a sharded
// engine's published state.
//
// Same RCU-style contract as serving/FusionService, lifted to K shards:
// Acquire() pins one ShardedSnapshot — which itself pins one FusionSnapshot
// per shard plus the global -> (shard, local) routing map — and every query
// is answered from exactly those K shard snapshots, no matter what the
// writer does concurrently. A merged read can never mix shard states from
// different publishes.
//
// A batch resolves the method in every pinned shard, scatters its triples
// per shard through FusionService's static ScoreBatch and gathers the
// answers in request order; over the same data they are byte-identical to
// an unsharded FusionService at every K and thread count. A point read is
// a batch of one. Ad-hoc observations (global SourceIds) are scored by
// shard 0 — every shard holds the same router-merged global parameters, so
// any shard gives the same answer.
#ifndef FUSER_SHARD_SHARDED_SERVICE_H_
#define FUSER_SHARD_SHARDED_SERVICE_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "serving/fusion_service.h"
#include "shard/sharded_engine.h"

namespace fuser {

class ShardedFusionService {
 public:
  /// `engine` must outlive the service. The service holds no mutable
  /// state: Acquire and the static queries are thread-safe.
  explicit ShardedFusionService(const ShardedFusionEngine* engine);

  /// Pins the engine's ShardedSnapshot by PinServableSnapshot's rule.
  StatusOr<std::shared_ptr<const ShardedSnapshot>> Acquire() const;

  /// One posterior per requested global triple, in request order. Fails
  /// like the unsharded service's ScoreBatch: FailedPrecondition when
  /// `spec` is not materialized (even for an empty batch), InvalidArgument
  /// for a triple outside the snapshot. Over all triples the result is
  /// byte-identical to the unsharded ScoreBatch (and to FusionEngine::Run)
  /// on the same data.
  static StatusOr<std::vector<double>> ScoreBatch(
      const ShardedSnapshot& snapshot, const MethodSpec& spec,
      const std::vector<TripleId>& triples);

  /// Posterior of an ad-hoc observation (global SourceIds). Pattern-serving
  /// methods only, like the unsharded service.
  static StatusOr<double> ScoreObservation(
      const ShardedSnapshot& snapshot, const MethodSpec& spec,
      const AdHocObservation& observation);

 private:
  const ShardedFusionEngine* engine_;
};

}  // namespace fuser

#endif  // FUSER_SHARD_SHARDED_SERVICE_H_
