#include "shard/sharded_service.h"

#include <string>

namespace fuser {

namespace {

Status CheckShardSnapshot(const ShardedSnapshot& snapshot, size_t shard) {
  if (shard >= snapshot.shards.size() || snapshot.shards[shard] == nullptr) {
    return Status::FailedPrecondition(
        "sharded snapshot does not pin a snapshot for the owning shard");
  }
  return Status::OK();
}

}  // namespace

ShardedFusionService::ShardedFusionService(const ShardedFusionEngine* engine)
    : engine_(engine) {}

StatusOr<std::shared_ptr<const ShardedSnapshot>> ShardedFusionService::Acquire()
    const {
  return PinServableSnapshot(*engine_);
}

StatusOr<std::vector<double>> ShardedFusionService::ScoreBatch(
    const ShardedSnapshot& snapshot, const MethodSpec& spec,
    const std::vector<TripleId>& triples) {
  // Resolve the method in every shard before the scatter, so an
  // unmaterialized method fails whatever the batch holds, as unsharded.
  const std::string name = spec.Name();
  const size_t num_shards = snapshot.shards.size();
  for (size_t k = 0; k < num_shards; ++k) {
    FUSER_RETURN_IF_ERROR(CheckShardSnapshot(snapshot, k));
    FUSER_RETURN_IF_ERROR(
        FusionService::FindServing(*snapshot.shards[k], name).status());
  }
  // Scatter: per-shard local ids plus each query's position in the request.
  std::vector<std::vector<TripleId>> locals(num_shards);
  std::vector<std::vector<size_t>> positions(num_shards);
  for (size_t i = 0; i < triples.size(); ++i) {
    const TripleId t = triples[i];
    if (t >= snapshot.num_triples) {
      return Status::InvalidArgument(
          "triple id outside this snapshot's range (added later?)");
    }
    const ShardLocation loc = snapshot.Locate(t);
    locals[loc.shard].push_back(loc.local);
    positions[loc.shard].push_back(i);
  }
  // Gather: merge per-shard answers back into request order.
  std::vector<double> merged(triples.size(), 0.0);
  for (size_t k = 0; k < num_shards; ++k) {
    if (locals[k].empty()) continue;
    FUSER_ASSIGN_OR_RETURN(
        std::vector<double> scores,
        FusionService::ScoreBatch(*snapshot.shards[k], spec, locals[k]));
    for (size_t j = 0; j < scores.size(); ++j) {
      merged[positions[k][j]] = scores[j];
    }
  }
  return merged;
}

StatusOr<double> ShardedFusionService::ScoreObservation(
    const ShardedSnapshot& snapshot, const MethodSpec& spec,
    const AdHocObservation& observation) {
  // Every shard holds the same global parameters; shard 0 answers for all.
  FUSER_RETURN_IF_ERROR(CheckShardSnapshot(snapshot, 0));
  return FusionService::ScoreObservation(*snapshot.shards[0], spec,
                                         observation);
}

}  // namespace fuser
