#include "net/scoring_backend.h"

namespace fuser {
namespace net {

StatusOr<BackendScore> ServiceBackend::Score(const MethodSpec& spec,
                                             TripleId t) const {
  FUSER_ASSIGN_OR_RETURN(auto snapshot, service_->Acquire());
  FUSER_ASSIGN_OR_RETURN(double score, service_->Score(*snapshot, spec, t));
  return BackendScore{snapshot->id, score};
}

StatusOr<BackendBatch> ServiceBackend::ScoreBatch(
    const MethodSpec& spec, const std::vector<TripleId>& triples) const {
  FUSER_ASSIGN_OR_RETURN(auto snapshot, service_->Acquire());
  FUSER_ASSIGN_OR_RETURN(std::vector<double> scores,
                         service_->ScoreBatch(*snapshot, spec, triples));
  return BackendBatch{snapshot->id, std::move(scores)};
}

StatusOr<BackendScore> ServiceBackend::ScoreObservation(
    const MethodSpec& spec, const AdHocObservation& observation) const {
  FUSER_ASSIGN_OR_RETURN(auto snapshot, service_->Acquire());
  FUSER_ASSIGN_OR_RETURN(
      double score, service_->ScoreObservation(*snapshot, spec, observation));
  return BackendScore{snapshot->id, score};
}

StatusOr<BackendInfo> ServiceBackend::Info() const {
  FUSER_ASSIGN_OR_RETURN(auto snapshot, service_->Acquire());
  BackendInfo info;
  info.snapshot_id = snapshot->id;
  info.dataset_version = snapshot->dataset_version;
  info.num_triples = snapshot->num_triples;
  info.num_sources = snapshot->num_sources;
  info.num_shards = 0;
  return info;
}

StatusOr<BackendScore> ShardedServiceBackend::Score(const MethodSpec& spec,
                                                    TripleId t) const {
  FUSER_ASSIGN_OR_RETURN(auto snapshot, service_->Acquire());
  FUSER_ASSIGN_OR_RETURN(double score, service_->Score(*snapshot, spec, t));
  return BackendScore{snapshot->id, score};
}

StatusOr<BackendBatch> ShardedServiceBackend::ScoreBatch(
    const MethodSpec& spec, const std::vector<TripleId>& triples) const {
  FUSER_ASSIGN_OR_RETURN(auto snapshot, service_->Acquire());
  FUSER_ASSIGN_OR_RETURN(std::vector<double> scores,
                         service_->ScoreBatch(*snapshot, spec, triples));
  return BackendBatch{snapshot->id, std::move(scores)};
}

StatusOr<BackendScore> ShardedServiceBackend::ScoreObservation(
    const MethodSpec& spec, const AdHocObservation& observation) const {
  FUSER_ASSIGN_OR_RETURN(auto snapshot, service_->Acquire());
  FUSER_ASSIGN_OR_RETURN(
      double score, service_->ScoreObservation(*snapshot, spec, observation));
  return BackendScore{snapshot->id, score};
}

StatusOr<BackendInfo> ShardedServiceBackend::Info() const {
  FUSER_ASSIGN_OR_RETURN(auto snapshot, service_->Acquire());
  BackendInfo info;
  info.snapshot_id = snapshot->id;
  // An update batch advances only the shards it touches, so the shards'
  // dataset versions drift apart: there is no single dataset version, as
  // for the stitched sharded FusionRun.
  info.dataset_version = 0;
  info.num_triples = snapshot->num_triples;
  info.num_sources = snapshot->num_sources;
  info.num_shards = num_shards_;
  return info;
}

}  // namespace net
}  // namespace fuser
