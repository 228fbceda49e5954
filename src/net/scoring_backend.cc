#include "net/scoring_backend.h"

namespace fuser {
namespace net {

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
