// ScoringBackend: the one interface FusionServer serves.
//
// The server does not care whether queries are answered by a single
// FusionService or routed across a ShardedFusionService: both adapters
// below implement the same three calls, and both share one pinned-read
// implementation (PinnedReadBackend) that differs only in Info. A wire
// point read (kScore) is a ScoreBatch of one triple. Each call pins exactly
// one published snapshot (RCU-style, like the services themselves) and
// reports its id, so a response can always be traced to the precise state
// that produced it even while a streaming writer keeps publishing.
// Implementations are const and thread-safe: every server worker thread
// calls them concurrently.
#ifndef FUSER_NET_SCORING_BACKEND_H_
#define FUSER_NET_SCORING_BACKEND_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "serving/fusion_service.h"
#include "shard/sharded_service.h"

namespace fuser {
namespace net {

/// A scored value (or batch) plus the id of the snapshot it came from.
struct BackendScore {
  uint64_t snapshot_id = 0;
  double score = 0.0;
};

struct BackendBatch {
  uint64_t snapshot_id = 0;
  std::vector<double> scores;
};

/// What the kStats request reports about the serving state.
struct BackendInfo {
  uint64_t snapshot_id = 0;
  uint64_t dataset_version = 0;  // 0 when sharded: no single version
  size_t num_triples = 0;
  size_t num_sources = 0;
  size_t num_shards = 0;  // 0 = unsharded
};

class ScoringBackend {
 public:
  virtual ~ScoringBackend() = default;

  virtual StatusOr<BackendBatch> ScoreBatch(
      const MethodSpec& spec, const std::vector<TripleId>& triples) const = 0;
  virtual StatusOr<BackendScore> ScoreObservation(
      const MethodSpec& spec, const AdHocObservation& observation) const = 0;
  virtual StatusOr<BackendInfo> Info() const = 0;
};

/// The reads of both adapters: acquire the service's latest servable
/// snapshot, answer entirely from it through the service's static query,
/// and tag the answer with the snapshot's id. `Service` is FusionService
/// or ShardedFusionService.
template <typename Service>
class PinnedReadBackend : public ScoringBackend {
 public:
  /// `service` must outlive the backend.
  explicit PinnedReadBackend(const Service* service) : service_(service) {}

  StatusOr<BackendBatch> ScoreBatch(
      const MethodSpec& spec,
      const std::vector<TripleId>& triples) const override {
    return Pinned<BackendBatch>([&](const auto& snapshot) {
      return Service::ScoreBatch(snapshot, spec, triples);
    });
  }
  StatusOr<BackendScore> ScoreObservation(
      const MethodSpec& spec,
      const AdHocObservation& observation) const override {
    return Pinned<BackendScore>([&](const auto& snapshot) {
      return Service::ScoreObservation(snapshot, spec, observation);
    });
  }

 protected:
  const Service* service_;

 private:
  template <typename Reply, typename Read>
  StatusOr<Reply> Pinned(Read read) const {
    FUSER_ASSIGN_OR_RETURN(auto snapshot, service_->Acquire());
    FUSER_ASSIGN_OR_RETURN(auto value, read(*snapshot));
    return Reply{snapshot->id, std::move(value)};
  }
};

/// Adapter over a FusionService (one engine).
class ServiceBackend : public PinnedReadBackend<FusionService> {
 public:
  using PinnedReadBackend::PinnedReadBackend;

  StatusOr<BackendInfo> Info() const override;
};

/// Adapter over a ShardedFusionService: same contract, one pinned
/// ShardedSnapshot per call (its id is the router's publication counter).
class ShardedServiceBackend : public PinnedReadBackend<ShardedFusionService> {
 public:
  /// `service` must outlive the backend; `num_shards` is reported by Info.
  ShardedServiceBackend(const ShardedFusionService* service,
                        size_t num_shards)
      : PinnedReadBackend(service), num_shards_(num_shards) {}

  StatusOr<BackendInfo> Info() const override;

 private:
  size_t num_shards_;
};

}  // namespace net
}  // namespace fuser

#endif  // FUSER_NET_SCORING_BACKEND_H_
