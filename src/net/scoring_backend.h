// ScoringBackend: the one interface FusionServer serves.
//
// The server does not care whether queries are answered by a single
// FusionService or fan out across a ShardedFusionService — both adapters
// below implement the same four calls the wire protocol exposes. Each call
// pins exactly one published snapshot (RCU-style, like the services
// themselves) and reports its id, so a response can always be traced to
// the precise state that produced it even while a streaming writer keeps
// publishing. Implementations are const and thread-safe: every server
// worker thread calls them concurrently.
#ifndef FUSER_NET_SCORING_BACKEND_H_
#define FUSER_NET_SCORING_BACKEND_H_

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

  virtual StatusOr<BackendScore> Score(const MethodSpec& spec,
                                       TripleId t) const = 0;
  virtual StatusOr<BackendBatch> ScoreBatch(
      const MethodSpec& spec, const std::vector<TripleId>& triples) const = 0;
  virtual StatusOr<BackendScore> ScoreObservation(
      const MethodSpec& spec, const AdHocObservation& observation) const = 0;
  virtual StatusOr<BackendInfo> Info() const = 0;
};

/// Adapter over a FusionService (one engine). Each call acquires the
/// latest servable snapshot and answers entirely from it.
class ServiceBackend : public ScoringBackend {
 public:
  /// `service` must outlive the backend.
  explicit ServiceBackend(const FusionService* service) : service_(service) {}

  StatusOr<BackendScore> Score(const MethodSpec& spec,
                               TripleId t) const override;
  StatusOr<BackendBatch> ScoreBatch(
      const MethodSpec& spec,
      const std::vector<TripleId>& triples) const override;
  StatusOr<BackendScore> ScoreObservation(
      const MethodSpec& spec,
      const AdHocObservation& observation) const override;
  StatusOr<BackendInfo> Info() const override;

 private:
  const FusionService* service_;
};

/// Adapter over a ShardedFusionService: same contract, one pinned
/// ShardedSnapshot per call (its id is the router's publication counter).
class ShardedServiceBackend : public ScoringBackend {
 public:
  /// `service` must outlive the backend; `num_shards` is reported by Info.
  ShardedServiceBackend(const ShardedFusionService* service,
                        size_t num_shards)
      : service_(service), num_shards_(num_shards) {}

  StatusOr<BackendScore> Score(const MethodSpec& spec,
                               TripleId t) const override;
  StatusOr<BackendBatch> ScoreBatch(
      const MethodSpec& spec,
      const std::vector<TripleId>& triples) const override;
  StatusOr<BackendScore> ScoreObservation(
      const MethodSpec& spec,
      const AdHocObservation& observation) const override;
  StatusOr<BackendInfo> Info() const override;

 private:
  const ShardedFusionService* service_;
  size_t num_shards_;
};

}  // namespace net
}  // namespace fuser

#endif  // FUSER_NET_SCORING_BACKEND_H_
