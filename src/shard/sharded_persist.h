// The router's share of a sharded snapshot.
//
// ShardedFusionEngine::SaveSnapshot writes one snapshot file
// (persist/snapshot_io.h) whose part k is shard k's state. The ROUTER
// section holds what the parts cannot: the partition plan (loading under
// another plan would misroute reads), the global totals, and the
// per-shard local -> global triple id maps. The container checks magic,
// version, checksums and truncation, so the payload is plain fields:
//
//   u32 num_shards | u64 hash_seed | u64 num_triples | u64 num_sources
//   per shard: u64 count | count x u32 global ids (local id order)
#ifndef FUSER_SHARD_SHARDED_PERSIST_H_
#define FUSER_SHARD_SHARDED_PERSIST_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "model/triple.h"
#include "shard/partition.h"
#include "shard/sharded_dataset.h"

namespace fuser {

struct ShardRouterState {
  ShardingOptions sharding;
  uint64_t num_triples = 0;
  uint64_t num_sources = 0;
  /// local_to_global[k][local] = global id of shard k's triple `local`.
  std::vector<std::vector<TripleId>> local_to_global;
};

/// The ROUTER section payload for `corpus`.
std::string EncodeShardRouter(const ShardedCorpus& corpus);

/// Decodes and validates a ROUTER section payload.
StatusOr<ShardRouterState> DecodeShardRouter(std::string_view payload);

/// `<path>.shard<k>`: where format-2 sharded saves put shard k's file.
/// Since format 3 no library code writes these names (a sharded save is
/// the one file at `path`); the name stays for callers that still stat or
/// clean up after older saves.
std::string ShardSnapshotPath(const std::string& path, size_t shard);

}  // namespace fuser

#endif  // FUSER_SHARD_SHARDED_PERSIST_H_
