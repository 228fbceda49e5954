// Partition plan for the sharded engine: which shard owns which domain.
//
// The paper's inference never crosses domain boundaries — scopes, pattern
// grouping, and joint statistics all condition within a domain — so
// assigning every triple of a domain to one shard preserves the scope
// relation exactly per shard, and shard-local sufficient statistics sum to
// the global ones. The assignment is a seeded hash of the domain *name*,
// so it is stable across processes, corpus orderings, and restarts (a
// sharded snapshot's router section records the seed and shard count).
#ifndef FUSER_SHARD_PARTITION_H_
#define FUSER_SHARD_PARTITION_H_

#include <cstdint>
#include <string_view>

#include "common/status.h"

namespace fuser {

struct ShardingOptions {
  /// Number of engine shards K. 1 reproduces the unsharded engine behind
  /// the router interface.
  uint32_t num_shards = 1;
  /// Seed of the domain-name hash; changing it re-partitions the corpus.
  uint64_t hash_seed = 0x5368617264466E76ULL;  // "ShardFnv"
};

Status ValidateShardingOptions(const ShardingOptions& options);

/// Shard owning `domain` (byte-wise FNV-1a over the name, seeded).
uint32_t ShardOfDomain(std::string_view domain,
                       const ShardingOptions& options);

}  // namespace fuser

#endif  // FUSER_SHARD_PARTITION_H_
