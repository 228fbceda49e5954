#include "shard/partition.h"

namespace fuser {

Status ValidateShardingOptions(const ShardingOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.num_shards > 1024) {
    return Status::InvalidArgument("num_shards must be <= 1024");
  }
  return Status::OK();
}

uint32_t ShardOfDomain(std::string_view domain,
                       const ShardingOptions& options) {
  // Byte-wise FNV-1a (not the chunked HashBytes64): the per-domain cost is
  // negligible and the simple form keeps the partition trivially
  // re-implementable by external tooling reading a snapshot's router
  // section.
  uint64_t h = options.hash_seed;
  for (char c : domain) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return static_cast<uint32_t>(h % options.num_shards);
}

}  // namespace fuser
