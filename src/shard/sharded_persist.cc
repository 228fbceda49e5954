#include "shard/sharded_persist.h"

#include "persist/binary_io.h"

namespace fuser {

std::string EncodeShardRouter(const ShardedCorpus& corpus) {
  persist::ByteSink sink;
  sink.WriteU32(corpus.options().num_shards);
  sink.WriteU64(corpus.options().hash_seed);
  sink.WriteU64(corpus.num_triples());
  sink.WriteU64(corpus.num_sources());
  for (const std::vector<TripleId>& map : corpus.LocalToGlobal()) {
    sink.WriteU64(map.size());
    for (TripleId global : map) sink.WriteU32(global);
  }
  return sink.data();
}

StatusOr<ShardRouterState> DecodeShardRouter(std::string_view payload) {
  persist::ByteSource source(payload.data(), payload.size());
  ShardRouterState router;
  FUSER_RETURN_IF_ERROR(source.ReadU32(&router.sharding.num_shards));
  FUSER_RETURN_IF_ERROR(ValidateShardingOptions(router.sharding));
  FUSER_RETURN_IF_ERROR(source.ReadU64(&router.sharding.hash_seed));
  FUSER_RETURN_IF_ERROR(source.ReadU64(&router.num_triples));
  FUSER_RETURN_IF_ERROR(source.ReadU64(&router.num_sources));
  router.local_to_global.resize(router.sharding.num_shards);
  uint64_t total = 0;
  for (std::vector<TripleId>& map : router.local_to_global) {
    size_t count = 0;
    FUSER_RETURN_IF_ERROR(source.ReadCount(sizeof(uint32_t), &count));
    map.resize(count);
    FUSER_RETURN_IF_ERROR(source.ReadU32Array(map.data(), count));
    total += count;
  }
  if (!source.exhausted()) {
    return Status::InvalidArgument("shard router section has trailing bytes");
  }
  if (total != router.num_triples) {
    return Status::InvalidArgument(
        "shard router triple counts are inconsistent");
  }
  return router;
}

std::string ShardSnapshotPath(const std::string& path, size_t shard) {
  return path + ".shard" + std::to_string(shard);
}

}  // namespace fuser
