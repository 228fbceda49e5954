// ShardedCorpus: a corpus partitioned by domain hash into K independent
// Datasets, plus the global bookkeeping that makes the partition look like
// one dataset from the outside.
//
// The router (shard/sharded_engine.h) works in *global* triple ids — dense,
// assigned in first-mention order exactly as an unsharded Dataset would
// assign them. The corpus maintains:
//
//   * a global triple index (encoded triple text -> global id), keyed by
//     arena-interned strings so 10-100M keys cost one bump allocation each
//     instead of a std::string node;
//   * the global -> (shard, local id) map, stored in fixed-size chunks so a
//     published read-side ShardMap is a cheap copy of chunk pointers, not
//     an O(M) array copy (see ShardMap below for the concurrency story);
//   * the global source table: every source is registered in every shard,
//     in the same order, so shard-local SourceIds equal global ones and
//     per-shard quality/correlation statistics merge by plain index.
//
// Streaming follows a route/commit split: RouteBatch (const) partitions an
// ObservationBatch into per-shard batches and predicts the ids every new
// triple will get; after the shards applied their slices, CommitRoute
// extends the index and the map and validates the predictions against the
// per-shard deltas.
#ifndef FUSER_SHARD_SHARDED_DATASET_H_
#define FUSER_SHARD_SHARDED_DATASET_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "model/dataset.h"
#include "shard/partition.h"

namespace fuser {

/// Where a global triple lives: which shard, and its id there.
struct ShardLocation {
  uint32_t shard = 0;
  TripleId local = kInvalidTriple;
};

/// Immutable read-side view of the global -> (shard, local) map, pinned by
/// a ShardedSnapshot. Entries are stored in fixed 8192-entry chunks shared
/// with the writer: a chunk slot is written exactly once (when its global
/// id is assigned, before any snapshot covering it is published) and never
/// rewritten, so readers of a published map and the writer appending later
/// entries touch disjoint memory. Publication happens through the router's
/// snapshot mutex, which orders the slot writes before any reader's access.
class ShardMap {
 public:
  static constexpr size_t kChunkBits = 13;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;

  ShardLocation Get(size_t global) const;
  size_t size() const { return size_; }

 private:
  friend class ShardMapBuilder;
  struct Chunk {
    ShardLocation entries[kChunkSize];
  };

  std::vector<std::shared_ptr<const Chunk>> chunks_;
  size_t size_ = 0;
};

/// Writer-side append-only builder of the global -> (shard, local) map.
/// Snapshot() shares the chunk storage with the returned immutable view
/// (no entry copy); the writer keeps appending into the last chunk's
/// unpublished tail slots afterwards.
class ShardMapBuilder {
 public:
  void Append(ShardLocation location);
  ShardLocation Get(size_t global) const;
  size_t size() const { return size_; }
  std::shared_ptr<const ShardMap> Snapshot() const;

 private:
  std::vector<std::shared_ptr<ShardMap::Chunk>> chunks_;
  size_t size_ = 0;
};

/// RouteBatch's output: the batch split per shard, plus everything
/// CommitRoute needs to extend the global bookkeeping once the shards have
/// applied their slices.
struct RoutedBatch {
  struct NewTriple {
    std::string key;   // encoded triple text (see EncodeTripleKey)
    uint32_t shard = 0;
  };

  /// One (possibly empty) slice per shard.
  std::vector<ObservationBatch> per_shard;
  /// Shards whose slice is non-empty. New sources dirty every shard: each
  /// must register the names to keep SourceIds globally aligned.
  std::vector<bool> dirty;
  /// Source names the batch introduces, in global first-mention order
  /// (broadcast to every shard via ObservationBatch::register_sources).
  std::vector<std::string> new_sources;
  /// Triples the batch introduces, in batch scan order — which is global
  /// id order: new_triples[i] becomes global id (num_triples() + i).
  std::vector<NewTriple> new_triples;
  /// Predicted |delta.new_triples| per shard, validated by CommitRoute.
  std::vector<size_t> shard_new_counts;
};

/// Encodes a triple as a single index key (fields joined by 0x1f, which
/// cannot appear in a field without also changing the triple's text).
void EncodeTripleKey(const TripleView& triple, std::string* key);

class ShardedCorpus {
 public:
  /// Empty corpus (no shards); only useful as a StatusOr value slot or a
  /// move-assignment target.
  ShardedCorpus() = default;

  /// `options` must be valid (ValidateShardingOptions).
  explicit ShardedCorpus(const ShardingOptions& options);

  ShardedCorpus(const ShardedCorpus&) = delete;
  ShardedCorpus& operator=(const ShardedCorpus&) = delete;
  ShardedCorpus(ShardedCorpus&&) = default;
  ShardedCorpus& operator=(ShardedCorpus&&) = default;

  /// Partitions a finalized dataset: replays sources in id order and
  /// triples/labels/observations in global id order, so the corpus's
  /// global ids equal `full`'s TripleIds.
  static StatusOr<ShardedCorpus> Partition(const Dataset& full,
                                           const ShardingOptions& options);

  /// Reassembles a corpus from already-built shard datasets plus their
  /// local -> global id maps (warm start from a snapshot's router
  /// section). Validates that the maps form a bijection onto [0, total)
  /// and that every shard's source table matches shard 0's.
  static StatusOr<ShardedCorpus> FromShards(
      std::vector<std::unique_ptr<Dataset>> shards,
      const std::vector<std::vector<TripleId>>& local_to_global,
      const ShardingOptions& options);

  // ---- Construction (before Finalize), mirroring Dataset ----

  SourceId AddSource(std::string_view name);
  TripleId AddTriple(const TripleView& triple, std::string_view domain = {});
  void Provide(SourceId source, TripleId global);
  void SetLabel(TripleId global, bool is_true);
  Status Finalize();

  // ---- Topology ----

  size_t num_shards() const { return shards_.size(); }
  size_t num_triples() const { return map_.size(); }
  size_t num_sources() const { return source_index_.size(); }
  const ShardingOptions& options() const { return options_; }
  Dataset* mutable_shard(size_t k) { return shards_[k].get(); }
  const Dataset& shard(size_t k) const { return *shards_[k]; }

  ShardLocation Locate(TripleId global) const { return map_.Get(global); }

  /// Global id of shard k's triple `local` (inverse of Locate).
  TripleId GlobalOf(size_t k, TripleId local) const {
    return local_to_global_[k][local];
  }

  /// Global id of `triple`, or kInvalidTriple.
  TripleId Find(const TripleView& triple) const;

  /// Immutable map view for a published snapshot.
  std::shared_ptr<const ShardMap> SnapshotMap() const {
    return map_.Snapshot();
  }

  /// Per-shard local -> global id arrays (persisted in the router section).
  const std::vector<std::vector<TripleId>>& LocalToGlobal() const {
    return local_to_global_;
  }

  // ---- Streaming (route/commit around per-shard ApplyBatch) ----

  /// Splits `batch` into per-shard slices without mutating the corpus.
  /// Labels of globally unknown triples are dropped (ApplyBatch would skip
  /// them); labels of triples the batch itself introduces follow the
  /// triple to its shard.
  StatusOr<RoutedBatch> RouteBatch(const ObservationBatch& batch) const;

  /// Extends the global index, the shard map, and the source table for a
  /// routed batch the shards have applied. `deltas[k]` is shard k's
  /// ApplyBatch delta (null for clean shards); the predicted new-triple
  /// counts must match exactly or the corpus state is declared corrupt.
  Status CommitRoute(const RoutedBatch& routed,
                     const std::vector<const DatasetDelta*>& deltas);

 private:
  TripleId InternGlobal(std::string_view key, uint32_t shard, TripleId local);

  ShardingOptions options_;
  std::vector<std::unique_ptr<Dataset>> shards_;
  StringArena arena_;
  /// Encoded triple key (arena-backed) -> global id.
  std::unordered_map<std::string_view, TripleId> index_;
  ShardMapBuilder map_;
  /// Inverse of map_: local_to_global_[k][local] = global id.
  std::vector<std::vector<TripleId>> local_to_global_;
  std::unordered_map<std::string, SourceId> source_index_;
};

}  // namespace fuser

#endif  // FUSER_SHARD_SHARDED_DATASET_H_
