// Snapshot persistence: the offline/online split made durable.
//
// A FusionEngine spends its expensive offline phase (quality estimation,
// correlation model, pattern grouping, per-method serving state) turning a
// dataset into a servable FusionSnapshot. SaveSnapshot writes that whole
// warm-start state — dataset included — to one compact binary file;
// LoadSnapshot re-materializes it; FusionEngine::WarmStart adopts it and
// publishes a servable snapshot without running any of the training
// pipeline. The contract (asserted by tests/persist_test.cc and
// bench/bench_persist.cc):
//
//   * Round-trip byte identity: a loaded snapshot's FusionService
//     Score/ScoreBatch/ScoreObservation answers and the warm engine's
//     Run/RunAll outputs equal the originating engine's exactly, for every
//     registered method.
//   * Streaming continuity: WarmStart followed by Update(batch) equals a
//     fresh Prepare followed by the same Update — the loaded state plugs
//     into the existing clone-on-write incremental paths unchanged.
//   * Robustness: a truncated, bit-flipped, or version-skewed file fails
//     with InvalidArgument; it never crashes and never loads silently
//     wrong state (every section is independently checksummed).
//
// On-disk layout (all integers little-endian, doubles raw IEEE-754 bits):
//
//   magic "FUSRSNAP" | u32 format_version | u32 section_count
//   section table: section_count x { u32 id, u32 part,
//                                    u64 offset, u64 size, u64 checksum }
//   u64 header_checksum            (FNV-1a 64 over everything above)
//   section payloads...            (each covered by its table checksum)
//
// A file holds K >= 1 parts (FusionEngine saves one, ShardedFusionEngine
// one per shard); `part` says which part a section belongs to. A part's
// sections: ENGINE (options, train mask, quality, dataset fingerprint),
// DATASET (sources, triples, labels, domains, output bitsets), MODEL
// (clustering + per-cluster empirical pattern counts), GROUPING (distinct
// patterns + per-triple pattern ids), SERVING (per-method posterior
// tables / dense score vectors). An optional file-wide ROUTER section
// holds an opaque payload (shard/sharded_persist.h). The DATASET sections
// come last, after every part's small sections. Readers skip unknown
// section ids, so new sections are additive; any change that would make
// an old reader load wrong state bumps kSnapshotFormatVersion instead.
#ifndef FUSER_PERSIST_SNAPSHOT_IO_H_
#define FUSER_PERSIST_SNAPSHOT_IO_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitset.h"
#include "common/status.h"
#include "core/snapshot.h"
#include "model/dataset.h"

namespace fuser {

/// Bumped on any incompatible layout change; LoadSnapshot refuses files
/// from other versions (InvalidArgument, never a misparse).
/// Version 2: the DATASET section became a columnar aligned-span image
/// (arena bytes + raw ref/CSR/bitset arrays) that loads with bulk copies
/// or attaches zero-copy via mmap.
/// Version 3: the section table's reserved field became the part index,
/// and a file may hold several parts plus a ROUTER section (one file per
/// sharded save instead of K shard files and a manifest).
inline constexpr uint32_t kSnapshotFormatVersion = 3;

/// How LoadSnapshot materializes the (large) DATASET section.
enum class AttachMode {
  /// Bulk-copy every column into owned memory; the full section checksum
  /// and the dataset content fingerprint are verified. The default.
  kCopy,
  /// Zero-copy: mmap the file and bind the dataset's columns to the
  /// mapping (copy-on-write — the first ApplyBatch promotes whatever it
  /// touches to owned memory). Only the section's meta checksum (sizes +
  /// name refs) is verified, skipping all O(num_triples) work: this is
  /// the trusted fast path whose time-to-servable stays in milliseconds
  /// at tens of millions of triples. The snapshot file must outlive the
  /// returned dataset (a private mapping pins the inode, so replacing
  /// the path via SaveSnapshot's atomic rename is safe; truncating or
  /// rewriting the file in place is not).
  kMmap,
  /// Like kMmap, but additionally verifies the full section checksum and
  /// the content fingerprint over the mapped bytes — attach semantics
  /// with kCopy-grade corruption detection.
  kMmapVerify,
};

struct LoadOptions {
  AttachMode attach = AttachMode::kCopy;
};

/// Everything LoadSnapshot re-materializes from a file. `snapshot` is a
/// fully servable FusionSnapshot (model/grouping/serving attached) whose
/// internal pointers refer to `dataset`; keep both alive together. Hand it
/// to FusionEngine::WarmStart on an engine constructed over
/// `dataset.get()` to resume serving and streaming.
struct LoadedSnapshot {
  /// Null when loaded via LoadSnapshotFor (the caller's dataset is used).
  std::unique_ptr<Dataset> dataset;
  /// The originating engine's effective training mask (what its scores
  /// were estimated from); becomes the warm engine's train_mask().
  DynamicBitset train_mask;
  std::shared_ptr<const FusionSnapshot> snapshot;
};

/// One part of a snapshot file: a finalized dataset, the training mask
/// its state was estimated from, and a snapshot of that dataset at its
/// current version.
struct SnapshotPart {
  const Dataset* dataset = nullptr;
  const DynamicBitset* train_mask = nullptr;
  const FusionSnapshot* snapshot = nullptr;
};

/// Writes `parts` as parts 0..K-1, plus a ROUTER section holding
/// `router_payload` when it is non-empty. Each snapshot must belong to its
/// dataset at the dataset's current version (save right after Prepare/
/// Update/PublishSnapshot). Only empirical correlation models can be
/// persisted; explicit statistics return Unimplemented. The file is one
/// persist::WriteFileDurably call, whose rename is the only commit point:
/// a crash leaves the old file or the whole new one, and a failed save
/// leaves no file behind.
Status SaveSnapshotParts(const std::string& path,
                         const std::vector<SnapshotPart>& parts,
                         std::string_view router_payload);

/// The single-part case: one dataset, no router section.
Status SaveSnapshot(const std::string& path, const Dataset& dataset,
                    const DynamicBitset& train_mask,
                    const FusionSnapshot& snapshot);

/// Reads a single-part snapshot file, re-materializing the dataset and
/// every saved component. All sections are parsed and checksum-verified.
/// Honors the FUSER_FORCE_MMAP_ATTACH=1 environment variable by loading as
/// if `options.attach == AttachMode::kMmapVerify` (CI uses this to run the
/// whole suite over attached datasets). A file with several parts or a
/// ROUTER section (a ShardedFusionEngine save) is InvalidArgument.
StatusOr<LoadedSnapshot> LoadSnapshot(const std::string& path);

/// Reads a single-part snapshot file with an explicit dataset attach mode.
StatusOr<LoadedSnapshot> LoadSnapshot(const std::string& path,
                                      const LoadOptions& options);

/// Attach-mode load for warm-starting over a dataset the process already
/// holds (FusionEngine::WarmStart(path) uses this): the DATASET section is
/// not re-materialized; instead the file's dataset fingerprint
/// (num_triples / num_sources / version) is verified against `dataset`,
/// and the loaded grouping/serving state is attached to it. A mismatch —
/// e.g. the dataset absorbed an Update after the snapshot was saved —
/// fails with InvalidArgument, as does a sharded file.
StatusOr<LoadedSnapshot> LoadSnapshotFor(const std::string& path,
                                         const Dataset& dataset);

/// Reads every part of a file saved with a ROUTER section (a
/// ShardedFusionEngine save) and stores that section in `*router_payload`.
/// Each part reads only its own sections' byte ranges. Honors
/// FUSER_FORCE_MMAP_ATTACH like LoadSnapshot(path). A file without a
/// ROUTER section is InvalidArgument.
StatusOr<std::vector<LoadedSnapshot>> LoadSnapshotParts(
    const std::string& path, std::string* router_payload);

}  // namespace fuser

#endif  // FUSER_PERSIST_SNAPSHOT_IO_H_
