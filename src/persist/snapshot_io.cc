#include "persist/snapshot_io.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string_view>
#include <utility>

#include "common/mmap_file.h"
#include "core/fusion_method.h"
#include "core/joint_stats.h"
#include "core/pattern_pipeline.h"
#include "persist/binary_io.h"

namespace fuser {
namespace {

using persist::ByteSink;
using persist::ByteSource;
using persist::Checksum64;

constexpr char kMagic[8] = {'F', 'U', 'S', 'R', 'S', 'N', 'A', 'P'};
constexpr size_t kHeaderFixedBytes = 16;   // magic + version + section count
constexpr size_t kSectionEntryBytes = 32;  // id + part + off + size + sum
constexpr uint32_t kMaxSections = 8192;  // 5 per part at 1024 shards + 1

// Section ids. New sections are additive (old readers skip unknown ids);
// changing the layout *inside* a section bumps kSnapshotFormatVersion.
constexpr uint32_t kSectionEngine = 1;
constexpr uint32_t kSectionDataset = 2;
constexpr uint32_t kSectionModel = 3;
constexpr uint32_t kSectionGrouping = 4;
constexpr uint32_t kSectionServing = 5;
constexpr uint32_t kSectionRouter = 6;  // file-wide, stored as part 0

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("corrupt snapshot: " + what);
}

/// Every section must be consumed exactly; trailing bytes mean the writer
/// and reader disagree about the layout.
Status ExpectExhausted(const ByteSource& src, const char* section) {
  if (!src.exhausted()) {
    return Corrupt(std::string("trailing bytes in ") + section + " section");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Shared field groups.
// ---------------------------------------------------------------------------

void EncodeQualityVector(const std::vector<SourceQuality>& quality,
                         ByteSink* sink) {
  sink->WriteU64(quality.size());
  for (const SourceQuality& q : quality) {
    sink->WriteDouble(q.precision);
    sink->WriteDouble(q.recall);
    sink->WriteDouble(q.fpr);
    sink->WriteU64(q.provided_labeled);
    sink->WriteU64(q.provided_true);
    sink->WriteU64(q.scope_true);
  }
}

Status DecodeQualityVector(ByteSource* src,
                           std::vector<SourceQuality>* quality) {
  size_t count = 0;
  FUSER_RETURN_IF_ERROR(src->ReadCount(6 * 8, &count));
  quality->resize(count);
  for (SourceQuality& q : *quality) {
    FUSER_RETURN_IF_ERROR(src->ReadDouble(&q.precision));
    FUSER_RETURN_IF_ERROR(src->ReadDouble(&q.recall));
    FUSER_RETURN_IF_ERROR(src->ReadDouble(&q.fpr));
    uint64_t provided_labeled = 0, provided_true = 0, scope_true = 0;
    FUSER_RETURN_IF_ERROR(src->ReadU64(&provided_labeled));
    FUSER_RETURN_IF_ERROR(src->ReadU64(&provided_true));
    FUSER_RETURN_IF_ERROR(src->ReadU64(&scope_true));
    q.provided_labeled = static_cast<size_t>(provided_labeled);
    q.provided_true = static_cast<size_t>(provided_true);
    q.scope_true = static_cast<size_t>(scope_true);
  }
  return Status::OK();
}

void EncodeEngineOptions(const EngineOptions& o, ByteSink* sink) {
  sink->WriteDouble(o.model.alpha);
  sink->WriteDouble(o.model.smoothing);
  sink->WriteBool(o.model.use_scopes);
  sink->WriteBool(o.model.enable_clustering);
  sink->WriteDouble(o.model.clustering.correlation_threshold);
  sink->WriteU64(o.model.clustering.min_support);
  sink->WriteU64(o.model.clustering.max_cluster_size);
  sink->WriteI32(o.model.sos_table_max_bits);
  sink->WriteDouble(o.decision_threshold);
  sink->WriteU64(o.num_threads);
  sink->WriteI32(o.three_estimates.iterations);
  sink->WriteDouble(o.three_estimates.initial_error);
  sink->WriteDouble(o.three_estimates.initial_difficulty);
  sink->WriteBool(o.three_estimates.normalize);
  sink->WriteBool(o.three_estimates.use_scopes);
  sink->WriteI32(o.cosine.iterations);
  sink->WriteDouble(o.cosine.initial_trust);
  sink->WriteDouble(o.cosine.damping);
  sink->WriteBool(o.cosine.use_scopes);
  sink->WriteDouble(o.ltm.alpha01);
  sink->WriteDouble(o.ltm.alpha00);
  sink->WriteDouble(o.ltm.alpha11);
  sink->WriteDouble(o.ltm.alpha10);
  sink->WriteDouble(o.ltm.beta);
  sink->WriteI32(o.ltm.burn_in);
  sink->WriteI32(o.ltm.samples);
  sink->WriteI32(o.ltm.thin);
  sink->WriteU64(o.ltm.seed);
  sink->WriteBool(o.ltm.use_scopes);
  sink->WriteI32(o.corr.max_exact_nonproviders);
  sink->WriteBool(o.corr.force_term_summation);
  sink->WriteBool(o.corr.calibrated_likelihood);
  sink->WriteU64(o.corr.num_threads);
}

Status DecodeEngineOptions(ByteSource* src, EngineOptions* o) {
  uint64_t u64 = 0;
  FUSER_RETURN_IF_ERROR(src->ReadDouble(&o->model.alpha));
  FUSER_RETURN_IF_ERROR(src->ReadDouble(&o->model.smoothing));
  FUSER_RETURN_IF_ERROR(src->ReadBool(&o->model.use_scopes));
  FUSER_RETURN_IF_ERROR(src->ReadBool(&o->model.enable_clustering));
  FUSER_RETURN_IF_ERROR(
      src->ReadDouble(&o->model.clustering.correlation_threshold));
  FUSER_RETURN_IF_ERROR(src->ReadU64(&u64));
  o->model.clustering.min_support = static_cast<size_t>(u64);
  FUSER_RETURN_IF_ERROR(src->ReadU64(&u64));
  o->model.clustering.max_cluster_size = static_cast<size_t>(u64);
  FUSER_RETURN_IF_ERROR(src->ReadI32(&o->model.sos_table_max_bits));
  FUSER_RETURN_IF_ERROR(src->ReadDouble(&o->decision_threshold));
  FUSER_RETURN_IF_ERROR(src->ReadU64(&u64));
  o->num_threads = static_cast<size_t>(u64);
  FUSER_RETURN_IF_ERROR(src->ReadI32(&o->three_estimates.iterations));
  FUSER_RETURN_IF_ERROR(src->ReadDouble(&o->three_estimates.initial_error));
  FUSER_RETURN_IF_ERROR(
      src->ReadDouble(&o->three_estimates.initial_difficulty));
  FUSER_RETURN_IF_ERROR(src->ReadBool(&o->three_estimates.normalize));
  FUSER_RETURN_IF_ERROR(src->ReadBool(&o->three_estimates.use_scopes));
  FUSER_RETURN_IF_ERROR(src->ReadI32(&o->cosine.iterations));
  FUSER_RETURN_IF_ERROR(src->ReadDouble(&o->cosine.initial_trust));
  FUSER_RETURN_IF_ERROR(src->ReadDouble(&o->cosine.damping));
  FUSER_RETURN_IF_ERROR(src->ReadBool(&o->cosine.use_scopes));
  FUSER_RETURN_IF_ERROR(src->ReadDouble(&o->ltm.alpha01));
  FUSER_RETURN_IF_ERROR(src->ReadDouble(&o->ltm.alpha00));
  FUSER_RETURN_IF_ERROR(src->ReadDouble(&o->ltm.alpha11));
  FUSER_RETURN_IF_ERROR(src->ReadDouble(&o->ltm.alpha10));
  FUSER_RETURN_IF_ERROR(src->ReadDouble(&o->ltm.beta));
  FUSER_RETURN_IF_ERROR(src->ReadI32(&o->ltm.burn_in));
  FUSER_RETURN_IF_ERROR(src->ReadI32(&o->ltm.samples));
  FUSER_RETURN_IF_ERROR(src->ReadI32(&o->ltm.thin));
  FUSER_RETURN_IF_ERROR(src->ReadU64(&o->ltm.seed));
  FUSER_RETURN_IF_ERROR(src->ReadBool(&o->ltm.use_scopes));
  FUSER_RETURN_IF_ERROR(src->ReadI32(&o->corr.max_exact_nonproviders));
  FUSER_RETURN_IF_ERROR(src->ReadBool(&o->corr.force_term_summation));
  FUSER_RETURN_IF_ERROR(src->ReadBool(&o->corr.calibrated_likelihood));
  FUSER_RETURN_IF_ERROR(src->ReadU64(&u64));
  o->corr.num_threads = static_cast<size_t>(u64);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ENGINE section: the snapshot's scalar state plus the training mask.
// ---------------------------------------------------------------------------

struct EngineSection {
  uint64_t dataset_version = 0;
  uint64_t dataset_fingerprint = 0;
  uint64_t num_triples = 0;
  uint64_t num_sources = 0;
  uint64_t num_domains = 0;
  EngineOptions options;
  DynamicBitset train_mask;
  std::vector<SourceQuality> quality;
};

std::string EncodeEngineSection(const Dataset& dataset,
                                const DynamicBitset& train_mask,
                                const FusionSnapshot& snapshot) {
  ByteSink sink;
  sink.WriteU64(snapshot.dataset_version);
  sink.WriteU64(dataset.ContentFingerprint());
  sink.WriteU64(snapshot.num_triples);
  sink.WriteU64(snapshot.num_sources);
  sink.WriteU64(dataset.num_domains());
  EncodeEngineOptions(snapshot.options, &sink);
  sink.WriteBitset(train_mask);
  EncodeQualityVector(snapshot.quality, &sink);
  return sink.data();
}

Status DecodeEngineSection(ByteSource src, EngineSection* out) {
  FUSER_RETURN_IF_ERROR(src.ReadU64(&out->dataset_version));
  FUSER_RETURN_IF_ERROR(src.ReadU64(&out->dataset_fingerprint));
  FUSER_RETURN_IF_ERROR(src.ReadU64(&out->num_triples));
  FUSER_RETURN_IF_ERROR(src.ReadU64(&out->num_sources));
  FUSER_RETURN_IF_ERROR(src.ReadU64(&out->num_domains));
  FUSER_RETURN_IF_ERROR(DecodeEngineOptions(&src, &out->options));
  FUSER_RETURN_IF_ERROR(src.ReadBitset(&out->train_mask));
  FUSER_RETURN_IF_ERROR(DecodeQualityVector(&src, &out->quality));
  FUSER_RETURN_IF_ERROR(ExpectExhausted(src, "engine"));
  if (out->train_mask.size() != out->num_triples) {
    return Corrupt("train mask size disagrees with triple count");
  }
  if (out->quality.size() != out->num_sources) {
    return Corrupt("quality vector size disagrees with source count");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DATASET section (since format v2): a columnar aligned-span image.
//
// Payload layout, in file order ("64-aligned" = the field's *file offset*
// is a multiple of 64, which makes it 64-aligned in an mmap and 8-aligned
// in any heap buffer):
//
//   pad0: zeros up to the first 64-aligned offset
//   u64 scalars[9]: dataset version, num_sources, num_domains,
//                   num_triples, arena_image_bytes, arena_chunk_bytes,
//                   provider/domain_source/domain_triple pool lengths
//   u64 source_name_refs[S] | u64 domain_name_refs[D]
//   u64 meta_checksum            (FNV-1a over the payload so far)
//   pad1: zeros up to the next 64-aligned offset
//   arena image                  (arena_image_bytes, multiple of chunk)
//   u64 arrays: subjects[m] predicates[m] objects[m]
//               provider_offsets[m] ds_offsets[D] dt_offsets[D]
//               output_words[S*W] covers_words[S*Wd]
//               true_words[W] labeled_words[W]       (W = ceil(m/64))
//   u32 arrays: domains[m] provider_counts[m] provider_pool
//               ds_counts[D] ds_pool dt_counts[D] dt_pool
//   u8 labels[m]
//
// Every byte (pads included) is covered by the section checksum, so the
// single-byte-flip corruption sweep still rejects every flip. The meta
// checksum covers only pad0 + scalars + refs: it is what AttachMode::kMmap
// verifies — O(S + D) instead of O(total) — before trusting the rest.
// The total payload size is fully determined by the scalars, so a
// truncated section fails the size equation before any pointer is formed.
// Multi-byte fields are stored native-endian; the attach path casts the
// image in place, which (like the rest of this format) assumes a
// little-endian host.
// ---------------------------------------------------------------------------

constexpr size_t kDsScalars = 9;
constexpr uint64_t kMaxDsField = uint64_t{1} << 46;  // 64 TiB sanity bound

size_t PadTo64(uint64_t offset) {
  return static_cast<size_t>((64 - (offset & 63)) & 63);
}

/// Byte offsets of every DATASET payload field, derived from the scalar
/// header and the section's file offset. Shared by the writer and both
/// load paths so the layout is defined exactly once.
struct DsLayout {
  uint64_t version = 0;
  size_t num_sources = 0, num_domains = 0, num_triples = 0;
  size_t arena_bytes = 0, chunk_bytes = 0;
  size_t p_pool = 0, ds_pool = 0, dt_pool = 0;
  size_t words = 0, domain_words = 0;  // W, Wd

  size_t pad0 = 0;
  size_t scalars_off = 0, source_refs_off = 0, domain_refs_off = 0;
  size_t meta_checksum_off = 0;
  size_t arena_off = 0;
  size_t subjects_off = 0, predicates_off = 0, objects_off = 0;
  size_t p_offsets_off = 0, ds_offsets_off = 0, dt_offsets_off = 0;
  size_t outputs_off = 0, covers_off = 0;
  size_t true_off = 0, labeled_off = 0;
  size_t domains_off = 0;
  size_t p_counts_off = 0, p_pool_off = 0;
  size_t ds_counts_off = 0, ds_pool_off = 0;
  size_t dt_counts_off = 0, dt_pool_off = 0;
  size_t labels_off = 0;
  size_t total = 0;
};

Status ComputeDsLayout(uint64_t section_offset,
                       const uint64_t scalars[kDsScalars], DsLayout* l) {
  l->version = scalars[0];
  const uint64_t counts[3] = {scalars[1], scalars[2], scalars[3]};
  for (uint64_t c : counts) {
    if (c >= static_cast<uint32_t>(-1)) {
      return Corrupt("dataset count exceeds 32-bit id space");
    }
  }
  l->num_sources = static_cast<size_t>(scalars[1]);
  l->num_domains = static_cast<size_t>(scalars[2]);
  l->num_triples = static_cast<size_t>(scalars[3]);
  if (scalars[4] > kMaxDsField || scalars[6] > kMaxDsField ||
      scalars[7] > kMaxDsField || scalars[8] > kMaxDsField) {
    return Corrupt("implausible dataset section field size");
  }
  l->arena_bytes = static_cast<size_t>(scalars[4]);
  l->chunk_bytes = static_cast<size_t>(scalars[5]);
  if (l->chunk_bytes < 64 || l->chunk_bytes > (size_t{1} << 30) ||
      (l->chunk_bytes & (l->chunk_bytes - 1)) != 0) {
    return Corrupt("bad arena chunk size");
  }
  if (l->arena_bytes % l->chunk_bytes != 0) {
    return Corrupt("arena image not a multiple of its chunk size");
  }
  l->p_pool = static_cast<size_t>(scalars[6]);
  l->ds_pool = static_cast<size_t>(scalars[7]);
  l->dt_pool = static_cast<size_t>(scalars[8]);
  l->words = (l->num_triples + 63) / 64;
  l->domain_words = (l->num_domains + 63) / 64;

  size_t off = PadTo64(section_offset);
  l->pad0 = off;
  Status overflow = Status::OK();
  auto place = [&](size_t* field, size_t count, size_t elem) {
    *field = off;
    const size_t bytes = count * elem;
    if (count > kMaxDsField || off > kMaxDsField) {
      overflow = Corrupt("implausible dataset section field size");
      return;
    }
    off += bytes;
  };
  size_t ignored = 0;
  place(&l->scalars_off, kDsScalars, 8);
  place(&l->source_refs_off, l->num_sources, 8);
  place(&l->domain_refs_off, l->num_domains, 8);
  place(&l->meta_checksum_off, 1, 8);
  place(&ignored, PadTo64(section_offset + off), 1);  // pad1
  place(&l->arena_off, l->arena_bytes, 1);
  place(&l->subjects_off, l->num_triples, 8);
  place(&l->predicates_off, l->num_triples, 8);
  place(&l->objects_off, l->num_triples, 8);
  place(&l->p_offsets_off, l->num_triples, 8);
  place(&l->ds_offsets_off, l->num_domains, 8);
  place(&l->dt_offsets_off, l->num_domains, 8);
  place(&l->outputs_off, l->num_sources * l->words, 8);
  place(&l->covers_off, l->num_sources * l->domain_words, 8);
  place(&l->true_off, l->words, 8);
  place(&l->labeled_off, l->words, 8);
  place(&l->domains_off, l->num_triples, 4);
  place(&l->p_counts_off, l->num_triples, 4);
  place(&l->p_pool_off, l->p_pool, 4);
  place(&l->ds_counts_off, l->num_domains, 4);
  place(&l->ds_pool_off, l->ds_pool, 4);
  place(&l->dt_counts_off, l->num_domains, 4);
  place(&l->dt_pool_off, l->dt_pool, 4);
  place(&l->labels_off, l->num_triples, 1);
  FUSER_RETURN_IF_ERROR(overflow);
  l->total = off;
  return Status::OK();
}

/// Parses a v2 DATASET payload into column pointers. Verifies the size
/// equation and the meta checksum; the caller decides how much more to
/// verify (full section checksum, structural validation, fingerprint)
/// according to the attach mode.
Status ParseDatasetColumns(const char* payload, size_t size,
                           uint64_t section_offset, DatasetColumns* cols) {
  const size_t pad0 = PadTo64(section_offset);
  if (size < pad0 + kDsScalars * 8) {
    return Corrupt("dataset section too small");
  }
  uint64_t scalars[kDsScalars];
  std::memcpy(scalars, payload + pad0, sizeof(scalars));
  DsLayout l;
  FUSER_RETURN_IF_ERROR(ComputeDsLayout(section_offset, scalars, &l));
  if (l.total != size) {
    return Corrupt("dataset section size disagrees with its header");
  }
  uint64_t stored_meta = 0;
  std::memcpy(&stored_meta, payload + l.meta_checksum_off, 8);
  if (Checksum64(payload, l.meta_checksum_off) != stored_meta) {
    return Corrupt("dataset meta checksum mismatch");
  }

  cols->version = l.version;
  cols->num_sources = l.num_sources;
  cols->num_domains = l.num_domains;
  cols->num_triples = l.num_triples;
  cols->arena_image = payload + l.arena_off;
  cols->arena_image_bytes = l.arena_bytes;
  cols->arena_chunk_bytes = l.chunk_bytes;
  auto refs = [&](size_t off) {
    return reinterpret_cast<const StringRef*>(payload + off);
  };
  auto u64s = [&](size_t off) {
    return reinterpret_cast<const uint64_t*>(payload + off);
  };
  auto u32s = [&](size_t off) {
    return reinterpret_cast<const uint32_t*>(payload + off);
  };
  cols->source_names = refs(l.source_refs_off);
  cols->domain_names = refs(l.domain_refs_off);
  cols->subjects = refs(l.subjects_off);
  cols->predicates = refs(l.predicates_off);
  cols->objects = refs(l.objects_off);
  cols->domains = u32s(l.domains_off);
  cols->labels = reinterpret_cast<const uint8_t*>(payload + l.labels_off);
  cols->output_words = u64s(l.outputs_off);
  cols->provider_offsets = u64s(l.p_offsets_off);
  cols->provider_counts = u32s(l.p_counts_off);
  cols->provider_pool = u32s(l.p_pool_off);
  cols->provider_pool_len = l.p_pool;
  cols->domain_source_offsets = u64s(l.ds_offsets_off);
  cols->domain_source_counts = u32s(l.ds_counts_off);
  cols->domain_source_pool = u32s(l.ds_pool_off);
  cols->domain_source_pool_len = l.ds_pool;
  cols->domain_triple_offsets = u64s(l.dt_offsets_off);
  cols->domain_triple_counts = u32s(l.dt_counts_off);
  cols->domain_triple_pool = u32s(l.dt_pool_off);
  cols->domain_triple_pool_len = l.dt_pool;
  cols->covers_words = u64s(l.covers_off);
  cols->true_words = u64s(l.true_off);
  cols->labeled_words = u64s(l.labeled_off);
  return Status::OK();
}

/// Structural validation of parsed columns: every ref inside the arena,
/// every id in range, every CSR row inside its pool. O(num_triples +
/// pools) — run by kCopy and kMmapVerify so that even a file with valid
/// checksums (crafted, not corrupted) fails with a Status instead of
/// tripping a bounds CHECK later.
Status ValidateDatasetColumns(const DatasetColumns& c) {
  auto ref_ok = [&](StringRef r) {
    return r.offset() + r.length() <= c.arena_image_bytes;
  };
  for (size_t s = 0; s < c.num_sources; ++s) {
    if (!ref_ok(c.source_names[s])) return Corrupt("source name ref OOB");
  }
  for (size_t d = 0; d < c.num_domains; ++d) {
    if (!ref_ok(c.domain_names[d])) return Corrupt("domain name ref OOB");
  }
  for (size_t t = 0; t < c.num_triples; ++t) {
    if (!ref_ok(c.subjects[t]) || !ref_ok(c.predicates[t]) ||
        !ref_ok(c.objects[t])) {
      return Corrupt("triple field ref OOB");
    }
    if (c.domains[t] >= c.num_domains) {
      return Corrupt("triple domain id out of range");
    }
    if (c.labels[t] > 2) return Corrupt("label out of range");
  }
  auto csr_ok = [](const uint64_t* offs, const uint32_t* cnts, size_t rows,
                   size_t pool_len, const uint32_t* pool, size_t id_bound) {
    for (size_t r = 0; r < rows; ++r) {
      if (offs[r] > pool_len || cnts[r] > pool_len - offs[r]) return false;
      for (size_t i = 0; i < cnts[r]; ++i) {
        if (pool[offs[r] + i] >= id_bound) return false;
      }
    }
    return true;
  };
  if (!csr_ok(c.provider_offsets, c.provider_counts, c.num_triples,
              c.provider_pool_len, c.provider_pool, c.num_sources)) {
    return Corrupt("provider table out of bounds");
  }
  if (!csr_ok(c.domain_source_offsets, c.domain_source_counts, c.num_domains,
              c.domain_source_pool_len, c.domain_source_pool,
              c.num_sources)) {
    return Corrupt("domain source table out of bounds");
  }
  if (!csr_ok(c.domain_triple_offsets, c.domain_triple_counts, c.num_domains,
              c.domain_triple_pool_len, c.domain_triple_pool,
              c.num_triples)) {
    return Corrupt("domain triple table out of bounds");
  }
  return Status::OK();
}

/// A CSR table's arrays in serializable (compact, row-ordered) form.
/// Zero-garbage tables are referenced in place; a table with relocation
/// garbage gets its offsets/pool rebuilt here.
struct CompactCsrView {
  std::vector<uint64_t> offsets_storage;
  std::vector<uint32_t> pool_storage;
  const uint64_t* offsets = nullptr;
  const uint32_t* counts = nullptr;
  const uint32_t* pool = nullptr;
  size_t pool_len = 0;
};

CompactCsrView MakeCompactView(const CsrTable<uint32_t>& table) {
  CompactCsrView v;
  v.counts = table.counts_data();
  if (table.garbage() == 0) {
    v.offsets = table.offsets_data();
    v.pool = table.pool_data();
    v.pool_len = table.pool_size();
    return v;
  }
  const size_t rows = table.num_rows();
  v.offsets_storage.resize(rows);
  v.pool_storage.reserve(table.live_size());
  for (size_t r = 0; r < rows; ++r) {
    v.offsets_storage[r] = v.pool_storage.size();
    const Span<uint32_t> row = table.row(r);
    v.pool_storage.insert(v.pool_storage.end(), row.begin(), row.end());
  }
  v.offsets = v.offsets_storage.data();
  v.pool = v.pool_storage.data();
  v.pool_len = v.pool_storage.size();
  return v;
}

// ---------------------------------------------------------------------------
// MODEL section.
// ---------------------------------------------------------------------------

StatusOr<std::string> EncodeModelSection(const CorrelationModel& model) {
  ByteSink sink;
  sink.WriteDouble(model.alpha);
  sink.WriteBool(model.use_scopes);
  EncodeQualityVector(model.source_quality, &sink);
  sink.WriteU64(model.clustering.clusters.size());
  for (const std::vector<SourceId>& cluster : model.clustering.clusters) {
    sink.WriteU64(cluster.size());
    for (SourceId s : cluster) sink.WriteU32(s);
  }
  for (size_t c = 0; c < model.cluster_stats.size(); ++c) {
    const auto* stats =
        dynamic_cast<const EmpiricalJointStats*>(model.cluster_stats[c].get());
    if (stats == nullptr) {
      return Status::Unimplemented(
          "only empirical correlation models can be persisted (cluster " +
          std::to_string(c) + " has caller-supplied statistics)");
    }
    const EmpiricalJointStatsState state = stats->ExportState();
    sink.WriteI32(state.k);
    sink.WriteDouble(state.options.alpha);
    sink.WriteDouble(state.options.smoothing);
    sink.WriteBool(state.options.use_scopes);
    sink.WriteI32(state.options.sos_table_max_bits);
    sink.WriteU64(state.total_true);
    sink.WriteU64(state.total_false);
    for (const auto* patterns : {&state.true_patterns, &state.false_patterns}) {
      sink.WriteU64(patterns->size());
      for (const auto& p : *patterns) {
        sink.WriteU64(p.providers);
        sink.WriteU64(p.scope);
        sink.WriteU32(p.count);
      }
    }
  }
  return sink.data();
}

StatusOr<std::shared_ptr<const CorrelationModel>> DecodeModelSection(
    ByteSource src, const EngineSection& engine) {
  auto model = std::make_shared<CorrelationModel>();
  FUSER_RETURN_IF_ERROR(src.ReadDouble(&model->alpha));
  FUSER_RETURN_IF_ERROR(src.ReadBool(&model->use_scopes));
  FUSER_RETURN_IF_ERROR(DecodeQualityVector(&src, &model->source_quality));
  if (model->source_quality.size() != engine.num_sources) {
    return Corrupt("model quality vector size mismatch");
  }

  size_t num_clusters = 0;
  FUSER_RETURN_IF_ERROR(src.ReadCount(8, &num_clusters));
  std::vector<std::vector<SourceId>> clusters(num_clusters);
  for (std::vector<SourceId>& cluster : clusters) {
    size_t size = 0;
    FUSER_RETURN_IF_ERROR(src.ReadCount(4, &size));
    cluster.resize(size);
    for (SourceId& s : cluster) {
      FUSER_RETURN_IF_ERROR(src.ReadU32(&s));
      if (s >= engine.num_sources) {
        return Corrupt("cluster member out of range");
      }
    }
  }
  // ClusteringFromPartition validates the partition (every source exactly
  // once) and re-derives cluster_of / index_in_cluster.
  StatusOr<SourceClustering> clustering = ClusteringFromPartition(
      static_cast<size_t>(engine.num_sources), std::move(clusters));
  if (!clustering.ok()) {
    return Corrupt("bad cluster partition: " + clustering.status().message());
  }
  model->clustering = std::move(clustering).value();

  model->cluster_stats.reserve(model->clustering.clusters.size());
  for (const std::vector<SourceId>& cluster : model->clustering.clusters) {
    EmpiricalJointStatsState state;
    FUSER_RETURN_IF_ERROR(src.ReadI32(&state.k));
    FUSER_RETURN_IF_ERROR(src.ReadDouble(&state.options.alpha));
    FUSER_RETURN_IF_ERROR(src.ReadDouble(&state.options.smoothing));
    FUSER_RETURN_IF_ERROR(src.ReadBool(&state.options.use_scopes));
    FUSER_RETURN_IF_ERROR(src.ReadI32(&state.options.sos_table_max_bits));
    FUSER_RETURN_IF_ERROR(src.ReadU64(&state.total_true));
    FUSER_RETURN_IF_ERROR(src.ReadU64(&state.total_false));
    if (state.k != static_cast<int>(cluster.size())) {
      return Corrupt("cluster stats width disagrees with cluster size");
    }
    for (auto* patterns : {&state.true_patterns, &state.false_patterns}) {
      size_t count = 0;
      FUSER_RETURN_IF_ERROR(src.ReadCount(8 + 8 + 4, &count));
      patterns->resize(count);
      for (auto& p : *patterns) {
        FUSER_RETURN_IF_ERROR(src.ReadU64(&p.providers));
        FUSER_RETURN_IF_ERROR(src.ReadU64(&p.scope));
        FUSER_RETURN_IF_ERROR(src.ReadU32(&p.count));
      }
    }
    StatusOr<std::unique_ptr<EmpiricalJointStats>> stats =
        EmpiricalJointStats::FromState(state);
    if (!stats.ok()) {
      return Corrupt(stats.status().message());
    }
    model->cluster_stats.push_back(std::move(stats).value());
  }
  FUSER_RETURN_IF_ERROR(ExpectExhausted(src, "model"));
  return std::shared_ptr<const CorrelationModel>(std::move(model));
}

// ---------------------------------------------------------------------------
// GROUPING section.
// ---------------------------------------------------------------------------

std::string EncodeGroupingSection(const PatternGrouping& grouping) {
  ByteSink sink;
  sink.WriteU64(grouping.num_triples);
  sink.WriteU64(grouping.num_clusters());
  for (size_t c = 0; c < grouping.num_clusters(); ++c) {
    sink.WriteU64(grouping.distinct[c].size());
    for (const PatternKey& key : grouping.distinct[c]) {
      sink.WriteU64(key.providers);
      sink.WriteU64(key.nonproviders);
    }
    for (size_t id : grouping.pattern_of[c]) {
      sink.WriteU32(static_cast<uint32_t>(id));
    }
  }
  return sink.data();
}

StatusOr<std::shared_ptr<const PatternGrouping>> DecodeGroupingSection(
    ByteSource src, const Dataset& dataset, const CorrelationModel& model) {
  auto grouping = std::make_shared<PatternGrouping>();
  uint64_t num_triples = 0;
  FUSER_RETURN_IF_ERROR(src.ReadU64(&num_triples));
  if (num_triples != dataset.num_triples()) {
    return Corrupt("grouping triple count disagrees with dataset");
  }
  grouping->num_triples = static_cast<size_t>(num_triples);
  grouping->dataset = &dataset;
  grouping->model_fingerprint = ModelGroupingFingerprint(model);

  size_t num_clusters = 0;
  FUSER_RETURN_IF_ERROR(src.ReadCount(8, &num_clusters));
  if (num_clusters != model.clustering.clusters.size()) {
    return Corrupt("grouping cluster count disagrees with model");
  }
  grouping->distinct.resize(num_clusters);
  grouping->pattern_of.resize(num_clusters);
  grouping->index.resize(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    size_t num_distinct = 0;
    FUSER_RETURN_IF_ERROR(src.ReadCount(16, &num_distinct));
    grouping->distinct[c].resize(num_distinct);
    grouping->index[c].reserve(num_distinct);
    for (size_t i = 0; i < num_distinct; ++i) {
      PatternKey& key = grouping->distinct[c][i];
      FUSER_RETURN_IF_ERROR(src.ReadU64(&key.providers));
      FUSER_RETURN_IF_ERROR(src.ReadU64(&key.nonproviders));
      if (!grouping->index[c].emplace(key, i).second) {
        return Corrupt("duplicate distinct pattern");
      }
    }
    std::vector<uint32_t> raw_ids(grouping->num_triples);
    FUSER_RETURN_IF_ERROR(
        src.ReadU32Array(raw_ids.data(), raw_ids.size()));
    grouping->pattern_of[c].resize(grouping->num_triples);
    for (size_t t = 0; t < raw_ids.size(); ++t) {
      if (raw_ids[t] >= num_distinct) {
        return Corrupt("pattern id out of range");
      }
      grouping->pattern_of[c][t] = raw_ids[t];
    }
  }
  FUSER_RETURN_IF_ERROR(ExpectExhausted(src, "grouping"));
  return std::shared_ptr<const PatternGrouping>(std::move(grouping));
}

// ---------------------------------------------------------------------------
// SERVING section.
// ---------------------------------------------------------------------------

std::string EncodeServingSection(const FusionSnapshot& snapshot) {
  // Deterministic file bytes: entries sorted by name (the map key).
  std::vector<std::pair<std::string, const MethodServing*>> entries;
  entries.reserve(snapshot.serving.size());
  for (const auto& [name, serving] : snapshot.serving) {
    entries.emplace_back(name, serving.get());
  }
  std::sort(entries.begin(), entries.end());

  ByteSink sink;
  sink.WriteU64(entries.size());
  for (const auto& [name, serving] : entries) {
    sink.WriteString(name);
    sink.WriteU32(static_cast<uint32_t>(serving->spec.kind));
    sink.WriteDouble(serving->spec.union_percent);
    sink.WriteI32(serving->spec.elastic_level);
    sink.WriteDouble(serving->threshold);
    sink.WriteBool(serving->pattern_based);
    if (serving->pattern_based) {
      const PatternPosteriorTable& table = serving->table;
      sink.WriteDouble(table.alpha);
      sink.WriteU64(table.logs.size());
      for (const PatternPosteriorTable::ClusterLogs& logs : table.logs) {
        sink.WriteU64(logs.flags.size());
        for (double v : logs.log_true) sink.WriteDouble(v);
        for (double v : logs.log_false) sink.WriteDouble(v);
        for (unsigned char f : logs.flags) sink.WriteU8(f);
      }
      sink.WriteU64(table.posterior.size());
      for (double v : table.posterior) sink.WriteDouble(v);
    } else {
      sink.WriteU64(serving->dense.size());
      for (double v : serving->dense) sink.WriteDouble(v);
    }
  }
  return sink.data();
}

using ServingMap =
    std::unordered_map<std::string, std::shared_ptr<const MethodServing>>;

/// Decodes the serving entries against the already-decoded shared state.
/// Pattern-based entries get their ad-hoc scorer rebuilt through the
/// method's MakeScoringPlan — the plan captures only the model (shared
/// with the snapshot) and per-cluster strategy decisions, so rebuilding it
/// is cheap and reproduces the original closures exactly.
Status DecodeServingSection(ByteSource src, const MethodContext& context,
                            ServingMap* out) {
  size_t count = 0;
  FUSER_RETURN_IF_ERROR(src.ReadCount(8, &count));
  for (size_t i = 0; i < count; ++i) {
    std::string name;
    FUSER_RETURN_IF_ERROR(src.ReadString(&name));
    auto serving = std::make_shared<MethodServing>();
    uint32_t kind = 0;
    FUSER_RETURN_IF_ERROR(src.ReadU32(&kind));
    if (kind > static_cast<uint32_t>(MethodKind::kElastic)) {
      return Corrupt("serving entry method kind out of range");
    }
    serving->spec.kind = static_cast<MethodKind>(kind);
    FUSER_RETURN_IF_ERROR(src.ReadDouble(&serving->spec.union_percent));
    FUSER_RETURN_IF_ERROR(src.ReadI32(&serving->spec.elastic_level));
    FUSER_RETURN_IF_ERROR(src.ReadDouble(&serving->threshold));
    FUSER_RETURN_IF_ERROR(src.ReadBool(&serving->pattern_based));
    const FusionMethod* method =
        MethodRegistry::Global().Find(serving->spec.kind);
    if (method == nullptr) {
      return Corrupt("serving entry for unregistered method");
    }
    if (serving->spec.Name() != name) {
      return Corrupt("serving entry name disagrees with its spec");
    }
    if (serving->pattern_based) {
      if (context.grouping == nullptr) {
        return Corrupt("pattern-based serving entry without a grouping");
      }
      if (!method->supports_pattern_serving()) {
        return Corrupt("pattern-based entry for a non-pattern method");
      }
      PatternPosteriorTable& table = serving->table;
      FUSER_RETURN_IF_ERROR(src.ReadDouble(&table.alpha));
      size_t num_clusters = 0;
      FUSER_RETURN_IF_ERROR(src.ReadCount(8, &num_clusters));
      if (num_clusters != context.grouping->num_clusters()) {
        return Corrupt("posterior table cluster count mismatch");
      }
      table.logs.resize(num_clusters);
      for (size_t c = 0; c < num_clusters; ++c) {
        PatternPosteriorTable::ClusterLogs& logs = table.logs[c];
        size_t n = 0;
        FUSER_RETURN_IF_ERROR(src.ReadCount(8 + 8 + 1, &n));
        if (n != context.grouping->distinct[c].size()) {
          return Corrupt("posterior table size disagrees with grouping");
        }
        logs.log_true.resize(n);
        logs.log_false.resize(n);
        logs.flags.resize(n);
        FUSER_RETURN_IF_ERROR(
            src.ReadDoubleArray(logs.log_true.data(), n));
        FUSER_RETURN_IF_ERROR(
            src.ReadDoubleArray(logs.log_false.data(), n));
        for (unsigned char& f : logs.flags) {
          uint8_t raw = 0;
          FUSER_RETURN_IF_ERROR(src.ReadU8(&raw));
          if (raw > 3) return Corrupt("posterior table flag out of range");
          f = raw;
        }
      }
      size_t num_posterior = 0;
      FUSER_RETURN_IF_ERROR(src.ReadCount(8, &num_posterior));
      // BuildPatternPosteriorTable populates `posterior` exactly when the
      // grouping has one cluster; hold restored tables to the same
      // invariant so the combine paths take the same branches.
      const size_t expected =
          num_clusters == 1 ? context.grouping->distinct[0].size() : 0;
      if (num_posterior != expected) {
        return Corrupt("posterior vector size mismatch");
      }
      table.posterior.resize(num_posterior);
      FUSER_RETURN_IF_ERROR(
          src.ReadDoubleArray(table.posterior.data(), num_posterior));
      StatusOr<PatternScoringPlan> plan =
          method->MakeScoringPlan(context, serving->spec);
      if (!plan.ok()) {
        return Status(plan.status().code(),
                      name + ": " + plan.status().message());
      }
      serving->adhoc_scorer = std::move(plan->scorer);
    } else {
      size_t n = 0;
      FUSER_RETURN_IF_ERROR(src.ReadCount(8, &n));
      if (n != context.dataset->num_triples()) {
        return Corrupt("dense score vector size mismatch");
      }
      serving->dense.resize(n);
      FUSER_RETURN_IF_ERROR(src.ReadDoubleArray(serving->dense.data(), n));
    }
    if (!out->emplace(name, std::move(serving)).second) {
      return Corrupt("duplicate serving entry");
    }
  }
  return ExpectExhausted(src, "serving");
}

// ---------------------------------------------------------------------------
// File assembly and parsing.
// ---------------------------------------------------------------------------

/// Incremental Checksum64: reproduces the whole-buffer hash for any split
/// of the input into Update calls. Checksum64 (HashBytes64) consumes the
/// buffer in 8-byte chunks with a byte-wise tail, and the chunk boundaries
/// are positions relative to the buffer start — so the streaming version
/// carries a partial chunk between calls instead of naively re-seeding.
class ChainedHasher {
 public:
  void Update(const void* data, size_t size) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    if (pending_len_ > 0) {
      while (size > 0 && pending_len_ < 8) {
        pending_[pending_len_++] = *p++;
        --size;
      }
      if (pending_len_ < 8) return;
      Mix(pending_);
      pending_len_ = 0;
    }
    for (; size >= 8; p += 8, size -= 8) Mix(p);
    for (size_t i = 0; i < size; ++i) pending_[pending_len_++] = p[i];
  }

  uint64_t Finish() const {
    uint64_t h = h_;
    for (size_t i = 0; i < pending_len_; ++i) {
      h ^= pending_[i];
      h *= 0x100000001B3ULL;
    }
    return h;
  }

 private:
  void Mix(const unsigned char* p) {
    uint64_t chunk = 0;
    std::memcpy(&chunk, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    chunk = __builtin_bswap64(chunk);
#endif
    h_ ^= chunk;
    h_ *= 0x100000001B3ULL;
  }

  uint64_t h_ = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
  unsigned char pending_[8];
  size_t pending_len_ = 0;
};

/// Streams bytes to a stdio file while maintaining the current section's
/// running checksum and byte count.
class FileSectionWriter {
 public:
  explicit FileSectionWriter(std::FILE* f) : file_(f) {}

  void BeginSection() {
    hasher_ = ChainedHasher();
    section_bytes_ = 0;
  }

  Status Write(const void* data, size_t size) {
    if (size == 0) return Status::OK();
    if (std::fwrite(data, 1, size, file_) != size) {
      return Status::IoError("short write to snapshot file");
    }
    hasher_.Update(data, size);
    section_bytes_ += size;
    return Status::OK();
  }

  Status WriteZeros(size_t size) {
    static const char zeros[512] = {0};
    while (size > 0) {
      const size_t n = std::min(size, sizeof(zeros));
      FUSER_RETURN_IF_ERROR(Write(zeros, n));
      size -= n;
    }
    return Status::OK();
  }

  uint64_t section_checksum() const { return hasher_.Finish(); }
  uint64_t section_bytes() const { return section_bytes_; }

 private:
  std::FILE* file_;
  ChainedHasher hasher_;
  uint64_t section_bytes_ = 0;
};

/// Streams `dataset`'s DATASET payload as a new section that starts at
/// file offset `section_offset`; returns the payload size.
StatusOr<uint64_t> WriteDatasetSection(const Dataset& dataset,
                                       uint64_t section_offset,
                                       FileSectionWriter* w) {
  const CompactCsrView providers = MakeCompactView(dataset.providers_table());
  const CompactCsrView domain_sources =
      MakeCompactView(dataset.domain_sources_table());
  const CompactCsrView domain_triples =
      MakeCompactView(dataset.domain_triples_table());
  const StringArena& arena = dataset.string_arena();
  const uint64_t scalars[kDsScalars] = {
      dataset.version(),         dataset.num_sources(),
      dataset.num_domains(),     dataset.num_triples(),
      arena.image_bytes(),       arena.chunk_bytes(),
      providers.pool_len,        domain_sources.pool_len,
      domain_triples.pool_len};
  DsLayout l;
  FUSER_RETURN_IF_ERROR(ComputeDsLayout(section_offset, scalars, &l));
  w->BeginSection();
  FUSER_RETURN_IF_ERROR(w->WriteZeros(l.pad0));
  FUSER_RETURN_IF_ERROR(w->Write(scalars, kDsScalars * 8));
  const Span<StringRef> source_refs = dataset.source_name_refs();
  const Span<StringRef> domain_refs = dataset.domain_name_refs();
  FUSER_RETURN_IF_ERROR(w->Write(source_refs.data(), source_refs.size() * 8));
  FUSER_RETURN_IF_ERROR(w->Write(domain_refs.data(), domain_refs.size() * 8));
  // Meta checksum: everything written so far (pad0 + scalars + refs).
  const uint64_t meta = w->section_checksum();
  FUSER_RETURN_IF_ERROR(w->Write(&meta, 8));
  FUSER_RETURN_IF_ERROR(
      w->WriteZeros(l.arena_off - (l.meta_checksum_off + 8)));  // pad1

  Status arena_status = Status::OK();
  dataset.string_arena().ForEachImageChunk([&](const char* p, size_t n) {
    if (arena_status.ok()) arena_status = w->Write(p, n);
  });
  FUSER_RETURN_IF_ERROR(arena_status);

  const TripleDictionary& dict = dataset.triple_dict();
  const size_t m = l.num_triples;
  FUSER_RETURN_IF_ERROR(w->Write(dict.subjects().data(), m * 8));
  FUSER_RETURN_IF_ERROR(w->Write(dict.predicates().data(), m * 8));
  FUSER_RETURN_IF_ERROR(w->Write(dict.objects().data(), m * 8));
  FUSER_RETURN_IF_ERROR(w->Write(providers.offsets, m * 8));
  FUSER_RETURN_IF_ERROR(
      w->Write(domain_sources.offsets, l.num_domains * 8));
  FUSER_RETURN_IF_ERROR(
      w->Write(domain_triples.offsets, l.num_domains * 8));
  for (size_t s = 0; s < l.num_sources; ++s) {
    FUSER_RETURN_IF_ERROR(
        w->Write(dataset.output(static_cast<SourceId>(s)).words(),
                 l.words * 8));
  }
  for (size_t s = 0; s < l.num_sources; ++s) {
    FUSER_RETURN_IF_ERROR(
        w->Write(dataset.covers_bitset(static_cast<SourceId>(s)).words(),
                 l.domain_words * 8));
  }
  FUSER_RETURN_IF_ERROR(w->Write(dataset.true_mask().words(), l.words * 8));
  FUSER_RETURN_IF_ERROR(
      w->Write(dataset.labeled_mask().words(), l.words * 8));

  FUSER_RETURN_IF_ERROR(w->Write(dataset.domains_span().data(), m * 4));
  FUSER_RETURN_IF_ERROR(w->Write(providers.counts, m * 4));
  FUSER_RETURN_IF_ERROR(w->Write(providers.pool, providers.pool_len * 4));
  FUSER_RETURN_IF_ERROR(
      w->Write(domain_sources.counts, l.num_domains * 4));
  FUSER_RETURN_IF_ERROR(
      w->Write(domain_sources.pool, domain_sources.pool_len * 4));
  FUSER_RETURN_IF_ERROR(
      w->Write(domain_triples.counts, l.num_domains * 4));
  FUSER_RETURN_IF_ERROR(
      w->Write(domain_triples.pool, domain_triples.pool_len * 4));
  FUSER_RETURN_IF_ERROR(w->Write(dataset.labels_span().data(), m));
  if (w->section_bytes() != l.total) {
    return Status::Internal("dataset section size accounting bug");
  }
  return l.total;
}

/// A part can be saved when its snapshot describes its dataset as it is now.
Status CheckPart(const SnapshotPart& part) {
  const Dataset& dataset = *part.dataset;
  const FusionSnapshot& snapshot = *part.snapshot;
  if (!dataset.finalized()) {
    return Status::FailedPrecondition("dataset must be finalized");
  }
  if (snapshot.num_triples != dataset.num_triples() ||
      snapshot.num_sources != dataset.num_sources()) {
    return Status::InvalidArgument(
        "snapshot does not belong to this dataset (size mismatch)");
  }
  if (snapshot.dataset_version != dataset.version()) {
    return Status::InvalidArgument(
        "snapshot predates the dataset's current version; publish a fresh "
        "snapshot before saving");
  }
  if (part.train_mask->size() != dataset.num_triples()) {
    return Status::InvalidArgument("train mask size != num_triples");
  }
  if (snapshot.grouping != nullptr &&
      snapshot.grouping->num_triples != dataset.num_triples()) {
    return Status::InvalidArgument("snapshot grouping size mismatch");
  }
  return Status::OK();
}

/// What FUSER_FORCE_MMAP_ATTACH=1 turns the default kCopy load into (CI
/// runs the whole suite over attached datasets this way).
AttachMode DefaultAttachMode() {
  const char* force = std::getenv("FUSER_FORCE_MMAP_ATTACH");
  return force != nullptr && std::string_view(force) == "1"
             ? AttachMode::kMmapVerify
             : AttachMode::kCopy;
}

/// An open snapshot file: the header and section table are read and
/// checked once; each part then loads on demand, reading only its own
/// sections' byte ranges (or viewing them in the mapping). The one loader
/// behind every public load entry point, for K = 1 and K > 1 alike.
struct SnapshotFile {
  struct Span {
    size_t offset = 0;
    size_t size = 0;
    uint64_t checksum = 0;
  };

  AttachMode mode = AttachMode::kCopy;
  std::ifstream in;
  std::shared_ptr<MappedFile> mapped;
  size_t num_parts = 0;
  std::map<std::pair<uint32_t, uint32_t>, Span> sections;  // (part, id)

  bool Has(uint32_t part, uint32_t id) const {
    return sections.count({part, id}) != 0;
  }

  /// Reads file bytes [begin, end) into `*out`.
  Status ReadRange(size_t begin, size_t end, std::string* out) {
    out->resize(end - begin);
    in.seekg(static_cast<std::streamoff>(begin));
    in.read(out->data(), static_cast<std::streamsize>(out->size()));
    if (!in) return Status::IoError("snapshot read failed");
    return Status::OK();
  }

  Status Open(const std::string& path, AttachMode attach_mode) {
    mode = attach_mode;
    std::string buffer;
    std::string_view bytes;
    size_t file_size = 0;
    if (mode != AttachMode::kCopy) {
      FUSER_ASSIGN_OR_RETURN(mapped, MappedFile::Open(path));
      bytes = std::string_view(mapped->data(), mapped->size());
      file_size = mapped->size();
    } else {
      in.open(path, std::ios::binary | std::ios::ate);
      const std::streamoff stat_size = in ? std::streamoff(in.tellg()) : -1;
      if (stat_size < 0) {
        return Status::IoError("cannot open snapshot file: " + path);
      }
      file_size = static_cast<size_t>(stat_size);
      // The fixed header says how long the section table is; read just
      // the two. Sections are read on demand.
      FUSER_RETURN_IF_ERROR(
          ReadRange(0, std::min(file_size, kHeaderFixedBytes), &buffer));
      size_t table_end = kHeaderFixedBytes + 8;
      if (buffer.size() == kHeaderFixedBytes) {
        const uint32_t count = persist::LoadU32LE(buffer.data() + 12);
        if (count <= kMaxSections) table_end += kSectionEntryBytes * count;
      }
      FUSER_RETURN_IF_ERROR(
          ReadRange(0, std::min(file_size, table_end), &buffer));
      bytes = buffer;
    }
    // Section bounds are checked here against the file size; section
    // checksums as each section is read, so a load never reads or hashes
    // a section it skips.
    if (bytes.size() < kHeaderFixedBytes + 8) {
      return Corrupt("file truncated (no header)");
    }
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
      return Corrupt("bad magic (not a fuser snapshot)");
    }
    ByteSource header(bytes.data() + sizeof(kMagic),
                      bytes.size() - sizeof(kMagic));
    uint32_t format_version = 0;
    uint32_t section_count = 0;
    FUSER_RETURN_IF_ERROR(header.ReadU32(&format_version));
    FUSER_RETURN_IF_ERROR(header.ReadU32(&section_count));
    if (format_version != kSnapshotFormatVersion) {
      return Status::InvalidArgument(
          "unsupported snapshot format version " +
          std::to_string(format_version) + " (this build reads version " +
          std::to_string(kSnapshotFormatVersion) + "; re-save the snapshot)");
    }
    if (section_count > kMaxSections) {
      return Corrupt("implausible section count");
    }
    const size_t table_end =
        kHeaderFixedBytes + kSectionEntryBytes * section_count;
    if (bytes.size() < table_end + 8 || file_size < table_end + 8) {
      return Corrupt("file truncated (section table)");
    }
    if (Checksum64(bytes.data(), table_end) !=
        persist::LoadU64LE(bytes.data() + table_end)) {
      return Corrupt("header checksum mismatch");
    }
    for (uint32_t i = 0; i < section_count; ++i) {
      uint32_t id = 0, part = 0;
      Span span;
      uint64_t offset = 0, size = 0;
      FUSER_RETURN_IF_ERROR(header.ReadU32(&id));
      FUSER_RETURN_IF_ERROR(header.ReadU32(&part));
      FUSER_RETURN_IF_ERROR(header.ReadU64(&offset));
      FUSER_RETURN_IF_ERROR(header.ReadU64(&size));
      FUSER_RETURN_IF_ERROR(header.ReadU64(&span.checksum));
      if (offset < table_end + 8 || offset > file_size ||
          size > file_size - offset) {
        return Corrupt("section outside file bounds");
      }
      span.offset = static_cast<size_t>(offset);
      span.size = static_cast<size_t>(size);
      if (!sections.emplace(std::make_pair(part, id), span).second) {
        return Corrupt("duplicate section id");
      }
      if (id == kSectionEngine) ++num_parts;
    }
    // Each part has one ENGINE section, so the parts are 0..num_parts-1
    // exactly when no section names a part beyond that.
    if (num_parts == 0) return Corrupt("no engine section");
    for (const auto& entry : sections) {
      if (entry.first.first >= num_parts) {
        return Corrupt("section part index out of range");
      }
    }
    return Status::OK();
  }

  /// The bytes of section (part, id), checksum-verified when `verify`: a
  /// view into the mapping, or into `*buffer` after reading that range.
  StatusOr<std::string_view> ReadSection(uint32_t part, uint32_t id,
                                         bool verify, std::string* buffer) {
    auto it = sections.find({part, id});
    if (it == sections.end()) {
      return Corrupt("part " + std::to_string(part) + " has no section " +
                     std::to_string(id));
    }
    const Span& span = it->second;
    std::string_view bytes;
    if (mapped != nullptr) {
      bytes = std::string_view(mapped->data() + span.offset, span.size);
    } else {
      // Start the read on a 64-byte file offset: the DATASET layout's
      // 64-aligned fields then sit 8-aligned in the heap buffer.
      const size_t begin = span.offset & ~size_t{63};
      FUSER_RETURN_IF_ERROR(ReadRange(begin, span.offset + span.size, buffer));
      bytes = std::string_view(buffer->data() + (span.offset - begin),
                               span.size);
    }
    if (verify && Checksum64(bytes.data(), bytes.size()) != span.checksum) {
      return Corrupt("checksum mismatch in section " + std::to_string(id));
    }
    return bytes;
  }

  /// Re-materializes one part. With `attach` null its DATASET section is
  /// loaded under `mode`; otherwise that section is never read, and
  /// `attach` must match the dataset the part was saved against.
  StatusOr<LoadedSnapshot> LoadPart(uint32_t part, const Dataset* attach) {
    // Each section is decoded into owned state before the next is read,
    // so one buffer serves them all (unused when the file is mapped).
    std::string buffer;
    auto open = [&](uint32_t id) -> StatusOr<ByteSource> {
      FUSER_ASSIGN_OR_RETURN(std::string_view bytes,
                             ReadSection(part, id, true, &buffer));
      return ByteSource(bytes.data(), bytes.size());
    };

    FUSER_ASSIGN_OR_RETURN(ByteSource engine_src, open(kSectionEngine));
    EngineSection engine;
    FUSER_RETURN_IF_ERROR(DecodeEngineSection(engine_src, &engine));

    LoadedSnapshot loaded;
    const Dataset* dataset = attach;
    if (attach != nullptr) {
      if (attach->num_triples() != engine.num_triples ||
          attach->num_sources() != engine.num_sources ||
          attach->num_domains() != engine.num_domains) {
        return Status::InvalidArgument(
            "snapshot was saved against a different dataset "
            "(source/triple/domain counts disagree)");
      }
      if (attach->version() != engine.dataset_version) {
        return Status::InvalidArgument(
            "snapshot dataset_version " +
            std::to_string(engine.dataset_version) +
            " does not match the dataset's version " +
            std::to_string(attach->version()) +
            " (the dataset changed since the snapshot was saved)");
      }
      // The version counter is per-object (every freshly finalized dataset
      // starts at 1), so also fingerprint the contents: same-sized data
      // reloaded from edited TSVs must not warm-start against stale state.
      if (attach->ContentFingerprint() != engine.dataset_fingerprint) {
        return Status::InvalidArgument(
            "snapshot was saved against different dataset contents "
            "(content fingerprint mismatch)");
      }
    } else {
      // kCopy and kMmapVerify hash the whole section; kMmap trusts the meta
      // checksum inside the payload (that is the point of the mode).
      FUSER_ASSIGN_OR_RETURN(
          std::string_view payload,
          ReadSection(part, kSectionDataset, mode != AttachMode::kMmap,
                      &buffer));
      DatasetColumns cols;
      FUSER_RETURN_IF_ERROR(ParseDatasetColumns(
          payload.data(), payload.size(),
          sections.at({part, kSectionDataset}).offset, &cols));
      if (cols.version != engine.dataset_version ||
          cols.num_triples != engine.num_triples ||
          cols.num_sources != engine.num_sources ||
          cols.num_domains != engine.num_domains) {
        return Corrupt("dataset section disagrees with engine state");
      }
      if (mode != AttachMode::kMmap) {
        FUSER_RETURN_IF_ERROR(ValidateDatasetColumns(cols));
      }
      loaded.dataset = Dataset::FromColumns(cols, /*borrow=*/mapped != nullptr,
                                            /*keepalive=*/mapped);
      if (mode != AttachMode::kMmap &&
          loaded.dataset->ContentFingerprint() != engine.dataset_fingerprint) {
        return Corrupt("re-materialized dataset fingerprint mismatch");
      }
      dataset = loaded.dataset.get();
    }

    auto snapshot = std::make_shared<FusionSnapshot>();
    snapshot->id = 1;
    snapshot->dataset_version = engine.dataset_version;
    snapshot->num_triples = static_cast<size_t>(engine.num_triples);
    snapshot->num_sources = static_cast<size_t>(engine.num_sources);
    snapshot->options = engine.options;
    snapshot->quality = std::move(engine.quality);
    loaded.train_mask = std::move(engine.train_mask);

    if (Has(part, kSectionModel)) {
      FUSER_ASSIGN_OR_RETURN(ByteSource src, open(kSectionModel));
      FUSER_ASSIGN_OR_RETURN(snapshot->model, DecodeModelSection(src, engine));
    }
    if (Has(part, kSectionGrouping)) {
      if (snapshot->model == nullptr) {
        return Corrupt("grouping section without a model section");
      }
      FUSER_ASSIGN_OR_RETURN(ByteSource src, open(kSectionGrouping));
      FUSER_ASSIGN_OR_RETURN(
          snapshot->grouping,
          DecodeGroupingSection(src, *dataset, *snapshot->model));
    }
    if (Has(part, kSectionServing)) {
      MethodContext context;
      context.dataset = dataset;
      context.options = &snapshot->options;
      context.quality = &snapshot->quality;
      context.model = snapshot->model.get();
      context.grouping = snapshot->grouping.get();
      context.num_threads = 1;
      FUSER_ASSIGN_OR_RETURN(ByteSource src, open(kSectionServing));
      FUSER_RETURN_IF_ERROR(
          DecodeServingSection(src, context, &snapshot->serving));
    }
    loaded.snapshot = std::move(snapshot);
    return loaded;
  }
};

/// LoadSnapshot and LoadSnapshotFor read single-part files only.
StatusOr<LoadedSnapshot> LoadSinglePart(const std::string& path,
                                        AttachMode mode,
                                        const Dataset* attach) {
  SnapshotFile file;
  FUSER_RETURN_IF_ERROR(file.Open(path, mode));
  if (file.num_parts != 1 || file.Has(0, kSectionRouter)) {
    return Status::InvalidArgument(
        "snapshot holds " + std::to_string(file.num_parts) +
        " part(s) and a router section: it was saved by "
        "ShardedFusionEngine::SaveSnapshot; load it with "
        "ShardedFusionEngine::WarmStart");
  }
  return file.LoadPart(0, attach);
}

}  // namespace

Status SaveSnapshotParts(const std::string& path,
                         const std::vector<SnapshotPart>& parts,
                         std::string_view router_payload) {
  if (parts.empty()) {
    return Status::InvalidArgument("a snapshot holds at least one part");
  }
  size_t num_sections = router_payload.empty() ? 0 : 1;
  for (const SnapshotPart& part : parts) {
    FUSER_RETURN_IF_ERROR(CheckPart(part));
    const FusionSnapshot& snapshot = *part.snapshot;
    num_sections += 2 + (snapshot.model != nullptr) +
                    (snapshot.grouping != nullptr) + !snapshot.serving.empty();
  }
  const size_t header_end =
      kHeaderFixedBytes + kSectionEntryBytes * num_sections + 8;

  struct TableEntry {
    uint32_t id, part;
    uint64_t offset, size, checksum;
  };
  std::vector<TableEntry> table;
  // Each small section is encoded right before it is written, and the
  // DATASET sections — the bulk of the file — are streamed straight from
  // the datasets' columns, so a save holds one section at a time. The
  // DATASET sections go last: a warm start over an already-loaded dataset
  // (FusionEngine::WarmStart(path)) reads only its part's small sections.
  // The header goes in once every size and checksum is known.
  return persist::WriteFileDurably(path, [&](std::FILE* out) -> Status {
    FileSectionWriter writer(out);
    FUSER_RETURN_IF_ERROR(writer.WriteZeros(header_end));
    uint64_t offset = header_end;
    auto write_small = [&](uint32_t id, uint32_t part,
                           std::string_view payload) -> Status {
      FUSER_RETURN_IF_ERROR(writer.Write(payload.data(), payload.size()));
      table.push_back({id, part, offset, payload.size(),
                       Checksum64(payload.data(), payload.size())});
      offset += payload.size();
      return Status::OK();
    };
    if (!router_payload.empty()) {
      FUSER_RETURN_IF_ERROR(write_small(kSectionRouter, 0, router_payload));
    }
    for (uint32_t k = 0; k < parts.size(); ++k) {
      const FusionSnapshot& snapshot = *parts[k].snapshot;
      FUSER_RETURN_IF_ERROR(write_small(
          kSectionEngine, k,
          EncodeEngineSection(*parts[k].dataset, *parts[k].train_mask,
                              snapshot)));
      if (snapshot.model != nullptr) {
        FUSER_ASSIGN_OR_RETURN(std::string model_bytes,
                               EncodeModelSection(*snapshot.model));
        FUSER_RETURN_IF_ERROR(write_small(kSectionModel, k, model_bytes));
      }
      if (snapshot.grouping != nullptr) {
        FUSER_RETURN_IF_ERROR(write_small(
            kSectionGrouping, k, EncodeGroupingSection(*snapshot.grouping)));
      }
      if (!snapshot.serving.empty()) {
        FUSER_RETURN_IF_ERROR(
            write_small(kSectionServing, k, EncodeServingSection(snapshot)));
      }
    }
    for (uint32_t k = 0; k < parts.size(); ++k) {
      FUSER_ASSIGN_OR_RETURN(
          uint64_t size,
          WriteDatasetSection(*parts[k].dataset, offset, &writer));
      table.push_back(
          {kSectionDataset, k, offset, size, writer.section_checksum()});
      offset += size;
    }
    if (table.size() != num_sections) {
      return Status::Internal("snapshot section count accounting bug");
    }
    ByteSink header;
    header.WriteRaw(kMagic, sizeof(kMagic));
    header.WriteU32(kSnapshotFormatVersion);
    header.WriteU32(static_cast<uint32_t>(table.size()));
    for (const TableEntry& entry : table) {
      header.WriteU32(entry.id);
      header.WriteU32(entry.part);
      header.WriteU64(entry.offset);
      header.WriteU64(entry.size);
      header.WriteU64(entry.checksum);
    }
    header.WriteU64(Checksum64(header.data().data(), header.size()));
    if (std::fseek(out, 0, SEEK_SET) != 0 ||
        std::fwrite(header.data().data(), 1, header.size(), out) !=
            header.size()) {
      return Status::IoError("header write failed: " + path + ".tmp");
    }
    return Status::OK();
  });
}

Status SaveSnapshot(const std::string& path, const Dataset& dataset,
                    const DynamicBitset& train_mask,
                    const FusionSnapshot& snapshot) {
  return SaveSnapshotParts(path, {{&dataset, &train_mask, &snapshot}}, {});
}

StatusOr<LoadedSnapshot> LoadSnapshot(const std::string& path) {
  return LoadSinglePart(path, DefaultAttachMode(), nullptr);
}

StatusOr<LoadedSnapshot> LoadSnapshot(const std::string& path,
                                      const LoadOptions& options) {
  return LoadSinglePart(path, options.attach, nullptr);
}

StatusOr<LoadedSnapshot> LoadSnapshotFor(const std::string& path,
                                         const Dataset& dataset) {
  if (!dataset.finalized()) {
    return Status::FailedPrecondition("dataset must be finalized");
  }
  return LoadSinglePart(path, AttachMode::kCopy, &dataset);
}

StatusOr<std::vector<LoadedSnapshot>> LoadSnapshotParts(
    const std::string& path, std::string* router_payload) {
  SnapshotFile file;
  FUSER_RETURN_IF_ERROR(file.Open(path, DefaultAttachMode()));
  if (!file.Has(0, kSectionRouter)) {
    return Status::InvalidArgument(
        "snapshot has no router section: it was saved by "
        "FusionEngine::SaveSnapshot; load it with LoadSnapshot and "
        "FusionEngine::WarmStart");
  }
  std::string buffer;
  FUSER_ASSIGN_OR_RETURN(std::string_view router,
                         file.ReadSection(0, kSectionRouter, true, &buffer));
  router_payload->assign(router);
  std::vector<LoadedSnapshot> parts;
  for (uint32_t k = 0; k < file.num_parts; ++k) {
    FUSER_ASSIGN_OR_RETURN(LoadedSnapshot part, file.LoadPart(k, nullptr));
    parts.push_back(std::move(part));
  }
  return parts;
}

}  // namespace fuser
