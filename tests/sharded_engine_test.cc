// Sharded engine tests. The contract under test is the strong one from
// shard/sharded_engine.h: a ShardedFusionEngine over K domain-hash shards
// produces byte-identical scores to a single unsharded FusionEngine on the
// same data — at every shard count, every thread count, with scoped and
// clustered configs, through streaming updates, through the serving
// facade, and across a save/warm-start round trip.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "model/dataset.h"
#include "persist/snapshot_io.h"
#include "serving/fusion_service.h"
#include "shard/sharded_dataset.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_persist.h"
#include "shard/sharded_service.h"
#include "synth/generator.h"
#include "synth/stream_replay.h"

namespace fuser {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// Every registered shardable method (cosine/3estimates/ltm are iterative
/// fixed points over the whole corpus and stay unsharded).
std::vector<MethodSpec> ShardableLineup() {
  std::vector<MethodSpec> specs;
  for (const char* name :
       {"union-50", "precrec", "precrec-corr", "aggressive", "elastic-3"}) {
    auto spec = ParseMethodSpec(name);
    EXPECT_TRUE(spec.ok()) << name;
    specs.push_back(*spec);
  }
  return specs;
}

void ExpectRunsIdentical(const std::vector<FusionRun>& sharded,
                         const std::vector<FusionRun>& unsharded) {
  ASSERT_EQ(sharded.size(), unsharded.size());
  for (size_t i = 0; i < sharded.size(); ++i) {
    ASSERT_EQ(sharded[i].scores.size(), unsharded[i].scores.size())
        << sharded[i].spec.Name();
    EXPECT_EQ(sharded[i].threshold, unsharded[i].threshold);
    for (size_t t = 0; t < sharded[i].scores.size(); ++t) {
      // Byte-identical, not approximately equal: merged integer counts must
      // finalize through the exact same arithmetic as the unsharded path.
      ASSERT_EQ(sharded[i].scores[t], unsharded[i].scores[t])
          << sharded[i].spec.Name() << " triple " << t;
    }
  }
}

enum class Variant { kPlain, kScoped, kClustered };

Dataset MakeDataset(Variant variant, uint64_t seed) {
  SyntheticConfig config = MakeIndependentConfig(
      /*num_sources=*/variant == Variant::kClustered ? 10 : 6,
      /*num_triples=*/1400, /*fraction_true=*/0.4, /*precision=*/0.7,
      /*recall=*/0.45, seed);
  if (variant == Variant::kScoped) {
    config.num_domains = 37;
  }
  auto ds = GenerateSynthetic(config);
  EXPECT_TRUE(ds.ok()) << ds.status();
  return std::move(*ds);
}

EngineOptions MakeOptions(Variant variant) {
  EngineOptions options;
  if (variant == Variant::kScoped) {
    options.model.use_scopes = true;
  }
  if (variant == Variant::kClustered) {
    options.model.enable_clustering = true;
  }
  return options;
}

class ShardedIdentityTest
    : public testing::TestWithParam<std::tuple<Variant, uint32_t>> {};

TEST_P(ShardedIdentityTest, RunAllMatchesUnshardedAtEveryThreadCount) {
  const Variant variant = std::get<0>(GetParam());
  const uint32_t num_shards = std::get<1>(GetParam());
  Dataset ds = MakeDataset(variant, /*seed=*/1201 + num_shards);

  EngineOptions reference_options = MakeOptions(variant);
  reference_options.num_threads = 1;
  FusionEngine reference(static_cast<const Dataset*>(&ds), reference_options);
  ASSERT_TRUE(reference.Prepare(ds.labeled_mask()).ok());
  auto expected = reference.RunAll(ShardableLineup());
  ASSERT_TRUE(expected.ok()) << expected.status();

  for (size_t num_threads : {size_t{1}, size_t{2}, size_t{8}}) {
    EngineOptions options = MakeOptions(variant);
    options.num_threads = num_threads;
    auto engine =
        ShardedFusionEngine::Create(ds, ShardingOptions{num_shards}, options);
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
    auto runs = (*engine)->RunAll(ShardableLineup());
    ASSERT_TRUE(runs.ok()) << runs.status();
    ExpectRunsIdentical(*runs, *expected);

    // The router-merged quality equals the unsharded estimate exactly.
    const auto& merged = (*engine)->source_quality();
    const auto& direct = reference.source_quality();
    ASSERT_EQ(merged.size(), direct.size());
    for (size_t s = 0; s < merged.size(); ++s) {
      EXPECT_EQ(merged[s].precision, direct[s].precision);
      EXPECT_EQ(merged[s].recall, direct[s].recall);
      EXPECT_EQ(merged[s].fpr, direct[s].fpr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsAndShardCounts, ShardedIdentityTest,
    testing::Combine(testing::Values(Variant::kPlain, Variant::kScoped,
                                     Variant::kClustered),
                     testing::Values(1u, 2u, 4u, 8u)));

/// Streams the suffix of a dataset through both the sharded router and an
/// unsharded engine, batch by batch, and demands byte-identical scores
/// after every batch — including batches that add new sources, new
/// domains, and relabel existing triples.
void StreamingEquivalence(Variant variant, uint32_t num_shards,
                          size_t num_threads) {
  Dataset final_ds = MakeDataset(variant, /*seed=*/1501 + num_shards);
  const TripleId total = static_cast<TripleId>(final_ds.num_triples());
  const TripleId prefix = total / 2;

  auto unsharded_prefix = PrefixDataset(final_ds, prefix);
  ASSERT_TRUE(unsharded_prefix.ok()) << unsharded_prefix.status();
  Dataset unsharded_ds = std::move(*unsharded_prefix);
  EngineOptions options = MakeOptions(variant);
  options.num_threads = num_threads;
  FusionEngine unsharded(&unsharded_ds, options);
  ASSERT_TRUE(unsharded.Prepare(unsharded_ds.labeled_mask()).ok());
  ASSERT_TRUE(unsharded.RunAll(ShardableLineup()).ok());

  auto sharded_prefix = PrefixDataset(final_ds, prefix);
  ASSERT_TRUE(sharded_prefix.ok()) << sharded_prefix.status();
  auto sharded = ShardedFusionEngine::Create(
      *sharded_prefix, ShardingOptions{num_shards}, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_TRUE((*sharded)->Prepare(sharded_prefix->labeled_mask()).ok());
  ASSERT_TRUE((*sharded)->RunAll(ShardableLineup()).ok());

  const TripleId step = (total - prefix + 3) / 4;
  for (TripleId lo = prefix; lo < total; lo += step) {
    const TripleId hi = std::min<TripleId>(lo + step, total);
    ObservationBatch batch = BatchForRange(final_ds, lo, hi);
    ASSERT_TRUE(unsharded.Update(batch).ok());
    Status updated = (*sharded)->Update(batch);
    ASSERT_TRUE(updated.ok()) << updated;

    auto streamed = (*sharded)->RunAll(ShardableLineup());
    ASSERT_TRUE(streamed.ok()) << streamed.status();
    auto expected = unsharded.RunAll(ShardableLineup());
    ASSERT_TRUE(expected.ok()) << expected.status();
    ExpectRunsIdentical(*streamed, *expected);
    // Both engines run one update path, so they drop the model for a lazy
    // rebuild on exactly the same batches.
    EXPECT_EQ((*sharded)->full_invalidations(), unsharded.full_invalidations());
  }
  EXPECT_EQ((*sharded)->num_triples(), final_ds.num_triples());

  // A hand-built batch: brand-new source, brand-new domain, a relabel of
  // an existing triple, and a new label for a previously unlabeled one.
  ObservationBatch batch;
  batch.observations.push_back(
      {"brand-new-source", {"etc1", "attr", "x1"}, "fresh-domain"});
  batch.observations.push_back(
      {"source-0", {"etc1", "attr", "x1"}, "fresh-domain"});
  batch.observations.push_back(
      {"brand-new-source", final_ds.triple(0),
       std::string(final_ds.domain_name(final_ds.domain(0)))});
  batch.labels.push_back({{"etc1", "attr", "x1"}, true});
  TripleId unlabeled = kInvalidTriple;
  for (TripleId t = 0; t < total; ++t) {
    if (final_ds.label(t) == Label::kUnknown) {
      unlabeled = t;
      break;
    }
  }
  if (unlabeled != kInvalidTriple) {
    batch.labels.push_back({final_ds.triple(unlabeled), false});
  }
  ASSERT_TRUE(unsharded.Update(batch).ok());
  Status updated = (*sharded)->Update(batch);
  ASSERT_TRUE(updated.ok()) << updated;
  auto streamed = (*sharded)->RunAll(ShardableLineup());
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  auto expected = unsharded.RunAll(ShardableLineup());
  ASSERT_TRUE(expected.ok()) << expected.status();
  ExpectRunsIdentical(*streamed, *expected);
  EXPECT_EQ((*sharded)->full_invalidations(), unsharded.full_invalidations());
}

TEST(ShardedStreamingTest, PlainMatchesUnsharded) {
  StreamingEquivalence(Variant::kPlain, 4, /*num_threads=*/1);
}

TEST(ShardedStreamingTest, ScopedMatchesUnsharded) {
  StreamingEquivalence(Variant::kScoped, 4, /*num_threads=*/2);
}

TEST(ShardedStreamingTest, ClusteredMatchesUnsharded) {
  StreamingEquivalence(Variant::kClustered, 2, /*num_threads=*/8);
}

TEST(ShardedStreamingTest, SingleShardMatchesUnsharded) {
  StreamingEquivalence(Variant::kScoped, 1, /*num_threads=*/1);
}

TEST(ShardedStreamingTest, EightShardsMatchUnsharded) {
  StreamingEquivalence(Variant::kScoped, 8, /*num_threads=*/2);
}

TEST(ShardedStreamingTest, ShardEnginesRefuseDirectUpdates) {
  Dataset final_ds = MakeDataset(Variant::kScoped, /*seed=*/1601);
  const TripleId total = static_cast<TripleId>(final_ds.num_triples());
  const TripleId prefix = total / 2;
  const EngineOptions options = MakeOptions(Variant::kScoped);

  auto unsharded_prefix = PrefixDataset(final_ds, prefix);
  ASSERT_TRUE(unsharded_prefix.ok()) << unsharded_prefix.status();
  Dataset unsharded_ds = std::move(*unsharded_prefix);
  FusionEngine unsharded(&unsharded_ds, options);
  ASSERT_TRUE(unsharded.Prepare(unsharded_ds.labeled_mask()).ok());

  auto sharded_prefix = PrefixDataset(final_ds, prefix);
  ASSERT_TRUE(sharded_prefix.ok()) << sharded_prefix.status();
  auto sharded = ShardedFusionEngine::Create(*sharded_prefix,
                                             ShardingOptions{4}, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  ASSERT_TRUE((*sharded)->Prepare(sharded_prefix->labeled_mask()).ok());

  // A shard engine holds one slice of the corpus: a whole batch applied to
  // it directly would leave the router's id map behind the shard.
  const ObservationBatch batch = BatchForRange(final_ds, prefix, total);
  FusionEngine* shard = (*sharded)->shard_engine(0);
  const size_t shard_triples = shard->dataset()->num_triples();
  Status direct = shard->Update(batch);
  EXPECT_EQ(direct.code(), StatusCode::kFailedPrecondition) << direct;
  EXPECT_EQ(shard->dataset()->num_triples(), shard_triples);
  EXPECT_EQ(shard->updates_applied(), 0u);

  // The router's own path is unharmed.
  ASSERT_TRUE(unsharded.Update(batch).ok());
  Status updated = (*sharded)->Update(batch);
  ASSERT_TRUE(updated.ok()) << updated;
  auto streamed = (*sharded)->RunAll(ShardableLineup());
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  auto expected = unsharded.RunAll(ShardableLineup());
  ASSERT_TRUE(expected.ok()) << expected.status();
  ExpectRunsIdentical(*streamed, *expected);


  // Shards of a warm-started sharded engine are router-managed too.
  const std::string path = TempPath("sharded_guard.snap");
  ASSERT_TRUE((*sharded)->SaveSnapshot(path).ok());
  auto warm = ShardedFusionEngine::WarmStart(path, options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  FusionEngine* warm_shard = (*warm)->shard_engine(0);
  const size_t warm_triples = warm_shard->dataset()->num_triples();
  direct = warm_shard->Update(BatchForRange(final_ds, 0, prefix));
  EXPECT_EQ(direct.code(), StatusCode::kFailedPrecondition) << direct;
  EXPECT_EQ(warm_shard->dataset()->num_triples(), warm_triples);
}

TEST(ShardedServiceTest, PointQueriesMatchUnshardedService) {
  Dataset ds = MakeDataset(Variant::kScoped, /*seed=*/1701);
  EngineOptions options = MakeOptions(Variant::kScoped);

  FusionEngine reference(static_cast<const Dataset*>(&ds), options);
  ASSERT_TRUE(reference.Prepare(ds.labeled_mask()).ok());
  ASSERT_TRUE(reference.PublishSnapshot(ShardableLineup()).ok());
  FusionService reference_service(&reference);
  auto reference_snapshot = reference_service.Acquire();
  ASSERT_TRUE(reference_snapshot.ok()) << reference_snapshot.status();

  auto engine =
      ShardedFusionEngine::Create(ds, ShardingOptions{4}, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
  auto published = (*engine)->PublishSnapshot(ShardableLineup());
  ASSERT_TRUE(published.ok()) << published.status();
  ShardedFusionService service(engine->get());
  auto snapshot = service.Acquire();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->get(), published->get());

  std::vector<TripleId> all(ds.num_triples());
  for (TripleId t = 0; t < all.size(); ++t) all[t] = t;
  for (const MethodSpec& spec : ShardableLineup()) {
    auto sharded_scores = service.ScoreBatch(**snapshot, spec, all);
    ASSERT_TRUE(sharded_scores.ok()) << sharded_scores.status();
    auto expected_scores =
        reference_service.ScoreBatch(**reference_snapshot, spec, all);
    ASSERT_TRUE(expected_scores.ok()) << expected_scores.status();
    for (size_t t = 0; t < all.size(); ++t) {
      ASSERT_EQ((*sharded_scores)[t], (*expected_scores)[t])
          << spec.Name() << " triple " << t;
    }
    // Point reads (batches of one) answer from the same pinned snapshot.
    auto one = service.ScoreBatch(**snapshot, spec, {all.back()});
    ASSERT_TRUE(one.ok()) << one.status();
    ASSERT_EQ(one->size(), 1u);
    EXPECT_EQ(one->front(), (*sharded_scores).back());
  }

  // Ad-hoc observations go to shard 0 but carry global parameters, so the
  // answer equals the unsharded service's.
  AdHocObservation observation;
  observation.providers = {0, 2};
  observation.in_scope = {0, 1, 2, 3};
  auto spec = ParseMethodSpec("precrec-corr");
  ASSERT_TRUE(spec.ok());
  auto sharded_obs = service.ScoreObservation(**snapshot, *spec, observation);
  ASSERT_TRUE(sharded_obs.ok()) << sharded_obs.status();
  auto expected_obs = reference_service.ScoreObservation(
      **reference_snapshot, *spec, observation);
  ASSERT_TRUE(expected_obs.ok()) << expected_obs.status();
  EXPECT_EQ(*sharded_obs, *expected_obs);

  // Out-of-range triple ids are rejected, not misrouted.
  EXPECT_EQ(service
                .ScoreBatch(**snapshot, *spec,
                            {static_cast<TripleId>(ds.num_triples())})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedServiceTest, UnmaterializedMethodFailsLikeUnsharded) {
  Dataset ds = MakeDataset(Variant::kScoped, /*seed=*/1703);
  EngineOptions options = MakeOptions(Variant::kScoped);

  FusionEngine reference(static_cast<const Dataset*>(&ds), options);
  ASSERT_TRUE(reference.Prepare(ds.labeled_mask()).ok());
  ASSERT_TRUE(reference.PublishSnapshot(ShardableLineup()).ok());
  FusionService reference_service(&reference);
  auto reference_snapshot = reference_service.Acquire();
  ASSERT_TRUE(reference_snapshot.ok()) << reference_snapshot.status();

  auto engine = ShardedFusionEngine::Create(ds, ShardingOptions{2}, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
  ASSERT_TRUE((*engine)->PublishSnapshot(ShardableLineup()).ok());
  ShardedFusionService service(engine->get());
  auto snapshot = service.Acquire();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();

  // elastic-2 is not in the published lineup: both topologies refuse it,
  // the empty batch included.
  const MethodSpec unpublished = *ParseMethodSpec("elastic-2");
  for (const std::vector<TripleId>& triples :
       {std::vector<TripleId>{}, std::vector<TripleId>{0}}) {
    EXPECT_EQ(reference_service
                  .ScoreBatch(**reference_snapshot, unpublished, triples)
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition)
        << triples.size() << " triples";
    EXPECT_EQ(service.ScoreBatch(**snapshot, unpublished, triples)
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition)
        << triples.size() << " triples";
  }
  AdHocObservation observation;
  observation.providers = {0};
  EXPECT_EQ(service.ScoreObservation(**snapshot, unpublished, observation)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  // An empty batch of a published method is an empty answer in both.
  const MethodSpec published = *ParseMethodSpec("precrec-corr");
  auto expected = reference_service.ScoreBatch(**reference_snapshot,
                                               published, {});
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_TRUE(expected->empty());
  auto sharded = service.ScoreBatch(**snapshot, published, {});
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  EXPECT_TRUE(sharded->empty());
}

TEST(ShardedPersistTest, SaveWarmStartRoundTrip) {
  Dataset ds = MakeDataset(Variant::kScoped, /*seed=*/1801);
  EngineOptions options = MakeOptions(Variant::kScoped);
  auto engine = ShardedFusionEngine::Create(ds, ShardingOptions{4}, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
  ASSERT_TRUE((*engine)->PublishSnapshot(ShardableLineup()).ok());
  auto expected = (*engine)->RunAll(ShardableLineup());
  ASSERT_TRUE(expected.ok()) << expected.status();

  const std::string path = TempPath("sharded_roundtrip.snap");
  ASSERT_TRUE((*engine)->SaveSnapshot(path).ok());

  EngineOptions warm_options;  // everything but num_threads comes from disk
  warm_options.num_threads = 2;
  auto warm = ShardedFusionEngine::WarmStart(path, warm_options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ((*warm)->num_shards(), 4u);
  EXPECT_EQ((*warm)->num_triples(), ds.num_triples());
  EXPECT_TRUE((*warm)->options().model.use_scopes);

  auto runs = (*warm)->RunAll(ShardableLineup());
  ASSERT_TRUE(runs.ok()) << runs.status();
  ExpectRunsIdentical(*runs, *expected);

  // The warm-started engine is immediately servable (serving entries were
  // published before the save).
  ShardedFusionService service(warm->get());
  auto snapshot = service.Acquire();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  auto spec = ParseMethodSpec("precrec-corr");
  ASSERT_TRUE(spec.ok());
  auto score = service.ScoreBatch(**snapshot, *spec, {0});
  EXPECT_TRUE(score.ok()) << score.status();

  // And it keeps streaming: updates on top of the warm start stay exact.
  ObservationBatch batch;
  batch.observations.push_back(
      {"source-0", {"warm1", "attr", "w1"}, "warmdom"});
  batch.labels.push_back({{"warm1", "attr", "w1"}, true});
  ASSERT_TRUE((*warm)->Update(batch).ok());
  EXPECT_EQ((*warm)->num_triples(), ds.num_triples() + 1);
  EXPECT_TRUE((*warm)->RunAll(ShardableLineup()).ok());
}

TEST(ShardedPersistTest, RoundTripAtHundredsOfShards) {
  // Five sections per part: 256 shards need a section table of 1281
  // entries, past what a single-engine file ever holds.
  Dataset ds = MakeDataset(Variant::kScoped, /*seed=*/1941);
  EngineOptions options = MakeOptions(Variant::kScoped);
  auto engine = ShardedFusionEngine::Create(ds, ShardingOptions{256}, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
  ASSERT_TRUE((*engine)->PublishSnapshot(ShardableLineup()).ok());
  auto expected = (*engine)->RunAll(ShardableLineup());
  ASSERT_TRUE(expected.ok()) << expected.status();
  const std::string path = TempPath("sharded_wide.snap");
  ASSERT_TRUE((*engine)->SaveSnapshot(path).ok());
  auto warm = ShardedFusionEngine::WarmStart(path, options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ((*warm)->num_shards(), 256u);
  auto runs = (*warm)->RunAll(ShardableLineup());
  ASSERT_TRUE(runs.ok()) << runs.status();
  ExpectRunsIdentical(*runs, *expected);
}

TEST(ShardedPersistTest, FailedManifestWriteLeavesNoTempFile) {
  // A non-empty directory at the target path makes the save's one rename
  // fail: IoError, and neither the temp file nor any per-shard file is
  // left behind (a sharded save is one file since format 3).
  Dataset ds = MakeDataset(Variant::kScoped, /*seed=*/1811);
  EngineOptions options = MakeOptions(Variant::kScoped);
  auto engine = ShardedFusionEngine::Create(ds, ShardingOptions{2}, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
  const std::string path = TempPath("sharded_onto_dir.snap");
  for (size_t k = 0; k < 4; ++k) {
    std::filesystem::remove(ShardSnapshotPath(path, k));  // earlier runs
  }
  std::filesystem::create_directories(path + "/occupied");
  const Status saved = (*engine)->SaveSnapshot(path);
  EXPECT_EQ(saved.code(), StatusCode::kIoError) << saved;
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(path + "/occupied"));
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_FALSE(std::filesystem::exists(ShardSnapshotPath(path, k)))
        << ShardSnapshotPath(path, k);
  }
}

/// A prepared and published K-shard engine over `ds`, saved at `path`;
/// returns the file's bytes.
std::string SaveShardedBytes(const Dataset& ds, uint32_t num_shards,
                             const EngineOptions& options,
                             const std::string& path) {
  auto engine =
      ShardedFusionEngine::Create(ds, ShardingOptions{num_shards}, options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
  EXPECT_TRUE((*engine)->PublishSnapshot(ShardableLineup()).ok());
  EXPECT_TRUE((*engine)->SaveSnapshot(path).ok());
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ShardedPersistTest, RefusesCorruptTruncatedAndMixedVersionFiles) {
  Dataset ds = MakeDataset(Variant::kPlain, /*seed=*/1901);
  EngineOptions options;
  const std::string path = TempPath("sharded_refusals.snap");
  const std::string bytes = SaveShardedBytes(ds, 2, options, path);
  ASSERT_GT(bytes.size(), 64u);

  // Baseline: loads fine.
  ASSERT_TRUE(ShardedFusionEngine::WarmStart(path, options).ok());

  const std::string variant_path = TempPath("sharded_refusals_variant.snap");
  auto warm_start_variant = [&](const std::string& variant) {
    WriteBytes(variant_path, variant);
    return ShardedFusionEngine::WarmStart(variant_path, options).status();
  };

  // A corrupt byte in the section table or in a payload: the header or
  // section checksum refuses it.
  for (size_t offset : {size_t{20}, bytes.size() / 2}) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x5a);
    EXPECT_EQ(warm_start_variant(corrupt).code(),
              StatusCode::kInvalidArgument)
        << "corrupt byte at " << offset;
  }

  // A truncated file (a missing shard is now missing bytes) fails the
  // whole warm start.
  for (size_t cut : {size_t{0}, size_t{40}, bytes.size() / 2,
                     bytes.size() - 1}) {
    EXPECT_FALSE(warm_start_variant(bytes.substr(0, cut)).ok())
        << "truncated to " << cut;
  }

  // Another snapshot format version — format 2 (shard files plus a
  // manifest) included — is refused whole.
  for (uint32_t version : {kSnapshotFormatVersion + 1, 2u}) {
    std::string mixed = bytes;
    std::memcpy(&mixed[8], &version, sizeof(version));
    const Status status = warm_start_variant(mixed);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_NE(status.message().find("version " + std::to_string(version)),
              std::string::npos)
        << status;
  }

  // A format-2 manifest (magic "FUSRMANI") is not a snapshot.
  std::string manifest = bytes;
  std::memcpy(&manifest[0], "FUSRMANI", 8);
  EXPECT_EQ(warm_start_variant(manifest).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedPersistTest, EachTopologyRefusesTheOthersFile) {
  Dataset ds = MakeDataset(Variant::kScoped, /*seed=*/1921);
  EngineOptions options = MakeOptions(Variant::kScoped);

  // A sharded file through the single-part entry points.
  const std::string sharded_path = TempPath("sharded_topology.snap");
  SaveShardedBytes(ds, 2, options, sharded_path);
  for (AttachMode mode :
       {AttachMode::kCopy, AttachMode::kMmap, AttachMode::kMmapVerify}) {
    auto loaded = LoadSnapshot(sharded_path, LoadOptions{mode});
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(
        loaded.status().message().find("ShardedFusionEngine::WarmStart"),
        std::string::npos)
        << loaded.status();
  }
  FusionEngine unsharded(static_cast<const Dataset*>(&ds), options);
  const Status warmed = unsharded.WarmStart(sharded_path);
  EXPECT_EQ(warmed.code(), StatusCode::kInvalidArgument) << warmed;
  EXPECT_NE(warmed.message().find("ShardedFusionEngine::WarmStart"),
            std::string::npos)
      << warmed;

  // A single-engine file through the sharded entry point.
  FusionEngine writer(static_cast<const Dataset*>(&ds), options);
  ASSERT_TRUE(writer.Prepare(ds.labeled_mask()).ok());
  const std::string single_path = TempPath("unsharded_topology.snap");
  ASSERT_TRUE(writer.SaveSnapshot(single_path).ok());
  auto sharded = ShardedFusionEngine::WarmStart(single_path, options);
  ASSERT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sharded.status().message().find("router"), std::string::npos)
      << sharded.status();
}

TEST(ShardedPersistTest, SingleByteFlipsAlwaysFailCleanly) {
  // The K=2 counterpart of persist_test's sweep: the sharded warm start
  // reads and checksums every section of the file, so every flip is
  // refused, and none may crash or trip the sanitizers.
  Dataset ds = MakeDataset(Variant::kScoped, /*seed=*/1931);
  EngineOptions options = MakeOptions(Variant::kScoped);
  const std::string bytes =
      SaveShardedBytes(ds, 2, options, TempPath("sharded_flips.snap"));
  const std::string path = TempPath("sharded_flips_variant.snap");
  Rng rng(20261022);
  for (int i = 0; i < 200; ++i) {
    const size_t offset = rng.NextBounded(bytes.size());
    const uint8_t flip = static_cast<uint8_t>(1u << rng.NextBounded(8));
    std::string bad = bytes;
    bad[offset] = static_cast<char>(bad[offset] ^ flip);
    WriteBytes(path, bad);
    EXPECT_FALSE(ShardedFusionEngine::WarmStart(path, options).ok())
        << "flip at offset " << offset << " was not detected";
  }
}

TEST(ShardedEngineTest, NonShardableMethodsAreRejected) {
  Dataset ds = MakeDataset(Variant::kPlain, /*seed=*/2001);
  auto engine =
      ShardedFusionEngine::Create(ds, ShardingOptions{2}, EngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
  for (const char* name : {"cosine", "3estimates", "ltm"}) {
    auto spec = ParseMethodSpec(name);
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_EQ((*engine)->Run(*spec).status().code(),
              StatusCode::kUnimplemented)
        << name;
  }
}

TEST(ShardedEngineTest, SketchClusteringIsRejected) {
  Dataset ds = MakeDataset(Variant::kClustered, /*seed=*/2101);
  EngineOptions options = MakeOptions(Variant::kClustered);
  options.model.clustering.use_sketch = true;
  auto engine = ShardedFusionEngine::Create(ds, ShardingOptions{2}, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE((*engine)->Prepare(ds.labeled_mask()).ok());
  auto spec = ParseMethodSpec("precrec-corr");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ((*engine)->Run(*spec).status().code(),
            StatusCode::kUnimplemented);
}

TEST(ShardedEngineTest, ValidatesShardingOptions) {
  Dataset ds = MakeDataset(Variant::kPlain, /*seed=*/2201);
  EXPECT_FALSE(
      ShardedFusionEngine::Create(ds, ShardingOptions{0}, EngineOptions{})
          .ok());
  EXPECT_FALSE(
      ShardedFusionEngine::Create(ds, ShardingOptions{2000}, EngineOptions{})
          .ok());
}

TEST(ShardMapTest, SnapshotSharesChunksAndRoutesExactly) {
  ShardMapBuilder builder;
  for (size_t i = 0; i < 3 * ShardMap::kChunkSize / 2; ++i) {
    builder.Append({static_cast<uint32_t>(i % 5),
                    static_cast<TripleId>(i / 5)});
  }
  auto snapshot = builder.Snapshot();
  ASSERT_EQ(snapshot->size(), builder.size());
  // Keep appending after the snapshot: the published view is unaffected.
  const size_t frozen = snapshot->size();
  for (size_t i = 0; i < ShardMap::kChunkSize; ++i) {
    builder.Append({7, static_cast<TripleId>(i)});
  }
  EXPECT_EQ(snapshot->size(), frozen);
  for (size_t i = 0; i < frozen; ++i) {
    EXPECT_EQ(snapshot->Get(i).shard, i % 5);
    EXPECT_EQ(snapshot->Get(i).local, static_cast<TripleId>(i / 5));
  }
}

}  // namespace
}  // namespace fuser
