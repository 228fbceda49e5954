// Snapshot persistence tests. Two contracts are under test:
//
//  1. Round-trip byte identity: Save -> Load -> WarmStart reproduces the
//     originating engine exactly — FusionService Score/ScoreBatch/
//     ScoreObservation answers and Run/RunAll score vectors are equal for
//     every registered method (plain, scoped, and clustered models), and
//     WarmStart followed by an Update equals a fresh Prepare followed by
//     the same Update.
//
//  2. Robustness: corrupt input (truncations, bad magic, wrong format
//     version, flipped bytes, version-skewed datasets) fails with a
//     Status — InvalidArgument-style, with no crash and no UB. The
//     byte-flip sweep runs under the CI ASan job.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "model/dataset.h"
#include "persist/snapshot_io.h"
#include "serving/fusion_service.h"
#include "synth/generator.h"
#include "synth/stream_replay.h"

namespace fuser {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<MethodSpec> Lineup() {
  std::vector<MethodSpec> specs;
  for (const char* name : {"union-50", "3estimates", "cosine", "ltm",
                           "precrec", "precrec-corr", "aggressive",
                           "elastic-3"}) {
    auto spec = ParseMethodSpec(name);
    EXPECT_TRUE(spec.ok()) << name;
    specs.push_back(*spec);
  }
  return specs;
}

std::vector<MethodSpec> ServingSpecs() {
  return {*ParseMethodSpec("precrec-corr"), *ParseMethodSpec("elastic-2"),
          *ParseMethodSpec("union-50")};
}

Dataset MakeDataset(bool with_domains, uint64_t seed = 77) {
  SyntheticConfig config = MakeIndependentConfig(
      /*num_sources=*/8, /*num_triples=*/1500, /*fraction_true=*/0.4,
      /*precision=*/0.72, /*recall=*/0.5, seed);
  config.groups_true = {{{0, 1, 2}, 0.85}};
  config.groups_false = {{{3, 4}, 0.8}};
  if (with_domains) config.num_domains = 12;
  auto dataset = GenerateSynthetic(config);
  EXPECT_TRUE(dataset.ok()) << dataset.status();
  return std::move(*dataset);
}

void ExpectRunsIdentical(const std::vector<FusionRun>& a,
                         const std::vector<FusionRun>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].scores.size(), b[i].scores.size()) << a[i].spec.Name();
    for (size_t t = 0; t < a[i].scores.size(); ++t) {
      // Byte-identical, not approximately equal.
      ASSERT_EQ(a[i].scores[t], b[i].scores[t])
          << a[i].spec.Name() << " triple " << t;
    }
  }
}

/// Saves `original`'s published state, loads it back (full re-materialized
/// dataset), warm-starts a fresh engine, and asserts byte identity of the
/// full method lineup plus FusionService point queries and ad-hoc
/// observations.
void RoundTrip(const Dataset& ds, FusionEngine* original,
               const std::string& path) {
  ASSERT_TRUE(original->PublishSnapshot(ServingSpecs()).ok());
  ASSERT_TRUE(original->SaveSnapshot(path).ok());

  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_NE(loaded->dataset, nullptr);
  EXPECT_EQ(loaded->dataset->num_triples(), ds.num_triples());
  EXPECT_EQ(loaded->dataset->num_sources(), ds.num_sources());
  EXPECT_EQ(loaded->dataset->num_domains(), ds.num_domains());
  EXPECT_EQ(loaded->dataset->version(), ds.version());
  EXPECT_TRUE(loaded->dataset->labeled_mask() == ds.labeled_mask());
  EXPECT_TRUE(loaded->dataset->true_mask() == ds.true_mask());

  FusionEngine warm(loaded->dataset.get(), EngineOptions{});
  ASSERT_TRUE(warm.WarmStart(*loaded).ok());

  // Restored quality must be bit-equal.
  ASSERT_EQ(warm.source_quality().size(), original->source_quality().size());
  for (size_t s = 0; s < warm.source_quality().size(); ++s) {
    EXPECT_EQ(warm.source_quality()[s].precision,
              original->source_quality()[s].precision);
    EXPECT_EQ(warm.source_quality()[s].recall,
              original->source_quality()[s].recall);
    EXPECT_EQ(warm.source_quality()[s].fpr,
              original->source_quality()[s].fpr);
  }
  EXPECT_TRUE(warm.train_mask() == original->train_mask());

  // Full lineup, fresh Run on both sides.
  auto original_runs = original->RunAll(Lineup());
  auto warm_runs = warm.RunAll(Lineup());
  ASSERT_TRUE(original_runs.ok()) << original_runs.status();
  ASSERT_TRUE(warm_runs.ok()) << warm_runs.status();
  ExpectRunsIdentical(*original_runs, *warm_runs);

  // Point queries straight off the restored serving state.
  FusionService original_service(original);
  FusionService warm_service(&warm);
  auto original_snap = original_service.Acquire();
  auto warm_snap = warm_service.Acquire();
  ASSERT_TRUE(original_snap.ok() && warm_snap.ok());
  std::vector<TripleId> all;
  for (TripleId t = 0; t < ds.num_triples(); ++t) all.push_back(t);
  for (const MethodSpec& spec : ServingSpecs()) {
    auto a = original_service.ScoreBatch(**original_snap, spec, all);
    auto b = warm_service.ScoreBatch(**warm_snap, spec, all);
    ASSERT_TRUE(a.ok()) << spec.Name() << ": " << a.status();
    ASSERT_TRUE(b.ok()) << spec.Name() << ": " << b.status();
    for (size_t t = 0; t < all.size(); ++t) {
      ASSERT_EQ((*a)[t], (*b)[t]) << spec.Name() << " triple " << t;
    }
    for (TripleId t : {TripleId{0}, TripleId{7},
                       static_cast<TripleId>(ds.num_triples() - 1)}) {
      auto sa = original_service.Score(**original_snap, spec, t);
      auto sb = warm_service.Score(**warm_snap, spec, t);
      ASSERT_TRUE(sa.ok() && sb.ok());
      EXPECT_EQ(*sa, *sb);
    }
  }

  // Ad-hoc observations: a mirror of an existing triple and a pattern the
  // grouping has never seen, on the pattern-serving methods.
  for (const char* name : {"precrec-corr", "elastic-2"}) {
    const MethodSpec spec = *ParseMethodSpec(name);
    const TripleId t = 3;
    AdHocObservation mirror;
    for (SourceId s : ds.providers(t)) mirror.providers.push_back(s);
    for (SourceId s : ds.in_scope_sources(t)) mirror.in_scope.push_back(s);
    auto ma = original_service.ScoreObservation(**original_snap, spec, mirror);
    auto mb = warm_service.ScoreObservation(**warm_snap, spec, mirror);
    ASSERT_TRUE(ma.ok() && mb.ok()) << name;
    EXPECT_EQ(*ma, *mb) << name;

    AdHocObservation unseen;
    unseen.providers = {0, 3, 6, 7};
    for (SourceId s = 0; s < ds.num_sources(); ++s) {
      unseen.in_scope.push_back(s);
    }
    auto ua = original_service.ScoreObservation(**original_snap, spec, unseen);
    auto ub = warm_service.ScoreObservation(**warm_snap, spec, unseen);
    ASSERT_TRUE(ua.ok() && ub.ok()) << name;
    EXPECT_EQ(*ua, *ub) << name;
  }
}

TEST(PersistRoundTripTest, PlainModel) {
  Dataset ds = MakeDataset(/*with_domains=*/false);
  FusionEngine engine(static_cast<const Dataset*>(&ds), EngineOptions{});
  ASSERT_TRUE(engine.Prepare(ds.labeled_mask()).ok());
  RoundTrip(ds, &engine, TempPath("persist_plain.snap"));
}

TEST(PersistRoundTripTest, ScopedModel) {
  Dataset ds = MakeDataset(/*with_domains=*/true);
  EngineOptions options;
  options.model.use_scopes = true;
  FusionEngine engine(static_cast<const Dataset*>(&ds), options);
  ASSERT_TRUE(engine.Prepare(ds.labeled_mask()).ok());
  RoundTrip(ds, &engine, TempPath("persist_scoped.snap"));
}

TEST(PersistRoundTripTest, ClusteredModel) {
  Dataset ds = MakeDataset(/*with_domains=*/false, /*seed=*/91);
  EngineOptions options;
  options.model.enable_clustering = true;
  options.model.clustering.max_cluster_size = 4;
  FusionEngine engine(static_cast<const Dataset*>(&ds), options);
  ASSERT_TRUE(engine.Prepare(ds.labeled_mask()).ok());
  RoundTrip(ds, &engine, TempPath("persist_clustered.snap"));
}

TEST(PersistRoundTripTest, NonDefaultOptionsSurviveTheFile) {
  Dataset ds = MakeDataset(/*with_domains=*/false, /*seed=*/13);
  EngineOptions options;
  options.model.alpha = 0.35;
  options.decision_threshold = 0.6;
  // > 30 with small clusters is a legal configuration (tables are sized by
  // the cluster width k, not by this cap); it must round-trip.
  options.model.sos_table_max_bits = 31;
  options.ltm.seed = 99;
  options.corr.force_term_summation = true;
  FusionEngine engine(static_cast<const Dataset*>(&ds), options);
  ASSERT_TRUE(engine.Prepare(ds.labeled_mask()).ok());

  const std::string path = TempPath("persist_options.snap");
  ASSERT_TRUE(engine.PublishSnapshot(ServingSpecs()).ok());
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // The warm engine is constructed with *default* options; WarmStart must
  // replace them with the saved ones or scores would diverge.
  FusionEngine warm(loaded->dataset.get(), EngineOptions{});
  ASSERT_TRUE(warm.WarmStart(*loaded).ok());
  EXPECT_EQ(warm.options().model.alpha, 0.35);
  EXPECT_EQ(warm.options().decision_threshold, 0.6);
  EXPECT_EQ(warm.options().model.sos_table_max_bits, 31);
  EXPECT_EQ(warm.options().ltm.seed, 99u);
  EXPECT_TRUE(warm.options().corr.force_term_summation);
  auto a = engine.RunAll(Lineup());
  auto b = warm.RunAll(Lineup());
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectRunsIdentical(*a, *b);
}

TEST(PersistRoundTripTest, WarmStartOverTheOriginalDatasetObject) {
  // The in-process restart shape: the dataset is still loaded; only the
  // engine state is re-adopted from disk (attach mode, prefix read).
  Dataset ds = MakeDataset(/*with_domains=*/false, /*seed=*/5);
  FusionEngine engine(static_cast<const Dataset*>(&ds), EngineOptions{});
  ASSERT_TRUE(engine.Prepare(ds.labeled_mask()).ok());
  ASSERT_TRUE(engine.PublishSnapshot(ServingSpecs()).ok());
  const std::string path = TempPath("persist_attach.snap");
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());

  FusionEngine warm(static_cast<const Dataset*>(&ds), EngineOptions{});
  ASSERT_TRUE(warm.WarmStart(path).ok());
  auto a = engine.RunAll(Lineup());
  auto b = warm.RunAll(Lineup());
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectRunsIdentical(*a, *b);
  // The restored serving entries answer point queries immediately.
  FusionService service(&warm);
  auto snap = service.Acquire();
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(service.Score(**snap, *ParseMethodSpec("precrec-corr"), 0).ok());
}

TEST(PersistRoundTripTest, SaveBeforeModelBuildRestoresLazily) {
  // A snapshot published right after Prepare has no model/grouping/serving
  // yet; warm-starting it must reproduce a just-Prepared engine, with the
  // shared inputs rebuilt lazily on first use.
  Dataset ds = MakeDataset(/*with_domains=*/false, /*seed=*/23);
  FusionEngine engine(static_cast<const Dataset*>(&ds), EngineOptions{});
  ASSERT_TRUE(engine.Prepare(ds.labeled_mask()).ok());
  const std::string path = TempPath("persist_bare.snap");
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());

  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->snapshot->model, nullptr);
  EXPECT_EQ(loaded->snapshot->grouping, nullptr);
  FusionEngine warm(loaded->dataset.get(), EngineOptions{});
  ASSERT_TRUE(warm.WarmStart(*loaded).ok());
  auto a = engine.RunAll(Lineup());
  auto b = warm.RunAll(Lineup());
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectRunsIdentical(*a, *b);
}

TEST(PersistRoundTripTest, FailedSaveLeavesNoTempFile) {
  // A non-empty directory at the target path makes the final rename fail:
  // the save reports IoError and removes its temp file.
  Dataset ds = MakeDataset(/*with_domains=*/false, /*seed=*/29);
  FusionEngine engine(static_cast<const Dataset*>(&ds), EngineOptions{});
  ASSERT_TRUE(engine.Prepare(ds.labeled_mask()).ok());
  const std::string path = TempPath("persist_onto_dir.snap");
  std::filesystem::create_directories(path + "/occupied");
  const Status saved = engine.SaveSnapshot(path);
  EXPECT_EQ(saved.code(), StatusCode::kIoError) << saved;
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(path + "/occupied"));
}

TEST(PersistStreamingTest, WarmStartPlusUpdateEqualsPreparePlusUpdate) {
  Dataset final = MakeDataset(/*with_domains=*/false, /*seed=*/31);
  const TripleId prefix = static_cast<TripleId>(final.num_triples() * 4 / 5);

  auto prefix1 = PrefixDataset(final, prefix);
  auto prefix2 = PrefixDataset(final, prefix);
  ASSERT_TRUE(prefix1.ok() && prefix2.ok());
  Dataset ds_prepared = std::move(*prefix1);
  Dataset ds_warm = std::move(*prefix2);

  // The engine whose state gets saved; it then moves on via Update (the
  // fresh-Prepare + Update reference).
  FusionEngine prepared(&ds_prepared, EngineOptions{});
  ASSERT_TRUE(prepared.Prepare(ds_prepared.labeled_mask()).ok());
  ASSERT_TRUE(prepared.PublishSnapshot(ServingSpecs()).ok());
  const std::string path = TempPath("persist_stream.snap");
  ASSERT_TRUE(prepared.SaveSnapshot(path).ok());

  // Warm-started twin over an identically-built dataset copy.
  FusionEngine warm(&ds_warm, EngineOptions{});
  ASSERT_TRUE(warm.WarmStart(path).ok());

  const TripleId total = static_cast<TripleId>(final.num_triples());
  const TripleId mid = prefix + (total - prefix) / 2;
  for (const auto& [lo, hi] :
       std::vector<std::pair<TripleId, TripleId>>{{prefix, mid},
                                                  {mid, total}}) {
    ObservationBatch batch = BatchForRange(final, lo, hi);
    ASSERT_TRUE(prepared.Update(batch).ok());
    ASSERT_TRUE(warm.Update(batch).ok());
  }
  EXPECT_EQ(warm.pattern_grouping_builds(), 0u)
      << "warm engine should maintain the loaded grouping incrementally";
  auto a = prepared.RunAll(Lineup());
  auto b = warm.RunAll(Lineup());
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ExpectRunsIdentical(*a, *b);
}

// ---------------------------------------------------------------------------
// Corruption paths.
// ---------------------------------------------------------------------------

class PersistCorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    ds_ = MakeDataset(/*with_domains=*/true, /*seed=*/47);
    EngineOptions options;
    options.model.use_scopes = true;
    engine_ = std::make_unique<FusionEngine>(
        static_cast<const Dataset*>(&ds_), options);
    ASSERT_TRUE(engine_->Prepare(ds_.labeled_mask()).ok());
    ASSERT_TRUE(engine_->PublishSnapshot(ServingSpecs()).ok());
    path_ = TempPath("persist_corrupt.snap");
    ASSERT_TRUE(engine_->SaveSnapshot(path_).ok());
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    ASSERT_GT(bytes_.size(), 64u);
  }

  std::string WriteVariant(const std::string& bytes) {
    const std::string path = TempPath("persist_corrupt_variant.snap");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    return path;
  }

  Dataset ds_;
  std::unique_ptr<FusionEngine> engine_;
  std::string path_;
  std::string bytes_;
};

TEST_F(PersistCorruptionTest, MissingFileIsAnError) {
  auto loaded = LoadSnapshot(TempPath("does_not_exist.snap"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(PersistCorruptionTest, TruncationsNeverCrash) {
  // Every prefix length across the interesting boundaries: empty file,
  // mid-magic, mid-header, mid-section-table, mid-payload, one byte short.
  std::vector<size_t> cuts = {0, 1, 4, 7, 8, 12, 15, 16, 24, 40, 63};
  for (size_t fraction = 1; fraction < 8; ++fraction) {
    cuts.push_back(bytes_.size() * fraction / 8);
  }
  cuts.push_back(bytes_.size() - 1);
  for (size_t cut : cuts) {
    ASSERT_LT(cut, bytes_.size());
    const std::string path = WriteVariant(bytes_.substr(0, cut));
    auto loaded = LoadSnapshot(path);
    EXPECT_FALSE(loaded.ok()) << "truncated to " << cut << " bytes";
    EXPECT_NE(loaded.status().code(), StatusCode::kOk);
    // Attach-mode (WarmStart) must fail just as cleanly.
    FusionEngine warm(static_cast<const Dataset*>(&ds_), EngineOptions{});
    EXPECT_FALSE(warm.WarmStart(path).ok()) << "truncated to " << cut;
  }
}

TEST_F(PersistCorruptionTest, BadMagicIsInvalidArgument) {
  std::string bad = bytes_;
  bad[0] = 'X';
  auto loaded = LoadSnapshot(WriteVariant(bad));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
}

TEST_F(PersistCorruptionTest, WrongFormatVersionIsInvalidArgument) {
  std::string bad = bytes_;
  bad[8] = static_cast<char>(kSnapshotFormatVersion + 1);
  auto loaded = LoadSnapshot(WriteVariant(bad));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST_F(PersistCorruptionTest, PayloadFlipIsChecksumMismatch) {
  // Flip one byte deep inside the payload region (past header + table):
  // the section checksum must catch it.
  std::string bad = bytes_;
  bad[bytes_.size() / 2] = static_cast<char>(bad[bytes_.size() / 2] ^ 0x20);
  auto loaded = LoadSnapshot(WriteVariant(bad));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PersistCorruptionTest, SingleByteFlipsAlwaysFailCleanly) {
  // Fuzz-ish sweep: flip one byte at N seeded-random offsets. A full load
  // parses (and checksums) every section, so it must reject every flip;
  // none may crash or trip the sanitizers. Attach-mode WarmStart
  // deliberately skips the trailing DATASET section, so a flip there may
  // go unseen — in that case the adopted state must still be exactly the
  // uncorrupted one.
  auto reference = engine_->Run({MethodKind::kPrecRecCorr});
  ASSERT_TRUE(reference.ok());
  Rng rng(20260730);
  for (int i = 0; i < 200; ++i) {
    const size_t offset = rng.NextBounded(bytes_.size());
    const uint8_t flip =
        static_cast<uint8_t>(1u << rng.NextBounded(8));
    std::string bad = bytes_;
    bad[offset] = static_cast<char>(bad[offset] ^ flip);
    const std::string path = WriteVariant(bad);
    auto loaded = LoadSnapshot(path);
    EXPECT_FALSE(loaded.ok())
        << "flip at offset " << offset << " was not detected";
    EngineOptions options;
    options.model.use_scopes = true;
    FusionEngine warm(static_cast<const Dataset*>(&ds_), options);
    if (warm.WarmStart(path).ok()) {
      auto run = warm.Run({MethodKind::kPrecRecCorr});
      ASSERT_TRUE(run.ok());
      ASSERT_EQ(run->scores, reference->scores)
          << "flip at offset " << offset
          << " warm-started but changed the adopted state";
    }
  }
}

TEST_F(PersistCorruptionTest, DatasetVersionMismatchOnWarmStart) {
  // Stream one batch into the dataset after the save: the snapshot now
  // predates the dataset and WarmStart must refuse it. The batch only
  // relabels an existing triple, so every size still matches and the
  // version counter is the only thing standing between the stale snapshot
  // and silently wrong scores.
  Dataset mutated = MakeDataset(/*with_domains=*/true, /*seed=*/47);
  EngineOptions options;
  options.model.use_scopes = true;
  FusionEngine writer(&mutated, options);
  ASSERT_TRUE(writer.Prepare(mutated.labeled_mask()).ok());
  const std::string path = TempPath("persist_version_skew.snap");
  ASSERT_TRUE(writer.SaveSnapshot(path).ok());

  ObservationBatch batch;
  batch.labels.push_back(
      {mutated.triple(0), mutated.label(0) != Label::kTrue});
  ASSERT_TRUE(writer.Update(batch).ok());

  FusionEngine stale(static_cast<const Dataset*>(&mutated), options);
  Status warmed = stale.WarmStart(path);
  ASSERT_FALSE(warmed.ok());
  EXPECT_EQ(warmed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(warmed.message().find("dataset_version"), std::string::npos);
}

TEST_F(PersistCorruptionTest, ContentMismatchWithMatchingCountsFails) {
  // The sharpest stale-state case: a dataset with identical sizes and an
  // identical version counter (both freshly finalized) but different
  // contents — e.g. TSVs edited in place and reloaded. Only the content
  // fingerprint stands between this and silently wrong scores.
  auto build = [](bool flip_label) {
    Dataset ds;
    SourceId a = ds.AddSource("a");
    SourceId b = ds.AddSource("b");
    TripleId t0 = ds.AddTriple({"s0", "p", "o"});
    TripleId t1 = ds.AddTriple({"s1", "p", "o"});
    TripleId t2 = ds.AddTriple({"s2", "p", "o"});
    ds.Provide(a, t0);
    ds.Provide(a, t1);
    ds.Provide(b, t0);
    ds.Provide(b, t2);
    ds.SetLabel(t0, true);
    ds.SetLabel(t1, !flip_label);
    ds.SetLabel(t2, false);
    EXPECT_TRUE(ds.Finalize().ok());
    return ds;
  };
  Dataset original = build(false);
  Dataset edited = build(true);
  ASSERT_EQ(original.version(), edited.version());
  ASSERT_EQ(original.num_triples(), edited.num_triples());
  ASSERT_NE(original.ContentFingerprint(), edited.ContentFingerprint());

  FusionEngine writer(static_cast<const Dataset*>(&original),
                      EngineOptions{});
  ASSERT_TRUE(writer.Prepare(original.labeled_mask()).ok());
  const std::string path = TempPath("persist_content_skew.snap");
  ASSERT_TRUE(writer.SaveSnapshot(path).ok());

  FusionEngine same(static_cast<const Dataset*>(&original), EngineOptions{});
  EXPECT_TRUE(same.WarmStart(path).ok());
  FusionEngine stale(static_cast<const Dataset*>(&edited), EngineOptions{});
  Status warmed = stale.WarmStart(path);
  ASSERT_FALSE(warmed.ok());
  EXPECT_EQ(warmed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(warmed.message().find("fingerprint"), std::string::npos);
}

TEST_F(PersistCorruptionTest, WarmStartAgainstDifferentDatasetFails) {
  Dataset other = MakeDataset(/*with_domains=*/false, /*seed=*/48);
  FusionEngine warm(static_cast<const Dataset*>(&other), EngineOptions{});
  Status warmed = warm.WarmStart(path_);
  ASSERT_FALSE(warmed.ok());
  EXPECT_EQ(warmed.code(), StatusCode::kInvalidArgument);
}

TEST_F(PersistCorruptionTest, ExplicitStatsAreUnimplemented) {
  // Caller-supplied (non-empirical) statistics have no persistent form.
  auto clustering = SingleCluster(ds_);
  ASSERT_TRUE(clustering.ok());
  auto model = std::make_shared<CorrelationModel>();
  model->clustering = std::move(*clustering);
  std::vector<JointQuality> singles(ds_.num_sources(), {0.8, 0.5, 0.1});
  model->cluster_stats.push_back(
      std::make_unique<ExplicitJointStats>(singles, 0.5));
  model->source_quality.assign(ds_.num_sources(), SourceQuality{});

  FusionSnapshot snapshot;
  snapshot.dataset_version = ds_.version();
  snapshot.num_triples = ds_.num_triples();
  snapshot.num_sources = ds_.num_sources();
  snapshot.model = model;
  Status saved = SaveSnapshot(TempPath("persist_explicit.snap"), ds_,
                              ds_.labeled_mask(), snapshot);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kUnimplemented);
}

TEST_F(PersistCorruptionTest, SaveRefusesAStaleSnapshot) {
  Dataset mutated = MakeDataset(/*with_domains=*/true, /*seed=*/47);
  FusionEngine writer(&mutated, EngineOptions{});
  ASSERT_TRUE(writer.Prepare(mutated.labeled_mask()).ok());
  auto snapshot = writer.CurrentSnapshot();
  ASSERT_NE(snapshot, nullptr);
  ObservationBatch batch;
  batch.observations.push_back(
      {std::string(mutated.source_name(0)),
       {"another-new", "p", "o"},
       "dom0"});
  ASSERT_TRUE(writer.Update(batch).ok());
  // The pinned snapshot predates the batch; persisting it against the
  // moved-on dataset would save inconsistent state.
  Status saved = SaveSnapshot(TempPath("persist_stale.snap"), mutated,
                              writer.train_mask(), *snapshot);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Zero-copy mmap attach.
// ---------------------------------------------------------------------------

/// Reuses the corruption fixture's saved snapshot (scoped model over a
/// domain-bearing dataset) for the attach-mode contracts.
class MmapAttachTest : public PersistCorruptionTest {
 protected:
  /// (offset, size) of the DATASET section, read from the section table.
  std::pair<size_t, size_t> DatasetSpan() const {
    uint32_t count = 0;
    std::memcpy(&count, bytes_.data() + 12, sizeof(count));
    for (uint32_t i = 0; i < count; ++i) {
      const char* entry = bytes_.data() + 16 + i * 32;
      uint32_t id = 0;
      std::memcpy(&id, entry, sizeof(id));
      if (id != 2) continue;  // DATASET
      uint64_t offset = 0, size = 0;
      std::memcpy(&offset, entry + 8, sizeof(offset));
      std::memcpy(&size, entry + 16, sizeof(size));
      return {static_cast<size_t>(offset), static_cast<size_t>(size)};
    }
    ADD_FAILURE() << "no DATASET section in the saved snapshot";
    return {0, 0};
  }
};

TEST_F(MmapAttachTest, AttachedScoresMatchOwned) {
  EngineOptions options;
  options.model.use_scopes = true;
  auto reference = engine_->RunAll(Lineup());
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (AttachMode mode : {AttachMode::kMmap, AttachMode::kMmapVerify}) {
    auto loaded = LoadSnapshot(path_, LoadOptions{mode});
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_NE(loaded->dataset, nullptr);
    EXPECT_TRUE(loaded->dataset->attached());
    const DatasetMemoryStats stats = loaded->dataset->MemoryStats();
    EXPECT_STREQ(stats.storage_mode, "mmap");
    EXPECT_GT(stats.mapped_bytes, 0u);
    FusionEngine warm(loaded->dataset.get(), options);
    ASSERT_TRUE(warm.WarmStart(*loaded).ok());
    auto runs = warm.RunAll(Lineup());
    ASSERT_TRUE(runs.ok()) << runs.status();
    ExpectRunsIdentical(*reference, *runs);
  }
}

TEST_F(MmapAttachTest, UpdateAfterAttachEqualsFreshPrepare) {
  // Streaming onto an attached dataset: copy-on-write promotion must leave
  // the scores byte-identical to a fresh Prepare + the same Update over an
  // owned (kCopy) dataset.
  EngineOptions options;
  options.model.use_scopes = true;
  auto copy_loaded = LoadSnapshot(path_, LoadOptions{AttachMode::kCopy});
  auto mmap_loaded = LoadSnapshot(path_, LoadOptions{AttachMode::kMmap});
  ASSERT_TRUE(copy_loaded.ok() && mmap_loaded.ok());

  ObservationBatch batch;
  batch.observations.push_back({std::string(ds_.source_name(1)),
                                Triple(ds_.triple(2)),
                                std::string(ds_.domain_name(ds_.domain(2)))});
  batch.observations.push_back(
      {"attach-new-source", {"attach-new", "p", "o"}, "attach-new-domain"});
  batch.labels.push_back({Triple(ds_.triple(5)), true});

  FusionEngine fresh(copy_loaded->dataset.get(), options);
  ASSERT_TRUE(fresh.Prepare(copy_loaded->train_mask).ok());
  ASSERT_TRUE(fresh.Update(batch).ok());

  const size_t owned_before = mmap_loaded->dataset->MemoryStats().owned_bytes;
  FusionEngine warm(mmap_loaded->dataset.get(), options);
  ASSERT_TRUE(warm.WarmStart(*mmap_loaded).ok());
  ASSERT_TRUE(warm.Update(batch).ok());
  const DatasetMemoryStats after = mmap_loaded->dataset->MemoryStats();
  EXPECT_GT(after.owned_bytes, owned_before)
      << "Update must promote the structures it grows to owned memory";
  EXPECT_EQ(std::string(after.storage_mode).substr(0, 4), "mmap");

  auto a = fresh.RunAll(Lineup());
  auto b = warm.RunAll(Lineup());
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectRunsIdentical(*a, *b);
}

TEST_F(MmapAttachTest, TruncatedMappedDatasetRejected) {
  const auto [ds_off, ds_size] = DatasetSpan();
  ASSERT_GT(ds_size, 0u);
  for (size_t cut : {bytes_.size() - 1, ds_off + ds_size / 2, ds_off + 8}) {
    const std::string path = WriteVariant(bytes_.substr(0, cut));
    for (AttachMode mode : {AttachMode::kMmap, AttachMode::kMmapVerify}) {
      auto loaded = LoadSnapshot(path, LoadOptions{mode});
      EXPECT_FALSE(loaded.ok()) << "truncated to " << cut << " bytes";
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST_F(MmapAttachTest, FlippedMappedDatasetRejected) {
  const auto [ds_off, ds_size] = DatasetSpan();
  ASSERT_GT(ds_size, 0u);
  // Deep in the column payload: only the full section checksum sees it.
  std::string payload_flip = bytes_;
  payload_flip[ds_off + ds_size * 3 / 4] ^= 0x40;
  auto verified =
      LoadSnapshot(WriteVariant(payload_flip), LoadOptions{AttachMode::kMmapVerify});
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kInvalidArgument);
  // In the scalar/meta prefix: even the trusted kMmap fast path must
  // reject it (meta checksum or layout validation).
  std::string meta_flip = bytes_;
  meta_flip[ds_off + 16] ^= 0x04;
  auto attached =
      LoadSnapshot(WriteVariant(meta_flip), LoadOptions{AttachMode::kMmap});
  ASSERT_FALSE(attached.ok());
  EXPECT_EQ(attached.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MmapAttachTest, OldFormatSnapshotIsAVersionedError) {
  // A v1-era header (the pre-columnar row codec) or a v2 one (one part per
  // file, no part index) must fail up front with both versions named —
  // not a misparse of the old encoding.
  for (int version : {1, 2}) {
    std::string old = bytes_;
    old[8] = static_cast<char>(version);
    old[9] = old[10] = old[11] = 0;
    for (AttachMode mode :
         {AttachMode::kCopy, AttachMode::kMmap, AttachMode::kMmapVerify}) {
      auto loaded = LoadSnapshot(WriteVariant(old), LoadOptions{mode});
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(loaded.status().message().find(
                    "unsupported snapshot format version " +
                    std::to_string(version)),
                std::string::npos)
          << loaded.status();
      EXPECT_NE(loaded.status().message().find(
                    "reads version " + std::to_string(kSnapshotFormatVersion)),
                std::string::npos)
          << loaded.status();
    }
  }
}

}  // namespace
}  // namespace fuser
