// Sharded serving stress test: reader threads hammer merged point (batch
// of one) and batch reads through ShardedFusionService while the writer
// streams Update batches through the router — which fans each batch out to
// the K shard engines, so the readers race K concurrent per-shard writers. The
// assertion is the multi-shard snapshot contract: every merged read must
// match, byte for byte, the reference scores of the exact ShardedSnapshot
// (and thus the exact per-shard FusionSnapshots it pins) it was answered
// from — no torn reads across shards, no read served from a mix of
// publication generations. The writer publishes its next snapshot only
// once a reader has recorded a read from the current one, so the readers
// provably read every published snapshot. Run under TSan in CI, this also
// proves the scatter-gather read path and the chunked shard map race-free.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_service.h"
#include "synth/generator.h"
#include "synth/stream_replay.h"

namespace fuser {
namespace {

struct PointSample {
  uint64_t snapshot_id = 0;
  size_t spec_index = 0;
  TripleId triple = 0;
  double score = 0.0;
};

struct PinnedSample {
  std::shared_ptr<const ShardedSnapshot> snapshot;  // kept pinned
  size_t spec_index = 0;
  std::vector<TripleId> triples;
  std::vector<double> scores;
};

TEST(ShardedStressTest, MergedReadsMatchPinnedShardSnapshots) {
  SyntheticConfig config =
      MakeIndependentConfig(/*num_sources=*/8, /*num_triples=*/5000,
                            /*fraction_true=*/0.4, /*precision=*/0.7,
                            /*recall=*/0.45, /*seed=*/701);
  config.num_domains = 64;  // spread entities over all shards
  auto final_or = GenerateSynthetic(config);
  ASSERT_TRUE(final_or.ok());
  const Dataset& final = *final_or;
  const TripleId total = static_cast<TripleId>(final.num_triples());
  const TripleId prefix = total - total / 4;
  auto prefix_or = PrefixDataset(final, prefix);
  ASSERT_TRUE(prefix_or.ok());

  EngineOptions options;
  options.model.use_scopes = true;
  options.num_threads = 2;
  auto engine_or =
      ShardedFusionEngine::Create(*prefix_or, ShardingOptions{4}, options);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status();
  ShardedFusionEngine& engine = **engine_or;
  ASSERT_TRUE(engine.Prepare(prefix_or->labeled_mask()).ok());
  const std::vector<MethodSpec> specs = {*ParseMethodSpec("precrec-corr"),
                                         *ParseMethodSpec("union-50")};
  ShardedFusionService service(&engine);

  // Reference scores per published sharded snapshot id, recorded by the
  // writer right after each publish; readers never touch this map.
  std::map<uint64_t, std::vector<std::vector<double>>> reference;
  uint64_t last_published = 0;
  auto publish_and_record = [&]() {
    auto snapshot = engine.PublishSnapshot(specs);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    auto runs = engine.RunAll(specs);
    ASSERT_TRUE(runs.ok()) << runs.status();
    std::vector<std::vector<double>> scores;
    for (FusionRun& run : *runs) scores.push_back(std::move(run.scores));
    reference.emplace((*snapshot)->id, std::move(scores));
    last_published = (*snapshot)->id;
  };
  publish_and_record();

  std::atomic<bool> done{false};
  // The newest sharded snapshot id any reader has recorded a read from.
  std::atomic<uint64_t> newest_recorded{0};
  constexpr size_t kNumReaders = 4;
  std::vector<std::vector<PointSample>> point_samples(kNumReaders);
  std::vector<std::vector<PinnedSample>> pinned_samples(kNumReaders);
  std::vector<std::thread> readers;
  readers.reserve(kNumReaders);
  for (size_t r = 0; r < kNumReaders; ++r) {
    readers.emplace_back([&, r]() {
      Rng rng(2000 + r);
      std::vector<PointSample>& points = point_samples[r];
      std::vector<PinnedSample>& pinned = pinned_samples[r];
      // Past the sample cap, still keep the first read from each snapshot
      // so every snapshot this reader saw gets verified.
      auto keep = [&](uint64_t id) {
        return points.size() < 400 || id != points.back().snapshot_id;
      };
      auto note = [&](uint64_t id) {
        uint64_t seen = newest_recorded.load(std::memory_order_relaxed);
        while (seen < id && !newest_recorded.compare_exchange_weak(
                                seen, id, std::memory_order_relaxed)) {
        }
      };
      while (!done.load(std::memory_order_relaxed)) {
        auto snapshot_or = service.Acquire();
        if (!snapshot_or.ok()) continue;
        std::shared_ptr<const ShardedSnapshot> snapshot = *snapshot_or;
        const size_t spec_index = rng.NextBounded(specs.size());
        const MethodSpec& spec = specs[spec_index];
        // Merged point query: a batch of one.
        const TripleId t =
            static_cast<TripleId>(rng.NextBounded(snapshot->num_triples));
        auto one = service.ScoreBatch(*snapshot, spec, {t});
        if (one.ok() && keep(snapshot->id)) {
          points.push_back({snapshot->id, spec_index, t, one->front()});
          note(snapshot->id);
        }
        // Merged batch query spanning several shards; request order must
        // survive the scatter-gather.
        std::vector<TripleId> batch_ids;
        for (int i = 0; i < 12; ++i) {
          batch_ids.push_back(
              static_cast<TripleId>(rng.NextBounded(snapshot->num_triples)));
        }
        auto batch = service.ScoreBatch(*snapshot, spec, batch_ids);
        if (batch.ok()) {
          if (keep(snapshot->id)) {
            for (size_t i = 0; i < batch_ids.size(); ++i) {
              points.push_back(
                  {snapshot->id, spec_index, batch_ids[i], (*batch)[i]});
            }
            note(snapshot->id);
          }
          if (pinned.size() < 50) {
            pinned.push_back({snapshot, spec_index, batch_ids, *batch});
          }
        }
      }
    });
  }

  // Writer: stream the suffix in micro-batches through the router (each
  // Update fans out to all dirty shard engines), republishing after each.
  // Republish only once a reader has recorded a read from the snapshot
  // before (bounded, so a genuine serving bug still fails instead of
  // hanging). Snapshot ids grow with each publish, so the newest recorded
  // id reaching the last published one means a read from exactly that
  // snapshot.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  auto wait_for_a_reader = [&]() {
    while (newest_recorded.load(std::memory_order_relaxed) < last_published &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };
  constexpr size_t kNumBatches = 6;
  const TripleId step = std::max<TripleId>(
      1, (total - prefix + static_cast<TripleId>(kNumBatches) - 1) /
             static_cast<TripleId>(kNumBatches));
  for (TripleId lo = prefix; lo < total; lo += step) {
    wait_for_a_reader();
    const TripleId hi = std::min<TripleId>(lo + step, total);
    ASSERT_TRUE(engine.Update(BatchForRange(final, lo, hi)).ok());
    publish_and_record();
  }
  wait_for_a_reader();
  done.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  // Every merged read matches the reference scores of the sharded snapshot
  // it was answered from, exactly.
  size_t verified = 0;
  std::set<uint64_t> verified_snapshots;
  for (const auto& samples : point_samples) {
    for (const PointSample& sample : samples) {
      auto it = reference.find(sample.snapshot_id);
      ASSERT_NE(it, reference.end())
          << "read answered from unpublished snapshot " << sample.snapshot_id;
      const std::vector<double>& expected = it->second[sample.spec_index];
      ASSERT_LT(static_cast<size_t>(sample.triple), expected.size());
      ASSERT_EQ(sample.score, expected[sample.triple])
          << "snapshot " << sample.snapshot_id << " spec "
          << specs[sample.spec_index].Name() << " triple " << sample.triple;
      ++verified;
      verified_snapshots.insert(sample.snapshot_id);
    }
  }
  EXPECT_GT(verified, 0u) << "readers never completed a successful read";
  // The interleaving the test exists for: reads from every snapshot the
  // writer published (the initial one plus one per batch).
  EXPECT_EQ(reference.size(), kNumBatches + 1);
  EXPECT_EQ(verified_snapshots.size(), reference.size())
      << "reads came from " << verified_snapshots.size() << " of "
      << reference.size() << " published snapshots";

  // Pinned batches replay exactly: re-answering from the still-pinned
  // per-shard snapshots reproduces every concurrent answer byte for byte,
  // proving each merged read was served from one coherent set of shard
  // snapshots rather than a mix of generations.
  for (const auto& samples : pinned_samples) {
    for (const PinnedSample& sample : samples) {
      auto again = service.ScoreBatch(*sample.snapshot,
                                      specs[sample.spec_index],
                                      sample.triples);
      ASSERT_TRUE(again.ok()) << again.status();
      ASSERT_EQ(*again, sample.scores)
          << "snapshot " << sample.snapshot->id;
    }
  }
}

}  // namespace
}  // namespace fuser
