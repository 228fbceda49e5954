// Network reader storm racing a streaming writer (the TSan centerpiece of
// the net stack, mirroring tests/serving_stress_test.cc one layer up):
// client threads hammer FusionServer over real loopback sockets while the
// writer thread keeps calling FusionEngine::Update and republishing
// snapshots behind the live server. Every networked reply names the
// snapshot it was answered from, and must match that snapshot's reference
// scores byte for byte — no torn responses, no answer from a state that
// was never published, even across the publish boundary. The writer
// publishes its next snapshot only once a reader has recorded a reply
// from the current one, so the storm provably reads every published
// snapshot while the writer keeps going.
#include <algorithm>
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
#include "net/fusion_client.h"
#include "net/fusion_server.h"
#include "net/scoring_backend.h"
#include "serving/fusion_service.h"
#include "synth/generator.h"
#include "synth/stream_replay.h"

namespace fuser {
namespace net {
namespace {

struct BatchSample {
  uint64_t snapshot_id = 0;
  size_t spec_index = 0;
  std::vector<TripleId> triples;
  std::vector<double> scores;
};

TEST(NetStressTest, NetworkedReadsMatchPublishedSnapshotsUnderStreaming) {
  SyntheticConfig config =
      MakeIndependentConfig(/*num_sources=*/8, /*num_triples=*/3000,
                            /*fraction_true=*/0.4, /*precision=*/0.7,
                            /*recall=*/0.45, /*seed=*/503);
  config.groups_true = {{{0, 1, 2}, 0.85}};
  auto final_or = GenerateSynthetic(config);
  ASSERT_TRUE(final_or.ok());
  const Dataset& final = *final_or;
  const TripleId total = static_cast<TripleId>(final.num_triples());
  const TripleId prefix = total - total / 4;
  auto prefix_or = PrefixDataset(final, prefix);
  ASSERT_TRUE(prefix_or.ok());
  Dataset ds = std::move(*prefix_or);

  FusionEngine engine(&ds, {});
  ASSERT_TRUE(engine.Prepare(ds.labeled_mask()).ok());
  const std::vector<MethodSpec> specs = {*ParseMethodSpec("precrec-corr"),
                                         *ParseMethodSpec("precrec")};

  // Reference scores per published snapshot id, written only by the main
  // (writer) thread and read only after the reader join.
  std::map<uint64_t, std::vector<std::vector<double>>> reference;
  uint64_t last_published = 0;
  auto publish_and_record = [&]() {
    auto snapshot = engine.PublishSnapshot(specs);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    std::vector<std::vector<double>> scores;
    for (const MethodSpec& spec : specs) {
      auto run = engine.Run(spec);
      ASSERT_TRUE(run.ok()) << run.status();
      scores.push_back(std::move(run->scores));
    }
    reference.emplace((*snapshot)->id, std::move(scores));
    last_published = (*snapshot)->id;
  };
  publish_and_record();

  FusionService service(&engine);
  ServiceBackend backend(&service);
  FusionServerOptions server_options;
  server_options.num_workers = 2;
  FusionServer server(&backend, server_options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  // The newest snapshot id any reader has recorded a reply from.
  std::atomic<uint64_t> newest_recorded{0};
  constexpr size_t kNumReaders = 4;
  std::vector<std::vector<BatchSample>> samples(kNumReaders);
  std::vector<Status> reader_errors(kNumReaders, Status::OK());
  std::vector<std::thread> readers;
  readers.reserve(kNumReaders);
  for (size_t r = 0; r < kNumReaders; ++r) {
    readers.emplace_back([&, r]() {
      FusionClient client;
      Status connected = client.Connect("127.0.0.1", server.port());
      if (!connected.ok()) {
        reader_errors[r] = connected;
        return;
      }
      Rng rng(2000 + r);
      while (!done.load(std::memory_order_relaxed)) {
        const size_t spec_index = rng.NextBounded(specs.size());
        // Triples below the prefix exist in every published snapshot, so
        // the query is valid no matter which snapshot answers it.
        std::vector<TripleId> triples;
        for (int i = 0; i < 16; ++i) {
          triples.push_back(static_cast<TripleId>(rng.NextBounded(prefix)));
        }
        auto reply = client.ScoreBatch(specs[spec_index].Name(), triples);
        if (!reply.ok()) {
          reader_errors[r] = reply.status();
          return;
        }
        // Past the sample cap, still keep the first reply from each
        // snapshot so every snapshot this reader saw gets verified.
        const uint64_t id = reply->snapshot_id;
        if (samples[r].size() < 300 || id != samples[r].back().snapshot_id) {
          samples[r].push_back(
              {id, spec_index, triples, std::move(reply->scores)});
          uint64_t seen = newest_recorded.load(std::memory_order_relaxed);
          while (seen < id && !newest_recorded.compare_exchange_weak(
                                  seen, id, std::memory_order_relaxed)) {
          }
        }
      }
    });
  }

  // Writer: stream the suffix in micro-batches behind the live server,
  // republishing after each, but only once a reader has recorded a reply
  // from the snapshot before. Snapshot ids grow with each publish, so the
  // newest recorded id reaching the last published one means a reply from
  // exactly that snapshot.
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
  for (size_t r = 0; r < kNumReaders; ++r) {
    EXPECT_TRUE(reader_errors[r].ok())
        << "reader " << r << ": " << reader_errors[r];
  }

  // Every networked batch matches the reference scores of the exact
  // snapshot that answered it.
  size_t verified = 0;
  std::set<uint64_t> verified_snapshots;
  for (const auto& reader_samples : samples) {
    for (const BatchSample& sample : reader_samples) {
      auto it = reference.find(sample.snapshot_id);
      ASSERT_NE(it, reference.end())
          << "reply from unpublished snapshot " << sample.snapshot_id;
      const std::vector<double>& expected = it->second[sample.spec_index];
      ASSERT_EQ(sample.scores.size(), sample.triples.size());
      for (size_t i = 0; i < sample.triples.size(); ++i) {
        ASSERT_LT(static_cast<size_t>(sample.triples[i]), expected.size());
        ASSERT_EQ(sample.scores[i], expected[sample.triples[i]])
            << "snapshot " << sample.snapshot_id << " spec "
            << specs[sample.spec_index].Name() << " triple "
            << sample.triples[i];
        ++verified;
      }
      verified_snapshots.insert(sample.snapshot_id);
    }
  }
  EXPECT_GT(verified, 0u) << "readers never completed a successful read";
  // The interleaving the test exists for: replies from every snapshot the
  // writer published (the initial one plus one per batch).
  EXPECT_EQ(reference.size(), kNumBatches + 1);
  EXPECT_EQ(verified_snapshots.size(), reference.size())
      << "replies came from " << verified_snapshots.size() << " of "
      << reference.size() << " published snapshots";

  // Graceful shutdown with readers gone and the writer idle.
  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_GE(server.counters().connections_accepted, kNumReaders);
}

}  // namespace
}  // namespace net
}  // namespace fuser
