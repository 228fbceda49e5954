// Crash consistency of snapshot saves, at K = 1 (FusionEngine) and K = 2, 4
// (ShardedFusionEngine). A save is one persist::WriteFileDurably call: the
// new bytes go to `<path>.tmp` and one rename commits them. So whatever
// point a save dies at, `path` holds generation A or generation B, never a
// mix. Two checks hold that line:
//
//  1. Deterministic: every prefix of B's file, cut at each section
//     boundary and inside each section, is what a crash can leave in
//     `<path>.tmp`. With it there, warm-starting from `path` reproduces
//     A's RunAll byte for byte; written at `path` itself, the same prefix
//     is refused with a Status.
//  2. Real kill: a forked child saves B over A and is SIGKILLed after a
//     seeded delay spread over 0-1.5x a measured save; each time the warm
//     start equals A or B exactly.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "model/dataset.h"
#include "persist/snapshot_io.h"
#include "shard/sharded_engine.h"
#include "synth/generator.h"

namespace fuser {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<MethodSpec> Lineup() {
  std::vector<MethodSpec> specs;
  for (const char* name : {"precrec", "precrec-corr", "elastic-2"}) {
    specs.push_back(*ParseMethodSpec(name));
  }
  return specs;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Thresholds and score vectors of one RunAll; equality is exact.
using Generation = std::vector<std::pair<double, std::vector<double>>>;

Generation Scores(const std::vector<FusionRun>& runs) {
  Generation out;
  for (const FusionRun& run : runs) out.emplace_back(run.threshold, run.scores);
  return out;
}

/// One trained engine at K shards (K = 1 is a plain FusionEngine), single
/// threaded so that fork() copies a process with no other threads.
class Topology {
 public:
  explicit Topology(uint32_t num_shards) : num_shards_(num_shards) {
    SyntheticConfig config = MakeIndependentConfig(
        /*num_sources=*/6, /*num_triples=*/500, /*fraction_true=*/0.4,
        /*precision=*/0.7, /*recall=*/0.45, /*seed=*/4100 + num_shards);
    config.num_domains = 17;
    dataset_ = std::move(GenerateSynthetic(config)).value();
    options_.model.use_scopes = true;
    options_.num_threads = 1;
  }

  Status Prepare() {
    if (num_shards_ == 1) {
      engine_ = std::make_unique<FusionEngine>(&dataset_, options_);
      FUSER_RETURN_IF_ERROR(engine_->Prepare(dataset_.labeled_mask()));
      return engine_->PublishSnapshot(Lineup()).status();
    }
    FUSER_ASSIGN_OR_RETURN(
        sharded_, ShardedFusionEngine::Create(
                      dataset_, ShardingOptions{num_shards_}, options_));
    FUSER_RETURN_IF_ERROR(sharded_->Prepare(dataset_.labeled_mask()));
    return sharded_->PublishSnapshot(Lineup()).status();
  }

  /// Moves to generation B: 40 observations on existing triples, so no
  /// count changes and only the scores tell the generations apart.
  Status Update() {
    ObservationBatch batch;
    for (TripleId t = 0; t < 40; ++t) {
      batch.observations.push_back(
          {std::string(dataset_.source_name(t % dataset_.num_sources())),
           Triple(dataset_.triple(t * 7)),
           std::string(dataset_.domain_name(dataset_.domain(t * 7)))});
    }
    if (num_shards_ == 1) {
      FUSER_RETURN_IF_ERROR(engine_->Update(batch));
      return engine_->PublishSnapshot(Lineup()).status();
    }
    FUSER_RETURN_IF_ERROR(sharded_->Update(batch));
    return sharded_->PublishSnapshot(Lineup()).status();
  }

  Status Save(const std::string& path) const {
    return num_shards_ == 1 ? engine_->SaveSnapshot(path)
                            : sharded_->SaveSnapshot(path);
  }

  StatusOr<Generation> RunAll() {
    FUSER_ASSIGN_OR_RETURN(std::vector<FusionRun> runs,
                           num_shards_ == 1 ? engine_->RunAll(Lineup())
                                            : sharded_->RunAll(Lineup()));
    return Scores(runs);
  }

  /// Warm-starts a fresh engine from `path` and runs the lineup on it.
  StatusOr<Generation> WarmRunAll(const std::string& path) const {
    if (num_shards_ == 1) {
      FUSER_ASSIGN_OR_RETURN(LoadedSnapshot loaded, LoadSnapshot(path));
      FusionEngine warm(loaded.dataset.get(), options_);
      FUSER_RETURN_IF_ERROR(warm.WarmStart(loaded));
      FUSER_ASSIGN_OR_RETURN(std::vector<FusionRun> runs,
                             warm.RunAll(Lineup()));
      return Scores(runs);
    }
    FUSER_ASSIGN_OR_RETURN(std::unique_ptr<ShardedFusionEngine> warm,
                           ShardedFusionEngine::WarmStart(path, options_));
    FUSER_ASSIGN_OR_RETURN(std::vector<FusionRun> runs,
                           warm->RunAll(Lineup()));
    return Scores(runs);
  }

 private:
  uint32_t num_shards_;
  Dataset dataset_;
  EngineOptions options_;
  std::unique_ptr<FusionEngine> engine_;
  std::unique_ptr<ShardedFusionEngine> sharded_;
};

/// Prefix lengths of a snapshot file worth cutting at: the header
/// boundaries, then each section's start, middle and end.
std::vector<size_t> CutPoints(const std::string& bytes) {
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 12, sizeof(count));
  const size_t table_end = 16 + size_t{32} * count;
  std::vector<size_t> cuts = {0, 8, 16, table_end, table_end + 8};
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t offset = 0, size = 0;
    std::memcpy(&offset, bytes.data() + 16 + i * 32 + 8, sizeof(offset));
    std::memcpy(&size, bytes.data() + 16 + i * 32 + 16, sizeof(size));
    cuts.push_back(offset);
    cuts.push_back(offset + size / 2);
    cuts.push_back(offset + size);
  }
  std::vector<size_t> prefixes;
  for (size_t cut : cuts) {
    if (cut < bytes.size()) prefixes.push_back(cut);
  }
  return prefixes;
}

class SnapshotCrashTest : public testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    const uint32_t k = GetParam();
    topology_ = std::make_unique<Topology>(k);
    path_ = TempPath("crash_k" + std::to_string(k) + ".snap");
    ASSERT_TRUE(topology_->Prepare().ok());
    ASSERT_TRUE(topology_->Save(path_).ok());
    a_bytes_ = ReadBytes(path_);
    auto a = topology_->RunAll();
    ASSERT_TRUE(a.ok()) << a.status();
    a_ = std::move(*a);

    ASSERT_TRUE(topology_->Update().ok());
    auto b = topology_->RunAll();
    ASSERT_TRUE(b.ok()) << b.status();
    b_ = std::move(*b);
    ASSERT_NE(a_, b_) << "the update must change the scores";
    const std::string b_path = path_ + ".b";
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(topology_->Save(b_path).ok());
    save_time_ = std::chrono::steady_clock::now() - start;
    b_bytes_ = ReadBytes(b_path);
    std::remove(b_path.c_str());
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  std::unique_ptr<Topology> topology_;
  std::string path_;
  std::string a_bytes_, b_bytes_;
  Generation a_, b_;
  std::chrono::steady_clock::duration save_time_{};
};

TEST_P(SnapshotCrashTest, TornTempFileLeavesTheOldGeneration) {
  const std::vector<size_t> cuts = CutPoints(b_bytes_);
  ASSERT_GT(cuts.size(), 8u);
  for (size_t cut : cuts) {
    const std::string prefix = b_bytes_.substr(0, cut);
    WriteBytes(path_ + ".tmp", prefix);
    auto warm = topology_->WarmRunAll(path_);
    ASSERT_TRUE(warm.ok()) << "cut " << cut << ": " << warm.status();
    EXPECT_TRUE(*warm == a_) << "cut " << cut << " changed generation A";

    WriteBytes(path_, prefix);
    EXPECT_FALSE(topology_->WarmRunAll(path_).ok())
        << "a " << cut << "-byte prefix at the path was accepted";
    WriteBytes(path_, a_bytes_);
  }
}

TEST_P(SnapshotCrashTest, KilledSaveLeavesOneWholeGeneration) {
  const auto max_delay = std::chrono::duration_cast<std::chrono::microseconds>(
                             save_time_ * 3 / 2)
                             .count();
  Rng rng(9100 + GetParam());
  int saw_a = 0, saw_b = 0;
  for (int round = 0; round < 8; ++round) {
    WriteBytes(path_, a_bytes_);
    const auto delay = std::chrono::microseconds(
        rng.NextBounded(static_cast<uint64_t>(max_delay) + 1));
    const pid_t child = fork();
    ASSERT_GE(child, 0) << "fork failed";
    if (child == 0) {
      _exit(topology_->Save(path_).ok() ? 0 : 1);
    }
    std::this_thread::sleep_for(delay);
    ASSERT_EQ(kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    auto warm = topology_->WarmRunAll(path_);
    ASSERT_TRUE(warm.ok()) << "kill after " << delay.count()
                           << " us: " << warm.status();
    const bool is_a = *warm == a_;
    const bool is_b = *warm == b_;
    EXPECT_TRUE(is_a || is_b)
        << "kill after " << delay.count() << " us left a mixed generation";
    saw_a += is_a;
    saw_b += is_b;
  }
  RecordProperty("generation_a", saw_a);
  RecordProperty("generation_b", saw_b);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, SnapshotCrashTest,
                         testing::Values(1u, 2u, 4u));

}  // namespace
}  // namespace fuser
