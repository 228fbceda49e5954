// fusebench: one run of one end-to-end benchmark workload.
//
//   fusebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> --out <raw.json>
//
// Every workload takes the system through its whole life, through the
// library's public API only:
//
//   1. build   corpus -> servable: (TSV parse ->) held-out split ->
//              Prepare -> model -> grouping -> publish -> held-out AUC ->
//              SaveSnapshot, repeated for a share of --seconds;
//   2. setup   snapshot file -> mmap attach -> WarmStart -> server Start
//              -> first correct reply, repeated;
//   3. serve   an open loop of ScoreBatch requests over two connections at
//              fixed rates, while a writer thread streams the held-back
//              tail of the corpus through Update + PublishSnapshot.
//
// Every reply is checked byte for byte against the scores FusionEngine::Run
// gives for the snapshot that answered it. The run writes raw samples
// (per-rep times, per-request timestamps, writer log, spans) to --out;
// perfbench/run.py reduces them to the reported metrics.
#include <poll.h>
#include <pthread.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iterator>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/clustering.h"
#include "core/engine.h"
#include "model/dataset_io.h"
#include "model/split.h"
#include "net/fusion_client.h"
#include "net/fusion_server.h"
#include "net/scoring_backend.h"
#include "net/wire.h"
#include "persist/snapshot_io.h"
#include "serving/fusion_service.h"
#include "shard/sharded_engine.h"
#include "shard/sharded_persist.h"
#include "shard/sharded_service.h"
#include "stats/curves.h"
#include "synth/generator.h"
#include "synth/stream_replay.h"
#include "trace.h"

namespace perfbench {
namespace {

using fuser::Dataset;
using fuser::EngineOptions;
using fuser::FusionEngine;
using fuser::MethodSpec;
using fuser::ObservationBatch;
using fuser::Status;
using fuser::StatusOr;
using fuser::TripleId;

// Host settings, fixed so that runs on one machine compare: never "auto".
// One engine thread: on the shared 4-core host a second one is not always
// scheduled, which made parallel stages bimodal from rep to rep, and beside
// two server workers and two client threads it starved the readers.
constexpr size_t kEngineThreads = 1;
constexpr size_t kServerWorkers = 2;
constexpr size_t kConnections = 2;
constexpr uint32_t kShards = 4;
constexpr double kTrainFraction = 0.5;
constexpr double kTailFraction = 0.1;
constexpr int64_t kWarmupNs = 500000000;
constexpr size_t kRounds = 3;  // passes up the rate ladders
// The tail is cut into this many micro-batches, due evenly over the serve
// phase.
constexpr size_t kTailBatches = 40;
constexpr const char* kReadMethod = "precrec-corr";
const char* const kLineup[] = {"precrec", "precrec-corr", "elastic-2"};
// Request batch sizes. Each serve step sends one size only, so that the
// server CPU of a step belongs to that size and a change to the fixed
// per-request cost is not hidden under the cost of large batches.
constexpr uint16_t kBatchSizes[] = {1, 64, 1024};
constexpr size_t kNumSizes = std::size(kBatchSizes);
// Each size's rate ladder: these multiples of its middle rate.
constexpr double kLadder[] = {0.5, 1.0, 2.0};

enum class Input { kTsv, kMemory };
enum class Shape { kTwelveSources, kManySources };

struct Workload {
  const char* name;
  Input input;
  Shape shape;
  uint32_t shards;     // 1 = the unsharded engine
  double build_share;  // share of --seconds spent repeating the build
  // The middle rate (req/s) of each batch size, in kBatchSizes order: the
  // rate at which that size keeps the two server workers about a tenth
  // busy (0.2 CPU-seconds per second), from the server CPU per request of
  // each size as first measured (perfbench/README.md). The ladder then
  // spans about 5-20% load.
  double middle_rates[kNumSizes];
};

// Sizes: the 12-source corpus realizes ~172k triples (~155k in the built
// prefix); the 256-source corpus ~80k triples (~72k built) with ~13
// providers each.
// Both are sized so that a run repeats its build a dozen times or more: on
// a shared host single builds vary by a quarter, and larger corpora (500k
// and 144k triples) moved the per-run median by 15-25% from run to run.
const Workload kWorkloads[] = {
    {"build_tsv", Input::kTsv, Shape::kTwelveSources, 1, 0.6,
     {6000, 2400, 400}},
    {"build_correlated", Input::kMemory, Shape::kManySources, 1, 0.5,
     {3600, 480, 45}},
    {"ingest_sharded", Input::kMemory, Shape::kTwelveSources, kShards, 0.4,
     {6000, 2400, 400}},
};

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "fusebench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(StatusOr<T> value, const std::string& what) {
  if (!value.ok()) Die(what, value.status());
  return std::move(*value);
}

void Must(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

EngineOptions MakeEngineOptions() {
  EngineOptions options;
  options.model.enable_clustering = true;  // exact pairwise discovery
  // At the default cap of 20 the 256-source corpus chains one to three
  // clusters up to the cap, a count that varies with the seed and moves
  // the build time by half; a cap of 10 keeps that cost seed-independent.
  options.model.clustering.max_cluster_size = 10;
  options.num_threads = kEngineThreads;
  return options;
}

std::vector<MethodSpec> Lineup() {
  std::vector<MethodSpec> specs;
  for (const char* name : kLineup) {
    specs.push_back(Must(fuser::ParseMethodSpec(name), name));
  }
  return specs;
}

fuser::SyntheticConfig CorpusConfig(Shape shape, uint64_t seed) {
  if (shape == Shape::kManySources) {
    fuser::SyntheticConfig config = fuser::MakeManySourcesConfig(
        /*num_sources=*/256, /*num_triples=*/80000, seed);
    // Weaker sources than the generator's (precision 0.6-0.85, ~19
    // providers per triple), on which every method ranks the held-out gold
    // perfectly: precision 0.4-0.65 and recall 1/16 give ~13 providers per
    // triple and a held-out AUC-PR near 0.95 for precrec-corr, against
    // about 0.90 for precrec, which ignores the correlations.
    for (size_t s = 0; s < config.sources.size(); ++s) {
      config.sources[s].precision =
          0.4 + 0.25 * static_cast<double>(s % 8) / 7.0;
      config.sources[s].recall = 16.0 / 256.0;
    }
    return config;
  }
  fuser::SyntheticConfig config = fuser::MakeIndependentConfig(
      /*num_sources=*/12, /*num_triples=*/200000, /*fraction_true=*/0.4,
      /*precision=*/0.7, /*recall=*/0.45, seed);
  // One positively correlated group per class.
  config.groups_true = {{{0, 1, 2}, 0.85}};
  config.groups_false = {{{3, 4, 5}, 0.8}};
  // Entity domains give the sharded router something to partition by.
  config.num_domains = 96;
  // A partial gold standard, as in the paper's datasets.
  config.labeled_true = 14000;
  config.labeled_false = 21000;
  return config;
}

// ---------------------------------------------------------------------------
// Peak resident memory of the measured phases.
// ---------------------------------------------------------------------------

/// A "<key> <n> kB" line of /proc/self/status, in KiB.
long StatusKiB(const char* key) {
  long kib = -1;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    const size_t len = std::strlen(key);
    while (kib < 0 && std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, key, len) == 0) {
        kib = std::strtol(line + len, nullptr, 10);
      }
    }
    std::fclose(f);
  }
  if (kib < 0) Die("peak memory", Status::IoError(std::string(key) +
                                                  " not in /proc/self/status"));
  return kib;
}

/// Resets the kernel's resident high-water mark (VmHWM) to the current
/// resident size, so that the peak read at the end leaves out input
/// generation. Fails the run when the reset does not take.
void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  const bool written = f != nullptr && std::fputs("5", f) >= 0;
  const bool closed = f != nullptr && std::fclose(f) == 0;
  // After a reset the mark is the resident size, give or take what was
  // touched in between.
  if (!written || !closed || StatusKiB("VmHWM:") > StatusKiB("VmRSS:") + 1024) {
    Die("peak memory", Status::IoError(
                           "resetting VmHWM through /proc/self/clear_refs "
                           "failed"));
  }
}

double PeakRssMiB() { return static_cast<double>(StatusKiB("VmHWM:")) / 1024.0; }

/// Host-wide (steal, total) jiffies from /proc/stat: how much CPU time the
/// hypervisor took from the vCPUs of the machine the benchmark runs on.
std::pair<double, double> HostSteal() {
  std::pair<double, double> out{0.0, 0.0};
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    double v[8] = {0};
    if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      out = {v[7], v[0] + v[1] + v[2] + v[3] + v[4] + v[5] + v[6] + v[7]};
    }
    std::fclose(f);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reference scores: FusionEngine::Run's answer for each published snapshot,
// dictionary-coded so that one per publish stays small.
// ---------------------------------------------------------------------------

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

class Reference {
 public:
  explicit Reference(const std::vector<double>& scores) {
    std::unordered_map<uint64_t, uint16_t> codes;
    codes16_.reserve(scores.size());
    for (double s : scores) {
      auto [it, inserted] =
          codes.emplace(Bits(s), static_cast<uint16_t>(dict_.size()));
      if (inserted) {
        if (dict_.size() == 65535) {  // too many distinct values to code
          raw_ = scores;
          codes16_.clear();
          dict_.clear();
          return;
        }
        dict_.push_back(s);
      }
      codes16_.push_back(it->second);
    }
  }

  size_t size() const { return raw_.empty() ? codes16_.size() : raw_.size(); }
  double At(TripleId t) const {
    return raw_.empty() ? dict_[codes16_[t]] : raw_[t];
  }

 private:
  std::vector<double> dict_;
  std::vector<uint16_t> codes16_;
  std::vector<double> raw_;  // used when there are too many distinct values
};

enum class Verdict { kMatch, kMismatch, kUnknown };

class ReferenceBook {
 public:
  void Add(uint64_t snapshot_id, const std::vector<double>& scores) {
    auto reference = std::make_shared<const Reference>(scores);
    std::lock_guard<std::mutex> lock(mu_);
    book_[snapshot_id] = std::move(reference);
  }

  Verdict Check(uint64_t snapshot_id, const TripleId* triples, size_t n,
                const std::vector<double>& scores) const {
    std::shared_ptr<const Reference> reference;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = book_.find(snapshot_id);
      if (it == book_.end()) return Verdict::kUnknown;
      reference = it->second;
    }
    if (scores.size() != n) return Verdict::kMismatch;
    for (size_t i = 0; i < n; ++i) {
      if (triples[i] >= reference->size() ||
          Bits(reference->At(triples[i])) != Bits(scores[i])) {
        return Verdict::kMismatch;
      }
    }
    return Verdict::kMatch;
  }

  bool Has(uint64_t snapshot_id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return book_.count(snapshot_id) > 0;
  }

  /// Forgets the references of snapshots older than `snapshot_id`.
  void DropBelow(uint64_t snapshot_id) {
    std::lock_guard<std::mutex> lock(mu_);
    book_.erase(book_.begin(), book_.lower_bound(snapshot_id));
  }

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const Reference>> book_;  // by mu_
};

// ---------------------------------------------------------------------------
// Tiny JSON emitter for the raw record.
// ---------------------------------------------------------------------------

class Json {
 public:
  void Key(const char* key) {
    Sep();
    out_ += '"';
    out_ += key;
    out_ += "\":";
    fresh_ = true;
  }
  void Num(double v) {
    Sep();
    if (!std::isfinite(v)) {
      out_ += "null";
      return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
  }
  void Int(int64_t v) {
    Sep();
    out_ += std::to_string(v);
  }
  void Str(const std::string& v) {
    Sep();
    out_ += '"';
    out_ += v;
    out_ += '"';
  }
  void Open(char bracket) {
    Sep();
    out_ += bracket;
    fresh_ = true;
  }
  void Close(char bracket) {
    out_ += bracket;
    fresh_ = false;
  }
  template <typename T>
  void Nums(const char* key, const std::vector<T>& values) {
    Key(key);
    Open('[');
    for (T v : values) {
      if constexpr (std::is_floating_point_v<T>) {
        Num(v);
      } else {
        Int(static_cast<int64_t>(v));
      }
    }
    Close(']');
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

struct PhaseCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// ---------------------------------------------------------------------------
// Phase 1: build (corpus -> saved servable snapshot).
// ---------------------------------------------------------------------------

struct Paths {
  std::string observations;
  std::string gold;
  std::string snapshot;
};

struct BuildResult {
  double seconds = 0.0;
  double auc_pr = 0.0;
  std::vector<double> reference;  // precrec-corr scores of the saved state
  size_t clusters = 0;
  size_t distinct_patterns = 0;
  double bytes_per_triple = 0.0;
};

BuildResult BuildUnsharded(const Workload& workload, const Dataset* memory,
                           const Paths& paths, uint64_t seed) {
  const int64_t start = NowNs();
  BuildResult result;
  {
    Span root("bench.build");
    std::unique_ptr<Dataset> loaded;
    const Dataset* dataset = memory;
    if (workload.input == Input::kTsv) {
      Span span("model.load");
      loaded = std::make_unique<Dataset>(
          Must(fuser::LoadDataset(paths.observations, paths.gold),
               "LoadDataset"));
      dataset = loaded.get();
    }
    fuser::TrainTestSplit split;
    {
      Span span("model.split");
      fuser::Rng rng(seed);
      split = Must(fuser::StratifiedSplit(*dataset, kTrainFraction, &rng),
                   "StratifiedSplit");
    }
    FusionEngine engine(dataset, MakeEngineOptions());
    {
      Span span("core.prepare");
      Must(engine.Prepare(split.train), "Prepare");
    }
    const fuser::CorrelationModel* model = nullptr;
    {
      Span span("core.model");
      model = Must(engine.GetModel(), "GetModel");
    }
    const fuser::PatternGrouping* grouping = nullptr;
    {
      Span span("core.grouping");
      grouping = Must(engine.GetPatternGrouping(), "GetPatternGrouping");
    }
    {
      Span span("core.publish");
      Must(engine.PublishSnapshot(Lineup()), "PublishSnapshot");
    }
    fuser::FusionRun run;
    {
      Span span("core.run");
      run = Must(engine.Run(Must(fuser::ParseMethodSpec(kReadMethod), "spec")),
                 "Run");
    }
    {
      Span span("stats.evaluate");
      result.auc_pr = Must(engine.Evaluate(run, split.test), "Evaluate").auc_pr;
    }
    {
      Span span("persist.save");
      Must(engine.SaveSnapshot(paths.snapshot), "SaveSnapshot");
    }
    result.reference = std::move(run.scores);
    result.clusters = model->clustering.clusters.size();
    result.distinct_patterns = grouping->TotalDistinct();
    result.bytes_per_triple =
        static_cast<double>(dataset->MemoryStats().total_bytes) /
        static_cast<double>(dataset->num_triples());
  }
  result.seconds = Seconds(NowNs() - start);
  return result;
}

BuildResult BuildSharded(const Dataset& memory, const Paths& paths,
                         uint64_t seed) {
  const int64_t start = NowNs();
  BuildResult result;
  {
    Span root("bench.build");
    fuser::TrainTestSplit split;
    {
      Span span("model.split");
      fuser::Rng rng(seed);
      split = Must(fuser::StratifiedSplit(memory, kTrainFraction, &rng),
                   "StratifiedSplit");
    }
    std::unique_ptr<fuser::ShardedFusionEngine> engine;
    {
      Span span("shard.partition");
      fuser::ShardingOptions sharding;
      sharding.num_shards = kShards;
      engine = Must(fuser::ShardedFusionEngine::Create(memory, sharding,
                                                       MakeEngineOptions()),
                    "ShardedFusionEngine::Create");
    }
    {
      Span span("shard.prepare");
      Must(engine->Prepare(split.train), "sharded Prepare");
    }
    std::shared_ptr<const fuser::ShardedSnapshot> published;
    {
      Span span("shard.publish");
      published = Must(engine->PublishSnapshot(Lineup()),
                       "sharded PublishSnapshot");
    }
    fuser::FusionRun run;
    {
      Span span("shard.run");
      run = Must(
          engine->Run(Must(fuser::ParseMethodSpec(kReadMethod), "spec")),
          "sharded Run");
    }
    {
      Span span("stats.evaluate");
      result.auc_pr = Must(fuser::ComputeRankedCurves(memory, run.scores,
                                                      split.test),
                           "ComputeRankedCurves")
                          .auc_pr;
    }
    {
      Span span("shard.save");
      Must(engine->SaveSnapshot(paths.snapshot), "sharded SaveSnapshot");
    }
    result.reference = std::move(run.scores);
    const fuser::FusionSnapshot& shard0 = *published->shards[0];
    result.clusters = shard0.model ? shard0.model->clustering.clusters.size()
                                   : 0;
    double bytes = 0.0;
    for (const auto& shard : published->shards) {
      if (shard->grouping) result.distinct_patterns += shard->grouping->TotalDistinct();
    }
    for (size_t k = 0; k < engine->num_shards(); ++k) {
      bytes += static_cast<double>(
          engine->shard_engine(k)->dataset()->MemoryStats().total_bytes);
    }
    result.bytes_per_triple = bytes / static_cast<double>(memory.num_triples());
  }
  result.seconds = Seconds(NowNs() - start);
  return result;
}

// ---------------------------------------------------------------------------
// Phase 2: setup. A LiveSystem is one restarted, serving process state.
// ---------------------------------------------------------------------------

class LiveSystem {
 public:
  LiveSystem(const LiveSystem&) = delete;
  LiveSystem& operator=(const LiveSystem&) = delete;
  ~LiveSystem() {
    if (server_) server_->Stop();
  }

  /// Snapshot file -> attach -> WarmStart -> server Start. Unsharded
  /// snapshots attach zero-copy (kMmap); the sharded manifest attaches
  /// through ShardedFusionEngine::WarmStart.
  static std::unique_ptr<LiveSystem> Start(const std::string& snapshot,
                                           uint32_t shards) {
    std::unique_ptr<LiveSystem> sys(new LiveSystem());
    if (shards == 1) {
      {
        Span span("persist.attach");
        fuser::LoadOptions options;
        options.attach = fuser::AttachMode::kMmap;
        sys->loaded_ = std::make_unique<fuser::LoadedSnapshot>(
            Must(fuser::LoadSnapshot(snapshot, options), "LoadSnapshot"));
      }
      {
        Span span("persist.warmstart");
        sys->engine_ = std::make_unique<FusionEngine>(
            sys->loaded_->dataset.get(), MakeEngineOptions());
        Must(sys->engine_->WarmStart(*sys->loaded_), "WarmStart");
      }
      sys->service_ = std::make_unique<fuser::FusionService>(sys->engine_.get());
      sys->backend_ =
          std::make_unique<fuser::net::ServiceBackend>(sys->service_.get());
    } else {
      {
        Span span("shard.attach");
        sys->sharded_ = Must(fuser::ShardedFusionEngine::WarmStart(
                                 snapshot, MakeEngineOptions()),
                             "sharded WarmStart");
      }
      sys->sharded_service_ =
          std::make_unique<fuser::ShardedFusionService>(sys->sharded_.get());
      sys->backend_ = std::make_unique<fuser::net::ShardedServiceBackend>(
          sys->sharded_service_.get(), shards);
    }
    {
      Span span("net.server_start");
      fuser::net::FusionServerOptions options;
      options.num_workers = kServerWorkers;
      sys->server_ = std::make_unique<fuser::net::FusionServer>(
          sys->backend_.get(), options);
      Must(sys->server_->Start(), "FusionServer::Start");
    }
    return sys;
  }

  uint16_t port() const { return server_->port(); }
  bool sharded() const { return sharded_ != nullptr; }

  Status Update(const ObservationBatch& batch) {
    return sharded_ ? sharded_->Update(batch) : engine_->Update(batch);
  }

  /// PublishSnapshot of the lineup; returns the servable snapshot's id.
  StatusOr<uint64_t> Publish() {
    if (sharded_) {
      FUSER_ASSIGN_OR_RETURN(auto snapshot, sharded_->PublishSnapshot(Lineup()));
      return snapshot->id;
    }
    FUSER_ASSIGN_OR_RETURN(auto snapshot, engine_->PublishSnapshot(Lineup()));
    return snapshot->id;
  }

  /// The id of the snapshot reads are answered from right now.
  uint64_t ServableId() const {
    return sharded_ ? sharded_->CurrentServableSnapshot()->id
                    : engine_->CurrentServableSnapshot()->id;
  }

  /// FusionEngine::Run of the read method on the current state.
  StatusOr<std::vector<double>> Reference() {
    const MethodSpec spec = Must(fuser::ParseMethodSpec(kReadMethod), "spec");
    FUSER_ASSIGN_OR_RETURN(fuser::FusionRun run,
                           sharded_ ? sharded_->Run(spec) : engine_->Run(spec));
    return std::move(run.scores);
  }

  /// In-process ScoreBatch through the same service the server uses.
  StatusOr<std::vector<double>> ScoreInProcess(
      const std::vector<TripleId>& triples) const {
    const MethodSpec spec = Must(fuser::ParseMethodSpec(kReadMethod), "spec");
    FUSER_ASSIGN_OR_RETURN(fuser::net::BackendBatch batch,
                           backend_->ScoreBatch(spec, triples));
    return std::move(batch.scores);
  }

  size_t updates_applied() const {
    return sharded_ ? sharded_->updates_applied() : engine_->updates_applied();
  }
  size_t full_invalidations() const {
    return sharded_ ? sharded_->full_invalidations()
                    : engine_->full_invalidations();
  }
  fuser::net::ServerCounters counters() const { return server_->counters(); }

 private:
  LiveSystem() = default;

  // Declaration order is teardown order in reverse: the server stops
  // before the services and engines it reads from go away.
  std::unique_ptr<fuser::LoadedSnapshot> loaded_;
  std::unique_ptr<FusionEngine> engine_;
  std::unique_ptr<fuser::FusionService> service_;
  std::unique_ptr<fuser::ShardedFusionEngine> sharded_;
  std::unique_ptr<fuser::ShardedFusionService> sharded_service_;
  std::unique_ptr<fuser::net::ScoringBackend> backend_;
  std::unique_ptr<fuser::net::FusionServer> server_;
};

/// Asks the freshly started server for a batch and checks the reply against
/// the build's reference. True when the reply is byte-identical.
bool FirstReplyCorrect(uint16_t port, const std::vector<double>& reference) {
  Span span("net.first_reply");
  fuser::net::FusionClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return false;
  std::vector<TripleId> triples;
  const size_t n = reference.size();
  for (size_t i = 0; i < 64; ++i) {
    triples.push_back(static_cast<TripleId>((i * 7919u) % n));
  }
  auto reply = client.ScoreBatch(kReadMethod, triples);
  if (!reply.ok() || reply->scores.size() != triples.size()) return false;
  for (size_t i = 0; i < triples.size(); ++i) {
    if (Bits(reply->scores[i]) != Bits(reference[triples[i]])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Phase 3: serve. An open loop per connection plus a streaming writer.
// ---------------------------------------------------------------------------

struct Request {
  int64_t due_ns = 0;   // when the schedule says to send it
  int64_t sent_ns = 0;  // when its frame went into the socket buffer
  int64_t recv_ns = 0;  // when its reply was decoded (0 = none)
  uint64_t snapshot_id = 0;
  uint64_t seed = 0;    // its triple ids are drawn from Rng(seed)
  uint8_t failed = 0;
};

/// The triple ids of a request, drawn again from its seed whenever they are
/// needed, so that no pool of ids stays resident beside the library.
void RequestTriples(uint64_t seed, uint16_t size, size_t num_triples,
                    std::vector<TripleId>* out) {
  fuser::Rng rng(seed);
  out->resize(size);
  for (TripleId& t : *out) t = static_cast<TripleId>(rng.NextBounded(num_triples));
}

struct Deferred {
  size_t request = 0;
  uint64_t snapshot_id = 0;
  std::vector<double> scores;
};

struct ConnectionLoad {
  std::vector<Request> requests;
  std::vector<Deferred> deferred;  // replies whose reference was not ready
  uint16_t size = 0;               // triples per request
  size_t num_triples = 0;          // ids are drawn from [0, num_triples)
  uint64_t first_request_id = 0;
  double cpu_s = 0.0;  // CPU time of the client thread that drove it
};

/// The step's schedule for one connection: evenly spaced requests of `size`
/// triples at rate/kConnections over [0, duration_ns), the connections
/// offset by half an interval.
ConnectionLoad PlanConnection(double rate, int64_t duration_ns,
                              size_t connection, uint16_t size,
                              size_t num_triples, fuser::Rng* rng) {
  ConnectionLoad load;
  load.size = size;
  load.num_triples = num_triples;
  const double interval_ns = 1e9 * static_cast<double>(kConnections) / rate;
  const double phase = interval_ns * static_cast<double>(connection) /
                       static_cast<double>(kConnections);
  for (size_t i = 0;; ++i) {
    const int64_t due = static_cast<int64_t>(
        phase + interval_ns * static_cast<double>(i));
    if (due >= duration_ns) break;
    Request request;
    request.due_ns = due;
    request.seed = rng->NextUint64();
    load.requests.push_back(request);
  }
  return load;
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Drives one connection through its schedule: sends each request when it
/// is due (never waiting for replies), reads replies as they come, checks
/// every reply against the reference book. Returns when every request has
/// been answered or `give_up_ns` passes; unanswered requests fail.
void RunConnection(int fd, ConnectionLoad* load, const ReferenceBook& book,
                   int64_t give_up_ns, bool trace) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);  // wake on time, not +50us
  const double cpu_start = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  std::vector<Request>& reqs = load->requests;
  const size_t n = reqs.size();
  size_t next = 0;     // next request to send
  size_t answered = 0; // replies arrive in request order
  std::string out;
  size_t out_off = 0;
  fuser::net::FrameReader reader;
  std::vector<char> buf(1 << 16);
  std::vector<TripleId> triples;
  bool broken = false;
  while (answered < n && !broken) {
    int64_t now = NowNs();
    if (now >= give_up_ns) break;
    while (next < n && reqs[next].due_ns <= now) {
      Request& r = reqs[next];
      const uint64_t id = load->first_request_id + next;
      RequestTriples(r.seed, load->size, load->num_triples, &triples);
      {
        Span span("net.encode", id, trace && next % 2 == 0);
        fuser::net::ScoreBatchRequest request;
        request.request_id = id;
        request.method = kReadMethod;
        request.triples = triples;
        out += fuser::net::EncodeFrame(fuser::net::MessageType::kScoreBatch,
                                       request.Encode());
      }
      r.sent_ns = NowNs();
      ++next;
    }
    while (out_off < out.size()) {
      const ssize_t w = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (w > 0) {
        out_off += static_cast<size_t>(w);
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else {
        broken = true;
        break;
      }
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
    now = NowNs();
    int64_t wait_ns = give_up_ns - now;
    if (next < n) wait_ns = std::min(wait_ns, reqs[next].due_ns - now);
    if (wait_ns < 0) wait_ns = 0;
    pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
    const timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                      static_cast<long>(wait_ns % 1000000000)};
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) {
      if (ready > 0 && (pfd.revents & (POLLERR | POLLHUP))) broken = true;
      continue;
    }
    const ssize_t got = ::recv(fd, buf.data(), buf.size(), MSG_DONTWAIT);
    if (got == 0 || (got < 0 && errno != EAGAIN && errno != EINTR)) {
      broken = true;
      continue;
    }
    if (got < 0) continue;
    const int64_t recv_ns = NowNs();
    reader.Append(buf.data(), static_cast<size_t>(got));
    while (answered < n) {
      fuser::net::WireFrame frame;
      const uint64_t expect = load->first_request_id + answered;
      const int64_t decode_start = NowNs();
      StatusOr<bool> have = reader.Next(&frame);
      if (!have.ok()) {
        broken = true;
        break;
      }
      if (!*have) break;
      Request& r = reqs[answered];
      r.recv_ns = recv_ns;
      fuser::net::ScoreBatchReply reply;
      const bool decoded =
          frame.type == fuser::net::MessageType::kScoreBatchReply &&
          reply.Decode(frame.payload).ok();
      if (trace && answered % 2 == 0) {
        // Recorded by hand: the span must cover only calls that produced
        // a frame, not the polls that found none.
        SpanRecord record;
        record.name = "net.decode";
        record.start_ns = decode_start;
        record.end_ns = NowNs();
        record.id = Tracer::Get().NextId();
        record.request = expect;
        Tracer::Get().Record(record);
      }
      if (!decoded || reply.request_id != expect || answered >= next) {
        r.failed = 1;
      } else {
        r.snapshot_id = reply.snapshot_id;
        RequestTriples(r.seed, load->size, load->num_triples, &triples);
        const Verdict verdict = book.Check(reply.snapshot_id, triples.data(),
                                           triples.size(), reply.scores);
        if (verdict == Verdict::kMismatch) r.failed = 1;
        if (verdict == Verdict::kUnknown) {
          load->deferred.push_back(
              {answered, reply.snapshot_id, std::move(reply.scores)});
        }
      }
      ++answered;
    }
  }
  for (size_t i = answered; i < n; ++i) reqs[i].failed = 1;
  load->cpu_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu_start;
}

struct WriterEntry {
  int64_t start_ns = 0;  // Update call
  double update_s = 0.0;
  double publish_s = 0.0;
  size_t observations = 0;
  uint64_t snapshot_id = 0;
  bool failed = false;
};

/// One streamed micro-batch of the held-back tail, as TSV files.
struct TailBatch {
  std::string observations;
  std::string gold;
};

/// The triples [lo, hi) of `full` with their providers and labels, as a
/// dataset of their own (every source of `full` registered, in order).
Dataset RangeDataset(const Dataset& full, TripleId lo, TripleId hi) {
  Dataset part;
  for (fuser::SourceId s = 0; s < full.num_sources(); ++s) {
    part.AddSource(full.source_name(s));
  }
  for (TripleId t = lo; t < hi; ++t) {
    const TripleId nt =
        part.AddTriple(full.triple(t), full.domain_name(full.domain(t)));
    for (fuser::SourceId s : full.providers(t)) part.Provide(s, nt);
    if (full.label(t) != fuser::Label::kUnknown) {
      part.SetLabel(nt, full.label(t) == fuser::Label::kTrue);
    }
  }
  Must(part.Finalize(), "Finalize tail batch");
  return part;
}

/// Streams the tail batches due evenly over [start_ns, end_ns), each loaded
/// from its files when it comes due, recording a reference after each
/// publish. A batch that comes due while the previous one is still being
/// applied starts as soon as that one is done.
void RunWriter(LiveSystem* sys, const std::vector<TailBatch>& batches,
               int64_t start_ns, int64_t end_ns, ReferenceBook* book,
               std::vector<WriterEntry>* log) {
  const size_t count = batches.size();
  for (size_t k = 0; k < count; ++k) {
    const int64_t due = start_ns + (end_ns - start_ns) *
                                       static_cast<int64_t>(k) /
                                       static_cast<int64_t>(count);
    if (due >= end_ns) break;
    int64_t now = NowNs();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    if (NowNs() >= end_ns) break;
    WriterEntry entry;
    StatusOr<ObservationBatch> batch = Status::OK();
    {
      Span span("model.batch_load");
      batch = fuser::LoadObservationBatch(batches[k].observations,
                                          batches[k].gold);
    }
    Status updated = batch.status();
    if (updated.ok()) {
      entry.observations = batch->observations.size();
      entry.start_ns = NowNs();
      Span span(sys->sharded() ? "shard.update" : "core.update");
      updated = sys->Update(*batch);
    }
    const int64_t mid = NowNs();
    StatusOr<uint64_t> published = Status::OK();
    if (updated.ok()) {
      Span span(sys->sharded() ? "shard.republish" : "core.republish");
      published = sys->Publish();
    }
    const int64_t end = NowNs();
    entry.update_s = Seconds(mid - entry.start_ns);
    entry.publish_s = Seconds(end - mid);
    if (!updated.ok() || !published.ok()) {
      std::fprintf(stderr, "fusebench: writer batch %zu failed: %s\n", k,
                   (updated.ok() ? published.status() : updated).ToString().c_str());
      entry.failed = true;
      log->push_back(entry);
      return;  // the engine state is no longer known; stop writing
    }
    entry.snapshot_id = *published;
    {
      Span span(sys->sharded() ? "shard.run_reference" : "core.run_reference");
      auto reference = sys->Reference();
      if (!reference.ok()) {
        entry.failed = true;
        log->push_back(entry);
        return;
      }
      book->Add(entry.snapshot_id, *reference);
    }
    log->push_back(entry);
  }
}

struct StepResult {
  bool warmup = false;
  uint16_t batch = 0;   // triples per request
  double rate = 0.0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double server_cpu_s = 0.0;  // CPU the server spent in the step
  std::vector<ConnectionLoad> connections;
};

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && !args->out.empty() &&
         args->seconds > 0.0;
}

void WriteSpans(Json* json, const std::vector<SpanRecord>& spans,
                int64_t origin_ns) {
  json->Key("spans");
  json->Open('[');
  for (const SpanRecord& s : spans) {
    json->Open('[');
    json->Str(s.name);
    json->Int(s.start_ns - origin_ns);
    json->Int(s.end_ns - origin_ns);
    json->Int(static_cast<int64_t>(s.id));
    json->Int(static_cast<int64_t>(s.parent));
    json->Int(static_cast<int64_t>(s.request));
    json->Close(']');
  }
  json->Close(']');
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fusebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --workdir <dir> --out <raw.json>\n");
    return 2;
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "fusebench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& workload = *found;
  Tracer::Get().set_enabled(args.trace);
  ::mkdir(args.workdir.c_str(), 0755);
  Paths paths{args.workdir + "/observations.tsv", args.workdir + "/gold.tsv",
              args.workdir + "/fusion.snap"};

  // ---- Inputs, generated from the seed (untimed). The held-back tail
  // goes to one pair of TSV files per micro-batch, which the writer loads
  // when each comes due, so the generated corpus is freed before the
  // measured phases; only the built prefix stays resident, and only when
  // the workload builds from memory. ----
  TripleId total = 0;
  size_t num_sources = 0;
  std::unique_ptr<Dataset> base;
  std::vector<TailBatch> tail;
  {
    const Dataset full = Must(
        fuser::GenerateSynthetic(CorpusConfig(workload.shape, args.seed)),
        "GenerateSynthetic");
    total = static_cast<TripleId>(full.num_triples());
    num_sources = full.num_sources();
    const TripleId base_n = static_cast<TripleId>(
        static_cast<double>(total) * (1.0 - kTailFraction));
    Dataset prefix = Must(fuser::PrefixDataset(full, base_n), "PrefixDataset");
    if (workload.input == Input::kTsv) {
      Must(fuser::SaveObservations(prefix, paths.observations),
           "SaveObservations");
      Must(fuser::SaveGold(prefix, paths.gold), "SaveGold");
    } else {
      base = std::make_unique<Dataset>(std::move(prefix));
    }
    const uint64_t tail_len = total - base_n;
    for (size_t k = 0; k < kTailBatches; ++k) {
      const TripleId lo = base_n + static_cast<TripleId>(tail_len * k / kTailBatches);
      const TripleId hi =
          base_n + static_cast<TripleId>(tail_len * (k + 1) / kTailBatches);
      const std::string stem = args.workdir + "/tail-" + std::to_string(k);
      TailBatch batch{stem + ".obs.tsv", stem + ".gold.tsv"};
      const Dataset part = RangeDataset(full, lo, hi);
      Must(fuser::SaveObservations(part, batch.observations), "SaveObservations");
      Must(fuser::SaveGold(part, batch.gold), "SaveGold");
      tail.push_back(std::move(batch));
    }
  }
  ResetPeakRss();
  const auto steal_start = HostSteal();
  const int64_t origin = NowNs();
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  std::map<std::string, PhaseCount> phases;

  // ---- Phase 1: build, repeated. A traced run alternates traced and
  // untraced reps so the tracing overhead can be read off one run. ----
  std::vector<double> build_s, build_traced_s;
  BuildResult built;
  std::vector<double> first_reference;
  const int64_t build_end =
      origin + static_cast<int64_t>(workload.build_share *
                                    static_cast<double>(budget_ns));
  for (size_t rep = 0; rep < 3 || NowNs() < build_end; ++rep) {
    const bool traced = args.trace && rep % 2 == 1;
    Tracer::Get().set_enabled(traced);
    built = workload.shards == 1
                ? BuildUnsharded(workload, base.get(), paths, args.seed)
                : BuildSharded(*base, paths, args.seed);
    (traced ? build_traced_s : build_s).push_back(built.seconds);
    ++phases["build"].attempted;
    // Every rep builds from the same input, so its scores must repeat the
    // first rep's bit for bit.
    if (rep == 0) first_reference = built.reference;
    if (!std::isfinite(built.auc_pr) ||
        built.reference.size() != first_reference.size() ||
        std::memcmp(built.reference.data(), first_reference.data(),
                    first_reference.size() * sizeof(double)) != 0) {
      ++phases["build"].failed;
    }
    if (rep >= 60) break;
  }
  Tracer::Get().set_enabled(args.trace);
  const size_t served_triples = built.reference.size();

  // Probes for the traced run: calls the build path hides or bypasses.
  double parse_s = 0.0, discovery_s = 0.0;
  if (args.trace) {
    if (workload.input == Input::kTsv) {
      Span span("model.parse");
      const int64_t t0 = NowNs();
      Must(fuser::LoadObservationBatch(paths.observations, paths.gold),
           "LoadObservationBatch");
      parse_s = Seconds(NowNs() - t0);
    }
    if (base != nullptr) {
      Span span("core.discovery");
      fuser::Rng rng(args.seed);
      const auto split =
          Must(fuser::StratifiedSplit(*base, kTrainFraction, &rng), "split");
      const fuser::ModelOptions model = MakeEngineOptions().model;
      const int64_t t0 = NowNs();
      Must(fuser::ClusterSourcesByCorrelation(
               *base, split.train, model.ToJointStatsOptions(),
               model.clustering),
           "ClusterSourcesByCorrelation");
      discovery_s = Seconds(NowNs() - t0);
    }
  }
  std::remove(paths.observations.c_str());
  std::remove(paths.gold.c_str());
  double snapshot_bytes = 0.0;
  for (uint32_t k = 0; k <= workload.shards; ++k) {
    // The unsharded file, or the manifest plus one file per shard.
    if (k > 0 && workload.shards == 1) break;
    const std::string file =
        k == 0 ? paths.snapshot : fuser::ShardSnapshotPath(paths.snapshot, k - 1);
    struct stat st {};
    if (::stat(file.c_str(), &st) == 0) {
      snapshot_bytes += static_cast<double>(st.st_size);
    }
  }

  // ---- Phase 2: setup, repeated; the last instance serves phase 3. ----
  std::vector<double> setup_s;
  std::unique_ptr<LiveSystem> sys;
  const int64_t setup_start = NowNs();
  for (size_t rep = 0; rep < 7 || NowNs() - setup_start < 2000000000; ++rep) {
    sys.reset();
    const int64_t t0 = NowNs();
    bool ok = false;
    {
      Span span("bench.setup");
      sys = LiveSystem::Start(paths.snapshot, workload.shards);
      ok = FirstReplyCorrect(sys->port(), built.reference);
    }
    setup_s.push_back(Seconds(NowNs() - t0));
    ++phases["setup"].attempted;
    if (!ok) ++phases["setup"].failed;
    if (rep >= 60) break;
  }

  // ---- Phase 3: serve under a streaming writer. ----
  ReferenceBook book;
  {
    Span span(sys->sharded() ? "shard.run_reference" : "core.run_reference");
    book.Add(sys->ServableId(), Must(sys->Reference(), "reference Run"));
  }
  std::vector<int> fds;
  for (size_t c = 0; c < kConnections; ++c) {
    const int fd = ConnectLoopback(sys->port());
    if (fd < 0) Die("connect", Status::IoError("loopback connect failed"));
    fds.push_back(fd);
  }
  const double serve_s = std::max(
      0.5, args.seconds * (1.0 - workload.build_share) - Seconds(kWarmupNs));
  const size_t num_steps = kRounds * std::size(kLadder) * kNumSizes;
  const int64_t step_ns =
      static_cast<int64_t>(serve_s * 1e9 / static_cast<double>(num_steps));
  // Plan every step up front so no generation runs inside the loop; due
  // times are relative to the step's start until it begins. Step 0 is a
  // warm-up at the middle rate of the middle size: it takes the first
  // writer batch (which promotes the mapped columns it touches) and cold
  // caches, and it is checked like any other step but left out of the
  // metrics. Then kRounds passes up the ladder, each rate once per size,
  // so that every (size, rate) pair's samples spread over the whole serve
  // window instead of one stretch of it.
  fuser::Rng plan_rng(args.seed ^ 0x5eedULL);
  std::vector<StepResult> steps;
  for (size_t s = 0; s <= num_steps; ++s) {
    StepResult step;
    step.warmup = s == 0;
    const size_t size_index = s == 0 ? 1 : (s - 1) % kNumSizes;
    const size_t rung = s == 0 ? 1 : (s - 1) / kNumSizes % std::size(kLadder);
    step.batch = kBatchSizes[size_index];
    step.rate = workload.middle_rates[size_index] * kLadder[rung];
    step.end_ns = s == 0 ? kWarmupNs : step_ns;  // a duration until it runs
    for (size_t c = 0; c < kConnections; ++c) {
      step.connections.push_back(PlanConnection(
          step.rate, step.end_ns, c, step.batch, served_triples, &plan_rng));
    }
    steps.push_back(std::move(step));
  }
  std::vector<WriterEntry> writer_log;
  const int64_t serve_start = NowNs();
  const int64_t serve_end = serve_start + kWarmupNs +
                            static_cast<int64_t>(num_steps) * step_ns;
  std::atomic<bool> writer_done{false};
  std::atomic<bool> serve_done{false};
  std::thread writer([&]() {
    RunWriter(sys.get(), tail, serve_start, serve_end, &book, &writer_log);
    writer_done = true;
    // Stay alive until the last step is measured: the main thread reads
    // this thread's CPU clock, which must not outlive the thread.
    while (!serve_done) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  clockid_t writer_clock;
  if (pthread_getcpuclockid(writer.native_handle(), &writer_clock) != 0) {
    Die("writer CPU clock", Status::IoError("pthread_getcpuclockid failed"));
  }
  // CPU of every thread but this one and the writer. A step's server CPU
  // is its change over the step minus the CPU of the step's client
  // threads, each read on its own clock.
  const auto others_cpu = [&]() {
    return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) -
           CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - CpuSeconds(writer_clock);
  };
  PhaseCount& serve = phases["serve"];
  std::vector<TripleId> triples;
  uint64_t next_request_id = 1;
  int64_t cursor = serve_start;
  for (StepResult& step : steps) {
    // A step starts on its slot, or once the previous step has drained:
    // an overloaded step must not leave its backlog to the next one.
    step.start_ns = std::max(cursor, NowNs());
    step.end_ns += step.start_ns;
    const double cpu_start = others_cpu();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kConnections; ++c) {
      ConnectionLoad& load = step.connections[c];
      for (Request& r : load.requests) r.due_ns += step.start_ns;
      load.first_request_id = next_request_id;
      next_request_id += load.requests.size();
      clients.emplace_back(RunConnection, fds[c], &load, std::cref(book),
                           step.end_ns + 5000000000LL, args.trace);
    }
    for (std::thread& t : clients) t.join();
    step.server_cpu_s = others_cpu() - cpu_start;
    for (const ConnectionLoad& load : step.connections) {
      step.server_cpu_s -= load.cpu_s;
    }
    cursor = step.end_ns;
    // Replies that arrived before their reference was recorded: the writer
    // records it right after the publish, so wait for it (or for the
    // writer to stop).
    for (ConnectionLoad& load : step.connections) {
      for (Deferred& d : load.deferred) {
        const int64_t give_up = NowNs() + 10000000000LL;
        while (!book.Has(d.snapshot_id) && !writer_done && NowNs() < give_up) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        Request& r = load.requests[d.request];
        RequestTriples(r.seed, load.size, load.num_triples, &triples);
        if (book.Check(d.snapshot_id, triples.data(), triples.size(),
                       d.scores) != Verdict::kMatch) {
          r.failed = 1;
        }
      }
      load.deferred = {};
      for (const Request& r : load.requests) {
        ++serve.attempted;
        serve.failed += r.failed;
      }
    }
    // Every later request is answered from the servable snapshot or a
    // newer one, so older references are no longer needed.
    book.DropBelow(sys->ServableId());
  }
  serve_done = true;
  writer.join();
  for (int fd : fds) ::close(fd);
  PhaseCount& write = phases["write"];
  for (const WriterEntry& e : writer_log) {
    ++write.attempted;
    write.failed += e.failed ? 1 : 0;
  }

  // In-process floor under the wire (traced run): for each size, the
  // batches of its first middle-rate step through the same backend, one
  // at a time.
  std::vector<double> inprocess_us;
  std::vector<int> inprocess_size;
  if (args.trace) {
    for (size_t i = 0; i < kNumSizes; ++i) {
      const auto step = std::find_if(
          steps.begin(), steps.end(), [&](const StepResult& st) {
            return !st.warmup && st.batch == kBatchSizes[i] &&
                   st.rate == workload.middle_rates[i];
          });
      for (const ConnectionLoad& load : step->connections) {
        for (const Request& r : load.requests) {
          RequestTriples(r.seed, load.size, load.num_triples, &triples);
          Span span(sys->sharded() ? "shard.score_batch" : "serving.score_batch");
          const int64_t t0 = NowNs();
          auto scores = sys->ScoreInProcess(triples);
          inprocess_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
          inprocess_size.push_back(load.size);
          if (!scores.ok()) ++serve.failed;
        }
      }
    }
  }
  const double peak_rss = PeakRssMiB();
  const auto steal_end = HostSteal();
  const double steal_total = steal_end.second - steal_start.second;
  const double host_steal_frac =
      steal_total > 0.0 ? (steal_end.first - steal_start.first) / steal_total
                        : 0.0;
  const fuser::net::ServerCounters counters = sys->counters();
  const size_t updates_applied = sys->updates_applied();
  const size_t full_invalidations = sys->full_invalidations();
  sys.reset();
  std::remove(paths.snapshot.c_str());
  for (const TailBatch& batch : tail) {
    std::remove(batch.observations.c_str());
    std::remove(batch.gold.c_str());
  }
  for (uint32_t k = 0; k < workload.shards && workload.shards > 1; ++k) {
    std::remove(fuser::ShardSnapshotPath(paths.snapshot, k).c_str());
  }
  const std::vector<SpanRecord> spans = Tracer::Get().Take();

  // ---- Raw record ----
  Json json;
  json.Open('{');
  json.Key("workload");
  json.Str(workload.name);
  json.Key("seed");
  json.Int(static_cast<int64_t>(args.seed));
  json.Key("seconds");
  json.Num(args.seconds);
  json.Key("trace");
  json.Int(args.trace ? 1 : 0);
  json.Key("num_triples");
  json.Int(total);
  json.Key("served_triples");
  json.Int(static_cast<int64_t>(served_triples));
  json.Key("num_sources");
  json.Int(static_cast<int64_t>(num_sources));
  json.Key("shards");
  json.Int(workload.shards);
  json.Nums("build_s", build_s);
  json.Nums("build_traced_s", build_traced_s);
  json.Nums("setup_s", setup_s);
  json.Key("auc_pr");
  json.Num(built.auc_pr);
  json.Key("peak_rss_mb");
  json.Num(peak_rss);
  json.Key("host_steal_frac");
  json.Num(host_steal_frac);
  json.Key("clusters");
  json.Int(static_cast<int64_t>(built.clusters));
  json.Key("distinct_patterns");
  json.Int(static_cast<int64_t>(built.distinct_patterns));
  json.Key("bytes_per_triple");
  json.Num(built.bytes_per_triple);
  json.Key("snapshot_bytes");
  json.Num(snapshot_bytes);
  json.Key("parse_s");
  json.Num(parse_s);
  json.Key("discovery_s");
  json.Num(discovery_s);
  json.Key("updates_applied");
  json.Int(static_cast<int64_t>(updates_applied));
  json.Key("full_invalidations");
  json.Int(static_cast<int64_t>(full_invalidations));
  json.Key("server");
  json.Open('{');
  json.Key("connections");
  json.Int(static_cast<int64_t>(counters.connections_accepted));
  json.Key("requests");
  json.Int(static_cast<int64_t>(counters.requests_served));
  json.Key("errors");
  json.Int(static_cast<int64_t>(counters.errors_sent));
  json.Close('}');
  json.Key("phases");
  json.Open('{');
  for (const auto& [name, count] : phases) {
    json.Key(name.c_str());
    json.Open('{');
    json.Key("attempted");
    json.Int(static_cast<int64_t>(count.attempted));
    json.Key("failed");
    json.Int(static_cast<int64_t>(count.failed));
    json.Close('}');
  }
  json.Close('}');
  json.Key("batch_sizes");
  json.Open('[');
  for (uint16_t size : kBatchSizes) json.Int(size);
  json.Close(']');
  json.Key("middle_rates");
  json.Open('[');
  for (double rate : workload.middle_rates) json.Num(rate);
  json.Close(']');
  json.Key("steps");
  json.Open('[');
  for (const StepResult& step : steps) {
    std::vector<int64_t> due, sent, recv, snap, failed, traced;
    for (const ConnectionLoad& load : step.connections) {
      for (size_t i = 0; i < load.requests.size(); ++i) {
        const Request& r = load.requests[i];
        traced.push_back(args.trace && i % 2 == 0 ? 1 : 0);
        due.push_back(r.due_ns - origin);
        sent.push_back(r.sent_ns - origin);
        recv.push_back(r.recv_ns == 0 ? -1 : r.recv_ns - origin);
        snap.push_back(static_cast<int64_t>(r.snapshot_id));
        failed.push_back(r.failed);
      }
    }
    json.Open('{');
    json.Key("batch");
    json.Int(step.batch);
    json.Key("rate");
    json.Num(step.rate);
    json.Key("warmup");
    json.Int(step.warmup ? 1 : 0);
    json.Key("start_ns");
    json.Int(step.start_ns - origin);
    json.Key("end_ns");
    json.Int(step.end_ns - origin);
    json.Key("server_cpu_s");
    json.Num(step.server_cpu_s);
    json.Nums("due_ns", due);
    json.Nums("sent_ns", sent);
    json.Nums("recv_ns", recv);
    json.Nums("snapshot_id", snap);
    json.Nums("failed", failed);
    json.Nums("traced", traced);
    json.Close('}');
  }
  json.Close(']');
  json.Key("writer");
  json.Open('[');
  for (const WriterEntry& e : writer_log) {
    json.Open('{');
    json.Key("start_ns");
    json.Int(e.start_ns - origin);
    json.Key("update_s");
    json.Num(e.update_s);
    json.Key("publish_s");
    json.Num(e.publish_s);
    json.Key("observations");
    json.Int(static_cast<int64_t>(e.observations));
    json.Key("snapshot_id");
    json.Int(static_cast<int64_t>(e.snapshot_id));
    json.Key("failed");
    json.Int(e.failed ? 1 : 0);
    json.Close('}');
  }
  json.Close(']');
  json.Nums("inprocess_us", inprocess_us);
  json.Nums("inprocess_size", inprocess_size);
  WriteSpans(&json, spans, origin);
  json.Close('}');

  std::ofstream out(args.out, std::ios::binary | std::ios::trunc);
  out << json.str() << '\n';
  out.close();
  if (!out) {
    std::fprintf(stderr, "fusebench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
