// A3: scaling of the inference algorithms with the number of triples and
// sources, and of the elastic approximation with its level (the
// O(m * n^lambda) claim of Proposition 4.11).
//
// Every cell times a fresh engine through Prepare -> Run, min of kReps, so
// it includes the quality estimate and the correlation model and pattern
// grouping the method builds, not a re-Run over cached inputs.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "synth/generator.h"

namespace fuser {
namespace {

constexpr int kReps = 3;

Dataset MakeScaled(size_t sources, size_t triples) {
  SyntheticConfig config = MakeIndependentConfig(
      sources, triples, 0.35, 0.6, std::min(0.4, 8.0 / sources), 17);
  if (sources >= 4) {
    config.groups_true = {{{0, 1, 2, 3}, 0.8}};
  }
  auto dataset = GenerateSynthetic(config);
  FUSER_CHECK(dataset.ok()) << dataset.status();
  return std::move(*dataset);
}

double FreshRunSeconds(const Dataset& dataset, const MethodSpec& spec) {
  return bench::MinSeconds(kReps, [&] {
    auto engine = std::make_unique<FusionEngine>(&dataset, EngineOptions{});
    FUSER_CHECK(engine->Prepare(dataset.labeled_mask()).ok());
    auto run = engine->Run(spec);
    FUSER_CHECK(run.ok()) << spec.Name() << ": " << run.status();
    return engine;
  });
}

void PrintTripleScaling() {
  const std::vector<size_t> sizes = {1000, 4000, 16000, 64000};
  const std::vector<MethodSpec> specs = {{MethodKind::kPrecRec},
                                         {MethodKind::kPrecRecCorr},
                                         {MethodKind::kAggressive}};
  std::printf("\n== A3: milliseconds vs triples (6 sources) ==\n");
  std::printf("%-8s", "triples");
  for (const MethodSpec& spec : specs) {
    std::printf(" %13s", spec.Name().c_str());
  }
  std::printf("\n");
  std::vector<std::vector<double>> seconds(sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    Dataset dataset = MakeScaled(6, sizes[i]);
    std::printf("%-8zu", sizes[i]);
    for (const MethodSpec& spec : specs) {
      seconds[i].push_back(FreshRunSeconds(dataset, spec));
      std::printf(" %13.3f", seconds[i].back() * 1e3);
    }
    std::printf("\n");
  }
  // Seconds per triple at the largest size over the smallest: 1.0 is
  // linear in the number of triples.
  std::printf("%-8s", "ratio");
  for (size_t m = 0; m < specs.size(); ++m) {
    const double per_triple_small = seconds.front()[m] / sizes.front();
    const double per_triple_large = seconds.back()[m] / sizes.back();
    std::printf(" %13.2f", per_triple_large / per_triple_small);
  }
  std::printf("\n(ratio: seconds per triple at %zu over %zu triples; 1.00 "
              "is linear)\n",
              sizes.back(), sizes.front());
}

void PrintSourceScaling() {
  std::printf("\n== A3: milliseconds vs sources (4000 triples, "
              "precrec-corr) ==\n");
  std::printf("%-8s %13s\n", "sources", "precrec-corr");
  for (size_t sources : {4, 8, 16, 32}) {
    Dataset dataset = MakeScaled(sources, 4000);
    std::printf("%-8zu %13.3f\n", sources,
                FreshRunSeconds(dataset, {MethodKind::kPrecRecCorr}) * 1e3);
  }
}

void PrintElasticLevels() {
  std::printf("\n== A3: milliseconds vs elastic level (10 sources, 4000 "
              "triples) ==\n");
  std::printf("%-8s %13s\n", "level", "elastic");
  Dataset dataset = MakeScaled(10, 4000);
  for (int level = 0; level <= 8; ++level) {
    MethodSpec spec{MethodKind::kElastic};
    spec.elastic_level = level;
    std::printf("%-8d %13.3f\n", level,
                FreshRunSeconds(dataset, spec) * 1e3);
  }
}

}  // namespace
}  // namespace fuser

int main() {
  fuser::PrintTripleScaling();
  fuser::PrintSourceScaling();
  fuser::PrintElasticLevels();
  return 0;
}
