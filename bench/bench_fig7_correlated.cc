// E11 / Figure 7: synthetic experiments with correlated sources.
//
//   Scenario "correlation":      four of five sources positively
//                                correlated on true triples.
//   Scenario "anti-correlation": sources negatively correlated on false
//                                triples (complementary mistake slices).
//
// Paper shape to reproduce: PRECRECCORR clearly best in both scenarios;
// the independence-based methods lose ground because they over- or
// under-count correlated votes.
#include <cstdio>

#include "bench_util.h"
#include "common/math_util.h"
#include "synth/generator.h"

namespace fuser {
namespace {

SyntheticConfig CorrelationScenario(uint64_t seed) {
  SyntheticConfig config =
      MakeIndependentConfig(5, 1000, 0.4, 0.55, 0.4, seed);
  config.groups_true = {{{0, 1, 2, 3}, 0.9}};
  return config;
}

SyntheticConfig AntiCorrelationScenario(uint64_t seed) {
  SyntheticConfig config =
      MakeIndependentConfig(5, 1000, 0.4, 0.55, 0.4, seed);
  // Sources make complementary mistakes: each draws false triples from its
  // own slice of the false universe.
  config.false_partition_fractions = {0.2, 0.2, 0.2, 0.2, 0.2};
  for (size_t s = 0; s < 5; ++s) {
    config.sources[s].false_partition = static_cast<int>(s);
  }
  return config;
}

double MeanF1(const std::string& method, bool anti, int repetitions) {
  std::vector<double> f1s;
  for (int rep = 0; rep < repetitions; ++rep) {
    uint64_t seed = 2000 + static_cast<uint64_t>(rep) * 104729;
    SyntheticConfig config =
        anti ? AntiCorrelationScenario(seed) : CorrelationScenario(seed);
    auto dataset = GenerateSynthetic(config);
    FUSER_CHECK(dataset.ok()) << dataset.status();
    EngineOptions options;
    options.ltm.burn_in = 30;
    options.ltm.samples = 30;
    FusionEngine engine(&*dataset, options);
    FUSER_CHECK(engine.Prepare(dataset->labeled_mask()).ok());
    auto spec = ParseMethodSpec(method);
    FUSER_CHECK(spec.ok());
    auto eval = engine.RunAndEvaluate(*spec, dataset->labeled_mask());
    FUSER_CHECK(eval.ok()) << eval.status();
    f1s.push_back(eval->f1);
  }
  return Mean(f1s);
}

void PrintFigure7() {
  const int kReps = 10;
  const std::vector<std::string> methods = {
      "union-25", "union-50", "union-75", "3estimates",
      "ltm",      "precrec",  "precrec-corr"};
  std::printf("\n== Figure 7: correlated sources (mean F-measure, %d reps) "
              "==\n",
              kReps);
  std::printf("%-14s %12s %17s\n", "method", "correlation",
              "anti-correlation");
  for (const std::string& method : methods) {
    std::printf("%-14s %12.3f %17.3f\n", method.c_str(),
                MeanF1(method, /*anti=*/false, kReps),
                MeanF1(method, /*anti=*/true, kReps));
  }
  std::printf("(paper shape: precrec-corr best in both columns)\n");
}

}  // namespace
}  // namespace fuser

int main() {
  fuser::PrintFigure7();
  return 0;
}
