// E8-E10 / Figure 6: synthetic experiments with independent sources.
//
//   6a: 5 sources, p = 0.1, r in {0.025..0.225}, 25% true triples.
//   6b: 5 sources, p = 0.75, r in {0.075..0.675}, 50% true triples.
//   6c: 5 sources, r = 0.25, p in {0.1..0.9},   25% true triples.
//
// Each cell is the mean F-measure over 10 generator seeds (as in the
// paper: "we averaged 10 repetitions").
//
// Paper shape to reproduce: PRECREC/PRECRECCORR dominate, especially at
// low source quality; UNION-25 collapses with low-quality sources; LTM is
// robust but benefits little from quality increases; 3-ESTIMATES trails.
#include <cstdio>

#include "bench_util.h"
#include "common/math_util.h"
#include "synth/generator.h"

namespace fuser {
namespace {

const std::vector<std::string> kMethods = {
    "union-50", "union-25", "union-75", "3estimates",
    "ltm",      "precrec",  "precrec-corr"};

double MeanF1(const std::string& method, double precision, double recall,
              double fraction_true, int repetitions) {
  std::vector<double> f1s;
  for (int rep = 0; rep < repetitions; ++rep) {
    SyntheticConfig config = MakeIndependentConfig(
        5, 1000, fraction_true, precision, recall,
        /*seed=*/1000 + static_cast<uint64_t>(rep) * 7919);
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

void PrintSweep(const char* title, const std::vector<double>& precisions,
                const std::vector<double>& recalls, double fraction_true,
                int repetitions) {
  std::printf("\n== %s ==\n", title);
  std::printf("%-14s", "method");
  for (size_t i = 0; i < precisions.size(); ++i) {
    std::printf("  p=%.2f/r=%.3f", precisions[i], recalls[i]);
  }
  std::printf("\n");
  for (const std::string& method : kMethods) {
    std::printf("%-14s", method.c_str());
    for (size_t i = 0; i < precisions.size(); ++i) {
      std::printf("  %13.3f",
                  MeanF1(method, precisions[i], recalls[i], fraction_true,
                         repetitions));
    }
    std::printf("\n");
  }
}

void PrintFigure6() {
  const int kReps = 10;
  PrintSweep("Figure 6a: low precision (p=0.1), 25% true",
             {0.1, 0.1, 0.1, 0.1, 0.1},
             {0.025, 0.075, 0.125, 0.175, 0.225}, 0.25, kReps);
  PrintSweep("Figure 6b: high precision (p=0.75), 50% true",
             {0.75, 0.75, 0.75, 0.75, 0.75},
             {0.075, 0.225, 0.375, 0.525, 0.675}, 0.5, kReps);
  PrintSweep("Figure 6c: low recall (r=0.25), 25% true",
             {0.1, 0.3, 0.5, 0.7, 0.9}, {0.25, 0.25, 0.25, 0.25, 0.25},
             0.25, kReps);
  std::printf("\n(paper shape: precrec/precrec-corr lead and grow with "
              "quality; union-25 fragile at low quality; ltm flat)\n");
}

}  // namespace
}  // namespace fuser

int main() {
  fuser::PrintFigure6();
  return 0;
}
