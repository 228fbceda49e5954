// A4: training-fraction ablation. The framework derives all parameters
// from labeled training data (Section 3.2); this sweep shows how much gold
// standard the methods need, evaluating on a fixed held-out half.
#include <cstdio>

#include "bench_util.h"
#include "model/split.h"
#include "synth/generator.h"

namespace fuser {
namespace {

void PrintTrainingSweep() {
  SyntheticConfig config =
      MakeIndependentConfig(6, 4000, 0.35, 0.6, 0.4, /*seed=*/5);
  config.groups_true = {{{0, 1, 2}, 0.85}};
  config.groups_false = {{{3, 4}, 0.8}};
  auto dataset = GenerateSynthetic(config);
  FUSER_CHECK(dataset.ok());

  // Fixed evaluation half; the training half is subsampled.
  Rng split_rng(99);
  auto halves = StratifiedSplit(*dataset, 0.5, &split_rng);
  FUSER_CHECK(halves.ok());

  std::printf("\n== A4: training fraction vs F1 (held-out eval) ==\n");
  std::printf("%10s %12s %10s %14s\n", "fraction", "train-size",
              "precrec-F1", "precrec-corr-F1");
  for (double fraction : {0.05, 0.1, 0.25, 0.5, 1.0}) {
    // Subsample the training half.
    DynamicBitset train(dataset->num_triples());
    Rng rng(static_cast<uint64_t>(fraction * 1000) + 3);
    halves->train.ForEach([&](size_t t) {
      if (rng.NextBernoulli(fraction)) train.Set(t);
    });
    if (!train.Any()) continue;
    FusionEngine engine(&*dataset, {});
    FUSER_CHECK(engine.Prepare(train).ok());
    auto precrec =
        engine.RunAndEvaluate({MethodKind::kPrecRec}, halves->test);
    auto corr =
        engine.RunAndEvaluate({MethodKind::kPrecRecCorr}, halves->test);
    FUSER_CHECK(precrec.ok());
    FUSER_CHECK(corr.ok()) << corr.status();
    std::printf("%10.2f %12zu %10.3f %14.3f\n", fraction, train.Count(),
                precrec->f1, corr->f1);
  }
  std::printf("(shape: precrec stabilizes with little training data; the "
              "joint statistics of precrec-corr profit from more)\n");
}

}  // namespace
}  // namespace fuser

int main() {
  fuser::PrintTrainingSweep();
  return 0;
}
