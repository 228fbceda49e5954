// A2: sensitivity to the a-priori probability alpha (the one free
// parameter of Theorems 3.1/3.5). The paper fixes alpha = 0.5 everywhere;
// this ablation shows how F1 responds when alpha moves away from the
// dataset's actual fraction of true triples.
#include <cstdio>

#include "bench_util.h"
#include "synth/paper_datasets.h"

namespace fuser {
namespace {

void PrintAlphaSweep() {
  auto reverb = MakeReverbDataset(42);
  FUSER_CHECK(reverb.ok());
  std::printf("\n== A2: alpha sensitivity on REVERB ==\n");
  std::printf("%7s %12s %14s\n", "alpha", "precrec-F1", "precrec-corr-F1");
  for (double alpha : {0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9}) {
    EngineOptions options;
    options.model.alpha = alpha;
    FusionEngine engine(&*reverb, options);
    FUSER_CHECK(engine.Prepare(reverb->labeled_mask()).ok());
    auto precrec = engine.RunAndEvaluate({MethodKind::kPrecRec},
                                         reverb->labeled_mask());
    auto corr = engine.RunAndEvaluate({MethodKind::kPrecRecCorr},
                                      reverb->labeled_mask());
    FUSER_CHECK(precrec.ok());
    FUSER_CHECK(corr.ok());
    std::printf("%7.2f %12.3f %14.3f\n", alpha, precrec->f1, corr->f1);
  }
  std::printf("(shape: precrec is sensitive to alpha because Theorem 3.5's "
              "q scales with alpha/(1-alpha); the calibrated exact method "
              "is nearly flat)\n");
}

}  // namespace
}  // namespace fuser

int main() {
  fuser::PrintAlphaSweep();
  return 0;
}
