// E3 / Figure 4a: fusion results, PR-curves, and ROC-curves on the
// simulated REVERB dataset (6 low-quality extractors, ~2400 gold triples).
//
// Paper shape to reproduce: PRECREC and PRECRECCORR clearly beat
// 3-ESTIMATE and LTM on F1; PRECRECCORR has the best AUCs; UNION-25 is the
// best UNION variant and close to PRECREC on F1 but worse on the curves.
#include "bench_util.h"
#include "synth/paper_datasets.h"

namespace fuser {
namespace {

EngineOptions ReverbEngineOptions() {
  EngineOptions options;
  options.ltm.burn_in = 50;
  options.ltm.samples = 50;
  return options;
}

void PrintFigure4a() {
  auto dataset = MakeReverbDataset(42);
  FUSER_CHECK(dataset.ok()) << dataset.status();
  auto results = bench::RunMethods(*dataset, bench::PaperMethodLineup(),
                                   ReverbEngineOptions());
  bench::PrintResultsTable("Figure 4a: REVERB (simulated)", results);
  std::printf("(paper shape: precrec-corr best F1/AUCs by a wide margin; "
              "3estimates/cosine recall collapses; union-75 recall "
              "collapses; low absolute quality overall)\n");
  bench::PrintCurvesForMethods(
      *dataset, {"union-50", "ltm", "precrec", "precrec-corr"},
      ReverbEngineOptions());
}

}  // namespace
}  // namespace fuser

int main() {
  fuser::PrintFigure4a();
  return 0;
}
