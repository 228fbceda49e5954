// E4 / Figure 4b: fusion results, PR-curves, and ROC-curves on the
// simulated RESTAURANT dataset (7 high-precision aggregators, 93-triple
// gold standard).
//
// Paper shape to reproduce: most methods do well; LTM and UNION-25 are
// comparable to PRECREC on F1, but PRECRECCORR gives the best
// truthfulness estimates (PR/ROC curves and AUCs).
#include "bench_util.h"
#include "synth/paper_datasets.h"

namespace fuser {
namespace {

void PrintFigure4b() {
  auto dataset = MakeRestaurantDataset(42);
  FUSER_CHECK(dataset.ok()) << dataset.status();
  auto results = bench::RunMethods(*dataset, bench::PaperMethodLineup());
  bench::PrintResultsTable("Figure 4b: RESTAURANT (simulated)", results);
  std::printf("(paper shape: high quality across methods; precrec-corr "
              "best AUCs; 3estimates recall collapses)\n");
  bench::PrintCurvesForMethods(*dataset,
                               {"union-50", "ltm", "precrec",
                                "precrec-corr"});
}

}  // namespace
}  // namespace fuser

int main() {
  fuser::PrintFigure4b();
  return 0;
}
