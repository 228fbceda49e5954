// E5 / Figure 4c: fusion results, PR-curves, and ROC-curves on the
// simulated BOOK dataset (879 seller sources, ~333 in the gold standard,
// correlation clustering enabled as in Section 5.1).
//
// Paper shape to reproduce: good absolute quality; precrec-corr best;
// 3estimates low recall; clustering keeps the computation tractable.
#include "bench_util.h"
#include "synth/paper_datasets.h"

namespace fuser {
namespace {

EngineOptions BookEngineOptions() {
  EngineOptions options;
  options.model.enable_clustering = true;  // >64 sources require clusters
  options.model.clustering.max_cluster_size = 20;
  // A seller has an opinion only about books it lists (Section 2.2).
  options.model.use_scopes = true;
  options.num_threads = 4;
  // Mirror the paper's 10-iteration LTM budget on its largest dataset.
  options.ltm.burn_in = 5;
  options.ltm.samples = 5;
  return options;
}

void PrintFigure4c() {
  auto dataset = MakeBookDataset(42);
  FUSER_CHECK(dataset.ok()) << dataset.status();
  auto results =
      bench::RunMethods(*dataset, bench::PaperMethodLineup(),
                        BookEngineOptions());
  bench::PrintResultsTable("Figure 4c: BOOK (simulated)", results);
  std::printf("(paper shape: precrec-corr best; ltm/union-25 comparable to "
              "precrec on F1 but weaker curves)\n");
  bench::PrintCurvesForMethods(*dataset,
                               {"union-50", "precrec", "precrec-corr"},
                               BookEngineOptions());
}

}  // namespace
}  // namespace fuser

int main() {
  fuser::PrintFigure4c();
  return 0;
}
