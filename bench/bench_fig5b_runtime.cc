// E7 / Figure 5b: runtime of every method on the three simulated datasets.
//
// Paper shape to reproduce (relative ordering, not absolute seconds):
// UNION-K fastest; 3-ESTIMATES and PRECREC next; LTM markedly slower;
// PRECRECCORR the slowest exact method; elastic level-3 substantially
// cheaper than exact while matching its quality (Figure 5a).
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "synth/paper_datasets.h"

namespace fuser {
namespace {

struct DatasetEntry {
  std::string name;
  const Dataset* dataset;
  EngineOptions options;
};

void PrintFigure5b() {
  auto reverb = MakeReverbDataset(42);
  auto restaurant = MakeRestaurantDataset(42);
  auto book = MakeBookDataset(42);
  FUSER_CHECK(reverb.ok());
  FUSER_CHECK(restaurant.ok());
  FUSER_CHECK(book.ok());

  EngineOptions default_options;
  // Paper's LTM budget: 10 iterations on the big dataset.
  EngineOptions book_options;
  book_options.model.enable_clustering = true;
  book_options.model.clustering.max_cluster_size = 20;
  book_options.model.use_scopes = true;
  book_options.ltm.burn_in = 5;
  book_options.ltm.samples = 5;

  std::vector<DatasetEntry> datasets = {
      {"reverb", &*reverb, default_options},
      {"restaurant", &*restaurant, default_options},
      {"book", &*book, book_options},
  };
  std::vector<std::string> methods = {
      "union-25", "union-50", "union-75", "3estimates", "cosine",
      "ltm",      "precrec",  "precrec-corr", "elastic-3"};

  // Scoring only: FusionRun.seconds on one prepared engine whose model is
  // built up front, so it leaves out Prepare and the shared model and
  // grouping build. With build: a fresh engine through Prepare -> Run,
  // which builds whatever the method needs, min of kReps.
  const int kReps = 3;
  std::vector<std::vector<double>> score_times(
      methods.size(), std::vector<double>(datasets.size(), 0.0));
  std::vector<std::vector<double>> build_times = score_times;
  for (size_t d = 0; d < datasets.size(); ++d) {
    const Dataset* dataset = datasets[d].dataset;
    const EngineOptions& options = datasets[d].options;
    FusionEngine engine(dataset, options);
    FUSER_CHECK(engine.Prepare(dataset->labeled_mask()).ok());
    FUSER_CHECK(engine.GetModel().ok());
    for (size_t m = 0; m < methods.size(); ++m) {
      auto spec = ParseMethodSpec(methods[m]);
      FUSER_CHECK(spec.ok());
      auto run = engine.Run(*spec);
      FUSER_CHECK(run.ok()) << methods[m] << ": " << run.status();
      score_times[m][d] = run->seconds;
      build_times[m][d] = bench::MinSeconds(kReps, [&] {
        auto fresh = std::make_unique<FusionEngine>(dataset, options);
        FUSER_CHECK(fresh->Prepare(dataset->labeled_mask()).ok());
        FUSER_CHECK(fresh->Run(*spec).ok()) << methods[m];
        return fresh;
      });
    }
  }

  std::printf("\n== Figure 5b: runtimes in milliseconds (score = scoring "
              "only, +build = Prepare -> Run on a fresh engine) ==\n");
  std::printf("%-14s", "method");
  for (const DatasetEntry& entry : datasets) {
    std::printf(" %10s %10s", entry.name.c_str(), "+build");
  }
  std::printf("\n");
  for (size_t m = 0; m < methods.size(); ++m) {
    std::printf("%-14s", methods[m].c_str());
    for (size_t d = 0; d < datasets.size(); ++d) {
      std::printf(" %10.4f %10.4f", score_times[m][d] * 1e3,
                  build_times[m][d] * 1e3);
    }
    std::printf("\n");
  }
  std::printf("(paper shape, +build columns: union fastest; ltm slowest of "
              "the baselines; precrec-corr most expensive, elastic-3 "
              "cheaper)\n");
}

}  // namespace
}  // namespace fuser

int main() {
  fuser::PrintFigure5b();
  return 0;
}
