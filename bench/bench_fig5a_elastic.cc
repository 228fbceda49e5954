// E6 / Figure 5a: elastic approximation levels vs F-measure on the three
// simulated datasets, starting from the aggressive approximation.
//
// Paper shape to reproduce: the aggressive estimate is clearly worse than
// the exact solution on REVERB and RESTAURANT; the elastic approximation
// approaches PRECRECCORR within ~3 levels (not necessarily monotonically).
#include <cstdio>

#include "bench_util.h"
#include "synth/paper_datasets.h"

namespace fuser {
namespace {

void PrintElasticSweep(const std::string& name, const Dataset& dataset,
                       EngineOptions options) {
  FusionEngine engine(&dataset, options);
  FUSER_CHECK(engine.Prepare(dataset.labeled_mask()).ok());
  std::printf("%-12s", name.c_str());
  auto aggressive = engine.RunAndEvaluate({MethodKind::kAggressive},
                                          dataset.labeled_mask());
  FUSER_CHECK(aggressive.ok()) << aggressive.status();
  std::printf(" %9.3f", aggressive->f1);
  for (int level = 0; level <= 6; ++level) {
    MethodSpec spec{MethodKind::kElastic};
    spec.elastic_level = level;
    auto eval = engine.RunAndEvaluate(spec, dataset.labeled_mask());
    FUSER_CHECK(eval.ok()) << eval.status();
    std::printf(" %9.3f", eval->f1);
  }
  auto exact = engine.RunAndEvaluate({MethodKind::kPrecRecCorr},
                                     dataset.labeled_mask());
  FUSER_CHECK(exact.ok()) << exact.status();
  std::printf(" %9.3f\n", exact->f1);
}

void PrintFigure5a() {
  std::printf("\n== Figure 5a: elastic approximation levels (F-measure) "
              "==\n");
  std::printf("%-12s %9s", "dataset", "aggress.");
  for (int level = 0; level <= 6; ++level) {
    std::printf("   level-%d", level);
  }
  std::printf(" %9s\n", "exact");

  auto reverb = MakeReverbDataset(42);
  FUSER_CHECK(reverb.ok());
  PrintElasticSweep("reverb", *reverb, {});

  auto restaurant = MakeRestaurantDataset(42);
  FUSER_CHECK(restaurant.ok());
  PrintElasticSweep("restaurant", *restaurant, {});

  auto book = MakeBookDataset(42);
  FUSER_CHECK(book.ok());
  EngineOptions book_options;
  book_options.model.enable_clustering = true;
  book_options.model.clustering.max_cluster_size = 20;
  book_options.model.use_scopes = true;
  book_options.num_threads = 4;
  PrintElasticSweep("book", *book, book_options);
  std::printf("(paper shape: aggressive below exact on reverb/restaurant; "
              "level-3 close to exact everywhere)\n");
}

}  // namespace
}  // namespace fuser

int main() {
  fuser::PrintFigure5a();
  return 0;
}
