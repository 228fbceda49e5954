// A1: ablation of the clustering design choices behind the BOOK experiment
// (Section 5.1): correlation threshold and cluster-size cap vs F1 and
// model-build + scoring time.
#include <cstdio>

#include "bench_util.h"
#include "common/timer.h"
#include "synth/paper_datasets.h"

namespace fuser {
namespace {

void RunCell(const Dataset& dataset, double threshold, size_t max_size) {
  EngineOptions options;
  options.model.enable_clustering = true;
  options.model.use_scopes = true;
  options.model.clustering.correlation_threshold = threshold;
  options.model.clustering.max_cluster_size = max_size;
  options.num_threads = 4;
  FusionEngine engine(&dataset, options);
  FUSER_CHECK(engine.Prepare(dataset.labeled_mask()).ok());
  WallTimer build_timer;
  auto model = engine.GetModel();
  FUSER_CHECK(model.ok()) << model.status();
  double build_seconds = build_timer.ElapsedSeconds();
  size_t big_clusters = 0;
  size_t biggest = 0;
  for (const auto& cluster : (*model)->clustering.clusters) {
    if (cluster.size() > 1) ++big_clusters;
    biggest = std::max(biggest, cluster.size());
  }
  auto eval = engine.RunAndEvaluate({MethodKind::kPrecRecCorr},
                                    dataset.labeled_mask());
  FUSER_CHECK(eval.ok()) << eval.status();
  std::printf("%9.2f %8zu %9zu %8zu %8.3f %10.3f %10.3f\n", threshold,
              max_size, big_clusters, biggest, eval->f1, build_seconds,
              eval->seconds);
}

void PrintAblation() {
  auto dataset = MakeBookDataset(42);
  FUSER_CHECK(dataset.ok());
  std::printf("\n== A1: clustering ablation on BOOK (precrec-corr) ==\n");
  std::printf("%9s %8s %9s %8s %8s %10s %10s\n", "threshold", "max_size",
              "clusters", "largest", "F1", "build(s)", "score(s)");
  for (double threshold : {0.1, 0.25, 0.5, 1.0}) {
    RunCell(*dataset, threshold, 20);
  }
  for (size_t max_size : {2, 5, 10, 20, 40}) {
    RunCell(*dataset, 0.25, max_size);
  }
  std::printf("(shape: too-low thresholds over-merge and slow scoring; "
              "caps below the true cartel size cost accuracy)\n");
}

}  // namespace
}  // namespace fuser

int main() {
  fuser::PrintAblation();
  return 0;
}
