// E12 / Section 5.1 "Discovered correlations": reports the correlation
// structure the model finds in each simulated dataset, mirroring the
// paper's narrative (group sizes on true/false triples, anti-correlated
// sources, BOOK cluster sizes).
//
//   ./bench_correlation_discovery [reps]
//
// prints the narrative report followed by a single JSON object (timing
// of the BOOK pairwise pass and the non-trivial cluster counts).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "core/clustering.h"
#include "core/correlation.h"
#include "stats/correlation_sketch.h"
#include "synth/paper_datasets.h"

namespace fuser {
namespace {

void PrintPairs(const Dataset& dataset,
                const std::vector<PairwiseCorrelation>& pairs, bool on_true) {
  for (const PairwiseCorrelation& pc : pairs) {
    std::printf("(%s,%s C=%.2f) ", std::string(dataset.source_name(pc.a)).c_str(),
                std::string(dataset.source_name(pc.b)).c_str(),
                on_true ? pc.factors.on_true : pc.factors.on_false);
  }
  std::printf("\n");
}

void PrintTopPairs(const Dataset& dataset, const char* title, size_t top_n) {
  std::vector<SourceId> all(dataset.num_sources());
  for (SourceId s = 0; s < dataset.num_sources(); ++s) all[s] = s;
  auto pairs =
      ComputePairwiseCorrelations(dataset, dataset.labeled_mask(), all, {});
  FUSER_CHECK(pairs.ok());
  CorrelationRanking ranking = RankCorrelations(*pairs, top_n);
  std::printf("\n-- %s --\n", title);
  std::printf("  strongest true-correlations: ");
  PrintPairs(dataset, ranking.strongest_true, true);
  std::printf("  most anti-correlated (true): ");
  PrintPairs(dataset, ranking.most_anti_true, true);
  std::printf("  strongest false-correlations: ");
  PrintPairs(dataset, ranking.strongest_false, false);
  std::printf("  most anti-correlated (false): ");
  PrintPairs(dataset, ranking.most_anti_false, false);
}

size_t PrintClusters(const Dataset& dataset, const char* title,
                     ClusteringOptions options) {
  auto clustering =
      ClusterSourcesByCorrelation(dataset, dataset.labeled_mask(), {},
                                  options);
  FUSER_CHECK(clustering.ok());
  std::vector<size_t> sizes;
  for (const auto& cluster : clustering->clusters) {
    if (cluster.size() > 1) sizes.push_back(cluster.size());
  }
  std::sort(sizes.rbegin(), sizes.rend());
  std::printf("  %s: %zu non-trivial clusters, sizes:", title, sizes.size());
  for (size_t s : sizes) std::printf(" %zu", s);
  std::printf("\n");
  return sizes.size();
}

int Main(int argc, char** argv) {
  int reps = argc > 1 ? static_cast<int>(std::strtol(argv[1], nullptr, 10)) : 3;

  std::printf("== Section 5.1: discovered correlations ==\n");
  auto reverb = MakeReverbDataset(42);
  FUSER_CHECK(reverb.ok());
  PrintTopPairs(*reverb, "REVERB (paper: 2-group + 3-group on true; two "
                         "pairs on false; one source anti-correlated "
                         "with all)",
                3);
  size_t reverb_clusters = PrintClusters(*reverb, "reverb clusters", {});

  auto restaurant = MakeRestaurantDataset(42);
  FUSER_CHECK(restaurant.ok());
  PrintTopPairs(*restaurant,
                "RESTAURANT (paper: 4-group on true; anti-correlated pair; "
                "6-group on false)",
                3);
  size_t restaurant_clusters =
      PrintClusters(*restaurant, "restaurant clusters", {});

  auto book = MakeBookDataset(42);
  FUSER_CHECK(book.ok());
  ClusteringOptions book_options;
  book_options.max_cluster_size = 25;
  std::printf("\n-- BOOK (paper: clusters of ~22/3/2 on true, ~22/3/2/2 on "
              "false) --\n");
  size_t book_clusters = PrintClusters(*book, "book clusters", book_options);

  // Timing of the BOOK pairwise pass (the paper's largest dataset).
  std::vector<SourceId> all(book->num_sources());
  for (SourceId s = 0; s < book->num_sources(); ++s) all[s] = s;
  const double pairwise_seconds = bench::MinSeconds(reps, [&] {
    auto pairs =
        ComputePairwiseCorrelations(*book, book->labeled_mask(), all, {});
    FUSER_CHECK(pairs.ok());
    return pairs;
  });

  std::printf(
      "{\"bench\": \"correlation_discovery\", \"book_sources\": %zu, "
      "\"book_pairwise_seconds\": %.6f, \"reverb_clusters\": %zu, "
      "\"restaurant_clusters\": %zu, \"book_clusters\": %zu}\n",
      static_cast<size_t>(book->num_sources()), pairwise_seconds,
      reverb_clusters, restaurant_clusters, book_clusters);
  return 0;
}

}  // namespace
}  // namespace fuser

int main(int argc, char** argv) { return fuser::Main(argc, argv); }
