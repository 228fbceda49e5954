// E1/E2: reproduces the motivating example's published artifacts -
// Figure 1b (source & joint quality), Figure 1c (Union-K voting),
// Figure 3 (aggressive correlation factors), and the worked probabilities
// of Examples 3.3, 4.4, 4.7, and 4.10.
#include <cstdio>

#include "bench_util.h"
#include "core/aggressive.h"
#include "core/correlation.h"
#include "core/elastic.h"
#include "core/engine.h"
#include "core/precrec.h"
#include "core/precrec_corr.h"
#include "synth/motivating_example.h"

namespace fuser {
namespace {

void PrintFigure1b() {
  Dataset dataset = MakeMotivatingExample();
  auto quality = EstimateSourceQuality(dataset, dataset.labeled_mask(), {});
  FUSER_CHECK(quality.ok());
  std::printf("\n== Figure 1b: source quality ==\n");
  std::printf("%-6s %9s %9s %9s\n", "source", "precision", "recall",
              "fpr(q)");
  for (SourceId s = 0; s < dataset.num_sources(); ++s) {
    std::printf("%-6s %9.2f %9.2f %9.2f\n", std::string(dataset.source_name(s)).c_str(),
                (*quality)[s].precision, (*quality)[s].recall,
                (*quality)[s].fpr);
  }

  std::vector<SourceId> all = {0, 1, 2, 3, 4};
  auto stats =
      EmpiricalJointStats::Create(dataset, dataset.labeled_mask(), all, {});
  FUSER_CHECK(stats.ok());
  std::printf("\n%-10s %10s %9s\n", "subset", "joint-prec", "joint-rec");
  struct Row {
    const char* name;
    Mask mask;
  };
  for (const Row& row : {Row{"S2S3", 0b00110}, Row{"S1S3", 0b00101},
                         Row{"S1S2S4", 0b01011}, Row{"S1S4S5", 0b11001}}) {
    JointQuality joint = (*stats)->Get(row.mask);
    std::printf("%-10s %10.2f %9.2f\n", row.name, joint.precision,
                joint.recall);
  }
}

void PrintFigure1c() {
  Dataset dataset = MakeMotivatingExample();
  auto results = bench::RunMethods(
      dataset, {"union-25", "union-50", "union-75", "precrec",
                "precrec-corr"});
  bench::PrintResultsTable(
      "Figure 1c + Section 2.3: voting vs PrecRec vs PrecRecCorr", results);
  std::printf("(paper: union-25 F1=0.67, union-50 F1=0.77, union-75 "
              "F1=0.55, precrec F1=0.86, precrec-corr F1=0.91)\n");
}

void PrintFigure3() {
  CorrelationModel model = MakeExampleModel();
  AggressiveFactors factors =
      ComputeAggressiveFactors(*model.cluster_stats[0]);
  std::printf("\n== Figure 3: aggressive correlation factors ==\n");
  std::printf("%-4s", "");
  for (int i = 1; i <= 5; ++i) std::printf(" %7s%d", "S", i);
  std::printf("\n%-4s", "C+");
  for (double c : factors.c_plus) std::printf(" %8.2f", c);
  std::printf("\n%-4s", "C-");
  for (double c : factors.c_minus) std::printf(" %8.2f", c);
  std::printf("\n(paper: C+ = 1, 1, 0.75, 1.5, 1.5; C- = 2, 1, 1, 3, 3)\n");
}

void PrintWorkedProbabilities() {
  Dataset dataset = MakeMotivatingExample();
  CorrelationModel model = MakeExampleModel();
  auto indep = PrecRecScores(dataset, MakeExampleSourceQuality(), {});
  auto exact = PrecRecCorrScores(dataset, model, {});
  auto aggressive = AggressiveScores(dataset, model);
  FUSER_CHECK(indep.ok());
  FUSER_CHECK(exact.ok());
  FUSER_CHECK(aggressive.ok());
  std::printf("\n== Worked probabilities for t8 (false triple) ==\n");
  std::printf("independent (Ex 3.3):  Pr = %.2f   (paper: 0.62)\n",
              (*indep)[7]);
  std::printf("exact corr. (Ex 4.4):  Pr = %.2f   (paper: 0.37)\n",
              (*exact)[7]);
  std::printf("aggressive  (Ex 4.7):  Pr = %.2f   (paper: 0.23)\n",
              (*aggressive)[7]);
  const JointStatsProvider& stats = *model.cluster_stats[0];
  for (int level = 0; level <= 1; ++level) {
    double r = 0.0;
    double q = 0.0;
    FUSER_CHECK(ElasticClusterLikelihood(stats, 0b11011, 0b00100, level, &r,
                                         &q)
                    .ok());
    std::printf("elastic level %d (Ex 4.10): mu = %.2f   (paper: %s)\n",
                level, r / q, level == 0 ? "0.6" : "0.59");
  }
}

}  // namespace
}  // namespace fuser

int main() {
  fuser::PrintFigure1b();
  fuser::PrintFigure1c();
  fuser::PrintFigure3();
  fuser::PrintWorkedProbabilities();
  return 0;
}
