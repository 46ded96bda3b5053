// Paper-anchor regression tests: the simulator must keep reproducing the
// numbers the paper publishes (see EXPERIMENTS.md).  These tests pin the
// calibration so refactors of the cost model cannot silently drift away
// from the reproduced results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "backends/vendor_policy.h"
#include "models/zoo.h"
#include "soc/simulator.h"

namespace mlpm {
namespace {

double SingleStreamMs(const soc::ChipsetDesc& chipset,
                      models::TaskType task, models::SuiteVersion version) {
  const auto suite = models::SuiteFor(version);
  const models::BenchmarkEntry* entry = nullptr;
  for (const auto& e : suite)
    if (e.task == task) entry = &e;
  const graph::Graph model = models::BuildReferenceGraph(
      *entry, version, models::ModelScale::kFull);
  const backends::SubmissionConfig sub =
      backends::GetSubmission(chipset, task, version);
  return backends::CompileSubmission(chipset, sub, model).LatencySeconds() *
         1e3;
}

double OfflineFps(const soc::ChipsetDesc& chipset,
                  models::SuiteVersion version) {
  const auto suite = models::SuiteFor(version);
  const graph::Graph model = models::BuildReferenceGraph(
      suite[0], version, models::ModelScale::kFull);
  const backends::SubmissionConfig sub = backends::GetSubmission(
      chipset, models::TaskType::kImageClassification, version);
  const auto replicas =
      backends::CompileOfflineReplicas(chipset, sub, model);
  soc::SocSimulator sim(chipset);
  const soc::BatchResult r = sim.RunBatch(replicas, 24'576);
  return 24'576.0 / r.makespan_s;
}

// Table 3 anchors (exact paper numbers, 5% tolerance).
struct Table3Case {
  models::TaskType task;
  double paper_neuron_ms;
  double paper_nnapi_ms;
};

class Table3Anchor : public ::testing::TestWithParam<Table3Case> {};

TEST_P(Table3Anchor, NeuronLatencyMatchesPaper) {
  const Table3Case& c = GetParam();
  const double sim = SingleStreamMs(soc::Dimensity1100(), c.task,
                                    models::SuiteVersion::kV1_0);
  EXPECT_NEAR(sim, c.paper_neuron_ms, c.paper_neuron_ms * 0.05);
}

TEST_P(Table3Anchor, NnapiIsSlowerButBounded) {
  const Table3Case& c = GetParam();
  const soc::ChipsetDesc chip = soc::Dimensity1100();
  backends::SubmissionConfig nnapi = backends::GetSubmission(
      chip, c.task, models::SuiteVersion::kV1_0);
  nnapi.framework = backends::NnapiTraits("default");
  nnapi.single_stream.force_partition_every =
      nnapi.framework.force_partition_every;
  const auto suite = models::SuiteFor(models::SuiteVersion::kV1_0);
  const models::BenchmarkEntry* entry = nullptr;
  for (const auto& e : suite)
    if (e.task == c.task) entry = &e;
  const graph::Graph model = models::BuildReferenceGraph(
      *entry, models::SuiteVersion::kV1_0, models::ModelScale::kFull);
  const double nnapi_ms =
      backends::CompileSubmission(chip, nnapi, model).LatencySeconds() * 1e3;
  EXPECT_NEAR(nnapi_ms, c.paper_nnapi_ms, c.paper_nnapi_ms * 0.06);
  EXPECT_GT(nnapi_ms,
            SingleStreamMs(chip, c.task, models::SuiteVersion::kV1_0));
}

// Static storage zero-fills the padding after `task`, so the printed
// parameter (and with it the registered test name) is the same every run;
// brace-initialised temporaries passed to Values() leave stack garbage there.
constexpr Table3Case kTable3Cases[] = {
    {models::TaskType::kImageClassification, 2.23, 2.48},
    {models::TaskType::kObjectDetection, 4.77, 5.05},
    {models::TaskType::kImageSegmentation, 20.02, 20.56}};

INSTANTIATE_TEST_SUITE_P(PaperValues, Table3Anchor,
                         ::testing::ValuesIn(kTable3Cases));

TEST(OfflineAnchor, Exynos990MatchesPaper674) {
  EXPECT_NEAR(OfflineFps(soc::Exynos990(), models::SuiteVersion::kV0_7),
              674.4, 674.4 * 0.05);
}

TEST(OfflineAnchor, Snapdragon865MatchesPaper605) {
  EXPECT_NEAR(OfflineFps(soc::Snapdragon865Plus(),
                         models::SuiteVersion::kV0_7),
              605.37, 605.37 * 0.05);
}

TEST(Figure6Anchor, ExynosSegmentationJumpIsTwelvePointSeven) {
  const double v07 = SingleStreamMs(soc::Exynos990(),
                                    models::TaskType::kImageSegmentation,
                                    models::SuiteVersion::kV0_7);
  const double v10 = SingleStreamMs(soc::Exynos2100(),
                                    models::TaskType::kImageSegmentation,
                                    models::SuiteVersion::kV1_0);
  EXPECT_NEAR(v07 / v10, 12.7, 1.0);
}

TEST(Figure6Anchor, MeanSpeedupAboutTwoX) {
  const std::vector<std::pair<soc::ChipsetDesc, soc::ChipsetDesc>> families =
      {{soc::Dimensity820(), soc::Dimensity1100()},
       {soc::Exynos990(), soc::Exynos2100()},
       {soc::Snapdragon865Plus(), soc::Snapdragon888()},
       {soc::CoreI7_1165G7(), soc::CoreI7_11375H()}};
  double log_sum = 0.0;
  int n = 0;
  for (const auto& [v07, v10] : families) {
    for (const models::TaskType task :
         {models::TaskType::kImageClassification,
          models::TaskType::kObjectDetection,
          models::TaskType::kImageSegmentation,
          models::TaskType::kQuestionAnswering}) {
      const double speedup =
          SingleStreamMs(v07, task, models::SuiteVersion::kV0_7) /
          SingleStreamMs(v10, task, models::SuiteVersion::kV1_0);
      EXPECT_GE(speedup, 1.0);  // nobody regressed
      log_sum += std::log(speedup);
      ++n;
    }
  }
  const double geo_mean = std::exp(log_sum / n);
  EXPECT_GT(geo_mean, 1.6);
  EXPECT_LT(geo_mean, 2.4);
}

TEST(Figure7Anchor, V07WinnersMatchPaper) {
  const auto v = models::SuiteVersion::kV0_7;
  const soc::ChipsetDesc d = soc::Dimensity820();
  const soc::ChipsetDesc e = soc::Exynos990();
  const soc::ChipsetDesc s = soc::Snapdragon865Plus();

  // Samsung wins classification and NLP.
  EXPECT_LT(SingleStreamMs(e, models::TaskType::kImageClassification, v),
            SingleStreamMs(d, models::TaskType::kImageClassification, v));
  EXPECT_LT(SingleStreamMs(e, models::TaskType::kImageClassification, v),
            SingleStreamMs(s, models::TaskType::kImageClassification, v));
  EXPECT_LT(SingleStreamMs(e, models::TaskType::kQuestionAnswering, v),
            SingleStreamMs(d, models::TaskType::kQuestionAnswering, v));
  EXPECT_LT(SingleStreamMs(e, models::TaskType::kQuestionAnswering, v),
            SingleStreamMs(s, models::TaskType::kQuestionAnswering, v));
  // MediaTek wins detection and segmentation.
  EXPECT_LT(SingleStreamMs(d, models::TaskType::kObjectDetection, v),
            SingleStreamMs(e, models::TaskType::kObjectDetection, v));
  EXPECT_LT(SingleStreamMs(d, models::TaskType::kObjectDetection, v),
            SingleStreamMs(s, models::TaskType::kObjectDetection, v));
  EXPECT_LT(SingleStreamMs(d, models::TaskType::kImageSegmentation, v),
            SingleStreamMs(e, models::TaskType::kImageSegmentation, v));
  EXPECT_LT(SingleStreamMs(d, models::TaskType::kImageSegmentation, v),
            SingleStreamMs(s, models::TaskType::kImageSegmentation, v));
  // Qualcomm competitive (within 15%) on segmentation.
  EXPECT_LT(SingleStreamMs(s, models::TaskType::kImageSegmentation, v),
            1.15 * SingleStreamMs(d, models::TaskType::kImageSegmentation,
                                  v));
}

TEST(NoOneSizeFitsAll, NoChipsetDominatesEverywhere) {
  // Paper insight 2, as an invariant over both rounds.
  for (const auto version :
       {models::SuiteVersion::kV0_7, models::SuiteVersion::kV1_0}) {
    const auto catalog = version == models::SuiteVersion::kV0_7
                             ? soc::CatalogV07()
                             : soc::CatalogV10();
    std::vector<std::string> winners;
    for (const models::TaskType task :
         {models::TaskType::kImageClassification,
          models::TaskType::kObjectDetection,
          models::TaskType::kImageSegmentation,
          models::TaskType::kQuestionAnswering}) {
      double best = 1e9;
      std::string who;
      for (const soc::ChipsetDesc& c : catalog) {
        if (c.name.starts_with("Core i7")) continue;  // phones only
        const double ms = SingleStreamMs(c, task, version);
        if (ms < best) {
          best = ms;
          who = c.name;
        }
      }
      winners.push_back(who);
    }
    const bool all_same =
        std::all_of(winners.begin(), winners.end(),
                    [&](const std::string& w) { return w == winners[0]; });
    EXPECT_FALSE(all_same) << "one chipset dominates " <<
        std::string(ToString(version));
  }
}

}  // namespace
}  // namespace mlpm
