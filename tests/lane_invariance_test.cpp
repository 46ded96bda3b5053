// Lane invariance of a submission's host set-up phases: teacher labelling
// of every data set and PTQ calibration fan their forward passes out over a
// pool, and must produce bit-identical labels, indices, ground truth and
// activation ranges with no pool, two lanes and four lanes.  The teacher and
// calibration executors are shared read-only across workers, so this suite
// also runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "datasets/calibration_set.h"
#include "datasets/classification_dataset.h"
#include "datasets/detection_dataset.h"
#include "datasets/qa_dataset.h"
#include "datasets/segmentation_dataset.h"
#include "datasets/speech_dataset.h"
#include "infer/weights.h"
#include "models/deeplab.h"
#include "models/mobilebert.h"
#include "models/mobilenet_edgetpu.h"
#include "models/rnnt.h"
#include "models/ssd.h"
#include "quant/calibration.h"

namespace mlpm {
namespace {

// The pools every build is compared across; null is the serial path.
struct Lanes {
  ThreadPool two{2};
  ThreadPool four{4};
  [[nodiscard]] std::vector<const ThreadPool*> all() const {
    return {nullptr, &two, &four};
  }
};

const Lanes& TestLanes() {
  static const Lanes lanes;
  return lanes;
}

bool SameBits(const std::vector<infer::Tensor>& a,
              const std::vector<infer::Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].shape() == b[i].shape())) return false;
    if (std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)) !=
        0)
      return false;
  }
  return true;
}

// Builds a data set once per pool and checks every later build against the
// serial one: same size, same inputs per sample (which pins the accepted
// candidate indices), and `same_truth` for the ground truth of sample i.
template <typename Dataset>
void ExpectLaneInvariant(
    const std::function<std::unique_ptr<Dataset>(const ThreadPool*)>& build,
    const std::function<bool(const Dataset&, const Dataset&, std::size_t)>&
        same_truth) {
  const std::vector<const ThreadPool*> pools = TestLanes().all();
  const std::unique_ptr<Dataset> serial = build(pools[0]);
  ASSERT_GT(serial->size(), 0u);
  for (std::size_t p = 1; p < pools.size(); ++p) {
    const std::unique_ptr<Dataset> pooled = build(pools[p]);
    const std::size_t lanes = pools[p]->thread_count();
    ASSERT_EQ(pooled->size(), serial->size()) << lanes << " lanes";
    for (std::size_t i = 0; i < serial->size(); ++i) {
      EXPECT_TRUE(SameBits(serial->InputsFor(i), pooled->InputsFor(i)))
          << "sample " << i << " input differs at " << lanes << " lanes";
      EXPECT_TRUE(same_truth(*serial, *pooled, i))
          << "sample " << i << " ground truth differs at " << lanes
          << " lanes";
    }
  }
}

bool SameBox(const metrics::GroundTruthBox& a,
             const metrics::GroundTruthBox& b) {
  return a.class_id == b.class_id && a.box.ymin == b.box.ymin &&
         a.box.xmin == b.box.xmin && a.box.ymax == b.box.ymax &&
         a.box.xmax == b.box.xmax;
}

TEST(LaneInvariance, ClassificationLabelsAndIndices) {
  const graph::Graph g =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kMini);
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  datasets::ClassificationDatasetConfig cfg;
  cfg.num_samples = 40;  // the default margin filter still rejects some
  ExpectLaneInvariant<datasets::ClassificationDataset>(
      [&](const ThreadPool* pool) {
        return std::make_unique<datasets::ClassificationDataset>(g, w, cfg,
                                                                 pool);
      },
      [](const auto& a, const auto& b, std::size_t i) {
        return a.LabelFor(i) == b.LabelFor(i);
      });
}

TEST(LaneInvariance, ExhaustedCandidatePoolThrowsAtAnyLaneCount) {
  const graph::Graph g =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kMini);
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  datasets::ClassificationDatasetConfig cfg;
  cfg.num_samples = 2;
  cfg.min_teacher_margin = 1e9;
  for (const ThreadPool* pool : TestLanes().all())
    EXPECT_THROW((datasets::ClassificationDataset{g, w, cfg, pool}),
                 CheckError);
}

void ExpectDetectionInvariant(const models::DetectionModel& m) {
  const infer::WeightStore w = infer::InitializeWeights(m.graph, 7);
  datasets::DetectionDatasetConfig cfg;
  cfg.num_samples = 24;
  ExpectLaneInvariant<datasets::DetectionDataset>(
      [&](const ThreadPool* pool) {
        return std::make_unique<datasets::DetectionDataset>(m, w, cfg, pool);
      },
      [](const auto& a, const auto& b, std::size_t i) {
        const metrics::ImageGroundTruth& ga = a.GroundTruthFor(i);
        const metrics::ImageGroundTruth& gb = b.GroundTruthFor(i);
        if (ga.size() != gb.size()) return false;
        for (std::size_t k = 0; k < ga.size(); ++k)
          if (!SameBox(ga[k], gb[k])) return false;
        return true;
      });
}

TEST(LaneInvariance, DetectionGroundTruthMobileDet) {
  ExpectDetectionInvariant(
      models::BuildMobileDetSsd(models::ModelScale::kMini));
}

TEST(LaneInvariance, DetectionGroundTruthV07Ssd) {
  ExpectDetectionInvariant(
      models::BuildSsdMobileNetV2(models::ModelScale::kMini));
}

TEST(LaneInvariance, SegmentationLabelMaps) {
  const graph::Graph g = models::BuildDeepLabV3Plus(models::ModelScale::kMini);
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  datasets::SegmentationDatasetConfig cfg;
  cfg.num_samples = 12;
  ExpectLaneInvariant<datasets::SegmentationDataset>(
      [&](const ThreadPool* pool) {
        return std::make_unique<datasets::SegmentationDataset>(g, w, cfg,
                                                               pool);
      },
      [](const auto& a, const auto& b, std::size_t i) {
        return a.LabelMapFor(i) == b.LabelMapFor(i);
      });
}

TEST(LaneInvariance, QaTruthsAndTokenIndices) {
  const models::MobileBertConfig mc = models::MiniMobileBertConfig();
  const graph::Graph g = models::BuildMobileBert(mc);
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  datasets::QaDatasetConfig cfg;
  cfg.num_samples = 24;  // the default margin filter still rejects some
  ExpectLaneInvariant<datasets::QaDataset>(
      [&](const ThreadPool* pool) {
        return std::make_unique<datasets::QaDataset>(g, w, mc, cfg, pool);
      },
      [](const auto& a, const auto& b, std::size_t i) {
        return a.TruthFor(i).start == b.TruthFor(i).start &&
               a.TruthFor(i).end == b.TruthFor(i).end;
      });
}

TEST(LaneInvariance, SpeechReferences) {
  const models::RnntConfig mc = models::MiniRnntConfig();
  const graph::Graph g = models::BuildMobileRnnt(mc);
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  datasets::SpeechDatasetConfig cfg;
  cfg.num_samples = 16;
  ExpectLaneInvariant<datasets::SpeechDataset>(
      [&](const ThreadPool* pool) {
        return std::make_unique<datasets::SpeechDataset>(g, w, mc, cfg, pool);
      },
      [](const auto& a, const auto& b, std::size_t i) {
        return a.ReferenceFor(i) == b.ReferenceFor(i);
      });
}

// Calibration over a real mini model and its approved calibration subset:
// the gathered samples and the calibrated ranges must match the serial run
// bit for bit, for both range methods.
void ExpectCalibrationInvariant(const graph::Graph& g,
                                const infer::WeightStore& w,
                                const datasets::TaskDataset& ds) {
  const std::vector<std::size_t> idx =
      datasets::ApprovedCalibrationIndices(1000, 24, 0xCA11B);
  const std::vector<quant::CalibrationSample> samples =
      datasets::GatherCalibrationSamples(ds, idx);
  const ThreadPool& four = TestLanes().four;
  const std::vector<quant::CalibrationSample> pooled_samples =
      datasets::GatherCalibrationSamples(ds, idx, &four);
  ASSERT_EQ(pooled_samples.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i)
    EXPECT_TRUE(SameBits(samples[i], pooled_samples[i])) << "sample " << i;

  for (const quant::RangeMethod method :
       {quant::RangeMethod::kMinMax, quant::RangeMethod::kMovingAverage}) {
    quant::CalibrationConfig cc;
    cc.method = method;
    const infer::QuantParams serial = quant::CalibratePtq(g, w, samples, cc);
    const infer::QuantParams pooled =
        quant::CalibratePtq(g, w, samples, cc, &four);
    ASSERT_FALSE(serial.activation_ranges.empty());
    ASSERT_EQ(pooled.activation_ranges.size(),
              serial.activation_ranges.size());
    for (const auto& [id, r] : serial.activation_ranges) {
      const auto it = pooled.activation_ranges.find(id);
      ASSERT_NE(it, pooled.activation_ranges.end());
      EXPECT_EQ(std::memcmp(&it->second, &r, sizeof r), 0)
          << "tensor " << g.tensor(id).name << " method "
          << static_cast<int>(method);
    }
  }
}

TEST(LaneInvariance, CalibrationRangesClassification) {
  const graph::Graph g =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kMini);
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  datasets::ClassificationDatasetConfig cfg;
  cfg.num_samples = 4;
  const datasets::ClassificationDataset ds(g, w, cfg);
  ExpectCalibrationInvariant(g, w, ds);
}

TEST(LaneInvariance, CalibrationRangesQa) {
  const models::MobileBertConfig mc = models::MiniMobileBertConfig();
  const graph::Graph g = models::BuildMobileBert(mc);
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  datasets::QaDatasetConfig cfg;
  cfg.num_samples = 4;
  const datasets::QaDataset ds(g, w, mc, cfg);
  ExpectCalibrationInvariant(g, w, ds);
}

}  // namespace
}  // namespace mlpm
