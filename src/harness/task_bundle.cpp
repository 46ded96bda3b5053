#include "harness/task_bundle.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "datasets/calibration_set.h"
#include "datasets/classification_dataset.h"
#include "datasets/detection_dataset.h"
#include "datasets/qa_dataset.h"
#include "datasets/segmentation_dataset.h"
#include "models/deeplab.h"
#include "models/mobilebert.h"
#include "models/mobilenet_edgetpu.h"
#include "obs/metrics.h"
#include "quant/calibration.h"

namespace mlpm::harness {
namespace {

// Probe-sample equivalence gate for the transform stage (DESIGN.md §14):
// the rewritten executor must reproduce the untransformed one on real
// dataset inputs before the transformed model is allowed to score.  INT8's
// simulated quantization is deterministic, so it must match bit for bit;
// FP32/FP16 rewrites all commute exactly with their roundings, so the
// tolerance only absorbs compiler-level FP reassociation.
constexpr std::size_t kTransformProbeSamples = 4;
constexpr float kTransformProbeTolerance = 1e-6f;

// Empty string = outputs agree; otherwise a one-line description of the
// first disagreement.
std::string CompareProbeOutputs(const std::vector<infer::Tensor>& want,
                                const std::vector<infer::Tensor>& got,
                                infer::NumericsMode mode) {
  if (want.size() != got.size()) return "output count mismatch";
  const float tol =
      mode == infer::NumericsMode::kInt8 ? 0.0f : kTransformProbeTolerance;
  for (std::size_t o = 0; o < want.size(); ++o) {
    const std::span<const float> a = want[o].values();
    const std::span<const float> b = got[o].values();
    if (a.size() != b.size())
      return "output " + std::to_string(o) + " size mismatch";
    for (std::size_t i = 0; i < a.size(); ++i) {
      // Negated comparison so a NaN on either side counts as disagreement.
      if (!(std::fabs(a[i] - b[i]) <= tol))
        return "output " + std::to_string(o) + "[" + std::to_string(i) +
               "]: " + std::to_string(a[i]) + " vs " + std::to_string(b[i]);
    }
  }
  return {};
}

}  // namespace

std::unique_ptr<TaskBundle> TaskBundle::Create(
    const models::BenchmarkEntry& e, models::SuiteVersion version,
    std::uint64_t weight_seed) {
  auto b = std::unique_ptr<TaskBundle>(new TaskBundle());
  b->entry_ = e;
  b->version_ = version;

  switch (e.task) {
    case models::TaskType::kImageClassification: {
      b->owned_graph_ = std::make_unique<graph::Graph>(
          models::BuildMobileNetEdgeTpu(models::ModelScale::kMini));
      b->graph_ = b->owned_graph_.get();
      b->weights_ = infer::InitializeWeights(*b->graph_, weight_seed);
      b->dataset_ = std::make_unique<datasets::ClassificationDataset>(
          *b->graph_, b->weights_, datasets::ClassificationDatasetConfig{});
      break;
    }
    case models::TaskType::kObjectDetection: {
      b->detection_model_ = std::make_unique<models::DetectionModel>(
          version == models::SuiteVersion::kV0_7
              ? models::BuildSsdMobileNetV2(models::ModelScale::kMini)
              : models::BuildMobileDetSsd(models::ModelScale::kMini));
      b->graph_ = &b->detection_model_->graph;
      b->weights_ = infer::InitializeWeights(*b->graph_, weight_seed);
      b->dataset_ = std::make_unique<datasets::DetectionDataset>(
          *b->detection_model_, b->weights_,
          datasets::DetectionDatasetConfig{});
      break;
    }
    case models::TaskType::kImageSegmentation: {
      b->owned_graph_ = std::make_unique<graph::Graph>(
          models::BuildDeepLabV3Plus(models::ModelScale::kMini));
      b->graph_ = b->owned_graph_.get();
      b->weights_ = infer::InitializeWeights(*b->graph_, weight_seed);
      b->dataset_ = std::make_unique<datasets::SegmentationDataset>(
          *b->graph_, b->weights_, datasets::SegmentationDatasetConfig{});
      break;
    }
    case models::TaskType::kQuestionAnswering: {
      const models::MobileBertConfig cfg = models::MiniMobileBertConfig();
      b->owned_graph_ = std::make_unique<graph::Graph>(
          models::BuildMobileBert(cfg));
      b->graph_ = b->owned_graph_.get();
      b->weights_ = infer::InitializeWeights(*b->graph_, weight_seed);
      b->dataset_ = std::make_unique<datasets::QaDataset>(
          *b->graph_, b->weights_, cfg, datasets::QaDatasetConfig{});
      break;
    }
  }
  return b;
}

TaskBundle::PreparedModel TaskBundle::Prepare(
    infer::NumericsMode mode, bool use_qat_weights,
    infer::kernels::KernelIsa isa, bool transform,
    const infer::TileOptions& tiling) const {
  const std::pair<int, std::int64_t> key{
      (static_cast<int>(mode) * 2 + (use_qat_weights ? 1 : 0)) * 8 +
          static_cast<int>(isa) + (transform ? 64 : 0),
      tiling.enabled ? tiling.rows : -2};
  if (const auto it = prepared_cache_.find(key); it != prepared_cache_.end())
    return it->second;

  if (transform) {
    PreparedModel p = PrepareTransformed(mode, use_qat_weights, isa, tiling);
    prepared_cache_.emplace(key, p);
    return p;
  }

  PreparedModel p;
  const infer::WeightStore* weights = &weights_;
  if (use_qat_weights) {
    if (!qat_weights_)
      qat_weights_ = quant::RefineWeightsMseOptimal(*graph_, weights_);
    weights = &*qat_weights_;
  }
  if (mode == infer::NumericsMode::kInt8) {
    p.calibration_indices = datasets::ApprovedCalibrationIndices(
        kCalibrationPoolSize, kCalibrationSetSize, kCalibrationSeed);
    const std::vector<quant::CalibrationSample> samples =
        datasets::GatherCalibrationSamples(*dataset_, p.calibration_indices);
    const infer::QuantParams qp =
        quant::CalibratePtq(*graph_, *weights, samples);
    p.model = std::make_shared<const infer::Executor>(*graph_, *weights,
                                                      mode, &qp, isa, tiling);
  } else {
    p.model = std::make_shared<const infer::Executor>(*graph_, *weights,
                                                      mode, nullptr, isa,
                                                      tiling);
  }
  p.executor = p.model.get();
  prepared_cache_.emplace(key, p);
  return p;
}

TaskBundle::PreparedModel TaskBundle::PrepareTransformed(
    infer::NumericsMode mode, bool use_qat_weights,
    infer::kernels::KernelIsa isa, const infer::TileOptions& tiling) const {
  // The untransformed model at identical numerics is both the equivalence
  // baseline and the fallback if any gate trips; the regular cache shares
  // its prepack with non-transform runs.
  PreparedModel base = Prepare(mode, use_qat_weights, isa,
                               /*transform=*/false, tiling);
  base.transform.requested = true;

  // Base Prepare() materialized qat_weights_ when requested.
  const infer::WeightStore* weights =
      use_qat_weights ? &*qat_weights_ : &weights_;

  auto tr = std::make_shared<transform::TransformResult>(
      transform::MakeDefaultPipeline(
          {.mode = mode, .metrics = &obs::MetricsRegistry::Global()})
          .Run(*graph_, *weights));

  TransformInfo info;
  info.requested = true;
  info.passes = tr->PassList();
  info.rewrites = tr->TotalRewrites();
  info.nodes_before = tr->nodes_canonical;
  info.nodes_after = tr->nodes_after;

  if (tr->diagnostics.HasErrors()) {
    // Every failing pass was rolled back, so the result graph is still
    // executable — but an error means a pass misbehaved; run the
    // untransformed graph and say so.
    base.transform = std::move(info);
    base.transform.detail =
        "transform verification reported errors; ran untransformed graph";
    return base;
  }

  PreparedModel p;
  if (mode == infer::NumericsMode::kInt8) {
    // Re-run PTQ over the same approved calibration subset, against the
    // rewritten graph: fused nodes removed intermediate tensors, so the
    // untransformed ranges no longer line up one-to-one.
    p.calibration_indices = base.calibration_indices;
    const std::vector<quant::CalibrationSample> samples =
        datasets::GatherCalibrationSamples(*dataset_, p.calibration_indices);
    const infer::QuantParams qp =
        quant::CalibratePtq(tr->graph, tr->weights, samples);
    p.model = std::make_shared<const infer::Executor>(
        tr->graph, tr->weights, mode, &qp, isa, tiling);
  } else {
    p.model = std::make_shared<const infer::Executor>(
        tr->graph, tr->weights, mode, nullptr, isa, tiling);
  }
  p.executor = p.model.get();
  p.transformed = tr;  // keeps the graph/weights alive for p.model
  p.transform = info;

  const std::size_t probes =
      std::min<std::size_t>(kTransformProbeSamples, dataset_->size());
  for (std::size_t i = 0; i < probes; ++i) {
    const std::vector<infer::Tensor> inputs = dataset_->InputsFor(i);
    const std::string mismatch = CompareProbeOutputs(
        base.executor->Run(inputs), p.executor->Run(inputs), mode);
    if (!mismatch.empty()) {
      base.transform = std::move(info);
      base.transform.detail = "equivalence probe failed on sample " +
                              std::to_string(i) + " (" + mismatch +
                              "); ran untransformed graph";
      return base;
    }
  }
  p.transform.applied = true;
  return p;
}

double TaskBundle::ScoreAccuracy(const infer::Executor& executor,
                                 const ThreadPool* pool) const {
  std::vector<std::vector<infer::Tensor>> outputs = infer::RunSamplesParallel(
      executor, dataset_->size(),
      [&](std::size_t i) { return dataset_->InputsFor(i); }, pool);
  return dataset_->ScoreOutputs(outputs);
}

double TaskBundle::Fp32Score(const ThreadPool* pool,
                             infer::kernels::KernelIsa isa) const {
  const int key = static_cast<int>(isa);
  if (const auto it = fp32_scores_.find(key); it != fp32_scores_.end())
    return it->second;
  const infer::Executor fp32(*graph_, weights_, infer::NumericsMode::kFp32,
                             nullptr, isa);
  const double score = ScoreAccuracy(fp32, pool);
  fp32_scores_.emplace(key, score);
  return score;
}

}  // namespace mlpm::harness
