// A task bundle: everything the functional accuracy plane needs for one
// benchmark task — the mini-scale reference model (frozen synthetic
// weights), its data set, and numerics preparation (PTQ against the
// approved calibration set, FP16 rounding, optional QAT-agreed weights).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "datasets/task_dataset.h"
#include "infer/executor.h"
#include "models/ssd.h"
#include "models/zoo.h"
#include "transform/pass_manager.h"

namespace mlpm {
class ThreadPool;
}

namespace mlpm::harness {

// The approved calibration set size (paper §5.1: "typically 500 samples");
// scaled to the mini data plane.
inline constexpr std::size_t kCalibrationSetSize = 128;
inline constexpr std::size_t kCalibrationPoolSize = 1000;
inline constexpr std::uint64_t kCalibrationSeed = 0xCA11B;

class TaskBundle {
 public:
  // Builds the mini reference model + data set for a suite entry.
  // `weight_seed` is the frozen-checkpoint seed (fixed per suite release).
  static std::unique_ptr<TaskBundle> Create(const models::BenchmarkEntry& e,
                                            models::SuiteVersion version,
                                            std::uint64_t weight_seed = 7);

  [[nodiscard]] const models::BenchmarkEntry& entry() const { return entry_; }
  [[nodiscard]] const graph::Graph& mini_graph() const {
    return *NotNull(graph_, "task bundle has no model graph");
  }
  [[nodiscard]] const infer::WeightStore& weights() const { return weights_; }
  [[nodiscard]] const datasets::TaskDataset& dataset() const {
    return *NotNull(dataset_.get(), "task bundle has no data set");
  }

  // Outcome of the opt-in transform stage for one prepared model.
  struct TransformInfo {
    bool requested = false;  // Prepare() was asked to transform
    bool applied = false;    // executor runs the transformed graph
    std::string passes;      // resolved pass list (comma-joined)
    std::size_t rewrites = 0;
    std::size_t nodes_before = 0;  // canonical-form input node count
    std::size_t nodes_after = 0;   // executed node count
    // Why the stage fell back to the untransformed graph ("" when applied
    // or never requested).
    std::string detail;
  };

  struct PreparedModel {
    // Shared so repeated Prepare() calls at the same numerics reuse one
    // prepack (weight transform + PTQ) instead of redoing it.  Run is
    // const, so one executor serves any number of threads.
    std::shared_ptr<const infer::Executor> model;
    // Convenience view of model.get(); never null.
    const infer::Executor* executor = nullptr;
    // Calibration sample indices consumed (for the checker); empty unless
    // INT8.
    std::vector<std::size_t> calibration_indices;
    // Owns the rewritten graph + weights `model` references when the
    // transform stage applied; null otherwise.  Must live as long as
    // `model`, which is why it rides in the same cache entry.
    std::shared_ptr<const transform::TransformResult> transformed;
    TransformInfo transform;
  };

  // Prepares an executor at the given numerics.  INT8 runs PTQ over the
  // approved calibration subset; `use_qat_weights` selects the
  // mutually-agreed QAT-equivalent weights instead of the plain frozen ones.
  // `isa` forces the kernel table (kAuto = best available).  Results are
  // cached per (mode, qat, isa, transform) tuple: weights are
  // quantized/packed once per graph and reused across runs.
  //
  // With `transform` set, the verified rewrite pipeline (DESIGN.md §14) runs
  // on the reference graph first and the executor is built over the rewritten
  // graph.  Equivalence is enforced, not assumed: probe samples run through
  // both executors and must agree bit-for-bit under INT8's u8-stable
  // simulated quantization, and within 1e-6 max-abs under FP32/FP16 (the
  // committed rewrites commute exactly with those roundings; the tolerance
  // absorbs only compiler-level FP reassociation).  Any disagreement falls
  // back to the untransformed model and records why in `transform.detail`.
  //
  // `tiling` opts the prepared executors into fused tiled segment execution
  // (DESIGN.md §15) — bit-identical to whole-op execution, so accuracy
  // scores are unchanged; only memory footprint and locality differ.  The
  // FP32 reference (Fp32Score) always runs untiled as the oracle.
  [[nodiscard]] PreparedModel Prepare(
      infer::NumericsMode mode, bool use_qat_weights = false,
      infer::kernels::KernelIsa isa = infer::kernels::KernelIsa::kAuto,
      bool transform = false, const infer::TileOptions& tiling = {}) const;

  // Runs the full validation set through `executor` and scores it, fanning
  // samples out over `pool` when given (bit-identical to the serial path).
  [[nodiscard]] double ScoreAccuracy(const infer::Executor& executor,
                                     const ThreadPool* pool = nullptr) const;

  // FP32 reference score, computed with the same kernel ISA as the run
  // under test so the ratio compares numerics, not kernels (cached per ISA
  // after first call).
  [[nodiscard]] double Fp32Score(
      const ThreadPool* pool = nullptr,
      infer::kernels::KernelIsa isa = infer::kernels::KernelIsa::kAuto) const;

 private:
  TaskBundle() = default;

  // Transform-enabled arm of Prepare(): runs the pipeline, rebuilds INT8
  // calibration on the rewritten graph, and gates on the probe-sample
  // equivalence check.  Falls back to the untransformed model on any
  // disagreement.
  [[nodiscard]] PreparedModel PrepareTransformed(
      infer::NumericsMode mode, bool use_qat_weights,
      infer::kernels::KernelIsa isa, const infer::TileOptions& tiling) const;

  models::BenchmarkEntry entry_;
  models::SuiteVersion version_ = models::SuiteVersion::kV1_0;
  // For detection tasks the graph lives inside detection_model_.
  std::unique_ptr<models::DetectionModel> detection_model_;
  std::unique_ptr<graph::Graph> owned_graph_;
  const graph::Graph* graph_ = nullptr;
  infer::WeightStore weights_;
  mutable std::optional<infer::WeightStore> qat_weights_;  // lazy
  std::unique_ptr<datasets::TaskDataset> dataset_;
  // FP32 reference scores keyed by kernel ISA.
  mutable std::map<int, double> fp32_scores_;
  // Prepack cache, keyed by ((mode, use_qat_weights, isa, transform),
  // tile-rows) — the second component is the tiling request (-2 = untiled),
  // so differently-tiled executors never share an entry.
  mutable std::map<std::pair<int, std::int64_t>, PreparedModel>
      prepared_cache_;
};

}  // namespace mlpm::harness
