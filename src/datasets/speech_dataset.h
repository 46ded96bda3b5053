// Synthetic speech data set for the RNN-T encoder extension (paper App. E).
//
// Samples are smooth synthetic feature sequences (a stand-in for log-mel
// spectrograms); reference transcripts are the FP32 teacher's own greedy
// CTC decode with seeded token drops/substitutions.  The score is
// 1 - token error rate, clamped to [0, 1].
#pragma once

#include <cstdint>
#include <vector>

#include "datasets/task_dataset.h"
#include "infer/weights.h"
#include "models/rnnt.h"

namespace mlpm::datasets {

struct SpeechDatasetConfig {
  std::size_t num_samples = 48;
  double token_drop_rate = 0.04;
  double token_substitution_rate = 0.04;
  std::uint64_t seed = 0x5BEECB;
};

class SpeechDataset final : public TaskDataset {
 public:
  // Teacher passes fan out over `pool` (null = serial; references are
  // identical at any lane count).
  SpeechDataset(const graph::Graph& model, const infer::WeightStore& weights,
                models::RnntConfig model_cfg, SpeechDatasetConfig config,
                const ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t size() const override { return refs_.size(); }
  [[nodiscard]] std::vector<infer::Tensor> InputsFor(
      std::size_t index) const override;
  [[nodiscard]] double ScoreOutputs(
      std::span<const std::vector<infer::Tensor>> outputs) const override;
  [[nodiscard]] std::string_view metric_name() const override {
    return "1-WER";
  }
  [[nodiscard]] std::vector<infer::Tensor> CalibrationInputsFor(
      std::size_t index) const override;

  [[nodiscard]] const std::vector<int>& ReferenceFor(std::size_t index) const;

 private:
  [[nodiscard]] infer::Tensor MakeFeatures(std::uint64_t name_space,
                                           std::size_t index) const;

  models::RnntConfig model_cfg_;
  SpeechDatasetConfig cfg_;
  std::vector<std::vector<int>> refs_;
};

}  // namespace mlpm::datasets
