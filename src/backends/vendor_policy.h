// Table 2 of the paper as data: which numerics, framework and accelerators
// each vendor used per task, per benchmark round.
//
// These choices are the paper's central transparency artifact — "myriad
// combinations of numerics, software run times, and hardware" — and they
// drive everything the simulator reports: no one engine wins every task
// (Insight 2), vision runs INT8 on NPUs/DSPs while NLP runs FP16 on GPUs
// (Insight 5), offline mode exercises ALP (Insight 3).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "backends/framework.h"
#include "common/types.h"
#include "models/common.h"
#include "models/zoo.h"
#include "soc/chipset.h"
#include "soc/compile.h"

namespace mlpm::backends {

struct SubmissionConfig {
  std::string chipset_name;
  models::TaskType task = models::TaskType::kImageClassification;
  DataType numerics = DataType::kInt8;
  FrameworkTraits framework;
  // Display string for the accelerator cell of Table 2 (e.g. "AIP (HTA+HVX)").
  std::string accelerator_label;

  soc::ExecutionPolicy single_stream;
  // One replica policy per concurrently-used engine in offline mode; empty
  // means the vendor did not submit this task in the offline scenario.
  std::vector<soc::ExecutionPolicy> offline_replicas;
};

// The submission a vendor made for (chipset, task) in the given round.
// Throws CheckError for chipsets not in that round's catalog.
[[nodiscard]] SubmissionConfig GetSubmission(const soc::ChipsetDesc& chipset,
                                             models::TaskType task,
                                             models::SuiteVersion version);

// Convenience: compile the submission's model onto the chipset.
[[nodiscard]] soc::CompiledModel CompileSubmission(
    const soc::ChipsetDesc& chipset, const SubmissionConfig& config,
    const graph::Graph& model);

// Offline replicas compiled per engine (empty if no offline submission).
[[nodiscard]] std::vector<soc::CompiledModel> CompileOfflineReplicas(
    const soc::ChipsetDesc& chipset, const SubmissionConfig& config,
    const graph::Graph& model);

// Compiles the CPU-fallback plan a Recovery degrades to: the whole graph
// on the chipset's CPU through the generic NNAPI runtime path (the only
// stack guaranteed to exist when a vendor driver is broken, App. D).
// Falls back to FP32 numerics if the CPU does not support `preferred`.
[[nodiscard]] soc::CompiledModel CompileCpuFallback(
    const soc::ChipsetDesc& chipset, const graph::Graph& model,
    DataType preferred);

}  // namespace mlpm::backends
