// Shared helpers for the table/figure report generators.
#pragma once

#include <string>
#include <vector>

#include "backends/simulated_backend.h"
#include "backends/vendor_policy.h"
#include "core/dataset_qsl.h"
#include "core/loadgen.h"
#include "datasets/stub_dataset.h"
#include "models/zoo.h"
#include "soc/chipset.h"

namespace mlpm::benchutil {

// The benches and perfbench name the one performance-only query source
// through benchutil.
using StubDataset = datasets::StubDataset;

struct PerfOutcome {
  double p90_latency_s = 0.0;
  double mean_latency_s = 0.0;
  double throughput_sps = 0.0;  // single-stream: completed samples / time
  std::size_t samples = 0;
};

// Compliant single-stream run (>=1024 samples, >=60 virtual seconds).
inline PerfOutcome RunSingleStream(const soc::ChipsetDesc& chipset,
                                   models::SuiteVersion version,
                                   models::TaskType task) {
  const models::BenchmarkEntry* entry = nullptr;
  const auto suite = models::SuiteFor(version);
  for (const auto& e : suite)
    if (e.task == task) entry = &e;
  Expects(entry != nullptr, "task not in suite");

  const graph::Graph model = models::BuildReferenceGraph(
      *entry, version, models::ModelScale::kFull);
  const backends::SubmissionConfig sub =
      backends::GetSubmission(chipset, task, version);

  loadgen::VirtualClock clock;
  backends::SimulatedBackend sut(
      chipset.name, soc::SocSimulator(chipset),
      backends::CompileSubmission(chipset, sub, model),
      backends::CompileOfflineReplicas(chipset, sub, model), clock);
  StubDataset stub;
  loadgen::DatasetQsl qsl(stub);
  loadgen::TestSettings settings;
  const loadgen::TestResult r = loadgen::RunTest(sut, qsl, settings, clock);

  PerfOutcome out;
  out.p90_latency_s = r.percentile_latency_s;
  out.mean_latency_s = r.mean_latency_s;
  out.throughput_sps = r.throughput_sps;
  out.samples = r.sample_count;
  return out;
}

// Compliant offline run (24,576 samples in one burst, ALP per policy).
inline PerfOutcome RunOffline(const soc::ChipsetDesc& chipset,
                              models::SuiteVersion version,
                              models::TaskType task) {
  const auto suite = models::SuiteFor(version);
  const models::BenchmarkEntry* entry = nullptr;
  for (const auto& e : suite)
    if (e.task == task) entry = &e;
  Expects(entry != nullptr, "task not in suite");

  const graph::Graph model = models::BuildReferenceGraph(
      *entry, version, models::ModelScale::kFull);
  const backends::SubmissionConfig sub =
      backends::GetSubmission(chipset, task, version);
  Expects(!sub.offline_replicas.empty(),
          chipset.name + " has no offline submission for this task");

  loadgen::VirtualClock clock;
  backends::SimulatedBackend sut(
      chipset.name, soc::SocSimulator(chipset),
      backends::CompileSubmission(chipset, sub, model),
      backends::CompileOfflineReplicas(chipset, sub, model), clock);
  StubDataset stub;
  loadgen::DatasetQsl qsl(stub);
  loadgen::TestSettings settings;
  settings.scenario = loadgen::TestScenario::kOffline;
  const loadgen::TestResult r = loadgen::RunTest(sut, qsl, settings, clock);

  PerfOutcome out;
  out.throughput_sps = r.throughput_sps;
  out.samples = r.sample_count;
  return out;
}

}  // namespace mlpm::benchutil
