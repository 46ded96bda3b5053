// Bit-exactness of the parallel execution engine: the optimized GEMM
// against the naive reference, the threaded executor against the serial
// executor for every reference model, and the deferred ReferenceBackend /
// threaded harness against their serial counterparts.  Every comparison is
// EXPECT_EQ on floats: the engine promises bit-identical results for any
// thread count.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "backends/reference_backend.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dataset_qsl.h"
#include "core/loadgen.h"
#include "harness/run_session.h"
#include "infer/executor.h"
#include "infer/gemm.h"
#include "infer/weights.h"
#include "models/zoo.h"
#include "reference_ops.h"

namespace mlpm {
namespace {

std::vector<float> RandomFloats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  return v;
}

TEST(GemmF32, TiledMatchesReferenceBitExactly) {
  ThreadPool pool(3);
  // Sizes straddle the 4x4 register tile and the k-block boundary.
  struct Case { std::size_t m, n, k; };
  for (const Case c : {Case{1, 1, 1}, Case{3, 5, 7}, Case{4, 4, 4},
                       Case{17, 9, 33}, Case{32, 32, 600}, Case{5, 128, 64}}) {
    const std::vector<float> a = RandomFloats(c.m * c.k, 11);
    const std::vector<float> b = RandomFloats(c.n * c.k, 22);
    std::vector<float> ref(c.m * c.n), opt(c.m * c.n), par(c.m * c.n);
    reference::GemmF32Ref(a, b, c.m, c.n, c.k, ref);
    infer::GemmF32(a, b, c.m, c.n, c.k, opt);
    infer::GemmF32(a, b, c.m, c.n, c.k, par, &pool);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i], opt[i]) << "serial mismatch at " << i;
      EXPECT_EQ(ref[i], par[i]) << "parallel mismatch at " << i;
    }
  }
}

// Deterministic pseudo-random inputs for a graph (QA token ids included:
// the embedding lookup clamps, so any float is legal).
std::vector<infer::Tensor> GraphInputs(const graph::Graph& g,
                                       std::uint64_t seed) {
  std::vector<infer::Tensor> inputs;
  Rng rng(seed);
  for (const graph::TensorId id : g.input_ids()) {
    infer::Tensor t(g.tensor(id).shape);
    for (auto& v : t.values()) v = static_cast<float>(rng.NextUniform(0.0, 1.0));
    inputs.push_back(std::move(t));
  }
  return inputs;
}

TEST(GemmF32, SizeMismatchThrows) {
  const std::vector<float> a(4), b(4);
  std::vector<float> c(3);  // 2x2 expected
  EXPECT_THROW(infer::GemmF32(a, b, 2, 2, 2, c), CheckError);
}

TEST(ParallelExecutor, BitIdenticalToSerialForAllReferenceModels) {
  ThreadPool pool(4);
  for (const models::BenchmarkEntry& e :
       models::SuiteFor(models::SuiteVersion::kV1_0)) {
    const graph::Graph g = models::BuildReferenceGraph(
        e, models::SuiteVersion::kV1_0, models::ModelScale::kMini);
    const infer::WeightStore weights = infer::InitializeWeights(g, 7);
    const infer::Executor exec(g, weights);
    const std::vector<infer::Tensor> inputs = GraphInputs(g, 99);

    const std::vector<infer::Tensor> serial = exec.Run(inputs);
    infer::ExecutionContext ctx = exec.CreateContext();
    const std::vector<infer::Tensor> threaded =
        exec.Run(inputs, ctx, {}, &pool);
    ASSERT_EQ(serial.size(), threaded.size()) << e.id;
    for (std::size_t o = 0; o < serial.size(); ++o) {
      ASSERT_EQ(serial[o].size(), threaded[o].size());
      for (std::size_t i = 0; i < serial[o].size(); ++i)
        EXPECT_EQ(serial[o].at(i), threaded[o].at(i))
            << e.id << " output " << o << " element " << i;
    }
  }
}

TEST(ParallelExecutor, BitIdenticalAcrossThreadCounts) {
  // INT8 numerics (fake-quant path) with several pool widths against the
  // null-pool baseline.
  const auto e = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const graph::Graph g = models::BuildReferenceGraph(
      e, models::SuiteVersion::kV1_0, models::ModelScale::kMini);
  const infer::WeightStore weights = infer::InitializeWeights(g, 7);
  const infer::QuantParams qp;  // weight fake-quant only
  const infer::Executor exec(g, weights, infer::NumericsMode::kInt8, &qp);
  const std::vector<infer::Tensor> inputs = GraphInputs(g, 123);

  const std::vector<infer::Tensor> baseline = exec.Run(inputs);
  for (const std::size_t threads : {2u, 3u, 5u}) {
    ThreadPool pool(threads);
    infer::ExecutionContext ctx = exec.CreateContext();
    const std::vector<infer::Tensor> got = exec.Run(inputs, ctx, {}, &pool);
    ASSERT_EQ(baseline.size(), got.size());
    for (std::size_t o = 0; o < baseline.size(); ++o)
      for (std::size_t i = 0; i < baseline[o].size(); ++i)
        EXPECT_EQ(baseline[o].at(i), got[o].at(i)) << threads << " threads";
  }
}

TEST(ParallelExecutor, RunSamplesParallelMatchesSerialLoop) {
  ThreadPool pool(4);
  const auto e = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const graph::Graph g = models::BuildReferenceGraph(
      e, models::SuiteVersion::kV1_0, models::ModelScale::kMini);
  const infer::WeightStore weights = infer::InitializeWeights(g, 7);
  const infer::Executor exec(g, weights);

  constexpr std::size_t kSamples = 9;
  const auto inputs_for = [&](std::size_t i) {
    return GraphInputs(g, 1000 + i);
  };
  const auto parallel =
      infer::RunSamplesParallel(exec, kSamples, inputs_for, &pool);
  ASSERT_EQ(parallel.size(), kSamples);
  for (std::size_t s = 0; s < kSamples; ++s) {
    const std::vector<infer::Tensor> serial = exec.Run(inputs_for(s));
    ASSERT_EQ(serial.size(), parallel[s].size());
    for (std::size_t o = 0; o < serial.size(); ++o)
      for (std::size_t i = 0; i < serial[o].size(); ++i)
        EXPECT_EQ(serial[o].at(i), parallel[s][o].at(i)) << "sample " << s;
  }
}

TEST(ReferenceBackend, DeferredAccuracyMatchesSerial) {
  ThreadPool pool(4);
  const auto e = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const std::unique_ptr<harness::TaskBundle> bundle =
      harness::TaskBundle::Create(e, models::SuiteVersion::kV1_0);
  const infer::Executor exec(bundle->mini_graph(), bundle->weights());

  loadgen::TestSettings acc;
  acc.mode = loadgen::TestMode::kAccuracyOnly;

  loadgen::DatasetQsl serial_qsl(bundle->dataset());
  loadgen::RealClock serial_clock;
  backends::ReferenceBackend serial_sut("serial", exec, serial_qsl);
  const loadgen::TestResult serial =
      loadgen::RunTest(serial_sut, serial_qsl, acc, serial_clock);

  loadgen::DatasetQsl par_qsl(bundle->dataset());
  loadgen::RealClock par_clock;
  backends::ReferenceBackend par_sut("deferred", exec, par_qsl, &pool);
  const loadgen::TestResult parallel =
      loadgen::RunTest(par_sut, par_qsl, acc, par_clock);

  EXPECT_TRUE(serial.invalid_reason.empty()) << serial.invalid_reason;
  EXPECT_TRUE(parallel.invalid_reason.empty()) << parallel.invalid_reason;
  ASSERT_EQ(serial.accuracy_outputs.size(), parallel.accuracy_outputs.size());
  for (std::size_t s = 0; s < serial.accuracy_outputs.size(); ++s) {
    ASSERT_EQ(serial.accuracy_outputs[s].size(),
              parallel.accuracy_outputs[s].size());
    for (std::size_t o = 0; o < serial.accuracy_outputs[s].size(); ++o)
      for (std::size_t i = 0; i < serial.accuracy_outputs[s][o].size(); ++i)
        EXPECT_EQ(serial.accuracy_outputs[s][o].at(i),
                  parallel.accuracy_outputs[s][o].at(i))
            << "sample " << s;
  }
  EXPECT_EQ(bundle->dataset().ScoreOutputs(serial.accuracy_outputs),
            bundle->dataset().ScoreOutputs(parallel.accuracy_outputs));
}

TEST(ParallelHarness, AccuracyIdenticalAcrossThreadCounts) {
  // Full accuracy phase through RunSubmission at 1 vs 4 threads: every
  // reported accuracy number must match to the last bit.
  harness::SuiteBundles bundles;
  harness::RunOptions options;
  options.run_performance = false;
  options.threads = 1;
  const harness::SubmissionResult serial = harness::RunSubmission(
      soc::Dimensity1100(), models::SuiteVersion::kV1_0, bundles, options);
  options.threads = 4;
  const harness::SubmissionResult threaded = harness::RunSubmission(
      soc::Dimensity1100(), models::SuiteVersion::kV1_0, bundles, options);

  ASSERT_EQ(serial.tasks.size(), threaded.tasks.size());
  for (std::size_t t = 0; t < serial.tasks.size(); ++t) {
    EXPECT_EQ(serial.tasks[t].accuracy, threaded.tasks[t].accuracy)
        << serial.tasks[t].entry.id;
    EXPECT_EQ(serial.tasks[t].fp32_reference,
              threaded.tasks[t].fp32_reference);
    EXPECT_EQ(serial.tasks[t].accuracy_sample_count,
              threaded.tasks[t].accuracy_sample_count);
    EXPECT_EQ(serial.tasks[t].status, threaded.tasks[t].status);
  }
}

}  // namespace
}  // namespace mlpm
