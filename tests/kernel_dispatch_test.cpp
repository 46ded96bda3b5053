// Runtime kernel dispatch (DESIGN.md §13): the registry's feature probe,
// ISA resolution and fallback; the exactness contract of every table the
// host can run (scalar bit-identical to the naive reference, vectorized
// f32 within a documented tolerance); and the harness-level guarantee that
// a forced ISA flows through RunOptions into the executors, the result
// fields and the RUN007 pre-run lint.
//
// The CI matrix runs this binary with MLPM_KERNEL_ISA=scalar and =auto
// (and under an -mavx2 build); the env var picks the dispatched side of
// the harness comparison so sanitizers sweep every table.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "harness/run_session.h"
#include "infer/executor.h"
#include "infer/gemm.h"
#include "infer/kernels/registry.h"
#include "infer/weights.h"
#include "models/mobilenet_edgetpu.h"
#include "models/zoo.h"
#include "reference_ops.h"

namespace mlpm {
namespace {

using infer::kernels::CpuFeatures;
using infer::kernels::KernelIsa;
using infer::kernels::KernelRegistry;
using infer::kernels::KernelTable;

std::vector<float> RandomFloats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  return v;
}

// --- registry ---------------------------------------------------------------

TEST(KernelRegistry, ParseAndToStringRoundTrip) {
  for (const KernelIsa isa : {KernelIsa::kAuto, KernelIsa::kScalar,
                              KernelIsa::kAvx2, KernelIsa::kNeon}) {
    const auto back =
        infer::kernels::ParseKernelIsa(infer::kernels::ToString(isa));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, isa);
  }
  EXPECT_FALSE(infer::kernels::ParseKernelIsa("sse9").has_value());
  EXPECT_FALSE(infer::kernels::ParseKernelIsa("").has_value());
  EXPECT_FALSE(infer::kernels::ParseKernelIsa("AVX2").has_value());
}

TEST(KernelRegistry, ScalarIsAlwaysAvailable) {
  const KernelRegistry none(CpuFeatures{});
  EXPECT_TRUE(none.Available(KernelIsa::kAuto));
  EXPECT_TRUE(none.Available(KernelIsa::kScalar));
  EXPECT_FALSE(none.Available(KernelIsa::kAvx2));
  EXPECT_FALSE(none.Available(KernelIsa::kNeon));
}

TEST(KernelRegistry, AutoOnFeaturelessHostResolvesToScalar) {
  const KernelRegistry none(CpuFeatures{});
  EXPECT_EQ(none.Resolve(KernelIsa::kAuto), KernelIsa::kScalar);
  EXPECT_EQ(none.Select(KernelIsa::kAuto).isa, KernelIsa::kScalar);
}

TEST(KernelRegistry, ForcedUnavailableIsaFallsBackToScalar) {
  const KernelRegistry none(CpuFeatures{});
  EXPECT_EQ(none.Resolve(KernelIsa::kAvx2), KernelIsa::kScalar);
  EXPECT_EQ(none.Resolve(KernelIsa::kNeon), KernelIsa::kScalar);
  EXPECT_EQ(none.Select(KernelIsa::kAvx2).isa, KernelIsa::kScalar);
}

TEST(KernelRegistry, FeatureBitAloneIsNotEnough) {
  // A CPU feature without the matching compiled-in table (or vice versa)
  // must not select a missing kernel: availability is probe AND table.
  CpuFeatures f;
  f.avx2 = true;
  f.neon = true;
  const KernelRegistry reg(f);
#if defined(MLPM_KERNELS_HAVE_AVX2)
  EXPECT_TRUE(reg.Available(KernelIsa::kAvx2));
  EXPECT_EQ(reg.Resolve(KernelIsa::kAuto), KernelIsa::kAvx2);
  EXPECT_EQ(reg.Select(KernelIsa::kAvx2).isa, KernelIsa::kAvx2);
#else
  EXPECT_FALSE(reg.Available(KernelIsa::kAvx2));
  EXPECT_EQ(reg.Resolve(KernelIsa::kAvx2), KernelIsa::kScalar);
#endif
#if defined(MLPM_KERNELS_HAVE_NEON) && defined(__aarch64__)
  EXPECT_TRUE(reg.Available(KernelIsa::kNeon));
#else
  EXPECT_FALSE(reg.Available(KernelIsa::kNeon));
#endif
}

TEST(KernelRegistry, GlobalNeverResolvesToAuto) {
  const KernelRegistry& reg = KernelRegistry::Global();
  const KernelIsa resolved = reg.Resolve(KernelIsa::kAuto);
  EXPECT_NE(resolved, KernelIsa::kAuto);
  EXPECT_TRUE(reg.Available(resolved));
}

TEST(KernelRegistry, AvailableIsasEndsWithScalar) {
  const std::vector<KernelIsa> isas = KernelRegistry::Global().AvailableIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.back(), KernelIsa::kScalar);
  for (const KernelIsa isa : isas)
    EXPECT_TRUE(KernelRegistry::Global().Available(isa));
}

// --- exactness contract -----------------------------------------------------

// f32 SIMD kernels reassociate the k-loop and contract with FMA; the
// contract is closeness, not bit-equality.  The scalar table, which keeps
// the naive arithmetic order, must stay bit-identical.
TEST(KernelDispatch, F32GemmWithinToleranceOnEveryTable) {
  Rng rng(0xF32);
  for (const KernelIsa isa : KernelRegistry::Global().AvailableIsas()) {
    const KernelTable& table = KernelRegistry::Global().Select(isa);
    for (int trial = 0; trial < 16; ++trial) {
      const std::size_t m = 1 + rng.NextBelow(13);
      const std::size_t n = 1 + rng.NextBelow(13);
      const std::size_t k = 1 + rng.NextBelow(200);
      const std::vector<float> a = RandomFloats(m * k, 300 + trial);
      const std::vector<float> b = RandomFloats(n * k, 400 + trial);
      std::vector<float> ref(m * n), got(m * n);
      reference::GemmF32Ref(a, b, m, n, k, ref);
      infer::GemmF32(a, b, m, n, k, got, table);
      const double tol =
          isa == KernelIsa::kScalar
              ? 0.0
              : 1e-5 * static_cast<double>(k);  // |values| <= 1
      for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_LE(std::fabs(static_cast<double>(ref[i]) - got[i]), tol)
            << infer::kernels::ToString(isa) << " m=" << m << " n=" << n
            << " k=" << k << " i=" << i;
    }
  }
}

// --- executor ---------------------------------------------------------------

// Forced-scalar and dispatched executors over a real model (conv +
// depthwise + FC) against the naive reference: scalar bit-identical,
// dispatched within f32 tolerance; and the executor reports the table it
// actually used plus non-zero dispatch counts for every kernel class the
// model contains.
TEST(KernelDispatch, ExecutorScalarVsAutoWithinTolerance) {
  const graph::Graph g =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kMini);
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  const infer::Executor scalar(g, w, infer::NumericsMode::kFp32, nullptr,
                               KernelIsa::kScalar);
  const infer::Executor autod(g, w, infer::NumericsMode::kFp32, nullptr,
                              KernelIsa::kAuto);
  EXPECT_EQ(scalar.kernel_isa(), KernelIsa::kScalar);
  EXPECT_EQ(autod.kernel_isa(),
            KernelRegistry::Global().Resolve(KernelIsa::kAuto));

  infer::Tensor input(g.tensor(g.input_ids()[0]).shape);
  Rng rng(3);
  for (auto& v : input.values()) v = static_cast<float>(rng.NextDouble());
  const std::vector<infer::Tensor> inputs{input};
  const auto oracle = reference::RunReference(g, w, inputs);
  const auto out_s = scalar.Run(inputs);
  const auto out_a = autod.Run(inputs);
  EXPECT_EQ(reference::MaxAbsDiff(oracle, out_s), 0.0);
  EXPECT_LE(reference::MaxAbsDiff(oracle, out_a), 5e-3);

  const infer::KernelDispatchCounts counts = autod.dispatch_counts();
  EXPECT_GT(counts.conv2d, 0u);
  EXPECT_GT(counts.depthwise_conv2d, 0u);
  EXPECT_GT(counts.fully_connected, 0u);
}

// Two independently built forced-scalar executors agree bit for bit: the
// prepack and dispatch carry no hidden state.
TEST(KernelDispatch, ForcedScalarExecutorIsBitIdenticalToItself) {
  const graph::Graph g =
      models::BuildMobileNetEdgeTpu(models::ModelScale::kMini);
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  const infer::Executor a(g, w, infer::NumericsMode::kFp32, nullptr,
                          KernelIsa::kScalar);
  const infer::Executor b(g, w, infer::NumericsMode::kFp32, nullptr,
                          KernelIsa::kScalar);
  infer::Tensor input(g.tensor(g.input_ids()[0]).shape);
  Rng rng(5);
  for (auto& v : input.values()) v = static_cast<float>(rng.NextDouble());
  const std::vector<infer::Tensor> inputs{input};
  const auto out_a = a.Run(inputs);
  const auto out_b = b.Run(inputs);
  ASSERT_EQ(out_a.size(), out_b.size());
  for (std::size_t o = 0; o < out_a.size(); ++o)
    for (std::size_t i = 0; i < out_a[o].size(); ++i)
      EXPECT_EQ(out_a[o].at(i), out_b[o].at(i));
}

// --- harness ----------------------------------------------------------------

// The CI matrix exports MLPM_KERNEL_ISA to sweep the dispatched side of
// this comparison; unset or "auto" exercises the default dispatch path.
KernelIsa DispatchedIsaUnderTest() {
  const char* env = std::getenv("MLPM_KERNEL_ISA");
  if (env == nullptr) return KernelIsa::kAuto;
  const auto isa = infer::kernels::ParseKernelIsa(env);
  return isa.value_or(KernelIsa::kAuto);
}

TEST(KernelDispatch, HarnessScalarVsDispatchedAccuracyAgree) {
  const soc::ChipsetDesc chipset = soc::CatalogV10().front();
  harness::SuiteBundles bundles;

  harness::RunOptions base;
  base.run_performance = false;
  base.run_offline = false;
  base.cooldown_s = 0.0;

  harness::RunOptions scalar = base;
  scalar.kernel_isa = KernelIsa::kScalar;
  const harness::SubmissionResult rs = harness::RunSubmission(
      chipset, models::SuiteVersion::kV1_0, bundles, scalar);

  harness::RunOptions dispatched = base;
  dispatched.kernel_isa = DispatchedIsaUnderTest();
  const harness::SubmissionResult rd = harness::RunSubmission(
      chipset, models::SuiteVersion::kV1_0, bundles, dispatched);

  const std::string resolved(infer::kernels::ToString(
      KernelRegistry::Global().Resolve(dispatched.kernel_isa)));
  ASSERT_EQ(rs.tasks.size(), rd.tasks.size());
  for (std::size_t i = 0; i < rs.tasks.size(); ++i) {
    const harness::TaskRunResult& a = rs.tasks[i];
    const harness::TaskRunResult& b = rd.tasks[i];
    EXPECT_EQ(a.kernel_isa, "scalar") << a.entry.id;
    EXPECT_EQ(b.kernel_isa, resolved) << b.entry.id;
    // Kernel tables change f32 rounding, not model quality: the scored
    // accuracy must agree closely and the quality gate identically.
    EXPECT_NEAR(a.accuracy, b.accuracy, 0.05) << a.entry.id;
    EXPECT_NEAR(a.ratio_to_fp32, b.ratio_to_fp32, 0.05) << a.entry.id;
    EXPECT_EQ(a.quality_passed, b.quality_passed) << a.entry.id;
    EXPECT_EQ(a.lint_error_count, 0u) << a.entry.id << "\n" << a.lint_log;
  }
}

TEST(KernelDispatch, ForcedUnavailableIsaLintsRun007AndFallsBack) {
  const KernelRegistry& reg = KernelRegistry::Global();
  // Whichever SIMD ISA this host lacks (x86 lacks NEON, ARM lacks AVX2;
  // a host with both compiled in and present cannot run this check).
  KernelIsa missing = KernelIsa::kAuto;
  for (const KernelIsa isa : {KernelIsa::kNeon, KernelIsa::kAvx2})
    if (!reg.Available(isa)) missing = isa;
  if (missing == KernelIsa::kAuto) GTEST_SKIP() << "every ISA is available";

  const soc::ChipsetDesc chipset = soc::CatalogV10().front();
  harness::SuiteBundles bundles;
  harness::RunOptions opts;
  opts.run_performance = false;
  opts.run_offline = false;
  opts.cooldown_s = 0.0;
  opts.kernel_isa = missing;
  const harness::SubmissionResult r = harness::RunSubmission(
      chipset, models::SuiteVersion::kV1_0, bundles, opts);
  ASSERT_FALSE(r.tasks.empty());
  for (const harness::TaskRunResult& t : r.tasks) {
    EXPECT_EQ(t.kernel_isa, "scalar") << t.entry.id;
    EXPECT_GE(t.lint_error_count, 1u) << t.entry.id;
    EXPECT_NE(t.lint_log.find("RUN007"), std::string::npos)
        << t.entry.id << "\n" << t.lint_log;
    // Report mode: the diagnostic is recorded but the task still runs.
    EXPECT_GT(t.accuracy_sample_count, 0u) << t.entry.id;
  }
}

}  // namespace
}  // namespace mlpm
