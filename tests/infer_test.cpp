// Tests for the reference executor: kernel correctness against
// hand-computed values, numerics modes, weight determinism, and the
// integer GEMM.
#include <gtest/gtest.h>

#include <cmath>

#include "common/fp16.h"
#include "common/rng.h"
#include "infer/executor.h"
#include "infer/weights.h"

namespace mlpm::infer {
namespace {

using graph::Activation;
using graph::GraphBuilder;
using graph::TensorId;
using graph::TensorShape;

// Builds a graph with one op and runs it with explicit weights.
struct SingleOpRig {
  graph::Graph g;
  WeightStore weights;

  std::vector<Tensor> Run(Tensor input, NumericsMode mode = NumericsMode::kFp32,
                          const QuantParams* qp = nullptr) const {
    const Executor exec(g, weights, mode, qp);
    const std::vector<Tensor> in{std::move(input)};
    return exec.Run(in);
  }
};

TEST(Executor, ConvIdentityKernel) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 3, 3, 1});
  b.MarkOutput(b.Conv2d(x, 1, 1, 1, Activation::kNone, graph::Padding::kSame,
                        1, "c"));
  SingleOpRig rig{std::move(b).Build(), {}};
  rig.weights.Put("c/w", Tensor(TensorShape({1, 1, 1, 1}), {2.0f}));
  rig.weights.Put("c/b", Tensor(TensorShape({1}), {0.5f}));

  Tensor in(TensorShape({1, 3, 3, 1}));
  for (std::size_t i = 0; i < 9; ++i) in.data()[i] = static_cast<float>(i);
  const auto out = rig.Run(std::move(in));
  for (std::size_t i = 0; i < 9; ++i)
    EXPECT_FLOAT_EQ(out[0].data()[i], 2.0f * static_cast<float>(i) + 0.5f);
}

TEST(Executor, Conv3x3SumKernelSamePadding) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 3, 3, 1});
  b.MarkOutput(b.Conv2d(x, 1, 3, 1, Activation::kNone, graph::Padding::kSame,
                        1, "c"));
  SingleOpRig rig{std::move(b).Build(), {}};
  rig.weights.Put("c/w",
                  Tensor(TensorShape({1, 3, 3, 1}),
                         std::vector<float>(9, 1.0f)));
  rig.weights.Put("c/b", Tensor(TensorShape({1}), {0.0f}));

  Tensor in(TensorShape({1, 3, 3, 1}));
  for (auto& v : in.values()) v = 1.0f;
  const auto out = rig.Run(std::move(in));
  // Center pixel sees all 9 ones; corner sees 4.
  EXPECT_FLOAT_EQ(out[0].data()[4], 9.0f);
  EXPECT_FLOAT_EQ(out[0].data()[0], 4.0f);
  EXPECT_FLOAT_EQ(out[0].data()[2], 4.0f);
  EXPECT_FLOAT_EQ(out[0].data()[1], 6.0f);
}

TEST(Executor, ConvStrideTwoPicksAlternatePixels) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 4, 4, 1});
  b.MarkOutput(b.Conv2d(x, 1, 1, 2, Activation::kNone, graph::Padding::kSame,
                        1, "c"));
  SingleOpRig rig{std::move(b).Build(), {}};
  rig.weights.Put("c/w", Tensor(TensorShape({1, 1, 1, 1}), {1.0f}));
  rig.weights.Put("c/b", Tensor(TensorShape({1}), {0.0f}));
  Tensor in(TensorShape({1, 4, 4, 1}));
  for (std::size_t i = 0; i < 16; ++i) in.data()[i] = static_cast<float>(i);
  const auto out = rig.Run(std::move(in));
  EXPECT_EQ(out[0].shape(), TensorShape({1, 2, 2, 1}));
  EXPECT_FLOAT_EQ(out[0].data()[0], 0.0f);
  EXPECT_FLOAT_EQ(out[0].data()[1], 2.0f);
  EXPECT_FLOAT_EQ(out[0].data()[2], 8.0f);
  EXPECT_FLOAT_EQ(out[0].data()[3], 10.0f);
}

TEST(Executor, ReluActivationClamps) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {4});
  b.MarkOutput(b.Activate(x, Activation::kRelu));
  SingleOpRig rig{std::move(b).Build(), {}};
  const auto out =
      rig.Run(Tensor(TensorShape({4}), {-1.0f, 0.0f, 2.0f, -0.5f}));
  EXPECT_FLOAT_EQ(out[0].data()[0], 0.0f);
  EXPECT_FLOAT_EQ(out[0].data()[2], 2.0f);
}

TEST(Executor, Relu6Caps) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {3});
  b.MarkOutput(b.Activate(x, Activation::kRelu6));
  SingleOpRig rig{std::move(b).Build(), {}};
  const auto out = rig.Run(Tensor(TensorShape({3}), {-1.0f, 3.0f, 9.0f}));
  EXPECT_FLOAT_EQ(out[0].data()[0], 0.0f);
  EXPECT_FLOAT_EQ(out[0].data()[1], 3.0f);
  EXPECT_FLOAT_EQ(out[0].data()[2], 6.0f);
}

TEST(Executor, SoftmaxSumsToOne) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {2, 4});
  b.MarkOutput(b.Softmax(x));
  SingleOpRig rig{std::move(b).Build(), {}};
  Tensor in(TensorShape({2, 4}));
  Rng rng(3);
  for (auto& v : in.values()) v = static_cast<float>(rng.NextGaussian() * 5);
  const auto out = rig.Run(std::move(in));
  for (int row = 0; row < 2; ++row) {
    double sum = 0.0;
    for (int i = 0; i < 4; ++i) sum += out[0].data()[row * 4 + i];
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Executor, SoftmaxIsShiftInvariant) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 3});
  b.MarkOutput(b.Softmax(x));
  SingleOpRig rig{std::move(b).Build(), {}};
  const auto out1 = rig.Run(Tensor(TensorShape({1, 3}), {1.0f, 2.0f, 3.0f}));
  const auto out2 =
      rig.Run(Tensor(TensorShape({1, 3}), {101.0f, 102.0f, 103.0f}));
  for (int i = 0; i < 3; ++i)
    EXPECT_NEAR(out1[0].data()[i], out2[0].data()[i], 1e-5);
}

TEST(Executor, MaxPoolTakesMaxima) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 2, 2, 1});
  b.MarkOutput(b.MaxPool(x, 2, 2));
  SingleOpRig rig{std::move(b).Build(), {}};
  const auto out =
      rig.Run(Tensor(TensorShape({1, 2, 2, 1}), {1.0f, 7.0f, 3.0f, 2.0f}));
  EXPECT_FLOAT_EQ(out[0].data()[0], 7.0f);
}

TEST(Executor, AvgPoolAverages) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 2, 2, 1});
  b.MarkOutput(b.AvgPool(x, 2, 2));
  SingleOpRig rig{std::move(b).Build(), {}};
  const auto out =
      rig.Run(Tensor(TensorShape({1, 2, 2, 1}), {1.0f, 7.0f, 3.0f, 1.0f}));
  EXPECT_FLOAT_EQ(out[0].data()[0], 3.0f);
}

TEST(Executor, GlobalAvgPool) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 2, 2, 2});
  b.MarkOutput(b.GlobalAvgPool(x));
  SingleOpRig rig{std::move(b).Build(), {}};
  const auto out = rig.Run(Tensor(
      TensorShape({1, 2, 2, 2}),
      {1.0f, 10.0f, 2.0f, 20.0f, 3.0f, 30.0f, 4.0f, 40.0f}));
  EXPECT_FLOAT_EQ(out[0].data()[0], 2.5f);
  EXPECT_FLOAT_EQ(out[0].data()[1], 25.0f);
}

TEST(Executor, ResizeBilinearIdentityAtSameSize) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 3, 3, 1});
  b.MarkOutput(b.ResizeBilinear(x, 3, 3));
  SingleOpRig rig{std::move(b).Build(), {}};
  Tensor in(TensorShape({1, 3, 3, 1}));
  for (std::size_t i = 0; i < 9; ++i) in.data()[i] = static_cast<float>(i);
  const auto out = rig.Run(std::move(in));
  for (std::size_t i = 0; i < 9; ++i)
    EXPECT_NEAR(out[0].data()[i], static_cast<float>(i), 1e-5);
}

TEST(Executor, ResizeBilinearConstantField) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 2, 2, 1});
  b.MarkOutput(b.ResizeBilinear(x, 7, 7));
  SingleOpRig rig{std::move(b).Build(), {}};
  Tensor in(TensorShape({1, 2, 2, 1}));
  for (auto& v : in.values()) v = 4.5f;
  const auto out = rig.Run(std::move(in));
  for (const float v : out[0].values()) EXPECT_NEAR(v, 4.5f, 1e-5);
}

TEST(Executor, ConcatOnLastAxis) {
  GraphBuilder b("t");
  TensorId x = b.Input("a", {1, 1, 1, 2});
  TensorId y = b.Input("bb", {1, 1, 1, 1});
  b.MarkOutput(b.Concat({x, y}, -1));
  const graph::Graph g = std::move(b).Build();
  WeightStore ws;
  const Executor exec(g, ws);
  std::vector<Tensor> in;
  in.emplace_back(TensorShape({1, 1, 1, 2}), std::vector<float>{1.0f, 2.0f});
  in.emplace_back(TensorShape({1, 1, 1, 1}), std::vector<float>{3.0f});
  const auto out = exec.Run(in);
  EXPECT_FLOAT_EQ(out[0].data()[0], 1.0f);
  EXPECT_FLOAT_EQ(out[0].data()[1], 2.0f);
  EXPECT_FLOAT_EQ(out[0].data()[2], 3.0f);
}

TEST(Executor, ConcatAxisZeroStacksRows) {
  GraphBuilder b("t");
  TensorId x = b.Input("a", {2, 2});
  TensorId y = b.Input("bb", {1, 2});
  b.MarkOutput(b.Concat({x, y}, 0));
  const graph::Graph g = std::move(b).Build();
  WeightStore ws;
  const Executor exec(g, ws);
  std::vector<Tensor> in;
  in.emplace_back(TensorShape({2, 2}), std::vector<float>{1, 2, 3, 4});
  in.emplace_back(TensorShape({1, 2}), std::vector<float>{5, 6});
  const auto out = exec.Run(in);
  const float expect[] = {1, 2, 3, 4, 5, 6};
  for (int i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(out[0].data()[i], expect[i]);
}

TEST(Executor, LayerNormNormalizesRows) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 4});
  b.MarkOutput(b.LayerNorm(x, "ln"));
  SingleOpRig rig{std::move(b).Build(), {}};
  rig.weights.Put("ln/gamma",
                  Tensor(TensorShape({4}), std::vector<float>(4, 1.0f)));
  rig.weights.Put("ln/beta",
                  Tensor(TensorShape({4}), std::vector<float>(4, 0.0f)));
  const auto out =
      rig.Run(Tensor(TensorShape({1, 4}), {1.0f, 2.0f, 3.0f, 4.0f}));
  double mean = 0.0, var = 0.0;
  for (int i = 0; i < 4; ++i) mean += out[0].data()[i];
  mean /= 4;
  for (int i = 0; i < 4; ++i)
    var += (out[0].data()[i] - mean) * (out[0].data()[i] - mean);
  EXPECT_NEAR(mean, 0.0, 1e-5);
  EXPECT_NEAR(var / 4, 1.0, 1e-3);
}

TEST(Executor, EmbeddingLooksUpRows) {
  GraphBuilder b("t");
  TensorId ids = b.Input("ids", {2});
  b.MarkOutput(b.Embedding(ids, 3, 2, "e"));
  SingleOpRig rig{std::move(b).Build(), {}};
  rig.weights.Put("e/table", Tensor(TensorShape({3, 2}),
                                    {0.0f, 1.0f, 10.0f, 11.0f, 20.0f, 21.0f}));
  const auto out = rig.Run(Tensor(TensorShape({2}), {2.0f, 0.0f}));
  EXPECT_FLOAT_EQ(out[0].data()[0], 20.0f);
  EXPECT_FLOAT_EQ(out[0].data()[1], 21.0f);
  EXPECT_FLOAT_EQ(out[0].data()[2], 0.0f);
}

TEST(Executor, EmbeddingClampsOutOfVocabIds) {
  GraphBuilder b("t");
  TensorId ids = b.Input("ids", {1});
  b.MarkOutput(b.Embedding(ids, 3, 1, "e"));
  SingleOpRig rig{std::move(b).Build(), {}};
  rig.weights.Put("e/table",
                  Tensor(TensorShape({3, 1}), {1.0f, 2.0f, 3.0f}));
  EXPECT_FLOAT_EQ(rig.Run(Tensor(TensorShape({1}), {99.0f}))[0].data()[0],
                  3.0f);
  EXPECT_FLOAT_EQ(rig.Run(Tensor(TensorShape({1}), {-5.0f}))[0].data()[0],
                  1.0f);
}

TEST(Executor, AttentionUniformWhenQueriesZero) {
  // With Wq = 0 the attention weights are uniform, so the context is the
  // mean of V rows; with Wv = Wo = I the output is that mean.
  GraphBuilder b("t");
  TensorId x = b.Input("in", {2, 2});
  b.MarkOutput(b.MultiHeadAttention(x, 1, 2, "a"));
  SingleOpRig rig{std::move(b).Build(), {}};
  const std::vector<float> zero(4, 0.0f);
  const std::vector<float> identity{1.0f, 0.0f, 0.0f, 1.0f};
  rig.weights.Put("a/wq", Tensor(TensorShape({2, 2}), zero));
  rig.weights.Put("a/wk", Tensor(TensorShape({2, 2}), identity));
  rig.weights.Put("a/wv", Tensor(TensorShape({2, 2}), identity));
  rig.weights.Put("a/wo", Tensor(TensorShape({2, 2}), identity));
  const auto out =
      rig.Run(Tensor(TensorShape({2, 2}), {2.0f, 4.0f, 6.0f, 8.0f}));
  EXPECT_NEAR(out[0].data()[0], 4.0f, 1e-4);
  EXPECT_NEAR(out[0].data()[1], 6.0f, 1e-4);
  EXPECT_NEAR(out[0].data()[2], 4.0f, 1e-4);
  EXPECT_NEAR(out[0].data()[3], 6.0f, 1e-4);
}

TEST(Executor, RejectsWrongInputShape) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 4, 4, 3});
  b.MarkOutput(b.Conv2d(x, 2, 1, 1));
  const graph::Graph g = std::move(b).Build();
  const WeightStore ws = InitializeWeights(g, 1);
  const Executor exec(g, ws);
  std::vector<Tensor> in;
  in.emplace_back(TensorShape({1, 3, 3, 3}));
  EXPECT_THROW((void)exec.Run(in), CheckError);
}

TEST(Executor, RejectsWrongInputCount) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {2});
  b.MarkOutput(b.Activate(x, Activation::kRelu));
  const graph::Graph g = std::move(b).Build();
  const WeightStore ws;
  const Executor exec(g, ws);
  const std::vector<Tensor> none;
  EXPECT_THROW((void)exec.Run(none), CheckError);
}

TEST(Executor, Int8ModeRequiresQuantParams) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {2});
  b.MarkOutput(b.Activate(x, Activation::kRelu));
  const graph::Graph g = std::move(b).Build();
  const WeightStore ws;
  EXPECT_THROW(Executor(g, ws, NumericsMode::kInt8, nullptr), CheckError);
}

TEST(Executor, Fp16ModeMatchesManualRounding) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1});
  b.MarkOutput(b.Activate(x, Activation::kNone));
  SingleOpRig rig{std::move(b).Build(), {}};
  const float v = 0.1f;  // not representable in half
  const auto out = rig.Run(Tensor(TensorShape({1}), {v}),
                           NumericsMode::kFp16);
  EXPECT_EQ(out[0].data()[0], RoundToHalf(v));
  EXPECT_NE(out[0].data()[0], v);
}

TEST(Executor, ObserverSeesEveryNodeOutput) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {2});
  x = b.Activate(x, Activation::kRelu);
  x = b.Activate(x, Activation::kTanh);
  b.MarkOutput(x);
  const graph::Graph g = std::move(b).Build();
  const WeightStore ws;
  const Executor exec(g, ws);
  std::vector<Tensor> in;
  in.emplace_back(TensorShape({2}), std::vector<float>{1.0f, -1.0f});
  int observed = 0;
  (void)exec.Run(in, [&](graph::TensorId, const Tensor&) { ++observed; });
  EXPECT_EQ(observed, 2);
}


TEST(Executor, MulIsElementwise) {
  GraphBuilder b("t");
  TensorId x = b.Input("a", {3});
  TensorId y = b.Input("bb", {3});
  b.MarkOutput(b.Mul(x, y));
  const graph::Graph g = std::move(b).Build();
  const WeightStore ws;
  const Executor exec(g, ws);
  std::vector<Tensor> in;
  in.emplace_back(TensorShape({3}), std::vector<float>{1.0f, 2.0f, -3.0f});
  in.emplace_back(TensorShape({3}), std::vector<float>{4.0f, -5.0f, 6.0f});
  const auto out = exec.Run(in);
  EXPECT_FLOAT_EQ(out[0].data()[0], 4.0f);
  EXPECT_FLOAT_EQ(out[0].data()[1], -10.0f);
  EXPECT_FLOAT_EQ(out[0].data()[2], -18.0f);
}

TEST(Executor, DilatedConvSkipsNeighbors) {
  // 3x3 dilation-2 conv with an identity-like kernel reads pixels 2 apart.
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 5, 5, 1});
  b.MarkOutput(b.Conv2d(x, 1, 3, 1, Activation::kNone,
                        graph::Padding::kValid, 2, "c"));
  const graph::Graph g = std::move(b).Build();
  WeightStore ws;
  std::vector<float> kernel(9, 0.0f);
  kernel[0] = 1.0f;  // top-left tap only
  ws.Put("c/w", Tensor(TensorShape({1, 3, 3, 1}), std::move(kernel)));
  ws.Put("c/b", Tensor(TensorShape({1}), {0.0f}));
  const Executor exec(g, ws);
  Tensor in(TensorShape({1, 5, 5, 1}));
  for (std::size_t i = 0; i < 25; ++i) in.data()[i] = static_cast<float>(i);
  const std::vector<Tensor> inputs{in};
  const auto out = exec.Run(inputs);
  // Output is 1x1 (5 - (2*(3-1)+1) + 1); top-left tap reads pixel (0,0).
  EXPECT_EQ(out[0].shape(), TensorShape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(out[0].data()[0], 0.0f);
}

// ---- weights ----

TEST(Weights, DeterministicForSameSeed) {
  GraphBuilder b1("t");
  TensorId x1 = b1.Input("in", {1, 4, 4, 3});
  b1.MarkOutput(b1.Conv2d(x1, 8, 3, 1, Activation::kNone,
                          graph::Padding::kSame, 1, "c"));
  const graph::Graph g = std::move(b1).Build();
  const WeightStore a = InitializeWeights(g, 99);
  const WeightStore bw = InitializeWeights(g, 99);
  const auto& wa = a.Get("c/w").values();
  const auto& wb = bw.Get("c/w").values();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) EXPECT_EQ(wa[i], wb[i]);
}

TEST(Weights, DifferentSeedsDiffer) {
  GraphBuilder b1("t");
  TensorId x1 = b1.Input("in", {1, 4, 4, 3});
  b1.MarkOutput(b1.Conv2d(x1, 8, 3, 1, Activation::kNone,
                          graph::Padding::kSame, 1, "c"));
  const graph::Graph g = std::move(b1).Build();
  const WeightStore sa = InitializeWeights(g, 1);
  const WeightStore sb = InitializeWeights(g, 2);
  const auto wa = sa.Get("c/w").values();
  const auto wb = sb.Get("c/w").values();
  bool any_diff = false;
  for (std::size_t i = 0; i < wa.size(); ++i)
    if (wa[i] != wb[i]) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Weights, NormParamsInitializedToIdentity) {
  GraphBuilder b("t");
  TensorId x = b.Input("in", {1, 4});
  b.MarkOutput(b.LayerNorm(x, "ln"));
  const graph::Graph g = std::move(b).Build();
  const WeightStore w = InitializeWeights(g, 1);
  for (float v : w.Get("ln/gamma").values()) EXPECT_EQ(v, 1.0f);
  for (float v : w.Get("ln/beta").values()) EXPECT_EQ(v, 0.0f);
}

TEST(Weights, MissingWeightThrows) {
  const WeightStore ws;
  EXPECT_THROW((void)ws.Get("nope"), CheckError);
}

}  // namespace
}  // namespace mlpm::infer
