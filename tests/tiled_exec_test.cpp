// Tiled, fused pipeline execution (DESIGN.md §15).
//
// Two contracts are checked here.  Structural: bounds inference returns
// exactly the input box the kernels read; the planner's crops partition
// every segment output with no gap or overlap and never outgrow their
// slabs.  Behavioural: tiled execution is bit-identical to untiled
// execution for every reference model, numerics mode, kernel table, and
// thread count, and under the scalar table both are bit-identical to the
// naive reference (reference_ops.h) — and the tile-aware memory plan
// strictly shrinks the packed arena on every model with a fusable segment.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/bounds.h"
#include "graph/box.h"
#include "graph/graph.h"
#include "infer/executor.h"
#include "infer/kernels/registry.h"
#include "infer/memory_plan.h"
#include "infer/tile_planner.h"
#include "infer/weights.h"
#include "models/zoo.h"
#include "quant/calibration.h"
#include "reference_ops.h"

namespace mlpm {
namespace {

std::vector<infer::Tensor> GraphInputs(const graph::Graph& g,
                                       std::uint64_t seed) {
  std::vector<infer::Tensor> inputs;
  Rng rng(seed);
  for (const graph::TensorId id : g.input_ids()) {
    infer::Tensor t(g.tensor(id).shape);
    for (auto& v : t.values())
      v = static_cast<float>(rng.NextUniform(0.0, 1.0));
    inputs.push_back(std::move(t));
  }
  return inputs;
}

void ExpectBitIdentical(const std::vector<infer::Tensor>& want,
                        const std::vector<infer::Tensor>& got,
                        const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t o = 0; o < want.size(); ++o) {
    ASSERT_EQ(want[o].size(), got[o].size()) << what;
    for (std::size_t i = 0; i < want[o].size(); ++i)
      ASSERT_EQ(want[o].at(i), got[o].at(i))
          << what << " output " << o << " element " << i;
  }
}

// --- Bounds inference ------------------------------------------------------

TEST(BoundsInference, SameConvRowBandMatchesHandComputation) {
  graph::GraphBuilder b("conv");
  const auto in = b.Input("in", graph::TensorShape({1, 8, 8, 3}));
  const auto out = b.Conv2d(in, 4, 3, 1);  // k3 s1 SAME: pad_begin = 1
  b.MarkOutput(out);
  const graph::Graph g = std::move(b).Build();
  const graph::Node& n = g.nodes()[0];
  const graph::TensorShape& ish = g.tensor(in).shape;
  const graph::TensorShape& osh = g.tensor(out).shape;

  // Interior band [2, 5): input rows [2-1, 4-1+3) = [1, 6).
  graph::Box crop = graph::Box::FromShape(osh);
  crop.dims[1] = {2, 5};
  graph::Box box = graph::InferInputBounds(n, ish, osh, crop);
  EXPECT_EQ(box.dims[1], (graph::Interval{1, 6}));
  // W and C stay full-range for row-band crops.
  EXPECT_EQ(box.dims[2], (graph::Interval{0, 8}));
  EXPECT_EQ(box.dims[3], (graph::Interval{0, 3}));

  // Edge band [0, 2): the pad row is clamped away, input rows [0, 3).
  crop.dims[1] = {0, 2};
  box = graph::InferInputBounds(n, ish, osh, crop);
  EXPECT_EQ(box.dims[1], (graph::Interval{0, 3}));

  // The full crop maps to the full input box.
  EXPECT_EQ(graph::InferInputBounds(n, ish, osh, graph::Box::FromShape(osh)),
            graph::Box::FromShape(ish));
}

TEST(BoundsInference, StridedConvUsesStrideTimesBandPlusKernel) {
  graph::GraphBuilder b("strided");
  const auto in = b.Input("in", graph::TensorShape({1, 8, 8, 3}));
  const auto out = b.Conv2d(in, 4, 3, 2);  // k3 s2 SAME: out H = 4
  b.MarkOutput(out);
  const graph::Graph g = std::move(b).Build();
  const graph::Node& n = g.nodes()[0];
  const graph::TensorShape& ish = g.tensor(in).shape;
  const graph::TensorShape& osh = g.tensor(out).shape;
  ASSERT_EQ(osh.dim(1), 4);
  // SAME with in=8, out=4, k=3, s=2: pad_total = 1, pad_begin = 0.
  // Output rows [1, 3) read input rows [1*2-0, 2*2-0+3) = [2, 7).
  graph::Box crop = graph::Box::FromShape(osh);
  crop.dims[1] = {1, 3};
  const graph::Box box = graph::InferInputBounds(n, ish, osh, crop);
  EXPECT_EQ(box.dims[1], (graph::Interval{2, 7}));
}

TEST(BoundsInference, ElementwiseAndActivationCropsPassThrough) {
  graph::GraphBuilder b("ew");
  const auto in = b.Input("in", graph::TensorShape({1, 8, 8, 4}));
  const auto conv = b.Conv2d(in, 4, 3, 1);
  const auto act = b.Activate(conv, graph::Activation::kRelu);
  const auto sum = b.Add(act, in);
  b.MarkOutput(sum);
  const graph::Graph g = std::move(b).Build();
  const graph::TensorShape& shape = g.tensor(sum).shape;
  graph::Box crop = graph::Box::FromShape(shape);
  crop.dims[1] = {3, 6};
  for (std::size_t node : {std::size_t{1}, std::size_t{2}}) {  // act, add
    const graph::Node& n = g.nodes()[node];
    EXPECT_EQ(graph::InferInputBounds(n, shape, shape, crop), crop)
        << "node " << node;
  }
}

TEST(BoundsInference, PoolWindowHasNoPadding) {
  graph::GraphBuilder b("pool");
  const auto in = b.Input("in", graph::TensorShape({1, 8, 8, 4}));
  const auto pool = b.MaxPool(in, 2, 2);  // out H = 4, window starts at 2*oh
  b.MarkOutput(pool);
  const graph::Graph g = std::move(b).Build();
  const graph::Node& n = g.nodes()[0];
  graph::Box crop = graph::Box::FromShape(g.tensor(pool).shape);
  crop.dims[1] = {1, 2};
  const graph::Box box = graph::InferInputBounds(
      n, g.tensor(in).shape, g.tensor(pool).shape, crop);
  EXPECT_EQ(box.dims[1], (graph::Interval{2, 4}));
}

TEST(BoundsInference, ResizeBilinearSpansBothTapsOfTheBand) {
  graph::GraphBuilder b("resize");
  const auto in = b.Input("in", graph::TensorShape({1, 4, 4, 2}));
  const auto up = b.ResizeBilinear(in, 8, 8);  // 2x upsample, scale = 0.5
  b.MarkOutput(up);
  const graph::Graph g = std::move(b).Build();
  const graph::Node& n = g.nodes()[0];
  const graph::TensorShape& ish = g.tensor(in).shape;
  const graph::TensorShape& osh = g.tensor(up).shape;

  // Half-pixel centers: src(o) = (o+0.5)*0.5 - 0.5, clamped at 0.
  // Band [2, 4): y0(2) = floor(0.75) = 0, y0(3) = floor(1.25) = 1, so the
  // band reads taps y0..y1 of rows 0..1 -> input rows [0, 3).
  graph::Box crop = graph::Box::FromShape(osh);
  crop.dims[1] = {2, 4};
  graph::Box box = graph::InferInputBounds(n, ish, osh, crop);
  EXPECT_EQ(box.dims[1], (graph::Interval{0, 3}));
  EXPECT_EQ(box.dims[2], (graph::Interval{0, 4}));  // full-width crop

  // The first band clamps the half-pixel center at 0 but still reads both
  // taps y0 = 0 and y1 = 1 (y1's weight is zero; the kernel reads it
  // regardless, so the box must cover it).
  crop.dims[1] = {0, 1};
  box = graph::InferInputBounds(n, ish, osh, crop);
  EXPECT_EQ(box.dims[1], (graph::Interval{0, 2}));
  EXPECT_EQ(graph::InferInputBounds(n, ish, osh, graph::Box::FromShape(osh)),
            graph::Box::FromShape(ish));
}

// --- Tile planner structure ------------------------------------------------

graph::Graph MiniModel(const models::BenchmarkEntry& e) {
  return models::BuildReferenceGraph(e, models::SuiteVersion::kV1_0,
                                     models::ModelScale::kMini);
}

TEST(TilePlanner, DisabledRequestYieldsEmptyPlan) {
  const auto e = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const graph::Graph g = MiniModel(e);
  EXPECT_TRUE(infer::BuildTilePlan(g, {}).empty());
  infer::TileOptions on;
  on.enabled = true;
  EXPECT_FALSE(infer::BuildTilePlan(g, on).empty());
}

TEST(TilePlanner, HasFusableSegmentAgreesWithBuildTilePlan) {
  infer::TileOptions on;
  on.enabled = true;
  std::size_t fusable = 0;
  for (const models::BenchmarkEntry& e :
       models::SuiteFor(models::SuiteVersion::kV1_0)) {
    const graph::Graph g = MiniModel(e);
    const bool has = infer::HasFusableSegment(g);
    EXPECT_EQ(has, !infer::BuildTilePlan(g, on).empty()) << e.id;
    fusable += has ? 1 : 0;
  }
  // The three vision models fuse; MobileBERT (no NHWC conv chain) does not.
  EXPECT_EQ(fusable, 3u);
}

// The partition property: for every segment, the planner's crops cover the
// output row range [0, out_rows) exactly once, and back-propagating each
// crop through the chain never needs more rows than the slab provisioned.
void CheckPartition(const graph::Graph& g, const infer::TilePlan& plan,
                    const std::string& what) {
  for (std::size_t si = 0; si < plan.segments.size(); ++si) {
    const infer::TileSegment& s = plan.segments[si];
    const std::string where = what + " segment " + std::to_string(si);
    ASSERT_GE(s.tile_rows, 1) << where;
    ASSERT_GT(s.out_rows, 0) << where;
    const std::size_t n_nodes =
        static_cast<std::size_t>(s.last_node - s.first_node + 1);
    ASSERT_EQ(s.interior.size(), n_nodes - 1) << where;
    ASSERT_EQ(s.slab_rows.size(), s.interior.size()) << where;

    std::int64_t covered = 0;
    for (std::int64_t t = 0; t < s.tile_count(); ++t) {
      const std::int64_t r0 = t * s.tile_rows;
      const std::int64_t r1 =
          r0 + s.tile_rows < s.out_rows ? r0 + s.tile_rows : s.out_rows;
      // No gap, no overlap: each tile starts where the last one ended.
      EXPECT_EQ(r0, covered) << where << " tile " << t;
      covered = r1;

      // Back-propagate the band tail -> head exactly as the executor does
      // and check every interior band fits the slab the planner sized.
      graph::Interval rows{r0, r1};
      for (std::size_t j = n_nodes; j-- > 1;) {
        const graph::Node& n =
            g.nodes()[static_cast<std::size_t>(s.first_node) + j];
        const graph::TensorShape& ish = g.tensor(n.inputs[0]).shape;
        const graph::TensorShape& osh = g.tensor(n.output).shape;
        graph::Box crop = graph::Box::FromShape(osh);
        crop.dims[1] = rows;
        rows = graph::InferInputBounds(n, ish, osh, crop).dims[1];
        EXPECT_LE(rows.length(), s.slab_rows[j - 1])
            << where << " tile " << t << " node " << j;
        EXPECT_GE(rows.begin, 0) << where;
        EXPECT_LE(rows.end, ish.dim(1)) << where;
      }
    }
    EXPECT_EQ(covered, s.out_rows) << where << " does not cover the output";
  }
}

TEST(TilePlanner, CropsExactlyPartitionEveryOutputBox) {
  for (const models::BenchmarkEntry& e :
       models::SuiteFor(models::SuiteVersion::kV1_0)) {
    const graph::Graph g = MiniModel(e);
    // Auto plus a sweep of forced bands, including one larger than any
    // segment's output (clamped) and the degenerate single-row band.
    for (const std::int64_t rows : {std::int64_t{-1}, std::int64_t{1},
                                    std::int64_t{2}, std::int64_t{3},
                                    std::int64_t{5}, std::int64_t{512}}) {
      infer::TileOptions opt;
      opt.enabled = true;
      opt.rows = rows;
      const infer::TilePlan plan = infer::BuildTilePlan(g, opt);
      CheckPartition(g, plan,
                     e.id + " rows=" + std::to_string(rows));
    }
  }
}

TEST(TilePlanner, SegmentNodeMapAndInteriorFlagsAreConsistent) {
  infer::TileOptions on;
  on.enabled = true;
  for (const models::BenchmarkEntry& e :
       models::SuiteFor(models::SuiteVersion::kV1_0)) {
    const graph::Graph g = MiniModel(e);
    const infer::TilePlan plan = infer::BuildTilePlan(g, on);
    if (plan.empty()) continue;
    ASSERT_EQ(plan.segment_of_node.size(), g.nodes().size()) << e.id;
    ASSERT_EQ(plan.interior.size(), g.tensors().size()) << e.id;
    std::size_t interior_count = 0;
    for (std::size_t si = 0; si < plan.segments.size(); ++si) {
      const infer::TileSegment& s = plan.segments[si];
      for (std::int32_t m = s.first_node; m <= s.last_node; ++m)
        EXPECT_EQ(plan.segment_of_node[static_cast<std::size_t>(m)],
                  static_cast<std::int32_t>(si))
            << e.id;
      for (const graph::TensorId id : s.interior) {
        EXPECT_TRUE(plan.interior[static_cast<std::size_t>(id)]) << e.id;
        ++interior_count;
      }
      // The segment's final output is not interior: it lands in the arena.
      const graph::Node& tail =
          g.nodes()[static_cast<std::size_t>(s.last_node)];
      EXPECT_FALSE(plan.interior[static_cast<std::size_t>(tail.output)])
          << e.id;
    }
    std::size_t flagged = 0;
    for (const bool f : plan.interior) flagged += f ? 1 : 0;
    EXPECT_EQ(flagged, interior_count) << e.id;
  }
}

// --- Tile-aware memory plan ------------------------------------------------

TEST(TiledMemoryPlan, ShrinksPeakArenaOnEverySegmentedModel) {
  infer::TileOptions on;
  on.enabled = true;
  std::size_t segmented = 0;
  for (const models::BenchmarkEntry& e :
       models::SuiteFor(models::SuiteVersion::kV1_0)) {
    const graph::Graph g = MiniModel(e);
    const infer::MemoryPlan untiled = infer::MemoryPlan::Build(g);
    const infer::TilePlan tiles = infer::BuildTilePlan(g, on);
    if (tiles.empty()) continue;
    ++segmented;
    const infer::MemoryPlan tiled = infer::MemoryPlan::Build(g, &tiles);
    // Interiors leave the arena, so the packed arena strictly shrinks.
    EXPECT_LT(tiled.peak_arena_bytes(), untiled.peak_arena_bytes()) << e.id;
    EXPECT_EQ(tiled.tile_slab_bytes(), tiles.slab_bytes()) << e.id;
    EXPECT_EQ(tiled.planned_activation_bytes(),
              tiled.peak_arena_bytes() + tiled.tile_slab_bytes())
        << e.id;
    EXPECT_EQ(untiled.tile_slab_bytes(), 0u) << e.id;
  }
  EXPECT_EQ(segmented, 3u);
}

TEST(TiledMemoryPlan, IntervalBytesCoverArenaBuffersAndSlabs) {
  const auto e = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const graph::Graph g = MiniModel(e);
  infer::TileOptions on;
  on.enabled = true;
  const infer::TilePlan tiles = infer::BuildTilePlan(g, on);
  ASSERT_FALSE(tiles.empty());
  const infer::MemoryPlan plan = infer::MemoryPlan::Build(g, &tiles);

  std::size_t arena_intervals = 0;
  std::size_t slab_intervals = 0;
  std::int64_t last_def = -2;
  for (const infer::IntervalBytes& iv : plan.interval_bytes()) {
    EXPECT_GE(iv.def, last_def) << "intervals must be (def, root)-sorted";
    last_def = iv.def;
    EXPECT_GT(iv.bytes, 0u);
    if (iv.kind == infer::PlacementKind::kArena) ++arena_intervals;
    else if (iv.kind == infer::PlacementKind::kTileSlab) ++slab_intervals;
    else FAIL() << "unexpected interval kind";
  }
  EXPECT_EQ(arena_intervals, plan.buffers().size());
  std::size_t interiors = 0;
  for (const infer::TileSegment& s : tiles.segments)
    interiors += s.interior.size();
  EXPECT_EQ(slab_intervals, interiors);
}

// --- Tiled execution vs the oracle ------------------------------------------

// The equivalence matrix the acceptance criteria name: every v1.0 reference
// model x {fp32, fp16, int8} x {scalar, auto ISA} x {serial, 4 threads},
// tiled (auto band and a deliberately awkward 3-row band).  Under the
// scalar table the oracle is the naive reference; under the dispatched
// table it is an untiled executor on the same table.  Both comparisons are
// bitwise for every numerics mode, because the tiled and untiled paths run
// the same band kernels with identical per-element operations.
TEST(TiledExecution, BitIdenticalToWholeOpOracleEverywhere) {
  ThreadPool pool(4);
  for (const models::BenchmarkEntry& e :
       models::SuiteFor(models::SuiteVersion::kV1_0)) {
    const graph::Graph g = MiniModel(e);
    const infer::WeightStore w = infer::InitializeWeights(g, 7);
    const std::vector<infer::Tensor> inputs = GraphInputs(g, 42);
    const std::vector<quant::CalibrationSample> samples{GraphInputs(g, 1),
                                                        GraphInputs(g, 2)};
    const infer::QuantParams qp = quant::CalibratePtq(g, w, samples);

    for (const infer::NumericsMode mode :
         {infer::NumericsMode::kFp32, infer::NumericsMode::kFp16,
          infer::NumericsMode::kInt8}) {
      const infer::QuantParams* q =
          mode == infer::NumericsMode::kInt8 ? &qp : nullptr;
      const auto naive = reference::RunReference(g, w, inputs, mode, q);
      for (const infer::kernels::KernelIsa isa :
           {infer::kernels::KernelIsa::kScalar,
            infer::kernels::KernelIsa::kAuto}) {
        const auto oracle =
            isa == infer::kernels::KernelIsa::kScalar
                ? naive
                : infer::Executor(g, w, mode, q, isa).Run(inputs);
        for (const std::int64_t rows : {std::int64_t{-1}, std::int64_t{3}}) {
          infer::TileOptions opt;
          opt.enabled = true;
          opt.rows = rows;
          const infer::Executor exec(g, w, mode, q, isa, opt);
          const std::string what = e.id + "/" +
                                   std::string(ToString(mode)) + "/isa" +
                                   std::to_string(static_cast<int>(isa)) +
                                   "/rows" + std::to_string(rows);
          if (infer::HasFusableSegment(g)) {
            ASSERT_TRUE(exec.tiled()) << what;
          }

          infer::ExecutionContext ctx = exec.CreateContext();
          // Twice through one context: stale slab or arena state from the
          // first tiled run would surface in the second.
          ExpectBitIdentical(oracle, exec.Run(inputs, ctx), what + " run1");
          ExpectBitIdentical(oracle, exec.Run(inputs, ctx), what + " run2");
          ExpectBitIdentical(oracle, exec.Run(inputs, ctx, {}, &pool),
                             what + " threaded");
        }
      }
    }
  }
}

// Tiled segments never materialize their interiors, so an observed run
// (calibration needs every full intermediate) is rejected up front.
TEST(TiledExecution, ObservedRunOnTiledExecutorThrows) {
  const auto e = models::SuiteFor(models::SuiteVersion::kV1_0)[0];
  const graph::Graph g = MiniModel(e);
  const infer::WeightStore w = infer::InitializeWeights(g, 7);
  infer::TileOptions opt;
  opt.enabled = true;
  const infer::Executor exec(g, w, infer::NumericsMode::kFp32, nullptr,
                             infer::kernels::KernelIsa::kAuto, opt);
  ASSERT_TRUE(exec.tiled());
  EXPECT_THROW(
      (void)exec.Run(GraphInputs(g, 11),
                     [](graph::TensorId, const infer::Tensor&) {}),
      CheckError);
}

// Seeded property over the band kernels in the shapes that stress their
// edges: output channels not a multiple of the dot4 block, stride 2,
// dilation 2, SAME and VALID padding, and a resize whose taps straddle
// band boundaries.  Each random conv -> depthwise -> pool -> resize chain
// runs untiled and tiled (1- and 2-row bands), serial and threaded, on
// every available kernel table: bitwise equal to the naive reference under
// the scalar table, within the f32 tolerance elsewhere, and bitwise equal
// across tilings and thread counts on every table.
TEST(TiledExecution, RandomBandChainsMatchNaiveReference) {
  ThreadPool pool(3);
  Rng rng(0xBA4D);
  for (int trial = 0; trial < 16; ++trial) {
    const auto pick = [&](std::uint64_t n) {
      return static_cast<int>(rng.NextBelow(n));
    };
    const graph::Padding pad =
        pick(2) == 0 ? graph::Padding::kSame : graph::Padding::kValid;
    const int stride = 1 + pick(2);
    const int dilation = 1 + pick(2);
    std::int64_t oc = 1 + pick(11);
    if (oc % 4 == 0) ++oc;  // always exercise the dot4 remainder path
    // At least 15 rows/cols: the narrowest chain (VALID dilated conv or
    // depthwise, then a 3-wide pool) still leaves two output rows.
    const std::int64_t h = 15 + pick(6);
    const std::int64_t wd = 15 + pick(6);
    const std::int64_t c = 1 + pick(5);

    graph::GraphBuilder b("band_chain_" + std::to_string(trial));
    const auto in = b.Input("in", graph::TensorShape({1, h, wd, c}));
    auto x = b.Conv2d(in, oc, 3, stride, graph::Activation::kRelu6, pad,
                      dilation);
    x = b.DepthwiseConv2d(x, 3, 2 - (stride - 1), graph::Activation::kNone,
                          pad == graph::Padding::kSame
                              ? graph::Padding::kValid
                              : graph::Padding::kSame,
                          dilation);
    x = pick(2) == 0 ? b.MaxPool(x, 2, 2) : b.AvgPool(x, 3, 1);
    const graph::TensorShape& ps = b.ShapeOf(x);
    x = b.ResizeBilinear(x, ps.height() * 2 + 1, ps.width() + 3);
    b.MarkOutput(x);
    const graph::Graph g = std::move(b).Build();
    const infer::WeightStore w = infer::InitializeWeights(g, 100 + trial);
    const std::vector<infer::Tensor> inputs = GraphInputs(g, 200 + trial);
    const auto naive = reference::RunReference(g, w, inputs);

    for (const infer::kernels::KernelIsa isa :
         infer::kernels::KernelRegistry::Global().AvailableIsas()) {
      const std::string what = g.name() + "/" +
                               std::string(infer::kernels::ToString(isa));
      const infer::Executor untiled(g, w, infer::NumericsMode::kFp32, nullptr,
                                    isa);
      const auto want = untiled.Run(inputs);
      if (isa == infer::kernels::KernelIsa::kScalar) {
        ExpectBitIdentical(naive, want, what + " untiled");
      } else {
        EXPECT_LE(reference::MaxAbsDiff(naive, want), 1e-4) << what;
      }
      infer::ExecutionContext uctx = untiled.CreateContext();
      ExpectBitIdentical(want, untiled.Run(inputs, uctx, {}, &pool),
                         what + " threaded");
      for (const std::int64_t rows : {std::int64_t{1}, std::int64_t{2}}) {
        infer::TileOptions opt;
        opt.enabled = true;
        opt.rows = rows;
        const infer::Executor tiled(g, w, infer::NumericsMode::kFp32,
                                    nullptr, isa, opt);
        ASSERT_TRUE(tiled.tiled()) << what;
        infer::ExecutionContext ctx = tiled.CreateContext();
        const std::string band = what + " rows" + std::to_string(rows);
        ExpectBitIdentical(want, tiled.Run(inputs, ctx), band);
        ExpectBitIdentical(want, tiled.Run(inputs, ctx, {}, &pool),
                           band + " threaded");
      }
    }
  }
}

}  // namespace
}  // namespace mlpm
