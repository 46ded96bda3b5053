// Row-band kernels: the one implementation of every band-capable op.
//
// Each runner computes a *band of output rows* of one NHWC (batch-1) op,
// reading inputs through RowBand views that expose global coordinates over
// a partially-materialized buffer (a tile slab holding rows
// [origin, origin + rows) of the logical tensor, or a fully-materialized
// tensor with origin 0).  The executor runs an untiled node as a
// ParallelForRange over output rows of FullBand(input), and a tiled
// segment as the same calls over slab bands — whole-op execution is the
// single band covering every row.
//
// Bit-identity contract (DESIGN.md §15): each output element's value
// depends only on its global coordinates — bias-first accumulators, a fixed
// (kh, kw) tap order, dot4/dw_madd microkernel calls keyed on the absolute
// output-channel index, taps skipped outside the *logical* tensor bounds
// (not the slab bounds).  So any row partition (thread chunks, tiles)
// produces identical bits for every kernel table.  The independent oracle
// these kernels are checked against is the naive per-op reference in
// tests/reference_ops.
#pragma once

#include <cstdint>

#include "graph/ops.h"
#include "infer/kernels/registry.h"
#include "infer/tensor.h"

namespace mlpm::infer {

// Rows [origin, origin + rows) of a logical [1, height, width, channels]
// tensor; data points at row `origin`.  A fully-materialized tensor is the
// band {data, 0, height, height, width, channels}.
struct RowBand {
  const float* data = nullptr;
  std::int64_t origin = 0;
  std::int64_t rows = 0;
  std::int64_t height = 0;  // full logical H, the padding/clamp bound
  std::int64_t width = 0;
  std::int64_t channels = 0;
};

struct MutableRowBand {
  float* data = nullptr;
  std::int64_t origin = 0;
  std::int64_t rows = 0;
  std::int64_t height = 0;
  std::int64_t width = 0;
  std::int64_t channels = 0;

  [[nodiscard]] RowBand AsConst() const {
    return RowBand{data, origin, rows, height, width, channels};
  }
};

// Whole-tensor band over a rank-4 batch-1 tensor.
[[nodiscard]] RowBand FullBand(const Tensor& t);

// Any tensor as a band of one-element rows: the geometry elementwise ops
// run on outside tiled segments, so tensors of any rank (MobileBERT's
// rank-2 activations included) share the elementwise band kernels.
[[nodiscard]] RowBand FlatBand(const Tensor& t);

// Conv2d over output rows [out.origin, out.origin + out.rows).  `w` is the
// executor's prepared [OC, KH, KW, IC] weight, `bias` its prepared bias.
void RunConv2dRows(const graph::Conv2dAttrs& a, const RowBand& in,
                   const Tensor& w, const Tensor& bias,
                   const MutableRowBand& out, const kernels::KernelTable& kt);

// Depthwise conv; `w` is the executor's prepacked [KH, KW, C] weight.
void RunDepthwiseConv2dRows(const graph::DepthwiseConv2dAttrs& a,
                            const RowBand& in, const Tensor& w,
                            const Tensor& bias, const MutableRowBand& out,
                            const kernels::KernelTable& kt);

// Max / average pool (op is kMaxPool or kAvgPool).
void RunPoolRows(graph::OpType op, const graph::PoolAttrs& a,
                 const RowBand& in, const MutableRowBand& out);

// Elementwise add / mul (op is kAdd or kMul); `y` is the exterior operand,
// read at the same global rows as the output band.  `out` may alias `x`:
// each element is read before it is written.
void RunBinaryRows(graph::OpType op, const RowBand& x, const RowBand& y,
                   const MutableRowBand& out);

// Standalone activation (`out` may alias `in`).
void RunActivationRows(graph::Activation act, const RowBand& in,
                       const MutableRowBand& out);

// Bilinear resize over an output row band; half-pixel centers clamped to
// the logical input.
void RunResizeBilinearRows(const RowBand& in, const MutableRowBand& out);

}  // namespace mlpm::infer
