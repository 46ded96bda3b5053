// Naive per-op reference: the independent oracle for infer::Executor.
//
// Every op is a plain loop over output elements: one freshly allocated
// tensor per node, no kernel table, no weight prepack, no arena, no row
// bands, no tiling and no threads.  It shares only the numerics
// *definitions* with the engine — the activation functions
// (infer::ApplyActivation), binary16 rounding (RoundToHalf) and activation
// fake quantization (infer::FakeQuantActivation) — never an execution path.
//
// Each output element accumulates in the same order the executor's scalar
// kernel table uses (bias first, then taps in (kh, kw, ic) order), so the
// contract the tests assert is:
//   * scalar table: executor output is bit-identical to RunReference;
//   * vectorized tables (AVX2, NEON): within the documented f32 tolerance
//     (DESIGN.md §13), because SIMD reassociates and fuses the k-loop.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "infer/executor.h"
#include "infer/quant_params.h"
#include "infer/tensor.h"
#include "infer/weights.h"

namespace mlpm::reference {

// C[m,n] = sum_k A[m,k] * B[n,k] (B stored transposed), summed in k order —
// the scalar triple loop the dispatched GemmF32 is checked against.
void GemmF32Ref(std::span<const float> a, std::span<const float> b_t,
                std::size_t m, std::size_t n, std::size_t k,
                std::span<float> c);

// Runs `g` over `inputs` (ordered as g.input_ids()) with the numerics of
// infer::Executor at `mode`: weights rounded through binary16 (kFp16) or
// fake-quantized symmetric (kInt8, biases excluded), and every node output
// rounded / fake-quantized the same way.  `quant` is required for kInt8.
// Returns one tensor per graph output.
[[nodiscard]] std::vector<infer::Tensor> RunReference(
    const graph::Graph& g, const infer::WeightStore& weights,
    std::span<const infer::Tensor> inputs,
    infer::NumericsMode mode = infer::NumericsMode::kFp32,
    const infer::QuantParams* quant = nullptr);

// Largest |want - got| over every output element (shapes must match).
[[nodiscard]] double MaxAbsDiff(const std::vector<infer::Tensor>& want,
                                const std::vector<infer::Tensor>& got);

}  // namespace mlpm::reference
