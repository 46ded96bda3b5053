// Float GEMM over the dispatched row workers.
//
// GemmF32 is cache-blocked and register-tiled (4x4 output tiles with
// independent accumulators, k-blocked for L1 residency) and optionally
// parallelized over row blocks via a ThreadPool.  With the scalar table the
// per-element accumulation order over k is that of the naive triple loop,
// so results are bit-identical to it and independent of thread count;
// vectorized tables match it within a small relative tolerance
// (DESIGN.md §13).  The naive oracle lives in tests/reference_ops.
//
// This is the landing point for routing every matmul-shaped op through one
// dispatched GEMM; `bench_kernels` measures it today.
#pragma once

#include <cstdint>
#include <span>

#include "infer/kernels/registry.h"

namespace mlpm {
class ThreadPool;
}

namespace mlpm::infer {

// C[m,n] = A[m,k] * B^T, with B stored row-major transposed ([n, k]) to
// keep inner loops contiguous.  Runs the row workers from `table` (scalar,
// AVX2, or NEON).
void GemmF32(std::span<const float> a, std::span<const float> b_t,
             std::size_t m, std::size_t n, std::size_t k, std::span<float> c,
             const kernels::KernelTable& table,
             const ThreadPool* pool = nullptr);

// As above with the scalar table.
void GemmF32(std::span<const float> a, std::span<const float> b_t,
             std::size_t m, std::size_t n, std::size_t k, std::span<float> c,
             const ThreadPool* pool = nullptr);

}  // namespace mlpm::infer
