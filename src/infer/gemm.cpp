#include "infer/gemm.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "infer/kernels/registry.h"

// The tiled row workers live in kernels/portable.cpp (and their SIMD
// counterparts in kernels/avx2.cpp / kernels/neon.cpp); this file owns the
// public entry points, which validate shapes and split the row range
// across the thread pool.

namespace mlpm::infer {

void GemmF32(std::span<const float> a, std::span<const float> b_t,
             std::size_t m, std::size_t n, std::size_t k, std::span<float> c,
             const kernels::KernelTable& table, const ThreadPool* pool) {
  Expects(a.size() == m * k, "A size mismatch");
  Expects(b_t.size() == n * k, "B size mismatch");
  Expects(c.size() == m * n, "C size mismatch");
  // Partition over quads of rows, not rows: vectorized tables tile four rows
  // at a time relative to i_begin, and bit-identical-across-thread-counts
  // (DESIGN.md §8) requires the tile/remainder split to be absolute.
  const std::int64_t rows = static_cast<std::int64_t>(m);
  constexpr std::int64_t kB = kernels::kF32RowBlock;
  ParallelForRange(pool, 0, (rows + kB - 1) / kB,
                   [&](std::int64_t lo, std::int64_t hi) {
                     table.gemm_f32_rows(a.data(), b_t.data(), lo * kB,
                                         std::min(hi * kB, rows), n, k,
                                         c.data());
                   });
}

void GemmF32(std::span<const float> a, std::span<const float> b_t,
             std::size_t m, std::size_t n, std::size_t k, std::span<float> c,
             const ThreadPool* pool) {
  GemmF32(a, b_t, m, n, k, c, kernels::ScalarKernels(), pool);
}

}  // namespace mlpm::infer
