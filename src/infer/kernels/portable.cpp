// Portable scalar microkernels — the fallback table.  Every kernel keeps
// the naive loop's per-element accumulation order (the GEMM row worker is
// register-tiled but sums each output's k terms in increasing order;
// dot4_f32 and dw_madd_f32 add bias-first, term by term), so a forced
// scalar run is bit-identical to the naive reference in tests/.
#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "infer/kernels/registry.h"

namespace mlpm::infer::kernels {
namespace {

// Register tile: 4x4 output blocks, 16 independent accumulators.  Each
// accumulator sums its k terms in increasing order, so every output element
// sees exactly the same operation sequence as the scalar reference kernel.
constexpr std::size_t kTile = 4;
// K-blocking keeps the streamed A/B row segments L1-resident for large k.
// Accumulators round-trip through C between blocks, which preserves values
// exactly (a float store/load is value-preserving).
constexpr std::size_t kKBlock = 512;

void GemmF32RowsPortable(const float* a, const float* b_t,
                         std::int64_t i_begin, std::int64_t i_end,
                         std::size_t n, std::size_t k, float* c) {
  std::fill(c + static_cast<std::size_t>(i_begin) * n,
            c + static_cast<std::size_t>(i_end) * n, 0.0f);
  for (std::size_t kb = 0; kb < k; kb += kKBlock) {
    const std::size_t kc = std::min(kKBlock, k - kb);
    std::int64_t i = i_begin;
    for (; i + static_cast<std::int64_t>(kTile) <= i_end; i += kTile) {
      const float* a0 = a + static_cast<std::size_t>(i) * k + kb;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      std::size_t j = 0;
      for (; j + kTile <= n; j += kTile) {
        const float* b0 = b_t + j * k + kb;
        const float* b1 = b0 + k;
        const float* b2 = b1 + k;
        const float* b3 = b2 + k;
        float* c0 = c + static_cast<std::size_t>(i) * n + j;
        float* c1 = c0 + n;
        float* c2 = c1 + n;
        float* c3 = c2 + n;
        float acc00 = c0[0], acc01 = c0[1], acc02 = c0[2], acc03 = c0[3];
        float acc10 = c1[0], acc11 = c1[1], acc12 = c1[2], acc13 = c1[3];
        float acc20 = c2[0], acc21 = c2[1], acc22 = c2[2], acc23 = c2[3];
        float acc30 = c3[0], acc31 = c3[1], acc32 = c3[2], acc33 = c3[3];
        for (std::size_t kk = 0; kk < kc; ++kk) {
          const float av0 = a0[kk], av1 = a1[kk], av2 = a2[kk], av3 = a3[kk];
          const float bv0 = b0[kk], bv1 = b1[kk], bv2 = b2[kk], bv3 = b3[kk];
          acc00 += av0 * bv0; acc01 += av0 * bv1;
          acc02 += av0 * bv2; acc03 += av0 * bv3;
          acc10 += av1 * bv0; acc11 += av1 * bv1;
          acc12 += av1 * bv2; acc13 += av1 * bv3;
          acc20 += av2 * bv0; acc21 += av2 * bv1;
          acc22 += av2 * bv2; acc23 += av2 * bv3;
          acc30 += av3 * bv0; acc31 += av3 * bv1;
          acc32 += av3 * bv2; acc33 += av3 * bv3;
        }
        c0[0] = acc00; c0[1] = acc01; c0[2] = acc02; c0[3] = acc03;
        c1[0] = acc10; c1[1] = acc11; c1[2] = acc12; c1[3] = acc13;
        c2[0] = acc20; c2[1] = acc21; c2[2] = acc22; c2[3] = acc23;
        c3[0] = acc30; c3[1] = acc31; c3[2] = acc32; c3[3] = acc33;
      }
      for (; j < n; ++j) {
        const float* bj = b_t + j * k + kb;
        float s0 = c[static_cast<std::size_t>(i) * n + j];
        float s1 = c[static_cast<std::size_t>(i + 1) * n + j];
        float s2 = c[static_cast<std::size_t>(i + 2) * n + j];
        float s3 = c[static_cast<std::size_t>(i + 3) * n + j];
        for (std::size_t kk = 0; kk < kc; ++kk) {
          const float bv = bj[kk];
          s0 += a0[kk] * bv;
          s1 += a1[kk] * bv;
          s2 += a2[kk] * bv;
          s3 += a3[kk] * bv;
        }
        c[static_cast<std::size_t>(i) * n + j] = s0;
        c[static_cast<std::size_t>(i + 1) * n + j] = s1;
        c[static_cast<std::size_t>(i + 2) * n + j] = s2;
        c[static_cast<std::size_t>(i + 3) * n + j] = s3;
      }
    }
    for (; i < i_end; ++i) {
      const float* ai = a + static_cast<std::size_t>(i) * k + kb;
      for (std::size_t j = 0; j < n; ++j) {
        const float* bj = b_t + j * k + kb;
        float s = c[static_cast<std::size_t>(i) * n + j];
        for (std::size_t kk = 0; kk < kc; ++kk) s += ai[kk] * bj[kk];
        c[static_cast<std::size_t>(i) * n + j] = s;
      }
    }
  }
}

// Accumulates directly into the four running sums, one element at a time —
// the order of a naive per-output-channel loop.
void Dot4F32Portable(const float* x, const float* w0, const float* w1,
                     const float* w2, const float* w3, std::int64_t len,
                     float* acc) {
  float a0 = acc[0], a1 = acc[1], a2 = acc[2], a3 = acc[3];
  for (std::int64_t i = 0; i < len; ++i) {
    const float v = x[i];
    a0 += v * w0[i];
    a1 += v * w1[i];
    a2 += v * w2[i];
    a3 += v * w3[i];
  }
  acc[0] = a0;
  acc[1] = a1;
  acc[2] = a2;
  acc[3] = a3;
}

void DwMaddF32Portable(const float* x, const float* w, float* acc,
                       std::int64_t channels) {
  for (std::int64_t c = 0; c < channels; ++c) acc[c] += x[c] * w[c];
}

}  // namespace

const KernelTable& ScalarKernels() {
  static constexpr KernelTable kTable = {KernelIsa::kScalar, "scalar",
                                         GemmF32RowsPortable, Dot4F32Portable,
                                         DwMaddF32Portable};
  return kTable;
}

}  // namespace mlpm::infer::kernels
