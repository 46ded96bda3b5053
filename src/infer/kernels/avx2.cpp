// AVX2 + FMA microkernel table.  Compiled with -mavx2 -mfma on x86 builds
// only (see src/infer/CMakeLists.txt); the registry dispatches here when the
// host CPU advertises both features.
//
// Exactness: the f32 kernels use 8-lane FMA accumulators, which
// reassociates the sum and fuses the round step, so they match the scalar
// table only within the documented relative tolerance (DESIGN.md §13).
#include "infer/kernels/registry.h"

#if defined(MLPM_KERNELS_HAVE_AVX2)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace mlpm::infer::kernels {
namespace {

inline float Hsum256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

inline float DotF32(const float* x, const float* y, std::size_t k) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= k; i += 8)
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i), acc);
  float s = Hsum256(acc);
  for (; i < k; ++i) s += x[i] * y[i];
  return s;
}

void GemmF32RowsAvx2(const float* a, const float* b_t, std::int64_t i_begin,
                     std::int64_t i_end, std::size_t n, std::size_t k,
                     float* c) {
  std::int64_t i = i_begin;
  // 4 rows x 2 columns of outputs: 8 vector accumulators plus 6 streamed
  // loads per k-step stay within the 16 ymm registers.
  for (; i + 4 <= i_end; i += 4) {
    const float* a0 = a + static_cast<std::size_t>(i) * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      const float* b0 = b_t + j * k;
      const float* b1 = b0 + k;
      __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
      __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
      __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
      __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
      std::size_t kk = 0;
      for (; kk + 8 <= k; kk += 8) {
        const __m256 bv0 = _mm256_loadu_ps(b0 + kk);
        const __m256 bv1 = _mm256_loadu_ps(b1 + kk);
        const __m256 av0 = _mm256_loadu_ps(a0 + kk);
        acc00 = _mm256_fmadd_ps(av0, bv0, acc00);
        acc01 = _mm256_fmadd_ps(av0, bv1, acc01);
        const __m256 av1 = _mm256_loadu_ps(a1 + kk);
        acc10 = _mm256_fmadd_ps(av1, bv0, acc10);
        acc11 = _mm256_fmadd_ps(av1, bv1, acc11);
        const __m256 av2 = _mm256_loadu_ps(a2 + kk);
        acc20 = _mm256_fmadd_ps(av2, bv0, acc20);
        acc21 = _mm256_fmadd_ps(av2, bv1, acc21);
        const __m256 av3 = _mm256_loadu_ps(a3 + kk);
        acc30 = _mm256_fmadd_ps(av3, bv0, acc30);
        acc31 = _mm256_fmadd_ps(av3, bv1, acc31);
      }
      float s[4][2] = {{Hsum256(acc00), Hsum256(acc01)},
                       {Hsum256(acc10), Hsum256(acc11)},
                       {Hsum256(acc20), Hsum256(acc21)},
                       {Hsum256(acc30), Hsum256(acc31)}};
      for (; kk < k; ++kk) {
        const float bv0 = b0[kk], bv1 = b1[kk];
        s[0][0] += a0[kk] * bv0; s[0][1] += a0[kk] * bv1;
        s[1][0] += a1[kk] * bv0; s[1][1] += a1[kk] * bv1;
        s[2][0] += a2[kk] * bv0; s[2][1] += a2[kk] * bv1;
        s[3][0] += a3[kk] * bv0; s[3][1] += a3[kk] * bv1;
      }
      for (std::size_t r = 0; r < 4; ++r) {
        c[(static_cast<std::size_t>(i) + r) * n + j] = s[r][0];
        c[(static_cast<std::size_t>(i) + r) * n + j + 1] = s[r][1];
      }
    }
    for (; j < n; ++j) {
      const float* bj = b_t + j * k;
      c[static_cast<std::size_t>(i) * n + j] = DotF32(a0, bj, k);
      c[static_cast<std::size_t>(i + 1) * n + j] = DotF32(a1, bj, k);
      c[static_cast<std::size_t>(i + 2) * n + j] = DotF32(a2, bj, k);
      c[static_cast<std::size_t>(i + 3) * n + j] = DotF32(a3, bj, k);
    }
  }
  for (; i < i_end; ++i) {
    const float* ai = a + static_cast<std::size_t>(i) * k;
    for (std::size_t j = 0; j < n; ++j)
      c[static_cast<std::size_t>(i) * n + j] = DotF32(ai, b_t + j * k, k);
  }
}

void Dot4F32Avx2(const float* x, const float* w0, const float* w1,
                 const float* w2, const float* w3, std::int64_t len,
                 float* acc) {
  __m256 s0 = _mm256_setzero_ps(), s1 = _mm256_setzero_ps();
  __m256 s2 = _mm256_setzero_ps(), s3 = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    s0 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(w0 + i), s0);
    s1 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(w1 + i), s1);
    s2 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(w2 + i), s2);
    s3 = _mm256_fmadd_ps(xv, _mm256_loadu_ps(w3 + i), s3);
  }
  float r0 = Hsum256(s0), r1 = Hsum256(s1), r2 = Hsum256(s2),
        r3 = Hsum256(s3);
  for (; i < len; ++i) {
    const float v = x[i];
    r0 += v * w0[i];
    r1 += v * w1[i];
    r2 += v * w2[i];
    r3 += v * w3[i];
  }
  acc[0] += r0;
  acc[1] += r1;
  acc[2] += r2;
  acc[3] += r3;
}

void DwMaddF32Avx2(const float* x, const float* w, float* acc,
                   std::int64_t channels) {
  std::int64_t c = 0;
  for (; c + 8 <= channels; c += 8)
    _mm256_storeu_ps(acc + c,
                     _mm256_fmadd_ps(_mm256_loadu_ps(x + c),
                                     _mm256_loadu_ps(w + c),
                                     _mm256_loadu_ps(acc + c)));
  for (; c < channels; ++c) acc[c] += x[c] * w[c];
}

}  // namespace

const KernelTable* Avx2KernelsOrNull() {
  static constexpr KernelTable kTable = {KernelIsa::kAvx2, "avx2",
                                         GemmF32RowsAvx2, Dot4F32Avx2,
                                         DwMaddF32Avx2};
  return &kTable;
}

}  // namespace mlpm::infer::kernels

#endif  // MLPM_KERNELS_HAVE_AVX2
