// AArch64 NEON (Advanced SIMD) microkernel table.  Compiled on aarch64
// builds only; ASIMD is architecturally mandatory there, but the registry
// still confirms it via HWCAP before dispatching here.
//
// Exactness mirrors avx2.cpp: the f32 kernels reassociate across 4 lanes
// and fuse with vfmaq, so they match the scalar table within the documented
// tolerance only.
#include "infer/kernels/registry.h"

#if defined(MLPM_KERNELS_HAVE_NEON) && defined(__aarch64__)

#include <arm_neon.h>

#include <cstddef>
#include <cstdint>

namespace mlpm::infer::kernels {
namespace {

inline float DotF32(const float* x, const float* y, std::size_t k) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= k; i += 4)
    acc = vfmaq_f32(acc, vld1q_f32(x + i), vld1q_f32(y + i));
  float s = vaddvq_f32(acc);
  for (; i < k; ++i) s += x[i] * y[i];
  return s;
}

void GemmF32RowsNeon(const float* a, const float* b_t, std::int64_t i_begin,
                     std::int64_t i_end, std::size_t n, std::size_t k,
                     float* c) {
  std::int64_t i = i_begin;
  for (; i + 4 <= i_end; i += 4) {
    const float* a0 = a + static_cast<std::size_t>(i) * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      const float* b0 = b_t + j * k;
      const float* b1 = b0 + k;
      float32x4_t acc00 = vdupq_n_f32(0.0f), acc01 = vdupq_n_f32(0.0f);
      float32x4_t acc10 = vdupq_n_f32(0.0f), acc11 = vdupq_n_f32(0.0f);
      float32x4_t acc20 = vdupq_n_f32(0.0f), acc21 = vdupq_n_f32(0.0f);
      float32x4_t acc30 = vdupq_n_f32(0.0f), acc31 = vdupq_n_f32(0.0f);
      std::size_t kk = 0;
      for (; kk + 4 <= k; kk += 4) {
        const float32x4_t bv0 = vld1q_f32(b0 + kk);
        const float32x4_t bv1 = vld1q_f32(b1 + kk);
        const float32x4_t av0 = vld1q_f32(a0 + kk);
        acc00 = vfmaq_f32(acc00, av0, bv0);
        acc01 = vfmaq_f32(acc01, av0, bv1);
        const float32x4_t av1 = vld1q_f32(a1 + kk);
        acc10 = vfmaq_f32(acc10, av1, bv0);
        acc11 = vfmaq_f32(acc11, av1, bv1);
        const float32x4_t av2 = vld1q_f32(a2 + kk);
        acc20 = vfmaq_f32(acc20, av2, bv0);
        acc21 = vfmaq_f32(acc21, av2, bv1);
        const float32x4_t av3 = vld1q_f32(a3 + kk);
        acc30 = vfmaq_f32(acc30, av3, bv0);
        acc31 = vfmaq_f32(acc31, av3, bv1);
      }
      float s[4][2] = {{vaddvq_f32(acc00), vaddvq_f32(acc01)},
                       {vaddvq_f32(acc10), vaddvq_f32(acc11)},
                       {vaddvq_f32(acc20), vaddvq_f32(acc21)},
                       {vaddvq_f32(acc30), vaddvq_f32(acc31)}};
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

void Dot4F32Neon(const float* x, const float* w0, const float* w1,
                 const float* w2, const float* w3, std::int64_t len,
                 float* acc) {
  float32x4_t s0 = vdupq_n_f32(0.0f), s1 = vdupq_n_f32(0.0f);
  float32x4_t s2 = vdupq_n_f32(0.0f), s3 = vdupq_n_f32(0.0f);
  std::int64_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const float32x4_t xv = vld1q_f32(x + i);
    s0 = vfmaq_f32(s0, xv, vld1q_f32(w0 + i));
    s1 = vfmaq_f32(s1, xv, vld1q_f32(w1 + i));
    s2 = vfmaq_f32(s2, xv, vld1q_f32(w2 + i));
    s3 = vfmaq_f32(s3, xv, vld1q_f32(w3 + i));
  }
  float r0 = vaddvq_f32(s0), r1 = vaddvq_f32(s1), r2 = vaddvq_f32(s2),
        r3 = vaddvq_f32(s3);
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

void DwMaddF32Neon(const float* x, const float* w, float* acc,
                   std::int64_t channels) {
  std::int64_t c = 0;
  for (; c + 4 <= channels; c += 4)
    vst1q_f32(acc + c,
              vfmaq_f32(vld1q_f32(acc + c), vld1q_f32(x + c),
                        vld1q_f32(w + c)));
  for (; c < channels; ++c) acc[c] += x[c] * w[c];
}

}  // namespace

const KernelTable* NeonKernelsOrNull() {
  static constexpr KernelTable kTable = {KernelIsa::kNeon, "neon",
                                         GemmF32RowsNeon, Dot4F32Neon,
                                         DwMaddF32Neon};
  return &kTable;
}

}  // namespace mlpm::infer::kernels

#endif  // MLPM_KERNELS_HAVE_NEON && __aarch64__
