#include "infer/tiled_ops.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.h"
#include "graph/bounds.h"
#include "infer/op_math.h"

namespace mlpm::infer {
namespace {

using graph::Activation;
using graph::OpType;

}  // namespace

RowBand FullBand(const Tensor& t) {
  const graph::TensorShape& s = t.shape();
  Expects(s.rank() == 4 && s.batch() == 1,
          "row bands require rank-4 batch-1 tensors");
  return RowBand{t.data(), 0, s.height(), s.height(), s.width(),
                 s.channels()};
}

RowBand FlatBand(const Tensor& t) {
  const auto n = static_cast<std::int64_t>(t.size());
  return RowBand{t.data(), 0, n, n, 1, 1};
}

void RunConv2dRows(const graph::Conv2dAttrs& a, const RowBand& in,
                   const Tensor& w, const Tensor& bias,
                   const MutableRowBand& out,
                   const kernels::KernelTable& kt) {
  const std::int64_t IH = in.height, IW = in.width, IC = in.channels;
  const std::int64_t OW = out.width, OC = out.channels;
  const std::int64_t ph = graph::SamePadBegin(IH, out.height, a.kernel_h,
                                              a.stride, a.dilation, a.padding);
  const std::int64_t pw = graph::SamePadBegin(IW, out.width, a.kernel_w,
                                              a.stride, a.dilation, a.padding);
  const float* __restrict wp = w.data();
  const float* __restrict bp = bias.data();
  const float* __restrict ip = in.data;
  float* __restrict op = out.data;

  // Global output rows; taps are skipped against the *logical* bounds
  // [0, IH), and surviving taps are guaranteed in-slab by bounds inference.
  for (std::int64_t oh = out.origin; oh < out.origin + out.rows; ++oh) {
    for (std::int64_t ow = 0; ow < OW; ++ow) {
      float* out_px = op + ((oh - out.origin) * OW + ow) * OC;
      std::int64_t oc = 0;
      for (; oc + 4 <= OC; oc += 4) {
        float acc[4] = {bp[oc], bp[oc + 1], bp[oc + 2], bp[oc + 3]};
        for (int kh = 0; kh < a.kernel_h; ++kh) {
          const std::int64_t ih =
              oh * a.stride - ph + static_cast<std::int64_t>(kh) * a.dilation;
          if (ih < 0 || ih >= IH) continue;
          for (int kw = 0; kw < a.kernel_w; ++kw) {
            const std::int64_t iw =
                ow * a.stride - pw + static_cast<std::int64_t>(kw) *
                                         a.dilation;
            if (iw < 0 || iw >= IW) continue;
            const float* in_px = ip + ((ih - in.origin) * IW + iw) * IC;
            const std::int64_t woff =
                (static_cast<std::int64_t>(kh) * a.kernel_w + kw) * IC;
            const std::int64_t wstride =
                static_cast<std::int64_t>(a.kernel_h) * a.kernel_w * IC;
            const float* w0 = wp + oc * wstride + woff;
            kt.dot4_f32(in_px, w0, w0 + wstride, w0 + 2 * wstride,
                        w0 + 3 * wstride, IC, acc);
          }
        }
        out_px[oc] = ApplyActivation(acc[0], a.activation);
        out_px[oc + 1] = ApplyActivation(acc[1], a.activation);
        out_px[oc + 2] = ApplyActivation(acc[2], a.activation);
        out_px[oc + 3] = ApplyActivation(acc[3], a.activation);
      }
      for (; oc < OC; ++oc) {
        float acc = bp[oc];
        for (int kh = 0; kh < a.kernel_h; ++kh) {
          const std::int64_t ih =
              oh * a.stride - ph + static_cast<std::int64_t>(kh) * a.dilation;
          if (ih < 0 || ih >= IH) continue;
          for (int kw = 0; kw < a.kernel_w; ++kw) {
            const std::int64_t iw =
                ow * a.stride - pw + static_cast<std::int64_t>(kw) *
                                         a.dilation;
            if (iw < 0 || iw >= IW) continue;
            const float* in_px = ip + ((ih - in.origin) * IW + iw) * IC;
            const float* w_px =
                wp + ((oc * a.kernel_h + kh) * a.kernel_w + kw) * IC;
            for (std::int64_t ic = 0; ic < IC; ++ic)
              acc += in_px[ic] * w_px[ic];
          }
        }
        out_px[oc] = ApplyActivation(acc, a.activation);
      }
    }
  }
}

void RunDepthwiseConv2dRows(const graph::DepthwiseConv2dAttrs& a,
                            const RowBand& in, const Tensor& w,
                            const Tensor& bias, const MutableRowBand& out,
                            const kernels::KernelTable& kt) {
  const std::int64_t IH = in.height, IW = in.width, C = in.channels;
  const std::int64_t OW = out.width;
  const std::int64_t ph = graph::SamePadBegin(IH, out.height, a.kernel_h,
                                              a.stride, a.dilation, a.padding);
  const std::int64_t pw = graph::SamePadBegin(IW, out.width, a.kernel_w,
                                              a.stride, a.dilation, a.padding);
  const float* __restrict wp = w.data();  // [KH, KW, C]
  const float* __restrict bp = bias.data();
  const float* __restrict ip = in.data;
  float* __restrict op = out.data;

  std::vector<float> acc(static_cast<std::size_t>(C));
  for (std::int64_t oh = out.origin; oh < out.origin + out.rows; ++oh) {
    for (std::int64_t ow = 0; ow < OW; ++ow) {
      std::copy_n(bp, C, acc.data());
      for (int kh = 0; kh < a.kernel_h; ++kh) {
        const std::int64_t ih =
            oh * a.stride - ph + static_cast<std::int64_t>(kh) * a.dilation;
        if (ih < 0 || ih >= IH) continue;
        for (int kw = 0; kw < a.kernel_w; ++kw) {
          const std::int64_t iw =
              ow * a.stride - pw + static_cast<std::int64_t>(kw) * a.dilation;
          if (iw < 0 || iw >= IW) continue;
          kt.dw_madd_f32(
              ip + ((ih - in.origin) * IW + iw) * C,
              wp + (static_cast<std::int64_t>(kh) * a.kernel_w + kw) * C,
              acc.data(), C);
        }
      }
      float* out_px = op + ((oh - out.origin) * OW + ow) * C;
      for (std::int64_t c = 0; c < C; ++c)
        out_px[c] =
            ApplyActivation(acc[static_cast<std::size_t>(c)], a.activation);
    }
  }
}

void RunPoolRows(OpType op, const graph::PoolAttrs& a, const RowBand& in,
                 const MutableRowBand& out) {
  const std::int64_t IH = in.height, IW = in.width, C = in.channels;
  const std::int64_t OW = out.width;
  const float* ip = in.data;
  float* opd = out.data;
  const bool is_max = op == OpType::kMaxPool;
  for (std::int64_t oh = out.origin; oh < out.origin + out.rows; ++oh) {
    for (std::int64_t ow = 0; ow < OW; ++ow) {
      for (std::int64_t c = 0; c < C; ++c) {
        float acc = is_max ? -std::numeric_limits<float>::infinity() : 0.0f;
        int count = 0;
        for (int kh = 0; kh < a.kernel; ++kh) {
          const std::int64_t ih = oh * a.stride + kh;
          if (ih >= IH) continue;
          for (int kw = 0; kw < a.kernel; ++kw) {
            const std::int64_t iw = ow * a.stride + kw;
            if (iw >= IW) continue;
            const float v = ip[((ih - in.origin) * IW + iw) * C + c];
            if (is_max)
              acc = std::max(acc, v);
            else
              acc += v;
            ++count;
          }
        }
        opd[((oh - out.origin) * OW + ow) * C + c] =
            is_max ? acc : acc / static_cast<float>(std::max(count, 1));
      }
    }
  }
}

void RunBinaryRows(OpType op, const RowBand& x, const RowBand& y,
                   const MutableRowBand& out) {
  // Elementwise: the band is one contiguous run of rows * width * channels
  // floats in every operand.
  const std::int64_t row_elems = out.width * out.channels;
  const std::int64_t n = out.rows * row_elems;
  const float* xp = x.data + (out.origin - x.origin) * row_elems;
  const float* yp = y.data + (out.origin - y.origin) * row_elems;
  float* op_data = out.data;
  if (op == OpType::kAdd) {
    for (std::int64_t i = 0; i < n; ++i) op_data[i] = xp[i] + yp[i];
  } else {
    for (std::int64_t i = 0; i < n; ++i) op_data[i] = xp[i] * yp[i];
  }
}

void RunActivationRows(Activation act, const RowBand& in,
                       const MutableRowBand& out) {
  const std::int64_t row_elems = out.width * out.channels;
  const std::int64_t n = out.rows * row_elems;
  const float* xp = in.data + (out.origin - in.origin) * row_elems;
  for (std::int64_t i = 0; i < n; ++i)
    out.data[i] = ApplyActivation(xp[i], act);
}

void RunResizeBilinearRows(const RowBand& in, const MutableRowBand& out) {
  const std::int64_t IH = in.height, IW = in.width, C = in.channels;
  const std::int64_t OH = out.height, OW = out.width;
  const double sh = static_cast<double>(IH) / static_cast<double>(OH);
  const double sw = static_cast<double>(IW) / static_cast<double>(OW);
  const float* ip = in.data;
  float* op = out.data;
  for (std::int64_t oh = out.origin; oh < out.origin + out.rows; ++oh) {
    // Half-pixel centers, clamped to the valid range; taps land inside the
    // slab because bounds inference materialized [y0(first), y1(last)].
    const double fy =
        std::max(0.0, (static_cast<double>(oh) + 0.5) * sh - 0.5);
    const auto y0 =
        std::min<std::int64_t>(static_cast<std::int64_t>(fy), IH - 1);
    const auto y1 = std::min<std::int64_t>(y0 + 1, IH - 1);
    const float wy = static_cast<float>(fy - static_cast<double>(y0));
    for (std::int64_t ow = 0; ow < OW; ++ow) {
      const double fx =
          std::max(0.0, (static_cast<double>(ow) + 0.5) * sw - 0.5);
      const auto x0 =
          std::min<std::int64_t>(static_cast<std::int64_t>(fx), IW - 1);
      const auto x1 = std::min<std::int64_t>(x0 + 1, IW - 1);
      const float wx = static_cast<float>(fx - static_cast<double>(x0));
      for (std::int64_t c = 0; c < C; ++c) {
        const auto px = [&](std::int64_t y, std::int64_t x) {
          return ip[((y - in.origin) * IW + x) * C + c];
        };
        const float top = px(y0, x0) * (1 - wx) + px(y0, x1) * wx;
        const float bot = px(y1, x0) * (1 - wx) + px(y1, x1) * wx;
        op[((oh - out.origin) * OW + ow) * C + c] =
            top * (1 - wy) + bot * wy;
      }
    }
  }
}

}  // namespace mlpm::infer
