#include "reference_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <variant>

#include "common/check.h"
#include "common/fp16.h"
#include "infer/op_math.h"

namespace mlpm::reference {
namespace {

using graph::Node;
using graph::OpType;
using graph::TensorShape;
using infer::Tensor;

// TensorFlow SAME padding: half the total pad in front (rounded down).
std::int64_t PadBegin(std::int64_t in, std::int64_t out, int kernel,
                      int stride, int dilation, graph::Padding pad) {
  if (pad == graph::Padding::kValid) return 0;
  const std::int64_t span =
      static_cast<std::int64_t>(kernel - 1) * dilation + 1;
  return std::max<std::int64_t>(0, (out - 1) * stride + span - in) / 2;
}

Tensor Conv2d(const graph::Conv2dAttrs& a, const Tensor& in, const Tensor& w,
              const Tensor& b, const TensorShape& os) {
  const TensorShape& is = in.shape();
  const std::int64_t N = is.batch(), IH = is.height(), IW = is.width(),
                     IC = is.channels();
  const std::int64_t OH = os.height(), OW = os.width(), OC = os.channels();
  const std::int64_t ph =
      PadBegin(IH, OH, a.kernel_h, a.stride, a.dilation, a.padding);
  const std::int64_t pw =
      PadBegin(IW, OW, a.kernel_w, a.stride, a.dilation, a.padding);
  Tensor out(os);
  for (std::int64_t n = 0; n < N; ++n)
    for (std::int64_t oh = 0; oh < OH; ++oh)
      for (std::int64_t ow = 0; ow < OW; ++ow)
        for (std::int64_t oc = 0; oc < OC; ++oc) {
          float acc = b.data()[oc];
          for (std::int64_t kh = 0; kh < a.kernel_h; ++kh) {
            const std::int64_t ih = oh * a.stride - ph + kh * a.dilation;
            if (ih < 0 || ih >= IH) continue;
            for (std::int64_t kw = 0; kw < a.kernel_w; ++kw) {
              const std::int64_t iw = ow * a.stride - pw + kw * a.dilation;
              if (iw < 0 || iw >= IW) continue;
              for (std::int64_t ic = 0; ic < IC; ++ic)
                acc += in.data()[((n * IH + ih) * IW + iw) * IC + ic] *
                       w.data()[((oc * a.kernel_h + kh) * a.kernel_w + kw) *
                                    IC +
                                ic];
            }
          }
          out.data()[((n * OH + oh) * OW + ow) * OC + oc] =
              infer::ApplyActivation(acc, a.activation);
        }
  return out;
}

// `w` is the graph's [C, KH, KW] layout (no prepack).
Tensor DepthwiseConv2d(const graph::DepthwiseConv2dAttrs& a, const Tensor& in,
                       const Tensor& w, const Tensor& b,
                       const TensorShape& os) {
  const TensorShape& is = in.shape();
  const std::int64_t N = is.batch(), IH = is.height(), IW = is.width(),
                     C = is.channels();
  const std::int64_t OH = os.height(), OW = os.width();
  const std::int64_t ph =
      PadBegin(IH, OH, a.kernel_h, a.stride, a.dilation, a.padding);
  const std::int64_t pw =
      PadBegin(IW, OW, a.kernel_w, a.stride, a.dilation, a.padding);
  Tensor out(os);
  for (std::int64_t n = 0; n < N; ++n)
    for (std::int64_t oh = 0; oh < OH; ++oh)
      for (std::int64_t ow = 0; ow < OW; ++ow)
        for (std::int64_t c = 0; c < C; ++c) {
          float acc = b.data()[c];
          for (std::int64_t kh = 0; kh < a.kernel_h; ++kh) {
            const std::int64_t ih = oh * a.stride - ph + kh * a.dilation;
            if (ih < 0 || ih >= IH) continue;
            for (std::int64_t kw = 0; kw < a.kernel_w; ++kw) {
              const std::int64_t iw = ow * a.stride - pw + kw * a.dilation;
              if (iw < 0 || iw >= IW) continue;
              acc += in.data()[((n * IH + ih) * IW + iw) * C + c] *
                     w.data()[(c * a.kernel_h + kh) * a.kernel_w + kw];
            }
          }
          out.data()[((n * OH + oh) * OW + ow) * C + c] =
              infer::ApplyActivation(acc, a.activation);
        }
  return out;
}

Tensor FullyConnected(const graph::FullyConnectedAttrs& a, const Tensor& in,
                      const Tensor& w, const Tensor& b,
                      const TensorShape& os) {
  const std::int64_t in_f = in.shape().dim(in.shape().rank() - 1);
  const std::int64_t rows = in.shape().elements() / in_f;
  Tensor out(os);
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t o = 0; o < a.out_features; ++o) {
      float acc = b.data()[o];
      for (std::int64_t i = 0; i < in_f; ++i)
        acc += in.data()[r * in_f + i] * w.data()[o * in_f + i];
      out.data()[r * a.out_features + o] =
          infer::ApplyActivation(acc, a.activation);
    }
  return out;
}

Tensor Pool(bool is_max, const graph::PoolAttrs& a, const Tensor& in,
            const TensorShape& os) {
  const TensorShape& is = in.shape();
  const std::int64_t N = is.batch(), IH = is.height(), IW = is.width(),
                     C = is.channels();
  const std::int64_t OH = os.height(), OW = os.width();
  Tensor out(os);
  for (std::int64_t n = 0; n < N; ++n)
    for (std::int64_t oh = 0; oh < OH; ++oh)
      for (std::int64_t ow = 0; ow < OW; ++ow)
        for (std::int64_t c = 0; c < C; ++c) {
          float acc =
              is_max ? -std::numeric_limits<float>::infinity() : 0.0f;
          int count = 0;
          for (std::int64_t kh = 0; kh < a.kernel; ++kh)
            for (std::int64_t kw = 0; kw < a.kernel; ++kw) {
              const std::int64_t ih = oh * a.stride + kh;
              const std::int64_t iw = ow * a.stride + kw;
              if (ih >= IH || iw >= IW) continue;
              const float v = in.data()[((n * IH + ih) * IW + iw) * C + c];
              acc = is_max ? std::max(acc, v) : acc + v;
              ++count;
            }
          out.data()[((n * OH + oh) * OW + ow) * C + c] =
              is_max ? acc : acc / static_cast<float>(std::max(count, 1));
        }
  return out;
}

Tensor GlobalAvgPool(const Tensor& in, const TensorShape& os) {
  const TensorShape& is = in.shape();
  const std::int64_t N = is.batch(), H = is.height(), W = is.width(),
                     C = is.channels();
  Tensor out(os);
  for (std::int64_t n = 0; n < N; ++n)
    for (std::int64_t c = 0; c < C; ++c) {
      double acc = 0.0;
      for (std::int64_t h = 0; h < H; ++h)
        for (std::int64_t w = 0; w < W; ++w)
          acc += in.data()[((n * H + h) * W + w) * C + c];
      out.data()[n * C + c] =
          static_cast<float>(acc / static_cast<double>(H * W));
    }
  return out;
}

// Half-pixel centers, clamped to the input.
Tensor ResizeBilinear(const Tensor& in, const TensorShape& os) {
  const TensorShape& is = in.shape();
  const std::int64_t N = is.batch(), IH = is.height(), IW = is.width(),
                     C = is.channels();
  const std::int64_t OH = os.height(), OW = os.width();
  const double sh = static_cast<double>(IH) / static_cast<double>(OH);
  const double sw = static_cast<double>(IW) / static_cast<double>(OW);
  Tensor out(os);
  for (std::int64_t n = 0; n < N; ++n)
    for (std::int64_t oh = 0; oh < OH; ++oh)
      for (std::int64_t ow = 0; ow < OW; ++ow)
        for (std::int64_t c = 0; c < C; ++c) {
          const double fy =
              std::max(0.0, (static_cast<double>(oh) + 0.5) * sh - 0.5);
          const double fx =
              std::max(0.0, (static_cast<double>(ow) + 0.5) * sw - 0.5);
          const std::int64_t y0 =
              std::min(static_cast<std::int64_t>(fy), IH - 1);
          const std::int64_t x0 =
              std::min(static_cast<std::int64_t>(fx), IW - 1);
          const std::int64_t y1 = std::min(y0 + 1, IH - 1);
          const std::int64_t x1 = std::min(x0 + 1, IW - 1);
          const auto wy = static_cast<float>(fy - static_cast<double>(y0));
          const auto wx = static_cast<float>(fx - static_cast<double>(x0));
          const auto px = [&](std::int64_t y, std::int64_t x) {
            return in.data()[((n * IH + y) * IW + x) * C + c];
          };
          const float top = px(y0, x0) * (1 - wx) + px(y0, x1) * wx;
          const float bot = px(y1, x0) * (1 - wx) + px(y1, x1) * wx;
          out.data()[((n * OH + oh) * OW + ow) * C + c] =
              top * (1 - wy) + bot * wy;
        }
  return out;
}

Tensor Concat(const graph::ConcatAttrs& a, const std::vector<Tensor>& ins,
              const TensorShape& os) {
  const auto rank = static_cast<int>(os.rank());
  const auto ax = static_cast<std::size_t>(a.axis >= 0 ? a.axis : rank + a.axis);
  std::int64_t outer = 1, inner = 1;
  for (std::size_t d = 0; d < ax; ++d) outer *= os.dim(d);
  for (std::size_t d = ax + 1; d < os.rank(); ++d) inner *= os.dim(d);
  Tensor out(os);
  for (std::int64_t o = 0; o < outer; ++o) {
    std::int64_t at = 0;
    for (const Tensor& t : ins) {
      const std::int64_t span = t.shape().dim(ax) * inner;
      for (std::int64_t i = 0; i < span; ++i)
        out.data()[(o * os.dim(ax)) * inner + at + i] =
            t.data()[o * span + i];
      at += span;
    }
  }
  return out;
}

Tensor Softmax(const Tensor& in) {
  const std::int64_t d = in.shape().dim(in.shape().rank() - 1);
  const std::int64_t rows = in.shape().elements() / d;
  Tensor out(in.shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x = in.data() + r * d;
    float* y = out.data() + r * d;
    float m = x[0];
    for (std::int64_t i = 1; i < d; ++i) m = std::max(m, x[i]);
    double sum = 0.0;
    for (std::int64_t i = 0; i < d; ++i) {
      y[i] = std::exp(x[i] - m);
      sum += y[i];
    }
    const auto inv = static_cast<float>(1.0 / sum);
    for (std::int64_t i = 0; i < d; ++i) y[i] *= inv;
  }
  return out;
}

Tensor LayerNorm(const graph::LayerNormAttrs& a, const Tensor& in,
                 const Tensor& gamma, const Tensor& beta) {
  const std::int64_t d = in.shape().dim(in.shape().rank() - 1);
  const std::int64_t rows = in.shape().elements() / d;
  Tensor out(in.shape());
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* x = in.data() + r * d;
    double mean = 0.0;
    for (std::int64_t i = 0; i < d; ++i) mean += x[i];
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (std::int64_t i = 0; i < d; ++i) var += (x[i] - mean) * (x[i] - mean);
    var /= static_cast<double>(d);
    const double inv = 1.0 / std::sqrt(var + a.epsilon);
    for (std::int64_t i = 0; i < d; ++i)
      out.data()[r * d + i] =
          static_cast<float>((x[i] - mean) * inv) * gamma.data()[i] +
          beta.data()[i];
  }
  return out;
}

Tensor Embedding(const graph::EmbeddingAttrs& a, const Tensor& ids,
                 const Tensor& table, const TensorShape& os) {
  Tensor out(os);
  for (std::int64_t s = 0; s < ids.shape().dim(0); ++s) {
    const std::int64_t id = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(ids.data()[s]), 0, a.vocab_size - 1);
    for (std::int64_t e = 0; e < a.embed_dim; ++e)
      out.data()[s * a.embed_dim + e] = table.data()[id * a.embed_dim + e];
  }
  return out;
}

// x[S, D] * W^T for a square [D, D] weight, no bias.
std::vector<float> Project(const float* x, const Tensor& w, std::int64_t S,
                           std::int64_t D) {
  std::vector<float> y(static_cast<std::size_t>(S * D));
  for (std::int64_t s = 0; s < S; ++s)
    for (std::int64_t o = 0; o < D; ++o) {
      float acc = 0.0f;
      for (std::int64_t i = 0; i < D; ++i)
        acc += x[s * D + i] * w.data()[o * D + i];
      y[static_cast<std::size_t>(s * D + o)] = acc;
    }
  return y;
}

Tensor Attention(const graph::AttentionAttrs& a, const Tensor& in,
                 const Tensor& wq, const Tensor& wk, const Tensor& wv,
                 const Tensor& wo) {
  const std::int64_t S = in.shape().dim(0), D = in.shape().dim(1);
  const std::int64_t hd = a.head_dim;
  const std::vector<float> q = Project(in.data(), wq, S, D);
  const std::vector<float> k = Project(in.data(), wk, S, D);
  const std::vector<float> v = Project(in.data(), wv, S, D);
  const auto at = [D](std::int64_t row, std::int64_t col) {
    return static_cast<std::size_t>(row * D + col);
  };
  std::vector<float> ctx(static_cast<std::size_t>(S * D));
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
  std::vector<float> p(static_cast<std::size_t>(S));
  for (std::int64_t h = 0; h < a.num_heads; ++h)
    for (std::int64_t i = 0; i < S; ++i) {
      // Scaled scores, softmaxed over j; normalization folded in last.
      float m = -std::numeric_limits<float>::infinity();
      for (std::int64_t j = 0; j < S; ++j) {
        float acc = 0.0f;
        for (std::int64_t d = 0; d < hd; ++d)
          acc += q[at(i, h * hd + d)] * k[at(j, h * hd + d)];
        p[static_cast<std::size_t>(j)] = acc * inv_sqrt;
        m = std::max(m, p[static_cast<std::size_t>(j)]);
      }
      double sum = 0.0;
      for (float& pj : p) {
        pj = std::exp(pj - m);
        sum += pj;
      }
      const auto inv = static_cast<float>(1.0 / sum);
      for (std::int64_t d = 0; d < hd; ++d) {
        float acc = 0.0f;
        for (std::int64_t j = 0; j < S; ++j)
          acc += p[static_cast<std::size_t>(j)] * v[at(j, h * hd + d)];
        ctx[at(i, h * hd + d)] = acc * inv;
      }
    }
  const std::vector<float> y = Project(ctx.data(), wo, S, D);
  return Tensor(in.shape(), y);
}

Tensor Lstm(const graph::LstmAttrs& a, const Tensor& in, const Tensor& wx,
            const Tensor& wh, const Tensor& b, const TensorShape& os) {
  const std::int64_t seq = in.shape().dim(0), d = in.shape().dim(1);
  const std::int64_t H = a.hidden_dim;
  const auto sigmoid = [](float x) { return 1.0f / (1.0f + std::exp(-x)); };
  std::vector<float> h(static_cast<std::size_t>(H), 0.0f);
  std::vector<float> c(static_cast<std::size_t>(H), 0.0f);
  std::vector<float> gates(static_cast<std::size_t>(4 * H));
  Tensor out(os);
  for (std::int64_t t = 0; t < seq; ++t) {
    for (std::int64_t g = 0; g < 4 * H; ++g) {
      float acc = b.data()[g];
      for (std::int64_t i = 0; i < d; ++i)
        acc += wx.data()[g * d + i] * in.data()[t * d + i];
      for (std::int64_t i = 0; i < H; ++i)
        acc += wh.data()[g * H + i] * h[static_cast<std::size_t>(i)];
      gates[static_cast<std::size_t>(g)] = acc;
    }
    // Gate order: input, forget, cell candidate, output.
    for (std::int64_t i = 0; i < H; ++i) {
      const auto gate = [&](std::int64_t k) {
        return gates[static_cast<std::size_t>(k * H + i)];
      };
      auto& ci = c[static_cast<std::size_t>(i)];
      ci = sigmoid(gate(1)) * ci + sigmoid(gate(0)) * std::tanh(gate(2));
      h[static_cast<std::size_t>(i)] = sigmoid(gate(3)) * std::tanh(ci);
      out.data()[t * H + i] = h[static_cast<std::size_t>(i)];
    }
  }
  return out;
}

// Symmetric weight fake quantization, per output channel (dim 0) or per
// tensor.
void FakeQuantWeights(Tensor& t, bool per_channel, int bits) {
  const auto qmax = static_cast<float>((1 << (bits - 1)) - 1);
  const std::int64_t channels =
      per_channel && t.shape().rank() > 1 ? t.shape().dim(0) : 1;
  const std::int64_t len = static_cast<std::int64_t>(t.size()) / channels;
  for (std::int64_t c = 0; c < channels; ++c) {
    float* x = t.data() + c * len;
    float amax = 0.0f;
    for (std::int64_t i = 0; i < len; ++i) amax = std::max(amax, std::abs(x[i]));
    if (amax == 0.0f) continue;
    const float scale = amax / qmax;
    for (std::int64_t i = 0; i < len; ++i)
      x[i] = std::clamp(std::round(x[i] / scale), -qmax, qmax) * scale;
  }
}

}  // namespace

void GemmF32Ref(std::span<const float> a, std::span<const float> b_t,
                std::size_t m, std::size_t n, std::size_t k,
                std::span<float> c) {
  Expects(a.size() == m * k, "A size mismatch");
  Expects(b_t.size() == n * k, "B size mismatch");
  Expects(c.size() == m * n, "C size mismatch");
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b_t[j * k + kk];
      c[i * n + j] = acc;
    }
}

std::vector<Tensor> RunReference(const graph::Graph& g,
                                 const infer::WeightStore& weights,
                                 std::span<const Tensor> inputs,
                                 infer::NumericsMode mode,
                                 const infer::QuantParams* quant) {
  Expects(inputs.size() == g.input_ids().size(), "wrong input count");
  Expects(mode != infer::NumericsMode::kInt8 || quant != nullptr,
          "INT8 reference needs QuantParams");
  std::vector<Tensor> values(g.tensors().size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    values[static_cast<std::size_t>(g.input_ids()[i])] = inputs[i];
  const auto weight = [&](graph::TensorId id) {
    Tensor t = weights.Get(g.tensor(id).name);
    if (mode == infer::NumericsMode::kFp16) {
      for (float& v : t.values()) v = RoundToHalf(v);
    } else if (mode == infer::NumericsMode::kInt8 && t.shape().rank() > 1) {
      FakeQuantWeights(t, quant->per_channel_weights, quant->weight_bits);
    }
    return t;
  };

  for (const Node& n : g.nodes()) {
    if (n.op == OpType::kInput) continue;
    const TensorShape& os = g.tensor(n.output).shape;
    const auto in = [&](std::size_t i) -> const Tensor& {
      return values[static_cast<std::size_t>(n.inputs[i])];
    };
    Tensor out;
    switch (n.op) {
      case OpType::kConv2d:
        out = Conv2d(std::get<graph::Conv2dAttrs>(n.attrs), in(0),
                     weight(n.weights[0]), weight(n.weights[1]), os);
        break;
      case OpType::kDepthwiseConv2d:
        out = DepthwiseConv2d(std::get<graph::DepthwiseConv2dAttrs>(n.attrs),
                              in(0), weight(n.weights[0]),
                              weight(n.weights[1]), os);
        break;
      case OpType::kFullyConnected:
        out = FullyConnected(std::get<graph::FullyConnectedAttrs>(n.attrs),
                             in(0), weight(n.weights[0]),
                             weight(n.weights[1]), os);
        break;
      case OpType::kAdd:
      case OpType::kMul:
        out = Tensor(os);
        for (std::size_t i = 0; i < out.size(); ++i)
          out.data()[i] = n.op == OpType::kAdd
                              ? in(0).data()[i] + in(1).data()[i]
                              : in(0).data()[i] * in(1).data()[i];
        break;
      case OpType::kActivation:
        out = Tensor(os);
        for (std::size_t i = 0; i < out.size(); ++i)
          out.data()[i] = infer::ApplyActivation(
              in(0).data()[i],
              std::get<graph::ActivationAttrs>(n.attrs).activation);
        break;
      case OpType::kAvgPool:
      case OpType::kMaxPool:
        out = Pool(n.op == OpType::kMaxPool, std::get<graph::PoolAttrs>(n.attrs),
                   in(0), os);
        break;
      case OpType::kGlobalAvgPool:
        out = GlobalAvgPool(in(0), os);
        break;
      case OpType::kResizeBilinear:
        out = ResizeBilinear(in(0), os);
        break;
      case OpType::kConcat: {
        std::vector<Tensor> ins;
        for (std::size_t i = 0; i < n.inputs.size(); ++i) ins.push_back(in(i));
        out = Concat(std::get<graph::ConcatAttrs>(n.attrs), ins, os);
        break;
      }
      case OpType::kReshape:
        out = Tensor(os, std::vector<float>(in(0).values().begin(),
                                            in(0).values().end()));
        break;
      case OpType::kSoftmax:
        out = Softmax(in(0));
        break;
      case OpType::kLayerNorm:
        out = LayerNorm(std::get<graph::LayerNormAttrs>(n.attrs), in(0),
                        weight(n.weights[0]), weight(n.weights[1]));
        break;
      case OpType::kEmbeddingLookup:
        out = Embedding(std::get<graph::EmbeddingAttrs>(n.attrs), in(0),
                        weight(n.weights[0]), os);
        break;
      case OpType::kMultiHeadAttention:
        out = Attention(std::get<graph::AttentionAttrs>(n.attrs), in(0),
                        weight(n.weights[0]), weight(n.weights[1]),
                        weight(n.weights[2]), weight(n.weights[3]));
        break;
      case OpType::kLstm:
        out = Lstm(std::get<graph::LstmAttrs>(n.attrs), in(0),
                   weight(n.weights[0]), weight(n.weights[1]),
                   weight(n.weights[2]), os);
        break;
      case OpType::kConstant:
        out = Tensor(os, std::vector<float>(
                             weight(n.weights[0]).values().begin(),
                             weight(n.weights[0]).values().end()));
        break;
      case OpType::kInput:
        break;
    }
    // Simulated output numerics.
    if (mode == infer::NumericsMode::kFp16) {
      for (float& v : out.values()) v = RoundToHalf(v);
    } else if (mode == infer::NumericsMode::kInt8) {
      const auto it = quant->activation_ranges.find(n.output);
      if (it != quant->activation_ranges.end())
        for (float& v : out.values())
          v = infer::FakeQuantActivation(v, it->second, quant->activation_bits);
    }
    values[static_cast<std::size_t>(n.output)] = std::move(out);
  }

  std::vector<Tensor> outputs;
  for (const graph::TensorId id : g.output_ids())
    outputs.push_back(values[static_cast<std::size_t>(id)]);
  return outputs;
}

double MaxAbsDiff(const std::vector<Tensor>& want,
                  const std::vector<Tensor>& got) {
  Expects(want.size() == got.size(), "output count mismatch");
  double worst = 0.0;
  for (std::size_t o = 0; o < want.size(); ++o) {
    Expects(want[o].size() == got[o].size(), "output size mismatch");
    for (std::size_t i = 0; i < want[o].size(); ++i)
      worst = std::max(worst, std::fabs(static_cast<double>(want[o].at(i)) -
                                        got[o].at(i)));
  }
  return worst;
}

}  // namespace mlpm::reference
