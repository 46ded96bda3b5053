#include "infer/executor.h"

#include <algorithm>
#include <cmath>
#include <variant>

#include "common/fp16.h"
#include "common/thread_pool.h"
#include "graph/bounds.h"
#include "infer/op_math.h"
#include "infer/tiled_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mlpm::infer {
namespace {

using graph::Graph;
using graph::Node;
using graph::OpType;
using graph::TensorId;
using graph::TensorShape;

// Elementwise ops smaller than this run inline; the fork/join handshake
// costs more than the loop below it.
constexpr std::size_t kElementwiseCutoff = 1024;

void RunFullyConnected(const graph::FullyConnectedAttrs& a, const Tensor& in,
                       const Tensor& w, const Tensor& bias, Tensor& out,
                       const kernels::KernelTable& kt,
                       const ThreadPool* pool) {
  const TensorShape& is = in.shape();
  const std::int64_t in_f = is.dim(is.rank() - 1);
  const std::int64_t out_f = a.out_features;
  const std::int64_t rows = is.elements() / in_f;
  const float* __restrict ip = in.data();
  const float* __restrict wp = w.data();  // [out_f, in_f]
  const float* __restrict bp = bias.data();
  float* __restrict op = out.data();
  // Four output features share each input load through the dispatched dot4
  // microkernel; the scalar table keeps the original per-element order
  // (bias first, then i ascending).
  const auto run_rows = [&](std::int64_t r, std::int64_t o_lo,
                            std::int64_t o_hi) {
    const float* row = ip + r * in_f;
    std::int64_t o = o_lo;
    for (; o + 4 <= o_hi; o += 4) {
      const float* w0 = wp + o * in_f;
      float acc[4] = {bp[o], bp[o + 1], bp[o + 2], bp[o + 3]};
      kt.dot4_f32(row, w0, w0 + in_f, w0 + 2 * in_f, w0 + 3 * in_f, in_f,
                  acc);
      op[r * out_f + o] = ApplyActivation(acc[0], a.activation);
      op[r * out_f + o + 1] = ApplyActivation(acc[1], a.activation);
      op[r * out_f + o + 2] = ApplyActivation(acc[2], a.activation);
      op[r * out_f + o + 3] = ApplyActivation(acc[3], a.activation);
    }
    for (; o < o_hi; ++o) {
      const float* wrow = wp + o * in_f;
      float acc = bp[o];
      for (std::int64_t i = 0; i < in_f; ++i) acc += row[i] * wrow[i];
      op[r * out_f + o] = ApplyActivation(acc, a.activation);
    }
  };
  if (rows > 1) {
    // Batched / sequence input: parallel over rows.
    ParallelForRange(pool, 0, rows, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t r = lo; r < hi; ++r) run_rows(r, 0, out_f);
    });
  } else {
    // Single row (classifier heads): parallel over output features, chunked
    // in dot4-sized quads so a feature's dot4-vs-remainder path depends only
    // on its absolute index — required for bit-identical results across
    // thread counts (DESIGN.md §8).
    constexpr std::int64_t kB = kernels::kF32RowBlock;
    ParallelForRange(pool, 0, (out_f + kB - 1) / kB,
                     [&](std::int64_t lo, std::int64_t hi) {
                       run_rows(0, lo * kB, std::min(hi * kB, out_f));
                     });
  }
}

void RunGlobalAvgPool(const Tensor& in, Tensor& out, const ThreadPool* pool) {
  const TensorShape& is = in.shape();
  const std::int64_t H = is.height(), W = is.width(), C = is.channels();
  const float* ip = in.data();
  float* op = out.data();
  ParallelForRange(pool, 0, C, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t c = lo; c < hi; ++c) {
      double acc = 0.0;
      for (std::int64_t h = 0; h < H; ++h)
        for (std::int64_t w = 0; w < W; ++w) acc += ip[(h * W + w) * C + c];
      op[c] = static_cast<float>(acc / static_cast<double>(H * W));
    }
  });
}

void RunConcat(const graph::ConcatAttrs& a,
               const std::vector<const Tensor*>& ins, Tensor& out) {
  const TensorShape& os = out.shape();
  const auto rank = static_cast<int>(os.rank());
  const int ax = a.axis >= 0 ? a.axis : rank + a.axis;
  // outer = product of dims before axis; inner = product after.
  std::int64_t outer = 1, inner = 1;
  for (int d = 0; d < ax; ++d) outer *= os.dim(static_cast<std::size_t>(d));
  for (int d = ax + 1; d < rank; ++d)
    inner *= os.dim(static_cast<std::size_t>(d));

  float* op = out.data();
  std::int64_t axis_offset = 0;
  for (const Tensor* t : ins) {
    const std::int64_t t_axis = t->shape().dim(static_cast<std::size_t>(ax));
    const float* ip = t->data();
    for (std::int64_t o = 0; o < outer; ++o) {
      const std::int64_t src = o * t_axis * inner;
      const std::int64_t dst =
          (o * os.dim(static_cast<std::size_t>(ax)) + axis_offset) * inner;
      std::copy_n(ip + src, t_axis * inner, op + dst);
    }
    axis_offset += t_axis;
  }
}

void RunSoftmaxLastDim(const Tensor& in, Tensor& out, const ThreadPool* pool) {
  const TensorShape& s = in.shape();
  const std::int64_t d = s.dim(s.rank() - 1);
  const std::int64_t rows = s.elements() / d;
  const float* ip = in.data();
  float* op = out.data();
  ParallelForRange(pool, 0, rows, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t r = lo; r < hi; ++r) {
      const float* row = ip + r * d;
      float* orow = op + r * d;
      float m = row[0];
      for (std::int64_t i = 1; i < d; ++i) m = std::max(m, row[i]);
      double sum = 0.0;
      for (std::int64_t i = 0; i < d; ++i) {
        orow[i] = std::exp(row[i] - m);
        sum += orow[i];
      }
      const auto inv = static_cast<float>(1.0 / sum);
      for (std::int64_t i = 0; i < d; ++i) orow[i] *= inv;
    }
  });
}

void RunLayerNorm(const graph::LayerNormAttrs& a, const Tensor& in,
                  const Tensor& gamma, const Tensor& beta, Tensor& out,
                  const ThreadPool* pool) {
  const TensorShape& s = in.shape();
  const std::int64_t d = s.dim(s.rank() - 1);
  const std::int64_t rows = s.elements() / d;
  const float* ip = in.data();
  const float* gp = gamma.data();
  const float* bp = beta.data();
  float* op = out.data();
  ParallelForRange(pool, 0, rows, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t r = lo; r < hi; ++r) {
      const float* row = ip + r * d;
      double mean = 0.0;
      for (std::int64_t i = 0; i < d; ++i) mean += row[i];
      mean /= static_cast<double>(d);
      double var = 0.0;
      for (std::int64_t i = 0; i < d; ++i) {
        const double x = row[i] - mean;
        var += x * x;
      }
      var /= static_cast<double>(d);
      const double inv = 1.0 / std::sqrt(var + a.epsilon);
      float* orow = op + r * d;
      for (std::int64_t i = 0; i < d; ++i)
        orow[i] = static_cast<float>((row[i] - mean) * inv) * gp[i] + bp[i];
    }
  });
}

void RunEmbedding(const graph::EmbeddingAttrs& a, const Tensor& ids,
                  const Tensor& table, Tensor& out) {
  const std::int64_t seq = ids.shape().dim(0);
  const float* tp = table.data();
  float* op = out.data();
  for (std::int64_t s = 0; s < seq; ++s) {
    auto id = static_cast<std::int64_t>(ids.data()[s]);
    id = std::clamp<std::int64_t>(id, 0, a.vocab_size - 1);
    std::copy_n(tp + id * a.embed_dim, a.embed_dim, op + s * a.embed_dim);
  }
}

void RunAttention(const graph::AttentionAttrs& a, const Tensor& in,
                  const Tensor& wq, const Tensor& wk, const Tensor& wv,
                  const Tensor& wo, Tensor& out, const ThreadPool* pool) {
  const std::int64_t S = in.shape().dim(0);
  const std::int64_t D = in.shape().dim(1);
  const std::int64_t H = a.num_heads;
  const std::int64_t hd = a.head_dim;

  const auto project = [&](const Tensor& w) {
    std::vector<float> r(static_cast<std::size_t>(S * D));
    const float* ip = in.data();
    const float* wp = w.data();  // [D, D] as [out, in]
    ParallelForRange(pool, 0, S, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t s = lo; s < hi; ++s)
        for (std::int64_t o = 0; o < D; ++o) {
          float acc = 0.0f;
          const float* row = ip + s * D;
          const float* wrow = wp + o * D;
          for (std::int64_t i = 0; i < D; ++i) acc += row[i] * wrow[i];
          r[static_cast<std::size_t>(s * D + o)] = acc;
        }
    });
    return r;
  };
  const std::vector<float> q = project(wq);
  const std::vector<float> k = project(wk);
  const std::vector<float> v = project(wv);

  // Flattened (head, query-row) pairs are independent: each writes a
  // disjoint ctx slice.  Each chunk owns a local scores buffer.
  std::vector<float> ctx(static_cast<std::size_t>(S * D), 0.0f);
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
  ParallelForRange(pool, 0, H * S, [&](std::int64_t lo, std::int64_t hi) {
    std::vector<float> scores(static_cast<std::size_t>(S));
    for (std::int64_t f = lo; f < hi; ++f) {
      const std::int64_t h = f / S;
      const std::int64_t i = f % S;
      const std::int64_t off = h * hd;
      // scores_j = q_i . k_j / sqrt(hd), softmaxed over j.
      float m = -std::numeric_limits<float>::infinity();
      for (std::int64_t j = 0; j < S; ++j) {
        float acc = 0.0f;
        for (std::int64_t d = 0; d < hd; ++d)
          acc += q[static_cast<std::size_t>(i * D + off + d)] *
                 k[static_cast<std::size_t>(j * D + off + d)];
        scores[static_cast<std::size_t>(j)] = acc * inv_sqrt;
        m = std::max(m, scores[static_cast<std::size_t>(j)]);
      }
      double sum = 0.0;
      for (std::int64_t j = 0; j < S; ++j) {
        auto& sj = scores[static_cast<std::size_t>(j)];
        sj = std::exp(sj - m);
        sum += sj;
      }
      const auto inv = static_cast<float>(1.0 / sum);
      for (std::int64_t d = 0; d < hd; ++d) {
        float acc = 0.0f;
        for (std::int64_t j = 0; j < S; ++j)
          acc += scores[static_cast<std::size_t>(j)] *
                 v[static_cast<std::size_t>(j * D + off + d)];
        ctx[static_cast<std::size_t>(i * D + off + d)] = acc * inv;
      }
    }
  });

  // Output projection.
  const float* wop = wo.data();
  float* op = out.data();
  ParallelForRange(pool, 0, S, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t s = lo; s < hi; ++s)
      for (std::int64_t o = 0; o < D; ++o) {
        float acc = 0.0f;
        const float* row = ctx.data() + s * D;
        const float* wrow = wop + o * D;
        for (std::int64_t i = 0; i < D; ++i) acc += row[i] * wrow[i];
        op[s * D + o] = acc;
      }
  });
}

void RunLstm(const graph::LstmAttrs& a, const Tensor& in, const Tensor& wx,
             const Tensor& wh, const Tensor& bias, Tensor& out) {
  const std::int64_t seq = in.shape().dim(0);
  const std::int64_t d = in.shape().dim(1);
  const std::int64_t h = a.hidden_dim;
  const float* xp = in.data();
  const float* wxp = wx.data();  // [4H, D]
  const float* whp = wh.data();  // [4H, H]
  const float* bp = bias.data();
  float* op = out.data();

  std::vector<float> hidden(static_cast<std::size_t>(h), 0.0f);
  std::vector<float> cell(static_cast<std::size_t>(h), 0.0f);
  std::vector<float> gates(static_cast<std::size_t>(4 * h));
  const auto sigmoid = [](float v) { return 1.0f / (1.0f + std::exp(-v)); };

  for (std::int64_t t = 0; t < seq; ++t) {
    const float* x = xp + t * d;
    for (std::int64_t g = 0; g < 4 * h; ++g) {
      float acc = bp[g];
      const float* wx_row = wxp + g * d;
      for (std::int64_t i = 0; i < d; ++i) acc += wx_row[i] * x[i];
      const float* wh_row = whp + g * h;
      for (std::int64_t i = 0; i < h; ++i)
        acc += wh_row[i] * hidden[static_cast<std::size_t>(i)];
      gates[static_cast<std::size_t>(g)] = acc;
    }
    // Gate order: input, forget, cell candidate, output.
    for (std::int64_t i = 0; i < h; ++i) {
      const float ig = sigmoid(gates[static_cast<std::size_t>(i)]);
      const float fg = sigmoid(gates[static_cast<std::size_t>(h + i)]);
      const float gg = std::tanh(gates[static_cast<std::size_t>(2 * h + i)]);
      const float og = sigmoid(gates[static_cast<std::size_t>(3 * h + i)]);
      auto& c = cell[static_cast<std::size_t>(i)];
      c = fg * c + ig * gg;
      const float hv = og * std::tanh(c);
      hidden[static_cast<std::size_t>(i)] = hv;
      op[t * h + i] = hv;
    }
  }
}

// Simulated output numerics over a flat float range: fp16 rounding, or
// activation fake-quant when `range` is set.  Elementwise, so any split of
// a tensor into ranges (thread chunks, tile bands) gives identical bits;
// both roundings are idempotent, so re-applying them over an aliased
// buffer is exact.
void ApplyNumerics(NumericsMode mode, const TensorRange* range, int bits,
                   float* data, std::int64_t n) {
  if (mode == NumericsMode::kFp16) {
    for (std::int64_t i = 0; i < n; ++i) data[i] = RoundToHalf(data[i]);
  } else if (mode == NumericsMode::kInt8 && range != nullptr) {
    for (std::int64_t i = 0; i < n; ++i)
      data[i] = FakeQuantActivation(data[i], *range, bits);
  }
}

// Symmetric per-channel (or per-tensor) weight fake quantization; channel ==
// first dimension, matching the [out, ...] weight layouts used here.
void FakeQuantWeights(Tensor& t, bool per_channel, int bits) {
  const float qmax = static_cast<float>((1 << (bits - 1)) - 1);  // e.g. 127
  const std::int64_t channels =
      per_channel && t.shape().rank() > 1 ? t.shape().dim(0) : 1;
  const std::int64_t stride = static_cast<std::int64_t>(t.size()) / channels;
  float* p = t.data();
  for (std::int64_t c = 0; c < channels; ++c) {
    float* chan = p + c * stride;
    float amax = 0.0f;
    for (std::int64_t i = 0; i < stride; ++i)
      amax = std::max(amax, std::abs(chan[i]));
    if (amax == 0.0f) continue;
    const float scale = amax / qmax;
    for (std::int64_t i = 0; i < stride; ++i) {
      const float q = std::clamp(std::round(chan[i] / scale), -qmax, qmax);
      chan[i] = q * scale;
    }
  }
}

}  // namespace

float FakeQuantActivation(float v, const TensorRange& r, int bits) {
  // Asymmetric uint grid nudged so zero is exactly representable (TFLite
  // requirement; keeps zero-padding exact).
  float lo = std::min(r.min, 0.0f);
  float hi = std::max(r.max, 0.0f);
  if (hi - lo < 1e-12f) return v;
  const float qmax = static_cast<float>((1 << bits) - 1);  // 255
  const float scale = (hi - lo) / qmax;
  const float zp = std::round(-lo / scale);
  const float q = std::clamp(std::round(v / scale) + zp, 0.0f, qmax);
  return (q - zp) * scale;
}

Executor::Executor(const Graph& graph, const WeightStore& weights,
                   NumericsMode mode, const QuantParams* quant,
                   kernels::KernelIsa isa, const TileOptions& tiling)
    : graph_(graph),
      mode_(mode),
      tile_plan_(BuildTilePlan(graph, tiling)),
      plan_(MemoryPlan::Build(graph,
                              tile_plan_.empty() ? nullptr : &tile_plan_)),
      kernels_(&kernels::KernelRegistry::Global().Select(isa)) {
  if (mode_ == NumericsMode::kInt8) {
    Expects(quant != nullptr, "INT8 execution requires QuantParams");
    quant_ = *quant;
  }
  prepared_weights_.resize(graph_.tensors().size());
  for (graph::TensorId id = 0;
       id < static_cast<graph::TensorId>(graph_.tensors().size()); ++id) {
    const auto& info = graph_.tensor(id);
    if (info.kind != graph::TensorKind::kWeight) {
      Expects(info.shape.rank() != 4 || info.shape.batch() == 1,
              "band kernels require batch-1 rank-4 activations (" +
                  info.name + ")");
      continue;
    }
    auto t = std::make_unique<Tensor>(weights.Get(info.name));
    const bool is_bias_like = info.shape.rank() == 1;
    switch (mode_) {
      case NumericsMode::kFp32:
        break;
      case NumericsMode::kFp16:
        ApplyNumerics(mode_, nullptr, 0, t->data(),
                      static_cast<std::int64_t>(t->size()));
        break;
      case NumericsMode::kInt8:
        // Biases stay high precision (INT32 accumulators on real hardware).
        if (!is_bias_like)
          FakeQuantWeights(*t, quant_.per_channel_weights, quant_.weight_bits);
        break;
    }
    prepared_weights_[static_cast<std::size_t>(id)] = std::move(t);
  }
  // Prepack depthwise weights for the selected table: [C,KH,KW] ->
  // [KH,KW,C], after the numerics transform so values are the prepared
  // ones.  A pure layout change — every table reads the same values.
  std::vector<bool> packed(graph_.tensors().size(), false);
  for (const Node& n : graph_.nodes()) {
    if (n.op != OpType::kDepthwiseConv2d) continue;
    const TensorId wid = n.weights[0];
    if (packed[static_cast<std::size_t>(wid)]) continue;
    packed[static_cast<std::size_t>(wid)] = true;
    const Tensor& src = WeightFor(wid);
    const auto& a = std::get<graph::DepthwiseConv2dAttrs>(n.attrs);
    const std::int64_t kh = a.kernel_h, kw = a.kernel_w;
    const std::int64_t c = static_cast<std::int64_t>(src.size()) / (kh * kw);
    auto dst = std::make_unique<Tensor>(graph::TensorShape({kh, kw, c}));
    const float* sp = src.data();
    float* dp = dst->data();
    for (std::int64_t ch = 0; ch < c; ++ch)
      for (std::int64_t y = 0; y < kh; ++y)
        for (std::int64_t x = 0; x < kw; ++x)
          dp[(y * kw + x) * c + ch] = sp[(ch * kh + y) * kw + x];
    prepared_weights_[static_cast<std::size_t>(wid)] = std::move(dst);
  }
}

KernelDispatchCounts Executor::dispatch_counts() const {
  KernelDispatchCounts counts;
  counts.conv2d = dispatch_counts_[0].load(std::memory_order_relaxed);
  counts.depthwise_conv2d = dispatch_counts_[1].load(std::memory_order_relaxed);
  counts.fully_connected = dispatch_counts_[2].load(std::memory_order_relaxed);
  return counts;
}

const Tensor& Executor::WeightFor(TensorId id) const {
  const auto& p = prepared_weights_[static_cast<std::size_t>(id)];
  Expects(p != nullptr, "missing prepared weight");
  return *p;
}

const TensorRange* Executor::ActivationRange(TensorId id) const {
  if (mode_ != NumericsMode::kInt8) return nullptr;
  const auto it = quant_.activation_ranges.find(id);
  return it != quant_.activation_ranges.end() ? &it->second : nullptr;
}

const Tensor& Executor::Fetch(const ExecutionContext& ctx, TensorId id) const {
  if (const Tensor* ext = ctx.external_[static_cast<std::size_t>(id)])
    return *ext;
  const Tensor& slot = ctx.slots_[static_cast<std::size_t>(id)];
  Expects(slot.is_view(), "use of unplanned tensor " + graph_.tensor(id).name);
  return slot;
}

namespace {

// Rows [lo, hi) of a tensor laid out with `full`'s band geometry.
MutableRowBand BandRows(float* data, const RowBand& full, std::int64_t lo,
                        std::int64_t hi) {
  return MutableRowBand{data + lo * full.width * full.channels,
                        lo,
                        hi - lo,
                        full.height,
                        full.width,
                        full.channels};
}

bool IsElementwise(OpType op) {
  return op == OpType::kAdd || op == OpType::kMul ||
         op == OpType::kActivation;
}

// Per-node tracing: one complete span per executed node on the calling
// thread's lane, guarded by a single relaxed atomic load when disabled so
// the untraced hot loop keeps its cost (bit-identical outputs either way —
// tracing only reads timestamps, never tensors).
void TraceNode(obs::TraceRecorder& rec, const Graph& graph, const Node& node,
               const Tensor& out, double t0_us, double t1_us,
               const MemoryPlan& plan) {
  std::vector<obs::TraceArg> args;
  args.reserve(3);
  args.push_back(obs::Arg("tensor", graph.tensor(node.output).name));
  args.push_back(obs::Arg("bytes", out.size() * sizeof(float)));
  const TensorPlacement& p =
      plan.placements()[static_cast<std::size_t>(node.output)];
  if (p.kind != PlacementKind::kUnplanned)
    args.push_back(obs::Arg("arena_offset", p.offset * sizeof(float)));
  rec.AddComplete(obs::Domain::kHost, {},
                  std::string(graph::ToString(node.op)), t0_us,
                  t1_us - t0_us, std::move(args), "node");
}

}  // namespace

void Executor::RunNodeRows(const Node& n, const RowBand& in,
                           const MutableRowBand& out,
                           const ExecutionContext& ctx) const {
  switch (n.op) {
    case OpType::kConv2d:
      RunConv2dRows(std::get<graph::Conv2dAttrs>(n.attrs), in,
                    WeightFor(n.weights[0]), WeightFor(n.weights[1]), out,
                    *kernels_);
      break;
    case OpType::kDepthwiseConv2d:
      RunDepthwiseConv2dRows(std::get<graph::DepthwiseConv2dAttrs>(n.attrs),
                             in, WeightFor(n.weights[0]),
                             WeightFor(n.weights[1]), out, *kernels_);
      break;
    case OpType::kAvgPool:
    case OpType::kMaxPool:
      RunPoolRows(n.op, std::get<graph::PoolAttrs>(n.attrs), in, out);
      break;
    case OpType::kAdd:
    case OpType::kMul: {
      // The second operand is fully materialized with the output's layout.
      const RowBand y{Fetch(ctx, n.inputs[1]).data(), 0, out.height,
                      out.height, out.width, out.channels};
      RunBinaryRows(n.op, in, y, out);
      break;
    }
    case OpType::kActivation:
      RunActivationRows(std::get<graph::ActivationAttrs>(n.attrs).activation,
                        in, out);
      break;
    case OpType::kResizeBilinear:
      RunResizeBilinearRows(in, out);
      break;
    default:
      Expects(false, "op has no row-band kernel");
  }
}

void Executor::RunNode(const Node& n, const ExecutionContext& ctx,
                       Tensor& out, const NodeObserver& observer,
                       const ThreadPool* pool) const {
  // Elementwise loops only fork when the tensor is large enough to pay for
  // the handshake.
  const ThreadPool* elementwise_pool =
      out.size() >= kElementwiseCutoff ? pool : nullptr;
  if (graph::SupportsBoundsInference(n.op)) {
    // Whole-op execution is the single band covering every output row,
    // split into per-thread row chunks.  Elementwise ops see any tensor as
    // a flat band, so their chunks are element ranges.
    const bool flat = IsElementwise(n.op);
    const Tensor& x = Fetch(ctx, n.inputs[0]);
    const RowBand in = flat ? FlatBand(x) : FullBand(x);
    const RowBand full = flat ? FlatBand(out) : FullBand(out);
    ParallelForRange(flat ? elementwise_pool : pool, 0, full.rows,
                     [&](std::int64_t lo, std::int64_t hi) {
                       RunNodeRows(n, in, BandRows(out.data(), full, lo, hi),
                                   ctx);
                     });
  } else {
    switch (n.op) {
      case OpType::kFullyConnected:
        RunFullyConnected(std::get<graph::FullyConnectedAttrs>(n.attrs),
                          Fetch(ctx, n.inputs[0]), WeightFor(n.weights[0]),
                          WeightFor(n.weights[1]), out, *kernels_, pool);
        break;
      case OpType::kGlobalAvgPool:
        RunGlobalAvgPool(Fetch(ctx, n.inputs[0]), out, pool);
        break;
      case OpType::kConcat: {
        std::vector<const Tensor*> ins;
        ins.reserve(n.inputs.size());
        for (TensorId t : n.inputs) ins.push_back(&Fetch(ctx, t));
        RunConcat(std::get<graph::ConcatAttrs>(n.attrs), ins, out);
        break;
      }
      case OpType::kReshape: {
        const Tensor& x = Fetch(ctx, n.inputs[0]);
        // Aliased reshape: the output *is* the input buffer.
        if (x.data() != out.data())
          std::copy_n(x.data(), x.size(), out.data());
        break;
      }
      case OpType::kSoftmax: {
        const auto& a = std::get<graph::SoftmaxAttrs>(n.attrs);
        const auto rank = static_cast<int>(out.shape().rank());
        Expects(a.axis == -1 || a.axis == rank - 1,
                "softmax supported on last axis only");
        RunSoftmaxLastDim(Fetch(ctx, n.inputs[0]), out, pool);
        break;
      }
      case OpType::kLayerNorm:
        RunLayerNorm(std::get<graph::LayerNormAttrs>(n.attrs),
                     Fetch(ctx, n.inputs[0]), WeightFor(n.weights[0]),
                     WeightFor(n.weights[1]), out, pool);
        break;
      case OpType::kEmbeddingLookup:
        RunEmbedding(std::get<graph::EmbeddingAttrs>(n.attrs),
                     Fetch(ctx, n.inputs[0]), WeightFor(n.weights[0]), out);
        break;
      case OpType::kMultiHeadAttention:
        RunAttention(std::get<graph::AttentionAttrs>(n.attrs),
                     Fetch(ctx, n.inputs[0]), WeightFor(n.weights[0]),
                     WeightFor(n.weights[1]), WeightFor(n.weights[2]),
                     WeightFor(n.weights[3]), out, pool);
        break;
      case OpType::kLstm:
        RunLstm(std::get<graph::LstmAttrs>(n.attrs), Fetch(ctx, n.inputs[0]),
                WeightFor(n.weights[0]), WeightFor(n.weights[1]),
                WeightFor(n.weights[2]), out);
        break;
      case OpType::kConstant: {
        // Materialized constant (transform-layer constant folding): the
        // value lives in the node's single weight tensor.
        const Tensor& value = WeightFor(n.weights[0]);
        std::copy_n(value.data(), value.size(), out.data());
        break;
      }
      default:
        Expects(false, "unsupported op");
    }
  }

  if (observer) observer(n.output, out);
  const TensorRange* range = ActivationRange(n.output);
  if (mode_ == NumericsMode::kFp32 || (mode_ == NumericsMode::kInt8 && !range))
    return;
  ParallelForRange(elementwise_pool, 0, static_cast<std::int64_t>(out.size()),
                   [&](std::int64_t lo, std::int64_t hi) {
                     ApplyNumerics(mode_, range, quant_.activation_bits,
                                   out.data() + lo, hi - lo);
                   });
}

// Executes one fused tile segment: the segment's output rows are cut into
// row bands (the ThreadPool parallel grain), and each band is produced by
// walking the chain front-to-back through a per-worker slab that holds only
// the tile-sized slice of every interior tensor.  Input row ranges come
// from graph::InferInputBounds walked tail-to-head, so every band reads
// exactly the rows it needs — bit-identical to untiled execution because
// each output element sees the identical kernel calls on identical data
// (tiled_ops.h).  `seg_out` is the tail node's full arena view.
void Executor::RunTiledSegment(std::size_t seg_idx,
                               const ExecutionContext& ctx, Tensor& seg_out,
                               const ThreadPool* pool) const {
  const Graph& g = graph_;
  const TileSegment& s = tile_plan_.segments[seg_idx];
  const int n_nodes = static_cast<int>(s.last_node - s.first_node + 1);

  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  const std::int64_t tiles = s.tile_count();
  ParallelForRange(pool, 0, tiles, [&](std::int64_t lo, std::int64_t hi) {
    // One slab per chunk: every interior tensor's tile slice, packed at
    // the planner's aligned offsets.
    std::vector<float> slab(s.slab_elements);
    std::vector<graph::Interval> out_rows(static_cast<std::size_t>(n_nodes));
    for (std::int64_t t = lo; t < hi; ++t) {
      const bool traced = rec.enabled();
      const double t0_us = traced ? rec.NowUs() : 0.0;
      const std::int64_t r0 = t * s.tile_rows;
      const std::int64_t r1 = std::min(r0 + s.tile_rows, s.out_rows);
      // Tail-to-head bounds inference: node j must produce the rows node
      // j+1 consumes.
      out_rows[static_cast<std::size_t>(n_nodes - 1)] = {r0, r1};
      for (int j = n_nodes - 1; j > 0; --j) {
        const Node& n = g.nodes()[static_cast<std::size_t>(s.first_node + j)];
        const graph::TensorShape& ish = g.tensor(n.inputs[0]).shape;
        const graph::TensorShape& osh = g.tensor(n.output).shape;
        graph::Box crop = graph::Box::FromShape(osh);
        crop.dims[1] = out_rows[static_cast<std::size_t>(j)];
        out_rows[static_cast<std::size_t>(j - 1)] =
            graph::InferInputBounds(n, ish, osh, crop).dims[1];
      }
      // Head-to-tail execution over the inferred bands.
      for (int j = 0; j < n_nodes; ++j) {
        const Node& n = g.nodes()[static_cast<std::size_t>(s.first_node + j)];
        const graph::TensorShape& osh = g.tensor(n.output).shape;
        const graph::Interval rows = out_rows[static_cast<std::size_t>(j)];
        RowBand in_band;
        if (j == 0) {
          in_band = FullBand(Fetch(ctx, n.inputs[0]));
        } else {
          const graph::TensorShape& ish = g.tensor(n.inputs[0]).shape;
          const graph::Interval in_rows =
              out_rows[static_cast<std::size_t>(j - 1)];
          in_band = RowBand{slab.data() + s.slab_offsets[j - 1],
                            in_rows.begin, in_rows.length(), ish.height(),
                            ish.width(), ish.channels()};
        }
        MutableRowBand out_band;
        if (j == n_nodes - 1) {
          out_band = BandRows(seg_out.data(), FullBand(seg_out), rows.begin,
                              rows.end);
        } else {
          Expects(rows.length() <= s.slab_rows[static_cast<std::size_t>(j)],
                  "tile band exceeds planned slab rows");
          out_band = MutableRowBand{slab.data() + s.slab_offsets[j],
                                    rows.begin, rows.length(), osh.height(),
                                    osh.width(), osh.channels()};
        }
        RunNodeRows(n, in_band, out_band, ctx);
        ApplyNumerics(mode_, ActivationRange(n.output), quant_.activation_bits,
                      out_band.data,
                      out_band.rows * out_band.width * out_band.channels);
      }
      if (traced) {
        std::vector<obs::TraceArg> args;
        args.reserve(2);
        args.push_back(obs::Arg("segment", static_cast<int>(seg_idx)));
        args.push_back(
            obs::Arg("rows", std::to_string(r0) + ":" + std::to_string(r1)));
        rec.AddComplete(obs::Domain::kHost, {}, "tile", t0_us,
                        rec.NowUs() - t0_us, std::move(args), "tile");
      }
    }
  });
}

ExecutionContext::ExecutionContext(const Executor& executor)
    : plan_(&executor.memory_plan()),
      arena_(plan_->arena_elements(), 0.0f),
      slots_(executor.graph().tensors().size()),
      external_(executor.graph().tensors().size(), nullptr) {
  obs::MetricsRegistry::Global().MaxGauge(
      "infer.arena_bytes", static_cast<double>(plan_->peak_arena_bytes()));
  const Graph& g = executor.graph();
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    const TensorPlacement& p = plan_->placements()[id];
    // Tile-slab tensors have no arena storage: the tiled executor
    // materializes them band-by-band in per-worker slabs.
    if (p.kind == PlacementKind::kUnplanned ||
        p.kind == PlacementKind::kTileSlab)
      continue;
    slots_[id] = Tensor::View(g.tensor(static_cast<TensorId>(id)).shape,
                              arena_.data() + p.offset);
  }
}

std::vector<Tensor> Executor::Run(std::span<const Tensor> inputs,
                                  const NodeObserver& observer) const {
  ExecutionContext ctx(*this);
  return Run(inputs, ctx, observer);
}

std::vector<Tensor> Executor::Run(std::span<const Tensor> inputs,
                                  ExecutionContext& ctx,
                                  const NodeObserver& observer,
                                  const ThreadPool* pool) const {
  Expects(ctx.plan_ == &plan_,
          "execution context belongs to a different executor");
  Expects(inputs.size() == graph_.input_ids().size(),
          "wrong number of graph inputs");
  Expects(!(tiled() && observer),
          "observed runs need every intermediate; use an untiled executor");
  std::fill(ctx.external_.begin(), ctx.external_.end(), nullptr);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const TensorId id = graph_.input_ids()[i];
    Expects(inputs[i].shape() == graph_.tensor(id).shape,
            "input shape mismatch for " + graph_.tensor(id).name);
    ctx.external_[static_cast<std::size_t>(id)] = &inputs[i];
  }

  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  const auto& nodes = graph_.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (n.op == OpType::kInput) continue;
    const bool traced = rec.enabled();
    const double t0_us = traced ? rec.NowUs() : 0.0;
    const std::int32_t seg = tiled() ? tile_plan_.segment_of_node[i] : -1;
    // A segment head runs the whole fused chain tile-by-tile; its interior
    // nodes never execute standalone.
    const std::size_t last =
        seg >= 0 ? static_cast<std::size_t>(
                       tile_plan_.segments[static_cast<std::size_t>(seg)]
                           .last_node)
                 : i;
    Tensor& out = ctx.slots_[static_cast<std::size_t>(nodes[last].output)];
    if (seg >= 0)
      RunTiledSegment(static_cast<std::size_t>(seg), ctx, out, pool);
    else
      RunNode(n, ctx, out, observer, pool);
    // Dispatch counters tick once per node per run (not per tile or
    // chunk), so tiled and untiled profiles stay comparable.
    for (std::size_t m = i; m <= last; ++m) {
      switch (nodes[m].op) {
        case OpType::kConv2d:
          dispatch_counts_[0].fetch_add(1, std::memory_order_relaxed);
          break;
        case OpType::kDepthwiseConv2d:
          dispatch_counts_[1].fetch_add(1, std::memory_order_relaxed);
          break;
        case OpType::kFullyConnected:
          dispatch_counts_[2].fetch_add(1, std::memory_order_relaxed);
          break;
        default:
          break;
      }
    }
    if (traced) {
      if (seg >= 0) {
        const TileSegment& s =
            tile_plan_.segments[static_cast<std::size_t>(seg)];
        std::vector<obs::TraceArg> args;
        args.reserve(3);
        args.push_back(
            obs::Arg("tensor", graph_.tensor(nodes[last].output).name));
        args.push_back(obs::Arg("nodes", static_cast<int>(last - i + 1)));
        args.push_back(obs::Arg("tiles", static_cast<int>(s.tile_count())));
        rec.AddComplete(obs::Domain::kHost, {}, "tiled_segment", t0_us,
                        rec.NowUs() - t0_us, std::move(args), "node");
      } else {
        TraceNode(rec, graph_, n, out, t0_us, rec.NowUs(), plan_);
      }
    }
    i = last;
  }

  // Detach outputs from the arena: the caller keeps them, the arena is
  // overwritten by the next sample.
  std::vector<Tensor> outputs;
  outputs.reserve(graph_.output_ids().size());
  for (TensorId id : graph_.output_ids())
    outputs.push_back(Fetch(ctx, id).Clone());
  return outputs;
}

std::vector<std::vector<Tensor>> RunSamplesParallel(
    const Executor& executor, std::size_t count,
    const std::function<std::vector<Tensor>(std::size_t)>& inputs_for,
    const ThreadPool* pool) {
  std::vector<std::vector<Tensor>> results(count);
  // One arena context per chunk: each worker allocates its arena once and
  // reuses it for every sample in its range, so the steady state does no
  // per-sample activation allocation.
  ParallelForRange(pool, 0, static_cast<std::int64_t>(count),
                   [&](std::int64_t lo, std::int64_t hi) {
                     ExecutionContext ctx = executor.CreateContext();
                     for (std::int64_t i = lo; i < hi; ++i) {
                       const auto idx = static_cast<std::size_t>(i);
                       const std::vector<Tensor> inputs = inputs_for(idx);
                       results[idx] = executor.Run(inputs, ctx);
                     }
                   });
  return results;
}

}  // namespace mlpm::infer
