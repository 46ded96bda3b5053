// Reference numeric executor.
//
// Executes a graph::Graph on the CPU with straightforward NHWC kernels.
// This is the stand-in for the paper's poorly-optimized reference TFLite
// implementation (§3.3): correct, simple, and the source of FP32 ground
// truth for the teacher-labelled datasets.
//
// One execution path: activations live in a preplanned arena
// (ExecutionContext), and every band-capable op (conv, depthwise, pool,
// resize, elementwise) runs through the row-band kernels of tiled_ops.h —
// untiled nodes as one band per thread chunk, tiled segments tile by tile.
// The independent correctness oracle is the naive per-op reference in
// tests/reference_ops, not a second implementation here.
//
// Numerics modes (paper §5.1/§7.5):
//   kFp32 — plain float.
//   kFp16 — weights and every node output rounded through binary16.
//   kInt8 — weights fake-quantized symmetric (per-channel by default);
//           activations fake-quantized asymmetric using calibrated ranges.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "infer/kernels/registry.h"
#include "infer/memory_plan.h"
#include "infer/quant_params.h"
#include "infer/tensor.h"
#include "infer/tile_planner.h"
#include "infer/weights.h"

namespace mlpm {
class ThreadPool;
}

namespace mlpm::infer {

class Executor;
struct RowBand;
struct MutableRowBand;

// Reusable execution state for the arena path: one contiguous activation
// arena sized by the executor's MemoryPlan, plus prebuilt view tensors for
// every planned activation.  Create one per thread (a context is not
// thread-safe) and reuse it across samples — every kernel fully overwrites
// its output range, so nothing is cleared between runs.  The executor must
// outlive the context.
class ExecutionContext {
 public:
  explicit ExecutionContext(const Executor& executor);

  [[nodiscard]] const MemoryPlan& plan() const { return *plan_; }
  [[nodiscard]] std::size_t arena_bytes() const {
    return arena_.size() * sizeof(float);
  }

 private:
  friend class Executor;
  const MemoryPlan* plan_;
  std::vector<float> arena_;
  // Arena views indexed by TensorId (default tensors for unplanned slots).
  std::vector<Tensor> slots_;
  // Graph inputs bound for the current Run, indexed by TensorId.
  std::vector<const Tensor*> external_;
};

enum class NumericsMode : std::uint8_t { kFp32, kFp16, kInt8 };

[[nodiscard]] constexpr std::string_view ToString(NumericsMode m) {
  switch (m) {
    case NumericsMode::kFp32: return "FP32";
    case NumericsMode::kFp16: return "FP16";
    case NumericsMode::kInt8: return "INT8";
  }
  return "?";
}

// The executor numerics that emulate a submission's activation data type.
[[nodiscard]] constexpr NumericsMode NumericsModeFor(DataType activations) {
  switch (activations) {
    case DataType::kInt8:
    case DataType::kUInt8:
      return NumericsMode::kInt8;
    case DataType::kFloat16:
      return NumericsMode::kFp16;
    case DataType::kFloat32:
    case DataType::kInt32:
      return NumericsMode::kFp32;
  }
  return NumericsMode::kFp32;
}

// Called after each node executes, with the node's output tensor.  Used by
// the quantizer to record activation ranges during calibration.
using NodeObserver =
    std::function<void(graph::TensorId, const Tensor&)>;

// How many node executions each dispatched microkernel family served, so
// profiles can show which microkernel ran each op (harness exports these as
// kernels.dispatch.* metrics alongside the resolved ISA name).
struct KernelDispatchCounts {
  std::uint64_t conv2d = 0;
  std::uint64_t depthwise_conv2d = 0;
  std::uint64_t fully_connected = 0;
};

class Executor {
 public:
  // `graph` and `weights` must outlive the executor.  For kInt8 mode,
  // `quant` must be non-null and is copied.  `isa` selects the SIMD kernel
  // table (kernels/registry.h): kAuto resolves to the best table the host
  // supports; an unavailable forced ISA falls back to scalar.  Depthwise
  // weights are repacked [C,KH,KW] -> [KH,KW,C] at construction so every
  // table reads channel-contiguous taps (a pure layout change).  Band
  // kernels are batch-1: a graph with a batch>1 rank-4 activation is
  // rejected here.
  //
  // `tiling` (tile_planner.h) opts Run into fused tiled segment execution:
  // fusable conv/dw chains run crop-by-crop through per-worker slabs
  // instead of materializing full intermediates.  Tiled execution is
  // bit-identical to untiled execution for every numerics mode, kernel
  // table, and thread count (DESIGN.md §15).
  Executor(const graph::Graph& graph, const WeightStore& weights,
           NumericsMode mode = NumericsMode::kFp32,
           const QuantParams* quant = nullptr,
           kernels::KernelIsa isa = kernels::KernelIsa::kAuto,
           const TileOptions& tiling = {});

  // Runs the graph; `inputs` must match graph.input_ids() in order and
  // shape.  Returns one tensor per graph output.  Activations live in
  // `ctx`'s preplanned arena; graph inputs are bound as read-only views
  // (never copied).  `ctx` must have been created from this executor;
  // reuse it across calls on one thread.
  //
  // `observer`, when set, is invoked on every node output
  // (pre-quantization) on the calling thread.  Observed runs need every
  // full intermediate, which tiled segments never materialize, so an
  // observed run on a tiled executor is rejected (calibration builds its
  // own untiled executor).
  //
  // Kernels parallelize over independent output rows/elements on `pool`
  // (may be null).  Results are bit-identical for any thread count: each
  // output element is computed by exactly one thread with the same
  // per-element operation order, and no cross-thread reductions exist.
  [[nodiscard]] std::vector<Tensor> Run(std::span<const Tensor> inputs,
                                        ExecutionContext& ctx,
                                        const NodeObserver& observer = {},
                                        const ThreadPool* pool = nullptr) const;

  // Convenience: runs serially through a fresh context.
  [[nodiscard]] std::vector<Tensor> Run(std::span<const Tensor> inputs,
                                        const NodeObserver& observer = {}) const;

  [[nodiscard]] ExecutionContext CreateContext() const {
    return ExecutionContext(*this);
  }

  [[nodiscard]] NumericsMode mode() const { return mode_; }
  [[nodiscard]] const graph::Graph& graph() const { return graph_; }
  // The static activation plan (built once at construction; tile-aware
  // when the executor was constructed with tiling enabled).
  [[nodiscard]] const MemoryPlan& memory_plan() const { return plan_; }
  // The tile plan (empty when tiling is off or no segment qualified).
  [[nodiscard]] const TilePlan& tile_plan() const { return tile_plan_; }
  [[nodiscard]] bool tiled() const { return !tile_plan_.empty(); }

  // The resolved kernel ISA (never kAuto) and its table.
  [[nodiscard]] kernels::KernelIsa kernel_isa() const { return kernels_->isa; }
  [[nodiscard]] const kernels::KernelTable& kernels() const {
    return *kernels_;
  }
  // Snapshot of the per-kernel dispatch counters, accumulated across every
  // Run on this executor (thread-safe; counters are relaxed atomics).
  [[nodiscard]] KernelDispatchCounts dispatch_counts() const;

 private:
  [[nodiscard]] const Tensor& WeightFor(graph::TensorId id) const;
  // The calibrated range an INT8 run fake-quantizes `id` to, or nullptr.
  [[nodiscard]] const TensorRange* ActivationRange(graph::TensorId id) const;
  [[nodiscard]] const Tensor& Fetch(const ExecutionContext& ctx,
                                    graph::TensorId id) const;
  // Output rows [out.origin, out.origin + out.rows) of band-capable node
  // `n` from `in`, the band of its first input.
  void RunNodeRows(const graph::Node& n, const RowBand& in,
                   const MutableRowBand& out,
                   const ExecutionContext& ctx) const;
  // One untiled node into `out`, including its output numerics.
  void RunNode(const graph::Node& n, const ExecutionContext& ctx, Tensor& out,
               const NodeObserver& observer, const ThreadPool* pool) const;
  // One fused tile segment, written into its tail node's arena view.
  void RunTiledSegment(std::size_t seg_idx, const ExecutionContext& ctx,
                       Tensor& seg_out, const ThreadPool* pool) const;

  const graph::Graph& graph_;
  NumericsMode mode_;
  QuantParams quant_;
  // Declared before plan_: the memory plan is built against the tile plan.
  TilePlan tile_plan_;
  MemoryPlan plan_;
  // Weights transformed once for the executor's numerics mode, indexed by
  // TensorId (nullptr for activation slots).  Depthwise weights hold the
  // table's channel-contiguous [KH,KW,C] layout.
  std::vector<std::unique_ptr<Tensor>> prepared_weights_;
  // The runtime-selected kernel table (points at registry-owned statics).
  const kernels::KernelTable* kernels_;
  // conv2d / depthwise / fully-connected node executions, in that order.
  mutable std::array<std::atomic<std::uint64_t>, 3> dispatch_counts_{};
};

// Evaluates `count` independent samples, parallelized over samples when
// `pool` is non-null: the sample-level fan-out of the accuracy harness.
// Per-op parallelism inside each sample collapses to inline execution
// (nested ParallelFor), so one pool serves both regimes without deadlock.
// `inputs_for(i)` must be safe to call concurrently and returns the
// sample's input tensors by value.  Output order matches sample order and
// every tensor is bit-identical to a serial loop (samples are independent;
// no shared mutable state).
[[nodiscard]] std::vector<std::vector<Tensor>> RunSamplesParallel(
    const Executor& executor, std::size_t count,
    const std::function<std::vector<Tensor>(std::size_t)>& inputs_for,
    const ThreadPool* pool);

}  // namespace mlpm::infer
