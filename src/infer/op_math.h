// Scalar math shared by the executor's kernels (executor.cpp, tiled_ops.cpp)
// and the naive reference in tests/, so every path applies one definition
// of each activation function.
#pragma once

#include <algorithm>
#include <cmath>

#include "graph/ops.h"

namespace mlpm::infer {

// Fused/standalone activation applied to one accumulator.
inline float ApplyActivation(float v, graph::Activation a) {
  switch (a) {
    case graph::Activation::kNone:
      return v;
    case graph::Activation::kRelu:
      return v > 0.0f ? v : 0.0f;
    case graph::Activation::kRelu6:
      return std::clamp(v, 0.0f, 6.0f);
    case graph::Activation::kSigmoid:
      return 1.0f / (1.0f + std::exp(-v));
    case graph::Activation::kTanh:
      return std::tanh(v);
    case graph::Activation::kGelu: {
      // tanh approximation of GELU.
      const float c = 0.7978845608f;  // sqrt(2/pi)
      const float inner = c * (v + 0.044715f * v * v * v);
      return 0.5f * v * (1.0f + std::tanh(inner));
    }
  }
  return v;
}

}  // namespace mlpm::infer
