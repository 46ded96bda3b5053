#include "datasets/teacher.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "infer/executor.h"

namespace mlpm::datasets {

void LabelWithTeacher(const graph::Graph& model,
                      const infer::WeightStore& weights, std::size_t needed,
                      std::size_t max_candidates,
                      const CandidateInputs& inputs_for,
                      const AcceptCandidate& accept, const ThreadPool* pool) {
  const infer::Executor teacher(model, weights, infer::NumericsMode::kFp32);
  // A window never shrinks below the lane count, so a filtered set's tail
  // (a few samples still missing) keeps every lane busy.
  const std::size_t lanes = pool != nullptr ? pool->thread_count() : 1;
  std::size_t accepted = 0;
  std::size_t next = 0;
  while (accepted < needed) {
    Expects(next < max_candidates,
            "min_teacher_margin too strict: candidate pool exhausted");
    const std::size_t first = next;
    const std::size_t window =
        std::min(std::max(needed - accepted, lanes), max_candidates - first);
    const std::vector<std::vector<infer::Tensor>> outputs =
        infer::RunSamplesParallel(
            teacher, window,
            [&](std::size_t i) { return inputs_for(first + i); }, pool);
    next = first + window;
    for (std::size_t i = 0; i < window && accepted < needed; ++i)
      if (accept(first + i, outputs[i])) ++accepted;
  }
}

}  // namespace mlpm::datasets
