// Teacher labelling (DESIGN.md §1): the one loop every teacher-derived data
// set runs to turn FP32 reference outputs into ground truth.
//
// The teacher forward passes are the expensive part of building a data set
// and are independent per candidate, so they fan out over a pool.  Whether
// a candidate enters the set, and every draw from the label RNG, stays on
// the calling thread in candidate order — so labels, sample indices and
// ground truth are byte-identical at any lane count.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "infer/tensor.h"
#include "infer/weights.h"

namespace mlpm {
class ThreadPool;
}

namespace mlpm::datasets {

// The graph inputs of candidate `i`; called concurrently from pool workers.
using CandidateInputs =
    std::function<std::vector<infer::Tensor>(std::size_t)>;

// Decides candidate `i` from the teacher's outputs and returns true when it
// enters the set.  Called on the calling thread, strictly in candidate
// order, so it may draw from the data set's label RNG.
using AcceptCandidate =
    std::function<bool(std::size_t, std::span<const infer::Tensor>)>;

// Runs the FP32 teacher (`model` with `weights`) on candidates 0, 1, 2, ...
// and hands each candidate's outputs to `accept` until `needed` candidates
// were accepted.  Candidates are evaluated through infer::RunSamplesParallel
// on `pool` (null = serial) in windows that each cover at least the
// candidates still needed; outputs past the stop point are discarded
// unseen.  Throws CheckError when `max_candidates` run out first.
void LabelWithTeacher(const graph::Graph& model,
                      const infer::WeightStore& weights, std::size_t needed,
                      std::size_t max_candidates,
                      const CandidateInputs& inputs_for,
                      const AcceptCandidate& accept, const ThreadPool* pool);

}  // namespace mlpm::datasets
