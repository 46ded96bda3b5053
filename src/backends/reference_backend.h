// The functional reference backend: runs mini-scale models numerically on
// the host CPU through the reference executor.  This is the repo's analogue
// of the paper's poorly-optimized reference TFLite backend (§3.3/§4.1) and
// is what accuracy mode runs against (model outputs are real tensors the
// data set can score).
//
// It serves accuracy mode only.  IssueQuery queues each sample and
// FlushQueries evaluates the whole set through infer::RunSamplesParallel,
// fanned out over the pool's threads (inline with a null pool); responses
// complete sequentially in issue order, so accuracy results are
// bit-identical for any lane count.  Performance mode's virtual-clock
// latency accounting needs completion inside IssueQuery, which this
// backend never does.
#pragma once

#include <string>
#include <vector>

#include "core/dataset_qsl.h"
#include "core/query.h"
#include "infer/executor.h"

namespace mlpm {
class ThreadPool;
}

namespace mlpm::backends {

class ReferenceBackend final : public loadgen::SystemUnderTest {
 public:
  // `executor` runs the model at the submission's numerics; `qsl` stages
  // the inputs.  Both must outlive the backend, as must `pool` (optional).
  ReferenceBackend(std::string name, const infer::Executor& executor,
                   const loadgen::DatasetQsl& qsl,
                   const ThreadPool* pool = nullptr);

  [[nodiscard]] std::string_view name() const override { return name_; }
  void IssueQuery(std::span<const loadgen::QuerySample> samples,
                  loadgen::ResponseSink& sink) override;
  void FlushQueries() override;

 private:
  std::string name_;
  const infer::Executor& executor_;
  const loadgen::DatasetQsl& qsl_;
  const ThreadPool* pool_;
  // Samples queued by IssueQuery, completed in batch by FlushQueries.
  std::vector<loadgen::QuerySample> pending_;
  loadgen::ResponseSink* sink_ = nullptr;
};

}  // namespace mlpm::backends
