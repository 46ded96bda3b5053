// The headless "mobile app" (paper §4.3, App. A): one call runs the whole
// suite under the run rules — the programmatic equivalent of tapping "Go".
#pragma once

#include <string>

#include "harness/run_session.h"

namespace mlpm::harness {

struct AppRunOutput {
  SubmissionResult result;
  std::string report_text;     // the results screen
  std::string checker_text;    // submission-checker verdict
  bool submission_valid = false;
};

// The results screen for `result`: the submission report, plus the per-op
// aggregate tables and process metrics when `options` profiled or traced
// the run.
[[nodiscard]] std::string FormatResultsScreen(const SubmissionResult& result,
                                              const RunOptions& options);

// Runs accuracy + performance for every task on the given chipset and
// validates the outcome with the submission checker.
[[nodiscard]] AppRunOutput RunMobileApp(const soc::ChipsetDesc& chipset,
                                        models::SuiteVersion version,
                                        SuiteBundles& bundles,
                                        const RunOptions& options = {});

}  // namespace mlpm::harness
