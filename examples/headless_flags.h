// headless_cli's flags (paper §4.3): one table whose rows write straight
// into the submission's RunOptions and the fleet's FleetOptions.  Kept out
// of headless_cli.cpp so tests drive the real rows.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "fleet/fleet.h"
#include "harness/run_session.h"

namespace mlpm::cli {

struct HeadlessArgs {
  // threads 0 = hardware concurrency; shard_count 0 = no --fleet.
  HeadlessArgs() {
    run.threads = 0;
    fleet.shard_count = 0;
  }

  std::string chipset = "Core i7-11375H";
  // --task filters the displayed rows; the rules still run every task.
  std::optional<models::TaskType> only_task;
  std::string csv_path;
  std::string log_path;
  // Seed of the --faults plan, kept apart so the two flags commute.
  std::uint64_t fault_seed = soc::FaultPlan{}.seed;
  harness::RunOptions run;
  // Also holds the suite round (fleet.version) of both modes.
  fleet::FleetOptions fleet;
};

// The flag table, its rows bound to `args`.
[[nodiscard]] std::vector<flags::Flag> HeadlessFlags(HeadlessArgs& args);

// Applies `argv` (without the program name) to `args` through
// HeadlessFlags, refuses a submission-only flag (--csv, --log, --task,
// --chipset, --cooldown, --e2e, --lint, --transform, --tile) given with
// --fleet, then resolves a --fleet-mix against the chosen version.
// Returns "" or the one refusal line (flags::Parse).
[[nodiscard]] std::string ParseHeadlessArgs(
    const std::vector<std::string>& argv, HeadlessArgs& args);

}  // namespace mlpm::cli
