// Seeded mutation test for the parsers headless_cli runs before anything
// else: its flag table (cli::ParseHeadlessArgs over the real rows) and the
// --fleet-mix spec (fleet::ParseFleetMix, fleet::ResolveMix).  Valid argv
// vectors are mutated with common/rng: tokens dropped, duplicated or
// swapped, values emptied, truncated or replaced by hostile strings (nan,
// inf, -1, huge numbers, non-ASCII bytes), and table flags inserted
// anywhere.  Valid mix specs get the same treatment byte by byte.
//
// Every argv mutant either parses, with every numeric field finite and
// inside its row's range, or is refused with one message that starts with
// a table flag name or names an unknown flag.  Every mix mutant either
// parses to positive finite weights or throws CheckError, and so does its
// resolution against either suite version.  Run under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "fleet/mix.h"
#include "headless_flags.h"

namespace mlpm {
namespace {

constexpr int kMutants = 10000;

// Invocations the repository documents (CI, README, examples/CMakeLists).
const std::vector<std::vector<std::string>>& ValidArgv() {
  static const std::vector<std::vector<std::string>> kValid = {
      {"--performance-only", "--cooldown", "0", "--csv", "baseline.csv"},
      {"--performance-only", "--cooldown", "0", "--journal", "run.mjl",
       "--csv", "interrupted.csv"},
      {"--performance-only", "--cooldown", "0", "--resume", "run.mjl",
       "--csv", "resumed.csv"},
      {"--chipset", "Snapdragon 888", "--accuracy", "--cooldown", "0",
       "--csv", "sd888.csv", "--threads", "4", "--kernel-isa", "scalar"},
      {"--performance-only", "--cooldown", "0", "--trace", "mlpm.trace.json",
       "--profile", "--csv", "results.csv"},
      {"--fleet", "16", "--fleet-queries", "512", "--journal", "fleet.mjl"},
      {"--fleet", "64", "--fleet-qps", "200", "--fleet-slo-ms", "50",
       "--fleet-depth", "8"},
      {"--fleet", "64", "--fleet-mix", "Snapdragon 888:ic:3;Exynos 2100:qa",
       "--fleet-qps", "150", "--fleet-slo-ms", "50", "--fleet-depth", "32",
       "--fleet-workers", "2"},
      {"--chipset", "Dimensity 1100", "--performance-only", "--faults", "0.9",
       "--fault-seed", "7", "--task", "ic", "--lint", "strict", "--tile",
       "auto", "--transform", "--e2e", "--version", "v0.7", "--log",
       "first.log"},
  };
  return kValid;
}

const std::vector<std::string>& ValidMixes() {
  static const std::vector<std::string> kValid = {
      "Snapdragon 888:ic:3;Exynos 2100:qa",
      "Snapdragon 865+:ic:3;Exynos 990:qa:1",
      "Dimensity 1100:od:0.5; Exynos 2100:is:2",
      "Exynos 990:image_classification"};
  return kValid;
}

// Values likely to slip past a lax parser: empty, non-finite, signed,
// past every integer width, blanks, non-ASCII bytes, flag-like tokens.
const std::vector<std::string>& Hostile() {
  static const std::vector<std::string> kHostile = {
      "", "nan", "inf", "-inf", "-1", "0", "-0", "1e400", "1e-400", "0x10",
      " 1", "1 ", "18446744073709551616", "9223372036854775808", "4097",
      "65537", "\xff\xfe", "caf\xc3\xa9", "-", "--", "v2", "all", "auto",
      "off", ":", ";", ";;", "888:ic:0"};
  return kHostile;
}

std::vector<std::string> FlagNames() {
  cli::HeadlessArgs scratch;
  std::vector<std::string> names;
  for (const flags::Flag& f : cli::HeadlessFlags(scratch))
    names.push_back(f.name);
  return names;
}

std::size_t Pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.NextBelow(n));
}

std::vector<std::string> MutateArgv(std::vector<std::string> argv, Rng& rng,
                                    const std::vector<std::string>& names) {
  const std::size_t edits = 1 + Pick(rng, 2);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t n = argv.size();
    switch (rng.NextBelow(6)) {
      case 0:  // drop a token
        if (n > 0) argv.erase(argv.begin() + Pick(rng, n));
        break;
      case 1:  // duplicate a token in place
        if (n > 0) {
          const std::size_t i = Pick(rng, n);
          const std::string copy = argv[i];
          argv.insert(argv.begin() + i, copy);
        }
        break;
      case 2:  // swap two tokens
        if (n > 1) std::swap(argv[Pick(rng, n)], argv[Pick(rng, n)]);
        break;
      case 3: {  // replace a value (a token after a flag) with a hostile one
        std::vector<std::size_t> values;
        for (std::size_t i = 1; i < n; ++i)
          if (argv[i - 1].rfind("--", 0) == 0 && argv[i].rfind("--", 0) != 0)
            values.push_back(i);
        if (!values.empty())
          argv[values[Pick(rng, values.size())]] =
              Hostile()[Pick(rng, Hostile().size())];
        break;
      }
      case 4:  // truncate a token
        if (n > 0) {
          std::string& t = argv[Pick(rng, n)];
          t.resize(Pick(rng, t.size() + 1));
        }
        break;
      default:  // insert a table flag, with a hostile value or none
        argv.insert(argv.begin() + Pick(rng, n + 1),
                    names[Pick(rng, names.size())]);
        if (rng.NextBelow(2) == 0)
          argv.insert(argv.begin() + Pick(rng, argv.size() + 1),
                      Hostile()[Pick(rng, Hostile().size())]);
        break;
    }
  }
  return argv;
}

std::string MutateSpec(std::string s, Rng& rng) {
  const std::size_t edits = 1 + Pick(rng, 3);
  for (std::size_t e = 0; e < edits; ++e) {
    switch (rng.NextBelow(4)) {
      case 0:  // drop a byte
        if (!s.empty()) s.erase(Pick(rng, s.size()), 1);
        break;
      case 1:  // duplicate a byte
        if (!s.empty()) {
          const std::size_t i = Pick(rng, s.size());
          s.insert(i, 1, s[i]);
        }
        break;
      case 2:  // truncate
        s.resize(Pick(rng, s.size() + 1));
        break;
      default:  // insert a hostile string
        s.insert(Pick(rng, s.size() + 1),
                 Hostile()[Pick(rng, Hostile().size())]);
        break;
    }
  }
  return s;
}

// A parsed mutant: every numeric field finite and inside its row's range.
void ExpectInRange(const cli::HeadlessArgs& a, const std::string& where) {
  const harness::RunOptions& r = a.run;
  const fleet::FleetOptions& f = a.fleet;
  const loadgen::TestSettings& s = f.settings;
  EXPECT_TRUE(std::isfinite(r.cooldown_s) && r.cooldown_s >= 0.0) << where;
  EXPECT_TRUE(r.threads >= 0 && r.threads <= 4096) << where;
  EXPECT_TRUE(r.tiling.rows == -1 || r.tiling.rows >= 1) << where;
  for (const std::optional<soc::FaultPlan>* plan :
       {&r.fault_plan, &f.fault_plan}) {
    if (!plan->has_value()) continue;
    for (const soc::FaultSpec& spec : (*plan)->specs)
      EXPECT_TRUE(spec.probability > 0.0 && spec.probability <= 1.0)
          << where;
  }
  EXPECT_EQ(r.fault_plan.has_value(), f.fault_plan.has_value()) << where;
  EXPECT_LE(f.shard_count, 65536u) << where;
  EXPECT_TRUE(std::isfinite(s.server_target_qps) && s.server_target_qps > 0)
      << where;
  EXPECT_TRUE(std::isfinite(s.server_latency_bound.count()) &&
              s.server_latency_bound.count() > 0)
      << where;
  EXPECT_GE(s.server_query_count, 1u) << where;
  EXPECT_LE(f.workers, 4096u) << where;
  for (const fleet::FleetMixEntry& e : f.mix)
    EXPECT_TRUE(std::isfinite(e.weight) && e.weight > 0.0) << where;
}

std::string Join(const std::vector<std::string>& argv) {
  std::string out;
  for (const std::string& t : argv) out += "[" + t + "]";
  return out;
}

TEST(FlagTable, DocumentedInvocationsParse) {
  for (const std::vector<std::string>& argv : ValidArgv()) {
    cli::HeadlessArgs a;
    EXPECT_EQ(cli::ParseHeadlessArgs(argv, a), "") << Join(argv);
    ExpectInRange(a, Join(argv));
  }
}

TEST(FlagTable, RefusesUnknownValuelessAndUnresolvableFlags) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> kCases =
      {{{"--scenario", "server"}, "unknown flag '--scenario'"},
       {{"--fleet", "4", "--csv"}, "--csv: missing value"},
       {{"--chipset", ""}, "--chipset: missing value"},
       {{"--fleet", "4", "--csv", "x.csv", "--log", "y.log"},
        "--csv: not used with --fleet"},
       {{"--tile", "auto", "--fleet", "4"}, "--tile: not used with --fleet"},
       {{"--fleet-mix", "Exynos 2100:qa", "--version", "v0.7"},
        "--fleet-mix: "}};
  for (const auto& [argv, prefix] : kCases) {
    cli::HeadlessArgs a;
    const std::string error = cli::ParseHeadlessArgs(argv, a);
    EXPECT_EQ(error.rfind(prefix, 0), 0u) << Join(argv) << " -> " << error;
  }
}

TEST(FlagTable, MutatedArgvParsesInRangeOrNamesTheFlag) {
  const std::vector<std::string> names = FlagNames();
  Rng rng(0xF1A6);
  std::size_t parsed = 0;
  std::size_t refused = 0;
  for (int m = 0; m < kMutants; ++m) {
    const std::vector<std::string>& base =
        ValidArgv()[Pick(rng, ValidArgv().size())];
    const std::vector<std::string> argv = MutateArgv(base, rng, names);
    cli::HeadlessArgs a;
    const std::string error = cli::ParseHeadlessArgs(argv, a);
    if (error.empty()) {
      ++parsed;
      ExpectInRange(a, Join(argv));
      continue;
    }
    ++refused;
    bool named = error.rfind("unknown flag '", 0) == 0;
    for (const std::string& name : names)
      named = named || error.rfind(name + ": ", 0) == 0;
    EXPECT_TRUE(named) << Join(argv) << " -> " << error;
  }
  // Both outcomes must be exercised, or the mutation rates are off.
  EXPECT_GT(parsed, kMutants / 20u);
  EXPECT_GT(refused, kMutants / 20u);
}

TEST(FlagTable, MutatedFleetMixParsesOrThrowsCheckError) {
  Rng rng(0x313C);
  std::size_t parsed = 0;
  for (int m = 0; m < kMutants; ++m) {
    const std::string spec =
        MutateSpec(ValidMixes()[Pick(rng, ValidMixes().size())], rng);
    std::vector<fleet::FleetMixEntry> mix;
    try {
      mix = fleet::ParseFleetMix(spec);
    } catch (const CheckError&) {
      continue;
    }
    ++parsed;
    ASSERT_FALSE(mix.empty()) << spec;
    for (const fleet::FleetMixEntry& e : mix) {
      EXPECT_TRUE(std::isfinite(e.weight) && e.weight > 0.0) << spec;
      EXPECT_FALSE(e.chipset.empty() || e.task_id.empty()) << spec;
    }
    for (const models::SuiteVersion v :
         {models::SuiteVersion::kV0_7, models::SuiteVersion::kV1_0}) {
      try {
        (void)fleet::ResolveMix(mix, v);
      } catch (const CheckError&) {
      }
    }
  }
  EXPECT_GT(parsed, kMutants / 10u);
}

}  // namespace
}  // namespace mlpm
