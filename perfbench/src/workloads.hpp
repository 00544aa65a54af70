// The three benchmark workloads (see perfbench/README.md for why each
// exists) and the weak-runtime negative control.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Timed seconds per run; set-up time comes on top.
  double seconds = 10;
  /// Traced runs report the per-layer metrics instead of the end-to-end
  /// ones.
  bool trace = false;
  /// Scratch directory for log segments (each round removes its own).
  std::string tmp_dir;
  /// Traced runs write every span here, one JSON object per line.
  std::string trace_out;
  std::string git_sha = "unknown";
  unsigned nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::size_t attempted = 0;  // verdicts asked for (rounds or passes)
  std::size_t failed = 0;     // of those, not certified or counts disagree
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> provenance;
};

/// Runs `options.workload`: live_saturated, durable_paced or certify_log.
/// Throws std::invalid_argument for any other name.
[[nodiscard]] Report run_workload(const Options& options);

/// The live harness over the non-opaque `weak` runtime. True when the
/// monitor flagged a round (the check is live); `detail` says why.
[[nodiscard]] bool run_negative_control(const Options& options,
                                        std::string& detail);

/// Wall-clock deadline of the round in flight (steady-clock ns, 0 = none).
/// The watchdog in main.cpp fails the run once it passes.
extern std::atomic<std::int64_t> g_round_deadline_ns;

}  // namespace perfbench
