// The shared --stm / --policy / --window-free command-line vocabulary.
//
// Every pipeline binary (recorded_soak, checker_tool, online_monitor_demo,
// the benchmarks' metadata tables) speaks the same three dimensions:
// which runtime records, which version-order policy certifies, and
// whether recording is windowed or window-free. This helper registers
// and parses them in ONE place so the binaries cannot drift apart —
// the string forms also mirror the optm-soak-v1 JSON fields and the
// binary log's segment-header metadata (log/format.hpp).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/version_order.hpp"
#include "stm/api.hpp"
#include "util/cli.hpp"

namespace optm::stm {

struct RunFlags {
  std::string stm = "tl2";
  core::VersionOrderPolicy policy = core::VersionOrderPolicy::kCommitOrder;
  bool window_free = false;

  /// The optm-soak-v1 / log-header spelling of the recording mode.
  [[nodiscard]] const char* window_mode() const noexcept {
    return window_free ? "window-free" : "windowed";
  }
  [[nodiscard]] const char* policy_name() const noexcept {
    return core::to_string(policy);
  }
};

/// Register --stm, --policy and --window-free on `cli` with the given
/// defaults.
void add_run_flags(util::Cli& cli, const RunFlags& defaults = {});

/// Read the three flags back out of a successfully parsed `cli`.
/// Prints a diagnostic and returns nullopt on an unknown policy name.
[[nodiscard]] std::optional<RunFlags> parse_run_flags(const util::Cli& cli);

/// make_stm + set_window_free with the standard diagnostics: nullptr
/// (after printing to stderr) for an unknown runtime or a runtime that
/// cannot record window-free.
[[nodiscard]] std::unique_ptr<Stm> make_run_stm(const RunFlags& flags,
                                                std::size_t num_vars);

/// Register --log-pipeline=on|off (default on): the durable writer's
/// background segment prep + deferred seal (log::WriterOptions::pipeline).
/// One helper so every log-writing binary spells the knob identically.
void add_log_pipeline_flag(util::Cli& cli);

/// Read --log-pipeline back out. Prints a diagnostic and returns nullopt
/// on anything but "on"/"off".
[[nodiscard]] std::optional<bool> parse_log_pipeline_flag(
    const util::Cli& cli);

}  // namespace optm::stm
