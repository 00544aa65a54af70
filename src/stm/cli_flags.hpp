// The shared --stm / --window-free command-line vocabulary.
//
// Every pipeline binary (recorded_soak, online_monitor_demo) speaks the
// same two dimensions: which runtime records, and whether recording is
// windowed or window-free. This helper registers and parses them in ONE
// place so the binaries cannot drift apart — the string forms also mirror
// the optm-soak-v1 JSON fields and the binary log's segment-header
// metadata (log/format.hpp). The version order is not a choice: the
// certificate monitor ranks by the runtimes' stamps (core/version_order.hpp).
#pragma once

#include <memory>
#include <string>

#include "stm/api.hpp"
#include "util/cli.hpp"

namespace optm::stm {

struct RunFlags {
  std::string stm = "tl2";
  bool window_free = false;

  /// The optm-soak-v1 / log-header spelling of the recording mode.
  [[nodiscard]] const char* window_mode() const noexcept {
    return window_free ? "window-free" : "windowed";
  }
};

/// Register --stm and --window-free on `cli` with the given defaults.
void add_run_flags(util::Cli& cli, const RunFlags& defaults = {});

/// Read the two flags back out of a successfully parsed `cli`.
[[nodiscard]] RunFlags parse_run_flags(const util::Cli& cli);

/// make_stm + set_window_free with the standard diagnostics: nullptr
/// (after printing to stderr) for an unknown runtime or a runtime that
/// cannot record window-free.
[[nodiscard]] std::unique_ptr<Stm> make_run_stm(const RunFlags& flags,
                                                std::size_t num_vars);

}  // namespace optm::stm
