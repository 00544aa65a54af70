#include "stm/cli_flags.hpp"

#include <cstdio>
#include <stdexcept>

#include "stm/factory.hpp"

namespace optm::stm {

void add_run_flags(util::Cli& cli, const RunFlags& defaults) {
  cli.flag("stm", defaults.stm,
           "runtime: tl2|tiny|norec|dstm|astm|visible|mv|...");
  cli.flag("policy", core::to_string(defaults.policy),
           "version-order policy: commit-order|blind-write-smart|"
           "snapshot-rank|stamped-read");
  cli.flag("window-free", defaults.window_free ? "true" : "false",
           "record without sampling windows (stamped reads)");
}

std::optional<RunFlags> parse_run_flags(const util::Cli& cli) {
  RunFlags flags;
  flags.stm = cli.get("stm");
  flags.window_free = cli.get_bool("window-free");
  const auto policy = core::parse_version_order_policy(cli.get("policy"));
  if (!policy) {
    std::fprintf(stderr,
                 "unknown policy '%s' (expected commit-order, "
                 "blind-write-smart, snapshot-rank or stamped-read)\n",
                 cli.get("policy").c_str());
    return std::nullopt;
  }
  flags.policy = *policy;
  return flags;
}

void add_log_pipeline_flag(util::Cli& cli) {
  cli.flag("log-pipeline", "on",
           "durable-log segment pipelining: on = background segment prep "
           "+ deferred seal, off = fully synchronous writer (byte-identical "
           "output either way)");
}

std::optional<bool> parse_log_pipeline_flag(const util::Cli& cli) {
  const std::string value = cli.get("log-pipeline");
  if (value == "on") return true;
  if (value == "off") return false;
  std::fprintf(stderr, "--log-pipeline must be 'on' or 'off' (got '%s')\n",
               value.c_str());
  return std::nullopt;
}

std::unique_ptr<Stm> make_run_stm(const RunFlags& flags, std::size_t num_vars) {
  std::unique_ptr<Stm> stm;
  try {
    stm = make_stm(flags.stm, num_vars);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "unknown stm '%s': %s\n", flags.stm.c_str(), e.what());
    return nullptr;
  }
  if (flags.window_free && !stm->set_window_free(true)) {
    std::fprintf(stderr, "stm '%s' does not support window-free recording\n",
                 flags.stm.c_str());
    return nullptr;
  }
  return stm;
}

}  // namespace optm::stm
