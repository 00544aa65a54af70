#include "stm/cli_flags.hpp"

#include <cstdio>
#include <stdexcept>

#include "stm/factory.hpp"

namespace optm::stm {

void add_run_flags(util::Cli& cli, const RunFlags& defaults) {
  cli.flag("stm", defaults.stm,
           "runtime: tl2|tiny|norec|dstm|astm|visible|mv|...");
  cli.flag("window-free", defaults.window_free ? "true" : "false",
           "record without sampling windows (stamped reads)");
}

RunFlags parse_run_flags(const util::Cli& cli) {
  RunFlags flags;
  flags.stm = cli.get("stm");
  flags.window_free = cli.get_bool("window-free");
  return flags;
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
