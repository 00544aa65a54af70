// SoakDriver at its defaults: a window-free run records stamped reads and
// lets C records drift past each other, and the live monitor must certify
// it. Ranking commits by record position flags such opaque runs
// (not-current-at-commit) on most attempts; the monitor must rank by the
// runtime's stamps.
#include <gtest/gtest.h>

#include <string>

#include "stm/soak_driver.hpp"

namespace optm::stm {
namespace {

TEST(SoakDriver, DefaultsCertifyAWindowFreeTl2Run) {
  SoakOptions options;
  options.run.stm = "tl2";
  options.run.window_free = true;
  options.threads = 2;
  options.target_events = 200'000;
  const SoakResult result = SoakDriver(options).run();

  EXPECT_EQ(result.window_mode, "window-free");
  EXPECT_GE(result.recorded_events, options.target_events);
  EXPECT_TRUE(result.ok())
      << "flagged at " << result.live_violation->pos << " ("
      << core::to_string(result.live_violation->kind)
      << "): " << result.live_violation->reason;
}

}  // namespace
}  // namespace optm::stm
