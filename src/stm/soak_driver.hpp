// SoakDriver: the record → drain → verify pipeline as a library.
//
// One call runs the full recorded-mode pipeline that examples/recorded_soak
// used to hand-roll: a multi-threaded random mix recording into the
// sharded Recorder, a verifier thread pumping stamp-contiguous drained
// batches through an EventSink chain (the serial OnlineCertificateMonitor,
// on the pump thread, and optionally any extra sink — e.g.
// log::LogWriterSink for a durable audit trail). The live monitor is the
// one certificate engine; a log written here is re-certified with
// `checker_tool certify-log`. Options in, structured results out; the
// example binaries are thin CLI wrappers over this class.
#pragma once

#include <optional>
#include <string>

#include "core/online.hpp"
#include "stm/cli_flags.hpp"
#include "stm/recorder.hpp"
#include "stm/sink.hpp"

namespace optm::stm {

struct SoakOptions {
  /// Runtime / window mode (the shared CLI vocabulary).
  RunFlags run;
  std::size_t target_events = 1'200'000;
  std::uint32_t threads = 4;
  std::uint32_t vars = 64;
  std::uint32_t ops_per_tx = 4;
  std::uint64_t seed = 20260730;
  bool live_monitor = true;
  /// Tee'd into the drain pipeline next to the live monitor (not owned).
  EventSink* extra_sink = nullptr;
};

struct SoakResult {
  // Echoed run descriptors (the optm-soak-v1 vocabulary).
  std::string stm;
  std::string window_mode;

  std::size_t recorded_events = 0;
  std::size_t live_batches = 0;
  /// Largest batch the pump handed the sink chain, and the cap DrainPump
  /// enforces on it (DrainPump::max_batch_bound()).
  std::size_t live_max_batch = 0;
  std::size_t live_max_batch_bound = 0;
  double live_events_per_sec = 0.0;
  bool live_ok = true;
  std::optional<core::OnlineViolation> live_violation;

  /// False if the extra sink reported a failure (e.g. a log write error).
  bool sink_ok = true;

  [[nodiscard]] bool ok() const noexcept { return live_ok && sink_ok; }
};

class SoakDriver {
 public:
  /// Throws std::invalid_argument for an unknown runtime or a runtime
  /// that cannot record window-free when options.run asks for it.
  explicit SoakDriver(SoakOptions options);

  [[nodiscard]] SoakResult run();

 private:
  SoakOptions options_;
};

}  // namespace optm::stm
