#include "stm/soak_driver.hpp"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "stm/factory.hpp"
#include "workload/workloads.hpp"

namespace optm::stm {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double events_per_sec(std::size_t events, Clock::time_point t0,
                                    Clock::time_point t1) {
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  return secs > 0 ? static_cast<double>(events) / secs : 0.0;
}

}  // namespace

SoakDriver::SoakDriver(SoakOptions options) : options_(std::move(options)) {}

SoakResult SoakDriver::run() {
  const SoakOptions& o = options_;
  auto stm = make_stm(o.run.stm, o.vars);  // throws on an unknown name
  if (o.run.window_free && !stm->set_window_free(true)) {
    throw std::invalid_argument(o.run.stm +
                                " does not support window-free recording "
                                "(use tl2, tiny, norec, dstm, astm or mv)");
  }
  Recorder recorder(o.vars);
  stm->set_recorder(&recorder);

  // ~2 events per op (inv+ret) plus lifecycle events per transaction;
  // sized low (aborted transactions record fewer events) so the run
  // clears the target rather than undershooting it.
  const std::uint64_t events_per_tx = 2ull * o.ops_per_tx;
  wl::MixParams mix;
  mix.threads = o.threads;
  mix.vars = o.vars;
  mix.ops_per_tx = o.ops_per_tx;
  mix.seed = o.seed;
  mix.txs_per_thread =
      o.target_events / (static_cast<std::uint64_t>(o.threads) * events_per_tx) +
      1;

  SoakResult result;
  result.stm = o.run.stm;
  result.window_mode = stm->window_free() ? "window-free" : "windowed";
  result.policy = o.run.policy;

  // The sink chain: the live certificate monitor and/or the caller's
  // extra sink (a log writer, usually), fanned out by a tee when both are
  // present.
  core::OnlineCertificateMonitor monitor(recorder.model(), o.run.policy);
  if (o.live_monitor) {
    // Versions are one per write response: ~a quarter of the events at
    // the mix's default write ratio (the table grows geometrically past
    // it).
    monitor.reserve(mix.txs_per_thread * o.threads + 16,
                    o.target_events / 3 + o.vars + 16);
  }
  MonitorSink monitor_sink(monitor);
  NullSink null_sink;
  TeeSink tee;
  EventSink* sink = &null_sink;
  if (o.live_monitor && o.extra_sink != nullptr) {
    tee.add(&monitor_sink).add(o.extra_sink);
    sink = &tee;
  } else if (o.live_monitor) {
    sink = &monitor_sink;
  } else if (o.extra_sink != nullptr) {
    sink = o.extra_sink;
  }

  // Record + drain: the producers run the mix while one verifier thread
  // pumps drained batches into the sink chain.
  std::atomic<bool> done{false};
  DrainPump pump(recorder, *sink);
  DrainPump::Stats pump_stats;
  const auto record_t0 = Clock::now();
  std::thread verifier([&] { pump_stats = pump.run(done); });
  (void)wl::run_random_mix(*stm, mix);
  done.store(true, std::memory_order_release);
  verifier.join();
  const auto record_t1 = Clock::now();

  result.recorded_events = recorder.num_events();
  result.live_batches = pump_stats.batches;
  result.live_max_batch = pump_stats.max_batch;
  result.live_max_batch_bound = pump.max_batch_bound();
  result.live_events_per_sec =
      events_per_sec(result.recorded_events, record_t0, record_t1);
  result.sink_ok = pump_stats.sink_ok;
  if (o.live_monitor) {
    result.live_ok = monitor.ok();
    result.live_violation = monitor.violation();
  }

  return result;
}

}  // namespace optm::stm
