// Streaming opacity monitoring — §5.2's "at each time the history of all
// events issued so far must be opaque", live.
//
//   build/online_monitor_demo --stm=weak
//
// Attaches a recorder to an STM, replays the §2 zombie interleaving, and
// feeds the recorded events one at a time into BOTH online monitors. For
// an opaque STM the stream stays clean; for WeakStm the monitors flag the
// exact read response at which the live transaction's snapshot tore, and
// the certificate's flag is adjudicated against Definition 1.
// Afterwards, the paper's own Figure 1 history is streamed through the
// definitional monitor for comparison, and finally the full recorded-mode
// pipeline runs at scale: a multi-threaded mix records into the sharded
// recorder while a verifier thread drains stamp-contiguous batches into
// the certificate monitor.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/adjudicate.hpp"
#include "core/online.hpp"
#include "core/paper.hpp"
#include "sim/thread_ctx.hpp"
#include "stm/cli_flags.hpp"
#include "stm/factory.hpp"
#include "stm/recorder.hpp"
#include "stm/sink.hpp"
#include "util/cli.hpp"
#include "workload/workloads.hpp"

namespace {

void report(const char* label,
            const std::optional<optm::core::OnlineViolation>& violation,
            const optm::core::History& h) {
  if (!violation) {
    std::printf("%-24s clean (%zu events)\n", label, h.size());
    return;
  }
  std::printf("%-24s VIOLATION at event %zu: %s\n", label, violation->pos,
              violation->reason.c_str());
  std::printf("%-24s   offending event: %s\n", label,
              optm::core::to_string(h[violation->pos]).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  optm::util::Cli cli("online_monitor_demo", "streaming opacity monitors");
  optm::stm::RunFlags defaults;
  defaults.stm = "weak";
  optm::stm::add_run_flags(cli, defaults);
  if (!cli.parse(argc, argv)) return 1;
  const optm::stm::RunFlags flags = optm::stm::parse_run_flags(cli);

  // The §2 interleaving: T1 reads x before, and y after, T2's commit.
  const auto stm = optm::stm::make_run_stm(flags, 2);
  if (stm == nullptr) return 1;
  optm::stm::Recorder recorder(2);
  stm->set_recorder(&recorder);
  {
    optm::sim::ThreadCtx p1(0);
    optm::sim::ThreadCtx p2(1);
    stm->begin(p1);
    std::uint64_t x = 0;
    const bool r1 = stm->read(p1, 0, x);
    stm->begin(p2);
    (void)(stm->write(p2, 0, 1) && stm->write(p2, 1, 2) && stm->commit(p2));
    if (r1) {
      std::uint64_t y = 0;
      if (stm->read(p1, 1, y)) (void)stm->commit(p1);
    }
  }
  const optm::core::History h = recorder.history();
  std::printf("--- recorded run of '%s' (%zu events) ---\n",
              cli.get("stm").c_str(), h.size());

  optm::core::OnlineDefinitionalMonitor definitional(h.model());
  optm::core::OnlineCertificateMonitor certificate(h.model());
  for (const optm::core::Event& e : h.events()) {
    (void)definitional.feed(e);
    (void)certificate.feed(e);
  }
  report("definitional monitor:", definitional.violation(), h);
  report("certificate monitor:", certificate.violation(), h);
  if (certificate.violation()) {
    const auto verdict = optm::core::adjudicate(h, *certificate.violation());
    std::printf("%-24s %s: %s\n", "adjudication:",
                optm::core::to_string(verdict.verdict), verdict.reason.c_str());
  }

  // The paper's Figure 1, streamed: global atomicity and recoverability
  // hold, yet the prefix ending at T2's second read is already non-opaque.
  const optm::core::History h1 = optm::core::paper::fig1_h1();
  std::printf("--- paper Figure 1 (H1, %zu events) ---\n", h1.size());
  optm::core::OnlineDefinitionalMonitor fig1(h1.model());
  for (const optm::core::Event& e : h1.events()) (void)fig1.feed(e);
  report("definitional monitor:", fig1.violation(), h1);

  // The recorded-mode pipeline at scale: record a multi-threaded mix into
  // the sharded recorder while draining batches into the certificate
  // monitor, live.
  std::printf("--- live verified mix (tl2, 4 threads) ---\n");
  const auto live_stm = optm::stm::make_stm("tl2", 32);
  optm::stm::Recorder live_recorder(32);
  live_stm->set_recorder(&live_recorder);
  optm::core::OnlineCertificateMonitor live_monitor(live_recorder.model());
  // The shared drain loop: MonitorSink adapts the monitor to the
  // EventSink interface and DrainPump runs the self-paced poll/drain
  // cadence (same pump the soak driver and the log writer use).
  optm::stm::MonitorSink live_sink(live_monitor);
  optm::stm::DrainPump pump(live_recorder, live_sink);
  std::atomic<bool> done{false};
  optm::stm::DrainPump::Stats pump_stats;
  std::thread verifier([&] { pump_stats = pump.run(done); });
  optm::wl::MixParams mix;
  mix.threads = 4;
  mix.vars = 32;
  mix.txs_per_thread = 2000;
  mix.seed = 7;
  (void)optm::wl::run_random_mix(*live_stm, mix);
  done.store(true, std::memory_order_release);
  verifier.join();
  std::printf("live certificate:        %s (%zu events in %zu batches)\n",
              live_monitor.ok() ? "clean" : "VIOLATION",
              live_monitor.events_fed(), pump_stats.batches);
  return 0;
}
