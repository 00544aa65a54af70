// The live drain cadence: DrainPump drains on one fixed, clock-free rule
// (DrainPump::drain_due) — once kMinBatch events are pending, or when a
// pending tail has seen no new stamp for kQuietPolls polls. Verdict
// latency — events between a violation being RECORDED and the monitor
// LATCHING it — stays under max_pending for a sink that keeps up, and a
// quiet recorder's tail is never stranded.
//
// The rule's units are recorder stamps and polls, so most properties here
// are deterministic: the quiet-poll flush, the end-to-end
// detection-latency bound through a real Recorder -> drain ->
// OnlineCertificateMonitor pipeline, and the batch buffer's steady state.
// One threaded case checks that a running DrainPump delivers a short tail
// while the producers are still live.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>

#include "core/online.hpp"
#include "stm/recorder.hpp"
#include "stm/sink.hpp"

namespace optm::stm {
namespace {

TEST(DrainRule, IdlePollsFlushPendingTail) {
  // A few events (below kMinBatch) arrive, then the lanes go quiet: the
  // tail is flushed within kQuietPolls polls.
  constexpr std::uint64_t kTail = 5;
  static_assert(kTail < DrainPump::kMinBatch);
  ASSERT_FALSE(DrainPump::drain_due(kTail, 0));
  std::uint32_t quiet = 0;
  while (quiet <= 10 && !DrainPump::drain_due(kTail, quiet)) ++quiet;
  EXPECT_TRUE(DrainPump::drain_due(kTail, quiet));
  EXPECT_LE(quiet, DrainPump::kQuietPolls);

  // Nothing pending -> never drain, however long it stays quiet.
  for (std::uint32_t q = 0; q < 100; ++q) {
    EXPECT_FALSE(DrainPump::drain_due(0, q));
  }
  // kMinBatch pending is due at once, quiet or not.
  EXPECT_TRUE(DrainPump::drain_due(DrainPump::kMinBatch, 0));
}

// ---------------------------------------------------------------------------
// End-to-end: recorder -> drain rule -> monitor, violation latency
// ---------------------------------------------------------------------------

/// Push one committed write transaction (inv, ret, tryC, C = 5 stamps).
void push_writer(Recorder& rec, VarId var, core::Value value) {
  const core::TxId tx = rec.begin_tx();
  rec.on_inv(0, tx, var, core::OpCode::kWrite, value);
  rec.on_ret(0, tx, var, core::OpCode::kWrite, value, core::kOk);
  rec.on_try_commit(0, tx);
  rec.on_commit(0, tx);
}

/// Push a transaction whose read returns a value nobody ever wrote — the
/// certificate flags it (kUnwrittenValue) the moment it is ingested.
void push_poisoned_reader(Recorder& rec, VarId var) {
  const core::TxId tx = rec.begin_tx();
  rec.on_inv(0, tx, var, core::OpCode::kRead, 0);
  rec.on_ret(0, tx, var, core::OpCode::kRead, 0, core::Value{987654321});
}

/// One poll of DrainPump's loop, driven by hand: track quiet polls, drain
/// (capped at `max_pending`) when the rule says so, and feed the monitor.
struct ManualPump {
  Recorder* recorder;
  core::OnlineCertificateMonitor* monitor;
  std::size_t max_pending;
  EventBatch batch;
  std::uint64_t last_issued = 0;
  std::uint32_t quiet_polls = 0;

  void poll() {
    const std::uint64_t issued = recorder->stamps_issued();
    quiet_polls = issued == last_issued ? quiet_polls + 1 : 0;
    last_issued = issued;
    if (!DrainPump::drain_due(recorder->approx_pending(), quiet_polls)) {
      return;
    }
    quiet_polls = 0;
    batch.clear();
    if (recorder->drain(batch, max_pending) > 0) {
      (void)monitor->ingest(batch.span());
    }
  }
};

TEST(DrainPipeline, ViolationDetectionLatencyStaysUnderBound) {
  Recorder recorder(8);
  core::OnlineCertificateMonitor monitor(recorder.model());
  constexpr std::size_t kMaxPending = 512;  // the verdict-latency bound
  ManualPump pump{&recorder, &monitor, kMaxPending, {}};

  constexpr std::size_t kTxsPerPoll = 3;  // 15 stamps between polls
  constexpr std::size_t kStampsPerPoll = kTxsPerPoll * 5;

  std::uint64_t violation_stamp = 0;
  std::uint64_t detected_at = 0;
  core::Value next = 1;
  for (std::size_t poll = 0; poll < 400 && detected_at == 0; ++poll) {
    for (std::size_t t = 0; t < kTxsPerPoll; ++t) {
      push_writer(recorder, static_cast<VarId>(t % 8), next++);
    }
    if (poll == 250) {
      push_poisoned_reader(recorder, 0);
      violation_stamp = recorder.stamps_issued();
    }
    pump.poll();
    if (!monitor.ok()) detected_at = recorder.stamps_issued();
  }
  // Quiescent tail: the quiet-poll flush must deliver the violation even
  // if the loop above never crossed the threshold again.
  for (int i = 0; i < 20 && detected_at == 0; ++i) {
    pump.poll();
    if (!monitor.ok()) detected_at = recorder.stamps_issued();
  }

  ASSERT_FALSE(monitor.ok()) << "the poisoned read was never flagged";
  EXPECT_EQ(monitor.violation()->kind, core::CertFlagKind::kUnwrittenValue);
  ASSERT_NE(violation_stamp, 0u);
  ASSERT_NE(detected_at, 0u);
  // Verdict latency in events: everything issued after the violation
  // until the drain that delivered it. Bounded by max_pending plus one
  // poll's worth of slack.
  EXPECT_LE(detected_at - violation_stamp, kMaxPending + kStampsPerPoll)
      << "verdict latency exceeded the configured bound";
}

/// Counts what the sink has seen; readable from another thread.
class CountingSink final : public EventSink {
 public:
  bool accept(std::span<const core::Event> batch) override {
    events_.fetch_add(batch.size(), std::memory_order_release);
    return true;
  }
  [[nodiscard]] std::size_t events() const noexcept {
    return events_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::size_t> events_{0};
};

TEST(DrainPipeline, RunningPumpFlushesAShortTailBeforeDone) {
  // One write transaction's 5 events are a tail below kMinBatch, and the
  // producers do not finish: only the quiet-poll flush can hand it to the
  // sink.
  Recorder recorder(4);
  CountingSink sink;
  DrainPump pump(recorder, sink);
  std::atomic<bool> done{false};
  DrainPump::Stats stats;
  std::thread verifier([&] { stats = pump.run(done); });

  push_writer(recorder, 0, 1);
  const std::uint64_t tail = recorder.stamps_issued();
  EXPECT_LT(tail, DrainPump::kMinBatch);  // no ASSERT: the pump must be joined

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (sink.events() < tail && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::size_t seen_before_done = sink.events();
  done.store(true, std::memory_order_release);
  verifier.join();

  EXPECT_EQ(seen_before_done, tail)
      << "the quiet tail did not reach the sink within 1 s";
  EXPECT_TRUE(stats.sink_ok);
  EXPECT_EQ(stats.events, tail);
}

TEST(DrainPipeline, BatchCapacityStabilizesAcrossDrains) {
  Recorder recorder(4);
  EventBatch batch;
  core::Value next = 1;
  std::size_t high_water = 0;
  for (int round = 0; round < 50; ++round) {
    for (int t = 0; t < 40; ++t) {
      push_writer(recorder, static_cast<VarId>(t % 4), next++);
    }
    batch.clear();
    (void)recorder.drain(batch);
    if (round == 25) high_water = batch.capacity();
  }
  // Steady state: the reusable buffer stopped growing long ago.
  EXPECT_EQ(batch.capacity(), high_water);
}

}  // namespace
}  // namespace optm::stm
