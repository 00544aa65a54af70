// The sharded recorder must be observationally identical to the original
// single-mutex recorder: on a deterministic schedule both engines
// reconstruct the same core::History and the same certificate ≪, and on
// concurrent schedules the sharded engine's stamp-merged linearization
// must pass the same checks the mutex engine's histories always passed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/online.hpp"
#include "core/opacity_graph.hpp"
#include "core/parallel_verify.hpp"
#include "sim/thread_ctx.hpp"
#include "stm/factory.hpp"
#include "stm/recorder.hpp"
#include "stm/sink.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace optm::stm {
namespace {

/// Drive the same deterministic two-process interleaving against `stm`
/// (T1 reads x, T2 commits x:=1 y:=2, T1 reads y, T1 tries to commit).
void drive_interleaved(Stm& stm) {
  sim::ThreadCtx p1(0);
  sim::ThreadCtx p2(1);
  stm.begin(p1);
  std::uint64_t x = 0;
  const bool r1 = stm.read(p1, 0, x);
  stm.begin(p2);
  (void)(stm.write(p2, 0, 1) && stm.write(p2, 1, 2) && stm.commit(p2));
  if (r1) {
    std::uint64_t y = 0;
    if (stm.read(p1, 1, y)) (void)stm.commit(p1);
  }
}

class RecorderEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(RecorderEquivalence, DeterministicScheduleSameLinearization) {
  const auto mutex_stm = make_stm(GetParam(), 4);
  MutexRecorder mutex_recorder(4);
  mutex_stm->set_recorder(&mutex_recorder);
  drive_interleaved(*mutex_stm);

  const auto sharded_stm = make_stm(GetParam(), 4);
  Recorder sharded_recorder(4);
  sharded_stm->set_recorder(&sharded_recorder);
  drive_interleaved(*sharded_stm);

  const core::History a = mutex_recorder.history();
  const core::History b = sharded_recorder.history();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "event " << i << ": " << core::to_string(a[i])
                          << " vs " << core::to_string(b[i]);
    // Event::operator== already covers these, but the stamp fields are
    // what the window-free certificate lives on — compare them explicitly
    // so a regression names the field, not just the event.
    EXPECT_EQ(a[i].stamp, b[i].stamp) << "event " << i;
    EXPECT_EQ(a[i].ver, b[i].ver) << "event " << i;
  }
  EXPECT_EQ(mutex_recorder.certificate_order(),
            sharded_recorder.certificate_order());
  EXPECT_EQ(mutex_recorder.num_events(), sharded_recorder.num_events());
}

INSTANTIATE_TEST_SUITE_P(Stms, RecorderEquivalence,
                         ::testing::Values("tl2", "tiny", "norec", "dstm",
                                           "astm", "visible", "mv"));

// Window-free mutex-vs-sharded equivalence, fuzzed over seeds: with no
// window taken at all, both engines must still record the same events with
// the same read-stamp pairs on a deterministic schedule — and the sharded
// drain() must carry the stamp fields through unchanged (the regression
// guard for Event gaining fields the drain path might forget).
class WindowFreeRecorderFuzz : public ::testing::TestWithParam<std::string> {};

TEST_P(WindowFreeRecorderFuzz, MutexAndShardedAgreeIncludingStamps) {
  std::size_t stamped_reads = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto mutex_stm = make_stm(GetParam(), 6);
    ASSERT_TRUE(mutex_stm->set_window_free(true));
    MutexRecorder mutex_recorder(6);
    mutex_stm->set_recorder(&mutex_recorder);

    const auto sharded_stm = make_stm(GetParam(), 6);
    ASSERT_TRUE(sharded_stm->set_window_free(true));
    Recorder sharded_recorder(6);
    sharded_stm->set_recorder(&sharded_recorder);

    // One logical process, seeded op mix — deterministic, so both engines
    // see the identical schedule.
    for (auto* stm : {static_cast<Stm*>(mutex_stm.get()),
                      static_cast<Stm*>(sharded_stm.get())}) {
      sim::ThreadCtx ctx(0);
      util::Xoshiro256 rng(seed);
      for (int t = 0; t < 6; ++t) {
        stm->begin(ctx);
        bool doomed = false;
        const auto ops = 1 + rng.below(3);
        for (std::uint64_t op = 0; op < ops && !doomed; ++op) {
          const auto var = static_cast<VarId>(rng.below(6));
          if (rng.chance(0.5)) {
            doomed = !stm->write(ctx, var, (seed << 20) | (t << 8) | (op + 1));
          } else {
            std::uint64_t v = 0;
            doomed = !stm->read(ctx, var, v);
          }
        }
        if (!doomed) (void)stm->commit(ctx);
      }
    }

    const core::History a = mutex_recorder.history();

    // Drain path (what live verification consumes), not history(): the
    // stamp fields must survive the chunked-lane copy and the k-way merge.
    EventBatch drained;
    while (sharded_recorder.drain(drained) > 0) {
    }
    ASSERT_EQ(a.size(), drained.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], drained[i]) << "seed " << seed << " event " << i;
      EXPECT_EQ(a[i].stamp, drained[i].stamp) << "seed " << seed << " event " << i;
      EXPECT_EQ(a[i].ver, drained[i].ver) << "seed " << seed << " event " << i;
      if (a[i].kind == core::EventKind::kResponse &&
          a[i].op == core::OpCode::kRead && a[i].stamp != 0) {
        ++stamped_reads;
        EXPECT_EQ(a[i].stamp % 2, 1u) << "read stamps are snapshots (2rv+1)";
      }
    }
    // The window-free drained stream certifies under the stamped policy.
    core::OnlineCertificateMonitor monitor(
        sharded_recorder.model(), core::VersionOrderPolicy::kStampedRead);
    EXPECT_TRUE(monitor.ingest(drained)) << "seed " << seed << ": "
                                         << monitor.violation()->reason;
  }
  // The fuzzed schedules must actually exercise stamped reads for the
  // field comparison to mean anything.
  EXPECT_GT(stamped_reads, 0u);
}

INSTANTIATE_TEST_SUITE_P(Stms, WindowFreeRecorderFuzz,
                         ::testing::Values("tl2", "tiny", "norec", "dstm",
                                           "astm", "mv"));

class ShardedRecorderConcurrent : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedRecorderConcurrent, StampMergeIsALegalLinearization) {
  const auto stm = make_stm(GetParam(), 8);
  Recorder recorder(8);
  stm->set_recorder(&recorder);

  wl::MixParams params;
  params.threads = 4;
  params.vars = 8;
  params.txs_per_thread = 100;
  params.seed = 99;
  (void)wl::run_random_mix(*stm, params);

  const core::History h = recorder.history();
  ASSERT_EQ(h.size(), recorder.num_events());
  std::string why;
  EXPECT_TRUE(h.well_formed(&why)) << why;

  // The merged linearization must stream cleanly through the certificate
  // monitor — the Theorem-2 soundness of the window discipline.
  core::OnlineCertificateMonitor monitor(h.model());
  EXPECT_TRUE(monitor.ingest(h.events()));
  EXPECT_FALSE(monitor.violation().has_value())
      << monitor.violation()->reason << " at event "
      << monitor.violation()->pos;

  // ... and the recorded ≪ must verify as an opacity certificate.
  EXPECT_TRUE(core::verify_opacity_certificate(h, recorder.certificate_order(),
                                               {}, &why))
      << why;

  // The sharded offline driver must agree with the streaming monitor on
  // this genuinely concurrent recording (differential check of the whole
  // record-merge-verify pipeline).
  core::ShardVerifyOptions options;
  options.num_shards = 4;
  options.num_threads = 2;
  const auto offline = core::verify_history_sharded(h, options);
  EXPECT_TRUE(offline.certified)
      << offline.violation->reason << " at event " << offline.violation->pos;
}

INSTANTIATE_TEST_SUITE_P(Stms, ShardedRecorderConcurrent,
                         ::testing::Values("tl2", "tiny", "norec", "visible",
                                           "mv"));

TEST(ShardedRecorder, DrainReconstructsHistoryIncrementally) {
  const auto stm = make_stm("tl2", 8);
  Recorder recorder(8);
  stm->set_recorder(&recorder);

  wl::MixParams params;
  params.threads = 3;
  params.vars = 8;
  params.txs_per_thread = 60;
  params.seed = 7;
  (void)wl::run_random_mix(*stm, params);

  // Quiescent now: repeated drains must hand out the full linearization in
  // order, and agree with history() exactly.
  EventBatch drained;
  while (recorder.drain(drained) > 0) {
  }
  const core::History h = recorder.history();
  ASSERT_EQ(drained.size(), h.size());
  for (std::size_t i = 0; i < h.size(); ++i) EXPECT_EQ(drained[i], h[i]);
  // Nothing left.
  EXPECT_EQ(recorder.drain(drained), 0u);
}

TEST(ShardedRecorder, DrainWhileRecordingYieldsCompletePrefixes) {
  const auto stm = make_stm("norec", 8);
  Recorder recorder(8);
  stm->set_recorder(&recorder);

  wl::MixParams params;
  params.threads = 3;
  params.vars = 8;
  params.txs_per_thread = 300;
  params.seed = 21;

  EventBatch drained;
  core::OnlineCertificateMonitor live(recorder.model());
  std::thread worker([&] { (void)wl::run_random_mix(*stm, params); });
  // Live pipeline: drain stamp-contiguous batches while the workload runs
  // and feed them straight into the monitor.
  for (int spin = 0; spin < 10000; ++spin) {
    const std::size_t before = drained.size();
    (void)recorder.drain(drained);
    (void)live.ingest(drained.span().subspan(before));
  }
  worker.join();
  const std::size_t before = drained.size();
  while (recorder.drain(drained) > 0) {
  }
  (void)live.ingest(drained.span().subspan(before));

  const core::History h = recorder.history();
  ASSERT_EQ(drained.size(), h.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    ASSERT_EQ(drained[i], h[i]) << "drain diverged at event " << i;
  }
  EXPECT_TRUE(live.ok()) << live.violation()->reason;
  EXPECT_EQ(live.events_fed(), h.size());
}

TEST(ShardedRecorder, WindowFreeDrainWhileRecordingCertifiesStamped) {
  // The live pipeline with NO window lock at all: concurrent recording
  // threads, a drainer feeding the kStampedRead monitor mid-run. Records
  // may genuinely drift here; the stamps must carry the certificate.
  const auto stm = make_stm("tl2", 8);
  ASSERT_TRUE(stm->set_window_free(true));
  Recorder recorder(8);
  stm->set_recorder(&recorder);

  wl::MixParams params;
  params.threads = 3;
  params.vars = 8;
  params.txs_per_thread = 300;
  params.seed = 77;

  EventBatch drained;
  core::OnlineCertificateMonitor live(recorder.model(),
                                      core::VersionOrderPolicy::kStampedRead);
  std::thread worker([&] { (void)wl::run_random_mix(*stm, params); });
  for (int spin = 0; spin < 10000; ++spin) {
    const std::size_t before = drained.size();
    (void)recorder.drain(drained);
    (void)live.ingest(drained.span().subspan(before));
  }
  worker.join();
  const std::size_t before = drained.size();
  while (recorder.drain(drained) > 0) {
  }
  (void)live.ingest(drained.span().subspan(before));

  EXPECT_TRUE(live.ok()) << live.violation()->reason << " at event "
                         << live.violation()->pos;
  EXPECT_EQ(live.events_fed(), recorder.num_events());
}

// --- batch stamping (Recorder::Options::stamp_batch) -------------------------

TEST(BatchStamping, AmortizesTicketsAndDrainsIdentically) {
  // The same deterministic single-thread schedule recorded per-event and
  // at batch grain 8: the drained streams must be byte-equal (batching
  // changes how many clock tickets are drawn, never what is recorded or
  // in which order), and the batch engine must have drawn strictly fewer
  // tickets than events.
  auto drive = [](Recorder& recorder) {
    const auto stm = make_stm("tl2", 6);
    ASSERT_TRUE(stm->set_window_free(true));
    stm->set_recorder(&recorder);
    sim::ThreadCtx ctx(0);
    util::Xoshiro256 rng(17);
    for (int t = 0; t < 40; ++t) {
      stm->begin(ctx);
      bool doomed = false;
      const auto ops = 1 + rng.below(4);
      for (std::uint64_t op = 0; op < ops && !doomed; ++op) {
        const auto var = static_cast<VarId>(rng.below(6));
        if (rng.chance(0.5)) {
          doomed = !stm->write(ctx, var, (t << 8) | (op + 1));
        } else {
          std::uint64_t v = 0;
          doomed = !stm->read(ctx, var, v);
        }
      }
      if (!doomed) (void)stm->commit(ctx);
    }
  };

  Recorder per_event(6);
  drive(per_event);
  Recorder batched(6, Recorder::Options{8});
  drive(batched);
  ASSERT_EQ(batched.stamp_batch(), 8u);

  EventBatch a;
  while (per_event.drain(a) > 0) {
  }
  EventBatch b;
  while (batched.drain(b) > 0) {
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "batch stamping diverged at event " << i << ": "
                          << core::to_string(a[i]) << " vs "
                          << core::to_string(b[i]);
  }

  // Per-event mode: one ticket per event, exactly. Batch mode: strictly
  // fewer (a single-thread schedule extends nearly every batch).
  EXPECT_EQ(per_event.tickets_issued(), per_event.num_events());
  EXPECT_LT(batched.tickets_issued(), batched.num_events());
  EXPECT_EQ(per_event.stamps_issued(), per_event.num_events());

  // stamps_issued() lags an OPEN batch (event-unit accounting counts a
  // batch when it closes); the owner's flush settles it.
  batched.flush_lane(0);
  EXPECT_EQ(batched.stamps_issued(), batched.num_events());
}

TEST(BatchStamping, OpenBatchGatesDrainUntilFlushed) {
  // Hand-driven pushes, exercising the drain-side gate: an open batch's
  // published prefix is emitted, but the merge parks on its ticket until
  // the batch closes — and retires the parked ticket on the next drain
  // (the earlier-drain stall must not wedge the merge forever).
  Recorder recorder(4, Recorder::Options{4});
  recorder.on_inv(0, 1, 0, core::OpCode::kRead, 0);
  recorder.on_inv(0, 1, 1, core::OpCode::kRead, 0);

  // Lane 0's batch (ticket 0) is open: both events drain (partial
  // emission keeps approx_pending honest), but ticket 0 stays parked.
  EventBatch out;
  EXPECT_EQ(recorder.drain(out), 2u);
  EXPECT_EQ(recorder.approx_pending(), 0u);
  EXPECT_EQ(recorder.tickets_issued(), 1u);

  // Lane 1 draws ticket 1; it cannot pass the parked open ticket 0.
  recorder.on_inv(1, 2, 0, core::OpCode::kRead, 0);
  EXPECT_EQ(recorder.drain(out), 0u);
  EXPECT_EQ(recorder.approx_pending(), 1u);

  // Closing lane 0's batch releases the merge; lane 1's event drains.
  recorder.flush_lane(0);
  EXPECT_EQ(recorder.drain(out), 1u);
  EXPECT_EQ(recorder.approx_pending(), 0u);
  ASSERT_EQ(out.size(), 3u);

  // A serial record (commit) closes its lane's batch at birth: no flush
  // needed for the merge to pass it.
  recorder.on_ret(1, 2, 0, core::OpCode::kRead, 0, 0);
  recorder.on_commit(1, 2, /*stamp=*/2);
  EXPECT_EQ(recorder.drain(out), 2u);
  EXPECT_EQ(recorder.approx_pending(), 0u);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(out[4].kind, core::EventKind::kCommit);

  // history() (the collect path) agrees with the drained order.
  const core::History h = recorder.history();
  ASSERT_EQ(h.size(), out.size());
  for (std::size_t i = 0; i < h.size(); ++i) EXPECT_EQ(h[i], out[i]);
}

TEST(BatchStamping, BatchOfOneIsPerEventMode) {
  // Options{1} must take the untouched per-event path: ticket count ==
  // event count, no flush needed, drain never parks.
  Recorder recorder(4, Recorder::Options{1});
  EXPECT_EQ(recorder.stamp_batch(), 1u);
  recorder.on_inv(0, 1, 0, core::OpCode::kRead, 0);
  recorder.on_inv(1, 2, 1, core::OpCode::kRead, 0);
  EventBatch out;
  EXPECT_EQ(recorder.drain(out), 2u);
  EXPECT_EQ(recorder.tickets_issued(), 2u);
  EXPECT_EQ(recorder.stamps_issued(), 2u);
  EXPECT_EQ(recorder.approx_pending(), 0u);
  // Clamping: 0 is nonsense and means "per event".
  Recorder clamped(4, Recorder::Options{0});
  EXPECT_EQ(clamped.stamp_batch(), 1u);
}

// --- capped drains (Recorder::drain's max_events budget) ---------------------

/// One seeded single-thread push schedule over three lanes: runs of
/// same-lane reads (so batch mode extends batches) broken by lane switches
/// and serial commit records. `between(i)` runs after push i — the capped
/// runs drain there, mid-recording, where the active lane's batch is open.
template <typename Between>
void push_schedule(Recorder& recorder, Between between) {
  util::Xoshiro256 rng(2024);
  std::uint32_t lane = 0;
  for (std::size_t i = 0; i < 20000; ++i) {
    if (rng.chance(0.3)) lane = static_cast<std::uint32_t>(rng.below(3));
    const core::TxId tx = 1 + lane;
    if (rng.chance(0.1)) {
      recorder.on_commit(lane, tx, i);
    } else {
      recorder.on_inv(lane, tx, static_cast<VarId>(rng.below(4)),
                      core::OpCode::kRead, static_cast<core::Value>(i));
    }
    between(i);
  }
  for (std::uint32_t l = 0; l < 3; ++l) recorder.flush_lane(l);
}

TEST(CappedDrain, ConcatenationEqualsUncappedDrainWithinTheBound) {
  for (const std::uint32_t grain : {1u, 8u}) {
    Recorder reference(4, Recorder::Options{grain});
    push_schedule(reference, [](std::size_t) {});
    EventBatch expected;
    while (reference.drain(expected) > 0) {
    }
    ASSERT_EQ(expected.size(), reference.num_events());

    for (const std::size_t cap : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}}) {
      SCOPED_TRACE("stamp_batch " + std::to_string(grain) + " cap " +
                   std::to_string(cap));
      Recorder recorder(4, Recorder::Options{grain});
      EventBatch out;
      const std::size_t bound = cap + grain - 1;
      std::size_t largest = 0;
      std::size_t capped = 0;  // drains that stopped with events pending
      auto drain_once = [&] {
        const std::size_t n = recorder.drain(out, cap);
        EXPECT_LE(n, bound);
        largest = std::max(largest, n);
        if (n >= cap && recorder.approx_pending() > 0) ++capped;
        return n;
      };
      // Drain about every 512 pushes for the first 14000, then let a
      // backlog larger than every cap build before the final drains.
      util::Xoshiro256 when(7);
      push_schedule(recorder, [&](std::size_t i) {
        if (i < 14000 && when.below(512) == 0) (void)drain_once();
      });
      while (drain_once() > 0) {
      }
      EXPECT_GT(capped, 0u) << "the cap never bit";
      EXPECT_LE(largest, bound);
      ASSERT_EQ(out.size(), expected.size());
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], expected[i]) << "capped drain diverged at " << i;
      }
      EXPECT_EQ(recorder.approx_pending(), 0u);
    }
  }
}

TEST(CappedDrain, StopsOnlyAtTicketBoundaries) {
  // A cap of 1 lands inside lane 0's open batch (ticket 0): the whole
  // published prefix of the ticket is emitted, the ticket stays parked, and
  // later drains resume on it without splitting or skipping anything.
  Recorder recorder(4, Recorder::Options{8});
  for (int i = 0; i < 3; ++i) {
    recorder.on_inv(0, 1, 0, core::OpCode::kRead, i);
  }
  EventBatch out;
  EXPECT_EQ(recorder.drain(out, 1), 3u);  // one ticket, never split
  recorder.on_inv(0, 1, 0, core::OpCode::kRead, 3);  // ticket 0 grows
  EXPECT_EQ(recorder.drain(out, 1), 1u);
  recorder.on_inv(1, 2, 1, core::OpCode::kRead, 4);  // ticket 1
  recorder.on_inv(1, 2, 1, core::OpCode::kRead, 5);
  recorder.on_inv(0, 1, 0, core::OpCode::kRead, 6);  // ticket 2, closes 0
  recorder.on_inv(2, 3, 2, core::OpCode::kRead, 7);  // ticket 3
  recorder.on_commit(2, 3);                          // ticket 4, same lane
  EXPECT_EQ(recorder.tickets_issued(), 5u);
  for (std::uint32_t l = 0; l < 3; ++l) recorder.flush_lane(l);
  EXPECT_EQ(recorder.drain(out, 1), 2u);  // ticket 1: both its events
  EXPECT_EQ(recorder.drain(out, 1), 1u);  // ticket 2
  EXPECT_EQ(recorder.drain(out, 1), 1u);  // ticket 3: stops before 4
  EXPECT_EQ(recorder.drain(out, 1), 1u);  // ticket 4
  EXPECT_EQ(recorder.drain(out, 1), 0u);
  ASSERT_EQ(out.size(), 9u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i].arg, static_cast<core::Value>(i)) << "event " << i;
  }
  EXPECT_EQ(out[8].kind, core::EventKind::kCommit);
}

/// Forwards to a MonitorSink and keeps the largest batch it was handed.
class BatchSizeSink final : public EventSink {
 public:
  explicit BatchSizeSink(EventSink& next) noexcept : next_(&next) {}
  bool accept(std::span<const core::Event> batch) override {
    largest_ = std::max(largest_, batch.size());
    return next_->accept(batch);
  }
  [[nodiscard]] std::size_t largest() const noexcept { return largest_; }

 private:
  EventSink* next_;
  std::size_t largest_ = 0;
};

TEST(CappedDrain, PumpHandsTheMonitorBatchesWithinMaxPending) {
  // Three producers record while the pump feeds the live monitor: every
  // batch the sink accepts is within max_pending, and the verdict holds.
  const auto stm = make_stm("tl2", 64);
  ASSERT_TRUE(stm->set_window_free(true));
  Recorder recorder(64);
  stm->set_recorder(&recorder);
  core::OnlineCertificateMonitor monitor(
      recorder.model(), core::VersionOrderPolicy::kStampedRead);
  MonitorSink monitor_sink(monitor);
  BatchSizeSink sink(monitor_sink);

  AdaptiveDrainPacer::Options pacing;
  pacing.max_pending = 256;
  DrainPump pump(recorder, sink, pacing);
  std::atomic<bool> done{false};
  DrainPump::Stats stats;
  std::thread verifier([&] { stats = pump.run(done); });

  wl::MixParams params;
  params.threads = 3;
  params.vars = 64;
  params.txs_per_thread = 2000;
  params.seed = 31;
  (void)wl::run_random_mix(*stm, params);
  done.store(true, std::memory_order_release);
  verifier.join();

  EXPECT_TRUE(stats.sink_ok);
  EXPECT_EQ(stats.events, recorder.num_events());
  EXPECT_LE(sink.largest(), pacing.max_pending);
  EXPECT_EQ(stats.max_batch, sink.largest());
  EXPECT_GE(stats.batches, recorder.num_events() / pacing.max_pending);
  EXPECT_TRUE(monitor.ok()) << monitor.violation()->reason << " at event "
                            << monitor.violation()->pos;
  EXPECT_EQ(monitor.events_fed(), recorder.num_events());
}

TEST(ShardedRecorder, BeginTxIdsAreUniqueAcrossThreads) {
  Recorder recorder(1);
  std::vector<std::vector<core::TxId>> ids(4);
  std::vector<std::thread> workers;
  workers.reserve(ids.size());
  for (auto& out : ids) {
    workers.emplace_back([&recorder, &out] {
      for (int i = 0; i < 1000; ++i) out.push_back(recorder.begin_tx());
    });
  }
  for (auto& w : workers) w.join();
  std::vector<core::TxId> all;
  for (const auto& v : ids) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_EQ(all.front(), 1u);  // 0 is the §5.4 initializer
}

}  // namespace
}  // namespace optm::stm
