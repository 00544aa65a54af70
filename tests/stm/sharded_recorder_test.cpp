// The sharded recorder must be observationally identical to the original
// single-mutex recorder: on a deterministic schedule both engines
// reconstruct the same core::History and the same certificate ≪, and on
// concurrent schedules the sharded engine's stamp-merged linearization
// must pass the same checks the mutex engine's histories always passed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/online.hpp"
#include "core/opacity_graph.hpp"
#include "sim/thread_ctx.hpp"
#include "stm/factory.hpp"
#include "stm/mv.hpp"
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

// certificate_order() keys each completed transaction by the stamp its C
// or A event carries. One deterministic five-process schedule whose
// history holds every kind of completion the stamp can come from — a
// mid-op abort (T1), a commit-time abort (T2), an update commit (T3), a
// read-only commit (T4), a voluntary tryA/A (T5) — and a transaction still
// live at the end (T6), which has no completion stamp and so keys at its
// last non-local read's snapshot — after T1–T5, which all completed
// before it began:
//   T1 reads x;  T2 reads y, writes z;  T3 writes x, y and commits;
//   T1 reads y (doomed);  T2 tries to commit (doomed);
//   T4 reads x, z and commits;  T5 reads x and aborts;
//   T6 reads z, writes w and stays live.
void drive_every_completion(Stm& stm) {
  constexpr VarId kX = 0;
  constexpr VarId kY = 1;
  constexpr VarId kZ = 2;
  constexpr VarId kW = 3;
  sim::ThreadCtx p[] = {sim::ThreadCtx(0), sim::ThreadCtx(1), sim::ThreadCtx(2),
                        sim::ThreadCtx(3), sim::ThreadCtx(4)};
  std::uint64_t v = 0;
  stm.begin(p[0]);
  EXPECT_TRUE(stm.read(p[0], kX, v));
  stm.begin(p[1]);
  EXPECT_TRUE(stm.read(p[1], kY, v));
  EXPECT_TRUE(stm.write(p[1], kZ, 7));
  stm.begin(p[2]);
  EXPECT_TRUE(stm.write(p[2], kX, 1));
  EXPECT_TRUE(stm.write(p[2], kY, 2));
  EXPECT_TRUE(stm.commit(p[2]));
  EXPECT_FALSE(stm.read(p[0], kY, v));
  EXPECT_FALSE(stm.commit(p[1]));
  stm.begin(p[3]);
  EXPECT_TRUE(stm.read(p[3], kX, v));
  EXPECT_TRUE(stm.read(p[3], kZ, v));
  EXPECT_TRUE(stm.commit(p[3]));
  stm.begin(p[4]);
  EXPECT_TRUE(stm.read(p[4], kX, v));
  stm.abort(p[4]);
  stm.begin(p[1]);
  EXPECT_TRUE(stm.read(p[1], kZ, v));
  EXPECT_TRUE(stm.write(p[1], kW, 9));
}

struct CompletionCase {
  std::string name;
  std::unique_ptr<Stm> (*make)();
  /// certificate_order() of this schedule.
  std::vector<core::TxId> order;
};

std::ostream& operator<<(std::ostream& os, const CompletionCase& c) {
  return os << c.name;
}

class CertificateOrder : public ::testing::TestWithParam<CompletionCase> {};

TEST_P(CertificateOrder, StampsComeFromTheCompletionEvents) {
  const auto mutex_stm = GetParam().make();
  MutexRecorder mutex_recorder(4);
  mutex_stm->set_recorder(&mutex_recorder);
  drive_every_completion(*mutex_stm);

  const auto sharded_stm = GetParam().make();
  Recorder sharded_recorder(4);
  sharded_stm->set_recorder(&sharded_recorder);
  drive_every_completion(*sharded_stm);

  // The history really holds every kind of completion: T1's A answers its
  // read invocation, T2's answers tryC, T5's answers tryA, T4 commits
  // without writing, and T6 has no completion event.
  const core::History h = sharded_recorder.history();
  const std::vector<core::Event>& events = h.events();
  const auto completion = [&](core::TxId tx) {
    for (std::size_t i = 1; i < events.size(); ++i) {
      if (events[i].tx == tx && (events[i].kind == core::EventKind::kCommit ||
                                 events[i].kind == core::EventKind::kAbort)) {
        std::size_t prev = i - 1;
        while (events[prev].tx != tx) --prev;
        return std::pair{events[i].kind, events[prev].kind};
      }
    }
    return std::pair{core::EventKind::kInvoke, core::EventKind::kInvoke};
  };
  using K = core::EventKind;
  EXPECT_EQ(completion(1), std::pair(K::kAbort, K::kInvoke));
  EXPECT_EQ(completion(2), std::pair(K::kAbort, K::kTryCommit));
  EXPECT_EQ(completion(3), std::pair(K::kCommit, K::kTryCommit));
  EXPECT_EQ(completion(4), std::pair(K::kCommit, K::kTryCommit));
  EXPECT_EQ(completion(5), std::pair(K::kAbort, K::kTryAbort));
  EXPECT_EQ(completion(6), std::pair(K::kInvoke, K::kInvoke));

  const std::vector<core::TxId> order = sharded_recorder.certificate_order();
  EXPECT_EQ(mutex_recorder.certificate_order(), order);
  EXPECT_EQ(order, GetParam().order);
  // The order is a Theorem 2 certificate for the history, T6 included.
  std::string why;
  EXPECT_TRUE(core::verify_opacity_certificate(h, order, {}, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(
    Stms, CertificateOrder,
    ::testing::Values(
        CompletionCase{"tl2", [] { return make_stm("tl2", 4); },
                       {1, 2, 3, 4, 5, 6}},
        // A one-version ring: T1's and T2's snapshots of y are gone once
        // T3 commits, so mv dooms them where tl2 does.
        CompletionCase{"mv",
                       []() -> std::unique_ptr<Stm> {
                         return std::make_unique<MvStm>(4, 1);
                       },
                       {1, 2, 3, 4, 5, 6}},
        CompletionCase{"dstm", [] { return make_stm("dstm", 4); },
                       {1, 2, 3, 4, 5, 6}},
        // Every completion stamp 0: the order is record order.
        CompletionCase{"visible", [] { return make_stm("visible", 4); },
                       {1, 2, 3, 4, 5, 6}}),
    [](const ::testing::TestParamInfo<CompletionCase>& info) {
      return info.param.name;
    });

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
    // stamp fields must survive the chunked-lane copy and the placement by
    // ticket offset.
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
    // The window-free drained stream certifies on its stamps.
    core::OnlineCertificateMonitor monitor(sharded_recorder.model());
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
  // threads, a drainer feeding the monitor mid-run. Records
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
  core::OnlineCertificateMonitor live(recorder.model());
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

// --- capped drains (Recorder::drain's max_events budget) ---------------------

/// One seeded single-thread push schedule over three lanes: runs of
/// same-lane reads broken by lane switches and commit records.
/// `between(i)` runs after push i — the capped runs drain there,
/// mid-recording.
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
}

TEST(CappedDrain, ConcatenationEqualsUncappedDrainWithinTheBound) {
  Recorder reference(4);
  push_schedule(reference, [](std::size_t) {});
  EventBatch expected;
  while (reference.drain(expected) > 0) {
  }
  ASSERT_EQ(expected.size(), reference.num_events());

  for (const std::size_t cap : {std::size_t{1}, std::size_t{7},
                                std::size_t{4096}}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    Recorder recorder(4);
    EventBatch out;
    std::size_t largest = 0;
    std::size_t capped = 0;  // drains that stopped with events pending
    auto drain_once = [&] {
      const std::size_t n = recorder.drain(out, cap);
      EXPECT_LE(n, cap);
      largest = std::max(largest, n);
      if (n == cap && recorder.approx_pending() > 0) ++capped;
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
    EXPECT_LE(largest, cap);
    ASSERT_EQ(out.size(), expected.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], expected[i]) << "capped drain diverged at " << i;
    }
    EXPECT_EQ(recorder.approx_pending(), 0u);
  }
}

TEST(CappedDrain, StopsOnlyAtTicketBoundaries) {
  // Every event is its own ticket, so a cap of 1 yields exactly one event
  // per drain — across same-lane runs, lane switches and a commit — and
  // each drain resumes on the next ticket without skipping or repeating.
  Recorder recorder(4);
  for (int i = 0; i < 3; ++i) {
    recorder.on_inv(0, 1, 0, core::OpCode::kRead, i);  // tickets 0-2
  }
  EventBatch out;
  EXPECT_EQ(recorder.drain(out, 1), 1u);
  EXPECT_EQ(recorder.approx_pending(), 2u);
  recorder.on_inv(1, 2, 1, core::OpCode::kRead, 3);  // ticket 3, lane 1
  recorder.on_inv(1, 2, 1, core::OpCode::kRead, 4);
  recorder.on_inv(0, 1, 0, core::OpCode::kRead, 5);  // back to lane 0
  recorder.on_inv(2, 3, 2, core::OpCode::kRead, 6);  // lane 2
  recorder.on_commit(2, 3);                          // ticket 7, same lane
  EXPECT_EQ(recorder.stamps_issued(), 8u);
  for (std::size_t n = 1; n < 8; ++n) {
    EXPECT_EQ(recorder.drain(out, 1), 1u) << "drain " << n;
    EXPECT_EQ(recorder.approx_pending(), 7u - n);
  }
  EXPECT_EQ(recorder.drain(out, 1), 0u);
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(out[i].arg, static_cast<core::Value>(i)) << "event " << i;
  }
  EXPECT_EQ(out[7].kind, core::EventKind::kCommit);
}

}  // namespace

/// Reaches into the recorder to open a hole: one lane draws a ticket and
/// stores its event, but publishes it only when the test says so.
struct RecorderTestPeer {
  static std::size_t hold(Recorder& recorder, std::uint32_t lane,
                          const core::Event& e) {
    return recorder.stage(recorder.lanes_[lane], e);
  }
  static void publish(Recorder& recorder, std::uint32_t lane,
                      std::size_t held) {
    recorder.lanes_[lane].count.store(held + 1, std::memory_order_release);
  }
};

namespace {

/// Read invocation whose `arg` is the ticket it is expected to draw.
core::Event numbered(std::uint64_t ticket) {
  return core::ev::inv(1, 0, core::OpCode::kRead,
                       static_cast<core::Value>(ticket));
}

TEST(CappedDrain, HoleEndsEveryDrainUntilItsTicketIsPublished) {
  // Tickets 0-3 published on lanes 1 and 2, ticket 4 held on lane 0,
  // tickets 5-12 published on lanes 1 and 2 around it: whatever the cap,
  // the drains stop at the hole, and once it is published they deliver
  // ticket 4 and everything after it exactly once.
  constexpr std::uint64_t kHole = 4;
  constexpr std::uint64_t kTickets = 13;
  for (const std::size_t cap : {static_cast<std::size_t>(-1), std::size_t{3},
                                std::size_t{6}}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    Recorder recorder(4);
    std::size_t held = 0;
    for (std::uint64_t t = 0; t < kTickets; ++t) {
      if (t == kHole) {
        held = RecorderTestPeer::hold(recorder, 0, numbered(t));
      } else {
        recorder.on_inv(1 + static_cast<std::uint32_t>(t % 2), 1, 0,
                        core::OpCode::kRead, static_cast<core::Value>(t));
      }
    }
    ASSERT_EQ(recorder.stamps_issued(), kTickets);

    EventBatch out;
    auto drain_all = [&] {
      while (true) {
        const std::size_t n = recorder.drain(out, cap);
        EXPECT_LE(n, cap);
        if (n == 0) break;
      }
    };
    drain_all();
    ASSERT_EQ(out.size(), kHole);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].arg, static_cast<core::Value>(i)) << "event " << i;
    }
    EXPECT_EQ(recorder.approx_pending(), kTickets - kHole);

    RecorderTestPeer::publish(recorder, 0, held);
    drain_all();
    ASSERT_EQ(out.size(), kTickets);
    const core::History h = recorder.history();
    ASSERT_EQ(h.size(), kTickets);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].arg, static_cast<core::Value>(i)) << "event " << i;
      EXPECT_EQ(out[i], h[i]) << "event " << i;
    }
    EXPECT_EQ(recorder.approx_pending(), 0u);
  }
}

TEST(CappedDrain, ConcurrentRotatingCapsConcatenateToTheHistory) {
  // Three producers record window-free while one drainer rotates its cap:
  // however each drain is cut, and whatever holes the in-flight tickets
  // leave, the concatenated drains are the history, event for event.
  const auto stm = make_stm("tl2", 16);
  ASSERT_TRUE(stm->set_window_free(true));
  Recorder recorder(16);
  stm->set_recorder(&recorder);

  wl::MixParams params;
  params.threads = 3;
  params.vars = 16;
  params.txs_per_thread = 1500;
  params.seed = 57;

  constexpr std::size_t kCaps[] = {1, 3, 64, 2048,
                                   static_cast<std::size_t>(-1)};
  EventBatch out;
  std::size_t turn = 0;
  auto drain_once = [&] {
    const std::size_t cap = kCaps[turn++ % std::size(kCaps)];
    const std::size_t n = recorder.drain(out, cap);
    EXPECT_LE(n, cap);
    return n;
  };
  std::atomic<bool> done{false};
  std::thread producers([&] {
    (void)wl::run_random_mix(*stm, params);
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) (void)drain_once();
  producers.join();
  while (drain_once() > 0) {
  }

  const core::History h = recorder.history();
  ASSERT_EQ(out.size(), h.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    ASSERT_EQ(out[i], h[i]) << "capped drains diverged at event " << i;
  }
  EXPECT_EQ(recorder.approx_pending(), 0u);
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
  core::OnlineCertificateMonitor monitor(recorder.model());
  MonitorSink monitor_sink(monitor);
  BatchSizeSink sink(monitor_sink);

  constexpr std::size_t kMaxPending = 256;
  DrainPump pump(recorder, sink, kMaxPending);
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
  EXPECT_LE(sink.largest(), kMaxPending);
  EXPECT_EQ(stats.max_batch, sink.largest());
  EXPECT_GE(stats.batches, recorder.num_events() / kMaxPending);
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
