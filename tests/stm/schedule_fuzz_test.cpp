// Deterministic schedule fuzzing: drive three logical processes from ONE
// OS thread, interleaving at OPERATION granularity under a seeded RNG.
// Unlike the thread-based workloads (whose interleavings the OS chooses),
// every schedule here is exactly reproducible, and op-level interleaving
// reaches states thread preemption rarely hits (e.g. a process parked
// mid-transaction across dozens of rival commits).
//
// Every recorded run of every opaque non-blocking STM must pass BOTH the
// Theorem 2 certificate and the streaming certificate monitor — and the
// §2 phenomena detectors must stay silent.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/online.hpp"
#include "core/opacity_graph.hpp"
#include "core/phenomena.hpp"
#include "sim/thread_ctx.hpp"
#include "stm/factory.hpp"
#include "stm/mv.hpp"
#include "stm/recorder.hpp"
#include "util/rng.hpp"
#include "../core/record_order.hpp"

namespace optm::stm {
namespace {

constexpr std::uint32_t kProcs = 3;
constexpr std::size_t kVars = 5;
constexpr std::uint64_t kTotalSteps = 600;

/// One logical process's driver state.
struct Proc {
  std::unique_ptr<sim::ThreadCtx> ctx;
  bool active = false;
  std::uint32_t ops_in_tx = 0;
  std::uint64_t next_unique = 0;
};

class ScheduleFuzz
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(ScheduleFuzz, RecordedRunPassesCertificateAndMonitor) {
  const auto& [name, seed] = GetParam();
  const auto stm = make_stm(name, kVars);
  Recorder recorder(kVars);
  stm->set_recorder(&recorder);

  util::Xoshiro256 rng(seed);
  Proc procs[kProcs];
  for (std::uint32_t i = 0; i < kProcs; ++i) {
    procs[i].ctx = std::make_unique<sim::ThreadCtx>(i);
    procs[i].next_unique = (static_cast<std::uint64_t>(i) + 1) << 32;
  }

  for (std::uint64_t step = 0; step < kTotalSteps; ++step) {
    Proc& p = procs[rng.below(kProcs)];
    if (!p.active) {
      stm->begin(*p.ctx);
      p.active = true;
      p.ops_in_tx = 0;
      continue;
    }
    const std::uint64_t dice = rng.below(100);
    if (p.ops_in_tx >= 6 || dice < 20) {  // try to finish
      if (dice < 4) {
        stm->abort(*p.ctx);  // voluntary tryA
      } else {
        (void)stm->commit(*p.ctx);
      }
      p.active = false;
    } else if (dice < 60) {
      std::uint64_t out = 0;
      if (!stm->read(*p.ctx, static_cast<VarId>(rng.below(kVars)), out)) {
        p.active = false;  // forcefully aborted mid-operation
      }
      ++p.ops_in_tx;
    } else {
      if (!stm->write(*p.ctx, static_cast<VarId>(rng.below(kVars)),
                      ++p.next_unique)) {
        p.active = false;
      }
      ++p.ops_in_tx;
    }
  }
  // Wind down: finish every live transaction.
  for (Proc& p : procs) {
    if (p.active) (void)stm->commit(*p.ctx);
  }

  const core::History h = recorder.history();
  std::string why;
  ASSERT_TRUE(h.well_formed(&why)) << name << ": " << why;
  ASSERT_TRUE(h.consistent(&why)) << name << ": " << why;

  // Theorem 2 certificate over the recorder's serialization order.
  EXPECT_TRUE(core::verify_opacity_certificate(h, recorder.certificate_order(),
                                               {}, &why))
      << name << " seed " << seed << ": " << why;

  // Streaming certificate monitor, event by event.
  core::OnlineCertificateMonitor monitor(h.model());
  for (const core::Event& e : h.events()) (void)monitor.feed(e);
  EXPECT_TRUE(monitor.ok())
      << name << " seed " << seed << " at event " << monitor.violation()->pos
      << ": " << monitor.violation()->reason;

  // §2 phenomena must be absent from every opaque STM's run.
  const auto snapshot = core::find_inconsistent_snapshot(h);
  EXPECT_FALSE(snapshot.has_value()) << name << ": " << snapshot->explanation;
  const auto dirty = core::find_dirty_read(h);
  if (dirty.has_value()) {
    EXPECT_TRUE(dirty->writer_commit_pending) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OpaqueStms, ScheduleFuzz,
    ::testing::Combine(::testing::Values("tl2", "tiny", "dstm", "astm", "astm-eager",
                                         "astm-lazy", "visible", "mv", "norec",
                                         "twopl-nowait"),
                       ::testing::Range<std::uint64_t>(1, 9)),
    [](const auto& inf) {
      std::string n = std::get<0>(inf.param);
      for (auto& c : n)
        if (c == '-') c = '_';
      return n + "_seed" + std::to_string(std::get<1>(inf.param));
    });

// ---------------------------------------------------------------------------
// MV snapshot-rank fuzz: MvStm at ring depths 2–8 with declared read-only
// transactions in the mix. The recorded histories stamp serialization
// points onto their C/A events (2·wv updates, 2·snapshot+1 snapshot
// transactions); the streaming monitor must certify them from those
// stamps, the recorder's ≪ must pass the Theorem 2 certificate, and the
// deterministic op-granularity schedules stay certifiable in record order
// too (the divergence histories live in core's random_mv_history fuzz,
// which simulates the window-free recorder this scheduler cannot express).
// ---------------------------------------------------------------------------

class MvSnapshotScheduleFuzz
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(MvSnapshotScheduleFuzz, MonitorCertifiesOnSnapshotStamps) {
  const auto& [depth, seed] = GetParam();
  MvStm stm(kVars, depth);
  Recorder recorder(kVars);
  stm.set_recorder(&recorder);

  util::Xoshiro256 rng(seed);
  Proc procs[kProcs];
  bool read_only[kProcs] = {};
  for (std::uint32_t i = 0; i < kProcs; ++i) {
    procs[i].ctx = std::make_unique<sim::ThreadCtx>(i);
    procs[i].next_unique = (static_cast<std::uint64_t>(i) + 1) << 32;
  }

  for (std::uint64_t step = 0; step < kTotalSteps; ++step) {
    const std::uint32_t pi = static_cast<std::uint32_t>(rng.below(kProcs));
    Proc& p = procs[pi];
    if (!p.active) {
      if (rng.below(100) < 40) {
        stm.begin_read_only(*p.ctx);
        read_only[pi] = true;
      } else {
        stm.begin(*p.ctx);
        read_only[pi] = false;
      }
      p.active = true;
      p.ops_in_tx = 0;
      continue;
    }
    const std::uint64_t dice = rng.below(100);
    if (p.ops_in_tx >= 6 || dice < 20) {
      if (dice < 4) {
        stm.abort(*p.ctx);
      } else {
        (void)stm.commit(*p.ctx);
      }
      p.active = false;
    } else if (read_only[pi] || dice < 60) {
      std::uint64_t out = 0;
      if (!stm.read(*p.ctx, static_cast<VarId>(rng.below(kVars)), out)) {
        p.active = false;
      }
      ++p.ops_in_tx;
    } else {
      if (!stm.write(*p.ctx, static_cast<VarId>(rng.below(kVars)),
                     ++p.next_unique)) {
        p.active = false;
      }
      ++p.ops_in_tx;
    }
  }
  for (Proc& p : procs) {
    if (p.active) (void)stm.commit(*p.ctx);
  }

  const core::History h = recorder.history();
  std::string why;
  ASSERT_TRUE(h.well_formed(&why)) << why;

  // The stamp order: the streaming monitor certifies.
  core::OnlineCertificateMonitor snap(h.model());
  for (const core::Event& e : h.events()) (void)snap.feed(e);
  EXPECT_TRUE(snap.ok()) << "depth " << depth << " seed " << seed << " at "
                         << snap.violation()->pos << ": "
                         << snap.violation()->reason;
  // The recorder's ≪, checked exactly as a Theorem 2 certificate.
  EXPECT_TRUE(core::verify_opacity_certificate(h, recorder.certificate_order(),
                                               {}, &why))
      << "depth " << depth << " seed " << seed << ": " << why;

  // Deterministic op-granularity schedules keep C records in stamp order,
  // so the monitor must stay clean on their record order as well.
  const core::History unstamped = core::record_order(h);
  core::OnlineCertificateMonitor commit_order(h.model());
  for (const core::Event& e : unstamped.events()) (void)commit_order.feed(e);
  EXPECT_TRUE(commit_order.ok())
      << "depth " << depth << " seed " << seed << ": "
      << commit_order.violation()->reason;
}

INSTANTIATE_TEST_SUITE_P(
    Depths, MvSnapshotScheduleFuzz,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 5, 8),
                       ::testing::Range<std::uint64_t>(1, 7)),
    [](const auto& inf) {
      return "depth" + std::to_string(std::get<0>(inf.param)) + "_seed" +
             std::to_string(std::get<1>(inf.param));
    });

}  // namespace
}  // namespace optm::stm
