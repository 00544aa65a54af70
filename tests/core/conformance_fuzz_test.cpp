// Cross-runtime conformance fuzz: every runtime × {streaming monitor,
// adjudication of its flags, exact check_opacity}, via
// core::check_conformance (core/conformance.hpp).
//
// The acceptance bar of the window-free work lives here: on >= 150 fuzz
// seeds, a window-free tl2 recording of a deterministic schedule must be
// BYTE-EQUAL to the windowed recording of the identical schedule (the
// window changes locking, never content — stamps included), and the
// monitor must certify it, as the exact checker does. Genuinely concurrent
// window-free runs (where records really drift) must certify, and
// corrupted recordings must flag, each flag adjudicated in agreement with
// check_opacity on its prefix. A corrupted STAMP is invisible to the
// record order (the record_order() copy, stamps cleared): only the
// monitor's stamp checks catch it.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/conformance.hpp"
#include "core/random_history.hpp"
#include "record_order.hpp"
#include "sim/thread_ctx.hpp"
#include "stm/factory.hpp"
#include "stm/recorder.hpp"
#include "stm/sink.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace optm::core {
namespace {

// --- deterministic seeded schedules -----------------------------------------
//
// Logical processes driven from one OS thread (the repo's exact-
// interleaving idiom, §6.1): the interleaving, operations, and values are
// a pure function of the seed, so the same schedule can be replayed
// against any non-blocking runtime in any recording mode.

struct ScheduleParams {
  std::uint64_t seed = 1;
  std::uint32_t procs = 3;
  std::uint32_t txs_per_proc = 2;
  std::uint32_t max_ops_per_tx = 3;
  std::uint32_t vars = 4;
  double write_prob = 0.5;
  double voluntary_abort_prob = 0.1;
};

void drive_schedule(stm::Stm& stm, const ScheduleParams& p) {
  util::Xoshiro256 rng(p.seed);
  struct Proc {
    std::unique_ptr<sim::ThreadCtx> ctx;
    std::uint32_t txs_done = 0;
    std::uint32_t ops_left = 0;
    bool in_tx = false;
    bool vol_abort = false;
  };
  std::vector<Proc> procs(p.procs);
  for (std::uint32_t i = 0; i < p.procs; ++i) {
    procs[i].ctx = std::make_unique<sim::ThreadCtx>(i);
  }
  std::uint64_t unique = 0;
  for (;;) {
    std::vector<std::uint32_t> ready;
    for (std::uint32_t i = 0; i < p.procs; ++i) {
      if (procs[i].in_tx || procs[i].txs_done < p.txs_per_proc) {
        ready.push_back(i);
      }
    }
    if (ready.empty()) break;
    Proc& pr = procs[ready[rng.below(ready.size())]];
    sim::ThreadCtx& ctx = *pr.ctx;
    if (!pr.in_tx) {
      stm.begin(ctx);
      pr.in_tx = true;
      pr.ops_left = 1 + static_cast<std::uint32_t>(rng.below(p.max_ops_per_tx));
      pr.vol_abort = rng.chance(p.voluntary_abort_prob);
      continue;
    }
    if (pr.ops_left > 0) {
      --pr.ops_left;
      const auto var = static_cast<stm::VarId>(rng.below(p.vars));
      bool ok = false;
      if (rng.chance(p.write_prob)) {
        ok = stm.write(ctx, var, 1000 + ++unique);  // value-unique
      } else {
        std::uint64_t out = 0;
        ok = stm.read(ctx, var, out);
      }
      if (!ok) {  // forcefully aborted mid-operation: transaction over
        pr.in_tx = false;
        ++pr.txs_done;
      }
      continue;
    }
    if (pr.vol_abort) {
      stm.abort(ctx);
    } else {
      (void)stm.commit(ctx);
    }
    pr.in_tx = false;
    ++pr.txs_done;
  }
}

[[nodiscard]] History record_schedule(const std::string& name,
                                      const ScheduleParams& p,
                                      bool window_free) {
  const auto stm = stm::make_stm(name, p.vars);
  EXPECT_EQ(stm->set_window_free(window_free), true)
      << name << " did not honor window mode";
  stm::Recorder recorder(p.vars);
  stm->set_recorder(&recorder);
  drive_schedule(*stm, p);
  return recorder.history();
}

constexpr std::uint64_t kScheduleSeeds = 150;  // the acceptance bar

[[nodiscard]] ScheduleParams schedule_params(std::uint64_t seed) {
  ScheduleParams p;
  p.seed = seed;
  return p;
}

// The acceptance criterion: window-free tl2 recording of a deterministic
// schedule is byte-equal to the windowed recording of the identical
// schedule, and monitor and check_opacity agree on it.
TEST(ConformanceFuzz, WindowFreeTl2MatchesWindowedOnDeterministicSchedules) {
  ConformanceOptions options;
  std::size_t stamped_reads = 0;
  for (std::uint64_t seed = 1; seed <= kScheduleSeeds; ++seed) {
    const ScheduleParams p = schedule_params(seed);
    const History windowed = record_schedule("tl2", p, /*window_free=*/false);
    const History window_free = record_schedule("tl2", p, /*window_free=*/true);

    // Byte-equivalence: the window changes recorder locking, never what is
    // recorded — stamps and read-stamp pairs included.
    ASSERT_EQ(windowed.size(), window_free.size()) << "seed " << seed;
    for (std::size_t i = 0; i < windowed.size(); ++i) {
      ASSERT_EQ(windowed[i], window_free[i])
          << "seed " << seed << " event " << i << ": "
          << to_string(windowed[i]) << " vs " << to_string(window_free[i]);
      if (windowed[i].kind == EventKind::kResponse &&
          windowed[i].op == OpCode::kRead && windowed[i].stamp != 0) {
        ++stamped_reads;
      }
    }

    // Every engine agrees, and a correct runtime's recording certifies
    // (deterministic single-thread driving: commit order and stamp order
    // coincide, so its record order certifies too).
    const ConformanceReport report = check_conformance(window_free, options);
    ASSERT_TRUE(report.ok) << "seed " << seed << ": " << report.divergence
                           << "\n" << window_free.str();
    EXPECT_TRUE(report.monitor.certified)
        << "seed " << seed << ": " << report.monitor.reason << "\n"
        << window_free.str();
    EXPECT_TRUE(check_conformance(record_order(window_free), options)
                    .monitor.certified)
        << "seed " << seed << "\n" << window_free.str();
    ASSERT_EQ(report.exact, Verdict::kYes)
        << "seed " << seed << ": " << report.exact_reason;
  }
  // The fuzz set must actually exercise the stamped-read machinery.
  EXPECT_GE(stamped_reads, kScheduleSeeds);
  RecordProperty("stamped_reads", static_cast<int>(stamped_reads));
}

// The acceptance bar of the orec-stamp work, mirroring the tl2 test above:
// windowed and window-free recordings of identical deterministic schedules
// must be BYTE-EQUAL for the ownership-record runtimes (dstm, astm — reads
// stamped with their validation snapshot and CAS-acquired orec version)
// and for mv (update commits now ticket before validating), and the
// monitor must certify them. The write-heavy parameter
// set drives real contention-manager kills and orec steals through the
// deterministic interleaving, so the abort paths record too.
TEST(ConformanceFuzz, WindowFreeOrecAndMvMatchWindowedOnDeterministicSchedules) {
  ConformanceOptions options;
  for (const char* name : {"dstm", "astm", "mv"}) {
    std::size_t stamped_reads = 0;
    for (std::uint64_t seed = 1; seed <= kScheduleSeeds; ++seed) {
      ScheduleParams p = schedule_params(seed);
      p.write_prob = 0.6;  // orec duels and steals need write-write conflict
      const History windowed = record_schedule(name, p, /*window_free=*/false);
      const History window_free = record_schedule(name, p, /*window_free=*/true);

      ASSERT_EQ(windowed.size(), window_free.size()) << name << " seed " << seed;
      for (std::size_t i = 0; i < windowed.size(); ++i) {
        ASSERT_EQ(windowed[i], window_free[i])
            << name << " seed " << seed << " event " << i << ": "
            << to_string(windowed[i]) << " vs " << to_string(window_free[i]);
        if (windowed[i].kind == EventKind::kResponse &&
            windowed[i].op == OpCode::kRead && windowed[i].stamp != 0) {
          ++stamped_reads;
        }
      }

      const ConformanceReport report = check_conformance(window_free, options);
      ASSERT_TRUE(report.ok) << name << " seed " << seed << ": "
                             << report.divergence << "\n" << window_free.str();
      EXPECT_TRUE(report.monitor.certified)
          << name << " seed " << seed << ": " << report.monitor.reason << "\n"
          << window_free.str();
      EXPECT_TRUE(check_conformance(record_order(window_free), options)
                      .monitor.certified)
          << name << " seed " << seed << "\n" << window_free.str();
      ASSERT_EQ(report.exact, Verdict::kYes)
          << name << " seed " << seed << ": " << report.exact_reason;
    }
    // Each runtime's fuzz set must actually exercise its stamp source.
    EXPECT_GE(stamped_reads, kScheduleSeeds) << name;
  }
}

// The same deterministic schedules replayed window-free on the other
// stamping runtimes: tiny (snapshot extension moves rv mid-transaction)
// and norec (value validation — version half of the pair absent).
TEST(ConformanceFuzz, WindowFreeTinyAndNorecCertifyOnDeterministicSchedules) {
  ConformanceOptions options;
  for (const char* name : {"tiny", "norec"}) {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      const History h = record_schedule(name, schedule_params(seed),
                                        /*window_free=*/true);
      const ConformanceReport report = check_conformance(h, options);
      ASSERT_TRUE(report.ok)
          << name << " seed " << seed << ": " << report.divergence << "\n"
          << h.str();
      EXPECT_TRUE(report.monitor.certified)
          << name << " seed " << seed << ": " << report.monitor.reason << "\n"
          << h.str();
      EXPECT_TRUE(check_conformance(record_order(h), options).monitor.certified)
          << name << " seed " << seed << "\n" << h.str();
      ASSERT_EQ(report.exact, Verdict::kYes)
          << name << " seed " << seed << ": " << report.exact_reason;
    }
  }
}

// Windowed sweep across every deterministically drivable runtime: the
// conformance contracts must hold whatever the runtime's recording
// discipline (record-order stamps, snapshot stamps, or none).
TEST(ConformanceFuzz, EveryRuntimeConformsOnDeterministicSchedules) {
  ConformanceOptions options;
  for (const char* name :
       {"tl2", "tiny", "norec", "dstm", "astm", "visible", "mv"}) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      const History h = record_schedule(name, schedule_params(seed),
                                        /*window_free=*/false);
      const ConformanceReport report = check_conformance(h, options);
      ASSERT_TRUE(report.ok)
          << name << " seed " << seed << ": " << report.divergence << "\n"
          << h.str();
      EXPECT_TRUE(report.monitor.certified)
          << name << " seed " << seed << "\n" << h.str();
      ASSERT_EQ(report.exact, Verdict::kYes)
          << name << " seed " << seed << ": " << report.exact_reason;
    }
  }
}

// The window-free capability matrix, one row per factory runtime: exactly
// the six stamping runtimes — clock-validated (tl2, tiny, norec), orec
// (dstm, astm) and multi-version (mv) — honor set_window_free(true); the
// other five must refuse AND stay windowed rather than silently record
// unsound histories.
TEST(ConformanceFuzz, WindowFreeCapabilityMatrix) {
  struct Row {
    const char* name;
    bool window_free_capable;
  };
  static constexpr Row kMatrix[] = {
      {"tl2", true},      {"tiny", true},  {"norec", true},
      {"dstm", true},     {"astm", true},  {"mv", true},
      {"visible", false}, {"weak", false}, {"sistm", false},
      {"glock", false},   {"twopl", false},
  };
  for (const Row& row : kMatrix) {
    const auto stm = stm::make_stm(row.name, 4);
    EXPECT_EQ(stm->set_window_free(true), row.window_free_capable) << row.name;
    EXPECT_EQ(stm->window_free(), row.window_free_capable)
        << row.name << (row.window_free_capable ? " refused window-free mode"
                                                : " went window-free unsoundly");
    // Switching back off always succeeds and always lands windowed.
    EXPECT_TRUE(stm->set_window_free(false)) << row.name;
    EXPECT_FALSE(stm->window_free()) << row.name;
  }
}

// Corrupted recordings: a lying stamp is caught by the monitor's stamp
// checks (and only by them — the record order certifies it, and the
// corruption leaves the history opaque), a lying value flags with or
// without stamps, each flag adjudicated in agreement with check_opacity.
TEST(ConformanceFuzz, CorruptedWindowFreeRecordingsFlagEquivalently) {
  ConformanceOptions options;
  std::size_t ver_corrupted = 0;
  std::size_t ret_corrupted = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const History h = record_schedule("tl2", schedule_params(seed),
                                      /*window_free=*/true);

    // (a) Corrupt the version half of the first stamped read: the value
    // still resolves, so only the stamp cross-check can object.
    {
      History bad(h.model());
      bool done = false;
      for (const Event& e : h.events()) {
        Event copy = e;
        if (!done && e.kind == EventKind::kResponse &&
            e.op == OpCode::kRead && e.stamp != 0 &&
            e.ver != kNoReadVersion) {
          copy.ver = e.ver + 7;
          done = true;
        }
        bad.append(copy);
      }
      if (done) {
        ++ver_corrupted;
        const ConformanceReport report = check_conformance(bad, options);
        ASSERT_TRUE(report.ok)
            << "seed " << seed << ": " << report.divergence << "\n" << bad.str();
        EXPECT_TRUE(
            check_conformance(record_order(bad), options).monitor.certified);
        EXPECT_FALSE(report.monitor.certified)
            << "seed " << seed << ": a corrupted read stamp went unnoticed\n"
            << bad.str();
        EXPECT_EQ(report.monitor.kind, CertFlagKind::kReadStampMismatch)
            << "seed " << seed << ": " << report.monitor.reason;
        EXPECT_EQ(report.exact, Verdict::kYes) << "seed " << seed;
      }
    }

    // (a') The wrap attack: ver = 2^63 + true_ver makes 2·ver wrap back to
    // the true open rank — the magnitude guard must still flag it.
    {
      History bad(h.model());
      bool done = false;
      for (const Event& e : h.events()) {
        Event copy = e;
        if (!done && e.kind == EventKind::kResponse &&
            e.op == OpCode::kRead && e.stamp != 0 &&
            e.ver != kNoReadVersion) {
          copy.ver = e.ver + (std::uint64_t{1} << 63);
          done = true;
        }
        bad.append(copy);
      }
      if (done) {
        const ConformanceReport report = check_conformance(bad, options);
        ASSERT_TRUE(report.ok)
            << "seed " << seed << ": " << report.divergence << "\n" << bad.str();
        EXPECT_FALSE(report.monitor.certified)
            << "seed " << seed << ": a wrapping version claim went unnoticed\n"
            << bad.str();
      }
    }

    // (b) Corrupt a read's return value to one never written: a §5.4
    // consistency violation the monitor must flag, with or without stamps,
    // and the exact checker must confirm as non-opaque.
    {
      History bad(h.model());
      bool done = false;
      for (const Event& e : h.events()) {
        Event copy = e;
        if (!done && e.kind == EventKind::kResponse &&
            e.op == OpCode::kRead) {
          copy.ret = 999'999'999;
          done = true;
        }
        bad.append(copy);
      }
      if (done) {
        ++ret_corrupted;
        const ConformanceReport report = check_conformance(bad, options);
        ASSERT_TRUE(report.ok)
            << "seed " << seed << ": " << report.divergence << "\n" << bad.str();
        EXPECT_FALSE(report.monitor.certified) << "seed " << seed;
        const ConformanceReport unstamped =
            check_conformance(record_order(bad), options);
        ASSERT_TRUE(unstamped.ok) << "seed " << seed << ": "
                                  << unstamped.divergence;
        EXPECT_FALSE(unstamped.monitor.certified) << "seed " << seed;
        EXPECT_EQ(report.exact, Verdict::kNo) << "seed " << seed;
      }
    }
  }
  EXPECT_GE(ver_corrupted, 25u);  // most seeds have a stamped read
  EXPECT_GE(ret_corrupted, 25u);
}

// The orec-side corruption sweep, on window-free dstm recordings: a lying
// orec version word, a replayed stale snapshot stamp (the shape a stolen
// orec's leftover stamp would take), and the 2·ver wrap attack. Each
// corruption leaves the history opaque — the lie is in the stamps — so the
// monitor must flag it while the record order certifies it, and the exact
// checker must still answer kYes.
TEST(ConformanceFuzz, CorruptedOrecStampsFlagOnlyThroughTheStamps) {
  ConformanceOptions options;
  std::size_t lying_ver = 0;
  std::size_t replayed_stamp = 0;
  std::size_t wrapped_ver = 0;
  const auto check_caught = [&](const History& bad, std::uint64_t seed,
                                const char* what) {
    const ConformanceReport report = check_conformance(bad, options);
    ASSERT_TRUE(report.ok)
        << what << " seed " << seed << ": " << report.divergence << "\n"
        << bad.str();
    EXPECT_TRUE(check_conformance(record_order(bad), options).monitor.certified)
        << what << " seed " << seed;
    EXPECT_FALSE(report.monitor.certified)
        << what << " seed " << seed << " went unnoticed\n" << bad.str();
    EXPECT_EQ(report.monitor.kind, CertFlagKind::kReadStampMismatch)
        << what << " seed " << seed << ": " << report.monitor.reason;
    EXPECT_EQ(report.exact, Verdict::kYes) << what << " seed " << seed;
  };
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    ScheduleParams p = schedule_params(seed);
    p.write_prob = 0.6;
    const History h = record_schedule("dstm", p, /*window_free=*/true);

    // (a) Lying orec version: the value still resolves, only the
    // version-identity cross-check can object.
    {
      History bad(h.model());
      bool done = false;
      for (const Event& e : h.events()) {
        Event copy = e;
        if (!done && e.kind == EventKind::kResponse && e.op == OpCode::kRead &&
            e.stamp != 0 && e.ver != kNoReadVersion) {
          copy.ver = e.ver + 7;
          done = true;
        }
        bad.append(copy);
      }
      if (done) {
        ++lying_ver;
        check_caught(bad, seed, "lying orec ver");
      }
    }

    // (b) Stolen-orec stamp replay: a read claims a snapshot predating the
    // version it resolves to (stamp 1 = "before any commit"), the shape a
    // stamp copied from before the orec was rewritten would take. Needs a
    // read of a non-initial version (ver > 0), so the open rank 2·ver
    // exceeds the replayed snapshot.
    {
      History bad(h.model());
      bool done = false;
      for (const Event& e : h.events()) {
        Event copy = e;
        if (!done && e.kind == EventKind::kResponse && e.op == OpCode::kRead &&
            e.stamp != 0 && e.ver != kNoReadVersion && e.ver > 0) {
          copy.stamp = 1;
          done = true;
        }
        bad.append(copy);
      }
      if (done) {
        ++replayed_stamp;
        check_caught(bad, seed, "replayed stamp");
      }
    }

    // (c) The 2·ver wrap attack, from the orec stamp source: ver = 2^63 +
    // true_ver would alias back to the true open rank without the shared
    // magnitude guard (core::read_stamp_names_version).
    {
      History bad(h.model());
      bool done = false;
      for (const Event& e : h.events()) {
        Event copy = e;
        if (!done && e.kind == EventKind::kResponse && e.op == OpCode::kRead &&
            e.stamp != 0 && e.ver != kNoReadVersion) {
          copy.ver = e.ver + (std::uint64_t{1} << 63);
          done = true;
        }
        bad.append(copy);
      }
      if (done) {
        ++wrapped_ver;
        check_caught(bad, seed, "wrapped ver");
      }
    }
  }
  // The write-heavy schedules must surface enough stamped reads (and
  // non-initial versions) for each corruption shape to be exercised.
  EXPECT_GE(lying_ver, 25u);
  EXPECT_GE(replayed_stamp, 15u);
  EXPECT_GE(wrapped_ver, 25u);
}

// The drift shapes window-free recording actually produces, hand-built so
// they are exercised deterministically even on a single-core runner:
// T_a (wv=2) and T_b (wv=3) commit disjoint registers with their C records
// INVERTED (T_a descheduled between its clock advance and its push), and a
// reader at snapshot rv=2 whose x1 response drifted past T_b's closing C.
// In record order the reader's window is empty — the record_order() copy
// falsely flags — but the stamps place every read inside its version's
// stamp interval and the snapshot point 2·rv+1=5 inside the window, so the
// monitor certifies what the exact checker confirms is opaque.
TEST(ConformanceFuzz, DriftedTl2RecordsCertifyOnStampsNotPositions) {
  History h(ObjectModel::registers(2, 0));
  // T0 commits x1=5 (wv=1, stamp 2).
  h.append(ev::inv(1, 1, OpCode::kWrite, 5)).append(ev::ret(1, 1, OpCode::kWrite, 5, 0));
  h.append(ev::try_commit(1)).append(ev::commit(1, 2));
  // Reader T4 invokes its x1 read and samples 5 BEFORE T_b locks x1...
  h.append(ev::inv(4, 1, OpCode::kRead));
  // ...then T_a (wv=2, x0=7) and T_b (wv=3, x1=9) commit, records inverted.
  h.append(ev::inv(2, 0, OpCode::kWrite, 7)).append(ev::ret(2, 0, OpCode::kWrite, 7, 0));
  h.append(ev::try_commit(2));
  h.append(ev::inv(3, 1, OpCode::kWrite, 9)).append(ev::ret(3, 1, OpCode::kWrite, 9, 0));
  h.append(ev::try_commit(3)).append(ev::commit(3, 6));
  h.append(ev::commit(2, 4));
  // The reader's drifted x1 response (rv=2, version 1), then its x0 read
  // of T_a's version, then its read-only commit at the snapshot point.
  h.append(ev::ret(4, 1, OpCode::kRead, 0, 5, /*stamp=*/5, /*ver=*/1));
  h.append(ev::inv(4, 0, OpCode::kRead));
  h.append(ev::ret(4, 0, OpCode::kRead, 0, 7, /*stamp=*/5, /*ver=*/2));
  h.append(ev::try_commit(4)).append(ev::commit(4, 5));

  ConformanceOptions options;
  const ConformanceReport report = check_conformance(h, options);
  ASSERT_TRUE(report.ok) << report.divergence << "\n" << h.str();
  EXPECT_TRUE(report.monitor.certified) << h.str();
  ASSERT_EQ(report.exact, Verdict::kYes) << report.exact_reason;

  // The record order's false flag is the snapshot-empty kind, at the
  // drifted response, and adjudicates kYes.
  const ConformanceReport unstamped = check_conformance(record_order(h), options);
  ASSERT_TRUE(unstamped.ok) << unstamped.divergence;
  ASSERT_FALSE(unstamped.monitor.certified)
      << "the drift should empty the record-order window";
  EXPECT_EQ(unstamped.monitor.kind, CertFlagKind::kSnapshotEmpty)
      << unstamped.monitor.reason;
  EXPECT_EQ(unstamped.adjudication, Verdict::kYes);
}

// --- genuinely concurrent recordings ----------------------------------------
//
// Real threads, real drift: without windows a read response can land after
// the C that overwrote its version, and C records can land out of wv
// order. The monitor must certify anyway (this is the TSan
// surface for the dropped window lock, too — including the orec runtimes'
// kCommitting hand-off and MvStm's lock → ticket → validate commit).
TEST(ConformanceFuzz, ConcurrentWindowFreeRunsCertify) {
  for (const char* name : {"tl2", "tiny", "norec", "dstm", "astm", "mv"}) {
    for (const bool window_free : {false, true}) {
      const auto stm = stm::make_stm(name, 8);
      ASSERT_TRUE(stm->set_window_free(window_free)) << name;
      stm::Recorder recorder(8);
      stm->set_recorder(&recorder);

      wl::MixParams params;
      params.threads = 3;
      params.vars = 8;
      params.txs_per_thread = 80;
      params.seed = 31337 + (window_free ? 1 : 0);
      (void)wl::run_random_mix(*stm, params);

      const History h = recorder.history();
      std::string why;
      ASSERT_TRUE(h.well_formed(&why)) << name << ": " << why;

      ConformanceOptions options;
      options.exact_max_txs = 0;  // exponential checker: recordings too big
      const ConformanceReport report = check_conformance(h, options);
      ASSERT_TRUE(report.ok)
          << name << (window_free ? " window-free" : " windowed") << ": "
          << report.divergence;
      EXPECT_TRUE(report.monitor.certified)
          << name << (window_free ? " window-free" : " windowed")
          << ": flagged at " << report.monitor.pos << ": "
          << report.monitor.reason;
      if (!window_free) {
        // The window keeps record order and stamp order together.
        EXPECT_TRUE(
            check_conformance(record_order(h), options).monitor.certified)
            << name << " windowed, record order";
      }
    }
  }
}

// Window-free recording under real concurrency, through the shared
// DrainPump loop: producers record while the pump drains mid-run, and a
// small max_pending makes the drains capped while the producers are still
// recording. The monitor must certify, the pump must see every recorded
// event exactly once, and the offline stack must agree on the assembled
// history. This is the TSan surface for a capped drain racing the
// producers — it rides the conformance_fuzz_test TSan CI job.
TEST(ConformanceFuzz, ConcurrentWindowFreeRunsCertifyThroughCappedDrainPump) {
  for (const char* name : {"tl2", "dstm"}) {
    const auto stm = stm::make_stm(name, 8);
    ASSERT_TRUE(stm->set_window_free(true)) << name;
    stm::Recorder recorder(8);
    stm->set_recorder(&recorder);

    core::OnlineCertificateMonitor monitor(recorder.model());
    History h(recorder.model());
    stm::MonitorSink monitor_sink(monitor);
    stm::HistoryAppendSink history_sink(h);
    stm::TeeSink tee{&monitor_sink, &history_sink};

    std::atomic<bool> done{false};
    constexpr std::size_t kMaxPending = 64;
    stm::DrainPump pump(recorder, tee, kMaxPending);
    stm::DrainPump::Stats stats;
    std::thread verifier([&] { stats = pump.run(done); });

    wl::MixParams params;
    params.threads = 3;
    params.vars = 8;
    params.txs_per_thread = 200;
    params.seed = 4245;
    (void)wl::run_random_mix(*stm, params);
    done.store(true, std::memory_order_release);
    verifier.join();

    EXPECT_TRUE(stats.sink_ok) << name;
    EXPECT_EQ(stats.events, recorder.num_events())
        << name << ": the pump lost or duplicated events";
    EXPECT_LE(stats.max_batch, kMaxPending) << name;
    EXPECT_TRUE(monitor.ok())
        << name << ": flagged at " << monitor.violation()->pos << ": "
        << monitor.violation()->reason;

    std::string why;
    ASSERT_TRUE(h.well_formed(&why)) << name << ": " << why;
    ConformanceOptions options;
    options.exact_max_txs = 0;  // exponential checker: recordings too big
    const ConformanceReport report = check_conformance(h, options);
    ASSERT_TRUE(report.ok) << name << ": " << report.divergence;
    EXPECT_TRUE(report.monitor.certified)
        << name << ": flagged at " << report.monitor.pos << ": "
        << report.monitor.reason;
  }
}

// --- the random_*_history generators ----------------------------------------

TEST(ConformanceFuzz, RandomHistoriesConform) {
  ConformanceOptions options;
  for (const ValueModel model :
       {ValueModel::kCoherent, ValueModel::kAdversarial}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      RandomHistoryParams params;
      params.seed = seed;
      params.num_txs = 8;
      params.num_objects = 4;
      params.value_model = model;
      const History h = random_history(params);
      const ConformanceReport report = check_conformance(h, options);
      EXPECT_TRUE(report.ok) << "seed " << seed << ": " << report.divergence
                             << "\n" << h.str();
    }
  }
}

TEST(ConformanceFuzz, MvHistoriesConformAndCertify) {
  ConformanceOptions options;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    MvHistoryParams params;
    params.seed = seed;
    params.num_txs = 10;
    params.num_objects = 3;
    params.num_procs = 4;
    const History h = random_mv_history(params);
    const ConformanceReport report = check_conformance(h, options);
    ASSERT_TRUE(report.ok) << "seed " << seed << ": " << report.divergence
                           << "\n" << h.str();
    // The stamps certify what the record order may flag.
    EXPECT_TRUE(report.monitor.certified) << "seed " << seed;
  }
}

}  // namespace
}  // namespace optm::core
