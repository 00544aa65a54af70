// Abort-path stamp soundness for the ownership-record runtimes: when a
// dstm/astm transaction loses an orec mid-flight (a contention-manager
// kill followed by a steal), its recorded events — stamped reads included
// — must never make a committed read validate against the stolen version.
//
// The mechanism under test (the orec-stamp story, stm/dstm.hpp): stealing
// requires the victim's status word to read kAborted, so the victim's C
// is never recorded and its buffered writes never become a version word.
// Value-unique writes make the check airtight on the recording itself: a
// committed transaction's read may only ever return a value written by a
// COMMITTED transaction (or the initializer), and the stamp-order
// certificate — monitor and the exact checker agreeing via
// core::check_conformance — must certify the window-free recording.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/conformance.hpp"
#include "sim/thread_ctx.hpp"
#include "stm/factory.hpp"
#include "stm/recorder.hpp"
#include "util/rng.hpp"

namespace optm::stm {
namespace {

/// Every committed transaction's non-local read must resolve to the
/// initializer or a committed writer — an aborted victim's buffered value
/// leaking into a committed read set would surface here by value
/// uniqueness. Returns the number of committed reads checked.
std::size_t assert_no_stolen_reads(const core::History& h,
                                   const std::string& label) {
  std::map<std::uint64_t, core::TxId> writer_of;  // value -> writing tx
  std::set<core::TxId> committed;
  for (const core::Event& e : h.events()) {
    if (e.kind == core::EventKind::kResponse &&
        e.op == core::OpCode::kWrite) {
      writer_of[e.arg] = e.tx;
    } else if (e.kind == core::EventKind::kCommit) {
      committed.insert(e.tx);
    }
  }
  std::size_t checked = 0;
  for (const core::Event& e : h.events()) {
    if (e.kind != core::EventKind::kResponse ||
        e.op != core::OpCode::kRead || committed.count(e.tx) == 0) {
      continue;
    }
    if (e.ret == 0) continue;  // the initializer's value
    ++checked;
    const auto w = writer_of.find(e.ret);
    EXPECT_TRUE(w != writer_of.end())
        << label << ": committed T" << e.tx << " read unwritten value "
        << e.ret << "\n" << h.str();
    if (w == writer_of.end()) continue;
    EXPECT_TRUE(committed.count(w->second) != 0)
        << label << ": committed T" << e.tx << " read " << e.ret
        << " buffered by ABORTED T" << w->second
        << " — a stolen orec's write leaked\n" << h.str();
  }
  return checked;
}

// The canonical steal, interleaved by hand: P1 acquires x at its write
// (dstm and astm-eager acquire eagerly), P2's conflicting write duels
// through the aggressive contention manager, kills P1 and steals the
// orec, then commits. P1 is doomed from the kill onward; the reader must
// see P2's value, never P1's buffered one.
class OrecStealHandBuilt : public ::testing::TestWithParam<std::string> {};

TEST_P(OrecStealHandBuilt, StolenOrecNeverValidatesForTheVictim) {
  const auto stm = make_stm(GetParam(), 4);
  ASSERT_TRUE(stm->set_window_free(true)) << GetParam();
  Recorder recorder(4);
  stm->set_recorder(&recorder);

  sim::ThreadCtx victim(0);
  sim::ThreadCtx rival(1);
  sim::ThreadCtx reader(2);

  stm->begin(victim);
  std::uint64_t out = 0;
  ASSERT_TRUE(stm->read(victim, 1, out));     // a stamped read pre-kill
  ASSERT_TRUE(stm->write(victim, 0, 7));      // acquires x0's orec

  stm->begin(rival);
  ASSERT_TRUE(stm->write(rival, 0, 9));       // kill + steal via the CM
  ASSERT_TRUE(stm->commit(rival));

  // The victim lost its orec mid-flight: every further operation fails
  // (dstm notices through the validation status check; astm at commit).
  const bool survived_read = stm->read(victim, 2, out);
  if (survived_read) {
    EXPECT_FALSE(stm->commit(victim));
  }

  stm->begin(reader);
  ASSERT_TRUE(stm->read(reader, 0, out));
  EXPECT_EQ(out, 9u) << "the stolen orec's buffered value leaked";
  ASSERT_TRUE(stm->commit(reader));

  const core::History h = recorder.history();
  std::string why;
  ASSERT_TRUE(h.well_formed(&why)) << why;
  EXPECT_TRUE(h.is_committed(2));             // the rival
  EXPECT_TRUE(h.is_aborted(1));               // the victim
  EXPECT_TRUE(h.is_forcefully_aborted(1));
  EXPECT_GT(assert_no_stolen_reads(h, GetParam()), 0u);

  const core::ConformanceReport report = core::check_conformance(h);
  ASSERT_TRUE(report.ok) << report.divergence << "\n" << h.str();
  EXPECT_TRUE(report.monitor.certified) << h.str();
  EXPECT_EQ(report.exact, core::Verdict::kYes) << report.exact_reason;
}

INSTANTIATE_TEST_SUITE_P(Stms, OrecStealHandBuilt,
                         ::testing::Values("dstm", "astm-eager"),
                         [](const auto& inf) {
                           std::string name = inf.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// Fuzzed steal schedules: write-heavy deterministic interleavings where
// the aggressive CM keeps killing live owners mid-flight. Across the seed
// sweep the schedules must produce a healthy number of mid-flight kills
// of transactions that had already acquired orecs (the steal precursors),
// and every window-free recording must conform and certify with the
// exact checker agreeing.
class OrecStealFuzz : public ::testing::TestWithParam<std::string> {};

TEST_P(OrecStealFuzz, KilledOwnersNeverLeakIntoCommittedReads) {
  constexpr std::uint32_t kProcs = 3;
  constexpr std::uint32_t kVars = 3;
  std::size_t owners_killed = 0;
  std::size_t committed_reads = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const auto stm = make_stm(GetParam(), kVars);
    ASSERT_TRUE(stm->set_window_free(true)) << GetParam();
    Recorder recorder(kVars);
    stm->set_recorder(&recorder);

    struct Proc {
      std::unique_ptr<sim::ThreadCtx> ctx;
      std::uint32_t txs_done = 0;
      std::uint32_t ops_left = 0;
      bool in_tx = false;
      bool wrote = false;  // acquired at least one orec this transaction
    };
    std::vector<Proc> procs(kProcs);
    for (std::uint32_t i = 0; i < kProcs; ++i) {
      procs[i].ctx = std::make_unique<sim::ThreadCtx>(i);
    }
    util::Xoshiro256 rng(seed);
    std::uint64_t unique = 0;
    for (;;) {
      std::vector<std::uint32_t> ready;
      for (std::uint32_t i = 0; i < kProcs; ++i) {
        if (procs[i].in_tx || procs[i].txs_done < 3) ready.push_back(i);
      }
      if (ready.empty()) break;
      Proc& p = procs[ready[rng.below(ready.size())]];
      sim::ThreadCtx& ctx = *p.ctx;
      if (!p.in_tx) {
        stm->begin(ctx);
        p.in_tx = true;
        p.wrote = false;
        p.ops_left = 1 + static_cast<std::uint32_t>(rng.below(3));
        continue;
      }
      if (p.ops_left > 0) {
        --p.ops_left;
        const auto var = static_cast<VarId>(rng.below(kVars));
        bool ok = false;
        if (rng.chance(0.7)) {  // write-heavy: force acquisition duels
          ok = stm->write(ctx, var, 1000 + ++unique);
          if (ok) p.wrote = true;
        } else {
          std::uint64_t out = 0;
          ok = stm->read(ctx, var, out);
        }
        if (!ok) {
          // Killed mid-flight; with orecs already acquired this is the
          // steal scenario the test is about.
          if (p.wrote) ++owners_killed;
          p.in_tx = false;
          ++p.txs_done;
        }
        continue;
      }
      (void)stm->commit(ctx);
      p.in_tx = false;
      ++p.txs_done;
    }

    const core::History h = recorder.history();
    std::string why;
    ASSERT_TRUE(h.well_formed(&why)) << GetParam() << " seed " << seed
                                     << ": " << why;
    committed_reads += assert_no_stolen_reads(
        h, GetParam() + std::string(" seed ") + std::to_string(seed));

    const core::ConformanceReport report = core::check_conformance(h);
    ASSERT_TRUE(report.ok) << GetParam() << " seed " << seed << ": "
                           << report.divergence << "\n" << h.str();
    EXPECT_TRUE(report.monitor.certified)
        << GetParam() << " seed " << seed << "\n" << h.str();
    if (report.exact != core::Verdict::kUnknown) {
      EXPECT_EQ(report.exact, core::Verdict::kYes)
          << GetParam() << " seed " << seed << ": " << report.exact_reason;
    }
  }
  // The sweep must actually exercise the path it claims to test (the
  // seeded schedules produce ~18 mid-flight owner kills per runtime).
  EXPECT_GE(owners_killed, 15u) << GetParam();
  EXPECT_GE(committed_reads, 30u) << GetParam();
}

// Eager acquirers only: mid-flight kills need a live owner for the rival
// to duel, and in deterministic single-thread driving a lazy acquirer
// holds orecs only inside commit() — which runs to completion atomically
// — so it can never be stolen from mid-flight. (Lazy and adaptive astm
// still record and certify these schedules; the conformance equivalence
// suite covers them.)
INSTANTIATE_TEST_SUITE_P(Stms, OrecStealFuzz,
                         ::testing::Values("dstm", "astm-eager"),
                         [](const auto& inf) {
                           std::string name = inf.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace optm::stm
