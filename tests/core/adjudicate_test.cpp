// adjudicate(): a certificate flag turned into a verdict on the flagged
// prefix h[0..pos] — kNo by the flag's kind alone, kNo from the flagged
// transaction's reads-from closure (however large the prefix), or
// Definition 1 on the whole prefix — and never a verdict Definition 1
// contradicts.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/adjudicate.hpp"
#include "core/builder.hpp"
#include "core/online.hpp"
#include "core/opacity.hpp"
#include "core/paper.hpp"
#include "sim/thread_ctx.hpp"
#include "stm/factory.hpp"
#include "stm/recorder.hpp"
#include "util/rng.hpp"

namespace optm::core {
namespace {

[[nodiscard]] OnlineViolation first_flag(const History& h) {
  OnlineCertificateMonitor m(h.model());
  (void)m.ingest(h.events());
  EXPECT_FALSE(m.ok()) << h.str();
  return m.ok() ? OnlineViolation{} : *m.violation();
}

[[nodiscard]] History prefix_of(const History& h, std::size_t pos) {
  History prefix(h.model());
  for (std::size_t i = 0; i <= pos; ++i) prefix.append(h[i]);
  return prefix;
}

TEST(Adjudicate, PaperH1IsNotOpaque) {
  const History h1 = paper::fig1_h1();
  const OnlineViolation flag = first_flag(h1);
  const Adjudication a = adjudicate(h1, flag);
  EXPECT_EQ(a.verdict, Verdict::kNo) << a.reason;
  EXPECT_FALSE(a.witness.empty());
  EXPECT_EQ(check_opacity(prefix_of(h1, flag.pos)).verdict, Verdict::kNo);
}

TEST(Adjudicate, CommitPendingReadOfH4IsOpaque) {
  // T3 reads the value of commit-pending T2: the certificate flags it
  // conservatively, Definition 1 lets T2 commit.
  const History h4 = paper::h4();
  const OnlineViolation flag = first_flag(h4);
  ASSERT_EQ(flag.kind, CertFlagKind::kReadFromNonCommitted);
  const Adjudication a = adjudicate(h4, flag);
  EXPECT_EQ(a.verdict, Verdict::kYes) << a.reason;
  // The witness is the legal sequential history Definition 1 asks for.
  std::string why;
  EXPECT_TRUE(a.witness.is_sequential(&why)) << why;
}

TEST(Adjudicate, SmallClosureDecidesAPrefixTooLargeForTheExactChecker) {
  // 70 committed writers of register 2 that nobody reads, then the §2
  // shape on registers 0 and 1: T101 reads x before and y after T102's
  // commit of both. The prefix has 72 transactions, past the exact
  // checker's 64; T101's reads-from closure is {T101, T102}.
  HistoryBuilder b = HistoryBuilder::registers(3);
  for (TxId t = 1; t <= 70; ++t) b.write(t, 2, 1000 + t).commit_now(t);
  b.read(101, 0, 0);
  b.write(102, 0, 1).write(102, 1, 2).commit_now(102);
  b.read(101, 1, 2);
  const History h = b.build();

  const OnlineViolation flag = first_flag(h);
  ASSERT_EQ(flag.kind, CertFlagKind::kSnapshotEmpty);
  ASSERT_GT(prefix_of(h, flag.pos).transactions().size(), 64u);
  const Adjudication a = adjudicate(h, flag);
  EXPECT_EQ(a.verdict, Verdict::kNo) << a.reason;
  EXPECT_NE(a.reason.find("reads-from closure"), std::string::npos) << a.reason;
  EXPECT_EQ(a.witness.transactions(), (std::vector<TxId>{101, 102}));
}

TEST(Adjudicate, LargePrefixWithAnOpaqueClosureIsUnknown) {
  // The same 70 writers, then a flag that is a false alarm: T101 read x
  // before T102 overwrote it and commits an update after — serializable
  // before T102. The closure is opaque and the prefix too large.
  HistoryBuilder b = HistoryBuilder::registers(3);
  for (TxId t = 1; t <= 70; ++t) b.write(t, 2, 1000 + t).commit_now(t);
  b.read(101, 0, 0);
  b.write(102, 0, 1).commit_now(102);
  b.write(101, 1, 5).commit_now(101);
  const History h = b.build();

  const OnlineViolation flag = first_flag(h);
  ASSERT_EQ(flag.kind, CertFlagKind::kNotCurrentAtCommit);
  const Adjudication a = adjudicate(h, flag);
  EXPECT_EQ(a.verdict, Verdict::kUnknown) << a.reason;
  EXPECT_TRUE(a.witness.empty());
}

TEST(Adjudicate, TinyBudgetIsUnknown) {
  const History h4 = paper::h4();
  OpacityOptions budget;
  budget.max_states = 1;
  const Adjudication a = adjudicate(h4, first_flag(h4), budget);
  EXPECT_EQ(a.verdict, Verdict::kUnknown) << a.reason;
}

TEST(Adjudicate, FirstFlagOfAWeakRuntimeScheduleMatchesDefinition1) {
  // Three processes on the weak runtime (no read-time validation),
  // interleaved at operation granularity under a fixed seed until the
  // certificate flags.
  constexpr std::uint32_t kProcs = 3;
  constexpr stm::VarId kVars = 3;
  const auto weak = stm::make_stm("weak", kVars);
  stm::Recorder recorder(kVars);
  weak->set_recorder(&recorder);
  util::Xoshiro256 rng(1);
  std::unique_ptr<sim::ThreadCtx> ctx[kProcs];
  bool active[kProcs] = {};
  std::uint64_t next_value = 0;
  for (std::uint32_t i = 0; i < kProcs; ++i) {
    ctx[i] = std::make_unique<sim::ThreadCtx>(i);
  }
  for (int step = 0; step < 120; ++step) {
    const auto p = static_cast<std::uint32_t>(rng.below(kProcs));
    if (!active[p]) {
      weak->begin(*ctx[p]);
      active[p] = true;
      continue;
    }
    const std::uint64_t dice = rng.below(100);
    const auto var = static_cast<stm::VarId>(rng.below(kVars));
    std::uint64_t out = 0;
    if (dice < 25) {
      (void)weak->commit(*ctx[p]);
      active[p] = false;
    } else if (dice < 65) {
      active[p] = weak->read(*ctx[p], var, out);
    } else {
      active[p] = weak->write(*ctx[p], var, ++next_value);
    }
  }

  const History h = recorder.history();
  const OnlineViolation flag = first_flag(h);
  const History prefix = prefix_of(h, flag.pos);
  ASSERT_LE(prefix.transactions().size(), 64u);
  const Adjudication a = adjudicate(h, flag);
  EXPECT_EQ(a.verdict, Verdict::kNo) << a.reason << "\n" << prefix.str();
  EXPECT_EQ(a.verdict, check_opacity(prefix).verdict);
}

TEST(Adjudicate, PaperHistoryFlagsMatchDefinition1UnderEveryPolicy) {
  const History corpus[] = {
      paper::fig1_h1(),
      paper::h2(),
      paper::h3(),
      paper::h4(),
      paper::fig2_h5(),
      paper::section2_zombie(),
      paper::register_increments_all_commit(3),
      paper::register_increments_one_commits(3),
      paper::blind_overlapping_writes(4),
  };
  std::size_t flags = 0;
  for (const History& h : corpus) {
    for (const VersionOrderPolicy policy :
         {VersionOrderPolicy::kCommitOrder, VersionOrderPolicy::kBlindWriteSmart,
          VersionOrderPolicy::kSnapshotRank, VersionOrderPolicy::kStampedRead}) {
      OnlineCertificateMonitor m(h.model(), policy);
      (void)m.ingest(h.events());
      if (m.ok()) continue;
      ++flags;
      const OpacityResult exact = check_opacity(prefix_of(h, m.violation()->pos));
      ASSERT_NE(exact.verdict, Verdict::kUnknown);
      const Adjudication a = adjudicate(h, *m.violation());
      EXPECT_EQ(a.verdict, exact.verdict)
          << to_string(policy) << ": " << a.reason << "\n" << h.str();
    }
  }
  // H1, H4, the zombie and the all-commit increments flag under every
  // policy.
  EXPECT_GE(flags, 16u);
}

TEST(Adjudicate, FlagPastTheHistoryThrows) {
  const History h1 = paper::fig1_h1();
  EXPECT_THROW((void)adjudicate(h1, OnlineViolation{h1.size(), "", {}}),
               std::out_of_range);
}

}  // namespace
}  // namespace optm::core
