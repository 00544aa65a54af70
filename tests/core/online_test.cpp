// Online opacity monitors: the §5.2 prefix discipline made streaming.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/builder.hpp"
#include "core/online.hpp"
#include "core/opacity.hpp"
#include "core/object_spec.hpp"
#include "core/paper.hpp"
#include "core/random_history.hpp"

namespace optm::core {
namespace {

// Feed a full history into a monitor; return the violation (if any).
template <typename Monitor>
std::optional<OnlineViolation> run_monitor(Monitor& m, const History& h) {
  for (const Event& e : h.events()) (void)m.feed(e);
  return m.violation();
}

// --- definitional backend ---------------------------------------------------------

TEST(OnlineDefinitional, AcceptsTheOpaquePaperHistoryH5) {
  const History h5 = paper::fig2_h5();
  OnlineDefinitionalMonitor m(h5.model());
  EXPECT_FALSE(run_monitor(m, h5).has_value());
  EXPECT_EQ(m.events_fed(), h5.size());
}

TEST(OnlineDefinitional, FlagsFigure1AtTheSecondRead) {
  // H1 (Figure 1) is the paper's separating example: T2's second read makes
  // the torn snapshot visible. The monitor pinpoints exactly that response.
  const History h1 = paper::fig1_h1();
  OnlineDefinitionalMonitor m(h1.model());
  const auto v = run_monitor(m, h1);
  ASSERT_TRUE(v.has_value());
  const Event& e = h1[v->pos];
  EXPECT_EQ(e.kind, EventKind::kResponse);
  EXPECT_EQ(e.tx, 2u);
  EXPECT_EQ(e.ret, 2);  // read2(y -> 2): the inconsistent value
}

TEST(OnlineDefinitional, ViolationIsSticky) {
  const History h1 = paper::fig1_h1();
  OnlineDefinitionalMonitor m(h1.model());
  (void)run_monitor(m, h1);
  ASSERT_TRUE(m.violation().has_value());
  const std::size_t pos = m.violation()->pos;
  EXPECT_FALSE(m.feed(ev::try_commit(42)));
  EXPECT_EQ(m.violation()->pos, pos);  // first violation is kept
  EXPECT_EQ(m.events_fed(), h1.size() + 1);  // but events keep being recorded
}

TEST(OnlineDefinitional, FlagsIllFormedStream) {
  OnlineDefinitionalMonitor m(ObjectModel::registers(1));
  EXPECT_TRUE(m.feed(ev::inv(1, 0, OpCode::kRead)));
  // A second invocation without a response is not well-formed.
  EXPECT_FALSE(m.feed(ev::inv(1, 0, OpCode::kRead)));
  ASSERT_TRUE(m.violation().has_value());
  EXPECT_NE(m.violation()->reason.find("well-formed"), std::string::npos);
}

TEST(OnlineDefinitional, PrefixSubtletyDirtyReadFromLaterCommitter) {
  // The §5.2 prefix discipline: T10 commits having read live T1's write.
  // The COMPLETE history is opaque (T1 commits in the end), but the online
  // monitor — which judges every prefix as the run unfolds — condemns the
  // read response itself.
  const History h = HistoryBuilder::registers(1)
                        .write(1, 0, 7)
                        .read(10, 0, 7)
                        .commit_now(10)
                        .commit_now(1)
                        .build();
  EXPECT_EQ(check_opacity(h).verdict, Verdict::kYes);  // whole history: fine
  OnlineDefinitionalMonitor m(h.model());
  const auto v = run_monitor(m, h);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(h[v->pos].tx, 10u);
  EXPECT_EQ(h[v->pos].kind, EventKind::kResponse);
}

// --- certificate backend ----------------------------------------------------------

TEST(OnlineCertificate, AcceptsCommittedSequentialRun) {
  OnlineCertificateMonitor m(ObjectModel::registers(2));
  const History h = HistoryBuilder::registers(2)
                        .write(1, 0, 5)
                        .write(1, 1, 6)
                        .commit_now(1)
                        .read(2, 0, 5)
                        .read(2, 1, 6)
                        .commit_now(2)
                        .build();
  EXPECT_FALSE(run_monitor(m, h).has_value());
  EXPECT_EQ(m.commits_seen(), 1u);  // only T1 wrote
}

TEST(OnlineCertificate, RequiresRegisterModel) {
  OnlineCertificateMonitor ok(ObjectModel::registers(1));
  (void)ok;
  // A counter object is rejected (§5.4 applies to registers).
  ObjectModel counters;
  counters.add(std::make_shared<CounterSpec>());
  EXPECT_THROW(OnlineCertificateMonitor bad(counters), std::invalid_argument);
}

TEST(OnlineCertificate, FlagsTornSnapshotAtTheRead) {
  // The §2 zombie, in WeakStm shape: T1 reads old x, T2 commits {x,y}, T1
  // reads new y. Flagged at T1's second read response.
  const History h = HistoryBuilder::registers(2)
                        .read(1, 0, 0)
                        .write(2, 0, 1)
                        .write(2, 1, 2)
                        .commit_now(2)
                        .read(1, 1, 2)  // torn: old x with new y
                        .build();
  OnlineCertificateMonitor m(h.model());
  const auto v = run_monitor(m, h);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(h[v->pos].tx, 1u);
  EXPECT_EQ(h[v->pos].ret, 2);
  EXPECT_NE(v->reason.find("consistent snapshot"), std::string::npos);
}

TEST(OnlineCertificate, FlagsDirtyRead) {
  const History h = HistoryBuilder::registers(1)
                        .write(1, 0, 7)
                        .read(2, 0, 7)  // T1 has not committed
                        .build();
  OnlineCertificateMonitor m(h.model());
  const auto v = run_monitor(m, h);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->reason.find("non-committed"), std::string::npos);
}

TEST(OnlineCertificate, FlagsStaleReadAsRealTimeViolation) {
  // T2 commits x:=1 BEFORE T1's first event; T1 then reads the initial 0.
  // ≺_H forces T2 before T1, so the stale read is condemned — exactly the
  // situation the lazy-snapshot fix in MvStm/SiStm prevents.
  const History h = HistoryBuilder::registers(1)
                        .write(2, 0, 1)
                        .commit_now(2)
                        .read(1, 0, 0)
                        .build();
  OnlineCertificateMonitor m(h.model());
  const auto v = run_monitor(m, h);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->reason.find("real-time"), std::string::npos);
}

TEST(OnlineCertificate, AdmitsOldSnapshotWhenReaderWasBornBeforeWriter) {
  // Multi-version freedom (H4-flavoured): T1's first read precedes T2's
  // commit, so T1 may keep reading its old snapshot after T2 commits.
  const History h = HistoryBuilder::registers(2)
                        .read(1, 0, 0)  // T1 born before T2's commit
                        .write(2, 0, 1)
                        .write(2, 1, 2)
                        .commit_now(2)
                        .read(1, 1, 0)  // old y: consistent with old x
                        .commit_now(1)  // read-only: commits
                        .build();
  OnlineCertificateMonitor m(h.model());
  EXPECT_FALSE(run_monitor(m, h).has_value());
}

TEST(OnlineCertificate, FlagsWriteSkewAtTheSecondCommit) {
  // SiStm's signature anomaly: both read {x,y}, write disjoint variables,
  // both try to commit. The second commit is the certificate violation.
  const History h = HistoryBuilder::registers(2)
                        .write(9, 0, 1)
                        .write(9, 1, 1)
                        .commit_now(9)
                        .read(1, 0, 1)
                        .read(1, 1, 1)
                        .read(2, 0, 1)
                        .read(2, 1, 1)
                        .write(1, 0, 100)  // T1 zeroes x (value-unique: 100)
                        .write(2, 1, 200)  // T2 zeroes y
                        .commit_now(1)
                        .commit_now(2)
                        .build();
  OnlineCertificateMonitor m(h.model());
  const auto v = run_monitor(m, h);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(h[v->pos].kind, EventKind::kCommit);
  EXPECT_EQ(h[v->pos].tx, 2u);
  EXPECT_NE(v->reason.find("not current at commit"), std::string::npos);
}

TEST(OnlineCertificate, AbortedReaderOfStableSnapshotIsClean) {
  const History h = HistoryBuilder::registers(2)
                        .read(1, 0, 0)
                        .read(1, 1, 0)
                        .trya(1)
                        .abort(1)
                        .build();
  OnlineCertificateMonitor m(h.model());
  EXPECT_FALSE(run_monitor(m, h).has_value());
}

TEST(OnlineCertificate, LocalReadMustReturnOwnWrite) {
  const History h = HistoryBuilder::registers(1)
                        .write(1, 0, 5)
                        .read(1, 0, 0)  // ignores its own write
                        .build();
  OnlineCertificateMonitor m(h.model());
  const auto v = run_monitor(m, h);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->reason.find("local consistency"), std::string::npos);
}

TEST(OnlineCertificate, ValueUniqueWritesEnforced) {
  const History h = HistoryBuilder::registers(1)
                        .write(1, 0, 5)
                        .commit_now(1)
                        .write(2, 0, 5)  // same value, different writer
                        .build();
  OnlineCertificateMonitor m(h.model());
  const auto v = run_monitor(m, h);
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->reason.find("value-unique"), std::string::npos);
}

TEST(OnlineCertificate, ReadOfNeverInstalledOverwrittenValueFlagged) {
  // T1 writes 5 then 6 to x before committing: only 6 is ever installed.
  // T2's read of 5 observes a value that was never current: its writer
  // committed, so the flag is the value's empty interval at the read.
  const History h = HistoryBuilder::registers(1)
                        .write(1, 0, 5)
                        .write(1, 0, 6)
                        .commit_now(1)
                        .read(2, 0, 5)
                        .build();
  OnlineCertificateMonitor m(h.model());
  const auto v = run_monitor(m, h);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, CertFlagKind::kSnapshotEmpty) << v->reason;
  EXPECT_EQ(v->pos, h.size() - 1);
}

// w1(x0,1) w1(x0,2) tryC1, then C1 or A1, then r2(x0)->1: T2 reads the
// value T1 overwrote itself, which was never installed. Whether T1
// committed decides the flag — kSnapshotEmpty (a committed writer, empty
// interval) or kReadFromNonCommitted — so "committed" cannot be inferred
// from "installed".
[[nodiscard]] History read_of_superseded_value(bool writer_commits) {
  History h(ObjectModel::registers(1));
  h.append(ev::inv(1, 0, OpCode::kWrite, 1))
      .append(ev::ret(1, 0, OpCode::kWrite, 1, 0))
      .append(ev::inv(1, 0, OpCode::kWrite, 2))
      .append(ev::ret(1, 0, OpCode::kWrite, 2, 0))
      .append(ev::try_commit(1))
      .append(writer_commits ? ev::commit(1) : ev::abort(1))
      .append(ev::inv(2, 0, OpCode::kRead))
      .append(ev::ret(2, 0, OpCode::kRead, 0, 1));
  return h;
}

class OnlineSupersededValue
    : public ::testing::TestWithParam<VersionOrderPolicy> {};

TEST_P(OnlineSupersededValue, CommittedWriterFlagsEmptySnapshotAtTheRead) {
  const History h = read_of_superseded_value(/*writer_commits=*/true);
  OnlineCertificateMonitor m(h.model(), GetParam());
  const auto v = run_monitor(m, h);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, CertFlagKind::kSnapshotEmpty) << v->reason;
  EXPECT_EQ(v->pos, 7u);
}

TEST_P(OnlineSupersededValue, AbortedWriterFlagsNonCommittedAtTheRead) {
  const History h = read_of_superseded_value(/*writer_commits=*/false);
  OnlineCertificateMonitor m(h.model(), GetParam());
  const auto v = run_monitor(m, h);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, CertFlagKind::kReadFromNonCommitted) << v->reason;
  EXPECT_EQ(v->pos, 7u);
}

INSTANTIATE_TEST_SUITE_P(Policies, OnlineSupersededValue,
                         ::testing::Values(VersionOrderPolicy::kCommitOrder,
                                           VersionOrderPolicy::kSnapshotRank,
                                           VersionOrderPolicy::kStampedRead),
                         [](const auto& info) {
                           switch (info.param) {
                             case VersionOrderPolicy::kCommitOrder:
                               return "CommitOrder";
                             case VersionOrderPolicy::kSnapshotRank:
                               return "SnapshotRank";
                             default:
                               return "StampedRead";
                           }
                         });

// --- finished transactions ---------------------------------------------------------

struct LateEvent {
  Event e;
  const char* reason;
};

/// One event of every kind for T1, each with the well-formedness reason a
/// finished transaction gets.
[[nodiscard]] std::vector<LateEvent> late_events_of_t1() {
  return {
      {ev::inv(1, 0, OpCode::kRead),
       "T1 invoked an operation while not idle (well-formedness)"},
      {ev::ret(1, 0, OpCode::kRead, 0, 0),
       "T1 received a response with no matching invocation (well-formedness)"},
      {ev::try_commit(1), "T1 issued tryC while not idle (well-formedness)"},
      {ev::commit(1), "T1 committed without tryC (well-formedness)"},
      {ev::try_abort(1), "T1 issued tryA while not idle (well-formedness)"},
      {ev::abort(1), "T1 aborted after completing (well-formedness)"},
  };
}

/// T1 writes x0 and finishes (C, or A after tryA); T2 then starts (and may
/// reuse T1's state) and reads x0; the late event for T1 comes last.
[[nodiscard]] History finished_then(bool committed, const Event& late) {
  History h(ObjectModel::registers(1));
  h.append(ev::inv(1, 0, OpCode::kWrite, 5))
      .append(ev::ret(1, 0, OpCode::kWrite, 5, 0));
  if (committed) {
    h.append(ev::try_commit(1)).append(ev::commit(1));
  } else {
    h.append(ev::try_abort(1)).append(ev::abort(1));
  }
  h.append(ev::inv(2, 0, OpCode::kRead))
      .append(ev::ret(2, 0, OpCode::kRead, 0, committed ? 5 : 0))
      .append(late);
  return h;
}

TEST(OnlineCertificateFinished, EveryLateEventIsNotWellFormed) {
  for (const bool committed : {true, false}) {
    for (const LateEvent& late : late_events_of_t1()) {
      const History h = finished_then(committed, late.e);
      OnlineCertificateMonitor m(h.model());
      const auto v = run_monitor(m, h);
      ASSERT_TRUE(v.has_value()) << late.reason;
      EXPECT_EQ(v->kind, CertFlagKind::kNotWellFormed) << v->reason;
      EXPECT_EQ(v->pos, 6u) << late.reason << " committed=" << committed;
      EXPECT_EQ(v->reason, late.reason) << "committed=" << committed;
    }
  }
}

// --- resident state ----------------------------------------------------------------

TEST(OnlineCertificateResident, ReadOnlyRegisterKeepsHoldersAndSlotsFlat) {
  // Eight lanes, interleaved pseudo-randomly one event at a time; each
  // lane runs transactions back to back that read x0 (written by no one,
  // so its initial version stays open and every reader becomes a holder)
  // and write the lane's own register. Holder entries and live slots must
  // stay bounded once warm although every transaction holds x0.
  constexpr std::uint32_t kLanes = 8;
  constexpr std::size_t kEvents = 1'200'000;
  constexpr std::size_t kWarm = 100'000;
  OnlineCertificateMonitor m(ObjectModel::registers(kLanes + 1));

  struct Lane {
    TxId tx{0};
    int step{6};  // 6 = start the next transaction
  };
  std::array<Lane, kLanes> lanes{};
  TxId next_tx = 1;
  std::uint64_t rng = 20261017;
  std::size_t max_holders = 0;
  std::size_t max_slots = 0;
  std::size_t max_live = 0;
  for (std::size_t i = 0; i < kEvents; ++i) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto k = static_cast<std::uint32_t>((rng >> 33) % kLanes);
    Lane& lane = lanes[k];
    if (lane.step == 6) {
      lane.tx = next_tx++;
      lane.step = 0;
    }
    const TxId t = lane.tx;
    const ObjId own = k + 1;
    const auto value = static_cast<Value>(t);
    Event e{};
    switch (lane.step++) {
      case 0: e = ev::inv(t, 0, OpCode::kRead); break;
      case 1: e = ev::ret(t, 0, OpCode::kRead, 0, 0); break;
      case 2: e = ev::inv(t, own, OpCode::kWrite, value); break;
      case 3: e = ev::ret(t, own, OpCode::kWrite, value, 0); break;
      case 4: e = ev::try_commit(t); break;
      default: e = ev::commit(t); break;
    }
    ASSERT_TRUE(m.feed(e)) << m.violation()->reason;
    if (i >= kWarm && i % 1024 == 0) {
      const auto r = m.resident();
      max_holders = std::max(max_holders, r.holder_entries);
      max_slots = std::max(max_slots, r.live_slots);
      max_live = std::max(max_live, r.live_txs);
    }
  }
  EXPECT_GT(next_tx, 150'000u);
  EXPECT_LE(max_live, kLanes);
  EXPECT_LE(max_slots, kLanes);
  EXPECT_LE(max_holders, 4 * kLanes);
  // Versions are the one part that grows: one per committed write.
  EXPECT_GE(m.resident().versions, m.commits_seen());
}

// --- cross-validation: certificate is SUFFICIENT for opacity ------------------------

class OnlineCrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OnlineCrossValidation, CertificateCleanImpliesDefinitionallyOpaque) {
  RandomHistoryParams params;
  params.seed = GetParam();
  params.num_txs = 6;
  params.num_objects = 3;
  params.value_model = ValueModel::kCoherent;
  const History h = random_history(params);

  OnlineCertificateMonitor cert(h.model());
  const auto cert_violation = run_monitor(cert, h);
  if (!cert_violation.has_value()) {
    // Sufficiency: a certificate-clean stream is opaque at every prefix.
    EXPECT_EQ(check_opacity(h).verdict, Verdict::kYes) << h.str();
    EXPECT_FALSE(first_non_opaque_prefix(h).has_value()) << h.str();
  } else {
    // One-sided: a certificate violation need not condemn the FULL history
    // (the certificate is not a decision procedure), but whenever the
    // definitional monitor also complains, the certificate must have fired
    // at or before that point (it judges prefixes at least as harshly).
    OnlineDefinitionalMonitor def(h.model());
    const auto def_violation = run_monitor(def, h);
    if (def_violation.has_value()) {
      EXPECT_LE(cert_violation->pos, def_violation->pos) << h.str();
    }
  }
}

TEST_P(OnlineCrossValidation, DefinitionalMonitorAgreesWithPrefixChecker) {
  RandomHistoryParams params;
  params.seed = GetParam() + 1000;
  params.num_txs = 5;
  params.num_objects = 2;
  params.value_model = ValueModel::kCoherent;
  params.split_op_prob = 0.5;
  const History h = random_history(params);

  OnlineDefinitionalMonitor m(h.model());
  const auto v = run_monitor(m, h);
  const auto prefix = first_non_opaque_prefix(h);
  if (prefix.has_value()) {
    ASSERT_TRUE(v.has_value()) << h.str();
    // first_non_opaque_prefix reports a LENGTH; the monitor the INDEX of
    // the last event of that prefix.
    EXPECT_EQ(v->pos, *prefix - 1) << h.str();
  } else {
    EXPECT_FALSE(v.has_value()) << h.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineCrossValidation,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace optm::core
