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
#include "hot_register_stream.hpp"

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

// The policies the certificate checks incrementally (kBlindWriteSmart
// replays prefixes instead).
const auto kCertificatePolicies =
    ::testing::Values(VersionOrderPolicy::kCommitOrder,
                      VersionOrderPolicy::kSnapshotRank,
                      VersionOrderPolicy::kStampedRead);

std::string policy_name(
    const ::testing::TestParamInfo<VersionOrderPolicy>& info) {
  switch (info.param) {
    case VersionOrderPolicy::kCommitOrder:
      return "CommitOrder";
    case VersionOrderPolicy::kSnapshotRank:
      return "SnapshotRank";
    default:
      return "StampedRead";
  }
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

INSTANTIATE_TEST_SUITE_P(Policies, OnlineSupersededValue, kCertificatePolicies,
                         policy_name);

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

// --- register heads: the current version answers from its head ------------

// A read of a register's current value resolves from the register's head;
// any other value goes through the version table. The two paths must
// flag (or not) exactly as the table alone did. Histories use the TL2
// stamp convention: a commit at wv carries 2·wv, a read at snapshot rv
// carries (2·rv+1, version). Under kCommitOrder and kSnapshotRank `ver`
// is not checked, so a wrong one does not flag.

void add_read(History& h, TxId t, ObjId x, Value v, std::uint64_t rv,
              std::uint64_t ver) {
  h.append(ev::inv(t, x, OpCode::kRead))
      .append(ev::ret(t, x, OpCode::kRead, 0, v, 2 * rv + 1, ver));
}
void add_write(History& h, TxId t, ObjId x, Value v) {
  h.append(ev::inv(t, x, OpCode::kWrite, v))
      .append(ev::ret(t, x, OpCode::kWrite, v, 0));
}
void add_commit(History& h, TxId t, std::uint64_t stamp) {
  h.append(ev::try_commit(t)).append(ev::commit(t, stamp));
}

struct HeadCase {
  const char* name;
  History (*build)();
  /// First flag under kStampedRead, and under the other two policies
  /// (kNone: the history certifies; pos is then unused).
  CertFlagKind stamped_kind;
  std::size_t stamped_pos;
  CertFlagKind other_kind;
  std::size_t other_pos;
};

// T1 installs x0=5 at wv 2; T2 reads it (the head) naming version `ver`.
[[nodiscard]] History current_version_read(std::uint64_t ver) {
  History h(ObjectModel::registers(2));
  add_write(h, 1, 0, 5);
  add_commit(h, 1, 4);
  add_read(h, 2, 0, 5, 2, ver);
  add_commit(h, 2, 5);
  return h;
}

[[nodiscard]] History init_value_read(std::uint64_t ver) {
  History h(ObjectModel::registers(2));
  add_read(h, 1, 0, 0, 0, ver);
  add_read(h, 1, 1, 0, 0, 0);
  add_commit(h, 1, 1);
  return h;
}

const HeadCase kHeadCases[] = {
    {"CurrentVersionRightStamp", [] { return current_version_read(2); },
     CertFlagKind::kNone, 0, CertFlagKind::kNone, 0},
    {"CurrentVersionWrongStamp", [] { return current_version_read(3); },
     CertFlagKind::kReadStampMismatch, 5, CertFlagKind::kNone, 0},
    {"InitValue", [] { return init_value_read(0); }, CertFlagKind::kNone, 0,
     CertFlagKind::kNone, 0},
    {"InitValueWrongStamp", [] { return init_value_read(1); },
     CertFlagKind::kReadStampMismatch, 1, CertFlagKind::kNone, 0},
    // T2 is born after T1 overwrote the initial x0, then reads it.
    {"OverwrittenInitIsStale",
     [] {
       History h(ObjectModel::registers(2));
       add_write(h, 1, 0, 5);
       add_commit(h, 1, 4);
       add_read(h, 2, 0, 0, 2, 0);
       return h;
     },
     CertFlagKind::kStaleRead, 5, CertFlagKind::kStaleRead, 5},
    // T1 installs x0=5, T2 overwrites it with 7; T3, born after both,
    // reads 5 from the table.
    {"OverwrittenInstalledIsStale",
     [] {
       History h(ObjectModel::registers(2));
       add_write(h, 1, 0, 5);
       add_commit(h, 1, 4);
       add_write(h, 2, 0, 7);
       add_commit(h, 2, 6);
       add_read(h, 3, 0, 5, 3, 2);
       return h;
     },
     CertFlagKind::kStaleRead, 9, CertFlagKind::kStaleRead, 9},
    // T2 holds x1's head; T1 overwrites x0 and x1, which shrinks T2's
    // window to end at T1's rank; T2's read of the new x0 (a head read)
    // then empties it.
    {"HeldVersionOverwrittenThenNewValueRead",
     [] {
       History h(ObjectModel::registers(2));
       add_read(h, 2, 1, 0, 0, 0);
       add_write(h, 1, 0, 5);
       add_write(h, 1, 1, 6);
       add_commit(h, 1, 4);
       add_read(h, 2, 0, 5, 2, 2);
       return h;
     },
     CertFlagKind::kSnapshotEmpty, 9, CertFlagKind::kSnapshotEmpty, 9},
    // The same, but T2 keeps reading its old snapshot from the table and
    // commits read-only inside it.
    {"HeldVersionOverwrittenOldValueRead",
     [] {
       History h(ObjectModel::registers(2));
       add_read(h, 2, 1, 0, 0, 0);
       add_write(h, 1, 0, 5);
       add_commit(h, 1, 4);
       add_read(h, 2, 0, 0, 0, 0);
       add_commit(h, 2, 1);
       return h;
     },
     CertFlagKind::kNone, 0, CertFlagKind::kNone, 0},
    // T3 is born after T1 installed x0=5 and reads x1; T2 overwrites x0;
    // T3 then reads 5 from the table, inside its snapshot.
    {"ReadJustOverwrittenVersionInsideSnapshot",
     [] {
       History h(ObjectModel::registers(2));
       add_write(h, 1, 0, 5);
       add_commit(h, 1, 4);
       add_read(h, 3, 1, 0, 2, 0);
       add_write(h, 2, 0, 7);
       add_commit(h, 2, 6);
       add_read(h, 3, 0, 5, 2, 2);
       add_commit(h, 3, 5);
       return h;
     },
     CertFlagKind::kNone, 0, CertFlagKind::kNone, 0},
};

class OnlineRegisterHead
    : public ::testing::TestWithParam<VersionOrderPolicy> {};

TEST_P(OnlineRegisterHead, HeadAndTablePathsFlagAsTheTableAlone) {
  const VersionOrderPolicy policy = GetParam();
  for (const HeadCase& c : kHeadCases) {
    const History h = c.build();
    OnlineCertificateMonitor m(h.model(), policy);
    const auto v = run_monitor(m, h);
    const bool stamped = policy == VersionOrderPolicy::kStampedRead;
    const CertFlagKind kind = stamped ? c.stamped_kind : c.other_kind;
    const std::size_t pos = stamped ? c.stamped_pos : c.other_pos;
    if (kind == CertFlagKind::kNone) {
      EXPECT_FALSE(v.has_value()) << c.name << ": " << v->reason;
      continue;
    }
    ASSERT_TRUE(v.has_value()) << c.name;
    EXPECT_EQ(v->kind, kind) << c.name << ": " << v->reason;
    EXPECT_EQ(v->pos, pos) << c.name;
  }
}

// More live readers of one register than its head holds inline (6): the
// overflow holders' windows must shrink at the next install exactly like
// the inline ones. Four finished readers come first, so the inline slots
// are also compacted in place before anything spills.
constexpr TxId kFinishedReaders = 4;
constexpr TxId kLiveReaders = 9;
constexpr TxId kFirstLive = 11;
constexpr TxId kOverwriter = 100;

/// The readers hold x0's initial version, T100 overwrites it at wv 2.
[[nodiscard]] History many_holders_then_overwrite() {
  History h(ObjectModel::registers(2));
  for (TxId t = 1; t <= kFinishedReaders; ++t) {
    add_read(h, t, 0, 0, 0, 0);
    add_commit(h, t, 1);
  }
  for (TxId t = kFirstLive; t < kFirstLive + kLiveReaders; ++t) {
    add_read(h, t, 0, 0, 0, 0);
  }
  add_write(h, kOverwriter, 0, 100);
  add_commit(h, kOverwriter, 4);
  return h;
}

class OnlineHolderOverflow
    : public ::testing::TestWithParam<VersionOrderPolicy> {};

TEST_P(OnlineHolderOverflow, EveryHolderWindowShrinksAtTheInstall) {
  const History base = many_holders_then_overwrite();
  for (TxId reader = kFirstLive; reader < kFirstLive + kLiveReaders;
       ++reader) {
    // The reader now reads the overwriter's x0: its window, closed at the
    // overwriter's rank, cannot also open there.
    History h = base;
    add_read(h, reader, 0, 100, 2, 2);
    OnlineCertificateMonitor m(h.model(), GetParam());
    const auto v = run_monitor(m, h);
    ASSERT_TRUE(v.has_value()) << "T" << reader;
    EXPECT_EQ(v->kind, CertFlagKind::kSnapshotEmpty) << v->reason;
    EXPECT_EQ(v->pos, 39u) << "T" << reader;
  }
  // A reader born after the overwrite reads the same value cleanly.
  History h = base;
  add_read(h, 200, 0, 100, 2, 2);
  add_commit(h, 200, 5);
  OnlineCertificateMonitor m(h.model(), GetParam());
  EXPECT_FALSE(run_monitor(m, h).has_value()) << m.violation()->reason;
}

TEST_P(OnlineHolderOverflow, ResidentCountsInlineAndOverflowHolders) {
  const History h = many_holders_then_overwrite();
  OnlineCertificateMonitor m(h.model(), GetParam());
  // Up to the overwriter's first event: the finished readers are pruned,
  // the live ones all count.
  const std::size_t overwriter_first = h.size() - 4;
  for (std::size_t i = 0; i < overwriter_first; ++i) {
    ASSERT_TRUE(m.feed(h[i])) << m.violation()->reason;
  }
  EXPECT_EQ(m.resident().holder_entries, std::size_t{kLiveReaders});
  for (std::size_t i = overwriter_first; i < h.size(); ++i) {
    ASSERT_TRUE(m.feed(h[i])) << m.violation()->reason;
  }
  EXPECT_EQ(m.resident().holder_entries, 0u);
}

TEST(OnlineCertificateResident, HotRegisterHoldersStayBoundedPastInline) {
  // Twelve reader lanes keep up to 12 live holders on x0 while a writer
  // lane keeps overwriting it: holder lists spill past the inline slots
  // and are released at every install. Holder entries must stay bounded.
  constexpr std::uint32_t kReaders = 12;
  constexpr std::size_t kEvents = 1'200'000;
  constexpr std::size_t kWarm = 100'000;
  HotRegisterStream stream(kReaders);
  OnlineCertificateMonitor m(
      ObjectModel::registers(HotRegisterStream::kRegisters));
  std::size_t max_holders = 0;
  std::size_t max_slots = 0;
  for (std::size_t i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(m.feed(stream.next())) << m.violation()->reason;
    if (i >= kWarm && i % 1024 == 0) {
      const auto r = m.resident();
      max_holders = std::max(max_holders, r.holder_entries);
      max_slots = std::max(max_slots, r.live_slots);
    }
  }
  EXPECT_GT(m.commits_seen(), 20'000u);  // x0 was overwritten throughout
  EXPECT_LE(max_slots, std::size_t{kReaders + 1});
  EXPECT_LE(max_holders, std::size_t{4 * kReaders});
}

// --- version-table growth under cached register handles --------------------

// A monitor left unreserved starts its version index at the register count
// plus 16 and rebuilds it as versions accumulate; every register head
// caches its current version's archive address. The stream below writes
// register x0 once at the start and again only at the very end, after all
// the rebuilds, so that install closes the first version through an
// address taken before them. A reader born after it then reads x0's first
// value: the monitor must flag the stale read, which it can only do if the
// close landed on the live record.
constexpr std::uint32_t kRehashRegisters = 64;

[[nodiscard]] History rehash_stream(bool stale_tail) {
  History h(ObjectModel::registers(kRehashRegisters));
  TxId next = 1;
  add_write(h, next, 0, 1);
  add_commit(h, next++, 0);
  // Serial transactions: blind-write two of x1..x63 with fresh values,
  // then read one back.
  Value value = 2;
  std::vector<Value> current(kRehashRegisters, 0);
  current[0] = 1;
  std::uint64_t rng = 20261017;
  while (h.size() < 220'000) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto a = static_cast<ObjId>(1 + (rng >> 33) % (kRehashRegisters - 1));
    const auto b = static_cast<ObjId>(1 + (rng >> 45) % (kRehashRegisters - 1));
    const TxId t = next++;
    add_write(h, t, a, value);
    current[a] = value++;
    if (b != a) {
      add_write(h, t, b, value);
      current[b] = value++;
    }
    add_commit(h, t, 0);
    const TxId r = next++;
    h.append(ev::inv(r, b, OpCode::kRead))
        .append(ev::ret(r, b, OpCode::kRead, 0, current[b]));
    add_commit(h, r, 0);
  }
  add_write(h, next, 0, value);
  add_commit(h, next++, 0);
  const TxId r = next++;
  h.append(ev::inv(r, 0, OpCode::kRead))
      .append(ev::ret(r, 0, OpCode::kRead, 0, stale_tail ? 1 : value));
  add_commit(h, r, 0);
  return h;
}

class OnlineRehash : public ::testing::TestWithParam<VersionOrderPolicy> {};

TEST_P(OnlineRehash, UnreservedMonitorMatchesReservedAcrossRehashes) {
  for (const bool stale_tail : {false, true}) {
    const History h = rehash_stream(stale_tail);
    OnlineCertificateMonitor unreserved(h.model(), GetParam());
    OnlineCertificateMonitor reserved(h.model(), GetParam());
    reserved.reserve(h.size(), h.size());
    const auto a = run_monitor(unreserved, h);
    const auto b = run_monitor(reserved, h);
    ASSERT_EQ(a.has_value(), stale_tail) << (a ? a->reason : "");
    ASSERT_EQ(b.has_value(), stale_tail) << (b ? b->reason : "");
    EXPECT_GT(unreserved.resident().versions, 20'000u);  // many rebuilds
    if (!stale_tail) continue;
    EXPECT_EQ(a->kind, CertFlagKind::kStaleRead) << a->reason;
    EXPECT_EQ(a->pos, h.size() - 3);
    EXPECT_EQ(a->kind, b->kind);
    EXPECT_EQ(a->pos, b->pos);
    EXPECT_EQ(a->reason, b->reason);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, OnlineRegisterHead, kCertificatePolicies,
                         policy_name);
INSTANTIATE_TEST_SUITE_P(Policies, OnlineHolderOverflow, kCertificatePolicies,
                         policy_name);
INSTANTIATE_TEST_SUITE_P(Policies, OnlineRehash, kCertificatePolicies,
                         policy_name);

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
