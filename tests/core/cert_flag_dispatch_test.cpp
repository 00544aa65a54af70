// Table-driven coverage of CertFlagKind: every kind's classification
// (proves_non_opaque / reorder_repairable), a history that provokes it
// where one is constructible, and — the point of the structured kinds —
// adjudicate() dispatching on them: kinds that violate §5.4 consistency
// short-circuit to kNo WITHOUT running the exponential search, while
// conservative kinds (the H4 reads-from-commit-pending flag included) are
// adjudicated by the exact checker and may come back kYes.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/adjudicate.hpp"
#include "core/online.hpp"
#include "core/version_order.hpp"

namespace optm::core {
namespace {

[[nodiscard]] ObjectModel model3() { return ObjectModel::registers(3, 0); }

struct KindCase {
  CertFlagKind kind;
  bool proves_non_opaque;
  bool reorder_repairable;
  /// Exact verdict of the flagged history (what the non-short-circuited
  /// adjudication must report; kUnknown for a history Definition 1 does
  /// not apply to). Meaningless without a builder.
  Verdict exact;
  /// Builds a history whose FIRST flag has this kind; nullptr for kinds
  /// with no reachable single-history trigger (classification-only rows).
  std::function<History()> build;
};

// T1 writes then reads back a different value.
[[nodiscard]] History local_inconsistency() {
  History h(model3());
  h.append(ev::inv(1, 0, OpCode::kWrite, 5)).append(ev::ret(1, 0, OpCode::kWrite, 5, 0));
  h.append(ev::inv(1, 0, OpCode::kRead)).append(ev::ret(1, 0, OpCode::kRead, 0, 7));
  return h;
}

[[nodiscard]] History unwritten_value() {
  History h(model3());
  h.append(ev::inv(1, 0, OpCode::kRead)).append(ev::ret(1, 0, OpCode::kRead, 0, 42));
  return h;
}

[[nodiscard]] History value_not_unique() {
  History h(model3());
  h.append(ev::inv(1, 0, OpCode::kWrite, 5)).append(ev::ret(1, 0, OpCode::kWrite, 5, 0));
  h.append(ev::try_commit(1)).append(ev::commit(1));
  h.append(ev::inv(2, 0, OpCode::kWrite, 5)).append(ev::ret(2, 0, OpCode::kWrite, 5, 0));
  return h;
}

[[nodiscard]] History not_well_formed() {
  History h(model3());
  h.append(ev::commit(1));  // C without tryC
  return h;
}

// H4: T1 is commit-pending when T2 reads its value — legal under opacity
// (the set V may include commit-pending writers), flagged conservatively.
[[nodiscard]] History reads_from_commit_pending() {
  History h(model3());
  h.append(ev::inv(1, 0, OpCode::kWrite, 5)).append(ev::ret(1, 0, OpCode::kWrite, 5, 0));
  h.append(ev::try_commit(1));  // no C: commit-pending
  h.append(ev::inv(2, 0, OpCode::kRead)).append(ev::ret(2, 0, OpCode::kRead, 0, 5));
  return h;
}

// T1's two reads straddle T2's commit of both registers: no consistent
// snapshot — the paper's Fig. 1 shape, genuinely non-opaque.
[[nodiscard]] History snapshot_empty() {
  History h(model3());
  h.append(ev::inv(1, 0, OpCode::kRead)).append(ev::ret(1, 0, OpCode::kRead, 0, 0));
  h.append(ev::inv(2, 0, OpCode::kWrite, 1)).append(ev::ret(2, 0, OpCode::kWrite, 1, 0));
  h.append(ev::inv(2, 1, OpCode::kWrite, 2)).append(ev::ret(2, 1, OpCode::kWrite, 2, 0));
  h.append(ev::try_commit(2)).append(ev::commit(2));
  h.append(ev::inv(1, 1, OpCode::kRead)).append(ev::ret(1, 1, OpCode::kRead, 0, 2));
  return h;
}

// T3 begins after T2 overwrote x, yet reads the old value: ≺_H forbids
// serializing T3 before T2.
[[nodiscard]] History stale_read() {
  History h(model3());
  h.append(ev::inv(2, 0, OpCode::kWrite, 1)).append(ev::ret(2, 0, OpCode::kWrite, 1, 0));
  h.append(ev::try_commit(2)).append(ev::commit(2));
  h.append(ev::inv(3, 0, OpCode::kRead)).append(ev::ret(3, 0, OpCode::kRead, 0, 0));
  return h;
}

// T1 read x before T2 overwrote it, then commits an update of y: the
// unstamped commits rank in commit order, where its reads are no longer
// current — but serializing T1 BEFORE T2 is legal, so the flag is
// conservative (the §3.6 territory).
[[nodiscard]] History not_current_at_commit() {
  History h(model3());
  h.append(ev::inv(1, 0, OpCode::kRead)).append(ev::ret(1, 0, OpCode::kRead, 0, 0));
  h.append(ev::inv(2, 0, OpCode::kWrite, 1)).append(ev::ret(2, 0, OpCode::kWrite, 1, 0));
  h.append(ev::try_commit(2)).append(ev::commit(2));
  h.append(ev::inv(1, 1, OpCode::kWrite, 5)).append(ev::ret(1, 1, OpCode::kWrite, 5, 0));
  h.append(ev::try_commit(1)).append(ev::commit(1));
  return h;
}

// Stamp order: T1 (read-only) pins its serialization at stamp 5, past
// the close (stamp 2) of the version it read — yet serializing T1 before
// T2 is perfectly legal, the runtime merely stamped a claim the version
// order contradicts.
[[nodiscard]] History no_read_only_point() {
  History h(model3());
  h.append(ev::inv(1, 0, OpCode::kRead)).append(ev::ret(1, 0, OpCode::kRead, 0, 0));
  h.append(ev::inv(2, 0, OpCode::kWrite, 1)).append(ev::ret(2, 0, OpCode::kWrite, 1, 0));
  h.append(ev::try_commit(2)).append(ev::commit(2, /*stamp=*/2));
  h.append(ev::try_commit(1)).append(ev::commit(1, /*stamp=*/5));
  return h;
}

// Stamped read naming a version the value does not belong to (a lying
// runtime / corrupted record); the history itself is opaque.
[[nodiscard]] History read_stamp_mismatch() {
  History h(model3());
  h.append(ev::inv(2, 0, OpCode::kWrite, 7)).append(ev::ret(2, 0, OpCode::kWrite, 7, 0));
  h.append(ev::try_commit(2)).append(ev::commit(2, /*stamp=*/2));
  h.append(ev::inv(1, 0, OpCode::kRead))
      .append(ev::ret(1, 0, OpCode::kRead, 0, 7, /*stamp=*/3, /*ver=*/99));
  return h;
}

const std::vector<KindCase>& kind_table() {
  static const std::vector<KindCase> table = {
      {CertFlagKind::kNone, false, false, Verdict::kUnknown, nullptr},
      {CertFlagKind::kNotWellFormed, false, false, Verdict::kUnknown,
       not_well_formed},
      {CertFlagKind::kValueNotUnique, false, false, Verdict::kYes,
       value_not_unique},
      {CertFlagKind::kLocalInconsistency, true, false, Verdict::kNo,
       local_inconsistency},
      {CertFlagKind::kUnwrittenValue, true, false, Verdict::kNo,
       unwritten_value},
      // kSelfRead is defensively coded but unreachable from feed(): a
      // version resolving to the reader was installed by the reader's own
      // write response, which also populated its local-write table, so the
      // local-read path answers first. Classification-only row.
      {CertFlagKind::kSelfRead, true, false, Verdict::kUnknown, nullptr},
      {CertFlagKind::kReadFromNonCommitted, false, false, Verdict::kYes,
       reads_from_commit_pending},
      {CertFlagKind::kSnapshotEmpty, false, true, Verdict::kNo,
       snapshot_empty},
      {CertFlagKind::kStaleRead, false, true, Verdict::kNo, stale_read},
      {CertFlagKind::kNotCurrentAtCommit, false, true, Verdict::kYes,
       not_current_at_commit},
      {CertFlagKind::kNoReadOnlyPoint, false, true, Verdict::kYes,
       no_read_only_point},
      {CertFlagKind::kReadStampMismatch, false, false, Verdict::kYes,
       read_stamp_mismatch},
      // Definitional-monitor outcomes, never raised by the register checks.
      {CertFlagKind::kNotOpaque, false, false, Verdict::kUnknown, nullptr},
      {CertFlagKind::kBudgetExhausted, false, false, Verdict::kUnknown,
       nullptr},
  };
  return table;
}

TEST(CertFlagDispatch, TableCoversEveryKindExactlyOnce) {
  // A new enum value must get a table row (and a dispatch decision): the
  // count below is the number of CertFlagKind enumerators.
  EXPECT_EQ(kind_table().size(), 14u);
  for (std::size_t i = 0; i < kind_table().size(); ++i) {
    for (std::size_t j = i + 1; j < kind_table().size(); ++j) {
      EXPECT_NE(kind_table()[i].kind, kind_table()[j].kind);
    }
  }
}

TEST(CertFlagDispatch, ClassificationMatchesTheTable) {
  for (const KindCase& c : kind_table()) {
    EXPECT_EQ(proves_non_opaque(c.kind), c.proves_non_opaque)
        << to_string(c.kind);
    EXPECT_EQ(reorder_repairable(c.kind), c.reorder_repairable)
        << to_string(c.kind);
    // The two dispatch sets are disjoint: a kind proving non-opacity can
    // never be repaired by reordering versions.
    EXPECT_FALSE(proves_non_opaque(c.kind) && reorder_repairable(c.kind))
        << to_string(c.kind);
  }
}

TEST(CertFlagDispatch, MonitorRaisesEachConstructibleKind) {
  for (const KindCase& c : kind_table()) {
    if (!c.build) continue;
    const History h = c.build();
    OnlineCertificateMonitor m(h.model());
    for (const Event& e : h.events()) (void)m.feed(e);
    ASSERT_FALSE(m.ok()) << to_string(c.kind) << "\n" << h.str();
    EXPECT_EQ(m.violation()->kind, c.kind)
        << "got " << to_string(m.violation()->kind) << ": "
        << m.violation()->reason << "\n" << h.str();
  }
}

TEST(CertFlagDispatch, AdjudicationShortCircuitsConsistencyViolatingKinds) {
  for (const KindCase& c : kind_table()) {
    if (!c.build) continue;
    const History h = c.build();
    OnlineCertificateMonitor m(h.model());
    for (const Event& e : h.events()) (void)m.feed(e);
    ASSERT_FALSE(m.ok()) << to_string(c.kind);
    EXPECT_EQ(m.violation()->kind, c.kind) << m.violation()->reason;
    const Adjudication a = adjudicate(h, *m.violation());

    if (proves_non_opaque(c.kind)) {
      // The short-circuit: §5.4 consistency violations adjudicate kNo by
      // dispatch on the kind — the exponential search must not run.
      EXPECT_EQ(a.verdict, Verdict::kNo) << to_string(c.kind);
      EXPECT_NE(a.reason.find("no search needed"), std::string::npos)
          << to_string(c.kind) << ": " << a.reason;
    } else {
      // Conservative kinds go to the exact checker; H4 and the version-
      // order claims come back kYes (the flag was a false alarm as far as
      // opacity goes), the genuine violations kNo. A not-well-formed
      // prefix is outside Definition 1 and stays kUnknown.
      EXPECT_EQ(a.verdict, c.exact) << to_string(c.kind) << ": " << a.reason;
      EXPECT_EQ(a.reason.find("no search needed"), std::string::npos)
          << to_string(c.kind) << " short-circuited unexpectedly";
    }
  }
}

}  // namespace
}  // namespace optm::core
