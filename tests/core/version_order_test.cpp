// The version-order layer: §3.6 blind-write histories that the monitor's
// one order flags and adjudicate() proves opaque — through Definition 1
// and through the §3.6 reorder search (cross-checked against the exact
// definitional monitor) — structured reason codes on certificate flags and
// their adjudication, and the stamp order's rank assignment.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/adjudicate.hpp"
#include "core/online.hpp"
#include "core/opacity.hpp"
#include "core/paper.hpp"
#include "core/version_order.hpp"

namespace optm::core {
namespace {

[[nodiscard]] OnlineCertificateMonitor feed_all(const History& h) {
  OnlineCertificateMonitor m(h.model());
  for (const Event& e : h.events()) (void)m.feed(e);
  return m;
}

/// §3.6's smart-TM shape: T2 reads the initial x, T1 blind-writes x and
/// commits FIRST, then T2 blind-writes y and commits. The commit order
/// (the one order's ranks on these unstamped commits) cannot serialize T2 (its read of x=0 is no longer current at its commit
/// rank), but T2 ≪ T1 is a legal version order: T1's write is blind and
/// the two transactions overlap in real time.
[[nodiscard]] History smart_blind_history() {
  History h(ObjectModel::registers(2, 0));
  h.append(ev::inv(2, 0, OpCode::kRead)).append(ev::ret(2, 0, OpCode::kRead, 0, 0));
  h.append(ev::inv(1, 0, OpCode::kWrite, 1))
      .append(ev::ret(1, 0, OpCode::kWrite, 1, kOk));
  h.append(ev::try_commit(1)).append(ev::commit(1));
  h.append(ev::inv(2, 1, OpCode::kWrite, 1))
      .append(ev::ret(2, 1, OpCode::kWrite, 1, kOk));
  h.append(ev::try_commit(2)).append(ev::commit(2));
  return h;
}

/// The same shape but T1 wholly precedes T2, so the real-time order ≺_H
/// forbids the reordering — genuinely non-opaque.
[[nodiscard]] History stale_blind_history() {
  History h(ObjectModel::registers(2, 0));
  h.append(ev::inv(1, 0, OpCode::kWrite, 1))
      .append(ev::ret(1, 0, OpCode::kWrite, 1, kOk));
  h.append(ev::try_commit(1)).append(ev::commit(1));
  h.append(ev::inv(2, 0, OpCode::kRead)).append(ev::ret(2, 0, OpCode::kRead, 0, 0));
  h.append(ev::inv(2, 1, OpCode::kWrite, 2))
      .append(ev::ret(2, 1, OpCode::kWrite, 2, kOk));
  h.append(ev::try_commit(2)).append(ev::commit(2));
  return h;
}

/// A budget too small for check_opacity on any prefix: adjudicate() must
/// reach its §3.6 reorder step.
[[nodiscard]] OpacityOptions exhausted_budget() {
  OpacityOptions budget;
  budget.max_states = 1;
  return budget;
}

TEST(BlindWriteSmart, FlagUnderTheOneOrderAdjudicatesOpaque) {
  const History h = smart_blind_history();

  // The one order: flagged at T2's C, with the structured kind.
  const auto m = feed_all(h);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.violation()->kind, CertFlagKind::kNotCurrentAtCommit);
  EXPECT_EQ(m.violation()->pos, h.size() - 1);

  // Definition 1 on the prefix: opaque, the flag was stricter.
  const Adjudication exact = adjudicate(h, *m.violation());
  EXPECT_EQ(exact.verdict, Verdict::kYes) << exact.reason;

  // With check_opacity out of budget the §3.6 reordering proves the same,
  // and its witness is a legal sequential history.
  const Adjudication repaired =
      adjudicate(h, *m.violation(), exhausted_budget());
  EXPECT_EQ(repaired.verdict, Verdict::kYes) << repaired.reason;
  EXPECT_NE(repaired.reason.find("reordering"), std::string::npos)
      << repaired.reason;
  std::string why;
  EXPECT_TRUE(repaired.witness.is_sequential(&why)) << why;
  EXPECT_EQ(repaired.witness.transactions(), (std::vector<TxId>{2, 1}));

  // The exact definitional monitor agrees the history is opaque.
  OnlineDefinitionalMonitor definitional(h.model());
  for (const Event& e : h.events()) (void)definitional.feed(e);
  EXPECT_TRUE(definitional.ok()) << definitional.violation()->reason;
}

TEST(BlindWriteSmart, SmartReorderSearchYieldsTheWitnessOrder) {
  const History h = smart_blind_history();

  // The flag names T2, at its C event.
  const auto m = feed_all(h);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.violation()->kind, CertFlagKind::kNotCurrentAtCommit);
  EXPECT_EQ(h[m.violation()->pos].tx, 2u);

  // The §3.6 search prioritizing T2 certifies the history; the witness
  // order serializes the blind-written version of T2 first.
  const SmartReorderResult repaired = smart_reorder_search(h, TxId{2});
  EXPECT_TRUE(repaired.certified);
  ASSERT_EQ(repaired.order.size(), 2u);
  EXPECT_EQ(repaired.order[0], 2u);
  EXPECT_EQ(repaired.order[1], 1u);
}

TEST(BlindWriteSmart, RealTimeOrderStillBlocksTheReordering) {
  const History h = stale_blind_history();

  // The per-read stale flag fires: no §3.6 reordering can move T2 before
  // a transaction that wholly preceded it.
  const auto m = feed_all(h);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.violation()->kind, CertFlagKind::kStaleRead);

  // And rightly so: the history is genuinely non-opaque.
  const OpacityResult exact = check_opacity(h);
  EXPECT_EQ(exact.verdict, Verdict::kNo);

  // No reordering certifies it: the flag adjudicates kNo, and with
  // check_opacity out of budget the search does not turn it into kYes.
  EXPECT_FALSE(smart_reorder_search(h, TxId{2}).certified);
  const Adjudication a = adjudicate(h, *m.violation());
  EXPECT_EQ(a.verdict, Verdict::kNo) << a.reason;
  const Adjudication out_of_budget =
      adjudicate(h, *m.violation(), exhausted_budget());
  EXPECT_EQ(out_of_budget.verdict, Verdict::kUnknown) << out_of_budget.reason;
}

TEST(BlindWriteSmart, PaperBlindOverlappingWritesCertifies) {
  const History h = paper::blind_overlapping_writes(4);
  const auto m = feed_all(h);
  EXPECT_TRUE(m.ok()) << m.violation()->reason;
}

TEST(ReasonCodes, ReadFromCommitPendingWriterIsStructured) {
  // H4's shape: T2's writes are commit-pending when T3 reads one of them.
  // The certificate flags conservatively — and the flag must carry the
  // kReadFromNonCommitted kind so adjudication can dispatch on it without
  // string matching.
  const History h4 = paper::h4();
  const auto m = feed_all(h4);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.violation()->kind, CertFlagKind::kReadFromNonCommitted);

  // H4 is opaque (the V-set optimization): the conservative flag is
  // adjudicated kYes by the exact checker.
  const Adjudication a = adjudicate(h4, *m.violation());
  EXPECT_EQ(a.verdict, Verdict::kYes) << a.reason;
}

TEST(ReasonCodes, ConsistencyViolationsAdjudicateWithoutTheSearch) {
  // A read of a never-written value proves non-opacity outright
  // (Theorem 2 makes §5.4 consistency necessary): adjudication dispatches
  // on the kind and skips the exponential checker.
  History h(ObjectModel::registers(1, 0));
  h.append(ev::inv(1, 0, OpCode::kRead))
      .append(ev::ret(1, 0, OpCode::kRead, 0, 42));
  h.append(ev::try_commit(1)).append(ev::commit(1));

  const auto m = feed_all(h);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.violation()->kind, CertFlagKind::kUnwrittenValue);
  EXPECT_TRUE(proves_non_opaque(m.violation()->kind));

  const Adjudication a = adjudicate(h, *m.violation());
  EXPECT_EQ(a.verdict, Verdict::kNo);
  EXPECT_NE(a.reason.find("no search needed"), std::string::npos);
}

TEST(ReasonCodes, DefinitionalMonitorTagsItsViolations) {
  const History zombie = paper::section2_zombie();
  OnlineDefinitionalMonitor m(zombie.model());
  for (const Event& e : zombie.events()) (void)m.feed(e);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.violation()->kind, CertFlagKind::kNotOpaque);
}

TEST(StampOrder, UnstampedCommitsRankNextInRecordOrder) {
  // A stamp-free history ranks in commit (record) order: each unstamped C
  // takes the rank just above every rank seen. A stamped C ranks at its
  // stamp, and an unstamped one after it continues above that.
  VersionOrderResolver resolver;
  EXPECT_EQ(resolver.floor(), 0u);
  EXPECT_EQ(resolver.update_commit_rank(ev::commit(1)), 1u);
  EXPECT_EQ(resolver.update_commit_rank(ev::commit(2)), 2u);
  EXPECT_EQ(resolver.floor(), 2u);
  EXPECT_EQ(resolver.update_commit_rank(ev::commit(3, 20)), 20u);
  EXPECT_EQ(resolver.update_commit_rank(ev::commit(4)), 21u);
  // A stamp below the floor keeps its rank and leaves the floor alone.
  EXPECT_EQ(resolver.update_commit_rank(ev::commit(5, 8)), 8u);
  EXPECT_EQ(resolver.floor(), 21u);

  // Only an odd (2·snapshot+1) stamp pins a read-only point.
  EXPECT_FALSE(VersionOrderResolver::read_only_point(ev::commit(6)));
  EXPECT_FALSE(VersionOrderResolver::read_only_point(ev::commit(6, 4)));
  EXPECT_EQ(VersionOrderResolver::read_only_point(ev::commit(6, 5)), 5u);
}

TEST(StampOrder, HistoricalPolicyNamesAreAliases) {
  for (const char* name :
       {"commit-order", "blind-write-smart", "snapshot-rank", "stamped-read"}) {
    EXPECT_TRUE(is_version_order_name(name)) << name;
  }
  EXPECT_EQ(std::string(kVersionOrderName), "stamped-read");
  EXPECT_FALSE(is_version_order_name(""));
  EXPECT_FALSE(is_version_order_name("?"));
  EXPECT_FALSE(is_version_order_name("stamped-read "));
  EXPECT_FALSE(is_version_order_name("record-only"));
}

TEST(StampOrder, ReadlessUpdateCommitBelowTheBirthFloorFlags) {
  // T1 commits an update stamped 2·10 (floor 20); T2 then begins and
  // blind-writes with a stamp BELOW the floor — serializing before a
  // transaction that wholly preceded it. The monitor fires the rank check
  // at T2's C even though T2 has no reads. The stamp is a false claim, not
  // a non-opaque history: Definition 1 serializes T2 after T1.
  History h(ObjectModel::registers(2, 0));
  h.append(ev::inv(1, 0, OpCode::kWrite, 1))
      .append(ev::ret(1, 0, OpCode::kWrite, 1, kOk));
  h.append(ev::try_commit(1)).append(ev::commit(1, 20));
  h.append(ev::inv(2, 1, OpCode::kWrite, 2))
      .append(ev::ret(2, 1, OpCode::kWrite, 2, kOk));
  h.append(ev::try_commit(2)).append(ev::commit(2, 4));

  const auto m = feed_all(h);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.violation()->kind, CertFlagKind::kNotCurrentAtCommit);
  EXPECT_EQ(m.violation()->pos, h.size() - 1);

  const Adjudication a = adjudicate(h, *m.violation());
  EXPECT_EQ(a.verdict, Verdict::kYes) << a.reason;
}

TEST(AnchorOrder, MatchesRecorderAnchors) {
  const History h = smart_blind_history();
  const std::vector<TxId> order = anchor_order(h);
  ASSERT_EQ(order.size(), 2u);
  // Both committed: anchored at their C events, T1 first.
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
}

// Regression for the shared version-identity helper (it used to be
// duplicated, guard included, in both certificate engines): genuine
// claims match, mismatches fail, and the 2·ver wrap attack — where
// ver = 2^63 + true_ver multiplies back to the true open rank modulo
// 2^64 — is rejected by the magnitude guard, not by luck of the product.
TEST(StampedRead, SharedVersionIdentityHelperGuardsTheWrap) {
  EXPECT_TRUE(read_stamp_names_version(0, 0));     // the initializer
  EXPECT_TRUE(read_stamp_names_version(21, 42));
  EXPECT_FALSE(read_stamp_names_version(21, 44));  // names the wrong version
  EXPECT_FALSE(read_stamp_names_version(22, 42));

  const std::uint64_t wrap = (std::uint64_t{1} << 63) + 21;
  ASSERT_EQ(2 * wrap, 42u);  // the attack really aliases without the guard
  EXPECT_FALSE(read_stamp_names_version(wrap, 42));
  // The guard's boundary: the largest non-wrapping ver still validates.
  const std::uint64_t max_ver = ~std::uint64_t{0} >> 1;
  EXPECT_TRUE(read_stamp_names_version(
      max_ver, static_cast<std::size_t>(2 * max_ver)));
  EXPECT_FALSE(read_stamp_names_version(max_ver + 1, 0));
}

}  // namespace
}  // namespace optm::core
