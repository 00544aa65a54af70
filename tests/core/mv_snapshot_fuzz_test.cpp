// MV snapshot-rank fuzz: random_mv_history simulates MvStm's algorithm
// recorded WITHOUT the exclusive commit window, so C records drift out of
// stamp order. Every generated history is opaque by construction; the
// commit-order certificate falsely flags the drifted ones, while the
// SnapshotRank policy certifies them from the stamps the C/A events carry.
// The definitional checker decides every history, and every flag is
// adjudicated and must match check_opacity on its prefix.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/adjudicate.hpp"
#include "core/online.hpp"
#include "core/opacity.hpp"
#include "core/random_history.hpp"
#include "core/version_order.hpp"

namespace optm::core {
namespace {

constexpr std::uint64_t kSeeds = 150;  // >= 100 histories (acceptance bar)

[[nodiscard]] MvHistoryParams fuzz_params(std::uint64_t seed) {
  MvHistoryParams params;
  params.seed = seed;
  params.num_txs = 14;
  params.num_objects = 3;
  params.num_procs = 5;
  params.min_ops_per_tx = 1;
  params.max_ops_per_tx = 3;
  params.write_prob = 0.7;
  params.read_only_prob = 0.55;
  params.record_delay_prob = 0.6;
  params.max_record_delay_steps = 20;
  return params;
}

[[nodiscard]] OnlineCertificateMonitor feed_all(const History& h,
                                                VersionOrderPolicy policy) {
  OnlineCertificateMonitor m(h.model(), policy);
  for (const Event& e : h.events()) (void)m.feed(e);
  return m;
}

/// check_opacity on h[0..pos].
[[nodiscard]] Verdict exact_prefix(const History& h, std::size_t pos) {
  History prefix(h.model());
  for (std::size_t i = 0; i <= pos; ++i) prefix.append(h[i]);
  return check_opacity(prefix).verdict;
}

TEST(MvSnapshotFuzz, SnapshotRankCertifiesWhatCommitOrderFalselyFlags) {
  std::size_t commit_order_flagged = 0;

  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const History h = random_mv_history(fuzz_params(seed));
    std::string why;
    ASSERT_TRUE(h.well_formed(&why)) << "seed " << seed << ": " << why;

    // The commit-order policy may flag (the false-flag count is asserted
    // below); its flag is adjudicated, and the adjudication must match
    // Definition 1 on the flagged prefix: kYes, a false alarm.
    const auto commit_monitor = feed_all(h, VersionOrderPolicy::kCommitOrder);
    if (!commit_monitor.ok()) {
      ++commit_order_flagged;
      const Adjudication a = adjudicate(h, *commit_monitor.violation());
      EXPECT_EQ(a.verdict, Verdict::kYes) << "seed " << seed << ": " << a.reason;
      EXPECT_EQ(a.verdict, exact_prefix(h, commit_monitor.violation()->pos))
          << "seed " << seed;
    }

    // SnapshotRank: every history certifies.
    const auto snap_monitor = feed_all(h, VersionOrderPolicy::kSnapshotRank);
    EXPECT_TRUE(snap_monitor.ok())
        << "seed " << seed << " at " << snap_monitor.violation()->pos << ": "
        << snap_monitor.violation()->reason << "\n"
        << h.str();

    // The exact checker confirms every history really is opaque — the
    // commit-order flags above were false alarms, not bugs slipping by.
    const OpacityResult exact = check_opacity(h);
    EXPECT_EQ(exact.verdict, Verdict::kYes)
        << "seed " << seed << ": " << exact.reason << "\n" << h.str();
  }

  // The fuzz set must actually exercise the divergence: enough drifted
  // histories that commit-order certification falsely flags. (The count is
  // deterministic — fixed seeds.)
  EXPECT_GE(commit_order_flagged, 8u);
  RecordProperty("commit_order_false_flags",
                 static_cast<int>(commit_order_flagged));
}

TEST(MvSnapshotFuzz, CorruptedHistoriesFlagUnderEveryPolicyAndAreNonOpaque) {
  std::size_t corrupted = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    History h = random_mv_history(fuzz_params(seed));
    // Corrupt the first non-local read response to a never-written value —
    // a §5.4 consistency violation, hence definitely non-opaque.
    History bad(h.model());
    bool done = false;
    for (const Event& e : h.events()) {
      Event copy = e;
      if (!done && e.kind == EventKind::kResponse && e.op == OpCode::kRead) {
        copy.ret = 999'999'999;
        done = true;
      }
      bad.append(copy);
    }
    if (!done) continue;
    ++corrupted;

    for (const VersionOrderPolicy policy :
         {VersionOrderPolicy::kCommitOrder, VersionOrderPolicy::kSnapshotRank}) {
      const auto monitor = feed_all(bad, policy);
      ASSERT_FALSE(monitor.ok()) << "seed " << seed << " " << to_string(policy);
      // Commit order may raise a false alarm before the corruption; the
      // snapshot-rank flag is the corruption's, so its prefix is not opaque.
      const Adjudication a = adjudicate(bad, *monitor.violation());
      EXPECT_EQ(a.verdict, exact_prefix(bad, monitor.violation()->pos))
          << "seed " << seed << " " << to_string(policy) << ": " << a.reason;
      if (policy == VersionOrderPolicy::kSnapshotRank) {
        EXPECT_EQ(a.verdict, Verdict::kNo) << "seed " << seed << ": " << a.reason;
      }
    }

    const OpacityResult exact = check_opacity(bad);
    EXPECT_EQ(exact.verdict, Verdict::kNo) << "seed " << seed;
  }
  EXPECT_GE(corrupted, 30u);  // nearly every seed has a non-local read
}

}  // namespace
}  // namespace optm::core
