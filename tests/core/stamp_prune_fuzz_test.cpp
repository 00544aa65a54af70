// Read-stamp pruning of the §3.6 reorder search (ROADMAP follow-up from
// PR 4, landed in PR 5): a candidate version order that serializes a
// stamped reader at or before its claimed version's writer — or after that
// version's overwriter — cannot pass verify_opacity_certificate, so
// StampPruneIndex rejects it in O(reads) BEFORE the exact pass.
//
// Two properties are fuzzed here over stamped drifted MV histories (the
// random_mv_history generator stamps its reads with the (2·snapshot+1,
// version) pair MvStm records window-free):
//
//   * soundness / verdict preservation: the search with pruning on and off
//     reaches the SAME certified verdict and the SAME witness order on
//     every history — pruning only ever skips candidates the exact pass
//     refutes;
//   * effectiveness: across the searches the drifted corpus triggers,
//     at least half of all candidate orders are rejected without an exact
//     pass (the acceptance bar).
#include <gtest/gtest.h>

#include <cstddef>

#include "core/online.hpp"
#include "core/random_history.hpp"
#include "core/version_order.hpp"

namespace optm::core {
namespace {

[[nodiscard]] MvHistoryParams drifted_params(std::uint64_t seed) {
  MvHistoryParams params;
  params.seed = seed;
  params.num_txs = 10;
  params.num_objects = 3;
  params.num_procs = 4;
  params.record_delay_prob = 0.7;  // heavy C-record drift
  params.max_record_delay_steps = 30;
  return params;
}

TEST(StampPruneFuzz, PruningPreservesVerdictsAndPrunesHalfTheCandidates) {
  std::size_t searches = 0;
  std::size_t tried = 0;
  std::size_t pruned = 0;
  std::size_t certified = 0;

  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const History h = random_mv_history(drifted_params(seed));

    // Only histories the commit-order certificate flags REPAIRABLY enter
    // the §3.6 search in production (the monitor's fail() tries the
    // search at its first repairable flag); mirror that trigger.
    OnlineCertificateMonitor commit_order(h.model());
    (void)commit_order.ingest(h.events());
    if (commit_order.ok() ||
        !reorder_repairable(commit_order.violation()->kind)) {
      continue;
    }

    SmartReorderOptions with_prune;
    with_prune.prioritize = h[commit_order.violation()->pos].tx;
    SmartReorderOptions no_prune = with_prune;
    no_prune.stamp_prune = false;

    const SmartReorderResult a = smart_reorder_search(h, with_prune);
    const SmartReorderResult b = smart_reorder_search(h, no_prune);

    // Verdict AND witness equivalence: pruning may only skip candidates
    // the exact pass would refute, so the first certified candidate (in
    // identical candidate order) is identical.
    ASSERT_EQ(a.certified, b.certified) << "seed " << seed;
    if (a.certified) {
      EXPECT_EQ(a.order, b.order) << "seed " << seed;
      ++certified;
    }
    EXPECT_EQ(a.candidates_tried, b.candidates_tried) << "seed " << seed;
    EXPECT_EQ(b.candidates_pruned, 0u);

    ++searches;
    tried += a.candidates_tried;
    pruned += a.candidates_pruned;
  }

  // The corpus must actually exercise the machinery.
  ASSERT_GE(searches, 10u) << "drifted corpus produced too few searches";
  ASSERT_GE(tried, 100u);
  RecordProperty("searches", static_cast<int>(searches));
  RecordProperty("candidates_tried", static_cast<int>(tried));
  RecordProperty("candidates_pruned", static_cast<int>(pruned));
  RecordProperty("certified", static_cast<int>(certified));

  // The acceptance bar: >= 50% of candidate orders rejected by the
  // O(reads) stamp scan, no exact pass spent on them.
  EXPECT_GE(2 * pruned, tried)
      << "stamp pruning rejected only " << pruned << "/" << tried
      << " candidate orders";
}

/// The monitor path end-to-end: kBlindWriteSmart streams over drifted
/// stamped histories, repairing via the (pruned) search; a certified
/// verdict must match the snapshot-rank ground truth.
TEST(StampPruneFuzz, MonitorBlindWriteSmartAgreesWithSnapshotRankOnDrift) {
  std::size_t repaired = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const History h = random_mv_history(drifted_params(seed));

    // Ground truth: these generated histories are opaque by construction
    // and certify under the stamp policies.
    OnlineCertificateMonitor snapshot_rank(h.model(),
                                           VersionOrderPolicy::kSnapshotRank);
    for (const Event& e : h.events()) (void)snapshot_rank.feed(e);
    ASSERT_TRUE(snapshot_rank.ok()) << "seed " << seed;

    OnlineCertificateMonitor smart(h.model(),
                                   VersionOrderPolicy::kBlindWriteSmart);
    for (const Event& e : h.events()) (void)smart.feed(e);
    if (smart.retro_ordered() && smart.ok()) ++repaired;
    // A smart flag must never contradict an exactly-certified repair
    // being available... but the bounded search may legitimately miss
    // deep reorderings; what it must NOT do is crash or certify a
    // non-opaque history (covered by the conformance suites). Here we
    // assert the common case: when it certifies, snapshot-rank does too.
    if (smart.ok()) {
      EXPECT_TRUE(snapshot_rank.ok()) << "seed " << seed;
    }
  }
  // The corpus must exercise the streaming repair path.
  EXPECT_GE(repaired, 3u);
  RecordProperty("repaired", static_cast<int>(repaired));
}

}  // namespace
}  // namespace optm::core
