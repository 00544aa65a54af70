// Seeded random history generation for property-based testing.
//
// Two value models:
//  * kCoherent — transactions run against a shared committed store with
//    buffered writes and commit-time publication, under a random scheduler.
//    Reads return the committed value at read time (plus the transaction's
//    own buffered writes). This mimics an invisible-read STM *without*
//    validation, so it produces a healthy mix of opaque histories and
//    realistic opacity violations (inconsistent snapshots) — ideal for
//    cross-validating the definitional and graph checkers (Theorem 2).
//  * kAdversarial — read values are drawn at random from the values written
//    anywhere in the history (or the initial value); almost always breaks
//    opacity in small histories, exercising the checkers' reject paths.
//
// Writes are value-unique so the §5.4 machinery applies.
#pragma once

#include <cstdint>

#include "core/history.hpp"

namespace optm::core {

enum class ValueModel : std::uint8_t { kCoherent, kAdversarial };

struct RandomHistoryParams {
  std::uint64_t seed = 1;
  std::size_t num_txs = 5;
  std::size_t num_objects = 3;
  std::size_t min_ops_per_tx = 1;
  std::size_t max_ops_per_tx = 4;
  double write_prob = 0.5;        // per op: write vs read
  double voluntary_abort_prob = 0.1;   // tryA instead of tryC
  double leave_live_prob = 0.05;       // no termination events at all
  double leave_commit_pending_prob = 0.1;  // tryC without C/A
  double commit_fail_prob = 0.15;      // tryC answered with A
  double split_op_prob = 0.3;          // responses delayed past other events
  ValueModel value_model = ValueModel::kCoherent;
};

/// Generate a well-formed random register history. Deterministic in
/// `params` (including the seed).
[[nodiscard]] History random_history(const RandomHistoryParams& params);

/// Parameters for random_mv_history: a faithful simulation of a
/// multi-version STM (MvStm's algorithm — begin-time snapshots, snapshot
/// reads, first-committer-wins validation) recorded WITHOUT the recorder's
/// exclusive commit window: a commit's clock advance (its serialization
/// point) and its C record are no longer atomic, so C records drift past
/// each other and past reads, and the RECORD order of commits diverges
/// from the stamp (version) order. Every generated history is opaque by
/// construction — serialize committed updates by stamp and snapshot
/// transactions at their snapshot — and the certificate monitor certifies
/// them from the stamps the C/A events carry (a copy with the stamps
/// cleared ranks in record order and falsely flags the drifted ones).
struct MvHistoryParams {
  std::uint64_t seed = 1;
  std::size_t num_txs = 10;
  std::size_t num_objects = 4;
  std::size_t num_procs = 3;
  std::size_t min_ops_per_tx = 1;
  std::size_t max_ops_per_tx = 4;
  /// Probability a transaction is declared read-only (snapshot reads, no
  /// validation — the H4 escape route).
  double read_only_prob = 0.45;
  /// Per op of an update transaction: write vs read.
  double write_prob = 0.5;
  /// Probability an update commit's C record drifts past later scheduler
  /// steps (the window-free recorder). 0 degenerates to commit order.
  double record_delay_prob = 0.5;
  /// Maximum drift, in scheduler steps.
  std::size_t max_record_delay_steps = 6;
  /// Stamp every non-local read with its (2·snapshot+1, version) pair —
  /// what MvStm records window-free since PR 4. The stamps are truthful
  /// by construction; the certificate monitor validates them, and the
  /// §3.6 search's stamp pruning (StampPruneIndex) keys off the named
  /// versions.
  bool stamp_reads = true;
};

/// Generate a well-formed, opaque-by-construction MV register history with
/// stamped C/A events (Event::stamp: 2·wv updates, 2·snapshot+1 snapshot
/// transactions) and, by default, stamped non-local reads. Deterministic
/// in `params`.
[[nodiscard]] History random_mv_history(const MvHistoryParams& params);

}  // namespace optm::core
