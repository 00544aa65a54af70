// Sharded parallel offline verification of recorded histories.
//
// The streaming certificate monitor (online.hpp) is inherently sequential:
// one pass, one resolver, one window per live transaction. For RECORDED
// histories none of that needs to be sequential — the driver here splits
// the §5.4 certificate into three phases:
//
//   pass 0 (sequential, O(n), cheap):  the register-free part — the §4
//     well-formedness state machine per transaction, birth floors, and the
//     serialization-rank assignment, delegated to a
//     core::VersionOrderResolver (version_order.hpp). Under kCommitOrder
//     that is one rank per committed update transaction in C-event order;
//     under kSnapshotRank ranks are the stamps the runtime recorded
//     (2·wv on update commits, 2·snapshot+1 on snapshot-serialized
//     commits), so MV histories whose C records drift out of stamp order
//     — or whose read-only transactions serialize far before their C
//     event — rank correctly. Ranks are what couples registers together;
//     precomputing them is what keeps the shards independent, whatever
//     the policy.
//
//   pass 1 (parallel, one task per register shard):  each shard scans the
//     event array and processes only the operations on its registers —
//     value-unique writes, local consistency, reads-from resolution
//     against the shard's committed version chain (open/close ranks come
//     from pass 0's resolver, so they are exactly the streaming monitor's
//     ranks), and the per-read version intervals. Structurally identical
//     under every policy.
//
//   merge (sequential, O(reads log reads)):  per transaction, replay the
//     snapshot-window intersection over its reads from ALL shards in
//     position order, applying version closes only once their closing
//     C event precedes the current position — byte-for-byte the knowledge
//     the streaming monitor had at that moment. Emptiness, staleness and
//     serialization-point checks fire at the same event positions as the
//     monitor's; under kSnapshotRank the commit check is "rank inside the
//     window", the generalized form of "reads current at commit".
//
// Under kBlindWriteSmart the driver runs commit-order ranks and, when every
// flag is window-based (reorder_repairable), hands the history to the
// bounded §3.6 reordering search; a certified reorder clears the flags
// (result.smart_order carries the witness order).
//
// Under kCommitOrder, kSnapshotRank and kStampedRead the driver's verdict
// (clean / first flagged position) is equivalent to
// OnlineCertificateMonitor with the same policy fed the same history
// event-by-event; the equivalence is fuzz-tested (kStampedRead adds the
// per-read (rv, version) stamp cross-checks of window-free recordings —
// the shard pass validates each stamped read against its shard's version
// chain, pass 0 checks commit-stamp/read-snapshot monotonicity). kBlindWriteSmart is sound on both sides (a certified
// verdict always rests on an exactly verified order) but the two engines
// search different prefixes — the monitor repairs at the first repairable
// flag and re-verifies each later prefix, the driver repairs once over the
// whole history and only when every flag is repairable — so flagged
// positions may differ between them. Like the monitor, it is
// a SUFFICIENT certificate: a flag is not yet a proof of non-opacity. On
// request the driver falls back to the exact definitional checker — but
// only on the sub-history of the flagged shard (the projection onto that
// shard's registers plus the lifecycle events of the transactions touching
// them), so the exponential adjudication runs on a fraction of the
// history. Flags whose structured kind already proves non-opacity
// (proves_non_opaque) are adjudicated kNo directly without the search. A
// fallback verdict refers to that sub-history: kYes means the flag was
// conservative as far as shard-local phenomena go.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/history.hpp"
#include "core/online.hpp"
#include "core/opacity.hpp"
#include "core/version_order.hpp"

namespace optm::util {
class ThreadPool;  // util/pool.hpp
}

namespace optm::core {

struct ShardVerifyOptions {
  /// How serialization ranks and version intervals are assigned (see
  /// version_order.hpp). kCommitOrder is PR 1's behavior, byte for byte.
  VersionOrderPolicy policy = VersionOrderPolicy::kCommitOrder;
  /// Number of register shards; 0 picks min(#registers, pool size).
  std::size_t num_shards = 0;
  /// Worker threads for pass 1; 0 picks std::thread::hardware_concurrency.
  /// Ignored by the overload taking an external pool.
  std::size_t num_threads = 0;
  /// Adjudicate flagged shards with the exact definitional checker.
  bool definitional_fallback = false;
  /// Skip the fallback when the flagged shard's sub-history has more
  /// transactions than this (the definitional check is exponential).
  std::size_t fallback_max_txs = 8;
  /// DFS state budget handed to the definitional checker.
  std::uint64_t fallback_max_states = 200'000;
};

/// Resolved worker/shard counts after applying the "0 = auto" defaults.
struct VerifyConcurrency {
  std::size_t threads{1};  // worker threads (>= 1)
  std::size_t shards{1};   // register shards (>= 1)
};

/// The resolution rule behind ShardVerifyOptions' `num_shards` /
/// `num_threads` pair: 0 threads means
/// std::thread::hardware_concurrency() (at least 1), 0 shards means
/// min(#registers, threads) (at least 1). Explicit values pass through
/// unclamped — a caller may deliberately oversubscribe a one-core box
/// (the conformance fuzz does).
[[nodiscard]] VerifyConcurrency resolve_verify_concurrency(
    std::size_t num_registers, std::size_t num_shards,
    std::size_t num_threads) noexcept;

inline constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

/// One certificate flag. `shard` is the register shard the flag is
/// attributable to (kNoShard for global well-formedness flags), `kind` the
/// structured classification adjudication dispatches on, and
/// `adjudication` the definitional verdict of that shard's sub-history
/// when the fallback ran (kUnknown otherwise).
struct ShardFlag {
  std::size_t pos{0};
  std::string reason;
  CertFlagKind kind{CertFlagKind::kNone};
  TxId tx{kNoTx};
  std::size_t shard{kNoShard};
  Verdict adjudication{Verdict::kUnknown};
  std::string adjudication_reason;
};

struct ParallelVerifyResult {
  /// No flag anywhere: the history is certified opaque prefix-by-prefix
  /// (Theorem 2 + the §5.2 discipline), exactly as a clean run of
  /// OnlineCertificateMonitor would certify it.
  bool certified{false};
  /// Earliest flag, monitor-compatible (same position the streaming
  /// monitor latches on).
  std::optional<OnlineViolation> violation;
  /// Every flag found, sorted by position. The streaming monitor stops at
  /// the first; the offline driver keeps going, which is what lets the
  /// fallback adjudicate each flagged shard independently.
  std::vector<ShardFlag> flags;
  /// kBlindWriteSmart only: the certified §3.6 witness order when a
  /// reordering repaired every window flag (certified is then true).
  std::vector<TxId> smart_order;
  std::size_t shards_used{0};
  std::size_t events{0};
};

/// Verify `h` with a private thread pool (options.num_threads workers).
/// Throws std::invalid_argument unless `h` is an all-register history
/// (same precondition as OnlineCertificateMonitor).
[[nodiscard]] ParallelVerifyResult verify_history_sharded(
    const History& h, const ShardVerifyOptions& options = {});

/// Same, reusing an externally owned pool (for repeated verification runs).
[[nodiscard]] ParallelVerifyResult verify_history_sharded(
    const History& h, util::ThreadPool& pool,
    const ShardVerifyOptions& options = {});

/// The projection used by the definitional fallback: all operation events
/// on the given registers, plus the tryC/C/tryA/A events of every
/// transaction with at least one such operation. Exposed for tests.
[[nodiscard]] History project_registers(const History& h,
                                        const std::vector<ObjId>& registers);

}  // namespace optm::core
