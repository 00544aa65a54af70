// Pluggable version-order resolution (the serialization-rank layer).
//
// The §5.4 certificate machinery needs, for every committed update
// transaction, a serialization RANK, and for every committed write an
// (open, close) rank interval — the version's validity window. PR 1 baked
// in one resolution: rank = position in commit (C-record) order. That is
// correct for every single-version STM in this repository, but it is a
// POLICY, not a law:
//
//   * §3.6's "smart" TMs order blind writes differently from the commit
//     order (a later committer may serialize earlier when nobody observed
//     the difference);
//   * multi-version runtimes serialize read-only transactions at their
//     snapshot, which may lie arbitrarily far before their C event (the
//     H4 / footnote-2 escape route), and — once the recorder stops
//     serializing commit points against its record stream — even update
//     commits' C records can drift past each other, so the RECORD order
//     and the VERSION order genuinely diverge.
//
// This header turns the rank assignment into a policy object consumed by
// the certificate engine, the streaming OnlineCertificateMonitor:
//
//   * kCommitOrder   — PR 1's behavior, byte for byte: ranks 1, 2, 3, …
//     in C-record order; update commits must be current at their rank.
//   * kBlindWriteSmart — commit-order ranks until a window-based flag
//     would fire, then a bounded search over the §3.6 reorderings
//     (moving recent committers past each other), each candidate verified
//     EXACTLY with verify_opacity_certificate, so a certified verdict is
//     still sound. Checker-scale (the search replays the prefix).
//   * kSnapshotRank  — ranks live in the runtime's stamp space: an update
//     commit serializes at the stamp its C event carries (2·wv), a
//     read-only commit at its snapshot point (2·snapshot+1), and version
//     intervals are stamp intervals. This certifies MV histories whose
//     C records arrive out of stamp order — exactly the histories the
//     commit-order policy falsely flags.
//   * kStampedRead   — kSnapshotRank plus per-read stamp validation: when
//     a read response carries its (rv, version) pair (Event::stamp =
//     2·rv+1, Event::ver — window-free recording, see stm/recorder.hpp),
//     the monitor additionally checks that the value read resolves to the
//     version the read NAMES (open rank == 2·ver, via
//     read_stamp_names_version below), that the version was not created
//     after the claimed snapshot (open rank <= 2·rv+1), and at commit
//     that the transaction's serialization stamp does not precede any of
//     its read snapshots. The stamps may come from a clock runtime (TL2
//     family: rv is the global clock, ver the lock word's version) or
//     from an orec runtime (dstm/astm: rv is a validation snapshot drawn
//     before the whole-read-set check, ver is half the CAS-acquired
//     orec's version word — itself the writer's 2·wv ticket); the three
//     checks are source-agnostic. This is the policy under which a
//     recorder needs NO sampling window: the Theorem-2 argument lives
//     entirely on the stamps the runtime emits (see online.hpp for the
//     soundness argument, including why stolen orecs cannot fake it).
//
// All four remain SUFFICIENT certificates: a flag is a certificate
// violation, not yet a proof of non-opacity, and carries a structured
// CertFlagKind so downstream adjudication (core::adjudicate, the
// smart-reorder search) can dispatch on it without string matching.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/history.hpp"

namespace optm::core {

enum class VersionOrderPolicy : std::uint8_t {
  kCommitOrder,     // committed version order == commit (record) order
  kBlindWriteSmart, // + bounded §3.6 reordering search on window flags
  kSnapshotRank,    // stamp-space ranks (MV snapshot serialization)
  kStampedRead,     // + per-read (rv, version) stamp validation
};

[[nodiscard]] constexpr const char* to_string(VersionOrderPolicy p) noexcept {
  switch (p) {
    case VersionOrderPolicy::kCommitOrder: return "commit-order";
    case VersionOrderPolicy::kBlindWriteSmart: return "blind-write-smart";
    case VersionOrderPolicy::kSnapshotRank: return "snapshot-rank";
    case VersionOrderPolicy::kStampedRead: return "stamped-read";
  }
  return "?";
}

/// Inverse of to_string — the one parser behind every --policy flag and
/// the log headers' policy metadata. nullopt for unknown names.
[[nodiscard]] constexpr std::optional<VersionOrderPolicy>
parse_version_order_policy(std::string_view name) noexcept {
  if (name == "commit-order") return VersionOrderPolicy::kCommitOrder;
  if (name == "blind-write-smart") return VersionOrderPolicy::kBlindWriteSmart;
  if (name == "snapshot-rank") return VersionOrderPolicy::kSnapshotRank;
  if (name == "stamped-read") return VersionOrderPolicy::kStampedRead;
  return std::nullopt;
}

/// Policies whose serialization ranks live in the runtimes' stamp space
/// (Event::stamp) rather than in C-record order. Both runtime stamp
/// sources land in the same space: clock runtimes (tl2/tiny/mv) stamp C
/// with 2·wv straight off the global clock, and the orec runtimes
/// (dstm/astm) ticket their commits through a CAS-published kCommitting
/// state and store the 2·wv ticket as the orec version word — either way
/// Event::ver on a stamped read names the wv whose C opened the version.
[[nodiscard]] constexpr bool stamp_space(VersionOrderPolicy p) noexcept {
  return p == VersionOrderPolicy::kSnapshotRank ||
         p == VersionOrderPolicy::kStampedRead;
}

/// The kStampedRead version-identity cross-check of the certificate
/// monitor: does the version id a read names (Event::ver)
/// match the stamp-space rank its value-resolved version opened at? The
/// magnitude guard keeps `2 * ver` from wrapping: a genuine version claim
/// always satisfies open == 2·ver without overflow, so a wrapping ver —
/// the ver = 2^63 + true_ver replay attack — is by definition a lie,
/// whatever open rank the wrapped product would alias to.
[[nodiscard]] constexpr bool read_stamp_names_version(
    std::uint64_t ver, std::size_t open_rank) noexcept {
  return ver <= (~std::uint64_t{0} >> 1) &&
         open_rank == 2 * static_cast<std::size_t>(ver);
}

/// Structured classification of a certificate flag. Every fail site of the
/// certificate monitor tags its flag with one of these so adjudication
/// (core::adjudicate, smart-reorder repair) dispatches on the enum
/// instead of matching reason strings.
enum class CertFlagKind : std::uint8_t {
  kNone = 0,
  kNotWellFormed,         // §4 life-cycle violation
  kValueNotUnique,        // two writers produced the same (register, value)
  kLocalInconsistency,    // local read disagrees with own buffered write
  kUnwrittenValue,        // read a value no transaction ever wrote
  kSelfRead,              // read own value before writing it
  kReadFromNonCommitted,  // reads-from a non-committed (possibly
                          // commit-pending — the H4 case) writer
  kSnapshotEmpty,         // snapshot window became empty
  kStaleRead,             // window closed before the transaction began
  kNotCurrentAtCommit,    // update commit outside its snapshot window
  kNoReadOnlyPoint,       // read-only commit with no serialization point
  kReadStampMismatch,     // a read's (rv, version) stamp contradicts the
                          // value-resolved version chain, or a commit
                          // stamp precedes one of its read snapshots
  kSmartReorderFailed,    // no bounded §3.6 reordering certifies the prefix
  kNotOpaque,             // definitional: prefix proven non-opaque
  kBudgetExhausted,       // definitional: search budget exhausted
};

[[nodiscard]] const char* to_string(CertFlagKind k) noexcept;

/// Window-based flags are statements about ONE candidate version order and
/// may evaporate under another — these are the kinds the BlindWriteSmart
/// policy may try to repair by retro-ordering versions. Well-formedness and
/// value-resolution flags are order-independent and never repairable.
[[nodiscard]] constexpr bool reorder_repairable(CertFlagKind k) noexcept {
  switch (k) {
    case CertFlagKind::kSnapshotEmpty:
    case CertFlagKind::kStaleRead:
    case CertFlagKind::kNotCurrentAtCommit:
    case CertFlagKind::kNoReadOnlyPoint:
      return true;
    default:
      return false;
  }
}

/// Flag kinds that by themselves prove the history non-opaque (they break
/// §5.4 consistency, which Theorem 2 makes necessary) — core::adjudicate
/// decides these kNo without running the exponential search.
[[nodiscard]] constexpr bool proves_non_opaque(CertFlagKind k) noexcept {
  switch (k) {
    case CertFlagKind::kLocalInconsistency:
    case CertFlagKind::kUnwrittenValue:
    case CertFlagKind::kSelfRead:
      return true;
    default:
      return false;
  }
}

/// Rank value meaning "still open" / "no rank".
inline constexpr std::size_t kOpenVersionRank = static_cast<std::size_t>(-1);

/// Streaming serialization-rank assignment — the one shared mechanism under
/// the monitor. Feed it every committed
/// C event in record order; it answers three questions:
///
///   * update_commit_rank(c): the rank at which the update transaction
///     behind C event `c` serializes (and at which its writes open /
///     predecessors close);
///   * read_only_point(c): the pinned serialization point of a read-only
///     commit, when the policy derives one (a stamp-space policy with an
///     odd stamp — the runtime's 2·snapshot+1 convention); nullopt means the
///     monitor falls back to the window rule (any rank in the snapshot
///     window past the birth floor);
///   * floor(): the birth floor — every version closed at a rank <= floor()
///     was closed by a commit whose C event has already been fed, so a
///     transaction born now must serialize strictly above it.
class VersionOrderResolver {
 public:
  explicit VersionOrderResolver(
      VersionOrderPolicy policy = VersionOrderPolicy::kCommitOrder) noexcept
      : policy_(policy) {}

  [[nodiscard]] VersionOrderPolicy policy() const noexcept { return policy_; }

  [[nodiscard]] std::size_t update_commit_rank(const Event& c) noexcept {
    if (stamp_space(policy_)) {
      // Stamp space. Unstamped C events (hand-built or legacy histories)
      // synthesize a rank just above everything seen, which reproduces
      // commit-order behavior on stamp-free histories.
      const std::size_t rank =
          c.stamp != 0 ? static_cast<std::size_t>(c.stamp) : floor_ + 1;
      if (rank > floor_) floor_ = rank;
      return rank;
    }
    ++next_;
    floor_ = next_;
    return next_;
  }

  [[nodiscard]] std::optional<std::size_t> read_only_point(
      const Event& c) const noexcept {
    if (stamp_space(policy_) && (c.stamp & 1) != 0) {
      return static_cast<std::size_t>(c.stamp);
    }
    return std::nullopt;
  }

  [[nodiscard]] std::size_t floor() const noexcept { return floor_; }

 private:
  VersionOrderPolicy policy_;
  std::size_t next_ = 0;   // commit-order counter
  std::size_t floor_ = 0;  // max update rank assigned so far
};

// ---------------------------------------------------------------------------
// §3.6 smart-reorder search (the BlindWriteSmart policy's engine)
// ---------------------------------------------------------------------------

struct SmartReorderResult {
  /// A candidate version order was found and verified EXACTLY (Theorem 2
  /// certificate over the whole history) — the history is opaque.
  bool certified = false;
  /// The certified total order ≪ over all transactions (iff certified).
  std::vector<TxId> order;
  /// Candidate orders examined (certified, pruned or exactly refuted).
  std::size_t candidates_tried = 0;
  /// Of those, candidates rejected by the O(reads) stamp scan WITHOUT an
  /// exact verify_opacity_certificate pass (see StampPruneIndex).
  std::size_t candidates_pruned = 0;
};

/// The recorder's anchor order: committed transactions at their C position,
/// others at their last non-local read response (their last whole-read-set
/// validation), falling back to their first event — the order
/// stm::detail::certificate_order_of gives a history whose C and A events
/// all carry stamp 0 (it reads each transaction's serialization stamp off
/// its completion event; this ignores stamps). Exposed for tests.
[[nodiscard]] std::vector<TxId> anchor_order(const History& h);

/// Sound fast rejection of candidate version orders, built once per search
/// from the history's value-resolved reads-from and its recorded read
/// stamps (Event::ver — the version identity PRs 3–4 put on window-free
/// read responses). Two necessary conditions of the exact certificate are
/// checked in O(reads) per candidate, with no History replay:
///
///   * reads-from follows ≪ (certificate check (b)): a candidate that
///     serializes a reader at or before its value-resolved writer is
///     condemned for every reader — committed, aborted or live — because
///     verify_opacity_certificate rejects any reads-from edge against ≪;
///   * no intervening writer (certificate check (d)): when a stamped read
///     names its version, the stamp chain names that version's OVERWRITER
///     (the committed writer of the next version in stamp space). A
///     candidate ranking writer < overwriter < reader puts a visible
///     writer of the register strictly between the reads-from endpoints,
///     which check (d) rejects.
///
/// Both conditions are implied by the exact pass, so pruning can only skip
/// candidates the exact pass would refute — verdicts are unchanged (the
/// stamp-prune fuzz suite differentially enforces this).
class StampPruneIndex {
 public:
  explicit StampPruneIndex(const History& h);

  /// True if `order` cannot be certified (sound: implied by the exact
  /// certificate). O(reads) plus one O(|order|) rank fill.
  [[nodiscard]] bool rejects(const std::vector<TxId>& order) const;

  [[nodiscard]] std::size_t num_constraints() const noexcept {
    return constraints_.size();
  }

 private:
  struct Constraint {
    TxId reader{kNoTx};
    TxId writer{kNoTx};      // kInitTx: reader > init holds in every order
    TxId overwriter{kNoTx};  // kNoTx: no stamped next version known
  };
  std::vector<Constraint> constraints_;
  // Scratch for rejects(): dense tx -> candidate rank, epoch-validated so
  // repeated calls neither clear nor allocate.
  mutable std::vector<std::pair<std::uint32_t, std::size_t>> rank_;
  mutable std::uint32_t epoch_ = 0;
};

struct SmartReorderOptions {
  /// Transaction to try moving first (the flagged one), if any.
  std::optional<TxId> prioritize;
  /// Search bound: the last max_moves committers, each moved up to
  /// max_moves positions earlier.
  std::size_t max_moves = 8;
  /// A previously certified order to extend and try FIRST (the streaming
  /// monitor's incremental search-mode replay: the witness of the last
  /// certified prefix usually certifies the next one, making the common
  /// per-response cost one exact pass instead of a whole search).
  const std::vector<TxId>* hint = nullptr;
  /// Reject candidates via StampPruneIndex before the exact pass
  /// (disabled only by the differential fuzz that proves it sound).
  bool stamp_prune = true;
};

/// Bounded search over the §3.6 reorderings of `h`'s anchor order: for
/// each of the last max_moves committers (trying options.prioritize
/// first, if given), try serializing it up to max_moves positions earlier;
/// every surviving candidate is verified with verify_opacity_certificate,
/// so `certified` is sound. Candidates are first screened by the O(reads)
/// StampPruneIndex scan (candidates_pruned counts the rejects). Intended
/// for checker-scale prefixes — each exact pass costs O(|h| log |h|).
[[nodiscard]] SmartReorderResult smart_reorder_search(
    const History& h, const SmartReorderOptions& options);

/// Convenience overload (pre-PR-5 signature).
[[nodiscard]] inline SmartReorderResult smart_reorder_search(
    const History& h, std::optional<TxId> prioritize = std::nullopt,
    std::size_t max_moves = 8) {
  SmartReorderOptions options;
  options.prioritize = prioritize;
  options.max_moves = max_moves;
  return smart_reorder_search(h, options);
}

}  // namespace optm::core
