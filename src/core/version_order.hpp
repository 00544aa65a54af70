// The version order of the §5.4 certificate (the serialization-rank layer).
//
// The certificate machinery needs, for every committed update
// transaction, a serialization RANK, and for every committed write an
// (open, close) rank interval — the version's validity window. Theorem 2
// makes ANY version order that passes the certificate a proof of opacity,
// so the monitor needs one good order, and it uses the one the runtimes
// already serialize in: their stamps.
//
//   * An update commit serializes at the stamp its C event carries (2·wv);
//     a read-only commit whose C carries an odd stamp serializes at that
//     snapshot point (2·snapshot+1); version intervals are stamp
//     intervals. Multi-version runtimes serialize read-only transactions
//     at a snapshot that may lie arbitrarily far before their C event
//     (the H4 / footnote-2 escape route), and a window-free recorder lets
//     C records of concurrent commits drift past each other, so the
//     RECORD order and the VERSION order genuinely diverge: stamps put
//     each version back where the runtime serialized it.
//   * An unstamped C (hand-built histories, runtimes that stamp nothing)
//     ranks next in record order, just above every rank seen so far — on
//     a stamp-free history the order IS the commit order.
//   * A read response that carries its (rv, version) pair (Event::stamp =
//     2·rv+1, Event::ver — window-free recording, see stm/recorder.hpp)
//     is cross-checked: the value read must resolve to the version the
//     read NAMES (open rank == 2·ver, via read_stamp_names_version below),
//     that version must not have been created after the claimed snapshot
//     (open rank <= 2·rv+1), and at commit the transaction's serialization
//     stamp must not precede any of its read snapshots. The stamps may
//     come from a clock runtime (TL2 family: rv is the global clock, ver
//     the lock word's version) or from an orec runtime (dstm/astm: rv is
//     a validation snapshot drawn before the whole-read-set check, ver is
//     half the CAS-acquired orec's version word — itself the writer's 2·wv
//     ticket); the checks are source-agnostic, and they run only on
//     stamped events. This is why a recorder needs NO sampling window: the
//     Theorem-2 argument lives entirely on the stamps the runtime emits
//     (see online.hpp for the soundness argument, including why stolen
//     orecs cannot fake it).
//
// The certificate stays SUFFICIENT: a flag is a certificate violation, not
// yet a proof of non-opacity, and carries a structured CertFlagKind so
// core::adjudicate can dispatch on it without string matching. The §3.6
// reorder search below (smart_reorder_search) is one of adjudicate's
// steps: it looks for ANOTHER version order that certifies a flagged
// prefix.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/history.hpp"

namespace optm::core {

/// The names the policy field of a log segment header and of an
/// optm-net-v1 hello has carried. Every one means the stamp order
/// above: old logs and clients still load, and writers fill the field
/// with kVersionOrderName.
inline constexpr const char* kVersionOrderName = "stamped-read";

/// Whether `name` is one of the four historical policy names. The field is
/// input from outside the program, so any other name is rejected.
[[nodiscard]] constexpr bool is_version_order_name(
    std::string_view name) noexcept {
  return name == "commit-order" || name == "blind-write-smart" ||
         name == "snapshot-rank" || name == kVersionOrderName;
}

/// Ignored; kept only for perfbench; due for removal in the next benchmark
/// PR. There is one version order: nothing reads these values, the
/// monitor's two-argument constructor and StreamVerifyOptions::policy
/// drop them, and to_string() names the one order whatever it is given.
enum class VersionOrderPolicy : std::uint8_t { kCommitOrder, kStampedRead };

/// Ignored; kept only for perfbench; due for removal in the next benchmark
/// PR.
[[nodiscard]] constexpr const char* to_string(VersionOrderPolicy) noexcept {
  return kVersionOrderName;
}

/// The version-identity cross-check of the certificate monitor: does the
/// version id a stamped read names (Event::ver)
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
/// (core::adjudicate) dispatches on the enum instead of matching reason
/// strings.
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
  kNotOpaque,             // definitional: prefix proven non-opaque
  kBudgetExhausted,       // definitional: search budget exhausted
};

[[nodiscard]] const char* to_string(CertFlagKind k) noexcept;

/// Window-based flags are statements about ONE candidate version order and
/// may evaporate under another — these are the kinds core::adjudicate may
/// repair with the §3.6 reorder search. Well-formedness and
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
/// the monitor. Feed it every committed C event in record order; it
/// answers three questions:
///
///   * update_commit_rank(c): the rank at which the update transaction
///     behind C event `c` serializes (and at which its writes open /
///     predecessors close): its stamp, or the next rank in record order
///     when it carries none;
///   * read_only_point(c): the pinned serialization point of a read-only
///     commit whose C carries an odd stamp (the runtime's 2·snapshot+1
///     convention); nullopt means the monitor falls back to the window
///     rule (any rank in the snapshot window past the birth floor);
///   * floor(): the birth floor — every version closed at a rank <= floor()
///     was closed by a commit whose C event has already been fed, so a
///     transaction born now must serialize strictly above it.
///
/// Both runtime stamp sources land in the same space: clock runtimes
/// (tl2/tiny/mv) stamp C with 2·wv straight off the global clock, and the
/// orec runtimes (dstm/astm) ticket their commits through a CAS-published
/// kCommitting state and store the 2·wv ticket as the orec version word —
/// either way Event::ver on a stamped read names the wv whose C opened the
/// version.
class VersionOrderResolver {
 public:
  [[nodiscard]] std::size_t update_commit_rank(const Event& c) noexcept {
    // An unstamped C synthesizes a rank just above everything seen, so a
    // stamp-free history ranks in commit (record) order.
    const std::size_t rank =
        c.stamp != 0 ? static_cast<std::size_t>(c.stamp) : floor_ + 1;
    if (rank > floor_) floor_ = rank;
    return rank;
  }

  [[nodiscard]] static std::optional<std::size_t> read_only_point(
      const Event& c) noexcept {
    if ((c.stamp & 1) != 0) return static_cast<std::size_t>(c.stamp);
    return std::nullopt;
  }

  [[nodiscard]] std::size_t floor() const noexcept { return floor_; }

 private:
  std::size_t floor_ = 0;  // max update rank assigned so far
};

// ---------------------------------------------------------------------------
// §3.6 smart-reorder search (core::adjudicate's repair step)
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
