// Online (streaming) opacity monitors.
//
// §5.2 observes that "a history of a TM is generated progressively and at
// each time the history of all events issued so far must be opaque" — the
// set of opaque histories is not prefix-closed, but a correct TM's run is
// judged prefix by prefix. These monitors consume one transactional event
// at a time, as a TM would emit them, and report the FIRST event whose
// prefix is condemned. Two backends with the usual exactness/efficiency
// trade:
//
//  * OnlineDefinitionalMonitor — exact. Replays Definition 1 on every
//    prefix that ends in a response-class event (invocations alone cannot
//    make an opaque prefix non-opaque: they add no return values and
//    complete no transaction, so the previous witness still works).
//    Exponential worst case; intended for checker-scale histories, tests,
//    and cross-validation of the certificate backend.
//
//  * OnlineCertificateMonitor — polynomial (amortized O(1) per event), for
//    register histories with value-unique writes. It is a SUFFICIENT
//    certificate, not a decision procedure: a clean run is certified
//    opaque-prefix-by-prefix; a flagged event is a certificate violation
//    (carrying a structured CertFlagKind) that core::adjudicate
//    (adjudicate.hpp) then decides against Definition 1. Reads from
//    commit-pending writers (legal under opacity via the set V — the H4
//    optimization) are flagged conservatively with kReadFromNonCommitted;
//    none of our runtimes produce them, because the recorder window makes
//    commit points atomic with their C events.
//
// Both backends are single-threaded. OnlineCertificateMonitor is the one
// streaming certification engine: live pipelines (stm::MonitorSink), the
// certification service (net/server.hpp) and log replay
// (core::verify_event_stream) all run it, so each reports the verdict and
// first condemned position this class defines.
//
// The committed VERSION ORDER the certificate checks against is the one
// core::VersionOrderResolver assigns (see version_order.hpp): ranks live
// in the runtimes' stamp space (Event::stamp: 2·wv on update commits,
// 2·snapshot+1 on snapshot-serialized commits), and an unstamped C ranks
// next in record order. Read-only transactions serialize at their
// snapshot point, which may lie arbitrarily before their C event, and
// update commits' C records may drift past each other (a window-free
// recorder) without a false flag. Non-local read responses that carry
// their (rv, version) stamp pair (Event::stamp = 2·rv+1, Event::ver = the
// version read) are cross-checked against the value-resolved version
// chain; unstamped events skip those checks, so on a stamp-free history
// the certificate is the commit-order certificate.
//
// WINDOW-FREE SOUNDNESS (Theorem 2 on stamps). With the recorder's shared
// sampling window gone, a read's value sampling and the recording of its
// response are no longer atomic: the response record can drift past the C
// record of a commit that overwrote the version read, and C records of
// concurrent commits can drift past each other. The certificate survives
// because every claim it needs moved off record POSITIONS onto the stamps
// the runtime emits:
//
//   * reads-from is never inverted: a TL2-style committer records C
//     (drawing its global recorder stamp) BEFORE writing back, and a
//     reader samples the committed value only AFTER write-back, so the
//     writer's C precedes every dependent read response in the drained
//     stream — version records exist and are committed by the time a read
//     resolves against them (kReadFromNonCommitted cannot fire falsely);
//   * read validity is a stamp interval: a read stamped (rv, version)
//     claims its version was current at snapshot rv — version <= rv by the
//     runtime's O(1) validation, and the NEXT version of that register
//     carries wv' > rv because a writer locks the register before
//     advancing the clock (a reader that samples an unlocked old version
//     did so before the overwriter locked, hence before it advanced). So
//     2·rv+1 lies in the version's stamp interval [2·version, 2·wv')
//     regardless of where the records landed;
//   * the serialization checks are per-transaction stamp checks: an update
//     commit (2·wv) and a pinned read-only point (2·rv+1) must lie inside
//     the transaction's stamp-space snapshot window and above its birth
//     floor. The floor stays sound window-free: any C event recorded
//     before a transaction's first event drew its commit stamp before that
//     first event was recorded, hence before the transaction sampled its
//     snapshot — its rank is below every serialization point the
//     transaction can claim.
//
// OREC-SOURCED STAMPS (dstm/astm). The ownership-record runtimes have no
// per-read O(1) clock validation, but the same three claims hold with the
// orec machinery as the stamp authority (the full story is in
// stm/dstm.hpp):
//
//   * a committer CASes its status word to kCommitting BEFORE drawing its
//     clock ticket wv, and every owned orec points at that word — so the
//     intent to commit is visible through the data before the ticket
//     exists, exactly the role TL2's write locks play;
//   * a validation draws its snapshot rv BEFORE examining any read-set
//     entry and waits out kCommitting/kCommitted owners (bounded, then a
//     conservative abort — two committers each reading a variable the
//     other owns would deadlock an unbounded wait); an entry that passes
//     therefore has every future overwriter entering kCommitting — and
//     drawing its ticket — after the rv read, so all passing entries are
//     simultaneously current at stamp 2·rv+1. Reads are stamped
//     (2·rv+1, version/2), where the version word a reader sampled is the
//     writer's 2·wv ticket (write-backs store the ticket);
//   * reads-from is never inverted for the same reason as in TL2: C is
//     recorded after the kCommitted store and before write-back, and a
//     reader resolves a value only after write-back published it.
//
//   STOLEN ORECS cannot fake any of this: ownership can be stolen only
//   from a status word reading kAborted (or a stale epoch), never from
//   kCommitting/kCommitted — so a steal implies the victim aborted, its C
//   is never recorded, and its buffered writes never reach a version
//   word. The stamps on the victim's recorded reads keep naming the last
//   COMMITTED version, which is still the truth, and the victim's A event
//   installs nothing — so a committed read can never resolve against a
//   stolen (never-written-back) version, and reads-from cannot invert.
//
// MvStm's update commits join by the mirrored ordering: the committer
// locks its write set, draws 2·wv, THEN validates (lock → ticket →
// validate), so an overwriter of anything it read tickets strictly later;
// its reads are stamped (2·snapshot+1, ring stamp), truthful by the
// snapshot-read construction (see stm/mv.hpp).
//
// The recorded ≺_H (completion before first event, in RECORD order) is a
// subset of the real-time order of the record pushes, so a stamp
// serialization that respects the birth floors respects ≺_H — exactly the
// obligation Theorem 2's well-formedness side imposes.
//
// What the stamps do NOT prove by themselves is that the runtime told the
// truth; the monitor therefore cross-checks every claim it can (version
// identity, snapshot monotonicity) and the conformance harness
// (core/conformance.hpp) differentially tests window-free recordings
// against windowed recordings of identical schedules and against the exact
// definitional checker.
//
// The certificate backend maintains, per live transaction, the interval of
// serialization ranks ("the snapshot window") at which ALL its non-local
// reads were simultaneously current — the same snapshot-window idea as
// find_inconsistent_snapshot, but incremental:
//
//   * every committed write opens a version at the resolver-assigned rank
//     and closes the previous version of that register;
//   * a read intersects the transaction's window with the version's
//     [open, close) interval; an empty window is an inconsistent snapshot;
//   * a window that closes at or before the transaction's "birth floor"
//     (the resolver's floor at its first event) cannot be serialized
//     without violating the real-time order ≺_H — the stale-read case;
//   * at commit, an UPDATE transaction must additionally serialize inside
//     its window at its resolver rank (for an unstamped C that rank is the
//     new top rank, so this degenerates to "reads still current at
//     commit"); a read-only transaction needs its pinned snapshot point
//     inside the window when its C carries one, or merely a nonempty
//     window extending past its birth floor when it does not.
//
// SiStm's write skew is caught at the second skewed commit: the rival's
// commit closed a version the committer read, so the window no longer
// contains the commit rank.
//
// HOT-PATH COST MODEL. A steady-state event performs ZERO heap allocations
// and ZERO node-based hash-map probes, and touches state only of what is
// live — its own transaction and, for a register operation, that
// register's head line (plus one index probe — an index slot and its
// archived record — when it writes or reads a value other than the
// register's current one; nothing else probes the index, so a version
// costs exactly one probe, at its write response):
//
//   * every TxId owns one 32-bit word in a TxId-indexed slab (TxSlab —
//     both recorders allocate ids densely from 1, so the id is the index;
//     one bounds check + one vector index per event). The word says
//     unborn, committed, aborted, or which live slot holds the
//     transaction; it is all a transaction keeps after C or A;
//   * a LIVE transaction's state (phase, birth floor, snapshot window,
//     read stamp, pending invocation, write set) sits in a pooled slot,
//     taken at its first event and recycled at C or A.
//     The pool grows only to the most transactions ever live at once (or
//     what reserve() pre-sized), so it stays in cache however long the
//     stream runs;
//   * an event for a finished id sees one shared kDone state and flags
//     kNotWellFormed exactly as a finished transaction's own state did;
//   * every register owns one 64-byte REGISTER HEAD (one cache line): its
//     current committed version's value, writer and open rank, the
//     address of that version's table record, and its first six holders
//     (the live readers whose window the version bounds). A read that
//     returns the current value — nearly every non-local read of a live
//     run — builds its version record {writer, open rank, open} from the
//     head, identical to the table's, and pushes its holder there. The
//     install at commit closes the previous version through the address
//     (a plain store), shrinks the holders' windows, fills the new
//     version's record through the address its write response stored in
//     the write set, and rewrites the head: it probes nothing;
//   * the (register, value) version namespace is a VersionTable: 32-byte
//     records appended to fixed chunks that never move, under an index of
//     8-byte slots (32-bit fingerprint, 32-bit archive position; linear
//     probing, at most half full, no tombstones since versions are never
//     erased). A fingerprint hit is confirmed against the archived key.
//     What still goes there: every write response (value uniqueness; it
//     returns the record the install later fills) and reads of any value
//     but the current one (older versions, uncommitted or never-written
//     values). resident().table_probes counts these calls. Such a read
//     asks the writer's id word whether it committed — a value the writer
//     overwrote itself commits with it — never the writer's live state,
//     which may already be recycled. An index rebuild moves no record, so
//     a head's or a write set's address never goes stale;
//   * a transaction's executed writes are a sorted SmallWriteSet of
//     (register, record address): a local read compares against the
//     record's value. Inline up to its capacity, then spilled into
//     vectors RECYCLED through a per-monitor pool at transaction
//     completion (same ascending-register iteration order as the std::map
//     it replaced, so install order and every flag position are
//     unchanged);
//   * a holder push that finds the inline slots full first drops the
//     finished holders in place; only a register that still has six live
//     holders spills into an overflow list, taken from a pool and returned
//     at the version's close. Overflow lists drop finished holders before
//     they would grow, so a register read but never rewritten holds
//     O(live) entries, not one per read; failure strings are built only
//     when a flag actually fires.
//
// LOOK-AHEAD. The index, the archive and the register heads outgrow the
// cache on a long stream (the index alone is 8 B × up to twice the
// versions ever written), so the probe a write response makes is mostly a
// cache miss. On window-free tl2 stamped-read histories (4096 registers,
// 2048-event spans, reserve()d) the index probes were 13% (240k events)
// and 24% (1M) of monitor time in BM_CertifyStream, measured against a
// variant without the index (unsound, built only for the attribution;
// Release, GCC 12, 4-vCPU Xeon VM); ROADMAP direction 1 has the figures.
// ingest() therefore looks kAhead events down its span while it feeds
// each event: for a response it prefetches the register's head, for a
// write response also the key's home index slot (VersionTable::home()).
// A write response, once fed, prefetches the record of its register's
// current version (the head line is in cache by then): the install
// closes that record a few events later. A prefetch is a hint and these
// change no monitor state, so verdicts, flag positions, kinds and reasons
// are feed()'s by construction. A response on a register outside the
// model is not prefetched (its invocation flags kNotWellFormed when fed).
// feed() alone has no span to look down.
//
// What still grows with the stream is the version table — one 32-byte
// archive entry per (register, value) ever written, plus 8-byte index
// slots at most half full (16–32 B per version), plus, while the index
// doubles, the old index beside the new one (1.5× the index, never the
// records) — and 4 B per transaction id. resident().version_bytes counts
// the table exactly. Per register the monitor keeps 64 B outside the
// table (overflow lists only for registers that overflow). Certifying a
// window-free tl2 log serially peaks at 103 MB at 2.84M events and 409 MB
// at 28.4M (5.70M versions, 56 B each; Release, GCC 12, 4-vCPU Xeon VM).
// Retiring versions no live transaction can read is the remaining step.
//
// reserve() pre-sizes all of it (the id words, the version index and
// archive, one overflow holder list per register when more holders than a
// head holds inline are expected, and up to kReservedSlots live slots);
// tests/core/monitor_alloc_test.cpp feeds 100k+ events under a counting
// operator-new and asserts literally zero allocations after warm-up, also
// for a register with more live holders than its head holds inline.
// resident() reports what is held, for the tests that pin it flat.
// The design follows what production validation engines do to stay O(1)
// per event (TL2's per-stripe version arrays, NOrec's value-based fast
// path); behavioral equivalence with the pre-rebuild engine is enforced
// byte-for-byte (verdict + flagged position) by the conformance and batch
// differential suites.

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/dense_state.hpp"
#include "core/history.hpp"
#include "core/opacity.hpp"
#include "core/version_order.hpp"

namespace optm::core {

struct OnlineViolation {
  /// Index (0-based) of the event whose prefix is condemned; the prefix
  /// h[0..pos] inclusive is the shortest bad one this monitor saw.
  std::size_t pos{0};
  std::string reason;
  /// Structured classification — what adjudication dispatches on.
  CertFlagKind kind{CertFlagKind::kNone};
};

/// Exact streaming monitor: Definition 1 on every response-ended prefix.
class OnlineDefinitionalMonitor {
 public:
  explicit OnlineDefinitionalMonitor(ObjectModel model,
                                     OpacityOptions options = {});

  /// Feed the next event. Returns false once a violation has been found
  /// (sticky); further events are recorded but not re-checked.
  bool feed(const Event& e);

  /// Batch ingestion: feed every event of `batch` in order. Returns the
  /// conjunction of the feeds (false once a violation is latched).
  bool ingest(std::span<const Event> batch);

  [[nodiscard]] bool ok() const noexcept { return !violation_.has_value(); }
  [[nodiscard]] const std::optional<OnlineViolation>& violation() const noexcept {
    return violation_;
  }
  [[nodiscard]] const History& history() const noexcept { return h_; }
  [[nodiscard]] std::size_t events_fed() const noexcept { return h_.size(); }

 private:
  History h_;
  OpacityOptions options_;
  std::optional<OnlineViolation> violation_;
};

/// Polynomial streaming certificate monitor (see file header for the
/// precise guarantee). Requires an all-register object model; throws
/// std::invalid_argument otherwise.
class OnlineCertificateMonitor {
 public:
  explicit OnlineCertificateMonitor(ObjectModel model);
  /// Ignored; kept only for perfbench; due for removal in the next
  /// benchmark PR. The second argument is dropped: there is one order.
  OnlineCertificateMonitor(ObjectModel model, VersionOrderPolicy /*ignored*/)
      : OnlineCertificateMonitor(std::move(model)) {}

  /// Feed the next event. Returns false once a violation has been found
  /// (sticky).
  bool feed(const Event& e);

  /// Batch ingestion — the feed for the sharded recorder's drain() and the
  /// recorded-mode pipeline. Equivalent to feeding every event of `batch`
  /// one at a time (the equivalence is tested), but amortizes the sticky
  /// violation handling across the batch. Returns false once a violation
  /// has been latched. Live pipelines usually reach this through
  /// stm::MonitorSink fed by a DrainPump (stm/sink.hpp); the same spans
  /// also arrive replayed from disk via log::SegmentReader and
  /// core::verify_event_stream, which ingests each pulled span as is.
  bool ingest(std::span<const Event> batch);

  /// How far down its span ingest() looks ahead: while it feeds event i it
  /// prefetches for event i + kAhead (see LOOK-AHEAD in the file header).
  static constexpr std::size_t kAhead = 16;

  /// Pre-size the dense hot-path state: the per-id words (expected number
  /// of distinct TxIds), the version table (expected distinct (register,
  /// value) pairs, writes plus initial values), optionally the holders of
  /// each register (beyond the inline ones a register head keeps, one
  /// overflow list per register), and min(num_txs, kReservedSlots)
  /// live-transaction slots.
  /// After this, a feed within those bounds (and with at most that many
  /// transactions live at once) performs no heap allocation at all
  /// (monitor_alloc_test holds it to zero under a counting allocator).
  /// Throws std::length_error for more than 2^32 - 1 versions.
  void reserve(std::size_t num_txs, std::size_t num_versions,
               std::size_t holders_per_register = 0);

  [[nodiscard]] bool ok() const noexcept { return !violation_.has_value(); }
  [[nodiscard]] const std::optional<OnlineViolation>& violation() const noexcept {
    return violation_;
  }
  [[nodiscard]] std::size_t events_fed() const noexcept { return pos_; }
  /// Committed update transactions seen so far.
  [[nodiscard]] std::size_t commits_seen() const noexcept { return commits_; }

  /// What the monitor holds right now — the state that must stay flat on
  /// a long stream, except the version table (one record per version).
  struct Resident {
    std::size_t live_txs{0};        // first event seen, C or A not yet
    std::size_t live_slots{0};      // TxState slots allocated (live + free)
    std::size_t holder_entries{0};  // inline + overflow, all registers
    std::size_t versions{0};        // (register, value) records
    std::size_t version_bytes{0};   // index slots + archive chunks
    /// Calls into the version index while feeding (slot() plus find()):
    /// one per write response and per read of a non-current value.
    std::size_t table_probes{0};
  };
  [[nodiscard]] Resident resident() const noexcept;

 private:
  static constexpr std::size_t kOpen = static_cast<std::size_t>(-1);

  /// Life-cycle of one transaction, §4's well-formedness state machine.
  enum class Phase : std::uint8_t {
    kIdle,           // between responses
    kOpPending,      // operation invoked, response outstanding
    kCommitPending,  // tryC issued
    kAbortPending,   // tryA issued
    kDone,           // C or A received
  };

  /// Per-id word in ids_: an id is unborn (no event yet), live (the word
  /// is its live_ slot + 1), committed (C seen) or aborted (A seen). The
  /// word is all that outlives a transaction; a read of a table version
  /// asks it whether the version's writer committed.
  static constexpr std::uint32_t kUnborn = 0;
  static constexpr std::uint32_t kAborted = ~std::uint32_t{0} - 1;
  static constexpr std::uint32_t kCommitted = ~std::uint32_t{0};
  [[nodiscard]] static bool is_finished(std::uint32_t word) noexcept {
    return word >= kAborted;
  }
  /// Live slots reserve() pre-sizes: the concurrently live transactions of
  /// a recorded run, one per thread.
  static constexpr std::size_t kReservedSlots = 64;

  /// One version: its (register, value) key, which the table owns, and
  /// its writer and [open, close) rank interval. Whether the writer
  /// committed is its id word's business (a value the writer overwrote
  /// itself stays uninstalled at [0, 0) but committed with it).
  struct VersionRec {
    Value val{0};
    ObjId obj{0};
    TxId writer{kNoTx};
    std::size_t open_rank{0};
    std::size_t close_rank{kOpen};
  };
  static_assert(sizeof(VersionRec) == 32);

  /// State of one LIVE transaction, recycled through free_slots_ at C or A.
  struct TxState {
    Phase phase{Phase::kIdle};
    bool has_write{false};      // an executed write exists
    std::size_t birth_rank{0};
    std::size_t lo{0};          // window: max over reads of version open rank
    std::size_t hi{kOpen};      // min over reads of version close rank
    /// Largest read-stamp (2·rv+1) among the transaction's stamped reads —
    /// a stamped commit must not lie below it.
    std::uint64_t max_read_stamp{0};
    Event pending{};            // the outstanding invocation (kOpPending)
    /// Executed writes: per register, the record of its latest value
    /// (what the write response's probe returned, filled at the install),
    /// ascending-register order (spill storage recycled via spill_pool_
    /// at completion).
    SmallWriteSet<VersionRec*> writes;
  };

  static constexpr std::uint32_t kNoOverflow = ~std::uint32_t{0};

  /// The register's current committed version, as the table holds it
  /// ({writer, open_rank, kOpen}), plus the address of that table record
  /// (records never move), and the transactions whose windows it bounds.
  /// A read of the current value, the holder push and the install at
  /// commit all stay on this line.
  struct alignas(64) RegisterHead {
    static constexpr std::size_t kInlineHolders = 6;
    Value val{0};
    std::size_t open_rank{0};
    /// The current version's record in versions_.
    VersionRec* rec{nullptr};
    TxId writer{kNoTx};
    std::uint32_t num_inline{0};
    /// Index into overflow_ of the list taking the holders past the inline
    /// ones, or kNoOverflow.
    std::uint32_t overflow{kNoOverflow};
    std::array<TxId, kInlineHolders> holders{};
  };
  static_assert(sizeof(RegisterHead) == 64);

  bool fail(CertFlagKind kind, const std::string& reason);
  bool on_operation_response(const Event& e, TxState& tx);
  bool on_commit(const Event& c, TxState& tx, TxId id);
  /// Take a free live slot (or grow the pool) for a transaction's first
  /// event; returns its ids_ word.
  [[nodiscard]] std::uint32_t acquire_slot();
  /// Release a live transaction's slot at C or A; its id becomes committed
  /// or aborted.
  void retire(std::uint32_t& word, bool committed);
  /// Whether `tx`'s C event has been seen.
  [[nodiscard]] bool has_committed(TxId tx) const noexcept;
  /// Record `id` as a holder of `head`'s current version.
  void hold(RegisterHead& head, TxId id);
  /// Shrink every holder's window to `rank` (the current version closes
  /// there) and empty the holder list.
  void close_holders(RegisterHead& head, std::size_t rank);

  ObjectModel model_;
  VersionOrderResolver resolver_;
  std::size_t pos_{0};
  std::size_t commits_{0};  // committed update transactions so far
  std::optional<OnlineViolation> violation_;
  /// TxId-indexed per-id words (dense by construction of both recorders;
  /// sparse ids overflow gracefully): unborn, committed, aborted or a live
  /// slot.
  TxSlab<std::uint32_t> ids_;
  /// Live transaction states and the free slots among them.
  std::vector<TxState> live_;
  std::vector<std::uint32_t> free_slots_;
  /// The state every event of a finished id sees: phase kDone, so each
  /// late event flags kNotWellFormed in the same switch arm it always did.
  /// Set to kDone at construction and never mutated after (every arm
  /// fails on kDone).
  TxState finished_;
  /// (register, value) -> version record; value-unique writes. Every write
  /// response inserts here; reads of anything but a register's current
  /// version resolve here: records archived in place under an 8-byte
  /// fingerprint index.
  VersionTable<VersionRec> versions_;
  /// Register -> its head (current version and first holders).
  std::vector<RegisterHead> heads_;
  /// Holder lists of registers whose inline holders are all live and one
  /// more arrives, and the free ones among them (capacity kept). Finished
  /// holders are pruned before a list would reallocate; a list returns to
  /// the free pool when its version closes.
  std::vector<std::vector<TxId>> overflow_;
  std::vector<std::uint32_t> free_overflow_;
  /// Recycled write-set spill storage (see dense_state.hpp).
  SmallWriteSet<VersionRec*>::SpillPool spill_pool_;
};

}  // namespace optm::core
