#include "core/online.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/object_spec.hpp"

namespace optm::core {

// ---------------------------------------------------------------------------
// OnlineDefinitionalMonitor
// ---------------------------------------------------------------------------

OnlineDefinitionalMonitor::OnlineDefinitionalMonitor(ObjectModel model,
                                                     OpacityOptions options)
    : h_(std::move(model)), options_(options) {}

bool OnlineDefinitionalMonitor::feed(const Event& e) {
  h_.append(e);
  if (violation_.has_value()) return false;

  std::string why;
  if (!h_.well_formed(&why)) {
    violation_ = OnlineViolation{h_.size() - 1, "not well-formed: " + why,
                                 CertFlagKind::kNotWellFormed};
    return false;
  }
  // Invocations cannot break an opaque prefix: they add no return values
  // and complete no transaction, so the previous witness serialization
  // still serves (the new invocation is simply pending).
  if (e.is_invocation()) return true;

  const OpacityResult result = check_opacity(h_, options_);
  if (result.verdict != Verdict::kYes) {
    violation_ = OnlineViolation{
        h_.size() - 1,
        result.verdict == Verdict::kNo
            ? "prefix not opaque: " + result.reason
            : "search budget exhausted: " + result.reason,
        result.verdict == Verdict::kNo ? CertFlagKind::kNotOpaque
                                       : CertFlagKind::kBudgetExhausted};
    return false;
  }
  return true;
}

bool OnlineDefinitionalMonitor::ingest(std::span<const Event> batch) {
  bool ok = true;
  for (const Event& e : batch) ok = feed(e);
  return ok && !violation_.has_value();
}

// ---------------------------------------------------------------------------
// OnlineCertificateMonitor
// ---------------------------------------------------------------------------

OnlineCertificateMonitor::OnlineCertificateMonitor(ObjectModel model)
    : model_(std::move(model)) {
  finished_.phase = Phase::kDone;
  heads_.resize(model_.size());
  versions_.reserve(model_.size() + 16);
  for (ObjId r = 0; r < model_.size(); ++r) {
    const auto* reg = dynamic_cast<const RegisterSpec*>(&model_.spec(r));
    if (reg == nullptr) {
      throw std::invalid_argument(
          "online certificate monitor: register histories only");
    }
    // The initializer's version of every register: open from rank 0.
    const Value init = reg->initial_value();
    VersionRec& rec = versions_.slot(r, init);
    rec.writer = kInitTx;
    rec.open_rank = 0;
    rec.close_rank = kOpen;
    heads_[r] = RegisterHead{
        .val = init, .open_rank = 0, .rec = &rec, .writer = kInitTx};
  }
}

void OnlineCertificateMonitor::reserve(std::size_t num_txs,
                                       std::size_t num_versions,
                                       std::size_t holders_per_register) {
  ids_.reserve(num_txs);
  versions_.reserve(num_versions);
  if (holders_per_register > RegisterHead::kInlineHolders) {
    // Every register may overflow at once: one list each, sized for the
    // holders past the inline ones.
    free_overflow_.reserve(heads_.size());
    while (overflow_.size() < heads_.size()) {
      free_overflow_.push_back(static_cast<std::uint32_t>(overflow_.size()));
      overflow_.emplace_back();
    }
    for (auto& list : overflow_) {
      list.reserve(holders_per_register - RegisterHead::kInlineHolders);
    }
  }
  const std::size_t slots = std::min(num_txs, kReservedSlots);
  if (live_.size() >= slots) return;
  live_.reserve(slots);
  free_slots_.reserve(slots);
  // Free slots pop from the back: push the new ones highest first.
  for (std::size_t i = slots; i-- > live_.size();) {
    free_slots_.push_back(static_cast<std::uint32_t>(i));
  }
  live_.resize(slots);
}

OnlineCertificateMonitor::Resident OnlineCertificateMonitor::resident()
    const noexcept {
  Resident r;
  r.live_txs = live_.size() - free_slots_.size();
  r.live_slots = live_.size();
  for (const RegisterHead& head : heads_) {
    r.holder_entries += head.num_inline;
    if (head.overflow != kNoOverflow) {
      r.holder_entries += overflow_[head.overflow].size();
    }
  }
  r.versions = versions_.size();
  r.version_bytes = versions_.bytes();
  // The constructor's one slot() per register's initial value is not a
  // feed's probe.
  r.table_probes = versions_.probes() - heads_.size();
  return r;
}

std::uint32_t OnlineCertificateMonitor::acquire_slot() {
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(live_.size());
    live_.emplace_back();
    // Every slot can be free at once: keep room to release them all.
    free_slots_.reserve(live_.capacity());
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  TxState& tx = live_[slot];
  tx.phase = Phase::kIdle;
  tx.has_write = false;
  tx.birth_rank = resolver_.floor();
  tx.lo = 0;
  tx.hi = kOpen;
  tx.max_read_stamp = 0;
  return slot + 1;
}

void OnlineCertificateMonitor::retire(std::uint32_t& word, bool committed) {
  // From here on every event of the id sees finished_ (phase kDone).
  const std::uint32_t slot = word - 1;
  // The write set is installed or discarded: recycle any spill storage
  // for the next write-heavy transaction.
  live_[slot].writes.release(spill_pool_);
  free_slots_.push_back(slot);
  word = committed ? kCommitted : kAborted;
}

bool OnlineCertificateMonitor::has_committed(TxId tx) const noexcept {
  const std::uint32_t* word = ids_.find(tx);
  return word != nullptr && *word == kCommitted;
}

void OnlineCertificateMonitor::hold(RegisterHead& head, TxId id) {
  // A register read but never rewritten would keep every reader: drop the
  // finished ones (their windows no longer matter) before spilling or
  // growing.
  const auto finished = [this](TxId h) { return is_finished(*ids_.find(h)); };
  if (head.num_inline == RegisterHead::kInlineHolders) {
    const auto first = head.holders.begin();
    head.num_inline = static_cast<std::uint32_t>(
        std::remove_if(first, first + head.num_inline, finished) - first);
  }
  if (head.num_inline < RegisterHead::kInlineHolders) {
    head.holders[head.num_inline++] = id;
    return;
  }
  if (head.overflow == kNoOverflow) {
    if (free_overflow_.empty()) {
      free_overflow_.push_back(static_cast<std::uint32_t>(overflow_.size()));
      overflow_.emplace_back();
      // Every list can be free at once: keep room to release them all.
      free_overflow_.reserve(overflow_.capacity());
    }
    head.overflow = free_overflow_.back();
    free_overflow_.pop_back();
  }
  std::vector<TxId>& list = overflow_[head.overflow];
  if (list.size() == list.capacity()) {
    // Growing whenever more than half survive keeps this amortized O(1).
    std::erase_if(list, finished);
    if (list.size() * 2 > list.capacity()) list.reserve(list.capacity() * 2);
  }
  list.push_back(id);
}

void OnlineCertificateMonitor::close_holders(RegisterHead& head,
                                             std::size_t rank) {
  const auto shrink = [&](TxId holder) {
    const std::uint32_t word = *ids_.find(holder);
    if (is_finished(word)) return;
    TxState& h = live_[word - 1];
    if (rank < h.hi) h.hi = rank;
  };
  for (std::uint32_t i = 0; i < head.num_inline; ++i) shrink(head.holders[i]);
  head.num_inline = 0;
  if (head.overflow != kNoOverflow) {
    std::vector<TxId>& list = overflow_[head.overflow];
    for (const TxId holder : list) shrink(holder);
    list.clear();
    free_overflow_.push_back(head.overflow);
    head.overflow = kNoOverflow;
  }
}

bool OnlineCertificateMonitor::fail(CertFlagKind kind,
                                    const std::string& reason) {
  violation_ = OnlineViolation{pos_, reason, kind};
  return false;
}

namespace {

/// Failure tags are built lazily: the hot path must not allocate a string
/// per event (batch ingestion feeds millions of them).
[[nodiscard]] std::string tx_tag(TxId tx) { return "T" + std::to_string(tx); }

}  // namespace

bool OnlineCertificateMonitor::on_operation_response(const Event& e,
                                                     TxState& tx) {
  if (e.op == OpCode::kWrite) {
    // Value-unique writes underpin reads-from resolution (§5.4).
    bool inserted = false;
    VersionRec& wrec = versions_.slot(e.obj, e.arg, &inserted);
    if (inserted) {
      wrec.open_rank = 0;
      wrec.close_rank = 0;  // uninstalled: the empty [0, 0) interval
    } else if (wrec.writer != e.tx) {
      return fail(CertFlagKind::kValueNotUnique,
                  tx_tag(e.tx) + " rewrote value " + std::to_string(e.arg) + " of x" +
                  std::to_string(e.obj) + " (value-unique writes required)");
    }
    // The install closes the register's current version a few events
    // from here; the head's line is in cache (the look-ahead fetched it),
    // so ask for that version's record now.
    __builtin_prefetch(heads_[e.obj].rec);
    wrec.writer = e.tx;  // ranks assigned at commit
    tx.has_write = true;
    // The write set keeps the record itself: the install fills it through
    // this address, so a version costs this one probe.
    tx.writes.set(e.obj, &wrec, spill_pool_);
    return true;
  }

  // Read response. Local reads must return the transaction's own latest
  // write and do not touch the window.
  const bool stamped = e.stamp != 0;
  if (stamped && e.stamp > tx.max_read_stamp) tx.max_read_stamp = e.stamp;
  if (VersionRec* const* own = tx.writes.find(e.obj)) {
    const Value own_val = (*own)->val;
    if (own_val != e.ret) {
      return fail(CertFlagKind::kLocalInconsistency,
                  tx_tag(e.tx) + " read x" + std::to_string(e.obj) + "=" +
                  std::to_string(e.ret) + " despite its own write of " +
                  std::to_string(own_val) + " (local consistency)");
    }
    return true;
  }

  // The register's current version answers from its head; only older or
  // uncommitted values (and unwritten ones) need the table.
  RegisterHead& head = heads_[e.obj];
  const bool current_value = e.ret == head.val;
  VersionRec current;
  const VersionRec* v = &current;
  if (current_value) {
    current.writer = head.writer;
    current.open_rank = head.open_rank;
  } else {
    v = versions_.find(e.obj, e.ret);
  }
  if (v == nullptr) {
    return fail(CertFlagKind::kUnwrittenValue,
                tx_tag(e.tx) + " read x" + std::to_string(e.obj) + "=" +
                std::to_string(e.ret) + ", a value never written");
  }
  const VersionRec& rec = *v;
  if (rec.writer == e.tx) {
    return fail(CertFlagKind::kSelfRead,
                tx_tag(e.tx) + " read back its own value without a prior write");
  }
  // The current version's writer committed (it installed the version);
  // any other writer's id word says whether it did.
  if (rec.writer != kInitTx && !current_value && !has_committed(rec.writer)) {
    // Possibly the H4 commit-pending case — conservative (see header).
    return fail(CertFlagKind::kReadFromNonCommitted,
                tx_tag(e.tx) + " read x" + std::to_string(e.obj) + "=" +
                std::to_string(e.ret) + " from non-committed T" +
                std::to_string(rec.writer));
  }

  if (stamped) {
    // The read claims it observed version `ver` while snapshot 2·rv+1 was
    // current; both halves must agree with the value-resolved version
    // chain (the Theorem-2-on-stamps cross-check, see the header; the
    // shared helper also guards 2·ver against the wrap attack).
    if (e.ver != kNoReadVersion &&
        !read_stamp_names_version(e.ver, rec.open_rank)) {
      return fail(CertFlagKind::kReadStampMismatch,
                  tx_tag(e.tx) + " stamped its read of x" + std::to_string(e.obj) +
                  "=" + std::to_string(e.ret) + " with version " +
                  std::to_string(e.ver) + " but the value belongs to the version "
                  "opened at rank " + std::to_string(rec.open_rank));
    }
    if (rec.open_rank > static_cast<std::size_t>(e.stamp)) {
      return fail(CertFlagKind::kReadStampMismatch,
                  tx_tag(e.tx) + " read x" + std::to_string(e.obj) + "=" +
                  std::to_string(e.ret) + " from a version opened at rank " +
                  std::to_string(rec.open_rank) + ", after its snapshot stamp " +
                  std::to_string(e.stamp));
    }
  }

  // Intersect the snapshot window with the version's validity interval.
  if (rec.open_rank > tx.lo) tx.lo = rec.open_rank;
  if (rec.close_rank < tx.hi) tx.hi = rec.close_rank;
  if (rec.close_rank == kOpen) hold(head, e.tx);

  if (tx.lo >= tx.hi) {
    return fail(CertFlagKind::kSnapshotEmpty,
                tx_tag(e.tx) + "'s reads form no consistent snapshot (window empty " +
                "after reading x" + std::to_string(e.obj) + "=" +
                std::to_string(e.ret) + ")");
  }
  if (tx.hi <= tx.birth_rank) {
    return fail(CertFlagKind::kStaleRead,
                tx_tag(e.tx) + " read the outdated x" + std::to_string(e.obj) + "=" +
                std::to_string(e.ret) +
                ", overwritten before the transaction's first event "
                "(real-time order)");
  }
  return true;
}

bool OnlineCertificateMonitor::on_commit(const Event& c, TxState& tx, TxId id) {
  // Serialization-point checks BEFORE installing this commit's writes.
  if (c.stamp != 0 && c.stamp < tx.max_read_stamp) {
    // Snapshots only ever slide forward; a commit stamp below a read
    // snapshot contradicts the runtime's own discipline.
    return fail(CertFlagKind::kReadStampMismatch,
                tx_tag(id) + " committed at stamp " + std::to_string(c.stamp) +
                " below its latest read snapshot " +
                std::to_string(tx.max_read_stamp));
  }
  std::size_t rank = 0;
  if (tx.has_write) {
    // The transaction serializes at its rank, which must lie in its
    // snapshot window and above its birth floor — the generalized form of
    // "reads current at commit" (an unstamped C takes the new top rank, so
    // the two coincide; SiStm's write skew dies here).
    rank = resolver_.update_commit_rank(c);
    if (rank < tx.lo || rank >= tx.hi || rank <= tx.birth_rank) {
      return fail(CertFlagKind::kNotCurrentAtCommit,
                  tx_tag(id) + " committed updates at rank " +
                      std::to_string(rank) +
                      " outside its snapshot window (version order)");
    }
  } else {
    const std::optional<std::size_t> point =
        VersionOrderResolver::read_only_point(c);
    if (point.has_value()) {
      // The runtime pinned the serialization point (an MV snapshot): it
      // must lie in the window and above the birth floor.
      if (*point < tx.lo || *point >= tx.hi || *point <= tx.birth_rank) {
        return fail(CertFlagKind::kNoReadOnlyPoint,
                    tx_tag(id) + " (read-only) committed at snapshot point " +
                        std::to_string(*point) +
                        " outside its snapshot window");
      }
    } else if (tx.lo >= tx.hi || tx.hi <= tx.birth_rank) {
      return fail(CertFlagKind::kNoReadOnlyPoint,
                  tx_tag(id) + " (read-only) committed with no serialization point "
                        "compatible with real-time order");
    }
  }

  if (!tx.has_write) return true;

  // Install: one rank for the whole commit; each written register's
  // previous version closes here, through the head's record address, and
  // the new one opens through the address its write response stored — no
  // probe. (Ascending-register order, exactly as the std::map-backed
  // write set iterated.) Values the transaction overwrote itself stay
  // uninstalled at [0, 0) and commit with it (its id word): a read of one
  // flags its empty interval, not a non-committed writer.
  ++commits_;
  for (const auto& [obj, rec] : tx.writes) {
    RegisterHead& head = heads_[obj];
    head.rec->close_rank = rank;
    close_holders(head, rank);

    rec->writer = id;
    rec->open_rank = rank;
    rec->close_rank = kOpen;
    head = RegisterHead{
        .val = rec->val, .open_rank = rank, .rec = rec, .writer = id};
  }
  return true;
}

bool OnlineCertificateMonitor::feed(const Event& e) {
  if (violation_.has_value()) {
    ++pos_;
    return false;
  }
  std::uint32_t& word = ids_.get(e.tx);
  if (word == kUnborn) word = acquire_slot();
  TxState& tx = is_finished(word) ? finished_ : live_[word - 1];

  bool ok = true;
  switch (e.kind) {
    case EventKind::kInvoke:
      if (tx.phase != Phase::kIdle) {
        ok = fail(CertFlagKind::kNotWellFormed,
                  tx_tag(e.tx) + " invoked an operation while not idle (well-formedness)");
      } else if (!model_.contains(e.obj)) {
        ok = fail(CertFlagKind::kNotWellFormed,
                  tx_tag(e.tx) + " invoked an operation on unknown object x" +
                  std::to_string(e.obj));
      } else {
        tx.phase = Phase::kOpPending;
        tx.pending = e;
      }
      break;
    case EventKind::kResponse:
      if (tx.phase != Phase::kOpPending || !tx.pending.matches(e)) {
        ok = fail(CertFlagKind::kNotWellFormed,
                  tx_tag(e.tx) + " received a response with no matching invocation "
                        "(well-formedness)");
      } else {
        tx.phase = Phase::kIdle;
        ok = on_operation_response(e, tx);
      }
      break;
    case EventKind::kTryCommit:
      if (tx.phase != Phase::kIdle) {
        ok = fail(CertFlagKind::kNotWellFormed,
                  tx_tag(e.tx) + " issued tryC while not idle (well-formedness)");
      } else {
        tx.phase = Phase::kCommitPending;
      }
      break;
    case EventKind::kCommit:
      if (tx.phase != Phase::kCommitPending) {
        ok = fail(CertFlagKind::kNotWellFormed,
                  tx_tag(e.tx) + " committed without tryC (well-formedness)");
      } else {
        ok = on_commit(e, tx, e.tx);
        retire(word, /*committed=*/true);
      }
      break;
    case EventKind::kTryAbort:
      if (tx.phase != Phase::kIdle) {
        ok = fail(CertFlagKind::kNotWellFormed,
                  tx_tag(e.tx) + " issued tryA while not idle (well-formedness)");
      } else {
        tx.phase = Phase::kAbortPending;
      }
      break;
    case EventKind::kAbort:
      // A answers tryA, tryC, or a pending operation invocation.
      if (tx.phase == Phase::kDone) {
        ok = fail(CertFlagKind::kNotWellFormed,
                  tx_tag(e.tx) + " aborted after completing (well-formedness)");
      } else {
        retire(word, /*committed=*/false);  // writes never install
      }
      break;
  }
  ++pos_;
  return ok;
}

bool OnlineCertificateMonitor::ingest(std::span<const Event> batch) {
  // `ahead` runs kAhead events in front of the event fed: the look-ahead
  // (file header, LOOK-AHEAD) requests the lines that event will touch.
  // The prefetches are written out here on purpose: GCC 12 infers that a
  // function whose only effect is a prefetch has no side effects and
  // deletes the call, so a helper (a table member, even a lambda with an
  // early return) leaves no prefetch instruction in this function.
  const std::size_t n = batch.size();
  for (std::size_t ahead = 0; ahead < n + kAhead; ++ahead) {
    if (ahead < n) {
      const Event& e = batch[ahead];
      if (e.kind == EventKind::kResponse && e.obj < heads_.size()) {
        __builtin_prefetch(&heads_[e.obj]);
        if (e.op == OpCode::kWrite) {
          __builtin_prefetch(versions_.home(e.obj, e.arg));
        }
      }
    }
    if (ahead < kAhead) continue;
    const std::size_t i = ahead - kAhead;
    if (violation_.has_value()) {
      // Sticky: the rest of the batch is recorded (events_fed) in one step
      // instead of churning through feed() per event.
      pos_ += n - i;
      return false;
    }
    (void)feed(batch[i]);
  }
  return !violation_.has_value();
}

}  // namespace optm::core
