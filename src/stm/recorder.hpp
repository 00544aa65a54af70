// Concurrent history recorders: turn live STM executions into
// core::History values that the checkers can judge.
//
// Every recorded event is stamped with a ticket from one atomic global
// sequence counter at the moment it semantically occurs (invocations before
// the shared-memory work of the operation, responses after the value is
// fixed, C at the commit point), so the stamp order is a legal linearization
// of the actual event order. The serialization stamp of each completion
// rides on its C or A event (Event::stamp), and certificate_order() derives
// from the events alone the total order ≪ the certificate checker
// (Theorem 2) verifies against.
//
// Soundness of the certificate requires more than per-event atomicity: the
// *value sampling* of a read must be atomic with the recording of its
// response, and the *commit point* atomic with the recording of C —
// otherwise a descheduled thread records its event after a conflicting
// commit slipped in between, and the recorded ≪ is no longer a valid
// serialization even though the execution was correct. Runtimes therefore
// wrap those two short sections in a window when a recorder is attached
// (RuntimeBase::RecWindow). Two window kinds exist:
//
//   * kSample — value sampling of a read, or the C record of a read-only
//     transaction (which publishes nothing). Sampling windows may overlap
//     each other: two concurrent samples cannot invalidate each other's
//     recorded order, only a conflicting commit can.
//   * kCommit — the commit point of an update transaction (or any window
//     that mutates committed register state, e.g. eager in-place writes
//     and their rollback). Exclusive against every other window.
//
// This reader/writer discipline preserves the Theorem-2 argument — no
// commit point can slip between a value sample and its record — while
// letting read-heavy recorded runs scale with cores. Recording mode still
// serializes commit points against sampling; it changes timing, never
// algorithm logic, and is intended for verification runs; benchmarks run
// unrecorded.
//
// WINDOW-FREE (stamped) recording drops even that discipline: a runtime
// that can justify every non-local read by a stamp interval
// (Stm::set_window_free) takes NO window at all and instead stamps the
// read response with its (rv, version) pair (Event::stamp = 2·rv+1,
// Event::ver). Two stamp sources exist, landing in one stamp space:
//
//   * CLOCK runtimes (tl2, tiny, norec): rv is the global version clock
//     the read was O(1)-validated against, ver the lock word's version
//     (kNoReadVersion for NOrec's value validation). MvStm is the
//     multi-version variant: rv is the begin-time snapshot, ver the ring
//     slot's writer ticket, and update commits draw their 2·wv ticket
//     after locking and before validating so the commit window can go
//     too.
//   * OREC runtimes (dstm, astm): no per-read clock check exists, so the
//     CAS-acquired ownership record is the stamp authority instead — a
//     committer publishes kCommitting through its status word (which
//     every owned orec points at) BEFORE drawing its clock ticket, and
//     write-backs store the 2·wv ticket as the orec version word; a
//     validation draws rv before examining any entry and waits out
//     kCommitting/kCommitted owners, making each passing read-set
//     simultaneously current at 2·rv+1. Reads stamp (2·rv+1, word/2).
//     Stolen orecs cannot poison the stamps: stealing requires the
//     victim's status to read kAborted, so the victim's C never records
//     and its buffered writes never become a version — see online.hpp.
//
// The recorder's job shrinks to assigning each push a globally ordered
// stamp; the Theorem-2 argument moves onto the stamps the runtime emits,
// checked by the certificate monitor's stamp order
// (core/version_order.hpp; the soundness argument is in core/online.hpp).
// Records may then drift — a read response can land after the C of a
// commit that overwrote the version it read, and C records of concurrent
// commits can land out of wv order — but reads-from is never inverted (a
// committer records C before write-back; a reader samples only after
// write-back), which is all the stamp checks need. Both engines below
// carry the read stamps through history()/drain() untouched; the
// cross-runtime conformance suite differentially tests window-free
// against windowed recordings of identical schedules.
//
// Two implementations:
//   * Recorder      — the sharded engine: per-lane (per-process) buffers,
//     lock-free against each other, put in stamp order on demand. The
//     default; scales with recording threads.
//   * MutexRecorder — the original single-mutex engine, kept as the
//     baseline for benchmarking and as a differential-testing oracle.
//
// DRAIN SIDE (the live-verification feed). Every event draws exactly one
// ticket from one counter, so tickets are dense and an event's place in a
// drained batch is its ticket minus the first undrained one. drain()
// therefore places each lane's published run straight from the lane's
// stable chunks at its ticket's offset in a caller-owned, reusable
// EventBatch: no heap, no comparison between lanes, no intermediate
// per-lane copy, and a cost of O(window + lanes) for a window of tickets.
// A ticket drawn but not yet published is a hole: the batch ends there,
// and the events already placed past it are discarded and placed again
// by a later drain, so none is lost or delivered twice. The drain cursors
// cache the chunk pointers (chunks never move once allocated, so the
// per-lane spinlock is taken only when a lane has GROWN since the last
// drain), the placement marks are a reused member, and the batch keeps
// its high-water storage across drains. A consumer therefore pays exactly
// one copy per event, recorder chunk -> batch, for the lifetime of the
// pipeline.
//
// CONSUMPTION is decoupled from draining by stm::EventSink (sink.hpp):
// the DrainPump loop owns the pacing and the reusable batch, and hands
// each stamp-contiguous batch to an interchangeable sink — certify live
// (MonitorSink), buffer in RAM (HistoryAppendSink), append to the
// durable segment log (log::LogWriterSink), or fan out (TeeSink). New
// consumers implement the sink interface instead of re-rolling this
// drain loop.
//
// PACING. A live consumer should neither busy-poll a quiet recorder nor
// hand its sink a whole backlog at once. DrainPump drains on one fixed
// rule (DrainPump::drain_due): once DrainPump::kMinBatch events are
// pending, or when some are pending and stamps_issued() has not moved for
// DrainPump::kQuietPolls polls (the quiet-poll flush bounds the tail).
// What is enforced is the size of each hand-over: DrainPump caps every
// drain at exactly max_pending (drain()'s budget; 2048 events, 96 KiB, by
// default, so a batch stays in L2 from drain to sink), and every batch the
// sink sees, and the batch memory, stays within it. The backlog itself — and
// with it the events between a violation being recorded and the monitor
// latching it — stays bounded only while the sink keeps up with the
// producers; bounding it otherwise needs producer backpressure, which the
// recorder does not apply. The DrainRule and DrainPipeline tests enforce
// the rule (and the latency bound for a sink that keeps up);
// sharded_recorder_test and recorded_soak enforce the batch bound under
// real parallelism.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/history.hpp"
#include "sim/thread_ctx.hpp"
#include "stm/api.hpp"
#include "util/cache.hpp"
#include "util/spin.hpp"

namespace optm::stm {

namespace detail {

/// The certificate ≪: every recorded transaction ordered by its
/// serialization point, the key (stamp, seq) where
///   * committed:     (commit stamp, position of its C event) — for
///     stamp-0 runtimes that is plain commit-record order;
///   * non-committed: (abort stamp,  position of its LAST NON-LOCAL READ
///     RESPONSE) — the last moment the runtime vouched for its whole
///     read set (read responses re-validate in the stamp-0 runtimes;
///     WRITE responses do not, so they must not advance the anchor). A
///     transaction with no such reads anchors at its first event.
/// The stamp is Event::stamp of the transaction's C or A event (read
/// responses carry stamps too, but those are read stamps, not the
/// transaction's serialization point). A transaction still live at the
/// end of `events` has no completion: it keys at the stamp of its last
/// non-local read response — its read snapshot, the abort stamp it would
/// get — or, with no such read, after every completion (a transaction
/// with no completion precedes nobody in real time).
/// A LOCAL read (preceded by the transaction's own write to the same
/// register) is answered from the write buffer without validation, so
/// it must not advance the anchor either. Unlike the naive "committed
/// first, aborted appended" order, this respects the real-time order of
/// ALL transactions, which Theorem 2's well-formedness check requires
/// (an aborted transaction that completed before a later one began must
/// precede it in ≪).
[[nodiscard]] inline std::vector<core::TxId> certificate_order_of(
    const std::vector<core::Event>& events) {
  struct Key {
    std::uint64_t stamp = 0;
    std::size_t seq = 0;
    bool committed = false;
    bool completed = false;
    bool seen = false;
    /// Stamp of the last non-local read response, if any.
    std::optional<std::uint64_t> read_stamp;
  };
  std::unordered_map<core::TxId, Key> keys;
  std::set<std::pair<core::TxId, VarId>> wrote;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const core::Event& e = events[i];
    Key& k = keys[e.tx];
    if (!k.seen) {
      k.seen = true;
      k.seq = i;  // first-event fallback
    }
    if (e.kind == core::EventKind::kInvoke && e.op == core::OpCode::kWrite) {
      wrote.insert({e.tx, static_cast<VarId>(e.obj)});
    } else if (e.kind == core::EventKind::kResponse &&
               e.op == core::OpCode::kRead && !k.committed &&
               !wrote.count({e.tx, static_cast<VarId>(e.obj)})) {
      k.seq = i;
      k.read_stamp = e.stamp;
    } else if (e.kind == core::EventKind::kCommit) {
      k.committed = true;
      k.completed = true;
      k.seq = i;
      k.stamp = e.stamp;
    } else if (e.kind == core::EventKind::kAbort) {
      k.completed = true;
      k.stamp = e.stamp;
    }
  }
  for (auto& [tx, k] : keys) {
    if (!k.completed) {
      k.stamp = k.read_stamp.value_or(~std::uint64_t{0});
    }
  }

  std::vector<core::TxId> order;
  order.reserve(keys.size());
  for (const auto& [tx, k] : keys) order.push_back(tx);
  std::sort(order.begin(), order.end(), [&](core::TxId a, core::TxId b) {
    const Key& ka = keys.at(a);
    const Key& kb = keys.at(b);
    if (ka.stamp != kb.stamp) return ka.stamp < kb.stamp;
    return ka.seq < kb.seq;
  });
  return order;
}

}  // namespace detail

/// Caller-owned, reusable drain buffer: a contiguous event array whose
/// storage survives clear(), so a steady-state drain/ingest loop allocates
/// nothing. Recorder::drain APPENDS to it; consumers clear() between
/// drains and hand span() to OnlineCertificateMonitor::ingest. The slots
/// past size() keep the events of earlier, larger batches, so growing
/// back to the high-water size initialises nothing.
class EventBatch {
 public:
  void clear() noexcept { size_ = 0; }
  void reserve(std::size_t n) { events_.reserve(n); }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return events_.capacity();
  }
  [[nodiscard]] const core::Event& operator[](std::size_t i) const noexcept {
    return events_[i];
  }
  [[nodiscard]] std::span<const core::Event> span() const noexcept {
    return {events_.data(), size_};
  }
  [[nodiscard]] const core::Event* begin() const noexcept {
    return events_.data();
  }
  [[nodiscard]] const core::Event* end() const noexcept {
    return events_.data() + size_;
  }
  void push_back(const core::Event& e) {
    if (size_ == events_.size()) {
      events_.push_back(e);
    } else {
      events_[size_] = e;
    }
    ++size_;
  }

  /// Grow or shrink to `n` events and return the first slot. Slots past
  /// the old size hold stale events for the caller to overwrite; only
  /// growth past the high-water size value-initialises.
  core::Event* resize_for_overwrite(std::size_t n) {
    if (n > events_.size()) events_.resize(n);
    size_ = n;
    return events_.data();
  }

 private:
  std::vector<core::Event> events_;  // size() is the high-water mark
  std::size_t size_ = 0;
};

/// Abstract recorder interface the runtimes talk to. `lane` is the
/// recording process's slot (ctx.id()), < sim::kMaxThreads; it selects the
/// per-process buffer in the sharded engine and is ignored by the mutex
/// engine.
class RecorderBase {
 public:
  enum class WindowKind : std::uint8_t {
    kSample,  // value sampling / read-only C — may share
    kCommit,  // update commit point / in-place mutation — exclusive
  };

  virtual ~RecorderBase() = default;

  /// Allocate a fresh transaction id (starts at 1; 0 is the §5.4
  /// initializer).
  [[nodiscard]] virtual core::TxId begin_tx() = 0;

  virtual void on_inv(std::uint32_t lane, core::TxId tx, VarId var,
                      core::OpCode op, core::Value arg) = 0;
  /// `stamp`/`ver` are a stamped read's (2·rv+1, version) pair — see
  /// Event::stamp and Event::ver; 0/0 means unstamped.
  virtual void on_ret(std::uint32_t lane, core::TxId tx, VarId var,
                      core::OpCode op, core::Value arg, core::Value ret,
                      std::uint64_t stamp = 0, std::uint64_t ver = 0) = 0;
  virtual void on_try_commit(std::uint32_t lane, core::TxId tx) = 0;
  /// `stamp` is the transaction's serialization stamp within the run. For
  /// runtimes that re-validate the whole read set at the commit point
  /// (DSTM, visible-read, 2PL) the commit record order IS the
  /// serialization order — they pass stamp = 0 and certificate_order()
  /// falls back to record order. Clock-based runtimes serialize read-only
  /// transactions at their snapshot time (TL2's rv, MV's ub), which may lie
  /// before already-recorded commits; they pass composite stamps (2·wv for
  /// updates, 2·rv+1 for read-only) so certificate_order() can interleave
  /// them correctly.
  virtual void on_commit(std::uint32_t lane, core::TxId tx,
                         std::uint64_t stamp = 0) = 0;
  virtual void on_try_abort(std::uint32_t lane, core::TxId tx) = 0;
  /// `stamp` is the serialization point of the ABORTED transaction — the
  /// moment its (validated) reads were simultaneously current. Clock-based
  /// runtimes pass 2·rv+1 (the snapshot they read from); record-order
  /// runtimes pass 0 and certificate_order() anchors the transaction at
  /// its last response (its last successful whole-read-set validation).
  virtual void on_abort(std::uint32_t lane, core::TxId tx,
                        std::uint64_t stamp = 0) = 0;

  virtual void window_enter(WindowKind kind) = 0;
  virtual void window_exit(WindowKind kind) = 0;

  /// The reader/writer lock behind the windows, when the engine implements
  /// them with one (the sharded Recorder): RuntimeBase caches it so a
  /// window is two inlined RMWs instead of two virtual calls wrapping
  /// them. nullptr (the default) -> the virtual window_enter/window_exit
  /// path (the mutex engine's recursive mutex).
  [[nodiscard]] virtual util::SharedSpinLock* window_lock() noexcept {
    return nullptr;
  }

  /// Snapshot of the recorded history. Exact in quiescence (no recording
  /// hook concurrently in flight); during a run it returns the published
  /// prefix-with-gaps and is intended for monitoring only.
  [[nodiscard]] virtual core::History history() const = 0;
  [[nodiscard]] virtual std::vector<core::TxId> certificate_order() const = 0;
  [[nodiscard]] virtual std::size_t num_events() const = 0;
};

/// The sharded recording engine (the default `Recorder`).
///
/// Each lane is a single-writer chunked buffer: the owning process stamps
/// the event from one atomic sequence counter, stores it into the current
/// chunk, and publishes it with a release store of the lane's count — the
/// hot path of every event, C and A included, is one fetch_add and two
/// plain stores, no lock. (The lane's spinlock guards only chunk-list
/// growth, once per 4096 events, and reader snapshots.) Stamp order
/// reconstructs the legal linearization.
/// The stamps of published events are globally contiguous except for
/// events still in flight on other lanes; drain() therefore consumes
/// exactly the longest stamp-contiguous prefix, which is a complete,
/// stable prefix of the linearization even while recording continues —
/// the feed for live batch verification.
///
/// Layout rule: every word a producer writes sits on a cache line that no
/// other thread writes for another purpose — each lane is its producer's
/// alone, the ticket counter, the transaction-id counter and the window
/// lock have a line each, and the drain state lives on the drainer's.
class Recorder final : public RecorderBase {
 public:
  explicit Recorder(std::size_t num_vars)
      : model_(core::ObjectModel::registers(num_vars, 0)) {}

  [[nodiscard]] core::TxId begin_tx() override {
    return next_tx_.fetch_add(1, std::memory_order_relaxed);
  }

  void on_inv(std::uint32_t lane, core::TxId tx, VarId var, core::OpCode op,
              core::Value arg) override {
    push(lane, core::ev::inv(tx, var, op, arg));
  }
  void on_ret(std::uint32_t lane, core::TxId tx, VarId var, core::OpCode op,
              core::Value arg, core::Value ret, std::uint64_t stamp = 0,
              std::uint64_t ver = 0) override {
    push(lane, core::ev::ret(tx, var, op, arg, ret, stamp, ver));
  }
  void on_try_commit(std::uint32_t lane, core::TxId tx) override {
    push(lane, core::ev::try_commit(tx));
  }
  void on_commit(std::uint32_t lane, core::TxId tx,
                 std::uint64_t stamp = 0) override {
    // The stamp rides on the C event itself (Event::stamp), where
    // certificate_order() and the certificate monitor's stamp order read
    // it.
    push(lane, core::ev::commit(tx, stamp));
  }
  void on_try_abort(std::uint32_t lane, core::TxId tx) override {
    push(lane, core::ev::try_abort(tx));
  }
  void on_abort(std::uint32_t lane, core::TxId tx,
                std::uint64_t stamp = 0) override {
    push(lane, core::ev::abort(tx, stamp));
  }

  void window_enter(WindowKind kind) override {
    if (kind == WindowKind::kCommit) {
      window_lock_.lock();
    } else {
      window_lock_.lock_shared();
    }
  }
  void window_exit(WindowKind kind) override {
    if (kind == WindowKind::kCommit) {
      window_lock_.unlock();
    } else {
      window_lock_.unlock_shared();
    }
  }
  [[nodiscard]] util::SharedSpinLock* window_lock() noexcept override {
    return &window_lock_;
  }

  [[nodiscard]] core::History history() const override {
    std::vector<StampedEvent> all = collect();
    core::History h(model_);
    for (const StampedEvent& s : all) h.append(s.event);
    return h;
  }

  [[nodiscard]] std::vector<core::TxId> certificate_order() const override {
    std::vector<StampedEvent> all = collect();
    std::vector<core::Event> events;
    events.reserve(all.size());
    for (const StampedEvent& s : all) events.push_back(s.event);
    return detail::certificate_order_of(events);
  }

  [[nodiscard]] std::size_t num_events() const override {
    std::size_t n = 0;
    for (const Lane& lane : lanes_) {
      n += lane.count.load(std::memory_order_acquire);
    }
    return n;
  }

  /// Events stamped so far (one ticket per event). DrainPump watches it
  /// to tell a quiet recorder from a busy one.
  [[nodiscard]] std::uint64_t stamps_issued() const noexcept {
    return seq_.load(std::memory_order_acquire);
  }

  /// Events recorded but not yet drained — the quantity DrainPump's drain
  /// rule tests. Approximate by nature (both ends move concurrently).
  [[nodiscard]] std::uint64_t approx_pending() const noexcept {
    return seq_.load(std::memory_order_acquire) -
           drained_events_.load(std::memory_order_acquire);
  }

  /// Append to `out` every not-yet-drained event whose ticket belongs to
  /// the contiguous completed prefix of the global ticket sequence. Safe
  /// to call concurrently with recording (from ONE draining thread); a
  /// ticket drawn but not yet published ends the batch, and the events
  /// past it stay pending until a later drain. Returns the number of
  /// events appended.
  ///
  /// Tickets are dense (every event draws exactly one), so an event's
  /// place in the batch is its ticket minus next_seq_: each lane's
  /// published run is copied straight from its chunks to that offset,
  /// chunk -> out — no heap, no comparison between lanes, O(window +
  /// lanes) per call. When fewer events than the window were placed, one
  /// bit per offset finds the first hole; those placement marks and the
  /// cursors' chunk-pointer caches are reused members, and `out` keeps its
  /// high-water storage, so a warm drain allocates nothing.
  ///
  /// Budget: one call appends at most `max_events` events. next_seq_
  /// always names the first ticket not yet emitted, and each cursor stops
  /// exactly past the events it gave to the emitted prefix, so the next
  /// call resumes where this one stopped — the concatenation of capped
  /// drains is the uncapped drain, event for event.
  std::size_t drain(EventBatch& out,
                    std::size_t max_events = static_cast<std::size_t>(-1)) {
    const std::lock_guard<std::mutex> guard(drain_mu_);
    const std::uint64_t base = next_seq_;
    const std::size_t window = static_cast<std::size_t>(std::min<std::uint64_t>(
        max_events, seq_.load(std::memory_order_acquire) - base));
    if (window == 0) return 0;
    const std::size_t old_size = out.size();
    core::Event* dst = out.resize_for_overwrite(old_size + window) + old_size;

    // Place every published event whose ticket falls in the window. Lanes
    // are stamp-sorted, so a lane stops at its first ticket past the
    // window; once every ticket is placed no other lane can hold one.
    std::size_t placed = 0;
    std::size_t lanes_seen = 0;
    for (std::size_t l = 0; l < lanes_.size() && placed < window; ++l) {
      DrainCursor& cur = cursors_[l];
      refresh_cursor(l, cur);
      std::size_t i = cur.taken;
      while (i < cur.published) {
        const Chunk::Slot* slot =
            &cur.chunks[i / kChunkSize]->slots[i % kChunkSize];
        const std::size_t run_end =
            std::min(cur.published, (i / kChunkSize + 1) * kChunkSize);
        for (; i < run_end; ++i, ++slot) {
          const std::uint64_t off = slot->value.seq - base;
          if (off >= window) break;
          dst[off] = slot->value.event;
        }
        if (i < run_end) break;
      }
      cur.placed_end = i;
      placed += i - cur.taken;
      lanes_seen = l + 1;
    }

    // Keep the longest fully placed prefix: a hole (a ticket drawn but not
    // yet published) ends it, and the events placed past the hole are
    // discarded here and placed again by a later drain.
    std::size_t emitted = window;
    if (placed < window) {
      placed_.assign((window + 63) / 64, 0);
      for (std::size_t l = 0; l < lanes_seen; ++l) {
        const DrainCursor& cur = cursors_[l];
        for (std::size_t i = cur.taken; i < cur.placed_end; ++i) {
          const std::uint64_t off = stamp_at(cur, i) - base;
          placed_[off / 64] |= std::uint64_t{1} << (off % 64);
        }
      }
      emitted = 0;
      while (placed_[emitted / 64] == ~std::uint64_t{0}) emitted += 64;
      emitted += static_cast<std::size_t>(
          std::countr_one(placed_[emitted / 64]));
    }
    const std::uint64_t limit = base + emitted;
    for (std::size_t l = 0; l < lanes_seen; ++l) {
      DrainCursor& cur = cursors_[l];
      std::size_t end = cur.placed_end;
      while (end > cur.taken && stamp_at(cur, end - 1) >= limit) --end;
      cur.taken = end;
    }
    out.resize_for_overwrite(old_size + emitted);
    next_seq_ = limit;
    drained_events_.store(
        drained_events_.load(std::memory_order_relaxed) + emitted,
        std::memory_order_release);
    return emitted;
  }

  [[nodiscard]] const core::ObjectModel& model() const noexcept {
    return model_;
  }

 private:
  /// Test seam (sharded_recorder_test): stages a ticket on one lane and
  /// publishes it later, so a drain meets a hole deterministically.
  friend struct RecorderTestPeer;

  struct StampedEvent {
    std::uint64_t seq = 0;
    core::Event event;
  };

  static constexpr std::size_t kChunkSize = 4096;  // events per lane chunk

  /// Fixed-size chunk of deliberately UNINITIALIZED slots (zeroing 160KB
  /// on first use would dwarf short recordings). The publication protocol
  /// makes this safe: a slot is written before the lane's count covers it,
  /// and readers never touch slots at or above the count they loaded.
  struct Chunk {
    struct Slot {
      union {
        StampedEvent value;  // trivially copyable; lifetime starts at store
      };
      Slot() noexcept {}  // NOLINT(modernize-use-equals-default): no init
    };
    std::array<Slot, kChunkSize> slots;
  };
  static_assert(std::is_trivially_copyable_v<StampedEvent>,
                "the uninitialized-chunk protocol stores into raw union "
                "slots; a non-trivial StampedEvent would need placement-new");

  /// One per-process single-writer buffer. The owning process is the only
  /// writer; it publishes each entry with a release store of `count`.
  /// Readers load `count` (acquire) and may then read any entry below it —
  /// chunks never move once allocated, so no lock is needed on the hot
  /// path. The spinlock guards only chunk-list growth (once per
  /// kChunkSize events) and reader snapshots of the chunk-pointer list.
  /// `tail` is the writer's private cache of the current chunk, saving the
  /// vector indirection per push. Padded so lanes do not false-share.
  struct alignas(util::kCacheLine) Lane {
    mutable util::SpinLock mu;
    std::vector<std::unique_ptr<Chunk>> chunks;
    Chunk* tail{nullptr};
    std::atomic<std::size_t> count{0};
  };

  void push(std::uint32_t lane_id, const core::Event& e) {
    // A lane id out of range is a caller bug (the same id already indexes
    // RuntimeBase::rec_tx_); wrapping it would merge two writers onto one
    // single-writer lane and wedge drain() on a never-published stamp.
    assert(lane_id < sim::kMaxThreads);
    Lane& lane = lanes_[lane_id];
    const std::size_t i = stage(lane, e);
    lane.count.store(i + 1, std::memory_order_release);
  }

  /// Store `e` under a fresh ticket in the lane's next slot and return the
  /// slot's index, leaving it unpublished until the release store of
  /// `count` (push() makes it at once).
  std::size_t stage(Lane& lane, const core::Event& e) {
    const std::size_t i = lane.count.load(std::memory_order_relaxed);
    if (i == lane.chunks.size() * kChunkSize) {
      // Default-init (`new Chunk`, not make_unique's value-init `new
      // Chunk()`): value-initialization zero-fills the whole chunk before
      // the no-op Slot constructors run — a ~230KB memset every
      // kChunkSize events that the uninitialized-slot protocol exists to
      // avoid. Allocated outside the lock.
      std::unique_ptr<Chunk> chunk(new Chunk);
      const std::lock_guard<util::SpinLock> guard(lane.mu);
      lane.tail = chunk.get();
      lane.chunks.push_back(std::move(chunk));
    }
    // The stamp is drawn at the instant of recording (inside the caller's
    // window, when one is held): its order is the semantic order. The
    // fetch_add can be relaxed: RMWs on one atomic are totally ordered and
    // happens-before implies modification order, so any cross-thread
    // ordering established by the runtime (or a window) yields ordered
    // stamps; the release store of `count` is what publishes the slot.
    // Field-wise stores (not a StampedEvent temporary) keep the compiler
    // from spilling through a 56-byte memcpy per event.
    StampedEvent& slot = lane.tail->slots[i % kChunkSize].value;
    slot.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    slot.event = e;
    return i;
  }

  /// Copy the published entries [from, lane.count) of one lane into `out`.
  static void copy_published(const Lane& lane, std::size_t from,
                             std::vector<StampedEvent>& out) {
    const std::size_t n = lane.count.load(std::memory_order_acquire);
    if (from >= n) return;
    // Snapshot the chunk pointers under the lock (the writer may grow the
    // list concurrently); the chunks themselves are stable.
    std::vector<Chunk*> chunks;
    {
      const std::lock_guard<util::SpinLock> guard(lane.mu);
      chunks.reserve(lane.chunks.size());
      for (const auto& c : lane.chunks) chunks.push_back(c.get());
    }
    for (std::size_t i = from; i < n; ++i) {
      out.push_back(chunks[i / kChunkSize]->slots[i % kChunkSize].value);
    }
  }

  [[nodiscard]] std::vector<StampedEvent> collect() const {
    std::vector<StampedEvent> all;
    for (const Lane& lane : lanes_) {
      copy_published(lane, 0, all);
    }
    std::sort(all.begin(), all.end(),
              [](const StampedEvent& a, const StampedEvent& b) {
                return a.seq < b.seq;
              });
    return all;
  }

  core::ObjectModel model_;
  std::array<Lane, sim::kMaxThreads> lanes_;
  // The producers' shared words, one cache line each: the ticket counter
  // (one fetch_add per event), the transaction-id counter (one per begin)
  // and the window lock.
  alignas(util::kCacheLine) std::atomic<std::uint64_t> seq_{0};
  alignas(util::kCacheLine) std::atomic<core::TxId> next_tx_{1};
  alignas(util::kCacheLine) util::SharedSpinLock window_lock_;

  /// Drain-side view of one lane: consumed count, last loaded published
  /// count, where the current drain's placement stopped, and the cached
  /// (stable) chunk pointers.
  struct DrainCursor {
    std::vector<Chunk*> chunks;
    std::size_t taken = 0;
    std::size_t published = 0;
    std::size_t placed_end = 0;
  };

  [[nodiscard]] static std::uint64_t stamp_at(const DrainCursor& cur,
                                              std::size_t i) noexcept {
    return cur.chunks[i / kChunkSize]->slots[i % kChunkSize].value.seq;
  }

  /// Reload a cursor's published count and (only if the lane grew a chunk)
  /// refresh its chunk-pointer cache under the lane spinlock.
  void refresh_cursor(std::size_t l, DrainCursor& cur) {
    cur.published = lanes_[l].count.load(std::memory_order_acquire);
    if (cur.published > cur.chunks.size() * kChunkSize) {
      const std::lock_guard<util::SpinLock> lane_guard(lanes_[l].mu);
      for (std::size_t c = cur.chunks.size(); c < lanes_[l].chunks.size();
           ++c) {
        cur.chunks.push_back(lanes_[l].chunks[c].get());
      }
    }
  }

  // Drain-side state, guarded by drain_mu_ and written only by the
  // drainer, on lines of its own.
  alignas(util::kCacheLine) std::mutex drain_mu_;
  /// Events drained so far (accumulated per drain).
  std::atomic<std::uint64_t> drained_events_{0};
  std::array<DrainCursor, sim::kMaxThreads> cursors_;
  std::vector<std::uint64_t> placed_;  // one bit per window offset
  std::uint64_t next_seq_ = 0;  // first stamp not yet drained
};

/// The original single-mutex engine: every hook appends under one recursive
/// mutex, and both window kinds take that same mutex exclusively. Kept as
/// the measured baseline for the sharded engine and as a differential-
/// testing oracle (both engines must reconstruct the same linearization of
/// a deterministic schedule).
class MutexRecorder final : public RecorderBase {
 public:
  explicit MutexRecorder(std::size_t num_vars)
      : model_(core::ObjectModel::registers(num_vars, 0)) {}

  [[nodiscard]] core::TxId begin_tx() override {
    const std::lock_guard<std::recursive_mutex> guard(mu_);
    return next_tx_++;
  }

  void on_inv(std::uint32_t /*lane*/, core::TxId tx, VarId var,
              core::OpCode op, core::Value arg) override {
    const std::lock_guard<std::recursive_mutex> guard(mu_);
    events_.push_back(core::ev::inv(tx, var, op, arg));
  }
  void on_ret(std::uint32_t /*lane*/, core::TxId tx, VarId var,
              core::OpCode op, core::Value arg, core::Value ret,
              std::uint64_t stamp = 0, std::uint64_t ver = 0) override {
    const std::lock_guard<std::recursive_mutex> guard(mu_);
    events_.push_back(core::ev::ret(tx, var, op, arg, ret, stamp, ver));
  }
  void on_try_commit(std::uint32_t /*lane*/, core::TxId tx) override {
    const std::lock_guard<std::recursive_mutex> guard(mu_);
    events_.push_back(core::ev::try_commit(tx));
  }
  void on_commit(std::uint32_t /*lane*/, core::TxId tx,
                 std::uint64_t stamp = 0) override {
    const std::lock_guard<std::recursive_mutex> guard(mu_);
    events_.push_back(core::ev::commit(tx, stamp));
  }
  void on_try_abort(std::uint32_t /*lane*/, core::TxId tx) override {
    const std::lock_guard<std::recursive_mutex> guard(mu_);
    events_.push_back(core::ev::try_abort(tx));
  }
  void on_abort(std::uint32_t /*lane*/, core::TxId tx,
                std::uint64_t stamp = 0) override {
    const std::lock_guard<std::recursive_mutex> guard(mu_);
    events_.push_back(core::ev::abort(tx, stamp));
  }

  void window_enter(WindowKind /*kind*/) override { mu_.lock(); }
  void window_exit(WindowKind /*kind*/) override { mu_.unlock(); }

  [[nodiscard]] core::History history() const override {
    const std::lock_guard<std::recursive_mutex> guard(mu_);
    return core::History::from_batch(model_, events_);
  }

  [[nodiscard]] std::vector<core::TxId> certificate_order() const override {
    const std::lock_guard<std::recursive_mutex> guard(mu_);
    return detail::certificate_order_of(events_);
  }

  [[nodiscard]] std::size_t num_events() const override {
    const std::lock_guard<std::recursive_mutex> guard(mu_);
    return events_.size();
  }

 private:
  mutable std::recursive_mutex mu_;
  core::ObjectModel model_;
  std::vector<core::Event> events_;
  core::TxId next_tx_ = 1;
};

}  // namespace optm::stm
