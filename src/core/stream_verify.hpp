// Verification of an event STREAM — recordings too long, or too remote,
// to materialize as one History (multi-segment binary logs,
// log/reader.hpp).
//
// verify_event_stream is a two-stage pipeline. A reader thread calls the
// pull, copies each span into a slot of a fixed ring (kReadAheadSlots, 8
// slots) and publishes it, running ahead until the ring is full; the
// calling thread ingests the slots in order into one
// OnlineCertificateMonitor. The same spans reach the same monitor in the
// same order, so the stream's verdict and first flag (position and kind)
// are the in-RAM monitor's on the same recording, by construction. The
// events buffered between the stages are bounded by the ring: 8 slots ×
// the largest span the pull returns. A log block is one drain batch, at
// most DrainPump's max_pending events (2048 of 48 bytes by default,
// 96 KiB), so 768 KiB for a log. The monitor's state still grows with the
// history: a transaction's full state lives only while it is live, but
// the monitor keeps a 4-byte word per transaction id and, for every
// version written, one 32-byte archive entry plus 8-byte index slots at
// most half full, plus a 1.5× index-only transient while the index
// doubles (core/online.hpp has the measured peaks). The result carries
// the monitor's final resident() counters, version bytes included.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>

#include "core/event.hpp"
#include "core/online.hpp"

namespace optm::core {

/// Pull-based event source: each call returns the next stamp-contiguous
/// run of the stream, an empty span once exhausted (or on error — the
/// caller checks its producer afterwards). Spans need only stay valid
/// until the next call. verify_event_stream calls it on its reader
/// thread, one call at a time, while the caller is blocked in
/// verify_event_stream; it is not called again after it returned an empty
/// span. An exception it throws is rethrown on the caller's thread.
using EventPull = std::function<std::span<const Event>()>;

/// Slots in verify_event_stream's read-ahead ring: how many copied spans
/// the reader may hold ahead of the monitor. A constant, not an option.
inline constexpr std::size_t kReadAheadSlots = 8;

struct StreamVerifyOptions {
  /// Ignored; kept only for perfbench; due for removal in the next
  /// benchmark PR (the monitor has one version order).
  VersionOrderPolicy policy = VersionOrderPolicy::kStampedRead;
  /// Engine pre-sizing hints (events within the bounds allocate nothing).
  std::size_t reserve_txs = 0;
  std::size_t reserve_versions = 0;
  /// Ignored: the stream runs one monitor behind a fixed ring of copied
  /// spans. Kept only for callers that still set them; due for removal.
  std::size_t window_events = 0;
  std::size_t num_shards = 0;
  std::size_t num_threads = 0;
};

struct StreamVerifyResult {
  bool certified = false;
  /// Earliest flag, position in the global event stream — identical to
  /// what the in-RAM monitor latches on the same recording.
  std::optional<OnlineViolation> violation;
  std::size_t events = 0;
  /// What the monitor held at the end of the stream.
  OnlineCertificateMonitor::Resident resident;
  /// One monitor, so one shard; two threads, the reader and the monitor.
  /// Kept only for callers that still read them; due for removal.
  std::size_t shards_used = 1;
  std::size_t threads_used = 2;
};

/// Certify a stream of events with one OnlineCertificateMonitor fed span
/// by span, the pulls running one ring ahead on a reader thread. The model
/// must be all registers (as for OnlineCertificateMonitor).
[[nodiscard]] StreamVerifyResult verify_event_stream(
    const ObjectModel& model, const EventPull& next,
    const StreamVerifyOptions& options = {});

}  // namespace optm::core
