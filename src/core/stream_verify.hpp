// Verification of an event STREAM — recordings too long, or too remote,
// to materialize as one History (multi-segment binary logs,
// log/reader.hpp).
//
// verify_event_stream is one loop: each span the pull returns goes
// straight into one OnlineCertificateMonitor::ingest. Nothing is buffered
// between pulls, so the stream's verdict and first flag (position and
// kind) are the in-RAM monitor's on the same recording, by construction. The monitor's state still grows with the
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
/// until the next call.
using EventPull = std::function<std::span<const Event>()>;

struct StreamVerifyOptions {
  /// Ignored; kept only for perfbench; due for removal in the next
  /// benchmark PR (the monitor has one version order).
  VersionOrderPolicy policy = VersionOrderPolicy::kStampedRead;
  /// Engine pre-sizing hints (events within the bounds allocate nothing).
  std::size_t reserve_txs = 0;
  std::size_t reserve_versions = 0;
  /// Ignored: the stream runs one serial monitor and buffers nothing.
  /// Kept only for callers that still set them; due for removal.
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
  /// Always 1 (one serial monitor). Kept only for callers that still
  /// read them; due for removal.
  std::size_t shards_used = 1;
  std::size_t threads_used = 1;
};

/// Certify a stream of events with one OnlineCertificateMonitor fed span
/// by span. The model must be all
/// registers (as for OnlineCertificateMonitor).
[[nodiscard]] StreamVerifyResult verify_event_stream(
    const ObjectModel& model, const EventPull& next,
    const StreamVerifyOptions& options = {});

}  // namespace optm::core
