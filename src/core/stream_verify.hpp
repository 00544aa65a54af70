// Windowed verification of an event STREAM — the chunked front-end to the
// offline machinery for recordings too long to materialize as one History
// (multi-segment binary logs, log/reader.hpp).
//
// Strategy: the sharded parallel driver (parallel_verify.hpp) is the
// strongest engine — multi-threaded, full flag list, definitional
// fallback, §3.6 smart reorder — but it needs the whole history
// materialized. The streaming certificate monitor (online.hpp) needs no
// event buffer and is verdict- and flag-position-equivalent to the driver
// (tested by the batch/conformance suites), but its state still grows
// with the history: a transaction's full state lives only while it is
// live, yet the monitor keeps a 4-byte word per transaction id and a
// record for every version written (serially certifying a window-free
// tl2 log peaks at about 48 B per event, 540 MB at 11.2M events, nearly
// all of it the version table). verify_event_stream therefore buffers the
// stream into a History
// while it still fits `window_events`; if the stream ends within the
// window it runs the sharded driver over the materialized history,
// otherwise it replays the buffer into an OnlineCertificateMonitor, frees
// it, and streams the rest through ingest() in window-bounded spans. Only
// the event buffer is bounded by the window (stream_verify_test pins
// that); peak memory is the window plus monitor state, and the monitor's
// version table grows with the history.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>

#include "core/event.hpp"
#include "core/online.hpp"
#include "core/parallel_verify.hpp"

namespace optm::core {

/// Pull-based event source: each call returns the next stamp-contiguous
/// run of the stream, an empty span once exhausted (or on error — the
/// caller checks its producer afterwards). Spans need only stay valid
/// until the next call.
using EventPull = std::function<std::span<const Event>()>;

struct StreamVerifyOptions {
  VersionOrderPolicy policy = VersionOrderPolicy::kCommitOrder;
  /// The materialization window, in events: histories up to this size are
  /// verified with the sharded parallel driver; longer streams fall over
  /// to the streaming engines. Also bounds the span size fed per ingest.
  std::size_t window_events = std::size_t{1} << 20;
  /// Concurrency, resolved ONCE per stream by resolve_verify_concurrency
  /// (parallel_verify.hpp — the same "0 = auto" rule as
  /// ShardVerifyOptions), and applied on BOTH paths: the sharded driver
  /// when the stream fits the window, and the parallel streaming
  /// certifier (parallel_stream.hpp) when it does not. When the resolved
  /// thread count is 1 — or the policy is kBlindWriteSmart, which cannot
  /// shard — the streaming path runs the serial monitor instead.
  std::size_t num_shards = 0;
  std::size_t num_threads = 0;
  /// Engine pre-sizing hints (events within the bounds allocate nothing).
  std::size_t reserve_txs = 0;
  std::size_t reserve_versions = 0;
};

struct StreamVerifyResult {
  bool certified = false;
  /// Earliest flag, position in the global event stream — identical to
  /// what the in-RAM monitor latches on the same recording.
  std::optional<OnlineViolation> violation;
  std::size_t events = 0;
  /// True when the stream fit the window and the sharded driver ran.
  bool used_sharded_driver = false;
  /// True when the streaming path ran the parallel certifier instead of
  /// the serial monitor.
  bool used_parallel_certifier = false;
  std::size_t shards_used = 0;  // sharded driver / parallel certifier
  /// Worker threads the verification occupied (1 = serial monitor).
  std::size_t threads_used = 0;
  /// Number of ingest windows fed on the streaming path.
  std::size_t windows = 0;
};

/// Verify a stream of events against the certificate under `policy`,
/// buffering at most `window_events` events at a time (engine state is not
/// bounded by the window). The model must be all registers
/// (as for OnlineCertificateMonitor).
[[nodiscard]] StreamVerifyResult verify_event_stream(
    const ObjectModel& model, const EventPull& next,
    const StreamVerifyOptions& options = {});

}  // namespace optm::core
