// EventSink: the consumption side of the drain pipeline.
//
// Recorder::drain() produces stamp-contiguous event batches; what happens
// to them — certify live (MonitorSink), build an in-RAM history
// (HistoryAppendSink), persist to the segmented binary log
// (log::LogWriterSink, src/log/log_sink.hpp), or fan out to several of
// those at once (TeeSink) — is a sink chosen by the caller. DrainPump is
// the one drain loop all of them share: poll, drain on one fixed rule
// (DrainPump::drain_due), feed the sink, flush the tail when the producers
// finish. The soak driver, the examples and the benchmarks all run this
// loop rather than hand-rolling their own.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/history.hpp"
#include "core/online.hpp"
#include "stm/recorder.hpp"

namespace optm::stm {

/// A consumer of drained event batches. accept() is called from the ONE
/// draining thread with each stamp-contiguous batch, in stamp order.
class EventSink {
 public:
  virtual ~EventSink() = default;

  /// Consume one batch. The span is only valid for the duration of the
  /// call. Returning false reports a SINK failure (an I/O error, a full
  /// disk) and stops the pump; a certificate violation is NOT a sink
  /// failure — the monitor latches it and the pump keeps feeding, so the
  /// recording stays complete for post-mortems.
  [[nodiscard]] virtual bool accept(std::span<const core::Event> batch) = 0;

  /// End of stream: durably finalize whatever accept() buffered (the log
  /// sink seals its tail segment here). Called once by DrainPump::run()
  /// after the final drain.
  virtual bool finish() { return true; }
};

/// Feeds batches to an OnlineCertificateMonitor. ingest() returning false
/// (violation latched) is deliberately not surfaced as a sink failure —
/// read monitor.ok()/violation() after the run.
class MonitorSink final : public EventSink {
 public:
  explicit MonitorSink(core::OnlineCertificateMonitor& monitor) noexcept
      : monitor_(&monitor) {}
  bool accept(std::span<const core::Event> batch) override {
    (void)monitor_->ingest(batch);
    return true;
  }

 private:
  core::OnlineCertificateMonitor* monitor_;
};

/// Appends batches to a core::History (the in-RAM baseline the offline
/// sharded verifier consumes).
class HistoryAppendSink final : public EventSink {
 public:
  explicit HistoryAppendSink(core::History& h) noexcept : h_(&h) {}
  bool accept(std::span<const core::Event> batch) override {
    h_->append_batch(batch);
    return true;
  }

 private:
  core::History* h_;
};

/// Swallows batches. The pure-drain baseline for sink-overhead benchmarks.
class NullSink final : public EventSink {
 public:
  bool accept(std::span<const core::Event> batch) override {
    events_ += batch.size();
    return true;
  }
  [[nodiscard]] std::size_t events() const noexcept { return events_; }

 private:
  std::size_t events_ = 0;
};

/// Fans one batch out to several sinks ("certify live AND append to
/// disk"). Every sink sees every batch even after one fails — a full disk
/// on the log leg must not stop the live monitor from certifying, and a
/// transiently failing sink keeps receiving batches so it can recover.
/// Status is tracked PER SINK: accept() reports the current batch only
/// (true while at least one sink still consumed it, so the pump keeps
/// running through partial failures and stops only when every leg is
/// lost), while the first failure of each sink stays latched and is
/// surfaced through ok()/first_failure() and the finish() conjunction.
class TeeSink final : public EventSink {
 public:
  /// One sink's latched failure record.
  struct SinkStatus {
    bool ok = true;
    /// Batch ordinal (0-based, counting accept() calls) of the first
    /// failed accept, or SIZE_MAX; finish-only failures keep it there.
    std::size_t first_failed_batch = static_cast<std::size_t>(-1);
  };

  TeeSink() = default;
  TeeSink(std::initializer_list<EventSink*> sinks) : sinks_(sinks) {
    status_.resize(sinks_.size());
  }
  TeeSink& add(EventSink* sink) {
    if (sink != nullptr) {
      sinks_.push_back(sink);
      status_.emplace_back();
    }
    return *this;
  }

  bool accept(std::span<const core::Event> batch) override {
    bool any = sinks_.empty();  // no sinks: trivially consumed
    for (std::size_t i = 0; i < sinks_.size(); ++i) {
      if (sinks_[i]->accept(batch)) {
        any = true;
      } else if (status_[i].ok) {
        status_[i].ok = false;
        status_[i].first_failed_batch = batches_;
      }
    }
    ++batches_;
    return any;
  }
  bool finish() override {
    for (std::size_t i = 0; i < sinks_.size(); ++i) {
      if (!sinks_[i]->finish()) status_[i].ok = false;
    }
    return ok();
  }

  /// True while every sink has accepted every batch (and finish, once
  /// called) cleanly.
  [[nodiscard]] bool ok() const noexcept {
    for (const auto& s : status_) {
      if (!s.ok) return false;
    }
    return true;
  }
  /// Index (in add order) of the first sink that failed, or nullopt.
  [[nodiscard]] std::optional<std::size_t> first_failure() const noexcept {
    std::optional<std::size_t> first;
    std::size_t best = static_cast<std::size_t>(-1);
    for (std::size_t i = 0; i < status_.size(); ++i) {
      if (!status_[i].ok && status_[i].first_failed_batch < best) {
        best = status_[i].first_failed_batch;
        first = i;
      }
    }
    // Finish-only failures have no batch ordinal; fall back to add order.
    if (!first) {
      for (std::size_t i = 0; i < status_.size(); ++i) {
        if (!status_[i].ok) return i;
      }
    }
    return first;
  }
  [[nodiscard]] const SinkStatus& status(std::size_t i) const {
    return status_.at(i);
  }
  [[nodiscard]] std::size_t num_sinks() const noexcept { return sinks_.size(); }

 private:
  std::vector<EventSink*> sinks_;
  std::vector<SinkStatus> status_;
  std::size_t batches_ = 0;  // accept() calls seen (failed batches included)
};

/// The shared drain loop: recorder -> drain rule -> sink. run() polls
/// until `done` is set by the producers AND the recorder is fully drained,
/// then finish()es the sink. Call from exactly one thread (the verifier /
/// writer thread of the pipeline).
///
/// Each drain is capped at max_pending events, so a backlog reaches the
/// sink in bounded batches while the producers are still recording.
class DrainPump {
 public:
  struct Stats {
    std::size_t batches = 0;  // non-empty drains fed to the sink
    std::size_t events = 0;
    std::size_t max_batch = 0;  // largest batch fed to the sink
    bool sink_ok = true;  // false -> the sink failed and the pump stopped
    /// Events still pending in the recorder when a sink failure aborted
    /// the run (0 on a clean run): the recording the sink chain never saw.
    std::size_t events_undrained = 0;
  };

  /// Pending events that make a drain due on their own.
  static constexpr std::uint64_t kMinBatch = 64;
  /// Polls without a new stamp after which any pending tail is flushed.
  static constexpr std::uint32_t kQuietPolls = 4;

  /// The drain rule, one poll: `pending` = Recorder::approx_pending(),
  /// `quiet_polls` = consecutive polls (since the last drain) in which
  /// Recorder::stamps_issued() did not move. Clock-free, so every property
  /// of it is deterministic and directly testable.
  [[nodiscard]] static constexpr bool drain_due(
      std::uint64_t pending, std::uint32_t quiet_polls) noexcept {
    return pending >= kMinBatch || (pending > 0 && quiet_polls >= kQuietPolls);
  }

  /// `max_pending` caps every drain, and so every batch the sink sees and
  /// the batch memory (48 B per event). It bounds the backlog (and verdict
  /// latency) only while the sink keeps up: a slower sink leaves a growing
  /// backlog in the recorder, since nothing slows the producers down.
  ///
  /// The default, 2048 events, is a 96 KiB batch (16384 was 768 KiB): the
  /// sink reads each batch back on this thread right after the drain wrote
  /// it, while it is still in the core's L2 beside the monitor's register
  /// heads. On a saturated 4-vCPU tl2 pipeline the lower cap raised
  /// throughput on its own and more so together with the register heads;
  /// 1024 and 4096 measured the same as 2048.
  DrainPump(Recorder& recorder, EventSink& sink,
            std::size_t max_pending = 2048)
      : recorder_(&recorder),
        sink_(&sink),
        budget_(std::max<std::size_t>(max_pending, 1)) {
    batch_.reserve(max_batch_bound());
  }

  /// The most events one batch can carry: the drain budget, max_pending.
  [[nodiscard]] std::size_t max_batch_bound() const noexcept {
    return budget_;
  }

  [[nodiscard]] Stats run(const std::atomic<bool>& done) {
    Stats stats;
    // Idle backoff: the drain rule is clock-free, so a quiet recorder would
    // otherwise busy-spin this thread at 100% — fatal once a server runs
    // one pump per tenant. A handful of yields keeps the reaction to a
    // fresh burst instant; after that the poll sleeps, doubling up to
    // kMaxSleep (well under the event-count latency bounds, which are
    // pending-based and unaffected by wall-clock pauses between polls).
    constexpr std::uint32_t kSpinPolls = 64;
    constexpr auto kMinSleep = std::chrono::microseconds(50);
    constexpr auto kMaxSleep = std::chrono::microseconds(1000);
    std::uint32_t idle_polls = 0;
    auto sleep = kMinSleep;
    std::uint64_t last_issued = 0;
    std::uint32_t quiet_polls = 0;
    for (;;) {
      const bool finished = done.load(std::memory_order_acquire);
      const std::uint64_t issued = recorder_->stamps_issued();
      quiet_polls = issued == last_issued ? quiet_polls + 1 : 0;
      last_issued = issued;
      if (finished || drain_due(recorder_->approx_pending(), quiet_polls)) {
        batch_.clear();
        recorder_->drain(batch_, budget_);
        quiet_polls = 0;
        idle_polls = 0;
        sleep = kMinSleep;
        if (!batch_.empty()) {
          ++stats.batches;
          stats.events += batch_.size();
          stats.max_batch = std::max(stats.max_batch, batch_.size());
          if (!sink_->accept(batch_.span())) {
            stats.sink_ok = false;
            stats.events_undrained = recorder_->approx_pending();
            break;
          }
        }
        // Drained after the producers finished and nothing was pending:
        // the stream is complete (drain() returns the contiguous prefix,
        // which at quiescence is everything).
        if (finished && recorder_->approx_pending() == 0) break;
      } else if (++idle_polls <= kSpinPolls) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(sleep);
        sleep = std::min(sleep * 2, kMaxSleep);
      }
    }
    stats.sink_ok = sink_->finish() && stats.sink_ok;
    return stats;
  }

 private:
  Recorder* recorder_;
  EventSink* sink_;
  std::size_t budget_;  // events per drain: max_pending
  EventBatch batch_;
};

}  // namespace optm::stm
