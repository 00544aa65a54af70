#include "core/stream_verify.hpp"

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

namespace optm::core {

namespace {

/// The reader stops when every slot is full and is woken once half of
/// them are free again, so a pass pays a few futex calls, not one per
/// span.
constexpr auto kRingSlots = static_cast<std::uint32_t>(kReadAheadSlots);
static_assert(kRingSlots >= 2 && kRingSlots % 2 == 0);

/// The reader stage of verify_event_stream: a thread that calls `next`,
/// copies each span into the next free slot of a fixed ring and publishes
/// the slot, running ahead of the caller until the ring is full. The copy
/// is made before the next pull, so a span need only stay valid until the
/// next call. The end of the stream (and a pull that threw) is published
/// as an empty slot; the reader then exits, so `next` is never called
/// after it returned an empty span.
///
/// Hand-off: the two counters only grow (modulo 2^32). `published_` is
/// stored after the slot's copy and loaded before the slot is read, so the
/// caller never reads a slot before its copy is visible; `consumed_` is
/// stored after the caller is done with a slot and loaded before the reader
/// refills it. Both are seq_cst, so a thread about to sleep and the other
/// thread's check for a sleeper never miss each other: the waker loads the
/// other counter after its own store, and notifies only on the edge (the
/// first slot of an empty ring; the slot that frees half of a full one).
///
/// The destructor is the RAII owner of the thread: it stops the reader and
/// joins it on every path, including an exception from the monitor.
class ReadAhead {
 public:
  explicit ReadAhead(const EventPull& next)
      : next_(next), reader_([this] { run(); }) {}
  ReadAhead(const ReadAhead&) = delete;
  ReadAhead& operator=(const ReadAhead&) = delete;
  ~ReadAhead() { stop_and_join(); }

  /// The oldest published span; empty at the end of the stream. Blocks
  /// while the ring is empty. Valid until pop().
  [[nodiscard]] std::span<const Event> front() {
    const std::uint32_t c = consumed_.load();
    while (published_.load() == c) published_.wait(c);
    return slots_[c % kRingSlots];
  }

  /// Hand the front slot back to the reader.
  void pop() {
    const std::uint32_t c = consumed_.fetch_add(1) + 1;
    if (published_.load() - c == kRingSlots / 2) consumed_.notify_one();
  }

  /// Join the reader (after front() returned the empty end slot), then
  /// rethrow what `next` threw, if it threw.
  void finish() {
    stop_and_join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void run() {
    std::uint32_t p = 0;
    try {
      while (await_free_slot(p)) {
        const std::span<const Event> span = next_();
        slots_[p % kRingSlots].assign(span.begin(), span.end());
        publish(++p);
        if (span.empty()) return;
      }
    } catch (...) {
      // Slot p is still the reader's: publish it empty as the end.
      error_ = std::current_exception();
      slots_[p % kRingSlots].clear();
      publish(++p);
    }
  }

  void publish(std::uint32_t p) {
    published_.store(p);
    if (p - consumed_.load() == 1) published_.notify_one();
  }

  /// Reader side: true once slot `p` may be filled; false once stopped. A
  /// full ring sleeps until half of it is free.
  [[nodiscard]] bool await_free_slot(std::uint32_t p) {
    std::uint32_t c = consumed_.load();
    if (p - c == kRingSlots) {
      // stop_ is loaded after c each time, so the stop's counter bump
      // either changed the value waited on or made stop_ visible.
      while (p - c > kRingSlots / 2 && !stop_.load()) {
        consumed_.wait(c);
        c = consumed_.load();
      }
    }
    return !stop_.load();
  }

  void stop_and_join() {
    if (!reader_.joinable()) return;
    stop_.store(true);
    consumed_.fetch_add(1);  // wakes a reader asleep on a full ring
    consumed_.notify_one();
    reader_.join();
  }

  const EventPull& next_;
  std::array<std::vector<Event>, kRingSlots> slots_;
  std::exception_ptr error_;
  std::atomic<std::uint32_t> published_{0};
  std::atomic<std::uint32_t> consumed_{0};
  std::atomic<bool> stop_{false};
  std::thread reader_;  // last: starts once the rest exists
};

}  // namespace

StreamVerifyResult verify_event_stream(const ObjectModel& model,
                                       const EventPull& next,
                                       const StreamVerifyOptions& options) {
  // The reader starts first, so its first pulls overlap the monitor's
  // construction and reserve().
  ReadAhead ahead(next);
  OnlineCertificateMonitor monitor(model);
  if (options.reserve_txs != 0 || options.reserve_versions != 0) {
    monitor.reserve(options.reserve_txs, options.reserve_versions);
  }
  for (std::span<const Event> batch = ahead.front(); !batch.empty();
       batch = ahead.front()) {
    (void)monitor.ingest(batch);
    ahead.pop();
  }
  ahead.finish();
  StreamVerifyResult out;
  out.certified = monitor.ok();
  out.violation = monitor.violation();
  out.events = monitor.events_fed();
  out.resident = monitor.resident();
  return out;
}

}  // namespace optm::core
