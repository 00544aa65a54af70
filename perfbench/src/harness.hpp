// Building blocks of the pipeline benchmark: order statistics, an
// in-memory span tracer, the timing EventSink decorators, and the seeded
// transaction scripts plus the producer loop that drives them.
//
// Everything here wraps the repository's public layer APIs from outside;
// nothing reaches into a layer. A layer is timed by timing the calls into
// it.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stm/api.hpp"
#include "stm/recorder.hpp"
#include "stm/sink.hpp"
#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// --- tracing -----------------------------------------------------------------

/// One closed span. `parent` is 0 for a root.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t slot = 0;
};

/// Keeps spans in memory, one buffer per thread slot (a slot is used by
/// one thread at a time, so recording takes no lock). Spans are written
/// out once, after the run.
class Tracer {
 public:
  explicit Tracer(std::size_t slots) : slots_(slots) {
    for (Slot& s : slots_) s.spans.reserve(std::size_t{1} << 16);
  }

  /// Open a span on `slot`: its parent is `parent` when given, else the
  /// innermost span still open on the slot.
  [[nodiscard]] std::uint64_t open(std::uint32_t slot, std::uint64_t parent) {
    Slot& s = slots_[slot];
    const std::uint64_t id = (std::uint64_t{slot} + 1) << 40 | s.next_id++;
    s.stack.push_back({id, parent != 0 ? parent
                           : s.stack.empty() ? 0
                                             : s.stack.back().first});
    return id;
  }
  /// Close the innermost span open on `slot`.
  void close(std::uint32_t slot, const char* name, std::int64_t start_ns,
             std::int64_t end_ns) {
    Slot& s = slots_[slot];
    const auto [id, parent] = s.stack.back();
    s.stack.pop_back();
    s.spans.push_back({name, id, parent, start_ns, end_ns, slot});
  }
  /// Record an already-timed span.
  void add(std::uint32_t slot, const char* name, std::uint64_t parent,
           std::int64_t start_ns, std::int64_t end_ns) {
    Slot& s = slots_[slot];
    const std::uint64_t id = (std::uint64_t{slot} + 1) << 40 | s.next_id++;
    s.spans.push_back({name, id, parent, start_ns, end_ns, slot});
  }

  /// Position in every slot's buffer; spans() from it returns what was
  /// recorded since.
  using Mark = std::vector<std::size_t>;
  [[nodiscard]] Mark mark() const {
    Mark m;
    for (const Slot& s : slots_) m.push_back(s.spans.size());
    return m;
  }
  [[nodiscard]] std::vector<Span> spans_since(const Mark& m) const {
    std::vector<Span> out;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const auto& v = slots_[i].spans;
      out.insert(out.end(), v.begin() + static_cast<std::ptrdiff_t>(m[i]),
                 v.end());
    }
    return out;
  }
  [[nodiscard]] std::vector<Span> all() const {
    return spans_since(Mark(slots_.size(), 0));
  }

 private:
  struct Slot {
    std::vector<Span> spans;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> stack;  // (id, parent)
    std::uint64_t next_id = 1;
  };
  std::vector<Slot> slots_;
};

/// RAII span; a no-op when the tracer is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint32_t slot, const char* name,
             std::uint64_t parent = 0)
      : tracer_(tracer), slot_(slot), name_(name) {
    if (tracer_ != nullptr) {
      (void)tracer_->open(slot_, parent);
      start_ns_ = now_ns();
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(slot_, name_, start_ns_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t slot_;
  const char* name_;
  std::int64_t start_ns_ = 0;
};

/// Self time of every span in `spans`: its duration minus the union of
/// the intervals its children cover. Returned in the order of `spans`.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

// --- timing sinks ------------------------------------------------------------

/// Decorates one repo sink: a span per accept() and per finish().
class TimedSink final : public optm::stm::EventSink {
 public:
  TimedSink(optm::stm::EventSink& inner, Tracer* tracer, std::uint32_t slot,
            const char* accept_span, const char* finish_span) noexcept
      : inner_(&inner),
        tracer_(tracer),
        slot_(slot),
        accept_span_(accept_span),
        finish_span_(finish_span) {}

  bool accept(std::span<const optm::core::Event> batch) override {
    const ScopedSpan span(tracer_, slot_, accept_span_);
    return inner_->accept(batch);
  }
  bool finish() override {
    const ScopedSpan span(tracer_, slot_, finish_span_);
    return inner_->finish();
  }

 private:
  optm::stm::EventSink* inner_;
  Tracer* tracer_;
  std::uint32_t slot_;
  const char* accept_span_;
  const char* finish_span_;
};

/// What the head of the sink chain saw at one accept().
struct AcceptRecord {
  std::uint64_t cumulative = 0;  // events consumed once this accept returned
  std::int64_t return_ns = 0;    // when the whole chain's accept returned
  std::uint64_t pending = 0;     // Recorder::approx_pending() at entry
  std::uint64_t batch = 0;       // events in the batch
};

/// The sink DrainPump feeds: spans `sink.accept`/`sink.finish` around the
/// chain, and logs every accept (always on: the verdict-lag metric needs
/// the cumulative count and return time of each batch).
class ChainHead final : public optm::stm::EventSink {
 public:
  ChainHead(optm::stm::EventSink& inner, const optm::stm::Recorder& recorder,
            Tracer* tracer, std::uint32_t slot, std::size_t reserve)
      : inner_(&inner), recorder_(&recorder), tracer_(tracer), slot_(slot) {
    log_.reserve(reserve);
  }

  bool accept(std::span<const optm::core::Event> batch) override {
    const std::uint64_t pending = recorder_->approx_pending();
    bool ok = false;
    {
      const ScopedSpan span(tracer_, slot_, "sink.accept");
      ok = inner_->accept(batch);
    }
    cumulative_ += batch.size();
    log_.push_back({cumulative_, now_ns(), pending, batch.size()});
    return ok;
  }
  bool finish() override {
    const ScopedSpan span(tracer_, slot_, "sink.finish");
    return inner_->finish();
  }

  [[nodiscard]] const std::vector<AcceptRecord>& log() const noexcept {
    return log_;
  }

 private:
  optm::stm::EventSink* inner_;
  const optm::stm::Recorder* recorder_;
  Tracer* tracer_;
  std::uint32_t slot_;
  std::uint64_t cumulative_ = 0;
  std::vector<AcceptRecord> log_;
};

// --- scripts and producers ----------------------------------------------------

inline constexpr std::uint32_t kOpsPerTx = 4;

struct Op {
  optm::stm::VarId var = 0;
  bool write = false;
};
using TxScript = std::array<Op, kOpsPerTx>;

/// One producer's transactions, a pure function of (seed, producer).
[[nodiscard]] inline std::vector<TxScript> make_script(
    std::uint64_t seed, std::uint32_t producer, std::size_t txs,
    std::uint32_t vars, double write_ratio) {
  optm::util::Xoshiro256 rng(optm::util::stream_seed(seed, producer));
  std::vector<TxScript> script(txs);
  for (TxScript& tx : script) {
    for (Op& op : tx) {
      op.var = static_cast<optm::stm::VarId>(rng.below(vars));
      op.write = rng.chance(write_ratio);
    }
  }
  return script;
}

struct ProducerConfig {
  optm::stm::Stm* stm = nullptr;
  /// Sampled for stamps_issued() after each commit; null on bare passes.
  const optm::stm::Recorder* recorder = nullptr;
  const std::vector<TxScript>* script = nullptr;
  std::uint32_t id = 0;
  /// Open loop: transaction i is due at t0 + i * period_ns. 0 = closed
  /// loop (each transaction is due when the previous one committed).
  std::int64_t period_ns = 0;
  /// Every lag_every-th transaction records a verdict-lag sample.
  std::uint32_t lag_every = 1;
  /// Traced rounds: every span_every-th transaction is an stm.tx span.
  Tracer* tracer = nullptr;
  const char* span_name = "stm.tx";
  std::uint32_t span_every = 64;
  std::uint64_t root_span = 0;
};

struct LagSample {
  std::int64_t due_ns = 0;
  std::uint64_t stamps = 0;  // Recorder::stamps_issued() after the commit
};

struct ProducerResult {
  std::uint64_t commits = 0;
  std::uint64_t attempts = 0;
  std::int64_t end_ns = 0;
  std::int64_t busy_ns = 0;  // traced rounds: time inside transactions
  std::vector<LagSample> lag;
  std::vector<std::int64_t> late_ns;  // open loop: start - due
};

/// Run the whole script from t0, retrying aborted attempts. Written values
/// are unique across every attempt of every producer (the §5.4
/// precondition): (producer + 1) in the top byte, a running count below.
void run_producer(const ProducerConfig& cfg, std::int64_t t0,
                  ProducerResult& out);

}  // namespace perfbench
