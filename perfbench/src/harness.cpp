#include "harness.hpp"

#include <thread>
#include <unordered_map>

#include "sim/thread_ctx.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kYieldAheadNs = 3000;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // Each child's interval, clipped to its parent's.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& s : spans) {
    const auto p = index.find(s.parent);
    if (s.parent == 0 || p == index.end()) continue;
    const Span& parent = spans[p->second];
    const std::int64_t lo = std::max(s.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(s.end_ns, parent.end_ns);
    if (lo < hi) covered[p->second].push_back({lo, hi});
  }

  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t union_ns = 0;
    std::int64_t end = spans[i].start_ns;
    for (const auto& [lo, hi] : iv) {
      const std::int64_t from = std::max(lo, end);
      if (hi > from) {
        union_ns += hi - from;
        end = hi;
      }
    }
    out[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return out;
}

void run_producer(const ProducerConfig& cfg, std::int64_t t0,
                  ProducerResult& out) {
  optm::sim::ThreadCtx ctx(cfg.id);
  optm::stm::Stm& stm = *cfg.stm;
  const std::vector<TxScript>& script = *cfg.script;
  std::uint64_t value = (std::uint64_t{cfg.id} + 1) << 56;
  for (std::size_t i = 0; i < script.size(); ++i) {
    std::int64_t due = 0;
    if (cfg.period_ns > 0) {
      due = t0 + static_cast<std::int64_t>(i) * cfg.period_ns;
      std::int64_t now = now_ns();
      while (now < due) {
        // Yield while the slot is far off, so the pump, the server loop
        // and the kernel get the core; spin for the last stretch.
        if (due - now > kYieldAheadNs) {
          std::this_thread::yield();
        } else {
          cpu_relax();
        }
        now = now_ns();
      }
      out.late_ns.push_back(now - due);
    }
    const bool lag_sample = cfg.recorder != nullptr && cfg.lag_every != 0 &&
                            i % cfg.lag_every == 0;
    // Traced rounds time every transaction (busy share) and keep every
    // span_every-th one as a span.
    const bool timed = cfg.tracer != nullptr;
    const std::int64_t start = timed || lag_sample ? now_ns() : 0;
    if (cfg.period_ns == 0) due = start;

    for (;;) {
      ++out.attempts;
      stm.begin(ctx);
      bool alive = true;
      for (const Op& op : script[i]) {
        if (op.write) {
          alive = stm.write(ctx, op.var, ++value);
        } else {
          std::uint64_t v = 0;
          alive = stm.read(ctx, op.var, v);
        }
        if (!alive) break;  // already aborted by the runtime
      }
      if (alive && stm.commit(ctx)) break;
    }
    ++out.commits;
    if (lag_sample) out.lag.push_back({due, cfg.recorder->stamps_issued()});
    if (timed) {
      const std::int64_t end = now_ns();
      out.busy_ns += end - start;
      if (i % cfg.span_every == 0) {
        cfg.tracer->add(cfg.id, cfg.span_name, cfg.root_span, start, end);
      }
    }
  }
  out.end_ns = now_ns();
}

}  // namespace perfbench
