// EXPERIMENT E18 — online monitoring cost (§5.2's prefix discipline).
//
// The definitional prefix checker re-solves an NP-hard problem per
// response; the streaming certificate monitor is amortized O(1) per event.
// This bench makes the gap concrete: events/second for each backend as the
// recorded history grows, plus the certificate monitor alone on long runs
// the definitional backend could never touch.
//
// It also measures the sharded recorder's drain() on its own, the
// batch-ingestion path it feeds (BM_CertifyStream on a stream whose
// version index outgrows the cache), and the drain loop's sink overhead.
// End-to-end pipeline throughput (recorder, drain and monitor under live
// producers) is perfbench's job, not this file's.
#include "bench_common.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/online.hpp"
#include "log/log_sink.hpp"
#include "log/writer.hpp"
#include "stm/recorder.hpp"
#include "stm/sink.hpp"
#include "util/cli.hpp"
#include "util/hash.hpp"

namespace optm::bench {
namespace {

constexpr std::size_t kMixVars = 8;

/// Record a mix run of the given size on an opaque STM.
core::History recorded_mix(std::uint64_t txs_per_thread) {
  const auto stm = stm::make_stm("tl2", kMixVars);
  stm::Recorder recorder(kMixVars);
  stm->set_recorder(&recorder);
  wl::MixParams params;
  params.threads = 3;
  params.vars = kMixVars;
  params.txs_per_thread = txs_per_thread;
  params.seed = 4242;
  (void)wl::run_random_mix(*stm, params);
  return recorder.history();
}

/// A monitor for `h` under `policy`, reserve()d for every transaction and
/// version `h` creates, so a timed ingest measures ingest and not growth.
std::unique_ptr<core::OnlineCertificateMonitor> reserved_monitor(
    const core::History& h, core::VersionOrderPolicy policy) {
  std::size_t txs = 0;
  std::size_t versions = h.model().size();
  for (const core::Event& e : h.events()) {
    txs = std::max<std::size_t>(txs, e.tx + std::size_t{1});
    if (e.kind == core::EventKind::kResponse && e.op == core::OpCode::kWrite) {
      ++versions;
    }
  }
  auto monitor = std::make_unique<core::OnlineCertificateMonitor>(h.model(),
                                                                   policy);
  monitor->reserve(txs, versions);
  return monitor;
}

/// OnlineCertificateMonitor::feed, one event at a time, on the wall clock;
/// each iteration's monitor is built and reserve()d (and the previous one
/// destroyed) outside the timed region.
void BM_CertificateMonitor(benchmark::State& state) {
  const core::History h = recorded_mix(static_cast<std::uint64_t>(state.range(0)));
  std::unique_ptr<core::OnlineCertificateMonitor> monitor;
  bool clean = true;
  for (auto _ : state) {
    state.PauseTiming();
    monitor = reserved_monitor(h, core::VersionOrderPolicy::kCommitOrder);
    state.ResumeTiming();
    for (const core::Event& e : h.events()) (void)monitor->feed(e);
    clean = monitor->ok();
    benchmark::DoNotOptimize(clean);
  }
  if (!clean) {
    state.SkipWithError("certificate violation on an opaque STM's run");
    return;
  }
  state.counters["events"] = static_cast<double>(h.size());
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(h.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_DefinitionalMonitor(benchmark::State& state) {
  // The exact backend re-runs Definition 1 per response: only small
  // prefixes are feasible (it subsumes view-serializability).
  const core::History h = recorded_mix(static_cast<std::uint64_t>(state.range(0)));
  bool clean = true;
  for (auto _ : state) {
    core::OnlineDefinitionalMonitor monitor(h.model());
    for (const core::Event& e : h.events()) (void)monitor.feed(e);
    clean = monitor.ok();
    benchmark::DoNotOptimize(clean);
  }
  if (!clean) {
    state.SkipWithError("definitional violation on an opaque STM's run");
    return;
  }
  state.counters["events"] = static_cast<double>(h.size());
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(h.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

// --- batch ingestion fed by the sharded recorder ------------------------------

/// OnlineCertificateMonitor::ingest in `range(0)`-event spans, on the
/// wall clock, with the monitor built and reserve()d untimed.
void BM_BatchCertificateMonitor(benchmark::State& state) {
  const core::History h = recorded_mix(2048);
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  const std::span<const core::Event> events(h.events());
  std::unique_ptr<core::OnlineCertificateMonitor> monitor;
  bool clean = true;
  for (auto _ : state) {
    state.PauseTiming();
    monitor = reserved_monitor(h, core::VersionOrderPolicy::kCommitOrder);
    state.ResumeTiming();
    for (std::size_t i = 0; i < events.size(); i += batch) {
      (void)monitor->ingest(
          events.subspan(i, std::min(batch, events.size() - i)));
    }
    clean = monitor->ok();
    benchmark::DoNotOptimize(clean);
  }
  if (!clean) {
    state.SkipWithError("certificate violation on an opaque STM's run");
    return;
  }
  state.counters["events"] = static_cast<double>(h.size());
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(h.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

// --- the monitor on a stream that outgrows the cache ---------------------------

/// A window-free tl2 history of about `events` events on 4096 registers:
/// three logical processes, four operations per transaction, half of them
/// writes, interleaved by a fixed seed from this one thread (so every run
/// certifies the same stream). Reads carry their (rv, version) stamps.
core::History recorded_stream(std::size_t events) {
  constexpr std::uint32_t kVars = 4096;
  const auto stm = stm::make_stm("tl2", kVars);
  (void)stm->set_window_free(true);
  stm::Recorder recorder(kVars);
  stm->set_recorder(&recorder);
  wl::MixParams params;
  params.threads = 3;
  params.vars = kVars;
  params.ops_per_tx = 4;
  params.write_ratio = 0.5;
  params.seed = 2210;
  // A committed transaction records 2 events per operation plus tryC, C.
  params.txs_per_thread = events / (3 * (2 * params.ops_per_tx + 2)) + 1;
  (void)wl::run_interleaved_mix(*stm, params);
  return recorder.history();
}

/// OnlineCertificateMonitor::ingest alone on `range(0)` events under
/// kStampedRead, in 2048-event spans (DrainPump's largest hand-over), on
/// the wall clock. The history is recorded once; each iteration's monitor
/// is built and reserve()d outside the timed region. The version index
/// and the register heads outgrow L2 here, unlike
/// BM_BatchCertificateMonitor's 8-register history.
void BM_CertifyStream(benchmark::State& state) {
  const core::History h =
      recorded_stream(static_cast<std::size_t>(state.range(0)));
  constexpr std::size_t kSpan = 2048;
  const std::span<const core::Event> events(h.events());
  std::unique_ptr<core::OnlineCertificateMonitor> monitor;
  for (auto _ : state) {
    state.PauseTiming();
    monitor = reserved_monitor(h, core::VersionOrderPolicy::kStampedRead);
    state.ResumeTiming();
    for (std::size_t i = 0; i < events.size(); i += kSpan) {
      (void)monitor->ingest(
          events.subspan(i, std::min(kSpan, events.size() - i)));
    }
    benchmark::DoNotOptimize(monitor->ok());
  }
  if (monitor == nullptr || !monitor->ok()) {
    state.SkipWithError("certificate violation on an opaque STM's run");
    return;
  }
  state.counters["events"] = static_cast<double>(h.size());
  state.counters["table_probes"] =
      static_cast<double>(monitor->resident().table_probes);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(h.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

// --- the drain layer ----------------------------------------------------------

/// Record `h` again into `recorder` from this one thread, dealing its
/// transactions (in order of their first event) whole to `lanes` lanes in
/// turn: lanes that interleave at transaction granularity, as the
/// producer threads of a live run do.
void record_dealt(stm::Recorder& recorder, const core::History& h,
                  std::uint32_t lanes) {
  std::unordered_map<core::TxId, std::size_t> rank;
  std::vector<std::vector<core::Event>> txs;
  for (const core::Event& e : h.events()) {
    const auto [it, fresh] = rank.try_emplace(e.tx, txs.size());
    if (fresh) txs.emplace_back();
    txs[it->second].push_back(e);
  }
  for (std::size_t t = 0; t < txs.size(); ++t) {
    const auto lane = static_cast<std::uint32_t>(t % lanes);
    for (const core::Event& e : txs[t]) {
      const auto var = static_cast<stm::VarId>(e.obj);
      switch (e.kind) {
        case core::EventKind::kInvoke:
          recorder.on_inv(lane, e.tx, var, e.op, e.arg);
          break;
        case core::EventKind::kResponse:
          recorder.on_ret(lane, e.tx, var, e.op, e.arg, e.ret, e.stamp,
                          e.ver);
          break;
        case core::EventKind::kTryCommit:
          recorder.on_try_commit(lane, e.tx);
          break;
        case core::EventKind::kCommit:
          recorder.on_commit(lane, e.tx, e.stamp);
          break;
        case core::EventKind::kTryAbort:
          recorder.on_try_abort(lane, e.tx);
          break;
        case core::EventKind::kAbort:
          recorder.on_abort(lane, e.tx, e.stamp);
          break;
      }
    }
  }
}

/// Recorder::drain alone: three lanes filled outside the timed region,
/// then drained in DrainPump-sized hand-overs (2048 events, its default
/// max_pending) until empty, on the wall clock. No thread is spawned and
/// no sink runs, so the rate is the +drain layer's own.
void BM_RecorderDrain(benchmark::State& state) {
  const core::History h = recorded_mix(4096);
  constexpr std::size_t kCap = 2048;
  stm::EventBatch batch;
  batch.reserve(kCap);
  std::unique_ptr<stm::Recorder> recorder;
  std::size_t drained = 0;
  for (auto _ : state) {
    state.PauseTiming();
    recorder = std::make_unique<stm::Recorder>(kMixVars);
    record_dealt(*recorder, h, 3);
    state.ResumeTiming();
    drained = 0;
    std::size_t n = 0;
    do {
      batch.clear();
      n = recorder->drain(batch, kCap);
      drained += n;
    } while (n > 0);
    benchmark::DoNotOptimize(batch.span().data());
    benchmark::ClobberMemory();
  }
  if (drained != h.size()) {
    state.SkipWithError("the drains lost or repeated events");
    return;
  }
  state.counters["events"] = static_cast<double>(h.size());
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(h.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

}  // namespace

BENCHMARK(BM_CertificateMonitor)
    ->RangeMultiplier(4)
    ->Range(16, 4096)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_DefinitionalMonitor)
    ->RangeMultiplier(2)
    ->Range(2, 8)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_BatchCertificateMonitor)
    ->RangeMultiplier(8)
    ->Range(1, 4096)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_CertifyStream)
    ->Arg(240'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_RecorderDrain)->Unit(benchmark::kMicrosecond)->UseRealTime();

// ---------------------------------------------------------------------------
// Sink overhead: the durable segment-log sink vs the in-RAM append baseline
// ---------------------------------------------------------------------------

namespace {

/// Push a pre-recorded history through a sink in drain-sized chunks —
/// the consumption side of the pipeline isolated from recording noise.
void sink_append_chunks(const core::History& h, stm::EventSink& sink,
                        std::size_t chunk) {
  std::span<const core::Event> rest(h.events());
  while (!rest.empty()) {
    const std::size_t take = std::min(rest.size(), chunk);
    if (!sink.accept(rest.first(take))) break;
    rest = rest.subspan(take);
  }
  (void)sink.finish();
}

constexpr std::size_t kSinkChunkEvents = 8192;

/// Baseline: the same chunks appended to an in-RAM History
/// (History::append_batch via HistoryAppendSink).
void BM_RamAppendDrain(benchmark::State& state) {
  const core::History h = recorded_mix(4096);
  for (auto _ : state) {
    core::History out(h.model());
    stm::HistoryAppendSink sink(out);
    sink_append_chunks(h, sink, kSinkChunkEvents);
    benchmark::DoNotOptimize(out.size());
  }
  state.counters["events"] = static_cast<double>(h.size());
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(h.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

/// The durable leg: identical chunks through log::LogWriterSink into a
/// fresh multi-segment mmap-backed log per iteration (CRC framing,
/// rotation and the final seal included). The delta against
/// BM_RamAppendDrain is the cost of durability in the drain loop. Both
/// run on the wall clock, so the delta includes the msync at rotation.
void BM_LogAppendDrain(benchmark::State& state) {
  const core::History h = recorded_mix(4096);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("optm_bench_log_" + std::to_string(::getpid()));
  std::uint64_t segments = 0;
  for (auto _ : state) {
    log::WriterOptions options;
    options.directory = dir.string();
    options.segment_bytes = std::size_t{2} << 20;  // force rotation
    options.metadata.runtime = "tl2";
    options.metadata.policy = "record-only";
    options.metadata.window_mode = "windowed";
    options.metadata.num_vars = 8;
    log::LogWriter writer(options);
    log::LogWriterSink sink(writer);
    sink_append_chunks(h, sink, kSinkChunkEvents);
    if (!writer.ok()) {
      state.SkipWithError(writer.error().c_str());
      return;
    }
    segments = writer.segments_written();
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
  }
  state.counters["events"] = static_cast<double>(h.size());
  state.counters["segments"] = static_cast<double>(segments);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(h.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

/// The checksum kernel alone (util::crc32c as dispatched — hardware
/// where the CPU has it), at a block-header-ish size, the drain-chunk
/// payload scale, and a streaming megabyte. The label records which
/// backend actually ran so archived numbers are comparable across hosts.
void BM_Crc32c(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  std::vector<unsigned char> buf(bytes);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<unsigned char>(x);
  }
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = util::crc32c(buf.data(), buf.size(), crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetLabel(util::crc32c_backend_name());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.counters["events"] = static_cast<double>(bytes);  // bytes per iter
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(bytes),
      benchmark::Counter::kIsIterationInvariantRate);
}

}  // namespace

BENCHMARK(BM_RamAppendDrain)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_LogAppendDrain)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(1 << 20);

// ---------------------------------------------------------------------------
// --json=FILE: the machine-readable perf artifact (BENCH_5.json schema)
// ---------------------------------------------------------------------------
//
// CI's bench-smoke job archives this next to the google-benchmark JSON so
// the repository accumulates an events/sec trajectory per
// runtime x policy x window mode instead of free-form console logs.

namespace {

/// Static metadata keyed by benchmark-name prefix (longest match wins).
/// "record-only" marks pure recording benches (no monitor in the loop).
struct BenchMeta {
  const char* prefix;
  const char* runtime;
  const char* policy;
  const char* window_mode;
};
constexpr BenchMeta kBenchMeta[] = {
    {"BM_CertificateMonitor", "tl2", "commit-order", "windowed"},
    {"BM_DefinitionalMonitor", "tl2", "definitional", "windowed"},
    {"BM_BatchCertificateMonitor", "tl2", "commit-order", "windowed"},
    {"BM_CertifyStream", "tl2", "stamped-read", "window-free"},
    {"BM_RecorderDrain", "tl2", "record-only", "windowed"},
    {"BM_RamAppendDrain", "tl2", "record-only", "windowed"},
    {"BM_LogAppendDrain", "tl2", "record-only", "windowed"},
    {"BM_Crc32c", "tl2", "record-only", "windowed"},
};

[[nodiscard]] const BenchMeta* meta_of(const std::string& name) {
  const BenchMeta* best = nullptr;
  std::size_t best_len = 0;
  for (const BenchMeta& m : kBenchMeta) {
    const std::size_t len = std::char_traits<char>::length(m.prefix);
    if (name.compare(0, len, m.prefix) == 0 && len > best_len) {
      best = &m;
      best_len = len;
    }
  }
  return best;
}

struct CapturedRun {
  std::string name;
  double events = 0;
  double events_per_sec = 0;
  double real_time_sec = 0;
  std::int64_t iterations = 0;
};

/// Console output as usual, plus a side capture of every run for --json.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      // Runs that errored/skipped never set their counters — keying on the
      // events counter also keeps this portable across google-benchmark
      // versions (Run::error_occurred became Run::skipped in 1.8).
      const auto ev = run.counters.find("events");
      if (ev == run.counters.end()) continue;
      CapturedRun c;
      c.name = run.benchmark_name();
      c.iterations = run.iterations;
      c.real_time_sec =
          run.iterations > 0 ? run.real_accumulated_time / run.iterations : 0;
      c.events = ev->second.value;
      if (c.real_time_sec > 0) c.events_per_sec = c.events / c.real_time_sec;
      captured_.push_back(std::move(c));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<CapturedRun>& captured() const noexcept {
    return captured_;
  }

 private:
  std::vector<CapturedRun> captured_;
};

[[nodiscard]] bool write_bench_json(const std::string& path,
                                    const std::vector<CapturedRun>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"optm-bench-v1\",\n"
               "  \"tool\": \"bench_online_checker\",\n"
               "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const CapturedRun& r = runs[i];
    const BenchMeta* m = meta_of(r.name);
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"runtime\": \"%s\", \"policy\": \"%s\", "
        "\"window_mode\": \"%s\", \"events\": %.0f, "
        "\"events_per_sec\": %.0f, \"real_time_sec\": %.9f, "
        "\"iterations\": %lld}%s\n",
        r.name.c_str(), m != nullptr ? m->runtime : "?",
        m != nullptr ? m->policy : "?", m != nullptr ? m->window_mode : "?",
        r.events, r.events_per_sec, r.real_time_sec,
        static_cast<long long>(r.iterations), i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

}  // namespace optm::bench

int main(int argc, char** argv) {
  // Strip our --json=FILE flag before google-benchmark sees (and rejects)
  // it.
  const std::string json_path =
      optm::util::extract_flag(argc, argv, "json").value_or("");

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  optm::bench::JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() &&
      !optm::bench::write_bench_json(json_path, reporter.captured())) {
    std::fprintf(stderr, "cannot write --json=%s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
