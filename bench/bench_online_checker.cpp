// EXPERIMENT E18 — online monitoring cost (§5.2's prefix discipline).
//
// The definitional prefix checker re-solves an NP-hard problem per
// response; the streaming certificate monitor is amortized O(1) per event.
// This bench makes the gap concrete: events/second for each backend as the
// recorded history grows, plus the certificate monitor alone on long runs
// the definitional backend could never touch.
//
// It also measures the RECORDING side of the pipeline: events/second of a
// live multi-threaded mix with the original single-mutex recorder vs the
// sharded per-lane recorder (same workload, same run), the batch-ingestion
// path fed by the sharded recorder's drain(), and the sharded offline
// verification driver across shard counts.
#include "bench_common.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <span>
#include <thread>

#include "core/online.hpp"
#include "core/parallel_stream.hpp"
#include "core/parallel_verify.hpp"
#include "log/log_sink.hpp"
#include "log/writer.hpp"
#include "stm/recorder.hpp"
#include "stm/sink.hpp"
#include "util/cli.hpp"
#include "util/hash.hpp"
#include "util/pool.hpp"

namespace optm::bench {
namespace {

/// Record a mix run of the given size on an opaque STM.
core::History recorded_mix(std::uint64_t txs_per_thread) {
  const auto stm = stm::make_stm("tl2", 8);
  stm::Recorder recorder(8);
  stm->set_recorder(&recorder);
  wl::MixParams params;
  params.threads = 3;
  params.vars = 8;
  params.txs_per_thread = txs_per_thread;
  params.seed = 4242;
  (void)wl::run_random_mix(*stm, params);
  return recorder.history();
}

void BM_CertificateMonitor(benchmark::State& state) {
  const core::History h = recorded_mix(static_cast<std::uint64_t>(state.range(0)));
  bool clean = true;
  for (auto _ : state) {
    core::OnlineCertificateMonitor monitor(h.model());
    for (const core::Event& e : h.events()) (void)monitor.feed(e);
    clean = monitor.ok();
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

// --- recorded-mode throughput: single-mutex vs sharded recorder ---------------

/// Run the same mix with `Threads` workers and the given recorder engine;
/// report recorded events/second. The per-thread transaction count is held
/// constant, so the threads axis scales offered load with parallelism.
/// `window_free` drops the recorder windows entirely (stamped recording);
/// the delta against the windowed run is the price of the window lock.
/// `stm_name` picks the stamp source (tl2's clock vs dstm's orec story).
template <typename RecorderT>
void BM_RecordedMix(benchmark::State& state, bool window_free = false,
                    const char* stm_name = "tl2") {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  wl::MixParams params;
  params.threads = threads;
  params.vars = 64;
  params.txs_per_thread = 400;
  params.ops_per_tx = 8;
  params.write_ratio = 0.25;
  params.seed = 4242;

  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto stm = stm::make_stm(stm_name, params.vars);
    (void)stm->set_window_free(window_free);
    RecorderT recorder(params.vars);
    stm->set_recorder(&recorder);
    (void)wl::run_random_mix(*stm, params);
    events = recorder.num_events();
    benchmark::DoNotOptimize(events);
  }
  state.counters["events"] = static_cast<double>(events);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate);
}

// --- recorded-mode live verification: the ISSUE's collapse scenario ----------
//
// §5.2 demands a verdict on every prefix: the monitor must run WHILE the
// mix records. With the single-mutex recorder the only way to observe the
// stream is to snapshot history() — an O(n) copy under the global mutex
// that stalls every recording thread, done once per poll interval, so the
// pipeline is quadratic in the run length. The sharded recorder's drain()
// hands the monitor each stamp-contiguous batch exactly once. Same
// workload, same monitor, same verdicts; the architecture is the only
// difference, and it grows without bound in the run length.

constexpr std::size_t kPollInterval = 1024;

template <typename Pipeline>
void live_verified_mix(benchmark::State& state, Pipeline&& pipeline) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  wl::MixParams params;
  params.threads = threads;
  params.vars = 64;
  params.txs_per_thread = 12000 / threads;
  params.ops_per_tx = 8;
  params.write_ratio = 0.25;
  params.seed = 4242;

  std::uint64_t events = 0;
  bool clean = true;
  for (auto _ : state) {
    const auto stm = stm::make_stm("tl2", params.vars);
    clean = pipeline(*stm, params, events);
    benchmark::DoNotOptimize(clean);
  }
  if (!clean) {
    state.SkipWithError("live monitor flagged an opaque STM's run");
    return;
  }
  state.counters["events"] = static_cast<double>(events);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_LiveVerifiedMixMutex(benchmark::State& state) {
  live_verified_mix(state, [](stm::Stm& stm, const wl::MixParams& params,
                              std::uint64_t& events) {
    stm::MutexRecorder recorder(params.vars);
    stm.set_recorder(&recorder);
    core::OnlineCertificateMonitor monitor(
        core::ObjectModel::registers(params.vars, 0));
    std::atomic<bool> done{false};
    std::thread verifier([&] {
      std::size_t fed = 0;
      for (;;) {
        const bool finished = done.load(std::memory_order_acquire);
        if (finished || recorder.num_events() - fed >= kPollInterval) {
          // The old API's only window into the stream: a full snapshot.
          const core::History h = recorder.history();
          (void)monitor.ingest(
              std::span<const core::Event>(h.events()).subspan(fed));
          fed = h.size();
          if (finished && fed == recorder.num_events()) return;
        } else {
          std::this_thread::yield();
        }
      }
    });
    (void)wl::run_random_mix(stm, params);
    done.store(true, std::memory_order_release);
    verifier.join();
    events = monitor.events_fed();
    return monitor.ok();
  });
}

/// The sharded drain/ingest pipeline; `policy` lets the window-free
/// variant feed the kStampedRead monitor (windowed feeds the default).
/// The consumer is the production shape: reusable EventBatch, pre-sized
/// monitor, and the self-pacing AdaptiveDrainPacer instead of the old
/// fixed poll interval.
void live_verified_sharded(benchmark::State& state, bool window_free,
                           core::VersionOrderPolicy policy) {
  live_verified_mix(state, [&](stm::Stm& stm, const wl::MixParams& params,
                               std::uint64_t& events) {
    (void)stm.set_window_free(window_free);
    stm::Recorder recorder(params.vars);
    stm.set_recorder(&recorder);
    core::OnlineCertificateMonitor monitor(recorder.model(), policy);
    monitor.reserve(params.threads * params.txs_per_thread + 16,
                    params.txs_per_thread * params.threads *
                            params.ops_per_tx / 2 +
                        params.vars + 16);
    std::atomic<bool> done{false};
    std::thread verifier([&] {
      stm::EventBatch batch;
      stm::AdaptiveDrainPacer pacer;
      for (;;) {
        const bool finished = done.load(std::memory_order_acquire);
        if (finished || pacer.should_drain(recorder.stamps_issued(),
                                           recorder.approx_pending())) {
          batch.clear();
          if (recorder.drain(batch) > 0) {
            pacer.on_drain();
            (void)monitor.ingest(batch.span());
            continue;
          }
          if (finished) return;
        }
        std::this_thread::yield();
      }
    });
    (void)wl::run_random_mix(stm, params);
    done.store(true, std::memory_order_release);
    verifier.join();
    events = monitor.events_fed();
    return monitor.ok();
  });
}

// --- batch ingestion fed by the sharded recorder ------------------------------

void BM_BatchCertificateMonitor(benchmark::State& state) {
  const core::History h = recorded_mix(2048);
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  bool clean = true;
  for (auto _ : state) {
    core::OnlineCertificateMonitor monitor(h.model());
    const std::span<const core::Event> events(h.events());
    for (std::size_t i = 0; i < events.size(); i += batch) {
      (void)monitor.ingest(
          events.subspan(i, std::min(batch, events.size() - i)));
    }
    clean = monitor.ok();
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

// --- parallel streaming certification -----------------------------------------

/// The parallel streaming certifier (core/parallel_stream.hpp) over the
/// same recorded history the monitor benches consume, swept across shard
/// counts (range(0) register shards -> range(0)+1 pipeline threads). The
/// 1-shard point prices the pipeline itself (channels, barriers, the
/// extra pass-0 thread) against BM_BatchCertificateMonitor; higher shard
/// counts show how certification scales once the scan is the bottleneck.
/// On a single-core CI runner the whole sweep degenerates to serialized
/// context switching — read the shape, not the absolute numbers.
void BM_ParallelStreamMonitor(benchmark::State& state) {
  const core::History h = recorded_mix(4096);
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kIngestChunk = 8192;
  bool clean = true;
  for (auto _ : state) {
    core::ParallelStreamCertifier::Options options;
    options.num_shards = shards;
    core::ParallelStreamCertifier cert(h.model(),
                                       core::VersionOrderPolicy::kCommitOrder,
                                       options);
    cert.reserve(/*num_txs=*/16384, /*num_versions=*/h.size() / 3 + 64);
    const std::span<const core::Event> events(h.events());
    for (std::size_t i = 0; i < events.size(); i += kIngestChunk) {
      (void)cert.ingest(
          events.subspan(i, std::min(kIngestChunk, events.size() - i)));
    }
    clean = cert.finish();
    benchmark::DoNotOptimize(clean);
  }
  if (!clean) {
    state.SkipWithError("parallel certifier flagged an opaque STM's run");
    return;
  }
  state.counters["events"] = static_cast<double>(h.size());
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(h.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

// --- sharded offline verification ---------------------------------------------

void BM_ParallelOfflineVerify(benchmark::State& state) {
  const core::History h = recorded_mix(4096);
  const auto shards = static_cast<std::size_t>(state.range(0));
  util::ThreadPool pool(shards);
  bool certified = false;
  std::string first_flag;
  for (auto _ : state) {
    core::ShardVerifyOptions options;
    options.num_shards = shards;
    const auto result = core::verify_history_sharded(h, pool, options);
    certified = result.certified;
    if (!certified && first_flag.empty() && result.violation.has_value()) {
      first_flag = "pos " + std::to_string(result.violation->pos) + ": " +
                   result.violation->reason;
    }
    benchmark::DoNotOptimize(certified);
  }
  if (!certified) {
    state.SkipWithError(
        ("sharded driver flagged an opaque STM's run — " + first_flag).c_str());
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
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_DefinitionalMonitor)
    ->RangeMultiplier(2)
    ->Range(2, 8)
    ->Unit(benchmark::kMillisecond);

void BM_RecordedMixMutex(benchmark::State& state) {
  BM_RecordedMix<optm::stm::MutexRecorder>(state);
}
void BM_RecordedMixSharded(benchmark::State& state) {
  BM_RecordedMix<optm::stm::Recorder>(state);
}
void BM_RecordedMixTl2WindowFree(benchmark::State& state) {
  BM_RecordedMix<optm::stm::Recorder>(state, /*window_free=*/true);
}
void BM_RecordedMixDstmWindowFree(benchmark::State& state) {
  // The orec stamp source: per-read whole-read-set validation draws the
  // snapshot, commits ticket through kCommitting. The delta against
  // BM_RecordedMixTl2WindowFree is the Θ(k) validation, not the recorder.
  BM_RecordedMix<optm::stm::Recorder>(state, /*window_free=*/true, "dstm");
}
void BM_LiveVerifiedMixSharded(benchmark::State& state) {
  live_verified_sharded(state, /*window_free=*/false,
                        core::VersionOrderPolicy::kCommitOrder);
}
void BM_LiveVerifiedMixTl2WindowFree(benchmark::State& state) {
  live_verified_sharded(state, /*window_free=*/true,
                        core::VersionOrderPolicy::kStampedRead);
}

BENCHMARK(BM_RecordedMixMutex)
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_RecordedMixSharded)
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_RecordedMixTl2WindowFree)
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_RecordedMixDstmWindowFree)
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_LiveVerifiedMixMutex)
    ->RangeMultiplier(2)
    ->Range(2, 8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_LiveVerifiedMixSharded)
    ->RangeMultiplier(2)
    ->Range(2, 8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_LiveVerifiedMixTl2WindowFree)
    ->RangeMultiplier(2)
    ->Range(2, 8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_BatchCertificateMonitor)
    ->RangeMultiplier(8)
    ->Range(1, 4096)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_ParallelStreamMonitor)
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_ParallelOfflineVerify)
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond);

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
    {"BM_ParallelStreamMonitor", "tl2", "commit-order", "windowed"},
    {"BM_ParallelOfflineVerify", "tl2", "commit-order", "windowed"},
    {"BM_RecordedMixMutex", "tl2", "record-only", "windowed"},
    {"BM_RecordedMixSharded", "tl2", "record-only", "windowed"},
    {"BM_RecordedMixTl2WindowFree", "tl2", "record-only", "window-free"},
    {"BM_RecordedMixDstmWindowFree", "dstm", "record-only", "window-free"},
    {"BM_LiveVerifiedMixMutex", "tl2", "commit-order", "windowed"},
    {"BM_LiveVerifiedMixSharded", "tl2", "commit-order", "windowed"},
    {"BM_LiveVerifiedMixTl2WindowFree", "tl2", "stamped-read", "window-free"},
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
