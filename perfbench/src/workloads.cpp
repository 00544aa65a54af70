#include "workloads.hpp"

#include <malloc.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/stream_verify.hpp"
#include "harness.hpp"
#include "log/log_sink.hpp"
#include "log/reader.hpp"
#include "log/writer.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket_sink.hpp"
#include "sim/thread_ctx.hpp"
#include "stm/factory.hpp"

namespace perfbench {

std::atomic<std::int64_t> g_round_deadline_ns{0};

namespace {

using optm::core::VersionOrderPolicy;
namespace fs = std::filesystem;

/// A round still running after this long is hung, and fails.
constexpr std::int64_t kRoundDeadlineNs = 60'000'000'000;
/// No new round starts after this much wall time, whatever --seconds says.
constexpr double kWallBudgetS = 140.0;
constexpr std::size_t kMinRounds = 4;
constexpr double kWriteRatio = 0.5;
/// Traced rounds keep every kSpanEvery-th transaction as an stm.tx span.
constexpr std::uint32_t kSpanEvery = 64;
constexpr std::size_t kSegmentBytes = std::size_t{16} << 20;
/// durable_paced: each producer starts a transaction every kPacedPeriodNs
/// (75k tx/s), in rounds of kPacedRoundNs of offered load.
constexpr std::int64_t kPacedPeriodNs = 13'333;
constexpr std::int64_t kPacedRoundNs = 500'000'000;
/// certify_log: events per recorded log, timed passes per log. Small logs
/// give a run dozens of logs, so its median samples the host's slow and
/// fast spells many times over (4M-event logs, five to a 10 s run, spread
/// 0.12-0.33 between runs under load; 1M-event logs 0.09 under the same).
constexpr std::size_t kLogEvents = 1'000'000;
constexpr std::size_t kPassesPerLog = 6;
/// certify_log: verify_event_stream's buffering window, below the log
/// size, so that the stream outgrows it and runs the streaming engine.
constexpr std::size_t kLogWindowEvents = std::size_t{1} << 18;

/// The end-to-end metrics, each the median over a run's rounds.
constexpr std::pair<const char*, const char*> kEndToEndMetrics[] = {
    {"events_per_s", "1/s"},
    {"commits_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// The per-layer metrics, in report order; a traced run emits every one
/// (0 where the workload does no work in that layer). The verdict-lag
/// percentiles are here rather than end-to-end because on a shared host
/// their run-to-run spread (durable_paced: p50 0.1-0.97, p99 0.2-0.6)
/// exceeds any bound the benchmark may set.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"verdict_lag_p50_us", "us"},
    {"verdict_lag_p99_us", "us"},
    {"gen.late_p99_us", "us"},
    {"stm.tx_ns_p50", "ns"},
    {"stm.tx_ns_p99", "ns"},
    {"stm.producer_busy_share", "share"},
    {"stm.abort_ratio", "share"},
    {"stm.bare_tx_ns_p50", "ns"},
    {"recorder.events", "count"},
    {"recorder.events_per_commit", "count"},
    {"recorder.pending_at_accept_p50", "count"},
    {"recorder.pending_at_accept_max", "count"},
    {"pump.batches", "count"},
    {"pump.batch_events_p50", "count"},
    {"pump.batch_events_max", "count"},
    {"pump.self_ns_per_event", "ns"},
    {"monitor.ingest_ns_per_event", "ns"},
    {"monitor.busy_share", "share"},
    {"monitor.finish_ms", "ms"},
    {"verify.engine_ns_per_event", "ns"},
    {"verify.threads_used", "count"},
    {"verify.shards_used", "count"},
    {"log.append_ns_per_event", "ns"},
    {"log.append_us_max", "us"},
    {"log.prep_stalls", "count"},
    {"log.close_ms", "ms"},
    {"log.segments", "count"},
    {"log.pull_ns_per_event", "ns"},
    {"net.send_ns_per_event", "ns"},
    {"net.send_us_max", "us"},
    {"net.finish_ms", "ms"},
    {"net.server_events_ingested", "count"},
    {"net.streams_failed", "count"},
    {"trace.events_per_s", "1/s"},
    {"trace.untraced_events_per_s", "1/s"},
    {"trace.overhead_share", "share"},
};

using Values = std::map<std::string, double>;

/// What one round reports; rounds run in a child process send it back
/// through a pipe (serialize/parse below).
struct RoundResult {
  bool ok = true;
  std::string failure;
  bool certified = false;
  bool traced = false;
  /// The round's end-to-end values (kEndToEndMetrics, plus timed_s).
  Values e2e;
  /// Traced rounds: the per-layer metrics.
  Values layers;
  /// Traced rounds: "<span>/count", "<span>/total_ns", "<span>/self_ns".
  Values spans;
};

void fail(RoundResult& r, const std::string& why) {
  if (r.ok) r.failure = why;
  r.ok = false;
}

[[nodiscard]] double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

[[nodiscard]] double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

[[nodiscard]] double value_or(const Values& v, const std::string& key,
                              double fallback = 0) {
  const auto it = v.find(key);
  return it == v.end() ? fallback : it->second;
}

[[nodiscard]] std::string serialize(const RoundResult& r) {
  std::ostringstream out;
  out.precision(17);
  out << "ok " << r.ok << "\ncertified " << r.certified << "\ntraced "
      << r.traced << '\n';
  const std::pair<char, const Values*> groups[] = {
      {'e', &r.e2e}, {'l', &r.layers}, {'s', &r.spans}};
  for (const auto& [tag, values] : groups) {
    for (const auto& [key, value] : *values) {
      out << tag << ' ' << key << ' ' << value << '\n';
    }
  }
  std::string why = r.failure;
  for (char& c : why) {
    if (c == '\n') c = ' ';
  }
  out << "failure " << why << '\n';
  return out.str();
}

[[nodiscard]] RoundResult parse(const std::string& text) {
  RoundResult r;
  std::istringstream in(text);
  bool complete = false;
  for (std::string line; std::getline(in, line);) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "ok" || tag == "certified" || tag == "traced") {
      int flag = 0;
      ls >> flag;
      (tag == "ok" ? r.ok : tag == "certified" ? r.certified : r.traced) = flag != 0;
    } else if (tag == "failure") {
      std::getline(ls >> std::ws, r.failure);
      complete = true;
    } else {
      std::string key;
      double value = 0;
      ls >> key >> value;
      (tag == "e" ? r.e2e : tag == "l" ? r.layers : r.spans)[key] = value;
    }
  }
  if (!complete) fail(r, "the child process reported nothing");
  return r;
}

/// Runs `round` in a forked child, so that it starts from a fresh heap and
/// the memory it touches stays out of this process's heap and peak RSS. A
/// child still running at `deadline_ns` is killed and the round fails — a
/// hung pipeline is a failed round, not a stuck benchmark.
[[nodiscard]] RoundResult in_child(const std::function<RoundResult()>& round,
                                   std::int64_t deadline_ns) {
  RoundResult failed;
  int fds[2];
  if (pipe(fds) != 0) {
    fail(failed, "pipe failed");
    return failed;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    fail(failed, "fork failed");
    return failed;
  }
  if (pid == 0) {
    close(fds[0]);
    RoundResult r;
    try {
      r = round();
    } catch (const std::exception& e) {
      fail(r, e.what());
    }
    const std::string text = serialize(r);
    for (std::size_t off = 0; off < text.size();) {
      const ssize_t n = write(fds[1], text.data() + off, text.size() - off);
      if (n <= 0 && errno != EINTR) break;
      if (n > 0) off += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  // Backstop for this parent: the watchdog fires only if waiting here
  // itself wedges.
  g_round_deadline_ns.store(deadline_ns + 30'000'000'000);
  std::string text;
  bool hung = false;
  for (char buf[4096];;) {
    const std::int64_t left_ms = (deadline_ns - now_ns()) / 1'000'000;
    if (left_ms <= 0) {
      hung = true;
      kill(pid, SIGKILL);
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    if (poll(&p, 1, static_cast<int>(std::min<std::int64_t>(left_ms, 1000))) <= 0) {
      continue;
    }
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (hung) {
    fail(failed, "the child passed its deadline (hung)");
    return failed;
  }
  RoundResult r = parse(text);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    fail(r, "the child process died");
  }
  return r;
}

/// One span name's totals.
struct SpanTotals {
  double total_ns = 0;
  double self_ns = 0;
  double max_ns = 0;
  std::vector<double> durations;
};

[[nodiscard]] std::map<std::string, SpanTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    const auto d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    t.total_ns += d;
    t.self_ns += static_cast<double>(self[i]);
    t.max_ns = std::max(t.max_ns, d);
    t.durations.push_back(d);
  }
  return out;
}

/// Per-span-name totals of `spans`, as RoundResult::spans entries.
[[nodiscard]] Values span_values(const std::map<std::string, SpanTotals>& totals) {
  Values v;
  for (const auto& [name, t] : totals) {
    v[name + "/count"] = static_cast<double>(t.durations.size());
    v[name + "/total_ns"] = t.total_ns;
    v[name + "/self_ns"] = t.self_ns;
  }
  return v;
}

/// Appends spans to the trace file, one JSON object per line.
void append_trace(const std::vector<Span>& spans, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::app);
  for (const Span& s : spans) {
    out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"thread\": " << s.slot
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
}

/// Releases `t0` to every thread parked on it.
class StartGate {
 public:
  void open(std::int64_t t0) noexcept { t0_.store(t0, std::memory_order_release); }
  [[nodiscard]] std::int64_t wait() const noexcept {
    std::int64_t t = 0;
    while ((t = t0_.load(std::memory_order_acquire)) == 0) {
      std::this_thread::yield();
    }
    return t;
  }

 private:
  std::atomic<std::int64_t> t0_{0};
};

/// Joins every thread it holds, on every exit path.
class ThreadGroup {
 public:
  ThreadGroup() = default;
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;
  ~ThreadGroup() { join(); }
  template <typename F>
  void spawn(F&& f) {
    threads_.emplace_back(std::forward<F>(f));
  }
  void join() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::vector<std::thread> threads_;
};

// --- live pipeline rounds -------------------------------------------------------

struct LiveSpec {
  const char* workload = "";
  const char* stm = "tl2";
  bool window_free = true;
  VersionOrderPolicy policy = VersionOrderPolicy::kStampedRead;
  std::uint32_t vars = 4096;
  std::uint32_t producers = 3;
  std::size_t txs_per_producer = 0;
  /// Open loop: each producer starts a transaction every period_ns.
  /// 0 = closed loop.
  std::int64_t period_ns = 0;
  /// Tee the log writer and the socket sink (to a loopback CertServer)
  /// next to the monitor.
  bool durable = false;
  std::uint32_t lag_every = 1;
  /// Run each round in a child process (see run_live).
  bool fresh_process = true;
};

[[nodiscard]] optm::log::LogMetadata metadata_of(const LiveSpec& spec) {
  optm::log::LogMetadata meta;
  meta.runtime = spec.stm;
  meta.policy = optm::core::to_string(spec.policy);
  meta.window_mode = spec.window_free ? "window-free" : "windowed";
  meta.num_vars = spec.vars;
  meta.threads = spec.producers;
  return meta;
}

[[nodiscard]] std::unique_ptr<optm::stm::Stm> make_runtime(const LiveSpec& spec) {
  auto stm = optm::stm::make_stm(spec.stm, spec.vars);
  if (!stm->set_window_free(spec.window_free)) {
    throw std::invalid_argument(std::string(spec.stm) +
                                " cannot record window-free");
  }
  return stm;
}

[[nodiscard]] std::vector<std::vector<TxScript>> make_scripts(
    const LiveSpec& spec, std::uint64_t seed) {
  std::vector<std::vector<TxScript>> scripts;
  for (std::uint32_t p = 0; p < spec.producers; ++p) {
    scripts.push_back(make_script(seed, p, spec.txs_per_producer, spec.vars,
                                  kWriteRatio));
  }
  return scripts;
}

/// One producer config per script, all sharing `base`.
[[nodiscard]] std::vector<ProducerConfig> producer_configs(
    const ProducerConfig& base, const std::vector<std::vector<TxScript>>& scripts) {
  std::vector<ProducerConfig> cfgs(scripts.size(), base);
  for (std::uint32_t p = 0; p < cfgs.size(); ++p) {
    cfgs[p].id = p;
    cfgs[p].script = &scripts[p];
  }
  return cfgs;
}

/// Timestamps of one driven round.
struct Drive {
  std::int64_t t0 = 0;          // producers released
  std::int64_t verdict_ns = 0;  // pump.run() (and so every sink finish) returned
  optm::stm::DrainPump::Stats pump;
};

/// Parks one thread per producer (and one for the pump, when given) on a
/// start gate, then releases them together and joins them. Everything
/// before the release is set-up; `results` must be reserved already.
[[nodiscard]] Drive drive(const std::vector<ProducerConfig>& cfgs,
                          std::vector<ProducerResult>& results,
                          optm::stm::DrainPump* pump, Tracer* tracer,
                          std::uint32_t pump_slot, std::uint64_t root) {
  Drive d;
  StartGate gate;
  std::atomic<std::size_t> running{cfgs.size()};
  std::atomic<bool> done{false};
  ThreadGroup threads;
  for (std::size_t p = 0; p < cfgs.size(); ++p) {
    threads.spawn([&, p] {
      run_producer(cfgs[p], gate.wait(), results[p]);
      if (running.fetch_sub(1) == 1) done.store(true, std::memory_order_release);
    });
  }
  if (pump != nullptr) {
    threads.spawn([&] {
      (void)gate.wait();
      {
        const ScopedSpan span(tracer, pump_slot, "pump.run", root);
        d.pump = pump->run(done);
      }
      d.verdict_ns = now_ns();
    });
  }
  d.t0 = now_ns();
  gate.open(d.t0);
  threads.join();
  if (pump == nullptr) {
    for (const ProducerResult& r : results) {
      d.verdict_ns = std::max(d.verdict_ns, r.end_ns);
    }
  }
  return d;
}

/// Verdict lag of every sample: from its due time to the return of the
/// first accept whose cumulative count covers the stamps issued when the
/// transaction committed (per-event stamping drains a contiguous prefix).
[[nodiscard]] std::vector<double> verdict_lags_us(
    const std::vector<AcceptRecord>& log,
    const std::vector<ProducerResult>& producers, RoundResult& r) {
  std::vector<double> lags;
  for (const ProducerResult& p : producers) {
    for (const LagSample& s : p.lag) {
      const auto it = std::lower_bound(
          log.begin(), log.end(), s.stamps,
          [](const AcceptRecord& a, std::uint64_t v) { return a.cumulative < v; });
      if (it == log.end()) {
        fail(r, "a commit was never covered by an accepted batch");
        return lags;
      }
      lags.push_back(static_cast<double>(it->return_ns - s.due_ns) * 1e-3);
    }
  }
  return lags;
}

/// Counts the events a finished log holds (the re-read oracle and the
/// page-cache warm-up).
[[nodiscard]] std::uint64_t reread_events(const std::string& dir,
                                          std::string& error) {
  optm::log::LogReader reader;
  if (!reader.open(dir)) {
    error = reader.error();
    return 0;
  }
  std::uint64_t n = 0;
  for (auto batch = reader.next(); !batch.empty(); batch = reader.next()) {
    n += batch.size();
  }
  if (!reader.ok()) error = reader.error();
  return n;
}

/// One live round: set up (setup_s), release every parked thread, and
/// time from the first transaction to the final verdict.
[[nodiscard]] RoundResult run_live_round(const LiveSpec& spec,
                                         std::uint64_t seed, bool traced,
                                         const std::string& log_dir,
                                         const std::string& trace_out) {
  RoundResult r;
  r.traced = traced;
  const std::int64_t setup0 = now_ns();
  const std::uint32_t n = spec.producers;
  const std::uint32_t pump_slot = n;
  const std::uint32_t main_slot = n + 1;
  std::unique_ptr<Tracer> owned_tracer;
  if (traced) owned_tracer = std::make_unique<Tracer>(n + 2);
  Tracer* tracer = owned_tracer.get();

  const auto scripts = make_scripts(spec, seed);
  auto stm = make_runtime(spec);
  auto recorder = std::make_unique<optm::stm::Recorder>(spec.vars);
  stm->set_recorder(recorder.get());

  // Engine pre-sizing: attempts (aborts included) and written versions.
  const std::size_t txs = std::size_t{n} * spec.txs_per_producer;
  const std::size_t reserve_txs = txs + txs / 2 + 64;
  const std::size_t reserve_versions = txs * kOpsPerTx / 2 + txs + spec.vars;
  optm::core::OnlineCertificateMonitor monitor(recorder->model(), spec.policy);
  monitor.reserve(reserve_txs, reserve_versions);
  optm::stm::MonitorSink monitor_sink(monitor);
  TimedSink monitor_leg(monitor_sink, tracer, pump_slot, "monitor.ingest",
                        "monitor.finish");

  // The durable legs. The server outlives the client, which outlives the
  // sinks that use it.
  std::unique_ptr<optm::net::CertServer> server;
  optm::net::CertClient client;
  std::unique_ptr<optm::log::LogWriter> writer;
  std::unique_ptr<optm::log::LogWriterSink> log_sink;
  std::unique_ptr<optm::stm::SocketSink> socket_sink;
  std::unique_ptr<TimedSink> log_leg;
  std::unique_ptr<TimedSink> net_leg;
  optm::stm::TeeSink tee;
  optm::stm::EventSink* chain = &monitor_leg;
  if (spec.durable) {
    const optm::log::LogMetadata meta = metadata_of(spec);
    optm::log::WriterOptions wopt;
    wopt.directory = log_dir;
    wopt.segment_bytes = kSegmentBytes;
    wopt.metadata = meta;
    writer = std::make_unique<optm::log::LogWriter>(wopt);
    if (!writer->ok()) {
      fail(r, "log writer: " + writer->error());
      return r;
    }
    server = std::make_unique<optm::net::CertServer>(optm::net::ServerOptions{});
    if (!server->start()) {
      fail(r, "cert server: " + server->error());
      return r;
    }
    if (!client.connect("127.0.0.1", server->port(),
                        optm::net::make_hello(meta, reserve_txs,
                                              reserve_versions))) {
      fail(r, "cert client: " + client.error());
      return r;
    }
    log_sink = std::make_unique<optm::log::LogWriterSink>(*writer);
    socket_sink = std::make_unique<optm::stm::SocketSink>(client);
    log_leg = std::make_unique<TimedSink>(*log_sink, tracer, pump_slot,
                                          "log.append", "log.close");
    net_leg = std::make_unique<TimedSink>(*socket_sink, tracer, pump_slot,
                                          "net.send", "net.finish");
    tee.add(&monitor_leg).add(log_leg.get()).add(net_leg.get());
    chain = &tee;
  }
  ChainHead head(*chain, *recorder, tracer, pump_slot, std::size_t{1} << 16);
  optm::stm::DrainPump pump(*recorder, head);

  const std::uint64_t root = tracer != nullptr ? tracer->open(main_slot, 0) : 0;
  ProducerConfig base;
  base.stm = stm.get();
  base.recorder = recorder.get();
  base.period_ns = spec.period_ns;
  base.lag_every = spec.lag_every;
  base.tracer = tracer;
  base.span_every = kSpanEvery;
  base.root_span = root;
  const auto cfgs = producer_configs(base, scripts);
  std::vector<ProducerResult> results(n);
  for (ProducerResult& p : results) {
    p.lag.reserve(spec.txs_per_producer / spec.lag_every + 1);
    if (spec.period_ns > 0) p.late_ns.reserve(spec.txs_per_producer);
  }
  r.e2e["setup_s"] = seconds_between(setup0, now_ns());
  const Drive d = drive(cfgs, results, &pump, tracer, pump_slot, root);
  if (tracer != nullptr) tracer->close(main_slot, spec.workload, d.t0, d.verdict_ns);

  // --- the oracle ---------------------------------------------------------------
  std::uint64_t commits = 0;
  std::uint64_t attempts = 0;
  std::int64_t producers_end = d.t0;
  double busy_ns = 0;
  double producer_wall_ns = 0;
  for (const ProducerResult& p : results) {
    commits += p.commits;
    attempts += p.attempts;
    producers_end = std::max(producers_end, p.end_ns);
    busy_ns += static_cast<double>(p.busy_ns);
    producer_wall_ns += static_cast<double>(p.end_ns - d.t0);
  }
  const std::uint64_t events = recorder->num_events();
  r.certified = monitor.ok();
  if (!monitor.ok()) fail(r, "monitor flagged: " + monitor.violation()->reason);
  if (!d.pump.sink_ok) fail(r, "a sink failed");
  if (d.pump.events != events || monitor.events_fed() != events) {
    fail(r, "event counts disagree: recorded " + std::to_string(events) +
                ", drained " + std::to_string(d.pump.events) + ", fed " +
                std::to_string(monitor.events_fed()));
  }
  optm::net::ServerStats server_stats;
  if (spec.durable) {
    server_stats = server->stats();
    server->stop();
    std::string error;
    const std::uint64_t reread = reread_events(log_dir, error);
    const auto& verdict = client.verdict();
    if (!verdict.certified) fail(r, "remote verdict not certified");
    if (!error.empty()) fail(r, "log reread: " + error);
    if (writer->events_written() != events ||
        server_stats.events_ingested != events || verdict.events != events ||
        reread != events) {
      fail(r, "event counts disagree: recorded " + std::to_string(events) +
                  ", logged " + std::to_string(writer->events_written()) +
                  ", server " + std::to_string(server_stats.events_ingested) +
                  ", reread " + std::to_string(reread));
    }
    if (server_stats.streams_failed != 0) fail(r, "a server stream failed");
  }

  const double timed_s = seconds_between(d.t0, d.verdict_ns);
  const std::vector<double> lags = verdict_lags_us(head.log(), results, r);
  r.e2e["timed_s"] = timed_s;
  r.e2e["events_per_s"] = static_cast<double>(events) / timed_s;
  r.e2e["commits_per_s"] =
      static_cast<double>(commits) / seconds_between(d.t0, producers_end);
  r.e2e["verdict_lag_p50_us"] = quantile(lags, 0.5);
  r.e2e["verdict_lag_p99_us"] = quantile(lags, 0.99);
  if (tracer == nullptr) return r;

  // --- per-layer values, from this round's spans ----------------------------------
  const std::vector<Span> spans = tracer->all();
  const auto totals = totals_by_name(spans);
  r.spans = span_values(totals);
  append_trace(spans, trace_out);
  const auto span = [&](const char* name) -> SpanTotals {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const auto ev = static_cast<double>(events);
  const SpanTotals tx = span("stm.tx");
  std::vector<double> late;
  for (const ProducerResult& p : results) {
    for (const std::int64_t l : p.late_ns) late.push_back(static_cast<double>(l) * 1e-3);
  }
  std::vector<double> pending;
  std::vector<double> batch;
  for (const AcceptRecord& a : head.log()) {
    pending.push_back(static_cast<double>(a.pending));
    batch.push_back(static_cast<double>(a.batch));
  }
  Values& l = r.layers;
  l["verdict_lag_p50_us"] = r.e2e["verdict_lag_p50_us"];
  l["verdict_lag_p99_us"] = r.e2e["verdict_lag_p99_us"];
  l["gen.late_p99_us"] = quantile(late, 0.99);
  l["stm.tx_ns_p50"] = quantile(tx.durations, 0.5);
  l["stm.tx_ns_p99"] = quantile(tx.durations, 0.99);
  l["stm.producer_busy_share"] = busy_ns / producer_wall_ns;
  l["stm.abort_ratio"] =
      static_cast<double>(attempts - commits) / static_cast<double>(attempts);
  l["recorder.events"] = ev;
  l["recorder.events_per_commit"] = ev / static_cast<double>(commits);
  l["recorder.pending_at_accept_p50"] = quantile(pending, 0.5);
  l["recorder.pending_at_accept_max"] = quantile(pending, 1.0);
  l["pump.batches"] = static_cast<double>(head.log().size());
  l["pump.batch_events_p50"] = quantile(batch, 0.5);
  l["pump.batch_events_max"] = quantile(batch, 1.0);
  l["pump.self_ns_per_event"] = span("pump.run").self_ns / ev;
  l["monitor.ingest_ns_per_event"] = span("monitor.ingest").total_ns / ev;
  l["monitor.busy_share"] = span("monitor.ingest").total_ns / (timed_s * 1e9);
  l["monitor.finish_ms"] = span("monitor.finish").total_ns * 1e-6;
  l["verify.threads_used"] = 1;  // the serial monitor, on the pump thread
  l["verify.shards_used"] = 1;
  if (spec.durable) {
    l["log.append_ns_per_event"] = span("log.append").total_ns / ev;
    l["log.append_us_max"] = span("log.append").max_ns * 1e-3;
    l["log.prep_stalls"] = static_cast<double>(writer->pipeline_stats().prep_stalls);
    l["log.close_ms"] = span("log.close").total_ns * 1e-6;
    l["log.segments"] = static_cast<double>(writer->segments_written());
    l["net.send_ns_per_event"] = span("net.send").total_ns / ev;
    l["net.send_us_max"] = span("net.send").max_ns * 1e-3;
    l["net.finish_ms"] = span("net.finish").total_ns * 1e-6;
    l["net.server_events_ingested"] =
        static_cast<double>(server_stats.events_ingested);
    l["net.streams_failed"] = static_cast<double>(server_stats.streams_failed);
  }
  return r;
}

/// The traced run's bare pass: the same scripts with no recorder attached.
[[nodiscard]] RoundResult bare_round(const LiveSpec& spec, std::uint64_t seed,
                                     const std::string& trace_out) {
  RoundResult r;
  r.traced = true;
  const auto scripts = make_scripts(spec, seed);
  auto stm = make_runtime(spec);
  Tracer tracer(spec.producers);
  ProducerConfig base;
  base.stm = stm.get();
  base.period_ns = spec.period_ns;
  base.tracer = &tracer;
  base.span_name = "stm.bare_tx";
  base.span_every = kSpanEvery;
  const auto cfgs = producer_configs(base, scripts);
  std::vector<ProducerResult> results(spec.producers);
  for (ProducerResult& p : results) {
    if (spec.period_ns > 0) p.late_ns.reserve(spec.txs_per_producer);
  }
  (void)drive(cfgs, results, nullptr, nullptr, 0, 0);
  const std::vector<Span> spans = tracer.all();
  const auto totals = totals_by_name(spans);
  r.spans = span_values(totals);
  append_trace(spans, trace_out);
  if (const auto it = totals.find("stm.bare_tx"); it != totals.end()) {
    r.layers["stm.bare_tx_ns_p50"] = quantile(it->second.durations, 0.5);
  }
  return r;
}

// --- certify_log ------------------------------------------------------------------

/// A recorded log on disk, and what went into it.
struct LogFixture {
  std::string dir;
  std::uint64_t events = 0;
  std::uint64_t commits = 0;
  std::uint64_t attempts = 0;
};

/// Runs the producers' scripts as one seeded interleaving on this thread:
/// each step advances one producer's transaction by one operation (begin,
/// read/write, commit; aborted attempts are retried), the producer drawn
/// from `seed`. Transactions overlap and conflict as with producer
/// threads, but the history is a function of the seed alone; with threads,
/// the host's timing sets the aborts, and so the log's size and content
/// (up to 27% more attempts with a busy neighbour).
void record_interleaved(optm::stm::Stm& stm,
                        const std::vector<std::vector<TxScript>>& scripts,
                        std::uint64_t seed, double& commits, double& attempts) {
  struct Producer {
    std::unique_ptr<optm::sim::ThreadCtx> ctx;
    std::size_t tx = 0;
    std::size_t op = 0;
    bool open = false;
    std::uint64_t value = 0;
  };
  std::vector<Producer> producers(scripts.size());
  std::vector<std::size_t> running;
  for (std::uint32_t p = 0; p < producers.size(); ++p) {
    producers[p].ctx = std::make_unique<optm::sim::ThreadCtx>(p);
    producers[p].value = (std::uint64_t{p} + 1) << 56;  // value-unique writes
    if (!scripts[p].empty()) running.push_back(p);
  }
  optm::util::Xoshiro256 rng(seed);
  while (!running.empty()) {
    const std::size_t pick = rng.below(running.size());
    Producer& p = producers[running[pick]];
    const TxScript& tx = scripts[running[pick]][p.tx];
    if (!p.open) {
      stm.begin(*p.ctx);
      ++attempts;
      p.open = true;
      p.op = 0;
    } else if (p.op < tx.size()) {
      const Op& op = tx[p.op++];
      std::uint64_t v = 0;
      // A failed read or write has already aborted the attempt.
      p.open = op.write ? stm.write(*p.ctx, op.var, ++p.value)
                        : stm.read(*p.ctx, op.var, v);
    } else {
      p.open = false;
      if (stm.commit(*p.ctx)) {
        ++commits;
        if (++p.tx == scripts[running[pick]].size()) {
          running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
        }
      }
    }
  }
}

/// Record the seeded scripts straight into a log (no monitor), then read
/// it back once, which checks it and warms the page cache. Runs in a
/// child process, so the recording's memory stays out of the certifying
/// process: e2e carries the log's events/commits/attempts back.
[[nodiscard]] RoundResult make_log_round(const LiveSpec& spec,
                                         std::uint64_t seed,
                                         const std::string& dir) {
  RoundResult r;
  const auto scripts = make_scripts(spec, seed);
  auto stm = make_runtime(spec);
  auto recorder = std::make_unique<optm::stm::Recorder>(spec.vars);
  stm->set_recorder(recorder.get());
  optm::log::WriterOptions wopt;
  wopt.directory = dir;
  wopt.segment_bytes = kSegmentBytes;
  wopt.metadata = metadata_of(spec);
  optm::log::LogWriter writer(wopt);
  optm::log::LogWriterSink sink(writer);
  optm::stm::DrainPump pump(*recorder, sink);
  double commits = 0;
  double attempts = 0;
  record_interleaved(*stm, scripts, optm::util::stream_seed(seed, spec.producers),
                     commits, attempts);
  const std::atomic<bool> done{true};
  const optm::stm::DrainPump::Stats drained = pump.run(done);
  const std::uint64_t events = recorder->num_events();
  std::string error;
  const std::uint64_t reread = reread_events(dir, error);
  if (!drained.sink_ok || !writer.ok()) fail(r, "log writer: " + writer.error());
  if (!error.empty()) fail(r, "log reread: " + error);
  if (drained.events != events || writer.events_written() != events ||
      reread != events) {
    fail(r, "event counts disagree: recorded " + std::to_string(events) +
                ", logged " + std::to_string(writer.events_written()) +
                ", reread " + std::to_string(reread));
  }
  r.e2e["events"] = static_cast<double>(events);
  r.e2e["commits"] = commits;
  r.e2e["attempts"] = attempts;
  return r;
}

/// One timed pass: LogReader -> verify_event_stream, from reader open to
/// verdict. Runs in this process.
[[nodiscard]] RoundResult certify_pass(const LogFixture& fx,
                                       const optm::core::ObjectModel& model,
                                       const optm::core::StreamVerifyOptions& vo,
                                       Tracer* tracer) {
  RoundResult r;
  r.traced = tracer != nullptr;
  g_round_deadline_ns.store(now_ns() + kRoundDeadlineNs);
  const Tracer::Mark mark = tracer != nullptr ? tracer->mark() : Tracer::Mark{};
  constexpr std::uint32_t kSlot = 0;
  const std::int64_t t0 = now_ns();
  if (tracer != nullptr) (void)tracer->open(kSlot, 0);
  optm::log::LogReader reader;
  optm::core::StreamVerifyResult res;
  const bool opened = reader.open(fx.dir);
  if (opened) {
    const optm::core::EventPull pull = [&] {
      const ScopedSpan span(tracer, kSlot, "verify.pull");
      return reader.next();
    };
    const ScopedSpan engine(tracer, kSlot, "verify.engine");
    res = optm::core::verify_event_stream(model, pull, vo);
  }
  const std::int64_t t1 = now_ns();
  if (tracer != nullptr) tracer->close(kSlot, "certify_log", t0, t1);

  r.certified = res.certified;
  if (!opened || !reader.ok()) fail(r, "log reader: " + reader.error());
  if (!res.certified) {
    fail(r, "certify-log flagged: " +
                (res.violation ? res.violation->reason : std::string("?")));
  }
  if (res.events != fx.events || reader.events_read() != fx.events) {
    fail(r, "event counts disagree: logged " + std::to_string(fx.events) +
                ", read " + std::to_string(reader.events_read()) +
                ", verified " + std::to_string(res.events));
  }
  const double timed_s = seconds_between(t0, t1);
  r.e2e["timed_s"] = timed_s;
  r.e2e["events_per_s"] = static_cast<double>(fx.events) / timed_s;
  r.e2e["commits_per_s"] = static_cast<double>(fx.commits) / timed_s;
  Values& l = r.layers;
  l["verify.threads_used"] = static_cast<double>(res.threads_used);
  l["verify.shards_used"] = static_cast<double>(res.shards_used);
  if (tracer == nullptr) return r;

  const auto totals = totals_by_name(tracer->spans_since(mark));
  r.spans = span_values(totals);
  const auto span = [&](const char* name) -> SpanTotals {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const auto ev = static_cast<double>(fx.events);
  l["verify.engine_ns_per_event"] = span("verify.engine").self_ns / ev;
  l["log.pull_ns_per_event"] = span("verify.pull").total_ns / ev;
  l["log.segments"] = static_cast<double>(reader.num_segments());
  return r;
}

/// The passes of one log, as one round: rates are their medians, and
/// every transaction of the log is due when the reader opens it and is
/// answered by the pass's verdict, so the lag percentiles are those of the
/// pass times.
[[nodiscard]] RoundResult log_round(const std::vector<RoundResult>& passes,
                                    double setup_s) {
  RoundResult r;
  r.traced = passes.front().traced;
  std::vector<double> eps;
  std::vector<double> cps;
  std::vector<double> times_us;
  double timed_s = 0;
  for (const RoundResult& p : passes) {
    eps.push_back(value_or(p.e2e, "events_per_s"));
    cps.push_back(value_or(p.e2e, "commits_per_s"));
    times_us.push_back(value_or(p.e2e, "timed_s") * 1e6);
    timed_s += value_or(p.e2e, "timed_s");
  }
  r.e2e["timed_s"] = timed_s;
  r.e2e["events_per_s"] = median(eps);
  r.e2e["commits_per_s"] = median(cps);
  r.e2e["verdict_lag_p50_us"] = quantile(times_us, 0.5);
  r.e2e["verdict_lag_p99_us"] = quantile(times_us, 0.99);
  r.e2e["setup_s"] = setup_s;
  if (r.traced) {
    r.layers["verdict_lag_p50_us"] = r.e2e["verdict_lag_p50_us"];
    r.layers["verdict_lag_p99_us"] = r.e2e["verdict_lag_p99_us"];
  }
  r.e2e["peak_rss_mb"] = peak_rss_mb();
  for (const auto& [name, unit] : kLayerMetrics) {
    std::vector<double> v;
    for (const RoundResult& p : passes) {
      if (const auto it = p.layers.find(name); it != p.layers.end()) {
        v.push_back(it->second);
      }
    }
    if (!v.empty()) r.layers[name] = median(v);
  }
  return r;
}

// --- reporting ------------------------------------------------------------------

void record(Report& rep, const RoundResult& r) {
  ++rep.attempted;
  if (!r.ok) {
    ++rep.failed;
    rep.failures.push_back(r.failure);
  }
}

/// Medians over the measured rounds (set-up: over every round).
void add_end_to_end(Report& rep, const std::vector<RoundResult>& rounds,
                    const std::vector<double>& setups) {
  for (const auto& [name, unit] : kEndToEndMetrics) {
    std::vector<double> v;
    if (std::string(name) == "setup_s") {
      v = setups;
    } else {
      for (const RoundResult& r : rounds) {
        if (const auto it = r.e2e.find(name); it != r.e2e.end()) {
          v.push_back(it->second);
        }
      }
    }
    rep.metrics.push_back({name, median(v), unit});
  }
}

/// Medians over the traced rounds; the tracing overhead compares them with
/// the untraced rounds of the same run.
void add_per_layer(Report& rep, const std::vector<RoundResult>& rounds,
                   Values extra) {
  std::vector<double> traced_eps;
  std::vector<double> untraced_eps;
  for (const RoundResult& r : rounds) {
    (r.traced ? traced_eps : untraced_eps).push_back(value_or(r.e2e, "events_per_s"));
  }
  extra["trace.events_per_s"] = median(traced_eps);
  extra["trace.untraced_events_per_s"] = median(untraced_eps);
  if (!untraced_eps.empty() && median(untraced_eps) > 0) {
    extra["trace.overhead_share"] = 1.0 - median(traced_eps) / median(untraced_eps);
  }
  for (const auto& [name, unit] : kLayerMetrics) {
    double value = 0;
    if (const auto it = extra.find(name); it != extra.end()) {
      value = it->second;
    } else {
      std::vector<double> per_round;
      for (const RoundResult& r : rounds) {
        if (const auto v = r.layers.find(name); r.traced && v != r.layers.end()) {
          per_round.push_back(v->second);
        }
      }
      value = median(per_round);
    }
    rep.metrics.push_back({name, value, unit});
  }
}

/// Self time per span name over the traced run, on stderr.
void print_self_times(const Values& spans) {
  std::fprintf(stderr, "%-18s %10s %14s %14s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& [key, count] : spans) {
    const std::size_t slash = key.rfind('/');
    if (key.compare(slash, std::string::npos, "/count") != 0) continue;
    const std::string name = key.substr(0, slash);
    std::fprintf(stderr, "%-18s %10.0f %14.3f %14.3f\n", name.c_str(), count,
                 value_or(spans, name + "/total_ns") * 1e-6,
                 value_or(spans, name + "/self_ns") * 1e-6);
  }
}

void add_spans(Values& into, const Values& spans) {
  for (const auto& [k, v] : spans) into[k] += v;
}

[[nodiscard]] bool run_is_done(const std::vector<RoundResult>& measured,
                               std::int64_t start, double seconds) {
  double timed = 0;
  for (const RoundResult& r : measured) timed += value_or(r.e2e, "timed_s");
  return (timed >= seconds && measured.size() >= kMinRounds) ||
         seconds_between(start, now_ns()) > kWallBudgetS;
}

// --- workloads ------------------------------------------------------------------

/// Rounds of a live workload. With spec.fresh_process each round is a
/// child process: its peak RSS is its own, and no heap carries over (in
/// one process, the threads' arenas fragment and RSS creeps up with the
/// number of rounds — 97 to 126 MB from 60 to 340 live_saturated
/// rounds). Without it, rounds share this process and its heap is kept
/// (mallopt), so that the monitor's and the server's state growth faults
/// its pages in once, in the warm-up round, rather than in every round,
/// where those multi-millisecond first-touch stalls would set the
/// verdict-lag tail.
Report run_live(const Options& o, const LiveSpec& spec) {
  Report rep;
#ifdef __GLIBC__
  if (!spec.fresh_process) {
    mallopt(M_MMAP_MAX, 0);
    mallopt(M_TRIM_THRESHOLD, INT_MAX);
  }
#endif
  if (o.trace) std::ofstream(o.trace_out, std::ios::trunc);
  const std::int64_t start = now_ns();
  std::vector<RoundResult> measured;
  std::vector<double> setups;
  Values spans;
  for (std::size_t k = 0;; ++k) {
    // Round 0 warms up: it is checked but not measured. Traced runs
    // alternate traced and untraced rounds.
    const bool traced = o.trace && k % 2 == 1;
    const std::string dir = o.tmp_dir + "/round-" + std::to_string(k);
    const auto round = [&] {
      RoundResult r = run_live_round(spec, optm::util::stream_seed(o.seed, k),
                                     traced, dir, o.trace_out);
      r.e2e["peak_rss_mb"] = peak_rss_mb();
      return r;
    };
    const std::int64_t deadline = now_ns() + kRoundDeadlineNs;
    g_round_deadline_ns.store(deadline);
    RoundResult r = spec.fresh_process ? in_child(round, deadline) : round();
    std::error_code ec;
    fs::remove_all(dir, ec);
    record(rep, r);
    if (r.e2e.count("setup_s") != 0) setups.push_back(r.e2e["setup_s"]);
    add_spans(spans, r.spans);
    std::fprintf(stderr,
                 "round %zu%s: %.0f events/s, lag p50 %.0f us p99 %.0f us, "
                 "setup %.3f s%s%s\n",
                 k, traced ? " (traced)" : "", value_or(r.e2e, "events_per_s"),
                 value_or(r.e2e, "verdict_lag_p50_us"),
                 value_or(r.e2e, "verdict_lag_p99_us"), value_or(r.e2e, "setup_s"),
                 r.ok ? "" : ", FAILED: ", r.failure.c_str());
    if (!r.ok && r.e2e.count("timed_s") == 0) break;  // nothing to measure
    if (k == 0) continue;
    measured.push_back(std::move(r));
    if (run_is_done(measured, start, o.seconds)) break;
  }
  if (!o.trace) {
    add_end_to_end(rep, measured, setups);
  } else {
    g_round_deadline_ns.store(now_ns() + kRoundDeadlineNs);
    const RoundResult bare =
        bare_round(spec, optm::util::stream_seed(o.seed, 0), o.trace_out);
    if (!bare.ok) {
      ++rep.failed;
      rep.failures.push_back("bare pass: " + bare.failure);
    }
    add_spans(spans, bare.spans);
    add_per_layer(rep, measured,
                  {{"stm.bare_tx_ns_p50", value_or(bare.layers, "stm.bare_tx_ns_p50")}});
    print_self_times(spans);
  }
  rep.provenance.push_back({"runtime", spec.stm});
  rep.provenance.push_back({"policy", optm::core::to_string(spec.policy)});
  rep.provenance.push_back({"window_mode", spec.window_free ? "window-free" : "windowed"});
  rep.provenance.push_back({"producers", std::to_string(spec.producers)});
  rep.provenance.push_back({"vars", std::to_string(spec.vars)});
  rep.provenance.push_back({"txs_per_round", std::to_string(spec.txs_per_producer * spec.producers)});
  rep.provenance.push_back({"rounds", std::to_string(measured.size())});
  rep.provenance.push_back({"verify.threads_used", "1"});
  if (spec.period_ns > 0) {
    rep.provenance.push_back(
        {"offered_tx_per_s",
         std::to_string(1e9 / static_cast<double>(spec.period_ns) * spec.producers)});
  }
  return rep;
}

Report run_certify_log(const Options& o) {
  Report rep;
  LiveSpec spec;
  spec.workload = "certify_log";
  spec.producers = std::min(3u, std::max(1u, o.nproc - 1));
  // ~10 events per committed transaction (4 operations + tryC + C).
  spec.txs_per_producer = kLogEvents / (10 * spec.producers);
  const optm::core::ObjectModel model =
      optm::core::ObjectModel::registers(spec.vars, 0);
  optm::core::StreamVerifyOptions vo;
  vo.policy = spec.policy;
  // The pool runs shards + 1 workers beside the reading thread: this keeps
  // the busy threads at nproc.
  vo.num_threads = o.nproc;
  vo.num_shards = o.nproc > 2 ? o.nproc - 2 : 1;
  vo.window_events = kLogWindowEvents;

  if (o.trace) std::ofstream(o.trace_out, std::ios::trunc);
  Tracer tracer(1);
  const std::int64_t start = now_ns();
  std::vector<RoundResult> measured;
  std::vector<double> setups;
  Values spans;
  std::size_t threads_used = 0;
  for (std::size_t k = 0;; ++k) {
    const std::int64_t setup0 = now_ns();
    LogFixture fx;
    fx.dir = o.tmp_dir + "/log-" + std::to_string(k);
    const RoundResult made = in_child(
        [&] { return make_log_round(spec, optm::util::stream_seed(o.seed, k), fx.dir); },
        now_ns() + kRoundDeadlineNs);
    const double setup_s = seconds_between(setup0, now_ns());
    if (!made.ok) {
      record(rep, made);
      std::error_code ec;
      fs::remove_all(fx.dir, ec);
      break;
    }
    setups.push_back(setup_s);
    fx.events = static_cast<std::uint64_t>(value_or(made.e2e, "events"));
    fx.commits = static_cast<std::uint64_t>(value_or(made.e2e, "commits"));
    fx.attempts = static_cast<std::uint64_t>(value_or(made.e2e, "attempts"));
    vo.reserve_txs = fx.attempts + 64;
    vo.reserve_versions = fx.attempts * kOpsPerTx / 2 + spec.vars + 64;

    std::vector<RoundResult> traced;
    std::vector<RoundResult> untraced;
    for (std::size_t i = 0; i < kPassesPerLog; ++i) {
      // The first pass of the run warms up; traced runs alternate traced
      // and untraced passes.
      const bool trace_pass = o.trace && i % 2 == 1;
      RoundResult p = certify_pass(fx, model, vo, trace_pass ? &tracer : nullptr);
      record(rep, p);
      add_spans(spans, p.spans);
      std::fprintf(stderr, "log %zu pass %zu%s: %.0f events/s of %llu%s%s\n", k, i,
                   trace_pass ? " (traced)" : "", value_or(p.e2e, "events_per_s"),
                   static_cast<unsigned long long>(fx.events),
                   p.ok ? "" : ", FAILED: ", p.failure.c_str());
      threads_used = static_cast<std::size_t>(value_or(p.layers, "verify.threads_used"));
      if (k == 0 && i == 0) continue;
      (trace_pass ? traced : untraced).push_back(std::move(p));
    }
    std::error_code ec;
    fs::remove_all(fx.dir, ec);
    if (!untraced.empty()) measured.push_back(log_round(untraced, setup_s));
    if (!traced.empty()) measured.push_back(log_round(traced, setup_s));
    if (run_is_done(measured, start, o.seconds)) break;
  }
  g_round_deadline_ns.store(0);
  if (!o.trace) {
    add_end_to_end(rep, measured, setups);
  } else {
    add_per_layer(rep, measured, {});
    print_self_times(spans);
    append_trace(tracer.all(), o.trace_out);
  }
  rep.provenance.push_back({"runtime", spec.stm});
  rep.provenance.push_back({"policy", optm::core::to_string(spec.policy)});
  rep.provenance.push_back({"window_mode", "window-free"});
  rep.provenance.push_back({"log_events", std::to_string(kLogEvents)});
  rep.provenance.push_back({"logs", std::to_string(setups.size())});
  rep.provenance.push_back({"verify.num_threads", std::to_string(vo.num_threads)});
  rep.provenance.push_back({"verify.num_shards", std::to_string(vo.num_shards)});
  rep.provenance.push_back({"verify.threads_used", std::to_string(threads_used)});
  return rep;
}

/// live_saturated: closed loop, window-free stamped-read tl2 over 4096
/// registers, monitor only.
[[nodiscard]] LiveSpec live_saturated(unsigned nproc) {
  LiveSpec spec;
  spec.workload = "live_saturated";
  spec.producers = std::min(3u, std::max(1u, nproc - 1));
  // Short rounds (~40 ms, ~240k events): a run holds hundreds, so the
  // quantile over rounds has many independent samples of the host's
  // memory contention to choose from.
  spec.txs_per_producer = 24'000 / spec.producers;
  spec.lag_every = 8;
  return spec;
}

/// durable_paced: open loop, windowed commit-order tl2 over 64 registers,
/// monitor + log + socket.
[[nodiscard]] LiveSpec durable_paced(unsigned nproc) {
  LiveSpec spec;
  spec.workload = "durable_paced";
  spec.window_free = false;
  spec.policy = VersionOrderPolicy::kCommitOrder;
  spec.vars = 64;
  spec.producers = std::min(2u, std::max(1u, nproc > 2 ? nproc - 2 : 1));
  spec.period_ns = kPacedPeriodNs;
  spec.txs_per_producer = static_cast<std::size_t>(kPacedRoundNs / kPacedPeriodNs);
  spec.durable = true;
  spec.lag_every = 1;
  spec.fresh_process = false;
  return spec;
}

}  // namespace

Report run_workload(const Options& options) {
  if (options.workload == "live_saturated") {
    return run_live(options, live_saturated(options.nproc));
  }
  if (options.workload == "durable_paced") {
    return run_live(options, durable_paced(options.nproc));
  }
  if (options.workload == "certify_log") return run_certify_log(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

bool run_negative_control(const Options& options, std::string& detail) {
  LiveSpec spec = live_saturated(options.nproc);
  spec.workload = "negative_control";
  spec.stm = "weak";
  spec.window_free = false;
  spec.policy = VersionOrderPolicy::kCommitOrder;
  spec.vars = 64;
  spec.txs_per_producer = 20'000;
  for (std::size_t k = 0; k < 10; ++k) {
    g_round_deadline_ns.store(now_ns() + kRoundDeadlineNs);
    const RoundResult r = run_live_round(
        spec, optm::util::stream_seed(options.seed, k), false, "", "");
    if (r.failure.rfind("monitor flagged", 0) == 0) {
      detail = r.failure + " (round " + std::to_string(k) + ")";
      return true;
    }
  }
  detail = "the weak runtime was certified in 10 rounds";
  return false;
}

}  // namespace perfbench
