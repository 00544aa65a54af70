// Recorded-mode soak: the full pipeline — multi-threaded mix recording
// into the sharded recorder, and a verifier thread draining
// stamp-contiguous batches into the streaming certificate monitor (and
// optionally a durable segment log and a remote certification service) —
// at soak scale (>= 1M events), reporting the pipeline's events/sec. A
// log written here is re-certified with `checker_tool certify-log`. CI
// runs this nightly and uploads the numbers next to the bench-smoke
// timing artifacts, so recorded-mode throughput regressions show up in
// the artifact history.
//
// A thin CLI wrapper: the pipeline itself is stm::SoakDriver
// (src/stm/soak_driver.hpp); this file only parses flags, wires in the
// optional log::LogWriterSink, and prints/serializes the results.
//
//   build/recorded_soak --stm=tl2 --events=1200000 --threads=4
//   build/recorded_soak --window-free=1 --log-dir=/tmp/soaklog
//       --segment-bytes=8388608
#include <cstdio>
#include <memory>

#include "log/log_sink.hpp"
#include "log/writer.hpp"
#include "net/socket_sink.hpp"
#include "stm/cli_flags.hpp"
#include "stm/soak_driver.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  optm::util::Cli cli("recorded_soak",
                      "recorded-mode soak: sharded recorder -> live monitor "
                      "(+ optional segment log and remote service)");
  optm::stm::add_run_flags(cli);
  cli.flag("events", std::int64_t{1'200'000}, "target number of recorded events (>= 1M soak)");
  cli.flag("threads", std::int64_t{4}, "recording threads");
  cli.flag("vars", std::int64_t{64}, "shared registers");
  cli.flag("ops-per-tx", std::int64_t{4}, "operations per transaction");
  cli.flag("log-dir", "",
           "also append every drained batch to a segmented binary log in "
           "this directory (re-certify with: checker_tool certify-log)");
  cli.flag("segment-bytes", std::int64_t{67'108'864}, "log segment capacity (with --log-dir)");
  cli.flag("connect", "",
           "also stream every drained batch to a networked certification "
           "service at host:port (checker_tool serve)");
  cli.flag("net-timeout-ms", std::int64_t{30'000},
           "connect/send/recv deadline for --connect (0 = no deadline)");
  cli.flag("json", "",
           "also write the soak metrics as a machine-readable JSON object "
           "to this file (the perf-trajectory artifact schema)");
  if (!cli.parse(argc, argv)) return 1;

  optm::stm::SoakOptions options;
  options.run = optm::stm::parse_run_flags(cli);
  options.target_events = static_cast<std::size_t>(cli.get_int("events"));
  options.threads = static_cast<std::uint32_t>(cli.get_int("threads"));
  options.vars = static_cast<std::uint32_t>(cli.get_int("vars"));
  options.ops_per_tx = static_cast<std::uint32_t>(cli.get_int("ops-per-tx"));

  optm::log::LogMetadata meta;
  meta.runtime = options.run.stm;
  meta.window_mode = options.run.window_mode();
  meta.num_vars = options.vars;
  meta.threads = options.threads;

  std::unique_ptr<optm::log::LogWriter> log_writer;
  std::unique_ptr<optm::log::LogWriterSink> log_sink;
  if (!cli.get("log-dir").empty()) {
    optm::log::WriterOptions wopt;
    wopt.directory = cli.get("log-dir");
    wopt.segment_bytes = static_cast<std::size_t>(cli.get_int("segment-bytes"));
    wopt.metadata = meta;
    log_writer = std::make_unique<optm::log::LogWriter>(wopt);
    log_sink = std::make_unique<optm::log::LogWriterSink>(*log_writer);
    options.extra_sink = log_sink.get();
  }

  // --connect: a remote certification service rides the same drain as the
  // log sink; with both set they tee (every batch goes to both legs).
  optm::net::ClientOptions remote_options;
  remote_options.timeout_ms = static_cast<int>(cli.get_int("net-timeout-ms"));
  optm::net::CertClient remote(remote_options);
  std::unique_ptr<optm::stm::SocketSink> socket_sink;
  optm::stm::TeeSink extra_tee;
  if (!cli.get("connect").empty()) {
    std::string host;
    std::uint16_t port = 0;
    if (!optm::net::parse_host_port(cli.get("connect"), host, port)) {
      std::fprintf(stderr, "bad --connect '%s' (want host:port)\n",
                   cli.get("connect").c_str());
      return 1;
    }
    // Reserve hints: the target event count bounds both distinct
    // transactions and written versions.
    const auto hint = static_cast<std::uint64_t>(options.target_events);
    if (!remote.connect(host, port, optm::net::make_hello(meta, hint, hint))) {
      std::fprintf(stderr, "cannot reach certification service: %s\n",
                   remote.error().c_str());
      return 1;
    }
    socket_sink = std::make_unique<optm::stm::SocketSink>(remote);
    if (options.extra_sink != nullptr) {
      extra_tee.add(options.extra_sink).add(socket_sink.get());
      options.extra_sink = &extra_tee;
    } else {
      options.extra_sink = socket_sink.get();
    }
  }

  optm::stm::SoakResult result;
  try {
    result = optm::stm::SoakDriver(options).run();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  std::printf("soak.stm=%s\n", result.stm.c_str());
  // Self-describing artifacts: which window mode this run used, so
  // soak_*.txt files are comparable across CI runs. soak.policy keeps the
  // artifact schema's key; it always names the one version order.
  std::printf("soak.window_mode=%s\n", result.window_mode.c_str());
  std::printf("soak.policy=%s\n", optm::core::kVersionOrderName);
  std::printf("soak.recorded_events=%zu\n", result.recorded_events);
  std::printf("soak.live_pipeline_events_per_sec=%.0f\n",
              result.live_events_per_sec);
  std::printf("soak.live_batches=%zu\n", result.live_batches);
  // The drain bound: every batch the pump handed the sinks is at most
  // max_pending events.
  std::printf("soak.max_batch=%zu\n", result.live_max_batch);
  std::printf("soak.max_batch_bound=%zu\n", result.live_max_batch_bound);
  std::printf("soak.live_monitor=%s\n", result.live_ok ? "clean" : "VIOLATION");
  if (!result.live_ok) {
    std::printf("soak.live_monitor_reason=%s\n",
                result.live_violation->reason.c_str());
    return 1;
  }
  if (result.live_max_batch > result.live_max_batch_bound) {
    std::printf("soak.error=a batch of %zu events exceeded the drain bound\n",
                result.live_max_batch);
    return 1;
  }
  if (log_writer != nullptr) {
    std::printf("soak.log_segments=%llu\n",
                static_cast<unsigned long long>(log_writer->segments_written()));
    std::printf("soak.log_blocks=%llu\n",
                static_cast<unsigned long long>(log_writer->blocks_written()));
    std::printf("soak.log_bytes=%llu\n",
                static_cast<unsigned long long>(log_writer->bytes_written()));
    if (!result.sink_ok) {
      std::printf("soak.log_error=%s\n", log_writer->error().c_str());
      return 1;
    }
  }
  if (socket_sink != nullptr) {
    std::printf("soak.remote_events_sent=%llu\n",
                static_cast<unsigned long long>(remote.events_sent()));
    if (!remote.error().empty()) {
      std::printf("soak.remote_error=%s\n", remote.error().c_str());
      return 1;
    }
    const auto& verdict = remote.verdict();
    std::printf("soak.remote_verdict=%s\n",
                verdict.certified ? "certified" : "FLAGGED");
    if (!verdict.certified) {
      std::printf("soak.remote_flag_pos=%zu\n", verdict.violation->pos);
      std::printf("soak.remote_flag_reason=%s\n",
                  verdict.violation->reason.c_str());
      return 1;
    }
  }
  if (result.recorded_events < options.target_events) {
    std::printf("soak.warning=recorded fewer events than the %zu target\n",
                options.target_events);
  }

  // Machine-readable artifact (the perf trajectory schema consumed by
  // tools/soak_trend.py and archived next to BENCH_5.json).
  if (!cli.get("json").empty()) {
    std::FILE* f = std::fopen(cli.get("json").c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write --json=%s\n", cli.get("json").c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"schema\": \"optm-soak-v1\",\n"
        "  \"tool\": \"recorded_soak\",\n"
        "  \"stm\": \"%s\",\n"
        "  \"policy\": \"%s\",\n"
        "  \"window_mode\": \"%s\",\n"
        "  \"threads\": %u,\n"
        "  \"recorded_events\": %zu,\n"
        "  \"live_pipeline_events_per_sec\": %.0f,\n"
        "  \"live_batches\": %zu,\n"
        "  \"max_batch\": %zu,\n"
        "  \"max_batch_bound\": %zu",
        result.stm.c_str(), optm::core::kVersionOrderName,
        result.window_mode.c_str(), options.threads,
        result.recorded_events,
        result.live_events_per_sec, result.live_batches,
        result.live_max_batch, result.live_max_batch_bound);
    std::fprintf(f, "\n}\n");
    std::fclose(f);
  }
  return 0;
}
