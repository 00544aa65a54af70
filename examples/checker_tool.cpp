// The opacity checker as a subcommand tool.
//
//   checker_tool certify                     # judge all paper histories
//   checker_tool certify --history=h1        # Figure 1 only
//   checker_tool certify --record=weak       # record + judge a live run
//   checker_tool certify --dot=h5            # OPG in Graphviz form
//   checker_tool certify-log <dir>           # certify a segment log from disk
//   checker_tool inspect-log <dir>           # header + per-segment stats
//   checker_tool serve --port=0              # networked certification service
//   checker_tool certify-remote <dir> --connect=host:port  # replay to a server
//
// `certify` evaluates every correctness criterion of §3 and §5 on the
// paper's worked histories (or on a freshly recorded STM execution),
// printing the comparison matrix the paper develops in prose.
//
// `certify-log` streams a durable segmented binary log (written by
// recorded_soak --log-dir, format: src/log/format.hpp) through
// core::verify_event_stream: every block the reader returns goes straight
// into one OnlineCertificateMonitor, so the verdict and flag position are
// the in-RAM monitor's. No events are buffered; the monitor keeps full
// state only for live transactions, but a record for every version it
// has seen, so peak memory still grows with the log: one 32-byte archive
// entry per version, plus 8-byte index slots at most half full, plus a
// 1.5× index-only transient while the index doubles. certlog.versions and
// certlog.version_bytes report that table at the end of the run, and
// certlog.table_probes the calls into its index (one per write response
// and per read of a non-current value). The policy field of the segment
// headers must hold one of the four historical names (commit-order,
// blind-write-smart, snapshot-rank, stamped-read); every one means the
// monitor's one stamp order, which certlog.policy names. A flagged
// verdict also prints the
// flag's position, kind and reason (certlog.flag_pos / flag_kind /
// flag_reason; certify-remote prints the same as certremote.*).
// certlog.elapsed_s and certlog.events_per_s time the run by the wall
// clock, from opening the log to the verdict.
//
// Bare legacy invocations (checker_tool --history=h2) still work: no
// subcommand means `certify`.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <poll.h>
#include <string>

#include "core/criteria.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "core/opacity.hpp"
#include "core/opacity_graph.hpp"
#include "core/paper.hpp"
#include "core/phenomena.hpp"
#include "core/stream_verify.hpp"
#include "log/reader.hpp"
#include "sim/thread_ctx.hpp"
#include "stm/factory.hpp"
#include "stm/recorder.hpp"
#include "util/cli.hpp"
#include "workload/workloads.hpp"

namespace {

using optm::core::History;

History paper_history(const std::string& name) {
  namespace paper = optm::core::paper;
  if (name == "h1" || name == "fig1") return paper::fig1_h1();
  if (name == "h2") return paper::h2();
  if (name == "h3") return paper::h3();
  if (name == "h4") return paper::h4();
  if (name == "h5" || name == "fig2") return paper::fig2_h5();
  if (name == "zombie") return paper::section2_zombie();
  if (name == "counter") return paper::counter_increments(3);
  if (name == "blind") return paper::blind_overlapping_writes(3);
  throw std::invalid_argument("unknown history: " + name);
}

void judge(const std::string& label, const History& h) {
  std::printf("=== %s ===\n", label.c_str());
  std::fputs(h.timeline().c_str(), stdout);
  std::fputs("\n", stdout);

  const auto report = optm::core::evaluate_criteria(h);
  std::fputs(report.table().c_str(), stdout);

  if (const auto snapshot = optm::core::find_inconsistent_snapshot(h)) {
    std::printf("  phenomenon: %s\n", snapshot->explanation.c_str());
  }
  if (const auto result = optm::core::check_opacity(h); result.witness) {
    std::fputs("  witness serialization: ", stdout);
    for (std::size_t i = 0; i < result.witness->order.size(); ++i) {
      std::printf("T%u%s ", result.witness->order[i],
                  result.witness->roles[i] == optm::core::Role::kCommitted
                      ? "(C)"
                      : "(A)");
    }
    std::fputs("\n", stdout);
  }
  std::fputs("\n", stdout);
}

int cmd_certify(int argc, char** argv) {
  optm::util::Cli cli("checker_tool certify",
                      "judge histories against every §3/§5 criterion");
  cli.flag("history", "all",
           "h1|h2|h3|h4|h5|zombie|counter|blind|all (paper histories)");
  cli.flag("record", "",
           "instead: record a run of this STM (tl2|dstm|...|weak) and judge it");
  cli.flag("dot", "", "print the opacity graph of this history as Graphviz");
  if (!cli.parse(argc, argv)) return 1;

  if (!cli.get("dot").empty()) {
    const History h = paper_history(cli.get("dot"));
    // Natural order and the full commit-pending set as V.
    std::vector<optm::core::TxId> order;
    std::vector<optm::core::TxId> v;
    for (const auto tx : h.transactions()) {
      order.push_back(tx);
      if (h.is_commit_pending(tx)) v.push_back(tx);
    }
    std::fputs(optm::core::build_opg(h, order, v).dot().c_str(), stdout);
    return 0;
  }

  if (!cli.get("record").empty()) {
    const auto stm = optm::stm::make_stm(cli.get("record"), 4);
    optm::stm::Recorder recorder(4);
    stm->set_recorder(&recorder);
    optm::wl::MixParams params;
    params.threads = 2;
    params.vars = 4;
    params.txs_per_thread = 6;
    params.ops_per_tx = 3;
    (void)optm::wl::run_random_mix(*stm, params);
    judge("recorded " + cli.get("record") + " run", recorder.history());
    return 0;
  }

  const std::string which = cli.get("history");
  if (which != "all") {
    judge(which, paper_history(which));
    return 0;
  }
  judge("Figure 1 / H1 — global atomicity + recoverability, NOT opaque",
        paper_history("h1"));
  judge("H4 — commit-pending duality (§5.2), opaque", paper_history("h4"));
  judge("Figure 2 / H5 — the paper's worked opaque history",
        paper_history("h5"));
  judge("§2 zombie — y=x² invariant torn", paper_history("zombie"));
  judge("§3.4 counter — concurrent commutative increments",
        paper_history("counter"));
  judge("§3.6 blind writes — opaque but not rigorous", paper_history("blind"));
  return 0;
}

int cmd_certify_log(int argc, char** argv) {
  optm::util::Cli cli("checker_tool certify-log",
                      "stream a segmented binary event log from disk through "
                      "the certificate monitor");
  cli.positional("dir", "log directory written by recorded_soak --log-dir");
  if (!cli.parse(argc, argv)) return 1;

  // Wall clock from reader open to verdict: the certify-from-disk rate.
  const auto start = std::chrono::steady_clock::now();
  optm::log::LogReader reader;
  if (!reader.open(cli.get("dir"))) {
    std::fprintf(stderr, "certify-log: %s\n", reader.error().c_str());
    return 2;
  }
  const optm::log::LogMetadata& meta = reader.metadata();
  if (!optm::core::is_version_order_name(meta.policy)) {
    std::fprintf(stderr, "certify-log: unknown policy '%s' in the log\n",
                 meta.policy.c_str());
    return 2;
  }
  if (meta.num_vars == 0) {
    std::fprintf(stderr, "certify-log: log metadata has num_vars == 0\n");
    return 2;
  }

  std::printf("certlog.dir=%s\n", cli.get("dir").c_str());
  std::printf("certlog.stm=%s\n", meta.runtime.c_str());
  std::printf("certlog.window_mode=%s\n", meta.window_mode.c_str());
  std::printf("certlog.policy=%s\n", optm::core::kVersionOrderName);
  std::printf("certlog.segments=%zu\n", reader.num_segments());

  const auto model =
      optm::core::ObjectModel::registers(meta.num_vars, 0);
  const auto result = optm::core::verify_event_stream(
      model, [&reader] { return reader.next(); });
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (!reader.ok()) {
    std::fprintf(stderr, "certify-log: %s\n", reader.error().c_str());
    return 2;
  }
  if (reader.tail_dropped()) {
    std::printf("certlog.torn_tail_bytes_dropped=%llu\n",
                static_cast<unsigned long long>(reader.dropped_bytes()));
  }
  std::printf("certlog.events=%zu\n", result.events);
  std::printf("certlog.versions=%zu\n", result.resident.versions);
  std::printf("certlog.version_bytes=%zu\n", result.resident.version_bytes);
  std::printf("certlog.table_probes=%zu\n", result.resident.table_probes);
  std::printf("certlog.elapsed_s=%.3f\n", elapsed_s);
  std::printf("certlog.events_per_s=%.0f\n",
              elapsed_s > 0 ? static_cast<double>(result.events) / elapsed_s
                            : 0.0);
  std::printf("certlog.verdict=%s\n",
              result.certified ? "certified" : "FLAGGED");
  if (!result.certified) {
    std::printf("certlog.flag_pos=%zu\n", result.violation->pos);
    std::printf("certlog.flag_kind=%s\n", to_string(result.violation->kind));
    std::printf("certlog.flag_reason=%s\n", result.violation->reason.c_str());
    return 1;
  }
  return 0;
}

int cmd_inspect_log(int argc, char** argv) {
  optm::util::Cli cli("checker_tool inspect-log",
                      "print a segment log's metadata and per-segment stats");
  cli.positional("dir", "log directory written by recorded_soak --log-dir");
  if (!cli.parse(argc, argv)) return 1;

  optm::log::LogReader reader;
  if (!reader.open(cli.get("dir"))) {
    std::fprintf(stderr, "inspect-log: %s\n", reader.error().c_str());
    return 2;
  }
  // Walk the whole log so every segment's block/event counts are exact
  // (and every CRC actually checked).
  while (!reader.next().empty()) {
  }
  if (!reader.ok()) {
    std::fprintf(stderr, "inspect-log: %s\n", reader.error().c_str());
    return 2;
  }
  const optm::log::LogMetadata& meta = reader.metadata();
  std::printf("log.dir=%s\n", cli.get("dir").c_str());
  std::printf("log.stm=%s\n", meta.runtime.c_str());
  std::printf("log.policy=%s\n", meta.policy.c_str());
  std::printf("log.window_mode=%s\n", meta.window_mode.c_str());
  std::printf("log.vars=%u\n", meta.num_vars);
  std::printf("log.threads=%u\n", meta.threads);
  std::printf("log.segments=%zu\n", reader.num_segments());
  std::printf("log.events=%llu\n",
              static_cast<unsigned long long>(reader.events_read()));
  if (reader.tail_dropped()) {
    std::printf("log.torn_tail_bytes_dropped=%llu\n",
                static_cast<unsigned long long>(reader.dropped_bytes()));
  }
  for (const auto& seg : reader.segments()) {
    std::printf(
        "log.segment index=%llu first_stamp=%llu events=%llu blocks=%llu "
        "bytes=%llu%s\n",
        static_cast<unsigned long long>(seg.index),
        static_cast<unsigned long long>(seg.first_stamp),
        static_cast<unsigned long long>(seg.events),
        static_cast<unsigned long long>(seg.blocks),
        static_cast<unsigned long long>(seg.file_bytes),
        seg.dropped_bytes != 0 ? " TORN-TAIL" : "");
  }
  return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;

void on_signal(int) { g_stop_requested = 1; }

int cmd_serve(int argc, char** argv) {
  optm::util::Cli cli("checker_tool serve",
                      "run the networked certification service: one "
                      "connection-private monitor per client stream");
  cli.flag("bind", "127.0.0.1", "IPv4 address to listen on");
  cli.flag("port", std::int64_t{0},
           "TCP port (0 = ephemeral; the bound port is printed)");
  cli.flag("credit-events", std::int64_t{1} << 16,
           "per-stream in-flight credit window, in events");
  cli.flag("max-connections", std::int64_t{256},
           "concurrent tenant connections accepted");
  if (!cli.parse(argc, argv)) return 1;
  const std::int64_t port = cli.get_int("port");
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "serve: --port must be in [0, 65535]\n%s",
                 cli.usage().c_str());
    return 1;
  }
  if (cli.get_int("credit-events") < 0) {
    std::fprintf(stderr, "serve: --credit-events must not be negative\n%s",
                 cli.usage().c_str());
    return 1;
  }

  optm::net::ServerOptions options;
  options.bind_address = cli.get("bind");
  options.port = static_cast<std::uint16_t>(port);
  options.credit_events = static_cast<std::uint64_t>(cli.get_int("credit-events"));
  options.max_connections = static_cast<std::size_t>(cli.get_int("max-connections"));

  optm::net::CertServer server(options);
  if (!server.start()) {
    std::fprintf(stderr, "serve: %s\n", server.error().c_str());
    return 2;
  }
  std::printf("serve.bind=%s\n", options.bind_address.c_str());
  std::printf("serve.port=%u\n", server.port());
  std::fflush(stdout);  // scripts scrape serve.port before connecting

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_stop_requested == 0) {
    ::poll(nullptr, 0, 200);  // EINTR on signal; the flag does the rest
  }
  server.stop();
  const auto stats = server.stats();
  std::printf("serve.connections=%llu\n",
              static_cast<unsigned long long>(stats.connections_accepted));
  std::printf("serve.streams_completed=%llu\n",
              static_cast<unsigned long long>(stats.streams_completed));
  std::printf("serve.streams_flagged=%llu\n",
              static_cast<unsigned long long>(stats.streams_flagged));
  std::printf("serve.streams_failed=%llu\n",
              static_cast<unsigned long long>(stats.streams_failed));
  std::printf("serve.events=%llu\n",
              static_cast<unsigned long long>(stats.events_ingested));
  return 0;
}

int cmd_certify_remote(int argc, char** argv) {
  optm::util::Cli cli("checker_tool certify-remote",
                      "replay an on-disk segment log against a running "
                      "certification service (checker_tool serve)");
  cli.positional("dir", "log directory written by recorded_soak --log-dir");
  cli.flag("connect", "127.0.0.1:7444", "host:port of the service");
  cli.flag("net-timeout-ms", std::int64_t{30'000},
           "connect/send/recv deadline (0 = no deadline); an expired "
           "deadline is an operational error (exit 2), not a hang");
  if (!cli.parse(argc, argv)) return 1;

  std::string host;
  std::uint16_t port = 0;
  if (!optm::net::parse_host_port(cli.get("connect"), host, port)) {
    std::fprintf(stderr, "certify-remote: bad --connect '%s' (want host:port)\n",
                 cli.get("connect").c_str());
    return 2;
  }
  optm::log::LogReader reader;
  if (!reader.open(cli.get("dir"))) {
    std::fprintf(stderr, "certify-remote: %s\n", reader.error().c_str());
    return 2;
  }
  // The hello forwards the log's policy name; the server accepts the
  // historical names and refuses any other.
  const optm::log::LogMetadata& meta = reader.metadata();

  optm::net::ClientOptions client_options;
  client_options.timeout_ms = static_cast<int>(cli.get_int("net-timeout-ms"));
  optm::net::CertClient client(client_options);
  if (!client.connect(host, port, optm::net::make_hello(meta))) {
    std::fprintf(stderr, "certify-remote: %s\n", client.error().c_str());
    return 2;
  }
  std::printf("certremote.dir=%s\n", cli.get("dir").c_str());
  std::printf("certremote.connect=%s:%u\n", host.c_str(), port);
  std::printf("certremote.policy=%s\n", optm::core::kVersionOrderName);
  std::printf("certremote.window=%llu\n",
              static_cast<unsigned long long>(client.window()));

  for (;;) {
    const auto batch = reader.next();
    if (batch.empty()) break;
    if (!client.send_events(batch)) {
      std::fprintf(stderr, "certify-remote: %s\n", client.error().c_str());
      return 2;
    }
  }
  if (!reader.ok()) {
    std::fprintf(stderr, "certify-remote: %s\n", reader.error().c_str());
    return 2;
  }
  if (!client.finish()) {
    std::fprintf(stderr, "certify-remote: %s\n", client.error().c_str());
    return 2;
  }
  const auto& verdict = client.verdict();
  std::printf("certremote.events=%llu\n",
              static_cast<unsigned long long>(verdict.events));
  std::printf("certremote.verdict=%s\n",
              verdict.certified ? "certified" : "FLAGGED");
  if (!verdict.certified) {
    std::printf("certremote.flag_pos=%zu\n", verdict.violation->pos);
    std::printf("certremote.flag_kind=%s\n", to_string(verdict.violation->kind));
    std::printf("certremote.flag_reason=%s\n",
                verdict.violation->reason.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* sub = argc > 1 ? argv[1] : "";
  // Subcommands consume argv[1]; bare flags fall through to `certify`
  // so pre-redesign invocations keep working.
  if (std::strcmp(sub, "certify") == 0) return cmd_certify(argc - 1, argv + 1);
  if (std::strcmp(sub, "certify-log") == 0) {
    return cmd_certify_log(argc - 1, argv + 1);
  }
  if (std::strcmp(sub, "inspect-log") == 0) {
    return cmd_inspect_log(argc - 1, argv + 1);
  }
  if (std::strcmp(sub, "serve") == 0) return cmd_serve(argc - 1, argv + 1);
  if (std::strcmp(sub, "certify-remote") == 0) {
    return cmd_certify_remote(argc - 1, argv + 1);
  }
  if (sub[0] != '\0' && sub[0] != '-') {
    std::fprintf(stderr,
                 "unknown subcommand '%s'\n"
                 "usage: checker_tool <certify|certify-log|inspect-log|serve|"
                 "certify-remote> [flags]\n",
                 sub);
    return 1;
  }
  return cmd_certify(argc, argv);
}
