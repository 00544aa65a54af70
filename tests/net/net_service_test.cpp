// The networked certification service, end to end over loopback:
// verdict/flag-position equivalence with the local engines, multi-tenant
// isolation, handshake rejection, credit backpressure, and the hard
// robustness property — nothing a client sends (malformed frames, bad
// CRCs, truncation, mid-stream disconnects) takes the server down or
// poisons another tenant's verdict.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/event.hpp"
#include "core/online.hpp"
#include "log/format.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket_sink.hpp"
#include "stm/factory.hpp"
#include "stm/recorder.hpp"
#include "stm/sink.hpp"
#include "util/hash.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace optm;

// ---------------------------------------------------------------------------
// Stream builders
// ---------------------------------------------------------------------------

void append_writer(std::vector<core::Event>& h, core::TxId tx, core::ObjId var,
                   core::Value value) {
  h.push_back(core::ev::inv(tx, var, core::OpCode::kWrite, value));
  h.push_back(core::ev::ret(tx, var, core::OpCode::kWrite, value, core::kOk));
  h.push_back(core::ev::try_commit(tx));
  h.push_back(core::ev::commit(tx));
}

/// Sequential committed writers: certifies under commit-order.
[[nodiscard]] std::vector<core::Event> certified_stream(std::size_t txs) {
  std::vector<core::Event> h;
  core::TxId tx = 1;
  for (std::size_t i = 0; i < txs; ++i) {
    append_writer(h, tx++, static_cast<core::ObjId>(i % 4),
                  static_cast<core::Value>(i + 1));
  }
  return h;
}

/// A read returning a value nobody ever wrote, planted after `prefix_txs`
/// clean transactions: flagged at a deterministic position.
[[nodiscard]] std::vector<core::Event> flagged_stream(std::size_t prefix_txs) {
  auto h = certified_stream(prefix_txs);
  const core::TxId tx = static_cast<core::TxId>(prefix_txs + 1);
  h.push_back(core::ev::inv(tx, 0, core::OpCode::kRead, 0));
  h.push_back(core::ev::ret(tx, 0, core::OpCode::kRead, 0,
                            core::Value{987654321}));
  h.push_back(core::ev::try_commit(tx));
  h.push_back(core::ev::commit(tx));
  return h;
}

[[nodiscard]] log::LogMetadata meta_for(std::uint32_t vars,
                                        const std::string& policy) {
  log::LogMetadata meta;
  meta.runtime = "test";
  meta.policy = policy;
  meta.window_mode = "windowed";
  meta.num_vars = vars;
  meta.threads = 1;
  return meta;
}

/// Local ground truth: the serial monitor over the same stream.
[[nodiscard]] std::optional<core::OnlineViolation> local_verdict(
    std::span<const core::Event> events, std::uint32_t vars) {
  core::OnlineCertificateMonitor monitor(
      core::ObjectModel::registers(vars, 0));
  (void)monitor.ingest(events);
  return monitor.violation();
}

/// Stream `events` through a fresh client; true if the transport stayed
/// clean (the verdict lands in `out`).
[[nodiscard]] bool stream_to(std::uint16_t port,
                             std::span<const core::Event> events,
                             const log::LogMetadata& meta,
                             net::RemoteVerdict& out) {
  net::CertClient client;
  if (!client.connect("127.0.0.1", port, net::make_hello(meta))) return false;
  if (!client.send_events(events)) return false;
  if (!client.finish()) return false;
  out = client.verdict();
  return true;
}

// ---------------------------------------------------------------------------
// parse_host_port
// ---------------------------------------------------------------------------

TEST(NetService, ParseHostPortAcceptsV4AndBracketedV6) {
  std::string host;
  std::uint16_t port = 0;

  ASSERT_TRUE(net::parse_host_port("127.0.0.1:9000", host, port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 9000);

  ASSERT_TRUE(net::parse_host_port("example.test:1", host, port));
  EXPECT_EQ(host, "example.test");
  EXPECT_EQ(port, 1);

  // RFC 3986 bracketed IPv6 literal.
  ASSERT_TRUE(net::parse_host_port("[::1]:9000", host, port));
  EXPECT_EQ(host, "::1");
  EXPECT_EQ(port, 9000);

  ASSERT_TRUE(net::parse_host_port("[fe80::1%eth0]:65535", host, port));
  EXPECT_EQ(host, "fe80::1%eth0");
  EXPECT_EQ(port, 65535);
}

TEST(NetService, ParseHostPortRejectsMalformedSpecs) {
  std::string host = "unchanged";
  std::uint16_t port = 7;

  // A bare multi-colon IPv6 spec is ambiguous (which colon splits?) and
  // must be rejected, not silently mis-split.
  EXPECT_FALSE(net::parse_host_port("::1:9000", host, port));
  EXPECT_FALSE(net::parse_host_port("fe80::1:9000", host, port));

  EXPECT_FALSE(net::parse_host_port("", host, port));
  EXPECT_FALSE(net::parse_host_port("nocolon", host, port));
  EXPECT_FALSE(net::parse_host_port(":9000", host, port));         // empty host
  EXPECT_FALSE(net::parse_host_port("host:", host, port));         // empty port
  EXPECT_FALSE(net::parse_host_port("host:abc", host, port));      // non-numeric
  EXPECT_FALSE(net::parse_host_port("host:0", host, port));        // port 0
  EXPECT_FALSE(net::parse_host_port("host:65536", host, port));    // overflow
  EXPECT_FALSE(net::parse_host_port("[::1]", host, port));         // no port
  EXPECT_FALSE(net::parse_host_port("[::1]9000", host, port));     // no colon
  EXPECT_FALSE(net::parse_host_port("[]:9000", host, port));       // empty brkt
  EXPECT_FALSE(net::parse_host_port("[::1:9000", host, port));     // unclosed

  // Rejected parses must not clobber the out-params.
  EXPECT_EQ(host, "unchanged");
  EXPECT_EQ(port, 7);
}

// ---------------------------------------------------------------------------
// Transport deadlines
// ---------------------------------------------------------------------------

TEST(NetService, ClientTimesOutOnUnresponsiveAcceptor) {
  // A listener that never accepts: the kernel completes the TCP handshake
  // into the backlog, so the hang point is the protocol handshake read.
  // Without ClientOptions::timeout_ms this blocked forever (the bug);
  // with it, connect() must fail with a "timed out" operational error in
  // bounded time.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;  // ephemeral
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);

  net::ClientOptions options;
  options.timeout_ms = 300;
  net::CertClient client(options);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.connect("127.0.0.1", port,
                              net::make_hello(meta_for(4, "commit-order"))));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_NE(client.error().find("timed out"), std::string::npos)
      << client.error();
  // Bounded: well past the 300ms deadline counts as hanging. Generous
  // margin for loaded CI machines.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  ::close(listener);
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(NetService, CertifiedRoundTrip) {
  net::CertServer server({});
  ASSERT_TRUE(server.start()) << server.error();

  const auto events = certified_stream(200);
  net::RemoteVerdict verdict;
  ASSERT_TRUE(stream_to(server.port(), events, meta_for(4, "commit-order"),
                        verdict));
  EXPECT_TRUE(verdict.certified);
  EXPECT_EQ(verdict.events, events.size());
  EXPECT_FALSE(verdict.violation.has_value());

  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.streams_completed, 1u);
  EXPECT_EQ(stats.streams_failed, 0u);
  EXPECT_EQ(stats.events_ingested, events.size());
}

TEST(NetService, FlaggedStreamMatchesLocalMonitor) {
  net::CertServer server({});
  ASSERT_TRUE(server.start()) << server.error();

  const auto events = flagged_stream(50);
  const auto local = local_verdict(events, 4);
  ASSERT_TRUE(local.has_value());

  net::RemoteVerdict verdict;
  ASSERT_TRUE(stream_to(server.port(), events, meta_for(4, "commit-order"),
                        verdict));
  EXPECT_FALSE(verdict.certified);
  ASSERT_TRUE(verdict.violation.has_value());
  EXPECT_EQ(verdict.violation->pos, local->pos);
  EXPECT_EQ(verdict.violation->kind, local->kind);
  EXPECT_EQ(verdict.violation->reason, local->reason);

  server.stop();
  EXPECT_EQ(server.stats().streams_flagged, 1u);
}

TEST(NetService, StartRefusesAnUnusableCreditWindow) {
  // Every client rejects a zero window at the handshake, so a server
  // announcing one could complete no stream.
  net::ServerOptions zero;
  zero.credit_events = 0;
  net::CertServer zero_server(zero);
  EXPECT_FALSE(zero_server.start());
  EXPECT_FALSE(zero_server.error().empty());

  // A window whose receive bound overflows would disable the credit check.
  net::ServerOptions huge;
  huge.credit_events = ~std::uint64_t{0};
  net::CertServer huge_server(huge);
  EXPECT_FALSE(huge_server.start());
  EXPECT_FALSE(huge_server.error().empty());
}

TEST(NetService, BackpressureWithTinyCreditWindowCompletes) {
  net::ServerOptions options;
  options.credit_events = 64;  // forces many wait_credit round trips
  net::CertServer server(options);
  ASSERT_TRUE(server.start()) << server.error();

  const auto events = certified_stream(500);  // 2000 events >> window
  net::RemoteVerdict verdict;
  ASSERT_TRUE(stream_to(server.port(), events, meta_for(4, "commit-order"),
                        verdict));
  EXPECT_TRUE(verdict.certified);
  EXPECT_EQ(verdict.events, events.size());
}

// ---------------------------------------------------------------------------
// Multi-tenant
// ---------------------------------------------------------------------------

TEST(NetService, ConcurrentTenantsGetIsolatedVerdicts) {
  net::CertServer server({});
  ASSERT_TRUE(server.start()) << server.error();

  const auto good = certified_stream(300);
  const auto bad = flagged_stream(30);
  const auto local = local_verdict(bad, 4);
  ASSERT_TRUE(local.has_value());

  net::RemoteVerdict good_verdict, bad_verdict;
  std::atomic<bool> good_sent{false}, bad_sent{false};
  std::thread t1([&] {
    good_sent = stream_to(server.port(), good, meta_for(4, "commit-order"),
                          good_verdict);
  });
  std::thread t2([&] {
    bad_sent = stream_to(server.port(), bad, meta_for(4, "commit-order"),
                         bad_verdict);
  });
  t1.join();
  t2.join();

  ASSERT_TRUE(good_sent.load());
  ASSERT_TRUE(bad_sent.load());
  EXPECT_TRUE(good_verdict.certified);
  EXPECT_FALSE(bad_verdict.certified);
  ASSERT_TRUE(bad_verdict.violation.has_value());
  EXPECT_EQ(bad_verdict.violation->pos, local->pos);

  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.streams_completed, 2u);
  EXPECT_EQ(stats.streams_flagged, 1u);
  EXPECT_EQ(stats.streams_failed, 0u);
  EXPECT_EQ(stats.events_ingested, good.size() + bad.size());
}

// ---------------------------------------------------------------------------
// Handshake + robustness
// ---------------------------------------------------------------------------

TEST(NetService, RejectedHandshakesDoNotPoisonLaterStreams) {
  net::CertServer server({});
  ASSERT_TRUE(server.start()) << server.error();

  {  // Unknown policy: the server must answer kError.
    net::CertClient client;
    EXPECT_FALSE(client.connect("127.0.0.1", server.port(),
                                net::make_hello(meta_for(4, "no-such-policy"))));
    EXPECT_NE(client.error().find("server error"), std::string::npos)
        << client.error();
  }
  {  // Corrupted handshake CRC.
    auto hello = net::make_hello(meta_for(4, "commit-order"));
    hello.header_crc ^= 0x5a5a5a5a;
    net::CertClient client;
    EXPECT_FALSE(client.connect("127.0.0.1", server.port(), hello));
  }
  {  // Cross-ABI event size.
    auto meta = meta_for(4, "commit-order");
    auto hello = net::make_hello(meta);
    hello.event_size = 40;
    hello.header_crc = util::crc32c(&hello, net::kHelloCrcBytes);
    net::CertClient client;
    EXPECT_FALSE(client.connect("127.0.0.1", server.port(), hello));
  }

  // The service is still healthy for the next tenant.
  net::RemoteVerdict verdict;
  ASSERT_TRUE(stream_to(server.port(), certified_stream(50),
                        meta_for(4, "commit-order"), verdict));
  EXPECT_TRUE(verdict.certified);

  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.streams_failed, 3u);
  EXPECT_EQ(stats.streams_completed, 1u);
}

TEST(NetService, AbsurdReserveHintsAreSaturatedNotFatal) {
  net::CertServer server({});
  ASSERT_TRUE(server.start()) << server.error();

  // reserve_txs/reserve_versions are client-controlled: UINT64_MAX must
  // be clamped server-side, not handed to vector::reserve (which would
  // throw on the loop thread and take the whole service down).
  const auto events = certified_stream(100);
  net::CertClient client;
  ASSERT_TRUE(client.connect(
      "127.0.0.1", server.port(),
      net::make_hello(meta_for(4, "commit-order"),
                      std::numeric_limits<std::uint64_t>::max(),
                      std::numeric_limits<std::uint64_t>::max())))
      << client.error();
  ASSERT_TRUE(client.send_events(events));
  ASSERT_TRUE(client.finish());
  EXPECT_TRUE(client.verdict().certified);
  EXPECT_EQ(client.verdict().events, events.size());

  server.stop();
  EXPECT_EQ(server.stats().streams_failed, 0u);
}

TEST(NetService, OutOfBoundsNumVarsIsARejectedHandshake) {
  net::CertServer server({});
  ASSERT_TRUE(server.start()) << server.error();

  {  // num_vars ~4e9: must be a kError, not a 4-billion-register model.
    auto meta = meta_for(4, "commit-order");
    meta.num_vars = std::numeric_limits<std::uint32_t>::max();
    net::CertClient client;
    EXPECT_FALSE(
        client.connect("127.0.0.1", server.port(), net::make_hello(meta)));
    EXPECT_NE(client.error().find("server error"), std::string::npos)
        << client.error();
  }
  {  // num_vars == 0 is equally out of bounds.
    auto meta = meta_for(4, "commit-order");
    meta.num_vars = 0;
    net::CertClient client;
    EXPECT_FALSE(
        client.connect("127.0.0.1", server.port(), net::make_hello(meta)));
  }

  // The service is still healthy for the next tenant.
  net::RemoteVerdict verdict;
  ASSERT_TRUE(stream_to(server.port(), certified_stream(50),
                        meta_for(4, "commit-order"), verdict));
  EXPECT_TRUE(verdict.certified);

  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.streams_failed, 2u);
  EXPECT_EQ(stats.streams_completed, 1u);
}

/// Raw loopback socket for speaking deliberately broken optm-net-v1.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  void send_bytes(const void* data, std::size_t n) {
    (void)::send(fd_, data, n, MSG_NOSIGNAL);
  }
  template <typename T>
  void send_struct(const T& t) {
    send_bytes(&t, sizeof(t));
  }
  /// True if the server eventually closes our end (read returns 0/err).
  [[nodiscard]] bool server_closed() {
    char buf[256];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return true;
    }
  }

 private:
  int fd_ = -1;
};

TEST(NetService, MalformedAndTruncatedStreamsNeverKillTheServer) {
  net::CertServer server({});
  ASSERT_TRUE(server.start()) << server.error();
  const auto meta = meta_for(4, "commit-order");

  {  // Pure garbage instead of a handshake.
    RawClient raw(server.port());
    ASSERT_TRUE(raw.ok());
    std::vector<unsigned char> junk(512);
    for (std::size_t i = 0; i < junk.size(); ++i) {
      junk[i] = static_cast<unsigned char>(i * 37 + 11);
    }
    raw.send_bytes(junk.data(), junk.size());
    EXPECT_TRUE(raw.server_closed());
  }
  {  // Valid handshake, then a block header with a corrupt CRC.
    RawClient raw(server.port());
    ASSERT_TRUE(raw.ok());
    raw.send_struct(net::make_hello(meta));
    log::BlockHeader bh;
    bh.event_count = 4;
    bh.first_stamp = 0;
    bh.payload_crc = 0xdeadbeef;
    bh.header_crc = 0xbadbad00;  // wrong
    raw.send_struct(bh);
    EXPECT_TRUE(raw.server_closed());
  }
  {  // Valid handshake + valid header, payload truncated by a disconnect.
    RawClient raw(server.port());
    ASSERT_TRUE(raw.ok());
    raw.send_struct(net::make_hello(meta));
    const auto events = certified_stream(8);
    log::BlockHeader bh;
    bh.event_count = static_cast<std::uint32_t>(events.size());
    bh.first_stamp = 0;
    bh.payload_crc =
        util::crc32c(events.data(), events.size() * sizeof(core::Event));
    bh.header_crc = util::crc32c(&bh, log::kBlockHeaderCrcBytes);
    raw.send_struct(bh);
    raw.send_bytes(events.data(), 100);  // partial payload, then vanish
  }
  {  // Valid handshake, then a stamp discontinuity.
    RawClient raw(server.port());
    ASSERT_TRUE(raw.ok());
    raw.send_struct(net::make_hello(meta));
    const auto events = certified_stream(2);
    log::BlockHeader bh;
    bh.event_count = static_cast<std::uint32_t>(events.size());
    bh.first_stamp = 999;  // stream starts at 0
    bh.payload_crc =
        util::crc32c(events.data(), events.size() * sizeof(core::Event));
    bh.header_crc = util::crc32c(&bh, log::kBlockHeaderCrcBytes);
    raw.send_struct(bh);
    raw.send_bytes(events.data(), events.size() * sizeof(core::Event));
    EXPECT_TRUE(raw.server_closed());
  }
  {  // CRC-valid header demanding an absurd event_count.
    RawClient raw(server.port());
    ASSERT_TRUE(raw.ok());
    raw.send_struct(net::make_hello(meta));
    log::BlockHeader bh;
    bh.event_count = 0x7fffffff;
    bh.first_stamp = 0;
    bh.payload_crc = 0;
    bh.header_crc = util::crc32c(&bh, log::kBlockHeaderCrcBytes);
    raw.send_struct(bh);
    EXPECT_TRUE(raw.server_closed());
  }

  // After all of that, a healthy tenant still gets a correct verdict.
  net::RemoteVerdict verdict;
  ASSERT_TRUE(stream_to(server.port(), certified_stream(100), meta, verdict));
  EXPECT_TRUE(verdict.certified);

  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.streams_completed, 1u);
  EXPECT_GE(stats.streams_failed, 5u);
}

TEST(NetService, CreditIgnoringFloodIsDroppedNotBuffered) {
  net::ServerOptions options;
  options.credit_events = 16;       // rx bound ≈ hello + 16·72B + one block
  options.max_block_events = 64;
  options.max_response_buffer = 4096;
  net::CertServer server(options);
  ASSERT_TRUE(server.start()) << server.error();

  // A sender that never reads acks and ships far more than the credit
  // window: the server must drop the connection (credit-window or
  // slow-reader rule) instead of growing the rx/tx buffers without
  // bound — and keep serving compliant tenants.
  RawClient raw(server.port());
  ASSERT_TRUE(raw.ok());
  raw.send_struct(net::make_hello(meta_for(4, "commit-order")));
  const auto events = certified_stream(1000);  // 4000 events >> window
  std::vector<unsigned char> flood;
  flood.reserve(events.size() * (sizeof(log::BlockHeader) + sizeof(core::Event)));
  for (std::size_t i = 0; i < events.size(); ++i) {
    log::BlockHeader bh;
    bh.event_count = 1;
    bh.first_stamp = i;
    bh.payload_crc = util::crc32c(&events[i], sizeof(core::Event));
    bh.header_crc = util::crc32c(&bh, log::kBlockHeaderCrcBytes);
    const auto* h = reinterpret_cast<const unsigned char*>(&bh);
    flood.insert(flood.end(), h, h + sizeof(bh));
    const auto* p = reinterpret_cast<const unsigned char*>(&events[i]);
    flood.insert(flood.end(), p, p + sizeof(core::Event));
  }
  // Corrupt trailer: even a server that somehow kept pace with the whole
  // flood must close (CRC error) — server_closed() can never hang.
  log::BlockHeader trailer;
  trailer.event_count = 1;
  trailer.first_stamp = events.size();
  trailer.header_crc = 0xdeadbeef;
  const auto* t = reinterpret_cast<const unsigned char*>(&trailer);
  flood.insert(flood.end(), t, t + sizeof(trailer));
  raw.send_bytes(flood.data(), flood.size());
  EXPECT_TRUE(raw.server_closed());

  net::RemoteVerdict verdict;
  ASSERT_TRUE(stream_to(server.port(), certified_stream(50),
                        meta_for(4, "commit-order"), verdict));
  EXPECT_TRUE(verdict.certified);

  server.stop();
  const auto stats = server.stats();
  EXPECT_GE(stats.streams_failed, 1u);
  EXPECT_EQ(stats.streams_completed, 1u);
}

// ---------------------------------------------------------------------------
// SocketSink in the drain pipeline
// ---------------------------------------------------------------------------

TEST(NetService, SocketSinkStreamsALiveRecording) {
  net::CertServer server({});
  ASSERT_TRUE(server.start()) << server.error();

  const std::uint32_t vars = 8;
  auto stm = stm::make_stm("tl2", vars);
  stm::Recorder recorder(vars);
  stm->set_recorder(&recorder);

  net::CertClient client;
  auto meta = meta_for(vars, "commit-order");
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(),
                             net::make_hello(meta)))
      << client.error();
  stm::SocketSink sink(client);

  std::atomic<bool> done{false};
  stm::DrainPump pump(recorder, sink);
  stm::DrainPump::Stats stats;
  std::thread pumper([&] { stats = pump.run(done); });

  wl::MixParams mix;
  mix.threads = 2;
  mix.vars = vars;
  mix.txs_per_thread = 200;
  mix.ops_per_tx = 3;
  mix.seed = 42;
  (void)wl::run_random_mix(*stm, mix);
  done.store(true, std::memory_order_release);
  pumper.join();

  ASSERT_TRUE(stats.sink_ok) << client.error();
  EXPECT_EQ(client.verdict().certified, true);
  EXPECT_EQ(client.verdict().events, recorder.num_events());
  EXPECT_EQ(stats.events, recorder.num_events());
}

// ---------------------------------------------------------------------------
// Acceptance: remote == local across runtimes × policies
// ---------------------------------------------------------------------------

/// Collects every drained event, in stamp order.
class VectorSink final : public stm::EventSink {
 public:
  std::vector<core::Event> events;
  bool accept(std::span<const core::Event> batch) override {
    events.insert(events.end(), batch.begin(), batch.end());
    return true;
  }
};

void expect_remote_matches_local(const std::string& stm_name,
                                 const std::string& policy, bool window_free,
                                 std::uint16_t port) {
  SCOPED_TRACE(stm_name + "/" + policy);
  const std::uint32_t vars = 12;
  auto stm = stm::make_stm(stm_name, vars);
  if (window_free) {
    ASSERT_TRUE(stm->set_window_free(true));
  }
  stm::Recorder recorder(vars);
  stm->set_recorder(&recorder);

  VectorSink collected;
  std::atomic<bool> done{false};
  stm::DrainPump pump(recorder, collected);
  std::thread pumper([&] { (void)pump.run(done); });
  wl::MixParams mix;
  mix.threads = 3;
  mix.vars = vars;
  mix.txs_per_thread = 150;
  mix.ops_per_tx = 4;
  mix.seed = 7;
  (void)wl::run_random_mix(*stm, mix);
  done.store(true, std::memory_order_release);
  pumper.join();

  const auto local = local_verdict(collected.events, vars);

  auto meta = meta_for(vars, policy);
  meta.runtime = stm_name;
  meta.window_mode = window_free ? "window-free" : "windowed";
  net::RemoteVerdict remote;
  ASSERT_TRUE(stream_to(port, collected.events, meta, remote));

  EXPECT_EQ(remote.certified, !local.has_value());
  EXPECT_EQ(remote.events, collected.events.size());
  if (local.has_value()) {
    ASSERT_TRUE(remote.violation.has_value());
    EXPECT_EQ(remote.violation->pos, local->pos);
    EXPECT_EQ(remote.violation->kind, local->kind);
  }
}

TEST(NetService, RemoteVerdictMatchesLocalAcrossRuntimesAndPolicyNames) {
  // Every historical policy name in the hello is an alias of the one
  // version order: the stream is accepted and judged like the local one.
  net::CertServer server({});
  ASSERT_TRUE(server.start()) << server.error();
  for (const char* stm_name : {"tl2", "dstm", "mv"}) {
    expect_remote_matches_local(stm_name, "commit-order", false,
                                server.port());
    expect_remote_matches_local(stm_name, "stamped-read", true, server.port());
  }
  expect_remote_matches_local("tl2", "blind-write-smart", false, server.port());
  expect_remote_matches_local("tl2", "snapshot-rank", true, server.port());
  server.stop();
  EXPECT_EQ(server.stats().streams_failed, 0u);
}

}  // namespace
