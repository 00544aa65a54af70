// CertServer: the networked multi-tenant certification service.
//
// An epoll-based TCP server; every accepted connection is one tenant
// stream speaking optm-net-v1 (protocol.hpp): a CRC-sealed HelloFrame
// carrying the segment-header provenance fields, then optm-log-v1 blocks
// of raw events, then a FIN marker. Per connection the server stands up
// its own OnlineCertificateMonitor, configured and reserve()d from the
// handshake, and multiplexes kAck (credit/backpressure), kFlag (violation
// latched, stream continues), kFinal (definitive verdict) and kError
// frames back.
//
// FAILURE ISOLATION. Everything that can go wrong on one connection —
// malformed frames, CRC failures, event-size or stamp-continuity
// mismatches, an unknown policy, out-of-bounds handshake sizing fields,
// an engine allocation failure, a mid-stream disconnect, a slow reader
// whose response buffer overflows, a sender that ignores its credit
// window — is a per-connection error: the server sends kError where it
// still can, closes that connection, counts it in
// stats().streams_failed, and keeps serving every other tenant. Nothing
// a client sends can take the service down or poison another stream's
// verdict (each engine is connection-private).
//
// BACKPRESSURE. Each stream gets a fixed in-flight budget
// (Options::credit_events, announced in the handshake ack); the server
// grants fresh credit roughly every half window of ingested events: bursts
// batch up, a verifier that falls behind throttles the client's sending
// (drain) thread, and per-tenant buffering stays bounded. It does not
// throttle the client's STM producers — the recorder applies no
// backpressure, so a throttled sender's backlog grows in the client's
// recorder. The window is enforced on BOTH sides: a compliant client
// throttles itself on acks, and the server bounds each
// connection's receive backlog to what a credit-respecting sender could
// legitimately have in flight — a sender that ignores credit is dropped
// with kError instead of growing the rx buffer without bound.
//
// THREADING. One loop thread owns the epoll set, all connection state and
// every connection's monitor; no other thread touches them.
// start()/stop()/stats()/port() are safe from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace optm::net {

struct ServerOptions {
  /// IPv4 address to bind; the default serves loopback tenants only.
  std::string bind_address = "127.0.0.1";
  /// 0 = let the kernel pick an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Per-stream in-flight credit, in events (announced in the first ack).
  /// start() refuses 0 and windows whose receive bound overflows.
  std::uint64_t credit_events = std::uint64_t{1} << 16;
  /// Accepted connections beyond this are closed immediately.
  std::size_t max_connections = 256;
  /// Upper bound on one block's event_count; a CRC-valid header asking
  /// for more is a protocol error (bounds per-connection scratch memory).
  std::size_t max_block_events = std::size_t{1} << 20;
  /// Upper bound on the handshake's num_vars; a CRC-valid hello asking
  /// for a larger model is a protocol error (the model is allocated on
  /// the loop thread — this bounds what one handshake can demand).
  std::uint32_t max_num_vars = std::uint32_t{1} << 20;
  /// Saturation cap for the hello's reserve_txs/reserve_versions
  /// pre-sizing hints: larger hints are clamped, never trusted — a hint
  /// is an optimization, not a client-controlled allocation. Streams
  /// that outgrow the clamped hint just fall back to dynamic growth.
  std::uint64_t max_reserve_hint = std::uint64_t{1} << 20;
  /// Slow-reader bound: a connection whose unsent response bytes exceed
  /// this is dropped.
  std::size_t max_response_buffer = std::size_t{1} << 20;
};

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t streams_completed = 0;  // FIN'd, final verdict sent
  std::uint64_t streams_failed = 0;     // protocol/transport errors
  std::uint64_t streams_flagged = 0;    // completed with a violation
  std::uint64_t events_ingested = 0;
  std::uint64_t open_connections = 0;
};

class CertServer {
 public:
  explicit CertServer(ServerOptions options);
  ~CertServer();
  CertServer(const CertServer&) = delete;
  CertServer& operator=(const CertServer&) = delete;

  /// Bind + listen + spawn the loop thread. False (with error()) if the
  /// options are out of range or the socket could not be set up. port() is valid once this returns true.
  [[nodiscard]] bool start();

  /// Stop accepting, close every connection, join the loop. Idempotent.
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  struct Conn;
  struct Loop;

  ServerOptions options_;
  std::string error_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: stop() kicks the epoll loop awake

  std::unique_ptr<Loop> loop_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace optm::net
