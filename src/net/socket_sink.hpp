// SocketSink: an EventSink that streams the recording to a remote
// certification service (net::CertServer) instead of — or, tee'd, in
// addition to — certifying locally. Drops into the same DrainPump loop as
// every other sink: `recorded_soak --connect=host:port` wires one of
// these as the soak driver's extra sink, so a live run ships the exact
// bytes it would have logged while a server-side engine certifies them.
//
// Failure semantics follow the sink contract: a transport or protocol
// failure (client.error()) is a sink failure — accept() returns false and
// the pump stops feeding this leg — while a REMOTE VIOLATION is not: the
// server keeps the stream flowing (kFlag) and the verdict is read from
// client.verdict() after finish(), exactly like MonitorSink's
// monitor.ok(). Backpressure is inherited from the client's credit
// window: accept() blocks when the server's verifier falls behind, which
// stalls the drain thread — as a slow disk does on the log sink. The STM
// producers are not slowed: the recorder applies no backpressure, so
// while the drain thread is stalled the backlog grows in the recorder.
#pragma once

#include <span>

#include "net/client.hpp"
#include "stm/sink.hpp"

namespace optm::stm {

class SocketSink final : public EventSink {
 public:
  /// The client must already be connect()ed; the sink does not own it
  /// (callers read verdict()/error() from the client after the run).
  explicit SocketSink(net::CertClient& client) noexcept : client_(&client) {}

  bool accept(std::span<const core::Event> batch) override {
    return client_->send_events(batch);
  }

  /// FIN + wait for the definitive verdict (DrainPump calls this once
  /// after the final drain, so the pump's sink_ok reflects transport
  /// health and client_->verdict() the certification outcome).
  bool finish() override { return client_->finish(); }

 private:
  net::CertClient* client_;
};

}  // namespace optm::stm
