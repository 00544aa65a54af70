#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <list>
#include <optional>
#include <vector>

#include "core/online.hpp"
#include "core/version_order.hpp"
#include "net/protocol.hpp"

namespace optm::net {

namespace {

[[nodiscard]] bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Largest rx backlog a credit-respecting client can legitimately
/// accumulate: the handshake, a full credit window of events (worst case
/// framed as one-event blocks), and one maximal block of slack. A backlog
/// beyond this means the sender is ignoring its window. Empty when the
/// sum does not fit a size_t.
[[nodiscard]] std::optional<std::size_t> rx_bound_of(const ServerOptions& o) {
  constexpr std::size_t kPerEvent =
      sizeof(core::Event) + sizeof(log::BlockHeader);
  constexpr std::size_t kFixed = sizeof(HelloFrame) + sizeof(log::BlockHeader);
  std::size_t window = 0;
  std::size_t block = 0;
  std::size_t bound = 0;
  if (__builtin_mul_overflow(o.credit_events, kPerEvent, &window) ||
      __builtin_mul_overflow(o.max_block_events, sizeof(core::Event), &block) ||
      __builtin_add_overflow(window, block, &bound) ||
      __builtin_add_overflow(bound, kFixed, &bound)) {
    return std::nullopt;
  }
  return bound;
}

}  // namespace

/// One tenant connection: rx/tx buffering, the protocol state machine and
/// the connection-private certification engine. Owned by the loop thread.
struct CertServer::Conn {
  enum class State : std::uint8_t {
    kHello,      // waiting for the handshake frame
    kStreaming,  // ingesting blocks
    kDraining,   // terminal frame queued; close once tx empties
  };

  int fd = -1;
  State state = State::kHello;
  bool failed = false;      // counts as streams_failed when torn down
  bool completed = false;   // FIN'd cleanly (kFinal queued)
  bool flagged = false;
  bool flag_sent = false;

  std::vector<unsigned char> rx;
  std::size_t rx_off = 0;  // consumed prefix of rx
  std::vector<unsigned char> tx;
  std::size_t tx_off = 0;

  std::vector<core::Event> scratch;  // aligned copy of one block's payload
  std::uint64_t events_ingested = 0;
  std::uint64_t last_acked = 0;

  // Set by a valid handshake.
  std::unique_ptr<core::OnlineCertificateMonitor> monitor;

  [[nodiscard]] std::size_t rx_avail() const noexcept {
    return rx.size() - rx_off;
  }
  [[nodiscard]] const unsigned char* rx_data() const noexcept {
    return rx.data() + rx_off;
  }
};

/// The epoll loop state (kept out of the header: raw fds + <sys/epoll.h>).
struct CertServer::Loop {
  CertServer* server = nullptr;
  int epoll_fd = -1;
  std::list<Conn> conns;
  /// Connections closed mid-batch park here until the end of the
  /// epoll_wait batch: later events[] entries may still carry the
  /// Conn* in data.ptr, and freeing the node immediately would let a
  /// connection accepted later in the SAME batch reuse the address —
  /// find() would then deliver the stale event to the wrong tenant.
  std::list<Conn> graveyard;

  ~Loop() {
    for (Conn& c : conns) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (epoll_fd >= 0) ::close(epoll_fd);
  }

  [[nodiscard]] ServerOptions& options() { return server->options_; }

  void bump(std::uint64_t ServerStats::*field, std::uint64_t by = 1) {
    std::lock_guard<std::mutex> lk(server->stats_mu_);
    server->stats_.*field += by;
  }

  [[nodiscard]] bool arm(Conn& c) {
    epoll_event ev{};
    ev.events = EPOLLIN | (c.tx.size() > c.tx_off ? EPOLLOUT : 0u);
    ev.data.ptr = &c;
    return ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c.fd, &ev) == 0;
  }

  void queue(Conn& c, const RespFrame& frame, const std::string& reason = {}) {
    RespFrame f = frame;
    const std::size_t n = std::min(reason.size(), kMaxReasonBytes);
    f.reason_len = static_cast<std::uint32_t>(n);
    f = seal_resp(f);
    const auto* p = reinterpret_cast<const unsigned char*>(&f);
    c.tx.insert(c.tx.end(), p, p + sizeof(f));
    const auto* r = reinterpret_cast<const unsigned char*>(reason.data());
    c.tx.insert(c.tx.end(), r, r + n);
  }

  /// Largest rx backlog a credit-respecting client can legitimately
  /// accumulate (rx_bound_of); start() has checked that it fits.
  std::size_t rx_bound = 0;

  /// Best-effort tx push with no close/arm logic — used on paths that
  /// close the connection regardless of whether the bytes got out.
  void try_flush_bytes(Conn& c) {
    while (c.tx_off < c.tx.size()) {
      const ssize_t n = ::send(c.fd, c.tx.data() + c.tx_off,
                               c.tx.size() - c.tx_off, MSG_NOSIGNAL);
      if (n <= 0) return;
      c.tx_off += static_cast<std::size_t>(n);
    }
  }

  void queue_ack(Conn& c) {
    RespFrame f;
    f.kind = static_cast<std::uint32_t>(RespKind::kAck);
    f.events = c.events_ingested;
    f.window = options().credit_events;
    queue(c, f);
    c.last_acked = c.events_ingested;
  }

  /// Queue kError and start draining: the connection dies, the server
  /// does not. Idempotent — once a terminal frame is queued, later
  /// defects on the same connection are not reported again.
  void protocol_error(Conn& c, const std::string& reason) {
    if (c.state == Conn::State::kDraining) {
      c.failed = true;
      return;
    }
    RespFrame f;
    f.kind = static_cast<std::uint32_t>(RespKind::kError);
    f.events = c.events_ingested;
    queue(c, f, reason);
    c.state = Conn::State::kDraining;
    c.failed = true;
  }

  void close_conn(std::list<Conn>::iterator it) {
    Conn& c = *it;
    if (c.failed) {
      bump(&ServerStats::streams_failed);
    }
    if (c.fd >= 0) {
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c.fd, nullptr);
      ::close(c.fd);
      c.fd = -1;
    }
    {
      std::lock_guard<std::mutex> lk(server->stats_mu_);
      --server->stats_.open_connections;
    }
    // Defer the free: splice keeps the node's address alive (out of
    // conns, so find() skips it) until the epoll batch ends.
    graveyard.splice(graveyard.end(), conns, it);
  }

  /// Handshake frame -> connection-private engine. False on any defect
  /// (kError already queued).
  [[nodiscard]] bool handle_hello(Conn& c, const HelloFrame& hello) {
    if (hello.magic != kHelloMagic || !hello_crc_ok(hello)) {
      protocol_error(c, "bad handshake magic/CRC");
      return false;
    }
    if (hello.version != kNetVersion) {
      protocol_error(c, "unsupported optm-net version");
      return false;
    }
    if (hello.event_size != sizeof(core::Event)) {
      protocol_error(c, "event size mismatch (cross-ABI stream)");
      return false;
    }
    if (hello.num_vars == 0 || hello.num_vars > options().max_num_vars) {
      protocol_error(c, "handshake num_vars out of bounds");
      return false;
    }
    // Every historical policy name means the one version order; the field
    // is client input, so anything else is refused.
    const std::string policy_name = unpad(hello.policy, log::kPolicyChars);
    if (!core::is_version_order_name(policy_name)) {
      protocol_error(c, "unknown version-order policy '" + policy_name + "'");
      return false;
    }
    // The reserve hints are client-controlled: saturate, never trust —
    // an absurd hint must not turn into an absurd allocation.
    const std::uint64_t reserve_txs =
        std::min(hello.reserve_txs, options().max_reserve_hint);
    const std::uint64_t reserve_versions =
        std::min(hello.reserve_versions, options().max_reserve_hint);
    try {
      auto model = core::ObjectModel::registers(hello.num_vars, 0);
      c.monitor =
          std::make_unique<core::OnlineCertificateMonitor>(std::move(model));
      if (reserve_txs != 0 || reserve_versions != 0) {
        c.monitor->reserve(reserve_txs, reserve_versions);
      }
    } catch (const std::exception&) {
      // bad_alloc/length_error: a per-connection failure, never a server
      // crash.
      c.monitor.reset();
      protocol_error(c, "engine setup failed");
      return false;
    }
    c.state = Conn::State::kStreaming;
    queue_ack(c);  // the "go" frame: announces the credit window
    return true;
  }

  /// FIN marker: queue the verdict.
  void handle_fin(Conn& c, const log::BlockHeader& bh) {
    if (bh.event_count != 0 || bh.first_stamp != c.events_ingested) {
      protocol_error(c, "malformed FIN marker");
      return;
    }
    RespFrame f;
    f.kind = static_cast<std::uint32_t>(RespKind::kFinal);
    f.events = c.events_ingested;
    const auto& violation = c.monitor->violation();
    f.certified = violation ? 0 : 1;
    std::string reason;
    if (violation) {
      f.flag_pos = violation->pos;
      f.flag_kind = static_cast<std::uint32_t>(violation->kind);
      reason = violation->reason;
      c.flagged = true;
    }
    queue(c, f, reason);
    c.state = Conn::State::kDraining;
    c.completed = true;
    bump(&ServerStats::streams_completed);
    if (c.flagged) bump(&ServerStats::streams_flagged);
  }

  /// One optm-log-v1 block: validate framing, copy the payload into
  /// aligned scratch, feed the engine. False if more bytes are needed.
  [[nodiscard]] bool handle_block(Conn& c) {
    if (c.rx_avail() < sizeof(log::BlockHeader)) return false;
    log::BlockHeader bh;
    std::memcpy(&bh, c.rx_data(), sizeof(bh));
    if (bh.header_crc != util::crc32c(&bh, log::kBlockHeaderCrcBytes)) {
      protocol_error(c, "block header CRC mismatch");
      return false;
    }
    if (bh.block_magic == 0) {
      c.rx_off += sizeof(bh);
      handle_fin(c, bh);
      return false;
    }
    if (bh.block_magic != log::kBlockMagic) {
      protocol_error(c, "bad block magic");
      return false;
    }
    if (bh.event_count == 0 ||
        bh.event_count > options().max_block_events) {
      protocol_error(c, "block event_count out of bounds");
      return false;
    }
    if (bh.first_stamp != c.events_ingested) {
      protocol_error(c, "stream stamp discontinuity");
      return false;
    }
    const std::size_t payload = bh.event_count * sizeof(core::Event);
    if (c.rx_avail() < sizeof(bh) + payload) return false;
    const unsigned char* body = c.rx_data() + sizeof(bh);
    // Per-block integrity check on the ingest hot path: util::crc32c is
    // hardware-dispatched, so checksumming keeps up with the socket
    // instead of rate-limiting every tenant's stream.
    if (bh.payload_crc != util::crc32c(body, payload)) {
      protocol_error(c, "block payload CRC mismatch");
      return false;
    }
    c.scratch.resize(bh.event_count);
    std::memcpy(c.scratch.data(), body, payload);
    c.rx_off += sizeof(bh) + payload;
    (void)c.monitor->ingest(c.scratch);
    c.events_ingested += bh.event_count;
    bump(&ServerStats::events_ingested, bh.event_count);
    if (!c.flag_sent && !c.monitor->ok()) {
      // Early warning; the stream keeps flowing (the recording stays
      // complete), kFinal repeats the verdict authoritatively.
      c.flag_sent = true;
      const auto& violation = c.monitor->violation();
      RespFrame f;
      f.kind = static_cast<std::uint32_t>(RespKind::kFlag);
      f.events = c.events_ingested;
      f.flag_pos = violation ? violation->pos : 0;
      f.flag_kind = static_cast<std::uint32_t>(
          violation ? violation->kind : core::CertFlagKind::kNone);
      queue(c, f, violation ? violation->reason : std::string());
    }
    // Credit grant: a fresh ack every ~half window of ingested events.
    if (c.events_ingested - c.last_acked >= options().credit_events / 2) {
      queue_ack(c);
    }
    return true;
  }

  void on_readable(std::list<Conn>::iterator it) {
    Conn& c = *it;
    char buf[65536];
    for (;;) {
      if (c.rx.size() - c.rx_off > rx_bound) {
        // The sender is ignoring the credit window (a compliant client
        // never has more than the window in flight). Mirror the
        // slow-reader rule: best-effort kError, then drop — buffering
        // for this tenant must stay bounded.
        protocol_error(c, "credit window exceeded");
        try_flush_bytes(c);
        close_conn(it);
        return;
      }
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.rx.insert(c.rx.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // EOF or a transport error: a clean close is only expected after
      // kFinal/kError was queued (draining); anything else is a
      // mid-stream disconnect.
      if (c.state != Conn::State::kDraining) c.failed = true;
      close_conn(it);
      return;
    }
    // Consume every complete frame buffered so far.
    while (c.state != Conn::State::kDraining) {
      if (c.state == Conn::State::kHello) {
        if (c.rx_avail() < sizeof(HelloFrame)) break;
        HelloFrame hello;
        std::memcpy(&hello, c.rx_data(), sizeof(hello));
        c.rx_off += sizeof(hello);
        if (!handle_hello(c, hello)) break;
      } else if (!handle_block(c)) {
        break;
      }
    }
    // Compact the consumed prefix (keeps partial-frame retention small).
    if (c.rx_off > 0) {
      c.rx.erase(c.rx.begin(),
                 c.rx.begin() + static_cast<std::ptrdiff_t>(c.rx_off));
      c.rx_off = 0;
    }
    flush(it);
  }

  /// Write as much of tx as the socket takes; drop slow readers; close
  /// draining connections whose tx has emptied. May erase the conn.
  void flush(std::list<Conn>::iterator it) {
    Conn& c = *it;
    while (c.tx_off < c.tx.size()) {
      const ssize_t n = ::send(c.fd, c.tx.data() + c.tx_off,
                               c.tx.size() - c.tx_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.tx_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (c.state != Conn::State::kDraining) c.failed = true;
      close_conn(it);
      return;
    }
    if (c.tx_off == c.tx.size()) {
      c.tx.clear();
      c.tx_off = 0;
      if (c.state == Conn::State::kDraining) {
        close_conn(it);
        return;
      }
    } else if (c.tx.size() - c.tx_off > options().max_response_buffer) {
      // Slow reader: responses are piling up unread.
      c.failed = true;
      close_conn(it);
      return;
    }
    (void)arm(c);
  }

  void on_accept() {
    for (;;) {
      const int fd = ::accept(server->listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN et al.: done for this wakeup
      if (conns.size() >= options().max_connections || !set_nonblocking(fd)) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      conns.emplace_back();
      Conn& c = conns.back();
      c.fd = fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = &c;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        conns.pop_back();
        continue;
      }
      bump(&ServerStats::connections_accepted);
      std::lock_guard<std::mutex> lk(server->stats_mu_);
      ++server->stats_.open_connections;
    }
  }

  [[nodiscard]] std::list<Conn>::iterator find(Conn* c) {
    for (auto it = conns.begin(); it != conns.end(); ++it) {
      if (&*it == c) return it;
    }
    return conns.end();
  }

  void run() {
    epoll_event events[64];
    while (!server->stop_.load(std::memory_order_acquire)) {
      const int n = ::epoll_wait(epoll_fd, events, 64, 200);
      for (int i = 0; i < n; ++i) {
        if (events[i].data.ptr == nullptr) {
          // wake_fd: drain the counter; the loop condition does the rest.
          std::uint64_t tick = 0;
          [[maybe_unused]] const ssize_t r =
              ::read(server->wake_fd_, &tick, sizeof(tick));
          continue;
        }
        if (events[i].data.ptr == server) {
          on_accept();
          continue;
        }
        auto it = find(static_cast<Conn*>(events[i].data.ptr));
        if (it == conns.end()) continue;  // closed earlier this wakeup
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
            (events[i].events & EPOLLIN) == 0) {
          if (it->state != Conn::State::kDraining) it->failed = true;
          close_conn(it);
          continue;
        }
        if ((events[i].events & EPOLLIN) != 0) {
          on_readable(it);  // flushes too; may close
        } else if ((events[i].events & EPOLLOUT) != 0) {
          flush(it);
        }
      }
      // Batch over: no events[] entry can reference a closed conn now.
      graveyard.clear();
    }
  }
};

CertServer::CertServer(ServerOptions options) : options_(std::move(options)) {}

CertServer::~CertServer() { stop(); }

bool CertServer::start() {
  if (started_) return true;
  // Every client rejects a zero window at the handshake, and a window
  // whose rx bound overflows would disable the credit check.
  const std::optional<std::size_t> rx_bound = rx_bound_of(options_);
  if (options_.credit_events == 0 || !rx_bound) {
    error_ = "credit_events out of range";
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error_ = "socket() failed";
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    error_ = "bad bind address '" + options_.bind_address + "'";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0 || !set_nonblocking(listen_fd_)) {
    error_ = std::string("bind/listen failed: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  loop_ = std::make_unique<Loop>();
  loop_->server = this;
  loop_->rx_bound = *rx_bound;
  loop_->epoll_fd = ::epoll_create1(0);
  if (wake_fd_ < 0 || loop_->epoll_fd < 0) {
    error_ = "epoll/eventfd setup failed";
    stop();
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = this;  // sentinel: the listen socket
  ::epoll_ctl(loop_->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
  epoll_event wake{};
  wake.events = EPOLLIN;
  wake.data.ptr = nullptr;  // sentinel: the wake eventfd
  ::epoll_ctl(loop_->epoll_fd, EPOLL_CTL_ADD, wake_fd_, &wake);

  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { loop_->run(); });
  started_ = true;
  return true;
}

void CertServer::stop() {
  stop_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t r = ::write(wake_fd_, &one, sizeof(one));
  }
  if (thread_.joinable()) thread_.join();
  loop_.reset();  // closes every connection fd
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  started_ = false;
}

ServerStats CertServer::stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

}  // namespace optm::net
