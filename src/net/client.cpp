#include "net/client.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "util/cli.hpp"

namespace optm::net {

namespace {

/// Blocks bigger than this are split before framing: a single block must
/// fit the credit window or the stream deadlocks waiting for credit it
/// can never have.
constexpr std::uint64_t kMaxChunkEvents = std::uint64_t{1} << 14;

}  // namespace

bool parse_host_port(const std::string& spec, std::string& host,
                     std::uint16_t& port) {
  std::string host_part;
  std::string port_part;
  if (!spec.empty() && spec.front() == '[') {
    // RFC 3986 bracketed literal: [v6-address]:port.
    const auto close = spec.find(']');
    if (close == std::string::npos || close == 1) return false;
    if (close + 1 >= spec.size() || spec[close + 1] != ':') return false;
    host_part = spec.substr(1, close - 1);
    port_part = spec.substr(close + 2);
  } else {
    // Unbracketed: exactly one colon. A bare IPv6 literal ("::1:9000")
    // has several, and any split would be a guess — reject it so the
    // caller learns to bracket instead of dialing a garbage host.
    const auto colon = spec.find(':');
    if (colon == std::string::npos || colon == 0) return false;
    if (spec.find(':', colon + 1) != std::string::npos) return false;
    host_part = spec.substr(0, colon);
    port_part = spec.substr(colon + 1);
  }
  const auto parsed = util::parse_int(port_part);
  if (!parsed || *parsed <= 0 || *parsed > 65535) return false;
  host = host_part;
  port = static_cast<std::uint16_t>(*parsed);
  return true;
}

CertClient::~CertClient() { close(); }

void CertClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool CertClient::fail(const std::string& why) {
  if (error_.empty()) error_ = why;
  close();
  return false;
}

int CertClient::connect_with_deadline(int fd, const void* addr,
                                      unsigned int addrlen) const {
  const auto* sa = static_cast<const sockaddr*>(addr);
  if (options_.timeout_ms <= 0) {
    return ::connect(fd, sa, addrlen) == 0 ? 0 : errno;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return errno;
  int err = 0;
  if (::connect(fd, sa, addrlen) != 0) {
    if (errno != EINPROGRESS) {
      err = errno;
    } else {
      pollfd pfd{fd, POLLOUT, 0};
      const int n = ::poll(&pfd, 1, options_.timeout_ms);
      if (n == 0) {
        err = ETIMEDOUT;
      } else if (n < 0) {
        err = errno;
      } else {
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0) {
          err = errno;
        } else {
          err = so_error;
        }
      }
    }
  }
  if (err == 0 && ::fcntl(fd, F_SETFL, flags) < 0) err = errno;
  return err;
}

bool CertClient::connect(const std::string& host, std::uint16_t port,
                         const HelloFrame& hello) {
  if (fd_ >= 0) return fail("connect() on an open client");
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;  // v4 and v6 (parse_host_port accepts [::1])
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  if (::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    return fail("cannot resolve '" + host + "'");
  }
  // Try every resolved address (a dual-stack name like "localhost" may
  // resolve v6-first against a v4-only listener), each under the connect
  // deadline.
  int last_err = 0;
  for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd_ = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd_ < 0) {
      last_err = errno;
      continue;
    }
    last_err = connect_with_deadline(
        fd_, ai->ai_addr, static_cast<unsigned int>(ai->ai_addrlen));
    if (last_err == 0) break;
    ::close(fd_);
    fd_ = -1;
  }
  ::freeaddrinfo(res);
  if (fd_ < 0) {
    return fail("cannot connect to " + host + ":" + port_str + ": " +
                (last_err == ETIMEDOUT ? std::string("timed out")
                                       : std::string(std::strerror(last_err))));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.timeout_ms > 0) {
    // Per-syscall deadlines for the blocking stream I/O: a recv/send that
    // sits this long fails with EAGAIN, which read/send surface as an
    // operational "timed out" error instead of hanging the pipeline.
    timeval tv{};
    tv.tv_sec = options_.timeout_ms / 1000;
    tv.tv_usec = static_cast<long>(options_.timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  if (!send_all(&hello, sizeof(hello))) return false;
  // The handshake ack announces the credit window (and is where an
  // immediate kError for a rejected handshake lands).
  RespFrame r;
  std::string reason;
  if (!read_resp(r, reason)) return false;
  if (!apply_resp(r, reason)) return false;
  if (r.kind != static_cast<std::uint32_t>(RespKind::kAck) || window_ == 0) {
    return fail("handshake did not ack");
  }
  return true;
}

bool CertClient::send_all(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return fail("send timed out (server unresponsive)");
      }
      return fail(std::string("send failed: ") + std::strerror(errno));
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool CertClient::read_resp(RespFrame& out, std::string& reason) {
  auto read_exact = [&](void* dst, std::size_t n) -> bool {
    auto* p = static_cast<unsigned char*>(dst);
    while (n > 0) {
      const ssize_t r = ::recv(fd_, p, n, 0);
      if (r == 0) return fail("server closed the connection");
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return fail("recv timed out (server unresponsive)");
        }
        return fail(std::string("recv failed: ") + std::strerror(errno));
      }
      p += r;
      n -= static_cast<std::size_t>(r);
    }
    return true;
  };
  if (!read_exact(&out, sizeof(out))) return false;
  if (out.magic != kRespMagic || !resp_crc_ok(out)) {
    return fail("corrupt response frame");
  }
  if (out.reason_len > kMaxReasonBytes) {
    return fail("oversized response reason");
  }
  reason.resize(out.reason_len);
  return out.reason_len == 0 || read_exact(reason.data(), reason.size());
}

bool CertClient::apply_resp(const RespFrame& r, const std::string& reason) {
  switch (static_cast<RespKind>(r.kind)) {
    case RespKind::kAck:
      acked_ = r.events;
      if (r.window != 0) window_ = r.window;
      return true;
    case RespKind::kFlag:
      if (!verdict_.violation) {
        verdict_.violation = core::OnlineViolation{
            r.flag_pos, reason, static_cast<core::CertFlagKind>(r.flag_kind)};
      }
      return true;
    case RespKind::kFinal:
      verdict_.certified = r.certified != 0;
      verdict_.events = r.events;
      if (r.certified == 0) {
        // kFinal's violation is authoritative (the whole stream was
        // ingested); it supersedes any provisional mid-stream flag.
        verdict_.violation = core::OnlineViolation{
            r.flag_pos, reason, static_cast<core::CertFlagKind>(r.flag_kind)};
      }
      finished_ = true;
      return true;
    case RespKind::kError:
      return fail("server error: " + (reason.empty() ? "(no reason)" : reason));
  }
  return fail("unknown response kind");
}

bool CertClient::poll_resps() {
  for (;;) {
    pollfd pfd{fd_, POLLIN, 0};
    const int n = ::poll(&pfd, 1, 0);
    if (n <= 0) return true;  // nothing buffered
    RespFrame r;
    std::string reason;
    if (!read_resp(r, reason)) return false;
    if (!apply_resp(r, reason)) return false;
  }
}

bool CertClient::wait_credit(std::uint64_t incoming) {
  while (sent_ - acked_ + incoming > window_) {
    RespFrame r;
    std::string reason;
    if (!read_resp(r, reason)) return false;  // blocks: the throttle point
    if (!apply_resp(r, reason)) return false;
  }
  return true;
}

bool CertClient::send_events(std::span<const core::Event> batch) {
  if (fd_ < 0) return false;
  if (!poll_resps()) return false;  // pick up flags/acks already queued
  while (!batch.empty()) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>({batch.size(), kMaxChunkEvents, window_}));
    if (!wait_credit(n)) return false;
    log::BlockHeader bh;
    bh.event_count = static_cast<std::uint32_t>(n);
    bh.first_stamp = sent_;
    // util::crc32c dispatches to the CPU's CRC instructions where
    // available, so sealing a full chunk costs microseconds, not the
    // milliseconds the old table kernel charged the send path.
    bh.payload_crc = util::crc32c(batch.data(), n * sizeof(core::Event));
    bh.header_crc = util::crc32c(&bh, log::kBlockHeaderCrcBytes);
    if (!send_all(&bh, sizeof(bh))) return false;
    if (!send_all(batch.data(), n * sizeof(core::Event))) return false;
    sent_ += n;
    batch = batch.subspan(n);
  }
  return true;
}

bool CertClient::finish() {
  if (finished_) return fd_ >= 0 || error_.empty();
  if (fd_ < 0) return false;
  log::BlockHeader fin;
  fin.block_magic = 0;  // the log's end-of-segment seal doubles as FIN
  fin.event_count = 0;
  fin.first_stamp = sent_;
  fin.payload_crc = 0;
  fin.header_crc = util::crc32c(&fin, log::kBlockHeaderCrcBytes);
  if (!send_all(&fin, sizeof(fin))) return false;
  while (!finished_) {
    RespFrame r;
    std::string reason;
    if (!read_resp(r, reason)) return false;
    if (!apply_resp(r, reason)) return false;
  }
  return true;
}

}  // namespace optm::net
