// Wire protocol of the networked certification service ("optm-net-v1").
//
// One TCP connection carries one event stream ("tenant"): a client
// process records transactional events and ships them to the service,
// which runs a per-stream certification engine and multiplexes verdicts
// back. The stream layer reuses the optm-log-v1 block framing VERBATIM
// (log/format.hpp): after the handshake, the client sends
//
//   [HelloFrame] [BlockHeader|payload] [BlockHeader|payload] ... [FIN]
//
// where each block is a 24-byte CRC-framed log::BlockHeader followed by
// `event_count` raw 48-byte `core::Event` records — byte-identical to
// what log::LogWriter puts on disk, so `checker_tool certify-remote` can
// stream segment files to a server without re-encoding, and a client
// draining a live recorder ships the same bytes it would have logged.
// BlockHeader::first_stamp is the cumulative event count of the stream
// (the same continuity rule the segment reader enforces); the FIN marker
// is a BlockHeader with block_magic == 0 (the log's end-of-segment seal),
// event_count == 0 and first_stamp == the final event total, CRC-sealed.
//
// HANDSHAKE. HelloFrame carries the segment-header provenance fields
// (runtime / policy / window-mode / vars / threads — the optm-soak-v1
// vocabulary) plus engine pre-sizing hints, so the server can configure
// each connection's OnlineCertificateMonitor with the right model,
// version-order policy and reserve() before the first event arrives.
//
// RESPONSES. The server answers with RespFrames:
//   * kAck    — credit/backpressure: `events` = cumulative events the
//               engine has ingested, `window` = the per-stream in-flight
//               budget. The client must keep (sent - acked) <= window;
//               the server grants credit per ~half window of ingested
//               events, so a slow verifier throttles the client's
//               sending (drain) thread instead of buffering unboundedly.
//               The client's STM producers are not throttled: the
//               backlog grows in its recorder.
//   * kFlag   — a certificate violation latched mid-stream (position,
//               CertFlagKind, reason text). The stream continues: like
//               MonitorSink, a violation is not a transport failure, and
//               the recording stays complete for post-mortems.
//   * kFinal  — the definitive verdict, sent after FIN once every event
//               was ingested: certified flag + earliest violation.
//   * kError  — protocol failure (bad magic/CRC, event-size mismatch,
//               unknown policy, stamp discontinuity). The server closes
//               the connection after sending it; other tenants are
//               unaffected.
//
// All integers are native-endian (same-machine/same-ABI fleet protocol,
// like the log format; HelloFrame::event_size guards cross-ABI streams).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "core/event.hpp"
#include "log/format.hpp"
#include "log/writer.hpp"  // LogMetadata
#include "util/hash.hpp"

namespace optm::net {

/// "OPTMNET1" little-endian.
inline constexpr std::uint64_t kHelloMagic = 0x3154'454e'4d54'504fULL;
inline constexpr std::uint32_t kNetVersion = 1;
/// "RSP1" little-endian.
inline constexpr std::uint32_t kRespMagic = 0x3150'5352u;

struct HelloFrame {
  std::uint64_t magic = kHelloMagic;
  std::uint32_t version = kNetVersion;
  std::uint32_t event_size = sizeof(core::Event);  // cross-ABI guard
  std::uint32_t num_vars = 0;   // registers in the recorded model
  std::uint32_t threads = 0;    // producer threads (informational)
  /// Engine pre-sizing hints (0 = let the server default): expected
  /// distinct transactions and (register, value) versions, forwarded to
  /// the engine's reserve().
  std::uint64_t reserve_txs = 0;
  std::uint64_t reserve_versions = 0;
  // Segment-header provenance mirror (log/format.hpp field widths).
  char runtime[log::kRuntimeChars] = {};
  char policy[log::kPolicyChars] = {};
  char window_mode[log::kWindowModeChars] = {};
  std::uint32_t reserved = 0;
  /// CRC-32C over the bytes preceding this field.
  std::uint32_t header_crc = 0;
};
inline constexpr std::size_t kHelloCrcBytes = offsetof(HelloFrame, header_crc);
static_assert(sizeof(HelloFrame) == 128);
static_assert(std::is_trivially_copyable_v<HelloFrame>);

enum class RespKind : std::uint32_t {
  kAck = 1,
  kFlag = 2,
  kFinal = 3,
  kError = 4,
};

struct RespFrame {
  std::uint32_t magic = kRespMagic;
  std::uint32_t kind = 0;       // RespKind
  std::uint64_t events = 0;     // cumulative events ingested by the engine
  std::uint64_t window = 0;     // kAck: per-stream in-flight event budget
  std::uint64_t flag_pos = 0;   // kFlag/kFinal: earliest violation position
  std::uint32_t flag_kind = 0;  // core::CertFlagKind
  std::uint32_t certified = 0;  // kFinal: 1 = stream certified
  std::uint32_t reason_len = 0; // trailing UTF-8 reason bytes (flag/error)
  std::uint32_t header_crc = 0; // CRC-32C over the bytes preceding
  // Followed by reason_len bytes of reason text.
};
inline constexpr std::size_t kRespCrcBytes = offsetof(RespFrame, header_crc);
static_assert(sizeof(RespFrame) == 48);
static_assert(std::is_trivially_copyable_v<RespFrame>);

/// Longest reason text either side will frame (longer ones truncate).
inline constexpr std::size_t kMaxReasonBytes = 4096;

inline void copy_padded(char* dst, std::size_t cap, const std::string& src) {
  std::memset(dst, 0, cap);
  std::memcpy(dst, src.data(), std::min(src.size(), cap - 1));
}

/// Build a CRC-sealed hello from log-style metadata + reserve hints.
[[nodiscard]] inline HelloFrame make_hello(const log::LogMetadata& meta,
                                           std::uint64_t reserve_txs = 0,
                                           std::uint64_t reserve_versions = 0) {
  HelloFrame h;
  h.num_vars = meta.num_vars;
  h.threads = meta.threads;
  h.reserve_txs = reserve_txs;
  h.reserve_versions = reserve_versions;
  copy_padded(h.runtime, log::kRuntimeChars, meta.runtime);
  copy_padded(h.policy, log::kPolicyChars, meta.policy);
  copy_padded(h.window_mode, log::kWindowModeChars, meta.window_mode);
  h.header_crc = util::crc32c(&h, kHelloCrcBytes);
  return h;
}

[[nodiscard]] inline bool hello_crc_ok(const HelloFrame& h) {
  return h.header_crc == util::crc32c(&h, kHelloCrcBytes);
}

[[nodiscard]] inline RespFrame seal_resp(RespFrame r) {
  r.header_crc = util::crc32c(&r, kRespCrcBytes);
  return r;
}

[[nodiscard]] inline bool resp_crc_ok(const RespFrame& r) {
  return r.header_crc == util::crc32c(&r, kRespCrcBytes);
}

/// NUL-padded fixed field -> std::string.
[[nodiscard]] inline std::string unpad(const char* s, std::size_t cap) {
  const std::size_t n = ::strnlen(s, cap);
  return std::string(s, n);
}

}  // namespace optm::net
