// On-disk format of the durable segmented event log ("optm-log-v1").
//
// A log is a directory of fixed-capacity segment files
//
//   seg-000000.optmlog, seg-000001.optmlog, ...
//
// each laid out as
//
//   [SegmentHeader | Block | Block | ... | end]
//
// SegmentHeader is one 4 KiB page: magic, format version, the
// runtime/policy/window-mode metadata mirroring the optm-soak-v1 JSON
// fields, the global stamp of the segment's first event, and a CRC-32C
// over the header prefix. Each Block is a 24-byte BlockHeader followed by
// a payload of raw `core::Event` records (48 bytes each, native layout,
// native endianness — the log is a same-machine audit trail, not an
// interchange format; `event_size` in the header guards cross-ABI reads).
// Every block corresponds to one stamp-contiguous `Recorder::drain()`
// batch (split only at segment capacity), so `BlockHeader::first_stamp`
// equals the cumulative event count and the reader can verify stamp
// continuity within and across segments.
//
// Alignment: the header page is 4 KiB and sizeof(BlockHeader) == 24 with
// sizeof(Event) == 48 — both multiples of 8 — so every payload starts
// 8-aligned in the mapping and the reader hands out
// `std::span<const core::Event>` views straight over the mmap, zero-copy.
//
// Rotation: the writer pre-sizes each segment to `segment_bytes` (so a
// crash leaves zeroed, cleanly-detectable space, never garbage from a
// recycled file) and rotates when the next block would not fit. A clean
// close truncates the tail segment to its used size and seals the end
// with either exact EOF or a zero `block_magic`. A rotated segment that
// packs full can leave a residual SHORTER than a BlockHeader — the 4 KiB
// header is 16 mod 24 and blocks are 24+48n bytes, so the residual is
// (segment_bytes - 4096) mod 24 — which stays all-zero; the reader
// treats an all-zero sub-header residual as clean end-of-segment and
// only a nonzero byte in it as a torn write.
//
// Truncation rules (crash tolerance): a block in the LAST segment whose
// header or payload fails magic/CRC/bounds checks is a torn tail — the
// reader drops it (and everything after it) and reports the number of
// bytes dropped; the surviving prefix is still certifiable. The same
// damage in a non-final segment, or a damaged segment header, is a hard
// error: certification refuses rather than silently verifying a gapped
// history (never mis-certify). A crash can also leave a final segment
// whose header page never hit the disk (a kill between open and sizing,
// or before the header page was written back); the reader drops such a
// trailing headerless file whole — nothing in it was ever reported
// durable. Logs from the earlier pipelined writer, which kept the NEXT
// segment pre-created while the current one filled, can hold one more
// trailing headerless file; the reader drops that too. Headerless files
// anywhere but the tail remain hard errors.
//
// Note (v1 stability): the hardware CRC-32C dispatch (util/crc32c.cpp)
// changed HOW the checksum is computed, and the removal of the pipelined
// writer changed WHO does the syscalls, not the bytes: the on-disk
// layout above and the CRC-32C polynomial (Castagnoli, reflected
// 0x82F63B78) are unchanged, and the reader still recovers the crash
// artifacts either writer can leave (tests/log/log_recovery_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>

#include "core/event.hpp"

namespace optm::log {

/// "OPTMLOG1" little-endian.
inline constexpr std::uint64_t kSegmentMagic = 0x3147'4f4c'4d54'504fULL;
inline constexpr std::uint32_t kFormatVersion = 1;
/// "BLK1" little-endian. A zero magic marks the end of a segment.
inline constexpr std::uint32_t kBlockMagic = 0x314b'4c42u;
inline constexpr std::size_t kSegmentHeaderBytes = 4096;
inline constexpr char kSegmentSuffix[] = ".optmlog";

/// Fixed metadata strings are NUL-padded; longer values are truncated.
inline constexpr std::size_t kRuntimeChars = 32;
inline constexpr std::size_t kPolicyChars = 32;
inline constexpr std::size_t kWindowModeChars = 16;

struct SegmentHeader {
  std::uint64_t magic = kSegmentMagic;
  std::uint32_t format_version = kFormatVersion;
  std::uint32_t header_bytes = kSegmentHeaderBytes;
  std::uint64_t segment_index = 0;   // position in the log, from 0
  std::uint64_t segment_bytes = 0;   // configured rotation capacity
  std::uint64_t first_stamp = 0;     // global stamp of this segment's first event
  std::uint32_t event_size = sizeof(core::Event);  // cross-ABI guard
  std::uint32_t num_vars = 0;        // registers in the recorded model
  std::uint32_t threads = 0;         // workload threads (informational)
  std::uint32_t reserved = 0;
  // optm-soak-v1 metadata mirror: stm name, version-order name (written
  // as "stamped-read"; the four historical names all load, see
  // core::is_version_order_name), "window-free" / "windowed".
  char runtime[kRuntimeChars] = {};
  char policy[kPolicyChars] = {};
  char window_mode[kWindowModeChars] = {};
  /// CRC-32C over the bytes preceding this field.
  std::uint32_t header_crc = 0;
  // Rest of the 4 KiB page is zero.
};

inline constexpr std::size_t kSegmentHeaderUsedBytes =
    offsetof(SegmentHeader, header_crc) + sizeof(std::uint32_t);
static_assert(kSegmentHeaderUsedBytes <= kSegmentHeaderBytes);
static_assert(std::is_trivially_copyable_v<SegmentHeader>);

struct BlockHeader {
  std::uint32_t block_magic = kBlockMagic;  // 0 == end of segment
  std::uint32_t event_count = 0;
  std::uint64_t first_stamp = 0;  // global stamp of the block's first event
  std::uint32_t payload_crc = 0;  // CRC-32C over event_count * sizeof(Event)
  std::uint32_t header_crc = 0;   // CRC-32C over the 20 bytes above
};

inline constexpr std::size_t kBlockHeaderCrcBytes =
    offsetof(BlockHeader, header_crc);
static_assert(sizeof(BlockHeader) == 24);
static_assert(sizeof(BlockHeader) % alignof(core::Event) == 0);
static_assert(std::is_trivially_copyable_v<BlockHeader>);

// The payload IS the in-memory representation: 48-byte trivially copyable
// events, cast straight out of the 8-aligned mapping.
static_assert(sizeof(core::Event) == 48);
static_assert(alignof(core::Event) == 8);
static_assert(std::is_trivially_copyable_v<core::Event>);
static_assert(kSegmentHeaderBytes % alignof(core::Event) == 0);

/// Smallest segment capacity that still holds one single-event block.
inline constexpr std::size_t kMinSegmentBytes =
    kSegmentHeaderBytes + sizeof(BlockHeader) + sizeof(core::Event);

/// "seg-000042.optmlog"
[[nodiscard]] inline std::string segment_file_name(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "seg-%06llu%s",
                static_cast<unsigned long long>(index), kSegmentSuffix);
  return buf;
}

}  // namespace optm::log
