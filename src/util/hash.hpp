// Hashing building blocks shared by the checker memo tables, plus the
// CRC-32C used to frame the durable event log (log/format.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace optm::util {

[[nodiscard]] constexpr std::uint64_t fnv1a_init() noexcept {
  return 0xcbf29ce484222325ULL;
}

/// Fold one 64-bit word into an FNV-1a accumulator, byte by byte.
[[nodiscard]] constexpr std::uint64_t fnv1a_step(std::uint64_t h,
                                                 std::uint64_t word) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (i * 8)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// boost::hash_combine-style mixing for composite keys.
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t seed,
                                                   std::uint64_t v) noexcept {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// splitmix64 finalizer: a full-avalanche 64-bit mix. core::VersionTable
/// takes its home bucket from the top bits of the result and a 32-bit
/// fingerprint from the upper half, so every input bit must influence the
/// HIGH bits — hash_combine alone leaves them nearly constant for keys
/// whose entropy sits in low bits (small registers, counting values).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

namespace detail {

/// Reflected table for CRC-32C (Castagnoli, poly 0x1EDC6F41 reflected to
/// 0x82F63B78) — the checksum framing the on-disk event log and the
/// optm-net-v1 wire. This byte-at-a-time table is the ORACLE: the
/// dispatched implementations in crc32c.cpp (SSE4.2 / ARMv8 CRC
/// instructions, slice-by-8 software) are differentially fuzzed against
/// it, so the format's checksum can never silently change.
consteval std::array<std::uint32_t, 256> crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0x82f63b78u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32cTable = crc32c_table();

}  // namespace detail

/// Byte-at-a-time reference CRC-32C: the oracle the dispatched kernels
/// are tested against. constexpr so tests can also evaluate it at
/// compile time. Not for hot paths — use crc32c().
[[nodiscard]] constexpr std::uint32_t crc32c_reference(
    const void* data, std::size_t n, std::uint32_t seed = 0) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c = detail::kCrc32cTable[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return ~c;
}

/// CRC-32C of `n` bytes. `seed` chains incremental computations: pass the
/// previous call's return value to continue a running checksum.
///
/// Runtime-dispatched (crc32c.cpp): the first call probes the CPU and
/// caches a function pointer — SSE4.2 crc32q on x86-64, the ARMv8 CRC32
/// extension on aarch64, a slice-by-8 software kernel everywhere else.
/// All backends produce bit-identical results (enforced by the
/// differential fuzz in tests/util/crc32c_test.cpp), so the on-disk and
/// on-wire formats are unchanged by the dispatch.
[[nodiscard]] std::uint32_t crc32c(const void* data, std::size_t n,
                                   std::uint32_t seed = 0) noexcept;

/// The portable slice-by-8 kernel, callable directly for tests/benches.
[[nodiscard]] std::uint32_t crc32c_portable(const void* data, std::size_t n,
                                            std::uint32_t seed = 0) noexcept;

/// True when this CPU has a CRC-32C instruction the dispatcher will use.
[[nodiscard]] bool crc32c_hw_available() noexcept;

/// The hardware kernel. Precondition: crc32c_hw_available().
[[nodiscard]] std::uint32_t crc32c_hw(const void* data, std::size_t n,
                                      std::uint32_t seed = 0) noexcept;

/// Name of the backend crc32c() dispatches to: "sse4.2", "armv8-crc" or
/// "slice8" (for logs and bench labels).
[[nodiscard]] const char* crc32c_backend_name() noexcept;

}  // namespace optm::util
