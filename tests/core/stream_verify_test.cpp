// verify_event_stream buffers nothing, so the EventPull contract — a span
// need only stay valid until the next call — is all that bounds its event
// memory. The pull here hands out every span from ONE reused buffer and
// overwrites that buffer with garbage on each call: an engine that kept a
// span past the next pull would certify garbage. The verdict and the first
// flag (position and kind) must equal the in-RAM monitor's, for a clean
// and for a poisoned recording.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <span>
#include <vector>

#include "core/history.hpp"
#include "core/online.hpp"
#include "core/stream_verify.hpp"
#include "stm/recorder.hpp"

namespace optm::core {
namespace {

constexpr std::size_t kVars = 8;
constexpr std::size_t kNoPoison = static_cast<std::size_t>(-1);

/// A sequential recording: committed writers, each followed by a reader
/// of the value it wrote. With `poison_at` set, the transaction at that
/// index reads a value nobody wrote (kUnwrittenValue when ingested).
[[nodiscard]] History record(std::size_t txs, std::size_t poison_at) {
  stm::Recorder rec(kVars);
  for (std::size_t i = 0; i < txs; ++i) {
    const auto var = static_cast<stm::VarId>(i % kVars);
    const auto value = static_cast<Value>(i + 1);
    const TxId w = rec.begin_tx();
    rec.on_inv(0, w, var, OpCode::kWrite, value);
    rec.on_ret(0, w, var, OpCode::kWrite, value, kOk);
    rec.on_try_commit(0, w);
    rec.on_commit(0, w);
    const TxId r = rec.begin_tx();
    const Value read = i == poison_at ? Value{987654321} : value;
    rec.on_inv(0, r, var, OpCode::kRead, 0);
    rec.on_ret(0, r, var, OpCode::kRead, 0, read);
    rec.on_try_commit(0, r);
    rec.on_commit(0, r);
  }
  return rec.history();
}

/// An event no recording holds: a response of an unborn transaction on a
/// register outside the model, which the monitor would flag at once.
[[nodiscard]] Event garbage() {
  return ev::ret(0xdeadbeef, 0xbad, OpCode::kRead, 0, 0x5eed);
}

/// Streams `h` through verify_event_stream in uneven spans, all carved
/// from one buffer that is overwritten with garbage at the next call, and
/// checks the result against the in-RAM monitor.
[[nodiscard]] StreamVerifyResult expect_matches_in_ram_monitor(
    const History& h) {
  OnlineCertificateMonitor reference(h.model());
  (void)reference.ingest(h.events());

  constexpr std::size_t kSpanSizes[] = {1, 7, 64, 3, 300};
  std::vector<Event> buffer(*std::max_element(std::begin(kSpanSizes),
                                              std::end(kSpanSizes)));
  std::size_t next = 0;
  std::size_t calls = 0;
  const EventPull pull = [&]() -> std::span<const Event> {
    std::fill(buffer.begin(), buffer.end(), garbage());
    const std::size_t n = std::min(
        kSpanSizes[calls++ % std::size(kSpanSizes)], h.size() - next);
    std::copy_n(h.events().begin() + static_cast<std::ptrdiff_t>(next), n,
                buffer.begin());
    next += n;
    return std::span<const Event>(buffer.data(), n);
  };
  const StreamVerifyResult result = verify_event_stream(h.model(), pull);

  EXPECT_EQ(result.events, h.size());
  EXPECT_EQ(result.certified, reference.ok());
  EXPECT_EQ(result.violation.has_value(), reference.violation().has_value());
  if (result.violation && reference.violation()) {
    EXPECT_EQ(result.violation->pos, reference.violation()->pos);
    EXPECT_EQ(result.violation->kind, reference.violation()->kind);
  }
  return result;
}

TEST(StreamVerifyPull, ReusedSpanBufferCertifiesLikeInRamMonitor) {
  const History clean = record(200, kNoPoison);
  EXPECT_TRUE(expect_matches_in_ram_monitor(clean).certified);
}

TEST(StreamVerifyPull, ReusedSpanBufferFlagsWhereInRamMonitorDoes) {
  const History poisoned = record(200, 150);
  const StreamVerifyResult r = expect_matches_in_ram_monitor(poisoned);
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_EQ(r.violation->kind, CertFlagKind::kUnwrittenValue);
}

// The version table's memory, from the counters the result carries. The
// stream ends one version past an index doubling, where the index is at
// its emptiest (load just over 1/4): an archive entry plus 8-byte index
// slots then cost at most 64 B per version, chunk slack aside. A table of
// 40-byte slots at the same point costs 160 B per version.
TEST(StreamVerifyResident, VersionBytesStayUnder80PerVersionPastADoubling) {
  constexpr std::size_t kVersions = (std::size_t{1} << 17) + 1;
  constexpr std::size_t kWriters = kVersions - kVars;  // initial values too
  // Writer i writes x(i % kVars) := i + 1 and commits; a reader reads it.
  std::vector<Event> buffer;
  std::size_t i = 0;
  const EventPull pull = [&]() -> std::span<const Event> {
    buffer.clear();
    for (; i < kWriters && buffer.size() < 4096; ++i) {
      const auto var = static_cast<ObjId>(i % kVars);
      const auto value = static_cast<Value>(i + 1);
      const auto w = static_cast<TxId>(2 * i + 1);
      const TxId r = w + 1;
      buffer.insert(buffer.end(),
                    {ev::inv(w, var, OpCode::kWrite, value),
                     ev::ret(w, var, OpCode::kWrite, value, 0),
                     ev::try_commit(w), ev::commit(w),
                     ev::inv(r, var, OpCode::kRead),
                     ev::ret(r, var, OpCode::kRead, 0, value),
                     ev::try_commit(r), ev::commit(r)});
    }
    return buffer;
  };
  const StreamVerifyResult r =
      verify_event_stream(ObjectModel::registers(kVars, 0), pull);
  EXPECT_TRUE(r.certified);
  EXPECT_GE(r.events, 1'000'000u);
  EXPECT_EQ(r.resident.versions, kVersions);
  EXPECT_GE(r.resident.version_bytes, 32 * kVersions);
  EXPECT_LE(r.resident.version_bytes, 80 * kVersions)
      << r.resident.version_bytes / kVersions << " B per version";
}

}  // namespace
}  // namespace optm::core
