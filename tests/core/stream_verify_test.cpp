// verify_event_stream pulls on a reader thread and copies each span into a
// fixed ring before the next pull, so the EventPull contract — a span need
// only stay valid until the next call — still holds. The pull here hands
// out every span from ONE reused buffer and overwrites that buffer with
// garbage on each call: an engine that read a span after the next pull
// (a copy made too late, or no copy) would certify garbage. The verdict
// and the first flag (position and kind) must equal the in-RAM monitor's,
// for a clean and for a poisoned recording. The pipeline cases below pin
// the hand-off between the two threads: a throwing pull, one pull at a
// time and none after the end, an empty stream, and a flagged stream that
// runs on for many rings.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
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

// --- the read-ahead pipeline ------------------------------------------------

/// A pull over `h` in spans of `span` events, each copied into one reused
/// buffer.
class SpanPull {
 public:
  SpanPull(const History& h, std::size_t span) : h_(h), span_(span) {}
  std::span<const Event> operator()() {
    const std::size_t n = std::min(span_, h_.size() - next_);
    buffer_.assign(h_.events().begin() + static_cast<std::ptrdiff_t>(next_),
                   h_.events().begin() + static_cast<std::ptrdiff_t>(next_ + n));
    next_ += n;
    return buffer_;
  }

 private:
  const History& h_;
  std::size_t span_;
  std::size_t next_ = 0;
  std::vector<Event> buffer_;
};

// A pull that throws on its k-th call: the exception leaves
// verify_event_stream on the caller's thread (no std::terminate from the
// reader thread), for a throw before the ring fills, on its last slot and
// once the reader has lapped it several times.
TEST(StreamVerifyPipeline, PullExceptionIsRethrownOnTheCaller) {
  const History h = record(400, kNoPoison);
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{3}, kReadAheadSlots,
        kReadAheadSlots + 1, 5 * kReadAheadSlots + 3}) {
    SpanPull spans(h, 4);
    std::size_t calls = 0;
    const EventPull pull = [&]() -> std::span<const Event> {
      if (++calls == k) throw std::runtime_error("pull " + std::to_string(k));
      return spans();
    };
    try {
      (void)verify_event_stream(h.model(), pull);
      ADD_FAILURE() << "no exception for a throw on call " << k;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "pull " + std::to_string(k));
    }
    EXPECT_EQ(calls, k) << "pulled on after the throw";
  }
}

// `next` runs one call at a time and never after it returned an empty
// span, on streams many rings long.
TEST(StreamVerifyPipeline, PullsOneAtATimeAndNeverAfterTheEnd) {
  const History h = record(2000, kNoPoison);  // 16000 events
  for (const std::size_t span : {std::size_t{1}, std::size_t{5},
                                 std::size_t{97}}) {
    SpanPull spans(h, span);
    std::atomic<int> in_flight{0};
    std::atomic<bool> overlapped{false};
    std::atomic<std::size_t> calls{0};
    std::atomic<std::size_t> calls_after_end{0};
    std::atomic<bool> ended{false};
    const EventPull pull = [&]() -> std::span<const Event> {
      if (in_flight.fetch_add(1) != 0) overlapped = true;
      ++calls;
      if (ended) ++calls_after_end;
      const std::span<const Event> out = spans();
      if (out.empty()) ended = true;
      in_flight.fetch_sub(1);
      return out;
    };
    const StreamVerifyResult r = verify_event_stream(h.model(), pull);
    EXPECT_TRUE(r.certified);
    EXPECT_EQ(r.events, h.size());
    EXPECT_FALSE(overlapped) << "two pulls at once, span " << span;
    EXPECT_EQ(calls_after_end, 0u) << "pulled past the end, span " << span;
    EXPECT_EQ(calls, (h.size() + span - 1) / span + 1);
    EXPECT_GT(calls, 4 * kReadAheadSlots);
  }
}

TEST(StreamVerifyPipeline, EmptyStreamCertifiesWithNoEvents) {
  std::size_t calls = 0;
  const EventPull pull = [&]() -> std::span<const Event> {
    ++calls;
    return {};
  };
  const StreamVerifyResult r =
      verify_event_stream(ObjectModel::registers(kVars, 0), pull);
  EXPECT_TRUE(r.certified);
  EXPECT_FALSE(r.violation.has_value());
  EXPECT_EQ(r.events, 0u);
  EXPECT_EQ(calls, 1u);
}

// The monitor flags in the first span and the stream runs on for many
// rings: the reader keeps the ring full behind a latched monitor, `events`
// counts the whole stream, and the flag is the in-RAM monitor's.
TEST(StreamVerifyPipeline, EarlyFlagCountsTheWholeStream) {
  const History h = record(600, 0);  // the first reader reads a value nobody wrote
  OnlineCertificateMonitor reference(h.model());
  (void)reference.ingest(h.events());
  ASSERT_TRUE(reference.violation().has_value());
  constexpr std::size_t kSpan = 16;
  ASSERT_LT(reference.violation()->pos, kSpan);
  ASSERT_GT(h.size(), 4 * kReadAheadSlots * kSpan);

  SpanPull spans(h, kSpan);
  const EventPull pull = [&] { return spans(); };
  const StreamVerifyResult r = verify_event_stream(h.model(), pull);
  EXPECT_FALSE(r.certified);
  EXPECT_EQ(r.events, h.size());
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_EQ(r.violation->pos, reference.violation()->pos);
  EXPECT_EQ(r.violation->kind, reference.violation()->kind);
}

// The monitor throws (a model that is not all registers) while the reader
// runs on an endless stream: the reader is stopped and joined before the
// exception leaves verify_event_stream, so the call neither hangs on a full
// ring nor destroys a joinable thread.
TEST(StreamVerifyPipeline, MonitorExceptionStopsAndJoinsTheReader) {
  ObjectModel counters;
  counters.add(std::make_shared<CounterSpec>());
  const std::vector<Event> block(64, ev::try_commit(1));
  std::atomic<std::size_t> calls{0};
  const EventPull endless = [&]() -> std::span<const Event> {
    ++calls;
    return block;
  };
  EXPECT_THROW((void)verify_event_stream(counters, endless),
               std::invalid_argument);
  const std::size_t after = calls.load();
  EXPECT_LE(after, kReadAheadSlots);
  EXPECT_EQ(calls.load(), after) << "the reader outlived the call";
}

}  // namespace
}  // namespace optm::core
