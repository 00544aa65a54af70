// verify_event_stream's memory bound, pinned to what holds: the event
// buffer. A stream several windows long that arrives as ONE oversized span
// from the EventPull still reaches the engine in window-sized ingests, and
// the verdict (and first-flag position) equals the in-RAM monitor's. The
// engine's own state is not bounded by the window — it grows with the
// transactions and versions seen — so no test here claims that.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>

#include "core/history.hpp"
#include "core/online.hpp"
#include "core/stream_verify.hpp"
#include "stm/recorder.hpp"

namespace optm::core {
namespace {

constexpr std::size_t kVars = 8;
constexpr std::size_t kWindow = 256;

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

[[nodiscard]] StreamVerifyResult expect_window_bounded_and_equivalent(const History& h,
                                                        std::size_t threads) {
  OnlineCertificateMonitor reference(h.model());
  (void)reference.ingest(h.events());

  bool pulled = false;
  const EventPull pull = [&]() -> std::span<const Event> {
    if (pulled) return {};
    pulled = true;
    return h.events();  // the whole stream in one span
  };
  StreamVerifyOptions options;
  options.window_events = kWindow;
  options.num_threads = threads;
  const StreamVerifyResult result = verify_event_stream(h.model(), pull,
                                                        options);

  EXPECT_GE(h.size(), 4 * kWindow);
  EXPECT_FALSE(result.used_sharded_driver);
  EXPECT_EQ(result.events, h.size());
  EXPECT_GE(result.windows, h.size() / kWindow)
      << "the oversized span was not split into window-sized ingests";
  EXPECT_EQ(result.certified, reference.ok());
  EXPECT_EQ(result.violation.has_value(), reference.violation().has_value());
  if (result.violation && reference.violation()) {
    EXPECT_EQ(result.violation->pos, reference.violation()->pos);
    EXPECT_EQ(result.violation->kind, reference.violation()->kind);
  }
  return result;
}

TEST(StreamVerifyWindow, OversizedSpanIsIngestedInWindows) {
  const History clean = record(200, static_cast<std::size_t>(-1));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(threads);
    EXPECT_TRUE(
        expect_window_bounded_and_equivalent(clean, threads).certified);
  }
}

TEST(StreamVerifyWindow, FlagPastTheFirstWindowMatchesInRamMonitor) {
  const History poisoned = record(200, 150);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(threads);
    const StreamVerifyResult r =
        expect_window_bounded_and_equivalent(poisoned, threads);
    ASSERT_TRUE(r.violation.has_value());
    EXPECT_GT(r.violation->pos, kWindow);
    EXPECT_EQ(r.violation->kind, CertFlagKind::kUnwrittenValue);
  }
}

}  // namespace
}  // namespace optm::core
