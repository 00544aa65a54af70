// The allocation-free hot path, held to its word: feed 100k+ recorded
// events through OnlineCertificateMonitor under a counting operator-new
// and assert ZERO heap allocations after warm-up (reserve()), per policy.
//
// The monitor's per-event state is a TxId-indexed slab, a version table
// (a chunked record archive under a fingerprint index, both pre-sized by
// reserve()), pooled write-set spill storage and reusable holder lists
// (core/dense_state.hpp); failure strings exist only on flags. With the
// dense state pre-sized for the run, nothing on the feed path touches
// the heap — which is exactly what lets the live pipeline verify at
// recording speed. kBlindWriteSmart is exempt by design: it retains the
// prefix for the §3.6 reorder search (checker-scale, documented).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/online.hpp"
#include "stm/factory.hpp"
#include "stm/recorder.hpp"
#include "workload/workloads.hpp"
#include "hot_register_stream.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Counting global allocator: every operator-new in the binary bumps the
// counter. Works under ASan/TSan too (they intercept the malloc beneath).
// GCC cannot see that the replaced operator-new is malloc-backed and warns
// about the free() in the matching deletes; the pairing is correct here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
// Over-aligned allocations must count too (alignas(64) members would
// otherwise escape the gate through the aligned overloads).
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace optm::core {
namespace {

/// Record a single-threaded deterministic mix (window-free tl2, so read
/// responses carry their (rv, version) stamps and every policy below has
/// real material to validate). Single-threaded keeps the recording
/// deterministic; the monitor does not care who recorded.
[[nodiscard]] History recorded_history(std::size_t target_events) {
  const auto stm = stm::make_stm("tl2", 32);
  EXPECT_TRUE(stm->set_window_free(true));
  stm::Recorder recorder(32);
  stm->set_recorder(&recorder);
  wl::MixParams params;
  params.threads = 1;
  params.vars = 32;
  // ~2 events per op + ~3 lifecycle events per transaction, sized with
  // slack (aborted transactions record fewer events).
  params.ops_per_tx = 4;  // <= SmallWriteSet<P>::kInlineCapacity: no spill
  params.txs_per_thread = target_events / (2 * params.ops_per_tx + 1) + 1;
  params.write_ratio = 0.4;
  params.voluntary_abort_ratio = 0.05;
  params.seed = 20260730;
  (void)wl::run_random_mix(*stm, params);
  return recorder.history();
}

struct ReserveSizes {
  std::size_t num_txs = 0;
  std::size_t num_versions = 0;
  std::size_t holders = 0;
};

/// Upper bounds computable from the history alone — what a production
/// deployment would size from its expected load.
[[nodiscard]] ReserveSizes sizes_for(const History& h) {
  ReserveSizes s;
  TxId max_tx = 0;
  std::size_t writes = 0;
  std::vector<std::size_t> reads_per_obj(h.model().size(), 0);
  for (const Event& e : h.events()) {
    if (e.tx > max_tx) max_tx = e.tx;
    if (e.kind != EventKind::kResponse) continue;
    if (e.op == OpCode::kWrite) {
      ++writes;
    } else if (e.op == OpCode::kRead) {
      ++reads_per_obj[e.obj];
    }
  }
  s.num_txs = static_cast<std::size_t>(max_tx) + 2;
  s.num_versions = writes + h.model().size() + 1;
  for (const std::size_t n : reads_per_obj) s.holders = std::max(s.holders, n);
  return s;
}

class MonitorAllocTest
    : public ::testing::TestWithParam<VersionOrderPolicy> {};

TEST_P(MonitorAllocTest, SteadyStateFeedsWithoutAllocating) {
  const VersionOrderPolicy policy = GetParam();
  const History h = recorded_history(100'000);
  ASSERT_GE(h.size(), 100'000u) << "workload undershot the event target";

  OnlineCertificateMonitor monitor(h.model(), policy);
  // Warm-up: pre-size the dense state from the recorded load.
  const ReserveSizes sizes = sizes_for(h);
  monitor.reserve(sizes.num_txs, sizes.num_versions, sizes.holders);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (const Event& e : h.events()) {
    if (!monitor.feed(e)) break;  // a flag would allocate its reason string
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_TRUE(monitor.ok()) << to_string(policy) << ": "
                            << monitor.violation()->reason;
  EXPECT_EQ(monitor.events_fed(), h.size());
  EXPECT_EQ(after - before, 0u)
      << to_string(policy) << ": the hot path allocated " << (after - before)
      << " times over " << h.size() << " events";
}

INSTANTIATE_TEST_SUITE_P(Policies, MonitorAllocTest,
                         ::testing::Values(VersionOrderPolicy::kCommitOrder,
                                           VersionOrderPolicy::kSnapshotRank,
                                           VersionOrderPolicy::kStampedRead),
                         [](const auto& info) {
                           switch (info.param) {
                             case VersionOrderPolicy::kCommitOrder:
                               return "CommitOrder";
                             case VersionOrderPolicy::kSnapshotRank:
                               return "SnapshotRank";
                             case VersionOrderPolicy::kStampedRead:
                               return "StampedRead";
                             default:
                               return "Other";
                           }
                         });

/// The batch path must be equally clean: ingest() in drain-sized batches.
TEST(MonitorAllocBatch, IngestAllocatesNothingSteadyState) {
  const History h = recorded_history(100'000);
  OnlineCertificateMonitor monitor(h.model(),
                                   VersionOrderPolicy::kStampedRead);
  const ReserveSizes sizes = sizes_for(h);
  monitor.reserve(sizes.num_txs, sizes.num_versions, sizes.holders);

  const std::span<const Event> events(h.events());
  const std::size_t batch = 1024;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < events.size(); i += batch) {
    (void)monitor.ingest(
        events.subspan(i, std::min(batch, events.size() - i)));
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(monitor.ok());
  EXPECT_EQ(after - before, 0u);
}

/// More live holders of one register than its head holds inline: the
/// overflow lists reserve() pre-sizes must absorb them, and releasing and
/// re-taking them at every install must not allocate either.
TEST(MonitorAllocOverflow, HolderOverflowAllocatesNothingSteadyState) {
  constexpr std::uint32_t kReaders = 12;
  HotRegisterStream stream(kReaders);
  std::vector<Event> events(200'000);
  for (Event& e : events) e = stream.next();

  OnlineCertificateMonitor monitor(
      ObjectModel::registers(HotRegisterStream::kRegisters),
      VersionOrderPolicy::kStampedRead);
  monitor.reserve(stream.txs_started() + 2, events.size(),
                  /*holders_per_register=*/4 * kReaders);

  std::size_t max_holders = 0;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (const Event& e : events) {
    if (!monitor.feed(e)) break;
    max_holders = std::max(max_holders, monitor.resident().holder_entries);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(monitor.ok()) << monitor.violation()->reason;
  EXPECT_GT(monitor.commits_seen(), 3'000u);
  EXPECT_GT(max_holders, 6u) << "the holders never spilled past the head";
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace optm::core
