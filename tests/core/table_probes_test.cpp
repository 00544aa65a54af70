// One index probe per version: OnlineCertificateMonitor calls into its
// version index (VersionTable::slot() or find()) once per write response
// and once per read of a value other than its register's current one —
// never at the install, which fills the record through the address the
// write response stored. resident().table_probes counts the calls, and
// the count here is derived from the stream alone: a replay of what each
// register's current value is at every event.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/online.hpp"
#include "core/stream_verify.hpp"
#include "stm/factory.hpp"
#include "stm/recorder.hpp"
#include "workload/workloads.hpp"

namespace optm::core {
namespace {

struct ExpectedProbes {
  std::size_t write_responses = 0;
  std::size_t non_current_reads = 0;
  [[nodiscard]] std::size_t total() const noexcept {
    return write_responses + non_current_reads;
  }
};

/// The probes a clean stream costs: every write response, and every read
/// that is neither local (the reader wrote the register) nor of the
/// register's current committed value. Registers start at 0.
[[nodiscard]] ExpectedProbes expected_probes(std::size_t registers,
                                             std::span<const Event> events) {
  ExpectedProbes out;
  std::vector<Value> current(registers, 0);
  std::unordered_map<TxId, std::map<ObjId, Value>> writes;
  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kResponse:
        if (e.op == OpCode::kWrite) {
          ++out.write_responses;
          writes[e.tx][e.obj] = e.arg;
        } else if (!writes[e.tx].contains(e.obj) && e.ret != current[e.obj]) {
          ++out.non_current_reads;
        }
        break;
      case EventKind::kCommit:
        for (const auto& [obj, value] : writes[e.tx]) current[obj] = value;
        writes.erase(e.tx);
        break;
      case EventKind::kAbort:
        writes.erase(e.tx);
        break;
      default:
        break;
    }
  }
  return out;
}

// The stream certify-log sees: window-free tl2 under kStampedRead, three
// processes on 4096 registers (here one seeded interleaving, so the
// stream is the same on every run), certified in 2048-event pulls.
TEST(TableProbes, OnePerWriteResponseAndNonCurrentReadOnAMillionEvents) {
  constexpr std::uint32_t kVars = 4096;
  const auto stm = stm::make_stm("tl2", kVars);
  ASSERT_TRUE(stm->set_window_free(true));
  stm::Recorder recorder(kVars);
  stm->set_recorder(&recorder);
  wl::MixParams params;
  params.threads = 3;
  params.vars = kVars;
  params.ops_per_tx = 4;
  params.write_ratio = 0.5;
  params.txs_per_thread = 34'000;
  params.seed = 20261018;
  (void)wl::run_interleaved_mix(*stm, params);
  const History h = recorder.history();
  ASSERT_GE(h.size(), 1'000'000u);

  const std::span<const Event> events(h.events());
  std::size_t next = 0;
  const EventPull pull = [&] {
    const std::size_t n = std::min<std::size_t>(2048, events.size() - next);
    next += n;
    return events.subspan(next - n, n);
  };
  StreamVerifyOptions options;
  options.policy = VersionOrderPolicy::kStampedRead;
  const StreamVerifyResult r = verify_event_stream(h.model(), pull, options);
  ASSERT_TRUE(r.certified) << r.violation->reason;

  const ExpectedProbes want = expected_probes(kVars, events);
  EXPECT_GT(want.write_responses, 0u);
  EXPECT_EQ(r.resident.table_probes, want.total())
      << want.write_responses << " write responses, "
      << want.non_current_reads << " reads of a non-current value";
}

// Reads of older versions take the find() path: a reader that began
// before an overwrite reads the overwritten value afterwards, once per
// round, under every policy that certifies the history.
TEST(TableProbes, ReadOfAnOlderVersionProbesOnce) {
  constexpr std::size_t kRounds = 100;
  const ObjectModel model = ObjectModel::registers(2, 0);
  std::vector<Event> events;
  Value old_value = 0;
  for (std::size_t i = 0; i < kRounds; ++i) {
    const auto reader = static_cast<TxId>(2 * i + 1);
    const TxId writer = reader + 1;
    const auto value = static_cast<Value>(i + 1);
    events.insert(
        events.end(),
        {// The reader begins on x1, so the overwrite of x0 below comes
         // after its birth.
         ev::inv(reader, 1, OpCode::kRead), ev::ret(reader, 1, OpCode::kRead, 0, 0),
         // The writer writes x0, reads its own write back (a local read:
         // no probe) and commits.
         ev::inv(writer, 0, OpCode::kWrite, value),
         ev::ret(writer, 0, OpCode::kWrite, value, 0),
         ev::inv(writer, 0, OpCode::kRead), ev::ret(writer, 0, OpCode::kRead, 0, value),
         ev::try_commit(writer), ev::commit(writer),
         // The reader reads x0's overwritten value: not current any more.
         ev::inv(reader, 0, OpCode::kRead),
         ev::ret(reader, 0, OpCode::kRead, 0, old_value),
         ev::try_commit(reader), ev::commit(reader)});
    old_value = value;
  }
  const ExpectedProbes want = expected_probes(model.size(), events);
  ASSERT_EQ(want.write_responses, kRounds);
  ASSERT_EQ(want.non_current_reads, kRounds);
  for (const VersionOrderPolicy policy :
       {VersionOrderPolicy::kCommitOrder, VersionOrderPolicy::kSnapshotRank,
        VersionOrderPolicy::kStampedRead}) {
    SCOPED_TRACE(to_string(policy));
    OnlineCertificateMonitor m(model, policy);
    ASSERT_TRUE(m.ingest(events)) << m.violation()->reason;
    EXPECT_EQ(m.resident().table_probes, want.total());
  }
}

}  // namespace
}  // namespace optm::core
