// Batch ingestion must agree with the single-event streaming certificate
// monitor — same verdict, same first condemned position — on fuzzed
// histories, clean recorded runs, and the paper's own counterexamples;
// on fuzzed histories every policy's monitor must flag no later than the
// exact definitional monitor, and a flag is adjudicated against
// Definition 1. The LookAhead suite holds ingest()'s
// look-ahead (it prefetches for the event kAhead further down the span)
// to feed()'s verdict, flag position, kind and reason at the edges of
// the look-ahead window, under every policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/adjudicate.hpp"
#include "core/online.hpp"
#include "core/paper.hpp"
#include "core/random_history.hpp"
#include "stm/factory.hpp"
#include "stm/recorder.hpp"
#include "workload/workloads.hpp"

namespace optm::core {
namespace {

[[nodiscard]] std::optional<OnlineViolation> stream_one_by_one(
    const History& h) {
  OnlineCertificateMonitor m(h.model());
  for (const Event& e : h.events()) (void)m.feed(e);
  return m.violation();
}

class BatchEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchEquivalence, IngestMatchesFeedForEveryBatchSize) {
  for (const ValueModel model :
       {ValueModel::kCoherent, ValueModel::kAdversarial}) {
    RandomHistoryParams params;
    params.seed = GetParam();
    params.num_txs = 8;
    params.num_objects = 4;
    params.value_model = model;
    const History h = random_history(params);
    const auto reference = stream_one_by_one(h);

    for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                    std::size_t{16}, h.size() + 1}) {
      OnlineCertificateMonitor m(h.model());
      const std::span<const Event> events(h.events());
      for (std::size_t i = 0; i < events.size(); i += batch) {
        (void)m.ingest(events.subspan(i, std::min(batch, events.size() - i)));
      }
      EXPECT_EQ(m.ok(), !reference.has_value()) << h.str();
      EXPECT_EQ(m.events_fed(), h.size());
      if (reference.has_value()) {
        ASSERT_TRUE(m.violation().has_value());
        EXPECT_EQ(m.violation()->pos, reference->pos) << h.str();
        EXPECT_EQ(m.violation()->reason, reference->reason);
      }
    }
  }
}

constexpr VersionOrderPolicy kPolicies[] = {
    VersionOrderPolicy::kCommitOrder,
    VersionOrderPolicy::kBlindWriteSmart,
    VersionOrderPolicy::kSnapshotRank,
    VersionOrderPolicy::kStampedRead,
};

// The certificate is sufficient: if Definition 1 first fails on the prefix
// ending at p, every policy's monitor has flagged at or before p, and a
// run a monitor certifies end to end is opaque.
TEST_P(BatchEquivalence, DefinitionalFlagBoundsEveryPolicy) {
  for (const ValueModel model :
       {ValueModel::kCoherent, ValueModel::kAdversarial}) {
    RandomHistoryParams params;
    params.seed = GetParam() + 5000;
    params.num_txs = 8;
    params.num_objects = 4;
    params.max_ops_per_tx = 5;
    params.value_model = model;
    const History h = random_history(params);
    OnlineDefinitionalMonitor exact(h.model());
    (void)exact.ingest(h.events());
    if (exact.violation().has_value()) {
      ASSERT_NE(exact.violation()->kind, CertFlagKind::kBudgetExhausted);
    }

    for (const VersionOrderPolicy policy : kPolicies) {
      OnlineCertificateMonitor m(h.model(), policy);
      (void)m.ingest(h.events());
      if (exact.violation().has_value()) {
        ASSERT_FALSE(m.ok()) << to_string(policy) << "\n" << h.str();
        EXPECT_LE(m.violation()->pos, exact.violation()->pos)
            << to_string(policy) << ": " << m.violation()->reason
            << "\nexact: " << exact.violation()->reason << "\n"
            << h.str();
      }
      if (m.ok()) {
        EXPECT_EQ(check_opacity(h).verdict, Verdict::kYes)
            << to_string(policy) << "\n" << h.str();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEquivalence,
                         ::testing::Range<std::uint64_t>(1, 61));

TEST(PaperHistories, MonitorCertifiesTheOpaquePaperHistory) {
  const History h5 = paper::fig2_h5();
  const auto violation = stream_one_by_one(h5);
  EXPECT_FALSE(violation.has_value()) << violation->reason;
}

TEST(PaperHistories, FlagOnTheNonOpaquePaperHistoryAdjudicatesNo) {
  const History h1 = paper::fig1_h1();
  const auto violation = stream_one_by_one(h1);
  ASSERT_TRUE(violation.has_value());
  // H1 is genuinely non-opaque, and the flagged prefix already is.
  const Adjudication a = adjudicate(h1, *violation);
  EXPECT_EQ(a.verdict, Verdict::kNo) << a.reason;
}

// --- the look-ahead's edges ---------------------------------------------------

constexpr std::size_t kAhead = OnlineCertificateMonitor::kAhead;

/// Span sizes around the look-ahead distance, and the drain's hand-over.
constexpr std::size_t kSpans[] = {1, kAhead - 1, kAhead, kAhead + 1, 2048};

/// `events` ingested in spans of every size in kSpans must end exactly as
/// feeding them one at a time does, under every policy. Returns the
/// reference violation under the last policy (kStampedRead).
std::optional<OnlineViolation> expect_ingest_matches_feed(
    const ObjectModel& model, std::span<const Event> events) {
  std::optional<OnlineViolation> last;
  for (const VersionOrderPolicy policy : kPolicies) {
    SCOPED_TRACE(to_string(policy));
    OnlineCertificateMonitor reference(model, policy);
    for (const Event& e : events) (void)reference.feed(e);
    for (const std::size_t span : kSpans) {
      SCOPED_TRACE("span " + std::to_string(span));
      OnlineCertificateMonitor m(model, policy);
      for (std::size_t i = 0; i < events.size(); i += span) {
        (void)m.ingest(events.subspan(i, std::min(span, events.size() - i)));
      }
      EXPECT_EQ(m.events_fed(), events.size());
      EXPECT_EQ(m.violation().has_value(), reference.violation().has_value());
      if (m.violation().has_value() && reference.violation().has_value()) {
        EXPECT_EQ(m.violation()->pos, reference.violation()->pos);
        EXPECT_EQ(m.violation()->kind, reference.violation()->kind);
        EXPECT_EQ(m.violation()->reason, reference.violation()->reason);
      }
    }
    last = reference.violation();
  }
  return last;
}

/// A window-free tl2 recording of about 5000 events: three logical
/// processes on 8 registers, interleaved by a fixed seed.
[[nodiscard]] History recorded_interleaving() {
  const auto stm = stm::make_stm("tl2", 8);
  EXPECT_TRUE(stm->set_window_free(true));
  stm::Recorder recorder(8);
  stm->set_recorder(&recorder);
  wl::MixParams params;
  params.threads = 3;
  params.vars = 8;
  params.txs_per_thread = 170;
  params.seed = 20261018;
  (void)wl::run_interleaved_mix(*stm, params);
  return recorder.history();
}

TEST(LookAhead, CleanRecordingIngestsLikeFeedInEverySpan) {
  const History h = recorded_interleaving();
  ASSERT_GT(h.size(), 2 * 2048 + kAhead) << "spans of 2048 need a tail";
  EXPECT_FALSE(expect_ingest_matches_feed(h.model(), h.events()).has_value());
}

TEST(LookAhead, FlagInTheLastLookAheadEventsOfASpan) {
  const History h = recorded_interleaving();
  std::vector<Event> events = h.events();
  // The first read response in [2048 − kAhead, 2048): within the last
  // kAhead events of a 2048-span, of a kAhead-span and of a 1-span, at
  // the look-ahead's distance from the span ahead.
  const auto first = events.begin() + (2048 - kAhead);
  const auto read = std::find_if(first, events.begin() + 2048, [](const Event& e) {
    return e.kind == EventKind::kResponse && e.op == OpCode::kRead;
  });
  ASSERT_NE(read, events.begin() + 2048) << "no read response to poison";
  read->ret = 987'654'321;  // a value nobody wrote
  const auto flag = expect_ingest_matches_feed(h.model(), events);
  ASSERT_TRUE(flag.has_value());
  EXPECT_EQ(flag->pos, static_cast<std::size_t>(read - events.begin()));
}

TEST(LookAhead, DuplicateValueInsideTheWindowOfItsFirstWrite) {
  const ObjectModel model = ObjectModel::registers(4, 0);
  for (const bool first_commits : {false, true}) {
    SCOPED_TRACE(first_commits ? "first writer committed" : "first writer live");
    std::vector<Event> events;
    // Filler transactions shift the pair across every span boundary.
    for (TxId t = 1; t <= 9; ++t) {
      events.insert(events.end(), {ev::inv(t, t % 4, OpCode::kWrite, 100 + t),
                                   ev::ret(t, t % 4, OpCode::kWrite, 100 + t, 0),
                                   ev::try_commit(t), ev::commit(t)});
    }
    // T20 writes x2 := 7; T21 rewrites 7 a few events later, so the
    // look-ahead reaches T21's write response before T20's is fed.
    events.insert(events.end(), {ev::inv(20, 2, OpCode::kWrite, 7),
                                 ev::ret(20, 2, OpCode::kWrite, 7, 0)});
    if (first_commits) {
      events.insert(events.end(), {ev::try_commit(20), ev::commit(20)});
    }
    events.insert(events.end(), {ev::inv(21, 2, OpCode::kWrite, 7),
                                 ev::ret(21, 2, OpCode::kWrite, 7, 0),
                                 ev::try_commit(21), ev::commit(21)});
    const std::size_t dup = events.size() - 3;
    const auto flag = expect_ingest_matches_feed(model, events);
    ASSERT_TRUE(flag.has_value());
    EXPECT_EQ(flag->kind, CertFlagKind::kValueNotUnique);
    EXPECT_EQ(flag->pos, dup);
  }
}

TEST(LookAhead, ResponseOutsideTheModelReachedBeforeItsInvocationFlags) {
  const ObjectModel model = ObjectModel::registers(4, 0);
  for (const ObjId outside : {ObjId{4}, ObjId{0xbad}, ~ObjId{0}}) {
    for (const OpCode op : {OpCode::kRead, OpCode::kWrite}) {
      SCOPED_TRACE("x" + std::to_string(outside));
      std::vector<Event> events;
      for (TxId t = 1; t <= 5; ++t) {
        events.insert(events.end(), {ev::inv(t, 0, OpCode::kRead),
                                     ev::ret(t, 0, OpCode::kRead, 0, 0),
                                     ev::try_commit(t), ev::commit(t)});
      }
      const std::size_t invocation = events.size();
      events.insert(events.end(), {ev::inv(30, outside, op, 5),
                                   ev::ret(30, outside, op, 5, op == OpCode::kWrite ? 0 : 5)});
      const auto flag = expect_ingest_matches_feed(model, events);
      ASSERT_TRUE(flag.has_value());
      EXPECT_EQ(flag->kind, CertFlagKind::kNotWellFormed);
      EXPECT_EQ(flag->pos, invocation);
    }
  }
}

}  // namespace
}  // namespace optm::core
