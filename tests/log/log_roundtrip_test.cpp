// Round-trip tests for the durable segmented event log (src/log/):
// record → drain through a live LogWriterSink → read back → byte-equal
// events, plus verdict/flag-position equivalence between disk-streamed
// and in-RAM verification across all four version-order policies.
//
// The writer runs LIVE on the pump thread while the mix records (that is
// the production shape, and it is what the TSan job exercises here).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/online.hpp"
#include "core/stream_verify.hpp"
#include "log/log_sink.hpp"
#include "log/reader.hpp"
#include "log/writer.hpp"
#include "stm/factory.hpp"
#include "stm/recorder.hpp"
#include "stm/sink.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace optm;

std::string fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   ("optm_log_rt_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

struct Recording {
  core::History history;   // the in-RAM ground truth
  std::string dir;         // the log written live next to it
  std::uint64_t segments = 0;
};

/// Run a recorded mix with the drain pump tee'ing every batch into BOTH
/// an in-RAM history and a live log writer (segment_bytes small enough to
/// force rotation), concurrently with the recording threads.
Recording record_with_live_log(const std::string& stm_name, bool window_free,
                               std::uint64_t seed, const std::string& tag,
                               std::uint32_t threads = 3,
                               std::uint64_t txs_per_thread = 400) {
  Recording out;
  out.dir = fresh_dir(tag);

  const std::uint32_t vars = 16;
  auto stm = stm::make_stm(stm_name, vars);
  if (window_free) {
    EXPECT_TRUE(stm->set_window_free(true));
  }
  stm::Recorder recorder(vars);
  stm->set_recorder(&recorder);

  log::WriterOptions wopt;
  wopt.directory = out.dir;
  wopt.segment_bytes = 64 * 1024;  // ~1300 events/segment: many segments
  wopt.metadata.runtime = stm_name;
  wopt.metadata.policy = "commit-order";
  wopt.metadata.window_mode = window_free ? "window-free" : "windowed";
  wopt.metadata.num_vars = vars;
  wopt.metadata.threads = threads;
  log::LogWriter writer(wopt);
  log::LogWriterSink log_sink(writer);

  core::History ram(recorder.model());
  stm::HistoryAppendSink ram_sink(ram);
  stm::TeeSink tee{&ram_sink, &log_sink};

  std::atomic<bool> done{false};
  stm::DrainPump pump(recorder, tee);
  stm::DrainPump::Stats stats;
  std::thread pumper([&] { stats = pump.run(done); });

  wl::MixParams mix;
  mix.threads = threads;
  mix.vars = vars;
  mix.txs_per_thread = txs_per_thread;
  mix.ops_per_tx = 4;
  mix.seed = seed;
  (void)wl::run_random_mix(*stm, mix);
  done.store(true, std::memory_order_release);
  pumper.join();

  EXPECT_TRUE(stats.sink_ok) << writer.error();
  EXPECT_EQ(stats.events, recorder.num_events());
  out.history = recorder.history();
  out.segments = writer.segments_written();
  return out;
}

std::vector<core::Event> read_all(const std::string& dir,
                                  log::LogReader& reader) {
  std::vector<core::Event> events;
  EXPECT_TRUE(reader.open(dir)) << reader.error();
  for (auto batch = reader.next(); !batch.empty(); batch = reader.next()) {
    events.insert(events.end(), batch.begin(), batch.end());
  }
  EXPECT_TRUE(reader.ok()) << reader.error();
  return events;
}

TEST(LogRoundTrip, DirectoryFsyncCoversEverySegmentAndTheClose) {
  // Durability regression: each segment's directory entry must be fsync'd
  // when the segment is created (a crash after rotation must not lose a
  // fully-msync'd mid-log segment to a vanished entry — recovery would
  // hard-fail on the hole), and close() must seal the directory once more
  // after the tail truncation. The counter is the observable: one dir
  // fsync per segment created, plus one at close.
  const std::string dir = fresh_dir("dirsync");
  log::WriterOptions wopt;
  wopt.directory = dir;
  wopt.segment_bytes = 64 * 1024;  // force rotation
  wopt.metadata.num_vars = 4;
  log::LogWriter writer(wopt);
  ASSERT_TRUE(writer.ok()) << writer.error();
  EXPECT_EQ(writer.dir_fsyncs(), 0u);  // nothing durable yet

  std::vector<core::Event> batch;
  for (int i = 0; i < 128; ++i) {
    batch.push_back(core::ev::commit(static_cast<core::TxId>(i + 1)));
  }
  while (writer.segments_written() < 3) {
    ASSERT_TRUE(writer.append(batch)) << writer.error();
  }
  // Every segment creation sync'd the directory entry before any block
  // landed in the segment.
  EXPECT_EQ(writer.dir_fsyncs(), writer.segments_written());

  ASSERT_TRUE(writer.close()) << writer.error();
  EXPECT_EQ(writer.dir_fsyncs(), writer.segments_written() + 1);

  // The log still reads back clean (the fsyncs changed durability, not
  // content).
  log::LogReader reader;
  const auto events = read_all(dir, reader);
  EXPECT_EQ(events.size(), writer.events_written());
  std::filesystem::remove_all(dir);
}

TEST(LogRoundTrip, LiveWriterByteEqualAcrossRuntimes) {
  struct Config {
    const char* stm;
    bool window_free;
  };
  const Config configs[] = {
      {"tl2", false}, {"tl2", true}, {"mv", true}, {"dstm", true},
      {"norec", false},
  };
  int tag = 0;
  for (const Config& c : configs) {
    SCOPED_TRACE(std::string(c.stm) +
                 (c.window_free ? "/window-free" : "/windowed"));
    const Recording rec = record_with_live_log(
        c.stm, c.window_free, /*seed=*/77 + tag, "br" + std::to_string(tag));
    ++tag;
    EXPECT_GE(rec.segments, 2u) << "rotation not exercised";

    log::LogReader reader;
    const std::vector<core::Event> from_disk = read_all(rec.dir, reader);
    ASSERT_EQ(from_disk.size(), rec.history.size());
    for (std::size_t i = 0; i < from_disk.size(); ++i) {
      ASSERT_EQ(from_disk[i], rec.history[i]) << "event " << i;
    }
    EXPECT_FALSE(reader.tail_dropped());
    EXPECT_EQ(reader.metadata().runtime, c.stm);
    EXPECT_EQ(reader.metadata().num_vars, 16u);
    std::filesystem::remove_all(rec.dir);
  }
}

/// `events` with every stamp and read version cleared: the monitor then
/// ranks commits in record order and skips the per-read stamp checks.
[[nodiscard]] std::vector<core::Event> record_order(
    std::span<const core::Event> events) {
  std::vector<core::Event> out(events.begin(), events.end());
  for (core::Event& e : out) {
    e.stamp = 0;
    e.ver = 0;
  }
  return out;
}

TEST(LogRoundTrip, VerdictEquivalenceDiskVsRam) {
  // Two corpora: a clean clock run, and an mv window-free run whose C
  // records drift. Each is certified as recorded and as its record-order
  // view (stamps cleared on the way in), which flags the drifted one, so
  // the equivalence is exercised on both verdicts.
  struct Corpus {
    const char* stm;
    bool window_free;
  };
  const Corpus corpora[] = {{"tl2", false}, {"mv", true}};
  int tag = 0;
  for (const Corpus& c : corpora) {
    const Recording rec = record_with_live_log(c.stm, c.window_free,
                                               /*seed=*/1234 + tag,
                                               "vd" + std::to_string(tag));
    ++tag;
    for (const bool stamps : {true, false}) {
      SCOPED_TRACE(std::string(c.stm) + (stamps ? " stamped" : " record order"));

      // In-RAM baseline: the streaming monitor over the ground truth.
      const std::vector<core::Event> truth =
          stamps ? rec.history.events() : record_order(rec.history.events());
      core::OnlineCertificateMonitor ram_monitor(rec.history.model());
      (void)ram_monitor.ingest(truth);

      // Disk-streamed: every block the reader returns goes straight into
      // the one monitor verify_event_stream runs.
      log::LogReader streamed;
      ASSERT_TRUE(streamed.open(rec.dir)) << streamed.error();
      std::vector<core::Event> cleared;
      const auto pull = [&]() -> std::span<const core::Event> {
        const std::span<const core::Event> block = streamed.next();
        if (stamps) return block;
        cleared = record_order(block);
        return cleared;
      };
      const auto disk = core::verify_event_stream(rec.history.model(), pull);
      EXPECT_TRUE(streamed.ok()) << streamed.error();
      EXPECT_EQ(disk.events, rec.history.size());
      EXPECT_EQ(disk.certified, ram_monitor.ok());
      ASSERT_EQ(disk.violation.has_value(),
                ram_monitor.violation().has_value());
      if (disk.violation.has_value()) {
        EXPECT_EQ(disk.violation->pos, ram_monitor.violation()->pos);
        EXPECT_EQ(disk.violation->kind, ram_monitor.violation()->kind);
      }
    }
    std::filesystem::remove_all(rec.dir);
  }
}

TEST(LogRoundTrip, FullPackedSegmentSubHeaderResidualReadsClean) {
  // The 4 KiB segment header is 16 mod 24 and blocks are 24+48n bytes, so
  // a segment whose capacity is 16 mod 24 past the header can pack FULL,
  // leaving a 16-byte zeroed residual — shorter than a BlockHeader.
  // Production sizes land in this residue class (2 MiB, the documented
  // 8 MiB --segment-bytes example); rotated segments with such a residual
  // must read back clean, not be rejected as a torn tail.
  const std::string dir = fresh_dir("residual");
  const std::size_t per_segment = 100;  // events in a full-packed segment
  log::WriterOptions wopt;
  wopt.directory = dir;
  wopt.segment_bytes = log::kSegmentHeaderBytes + sizeof(log::BlockHeader) +
                       per_segment * sizeof(core::Event) + 16;
  log::LogWriter writer(wopt);

  std::vector<core::Event> events;
  for (std::size_t i = 0; i < 2 * per_segment + per_segment / 2; ++i) {
    events.push_back(core::ev::try_commit(static_cast<core::TxId>(i)));
  }
  ASSERT_TRUE(writer.append(events)) << writer.error();
  ASSERT_TRUE(writer.close()) << writer.error();
  // Two full-packed rotated segments (16-byte residual each) + the tail.
  EXPECT_EQ(writer.segments_written(), 3u);

  log::LogReader reader;
  const std::vector<core::Event> from_disk = read_all(dir, reader);
  ASSERT_EQ(from_disk.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(from_disk[i], events[i]) << "event " << i;
  }
  EXPECT_FALSE(reader.tail_dropped());
  EXPECT_EQ(reader.dropped_bytes(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(LogRoundTrip, EmptyLogKeepsMetadata) {
  const std::string dir = fresh_dir("empty");
  {
    log::WriterOptions wopt;
    wopt.directory = dir;
    wopt.metadata.runtime = "tl2";
    wopt.metadata.policy = "stamped-read";
    wopt.metadata.window_mode = "window-free";
    wopt.metadata.num_vars = 8;
    log::LogWriter writer(wopt);
    EXPECT_TRUE(writer.close());
  }
  log::LogReader reader;
  ASSERT_TRUE(reader.open(dir)) << reader.error();
  EXPECT_TRUE(reader.next().empty());
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.events_read(), 0u);
  EXPECT_EQ(reader.metadata().runtime, "tl2");
  EXPECT_EQ(reader.metadata().policy, "stamped-read");
  EXPECT_EQ(reader.metadata().window_mode, "window-free");
  EXPECT_EQ(reader.metadata().num_vars, 8u);
  std::filesystem::remove_all(dir);
}

// A LogWriter pointed at a directory that already holds segments must
// refuse up front rather than clobber or interleave with the old log:
// the reader sorts by name, so a silent second writer would splice two
// histories into one stream.
TEST(LogRoundTrip, RefusesExistingLogDirectory) {
  const std::string dir = fresh_dir("refuse");
  {
    log::WriterOptions wopt;
    wopt.directory = dir;
    log::LogWriter writer(wopt);
    const core::Event e = core::ev::try_commit(1);
    ASSERT_TRUE(writer.append({&e, 1}));
    ASSERT_TRUE(writer.close()) << writer.error();
  }
  {
    log::WriterOptions wopt;
    wopt.directory = dir;
    log::LogWriter writer(wopt);
    EXPECT_FALSE(writer.ok());
    EXPECT_NE(writer.error().find("refusing to overwrite existing log"),
              std::string::npos)
        << writer.error();
    const core::Event e = core::ev::try_commit(2);
    EXPECT_FALSE(writer.append({&e, 1}));
  }
  // The original log is untouched and still reads back.
  log::LogReader reader;
  ASSERT_TRUE(reader.open(dir)) << reader.error();
  EXPECT_EQ(reader.next().size(), 1u);
  EXPECT_TRUE(reader.ok()) << reader.error();
  std::filesystem::remove_all(dir);
}

TEST(LogRoundTrip, AppendAfterCloseFails) {
  const std::string dir = fresh_dir("closed");
  log::WriterOptions wopt;
  wopt.directory = dir;
  log::LogWriter writer(wopt);
  const core::Event e = core::ev::try_commit(1);
  EXPECT_TRUE(writer.append({&e, 1}));
  EXPECT_TRUE(writer.close());
  EXPECT_FALSE(writer.append({&e, 1}));
  std::filesystem::remove_all(dir);
}

}  // namespace
