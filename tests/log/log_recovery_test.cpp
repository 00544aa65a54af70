// Crash-recovery corpus: the on-disk states a kill can leave behind,
// rebuilt by hand from a clean multi-segment log.
//
// The writer creates each segment with open(), sizes it with ftruncate()
// and only then writes the header page, so a kill can leave a trailing
// file with no header: zero bytes (killed between open and ftruncate) or
// full-size and all-zero (killed before the header page was written
// back). Logs from the earlier pipelined writer, which kept the NEXT
// segment pre-created while the current one filled, can additionally
// hold such a stub BEHIND the segment with the real tail, or two trailing
// stubs; the reader must keep recovering those too. Each test asserts
// the recovery taxonomy: the reader yields an exact prefix of the
// recording (or reports a torn tail) and NEVER certifies fabricated
// history; headerless files anywhere but the tail stay hard errors.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/event.hpp"
#include "log/format.hpp"
#include "log/log_sink.hpp"
#include "log/reader.hpp"
#include "log/writer.hpp"
#include "stm/factory.hpp"
#include "stm/recorder.hpp"
#include "stm/sink.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace optm;
namespace fs = std::filesystem;

fs::path scratch_root() {
  return fs::path(::testing::TempDir()) /
         ("optm_log_recovery_" + std::to_string(::getpid()));
}

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir = scratch_root() / tag;
  fs::remove_all(dir);
  return dir;
}

std::vector<core::Event> make_events(std::size_t n) {
  std::vector<core::Event> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    events.push_back(core::ev::try_commit(static_cast<core::TxId>(i + 1)));
  }
  return events;
}

/// Write `events` in fixed-size appends into a small-segment log.
std::uint64_t write_log(const fs::path& dir,
                        const std::vector<core::Event>& events,
                        std::size_t chunk = 200) {
  log::WriterOptions wopt;
  wopt.directory = dir.string();
  wopt.segment_bytes = 16 * 1024;
  wopt.metadata.runtime = "tl2";
  wopt.metadata.policy = "commit-order";
  wopt.metadata.window_mode = "windowed";
  wopt.metadata.num_vars = 8;
  log::LogWriter writer(wopt);
  for (std::size_t i = 0; i < events.size(); i += chunk) {
    const std::size_t n = std::min(chunk, events.size() - i);
    EXPECT_TRUE(writer.append({events.data() + i, n})) << writer.error();
  }
  EXPECT_TRUE(writer.close()) << writer.error();
  return writer.segments_written();
}

std::vector<fs::path> sorted_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

struct ReplayOutcome {
  bool reader_ok = false;
  bool torn = false;
  std::vector<core::Event> events;
};

ReplayOutcome replay(const fs::path& dir) {
  ReplayOutcome out;
  log::LogReader reader;
  if (!reader.open(dir.string())) return out;
  for (auto batch = reader.next(); !batch.empty(); batch = reader.next()) {
    out.events.insert(out.events.end(), batch.begin(), batch.end());
  }
  out.reader_ok = reader.ok();
  out.torn = reader.tail_dropped();
  return out;
}

void expect_prefix_of(const ReplayOutcome& out,
                      const std::vector<core::Event>& orig) {
  ASSERT_LE(out.events.size(), orig.size());
  for (std::size_t i = 0; i < out.events.size(); ++i) {
    ASSERT_EQ(out.events[i], orig[i]) << "diverges from recording at " << i;
  }
}

/// Drop a headerless segment file of `bytes` zeroes: the artifact a kill
/// leaves before the segment's header page reaches the disk.
void add_stub(const fs::path& dir, std::uint64_t index, std::size_t bytes) {
  std::ofstream out(dir / log::segment_file_name(index), std::ios::binary);
  if (bytes != 0) {
    const std::vector<char> zeros(bytes, 0);
    out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
}

void flip_byte(const fs::path& file, std::uintmax_t offset) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  ASSERT_TRUE(f.good());
  b = static_cast<char>(b ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
  ASSERT_TRUE(f.good());
}

/// Zero file content starting at `from` — a page the kernel never wrote
/// back before the kill.
void zero_from(const fs::path& file, std::uintmax_t from) {
  const auto size = fs::file_size(file);
  ASSERT_LT(from, size);
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  const std::vector<char> zeros(static_cast<std::size_t>(size - from), 0);
  f.seekp(static_cast<std::streamoff>(from));
  f.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  ASSERT_TRUE(f.good());
}

// --- kill-stage artifacts ----------------------------------------------------
//
// Build one clean multi-segment log, then reconstruct the exact on-disk
// state a kill at each stage would leave and assert recovery.

struct Corpus {
  fs::path dir;
  std::vector<core::Event> events;
  std::vector<fs::path> files;
  std::uint64_t segments = 0;
};

Corpus build_corpus(const std::string& tag) {
  Corpus c;
  c.dir = fresh_dir(tag);
  c.events = make_events(2500);
  c.segments = write_log(c.dir, c.events);
  c.files = sorted_files(c.dir);
  EXPECT_GE(c.segments, 3u);
  return c;
}

// Kill between the writer's open() and ftruncate(): zero-byte trailing
// file. Recovered; the real segments read in full.
TEST(LogRecovery, KillAfterCreateLeavesZeroByteStub) {
  const Corpus c = build_corpus("kill_create");
  add_stub(c.dir, c.segments, 0);
  const auto out = replay(c.dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_TRUE(out.torn);  // the stub is reported as a (empty) torn tail
  EXPECT_EQ(out.events.size(), c.events.size());
  expect_prefix_of(out, c.events);
  fs::remove_all(c.dir);
}

// Trailing file shorter than a segment header: what a filesystem that
// persisted only part of the ftruncate extension would leave. Read like
// the zero-byte stub.
TEST(LogRecovery, KillDuringSizingLeavesShortStub) {
  const Corpus c = build_corpus("kill_sizing");
  add_stub(c.dir, c.segments, log::kSegmentHeaderBytes / 2);
  const auto out = replay(c.dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_TRUE(out.torn);
  EXPECT_EQ(out.events.size(), c.events.size());
  expect_prefix_of(out, c.events);
  fs::remove_all(c.dir);
}

// Kill after ftruncate() and the directory fsync, before the new
// segment's header page was written back: full-size all-zero file. (The
// earlier pipelined writer left this file at every instant, since it
// kept the next segment prepared while the current one filled.)
TEST(LogRecovery, KillAfterSizingLeavesFullSizeZeroStub) {
  const Corpus c = build_corpus("kill_sized");
  add_stub(c.dir, c.segments, 16 * 1024);
  const auto out = replay(c.dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_TRUE(out.torn);
  EXPECT_EQ(out.events.size(), c.events.size());
  expect_prefix_of(out, c.events);
  fs::remove_all(c.dir);
}

// Kill after rotation but before the FINAL segment's header page hit the
// disk (writeback may flush block pages first, so the file can hold
// stray nonzero bytes past the zeroed header): the whole final segment
// is dropped — nothing in it was ever reported durable — and the log
// recovers to the prefix that precedes it. An older pipelined log also
// holds the prepared next segment's stub behind it; same result.
TEST(LogRecovery, KillBeforeHeaderWritebackDropsFinalSegment) {
  const Corpus c = build_corpus("kill_header");
  zero_from(c.files.back(), 0);  // header page lost; tail already truncated
  const auto out = replay(c.dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_TRUE(out.torn);
  EXPECT_LT(out.events.size(), c.events.size());
  expect_prefix_of(out, c.events);

  add_stub(c.dir, c.segments, 16 * 1024);
  const auto behind_stub = replay(c.dir);
  EXPECT_TRUE(behind_stub.reader_ok);
  EXPECT_TRUE(behind_stub.torn);
  EXPECT_EQ(behind_stub.events.size(), out.events.size());
  expect_prefix_of(behind_stub, c.events);
  fs::remove_all(c.dir);
}

// Torn block in the last real segment with a full-size stub behind it.
// Only an older pipelined log can hold this (it deferred a sealed
// segment's msync past the creation of the next one; this writer msyncs
// a segment before creating its successor). The stub must not mask the
// torn-tail recovery of the segment before it.
TEST(LogRecovery, TornBlockTailBehindTrailingStubRecovers) {
  const Corpus c = build_corpus("kill_midblock");
  const auto size = fs::file_size(c.files.back());
  ASSERT_GT(size, log::kSegmentHeaderBytes + sizeof(log::BlockHeader) + 24);
  flip_byte(c.files.back(), size - 24);  // corrupt the last block's payload
  add_stub(c.dir, c.segments, 16 * 1024);
  const auto out = replay(c.dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_TRUE(out.torn);
  EXPECT_LT(out.events.size(), c.events.size());
  EXPECT_GT(out.events.size(), 0u);
  expect_prefix_of(out, c.events);
  fs::remove_all(c.dir);
}

// A headerless file in the MIDDLE of the log is not a crash artifact
// (only the last file can be a segment whose header was never written):
// it means a durable segment was destroyed, and certifying across it
// would gap the history. Hard error.
TEST(LogRecovery, MidLogStubIsHardError) {
  const Corpus c = build_corpus("mid_stub");
  ASSERT_GE(c.files.size(), 3u);
  zero_from(c.files[1], 0);  // destroy a mid-log segment's header
  const auto out = replay(c.dir);
  EXPECT_FALSE(out.reader_ok);
  expect_prefix_of(out, c.events);
  fs::remove_all(c.dir);
}

// Two trailing headerless files: only an older pipelined log holds
// this, after a crash right after rotation (the just-swapped-to segment
// whose header page never hit the disk, followed by the prepared next
// segment) — so recovery drops both. Nothing in either file was ever
// reported durable, so no history is fabricated.
TEST(LogRecovery, DoubleTrailingStubRecovers) {
  const Corpus c = build_corpus("double_stub");
  add_stub(c.dir, c.segments, 16 * 1024);
  add_stub(c.dir, c.segments + 1, 16 * 1024);
  const auto out = replay(c.dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_TRUE(out.torn);
  EXPECT_EQ(out.events.size(), c.events.size());
  expect_prefix_of(out, c.events);
  fs::remove_all(c.dir);
}

// A log that is ONLY a stub — kill before the first segment's header
// page was written back — recovers to the empty prefix, reported torn:
// zero events were acked durable, and zero events is what comes back.
TEST(LogRecovery, LoneStubReadsAsEmptyTornLog) {
  const fs::path dir = fresh_dir("lone_stub");
  fs::create_directories(dir);
  add_stub(dir, 0, 16 * 1024);
  log::LogReader reader;
  ASSERT_TRUE(reader.open(dir.string())) << reader.error();
  EXPECT_TRUE(reader.next().empty());
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.events_read(), 0u);
  EXPECT_TRUE(reader.tail_dropped());
  fs::remove_all(dir);
}

// --- concurrency -------------------------------------------------------------

// The writer on the real drain pump's thread, recording threads running
// concurrently and 64 KiB segments forcing rotations: the TSan leg of CI
// runs this binary, and the result must still read back as the full
// recording.
TEST(LogRecovery, WriterUnderDrainPumpRotatesAndReadsBack) {
  const fs::path dir = fresh_dir("pump");
  const std::uint32_t vars = 16;
  auto stm = stm::make_stm("tl2", vars);
  stm::Recorder recorder(vars);
  stm->set_recorder(&recorder);

  log::WriterOptions wopt;
  wopt.directory = dir.string();
  wopt.segment_bytes = 64 * 1024;
  wopt.metadata.runtime = "tl2";
  wopt.metadata.num_vars = vars;
  log::LogWriter writer(wopt);
  log::LogWriterSink log_sink(writer);

  std::atomic<bool> done{false};
  stm::DrainPump pump(recorder, log_sink);
  stm::DrainPump::Stats stats;
  std::thread pumper([&] { stats = pump.run(done); });

  wl::MixParams mix;
  mix.threads = 3;
  mix.vars = vars;
  mix.txs_per_thread = 400;
  mix.ops_per_tx = 4;
  mix.seed = 77;
  (void)wl::run_random_mix(*stm, mix);
  done.store(true, std::memory_order_release);
  pumper.join();

  ASSERT_TRUE(stats.sink_ok) << writer.error();
  ASSERT_TRUE(writer.close()) << writer.error();
  EXPECT_GE(writer.segments_written(), 2u);

  const auto out = replay(dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_FALSE(out.torn);
  EXPECT_EQ(out.events.size(), recorder.num_events());
  fs::remove_all(dir);
}

}  // namespace
