// Torn-write / truncation corpus for the segmented event log reader.
//
// One pristine multi-segment log is built once; every case then damages a
// fresh copy (truncate at, or flip a byte at, offsets covering each
// boundary class: segment header, block header, payload interior, block
// boundary, segment boundary, tail) and replays it through LogReader and
// the bounded-memory certifier. The contract under test:
//
//   - the reader NEVER crashes on damaged input;
//   - damage confined to the final segment's tail is recovered — the
//     events that survive are an exact prefix of the original recording,
//     reported as torn (dropped_bytes > 0) unless the cut landed exactly
//     on a block boundary;
//   - any other damage (non-final segment, header, CRC-passing stamp
//     discontinuity) is a hard error — never a silent mis-certification.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/stream_verify.hpp"
#include "log/format.hpp"
#include "log/reader.hpp"
#include "log/writer.hpp"
#include "stm/factory.hpp"
#include "stm/recorder.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace optm;
namespace fs = std::filesystem;

fs::path scratch_root() {
  return fs::path(::testing::TempDir()) /
         ("optm_log_trunc_" + std::to_string(::getpid()));
}

/// Record a small tl2 mix and write it to a pristine log with tiny
/// segments (16 KiB) and small blocks (256 events), so the corpus gets
/// several segments and several blocks per segment to aim at.
struct Pristine {
  fs::path dir;
  std::vector<core::Event> events;
  std::vector<fs::path> files;  // sorted segment files
};

const Pristine& pristine() {
  static const Pristine p = [] {
    Pristine out;
    out.dir = scratch_root() / "pristine";
    fs::remove_all(out.dir);

    const std::uint32_t vars = 8;
    auto stm = stm::make_stm("tl2", vars);
    stm::Recorder recorder(vars);
    stm->set_recorder(&recorder);
    wl::MixParams mix;
    mix.threads = 2;
    mix.vars = vars;
    mix.txs_per_thread = 300;
    mix.ops_per_tx = 4;
    mix.seed = 4242;
    (void)wl::run_random_mix(*stm, mix);

    stm::EventBatch batch;
    (void)recorder.drain(batch);
    out.events.assign(batch.begin(), batch.end());

    log::WriterOptions wopt;
    wopt.directory = out.dir.string();
    wopt.segment_bytes = 16 * 1024;
    wopt.metadata.runtime = "tl2";
    wopt.metadata.policy = "commit-order";
    wopt.metadata.window_mode = "windowed";
    wopt.metadata.num_vars = vars;
    wopt.metadata.threads = mix.threads;
    log::LogWriter writer(wopt);
    const std::size_t kBlock = 256;
    for (std::size_t i = 0; i < out.events.size(); i += kBlock) {
      const std::size_t n = std::min(kBlock, out.events.size() - i);
      EXPECT_TRUE(writer.append({out.events.data() + i, n}));
    }
    EXPECT_TRUE(writer.close()) << writer.error();
    EXPECT_GE(writer.segments_written(), 3u);

    for (const auto& entry : fs::directory_iterator(out.dir)) {
      out.files.push_back(entry.path());
    }
    std::sort(out.files.begin(), out.files.end());
    return out;
  }();
  return p;
}

/// Copy the pristine log into a fresh directory for one damage case.
fs::path fresh_copy(const std::string& tag) {
  const fs::path dir = scratch_root() / tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const auto& f : pristine().files) {
    fs::copy_file(f, dir / f.filename());
  }
  return dir;
}

void truncate_file(const fs::path& file, std::uintmax_t new_size) {
  fs::resize_file(file, new_size);
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

struct ReplayOutcome {
  bool reader_ok = false;        // full read completed without hard error
  bool torn = false;             // tail reported dropped
  std::vector<core::Event> events;
};

/// Read the damaged log to completion. The absence-of-crash property is
/// implicit: any segfault fails the test binary outright.
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

/// The never-mis-certify core: whatever the damage, a completed read must
/// yield an exact prefix of the original recording.
void expect_prefix_of_pristine(const ReplayOutcome& out) {
  const auto& orig = pristine().events;
  ASSERT_LE(out.events.size(), orig.size());
  for (std::size_t i = 0; i < out.events.size(); ++i) {
    ASSERT_EQ(out.events[i], orig[i]) << "diverges from recording at " << i;
  }
}

/// Certifying the damaged log must never crash either; when the reader
/// hard-fails mid-stream the certifier just sees a shorter stream, and
/// the caller (checker_tool) turns !reader.ok() into an operational
/// error — which this helper mirrors.
void certify_never_crashes(const fs::path& dir) {
  log::LogReader reader;
  if (!reader.open(dir.string())) return;
  const auto model = core::ObjectModel::registers(8, 0);
  (void)core::verify_event_stream(model, [&reader] { return reader.next(); });
}

std::uintmax_t last_file_size() {
  return fs::file_size(pristine().files.back());
}

TEST(LogTruncation, PristineBaselineReadsClean) {
  const auto out = replay(pristine().dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_FALSE(out.torn);
  ASSERT_EQ(out.events.size(), pristine().events.size());
  expect_prefix_of_pristine(out);
}

// --- truncation of the FINAL segment: always recoverable -------------------

TEST(LogTruncation, TruncateFinalSegmentEveryBoundaryClass) {
  const std::uintmax_t size = last_file_size();
  // Offsets covering: inside the header page, exactly at the header end,
  // inside the first block header, inside payload, near mid-file, and
  // every byte of the last 32 (tail / block-boundary straddles).
  std::vector<std::uintmax_t> cuts = {
      0,
      1,
      log::kSegmentHeaderBytes / 2,
      log::kSegmentHeaderBytes,
      log::kSegmentHeaderBytes + 1,
      log::kSegmentHeaderBytes + sizeof(log::BlockHeader) - 1,
      log::kSegmentHeaderBytes + sizeof(log::BlockHeader),
      log::kSegmentHeaderBytes + sizeof(log::BlockHeader) + 17,
      size / 2,
      size - 1,
  };
  for (std::uintmax_t tail = 2; tail <= 32; ++tail) {
    if (size >= tail) cuts.push_back(size - tail);
  }
  int case_id = 0;
  for (const auto cut : cuts) {
    if (cut >= size) continue;
    SCOPED_TRACE("truncate final segment to " + std::to_string(cut));
    const fs::path dir = fresh_copy("cut" + std::to_string(case_id++));
    truncate_file(dir / pristine().files.back().filename(), cut);

    const auto out = replay(dir);
    if (cut < log::kSegmentHeaderBytes) {
      // Header itself is gone: the whole final segment is the torn tail.
      EXPECT_TRUE(out.reader_ok);
      EXPECT_TRUE(out.torn);
    } else {
      EXPECT_TRUE(out.reader_ok);
      // Anything short of the full file drops at least the cut block; a
      // cut exactly on a block boundary reads as a clean (shorter) log.
    }
    expect_prefix_of_pristine(out);
    certify_never_crashes(dir);
    fs::remove_all(dir);
  }
}

// --- byte flips in the FINAL segment: recovered or flagged, never wrong ----

TEST(LogTruncation, FlipBytesInFinalSegment) {
  const std::uintmax_t size = last_file_size();
  const std::uintmax_t flips[] = {
      // Header page: magic, middle, CRC field region.
      0, 8, 100, log::kSegmentHeaderBytes - 1,
      // First block header and payload.
      log::kSegmentHeaderBytes + 1,
      log::kSegmentHeaderBytes + sizeof(log::BlockHeader) + 5,
      size / 2,
      size - 1,
  };
  int case_id = 0;
  for (const auto offset : flips) {
    if (offset >= size) continue;
    SCOPED_TRACE("flip final-segment byte " + std::to_string(offset));
    const fs::path dir = fresh_copy("flip" + std::to_string(case_id++));
    flip_byte(dir / pristine().files.back().filename(), offset);

    const auto out = replay(dir);
    if (out.reader_ok) {
      // Recovered: events must still be a true prefix, and unless the
      // flip hit bytes past the last block (zeroed tail), something must
      // have been dropped.
      expect_prefix_of_pristine(out);
      if (out.events.size() < pristine().events.size()) {
        EXPECT_TRUE(out.torn);
      }
    }
    // else: flagged as a hard error — acceptable (header damage).
    certify_never_crashes(dir);
    fs::remove_all(dir);
  }
}

// --- damage to a NON-FINAL segment: always a hard error --------------------

TEST(LogTruncation, DamageToNonFinalSegmentIsHardError) {
  ASSERT_GE(pristine().files.size(), 3u);
  const fs::path victim_name = pristine().files[1].filename();
  const std::uintmax_t size = fs::file_size(pristine().files[1]);

  int case_id = 0;
  // Flips in a non-final segment's covered bytes (header, block header,
  // payload) must hard-fail — never silently recover: the tail-drop rule
  // applies only to the last segment. (Bytes past the end-of-segment
  // seal are zero padding the reader never consults.)
  const std::uintmax_t covered_flips[] = {
      4, log::kSegmentHeaderBytes + 3,
      log::kSegmentHeaderBytes + sizeof(log::BlockHeader) + 11, size / 2};
  for (const std::uintmax_t offset : covered_flips) {
    SCOPED_TRACE("flip non-final byte " + std::to_string(offset));
    const fs::path dir = fresh_copy("mid_flip" + std::to_string(case_id++));
    flip_byte(dir / victim_name, offset);
    const auto out = replay(dir);
    EXPECT_FALSE(out.reader_ok);
    expect_prefix_of_pristine(out);
    certify_never_crashes(dir);
    fs::remove_all(dir);
  }
  // Truncating a non-final segment must hard-fail too.
  const std::uintmax_t mid_cuts[] = {0, log::kSegmentHeaderBytes + 7, size / 2};
  for (const std::uintmax_t cut : mid_cuts) {
    SCOPED_TRACE("truncate non-final to " + std::to_string(cut));
    const fs::path dir = fresh_copy("mid_cut" + std::to_string(case_id++));
    truncate_file(dir / victim_name, cut);
    const auto out = replay(dir);
    EXPECT_FALSE(out.reader_ok);
    expect_prefix_of_pristine(out);
    certify_never_crashes(dir);
    fs::remove_all(dir);
  }
}

// --- a deleted middle segment is a stamp discontinuity: hard error ---------

TEST(LogTruncation, MissingMiddleSegmentIsHardError) {
  ASSERT_GE(pristine().files.size(), 3u);
  const fs::path dir = fresh_copy("missing_mid");
  fs::remove(dir / pristine().files[1].filename());
  const auto out = replay(dir);
  EXPECT_FALSE(out.reader_ok);
  expect_prefix_of_pristine(out);
  certify_never_crashes(dir);
  fs::remove_all(dir);
}

// --- sub-header residual of a full-packed segment ---------------------------

/// Build a log whose rotated segments pack completely full, leaving a
/// 16-byte all-zero residual — shorter than a BlockHeader — before each
/// rotation (the residue class 2 MiB and 8 MiB segments land in: the
/// 4 KiB header is 16 mod 24 and blocks are 24+48n bytes).
struct ResidualLog {
  fs::path dir;
  std::size_t per_segment = 0;  // events in each full-packed segment
  std::size_t total_events = 0;
  std::uint64_t segment_bytes = 0;
  std::vector<fs::path> files;  // sorted segment files
};

ResidualLog build_residual_log(const std::string& tag) {
  ResidualLog out;
  out.dir = scratch_root() / tag;
  fs::remove_all(out.dir);
  out.per_segment = 40;
  log::WriterOptions wopt;
  wopt.directory = out.dir.string();
  wopt.segment_bytes = log::kSegmentHeaderBytes + sizeof(log::BlockHeader) +
                       out.per_segment * sizeof(core::Event) + 16;
  out.segment_bytes = wopt.segment_bytes;
  log::LogWriter writer(wopt);
  std::vector<core::Event> events;
  for (std::size_t i = 0; i < 2 * out.per_segment + 10; ++i) {
    events.push_back(core::ev::try_commit(static_cast<core::TxId>(i)));
  }
  EXPECT_TRUE(writer.append(events)) << writer.error();
  EXPECT_TRUE(writer.close()) << writer.error();
  EXPECT_EQ(writer.segments_written(), 3u);
  out.total_events = events.size();
  for (const auto& entry : fs::directory_iterator(out.dir)) {
    out.files.push_back(entry.path());
  }
  std::sort(out.files.begin(), out.files.end());
  return out;
}

TEST(LogTruncation, ZeroSubHeaderResidualReadsClean) {
  const ResidualLog rlog = build_residual_log("residual_clean");
  const auto out = replay(rlog.dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_FALSE(out.torn);
  EXPECT_EQ(out.events.size(), rlog.total_events);
  fs::remove_all(rlog.dir);
}

TEST(LogTruncation, NonzeroSubHeaderResidualInNonFinalSegmentIsHardError) {
  const ResidualLog rlog = build_residual_log("residual_nonfinal");
  // A nonzero byte inside a rotated segment's residual is damage in a
  // non-final segment: hard error, never silent recovery.
  flip_byte(rlog.files[0], rlog.segment_bytes - 8);
  const auto out = replay(rlog.dir);
  EXPECT_FALSE(out.reader_ok);
  certify_never_crashes(rlog.dir);
  fs::remove_all(rlog.dir);
}

TEST(LogTruncation, NonzeroSubHeaderResidualInFinalSegmentIsTornTail) {
  const ResidualLog rlog = build_residual_log("residual_final");
  // Drop the tail segment so a full-packed residual segment becomes
  // final, then dirty its residual: recovered as a torn tail with every
  // event before the residual intact.
  fs::remove(rlog.files[2]);
  flip_byte(rlog.files[1], rlog.segment_bytes - 8);
  const auto out = replay(rlog.dir);
  EXPECT_TRUE(out.reader_ok);
  EXPECT_TRUE(out.torn);
  EXPECT_EQ(out.events.size(), 2 * rlog.per_segment);
  certify_never_crashes(rlog.dir);
  fs::remove_all(rlog.dir);
}

TEST(LogTruncation, EmptyDirectoryIsOperationalError) {
  const fs::path dir = scratch_root() / "empty_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);
  log::LogReader reader;
  EXPECT_FALSE(reader.open(dir.string()));
  fs::remove_all(dir);
}

}  // namespace
