// LogWriter: appends drained event batches to an mmap-backed segmented
// binary log (format.hpp). One writer owns one log directory; segments
// rotate at the configured capacity and a clean close() truncates the
// tail segment to its used size.
//
// Every segment syscall runs inline on the appending thread: at creation
// open/ftruncate/mmap plus a directory fsync, at rotation msync/munmap.
// Everything the writer reported ok is on disk once close() returns true.
//
// Crash-consistency invariants: header page written before blocks,
// payload before block header, and a segment's directory entry durable
// before its first block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "core/event.hpp"
#include "core/version_order.hpp"
#include "log/format.hpp"

namespace optm::log {

/// The optm-soak-v1 metadata mirrored into every segment header, so a log
/// is self-describing: `checker_tool certify-log` recovers the model size
/// without side-channel flags. `policy` keeps the header's historical
/// field: writers fill it with the one version order's name, and readers
/// accept any of the four historical names (core::is_version_order_name).
struct LogMetadata {
  std::string runtime = "?";
  std::string policy = core::kVersionOrderName;
  std::string window_mode = "?";
  std::uint32_t num_vars = 0;
  std::uint32_t threads = 0;
};

struct WriterOptions {
  std::string directory;  // created if absent; must be empty of segments
  /// Per-segment capacity (header page included). Clamped up to
  /// kMinSegmentBytes. Default 64 MiB ≈ 1.4M events per segment.
  std::size_t segment_bytes = std::size_t{64} << 20;
  LogMetadata metadata;
};

/// Not thread-safe: exactly one thread appends (the drain pump). All
/// methods are no-ops after the first failure; check ok()/error().
class LogWriter {
 public:
  explicit LogWriter(WriterOptions options);
  ~LogWriter();
  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// Append one stamp-contiguous batch as one block (split across
  /// segments only when it outgrows the remaining capacity).
  bool append(std::span<const core::Event> events);

  /// Seal the log: msync, truncate the tail segment to its used bytes,
  /// close the mapping. Idempotent. append() after close() fails.
  bool close();

  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  [[nodiscard]] std::uint64_t events_written() const noexcept { return events_written_; }
  [[nodiscard]] std::uint64_t blocks_written() const noexcept { return blocks_written_; }
  [[nodiscard]] std::uint64_t segments_written() const noexcept { return segments_; }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  /// Directory fsyncs covering the segments this writer filled (one per
  /// segment made current, one at close): the durability discipline
  /// regression tests assert on this — an msync'd segment whose DIRECTORY
  /// ENTRY is not durable can vanish wholesale in a crash, which recovery
  /// would misread as non-final damage and hard-fail.
  [[nodiscard]] std::uint64_t dir_fsyncs() const noexcept { return dir_fsyncs_; }

  /// Kept only because perfbench (perfbench/src/workloads.cpp) reads
  /// `prep_stalls`; always 0. Remove it with the next change to perfbench.
  struct PipelineStats {
    std::uint64_t prep_stalls = 0;
  };
  [[nodiscard]] PipelineStats pipeline_stats() const noexcept { return {}; }

 private:
  bool open_segment();
  bool close_segment(bool truncate_to_used);
  bool sync_directory();
  bool fail(const std::string& what);
  void write_segment_header();
  /// Events that still fit in the current segment as one more block.
  [[nodiscard]] std::size_t room_events() const noexcept;
  void put_block(std::span<const core::Event> events);

  WriterOptions options_;
  std::string error_;
  bool closed_ = false;

  int fd_ = -1;
  int dir_fd_ = -1;  // the log directory, held open for entry fsyncs
  unsigned char* map_ = nullptr;  // current segment mapping
  std::size_t map_bytes_ = 0;
  std::size_t used_ = 0;  // bytes written into the current segment

  std::uint64_t segments_ = 0;
  std::uint64_t events_written_ = 0;
  std::uint64_t blocks_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t dir_fsyncs_ = 0;
};

}  // namespace optm::log
