#include "log/writer.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "util/hash.hpp"

namespace optm::log {

namespace {

void copy_padded(char* dst, std::size_t cap, const std::string& src) {
  std::memset(dst, 0, cap);
  std::memcpy(dst, src.data(), std::min(src.size(), cap - 1));
}

}  // namespace

LogWriter::LogWriter(WriterOptions options) : options_(std::move(options)) {
  options_.segment_bytes = std::max(options_.segment_bytes, kMinSegmentBytes);
  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  if (ec) {
    fail("create_directories(" + options_.directory + "): " + ec.message());
    return;
  }
  // Hold the directory open for the lifetime of the writer: segment
  // creation/rotation/truncation must fsync the DIRECTORY too, or a crash
  // can lose the entry of a fully-msync'd segment (recovery would then
  // see a hole and hard-fail as non-final damage).
  dir_fd_ = ::open(options_.directory.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd_ < 0) {
    fail("open(" + options_.directory + "): " + std::strerror(errno));
    return;
  }
  // A directory that already holds segment files is someone else's log:
  // appending would interleave two recordings and the eventual
  // open(O_EXCL) would die with a bare "File exists". Refuse up front.
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.directory, ec)) {
    const auto name = entry.path().filename().string();
    if (name.size() > std::strlen(kSegmentSuffix) &&
        name.rfind(kSegmentSuffix) ==
            name.size() - std::strlen(kSegmentSuffix)) {
      fail("refusing to overwrite existing log in " + options_.directory +
           " (found " + name + ")");
      return;
    }
  }
  if (ec) {
    fail("scan(" + options_.directory + "): " + ec.message());
    return;
  }
}

LogWriter::~LogWriter() { close(); }

bool LogWriter::fail(const std::string& what) {
  if (error_.empty()) error_ = what;
  return false;
}

std::size_t LogWriter::room_events() const noexcept {
  const std::size_t used = used_ == 0 ? kSegmentHeaderBytes : used_;
  if (used + sizeof(BlockHeader) >= map_bytes_) return 0;
  return (map_bytes_ - used - sizeof(BlockHeader)) / sizeof(core::Event);
}

void LogWriter::write_segment_header() {
  SegmentHeader h;
  h.segment_index = segments_;
  h.segment_bytes = options_.segment_bytes;
  h.first_stamp = events_written_;
  h.num_vars = options_.metadata.num_vars;
  h.threads = options_.metadata.threads;
  copy_padded(h.runtime, kRuntimeChars, options_.metadata.runtime);
  copy_padded(h.policy, kPolicyChars, options_.metadata.policy);
  copy_padded(h.window_mode, kWindowModeChars, options_.metadata.window_mode);
  h.header_crc = util::crc32c(&h, offsetof(SegmentHeader, header_crc));
  // Header page before blocks: nothing else lands in the mapping until
  // this memcpy is done.
  std::memset(map_, 0, kSegmentHeaderBytes);
  // Copy only the used bytes: sizeof(SegmentHeader) includes trailing
  // struct padding, whose (indeterminate) stack bytes must not leak into
  // the file — "rest of the page is zero" is part of the format.
  std::memcpy(map_, &h, kSegmentHeaderUsedBytes);
  used_ = kSegmentHeaderBytes;
  ++segments_;
  bytes_written_ += kSegmentHeaderBytes;
}

bool LogWriter::open_segment() {
  const auto path = std::filesystem::path(options_.directory) /
                    segment_file_name(segments_);
  fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_EXCL, 0644);
  if (fd_ < 0) {
    return fail("open(" + path.string() + "): " + std::strerror(errno));
  }
  if (::ftruncate(fd_, static_cast<off_t>(options_.segment_bytes)) != 0) {
    const int e = errno;
    ::close(fd_);
    fd_ = -1;
    return fail(path.string() + ": ftruncate: " + std::strerror(e));
  }
  void* map = ::mmap(nullptr, options_.segment_bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd_, 0);
  if (map == MAP_FAILED) {
    const int e = errno;
    ::close(fd_);
    fd_ = -1;
    return fail("mmap(" + path.string() + "): " + std::strerror(e));
  }
  map_ = static_cast<unsigned char*>(map);
  map_bytes_ = options_.segment_bytes;
  write_segment_header();
  // The new segment's directory entry (name + inode) must be durable
  // before any block lands in it: otherwise a crash after rotation can
  // drop a whole mid-log segment even though its pages were msync'd.
  return sync_directory();
}

bool LogWriter::sync_directory() {
  if (dir_fd_ < 0) return fail("directory fd not open");
  if (::fsync(dir_fd_) != 0) {
    return fail(std::string("fsync(directory): ") + std::strerror(errno));
  }
  ++dir_fsyncs_;
  return true;
}

void LogWriter::put_block(std::span<const core::Event> events) {
  const std::size_t payload = events.size_bytes();
  unsigned char* at = map_ + used_;
  // Payload first, header last: until the header bytes land, the reader
  // sees either zeroes (end of segment) or a CRC-failing torn tail.
  unsigned char* body = at + sizeof(BlockHeader);
  std::memcpy(body, events.data(), payload);
  BlockHeader bh;
  bh.event_count = static_cast<std::uint32_t>(events.size());
  bh.first_stamp = events_written_;
  bh.payload_crc = util::crc32c(body, payload);
  bh.header_crc = util::crc32c(&bh, kBlockHeaderCrcBytes);
  std::memcpy(at, &bh, sizeof bh);
  used_ += sizeof(BlockHeader) + payload;
  bytes_written_ += sizeof(BlockHeader) + payload;
  events_written_ += events.size();
  ++blocks_written_;
}

bool LogWriter::append(std::span<const core::Event> events) {
  if (!ok()) return false;
  if (closed_) return fail("append after close");
  while (!events.empty()) {
    if (map_ == nullptr && !open_segment()) return false;
    std::size_t room = room_events();
    if (room == 0) {
      if (!close_segment(/*truncate_to_used=*/false)) return false;
      if (!open_segment()) return false;
      room = room_events();
    }
    const std::size_t take = std::min(events.size(), room);
    // event_count is u32; a drained batch can't realistically exceed it,
    // but split defensively rather than truncate.
    const std::size_t n = std::min(take, std::size_t{0x7fffffff});
    put_block(events.first(n));
    events = events.subspan(n);
  }
  return true;
}

bool LogWriter::close_segment(bool truncate_to_used) {
  if (map_ == nullptr) return true;
  bool ok_here = true;
  if (::msync(map_, map_bytes_, MS_SYNC) != 0) {
    ok_here = fail(std::string("msync: ") + std::strerror(errno));
  }
  ::munmap(map_, map_bytes_);
  map_ = nullptr;
  map_bytes_ = 0;
  if (ok_here && truncate_to_used) {
    if (::ftruncate(fd_, static_cast<off_t>(used_)) != 0) {
      ok_here = fail(std::string("ftruncate(tail): ") + std::strerror(errno));
    } else if (::fsync(fd_) != 0) {
      // msync covered the mapped pages; the tail truncation is an INODE
      // change and needs its own fsync to be durable.
      ok_here = fail(std::string("fsync(tail): ") + std::strerror(errno));
    }
  }
  ::close(fd_);
  fd_ = -1;
  used_ = 0;
  return ok_here;
}

bool LogWriter::close() {
  if (closed_) return ok();
  closed_ = true;
  // An empty log still gets one (header-only) segment so the metadata —
  // and the fact that zero events were recorded — is durable.
  if (ok() && map_ == nullptr && segments_ == 0) open_segment();
  close_segment(/*truncate_to_used=*/true);
  // Seal the directory state (covers the tail truncation above) before
  // declaring the log closed.
  if (ok()) sync_directory();
  if (dir_fd_ >= 0) {
    ::close(dir_fd_);
    dir_fd_ = -1;
  }
  return ok();
}

}  // namespace optm::log
