// A deterministic, opaque event stream that keeps more transactions live
// on one register than a register head holds inline: `readers` lanes run
// read-only transactions that read the hot register x0, one lane runs
// blind writes of fresh values to x0, and the lanes are interleaved
// pseudo-randomly one event at a time. Every reader holds x0's current
// version until it commits, and every write closes that version under its
// holders, so holder lists keep spilling past the inline slots and being
// released again.
//
// Read-only readers keep the stream clean under every policy: an
// overwrite only shrinks a reader's window to end at the writer's rank,
// which lies above the reader's birth floor.
#pragma once

#include <cstdint>
#include <vector>

#include "core/event.hpp"

namespace optm::core {

class HotRegisterStream {
 public:
  explicit HotRegisterStream(std::uint32_t readers,
                             std::uint64_t seed = 20261017)
      : lanes_(readers + 1), rng_(seed) {}

  /// Registers the stream touches (x0 only).
  static constexpr std::size_t kRegisters = 1;

  [[nodiscard]] Event next() {
    rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto k = static_cast<std::size_t>((rng_ >> 33) % lanes_.size());
    Lane& lane = lanes_[k];
    if (lane.step == 4) {
      lane.tx = next_tx_++;
      lane.step = 0;
    }
    const TxId t = lane.tx;
    const bool writer = k == 0;
    switch (lane.step++) {
      case 0:
        if (writer) return ev::inv(t, 0, OpCode::kWrite, next_value_);
        return ev::inv(t, 0, OpCode::kRead);
      case 1:
        if (writer) {
          const Value v = next_value_++;
          pending_value_ = v;
          return ev::ret(t, 0, OpCode::kWrite, v, 0);
        }
        return ev::ret(t, 0, OpCode::kRead, 0, current_);
      case 2:
        return ev::try_commit(t);
      default:
        if (writer) current_ = pending_value_;
        return ev::commit(t);
    }
  }

  /// Transaction ids handed out so far (ids are dense from 1).
  [[nodiscard]] TxId txs_started() const noexcept { return next_tx_ - 1; }

 private:
  struct Lane {
    TxId tx{0};
    int step{4};  // 4 = start the next transaction
  };
  std::vector<Lane> lanes_;
  std::uint64_t rng_;
  TxId next_tx_ = 1;
  Value current_ = 0;  // x0's committed value
  Value next_value_ = 1;
  Value pending_value_ = 0;
};

}  // namespace optm::core
