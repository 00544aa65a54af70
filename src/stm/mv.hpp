// Multi-version STM (LSA-STM / JVSTM family), the paper's third escape
// route from the Ω(k) bound (§6, footnote 2):
//
//   "For multi-version TM implementations, like LSA-STM or JVSTM, the
//    complexity is not constant. However, it can be bounded by a function
//    independent of k."
//
// Each variable keeps a bounded ring of committed (version, value) pairs
// stamped by a global commit clock. Read-only transactions fix a snapshot
// at begin and read the newest version no newer than the snapshot: they
// never validate and never abort on conflicts (only if their version has
// been evicted from the ring) — exactly the H4 optimization §5.2 describes
// ("multi-version TMs use such optimizations to allow long read-only
// transactions to commit despite concurrent updates"). Update transactions
// read the latest version and validate TL2-style at commit.
//
// Per-operation cost: O(ring depth) — independent of k, as the footnote
// demands; not O(1), which bench/bench_lower_bound makes visible.
//
// Recording: commits stamp their serialization point onto the C event
// (2·wv for updates, 2·snapshot+1 for read-only transactions), which is
// what the core::VersionOrderResolver's stamp order certifies
// against — read-only transactions serialize at their snapshot rank, not
// at their C record position, so their C record takes no sampling window.
// Every non-local read is additionally stamped (2·snapshot+1, version
// stamp): the ring slot's stamp is the writer's wv ticket, and the read
// returned the newest version no newer than the snapshot, so the claim
// "version `st` was current at 2·snapshot+1" holds by construction — a
// version with stamp in (st, snapshot] would have been drawn before the
// snapshot was, behind a seqlock the read waits out. Update commits draw
// their ticket AFTER locking the write set and BEFORE validating
// (TL2-style lock → ticket → validate), so an overwriter of anything an
// update read tickets strictly later; with that, the whole runtime
// records window-free (Stm::set_window_free), update commits included.
#pragma once

#include <vector>

#include "sim/base_object.hpp"
#include "stm/runtime.hpp"
#include "util/cache.hpp"

namespace optm::stm {

class MvStm final : public RuntimeBase {
 public:
  /// `depth` = committed versions retained per variable (>= 1).
  explicit MvStm(std::size_t num_vars, std::size_t depth = 8);

  [[nodiscard]] StmProperties properties() const noexcept override {
    return {.name = "mv",
            .invisible_reads = true,
            .single_version = false,
            .progressive = true,
            .opaque = true};
  }

  void begin(sim::ThreadCtx& ctx) override;
  /// Hint that the next transaction of this process is read-only: it will
  /// use snapshot reads (write() then fails the transaction).
  void begin_read_only(sim::ThreadCtx& ctx);
  [[nodiscard]] bool read(sim::ThreadCtx& ctx, VarId var,
                          std::uint64_t& out) override;
  [[nodiscard]] bool write(sim::ThreadCtx& ctx, VarId var,
                           std::uint64_t value) override;
  [[nodiscard]] bool commit(sim::ThreadCtx& ctx) override;
  void abort(sim::ThreadCtx& ctx) override;

  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

 private:
  // Per-variable seqlock: value = 2 * installs (odd while a writer
  // installs). The newest ring slot is (installs - 1) % depth.
  struct Version {
    sim::BaseWord stamp;  // global-clock stamp of the committing tx
    sim::BaseWord value;
  };
  struct VarMeta {
    sim::BaseWord seqlock;
    std::vector<Version> ring;
  };

  struct Slot {
    bool active = false;
    bool read_only = false;
    bool snapped = false;        // snapshot taken yet? (lazy, LSA-style)
    std::uint64_t snapshot = 0;  // upper bound for read-only snapshot reads
    std::vector<ReadEntry> rs;   // update transactions: (var, stamp read)
    WriteSet ws;
  };

  /// Read the newest (stamp, value) with stamp <= bound. Returns false if
  /// every retained version is newer than bound (evicted).
  [[nodiscard]] bool read_version(sim::ThreadCtx& ctx, VarId var,
                                  std::uint64_t bound, std::uint64_t& stamp,
                                  std::uint64_t& value);

  /// Lazy snapshot (LSA-style): the snapshot is sampled at the FIRST
  /// operation, not at begin(). The paper's real-time order is defined by a
  /// transaction's first EVENT, so a snapshot older than the first
  /// operation could make a later stale read violate ≺_H (a writer that
  /// committed between begin and the first operation must be visible).
  void ensure_snapshot(sim::ThreadCtx& ctx, Slot& slot) {
    if (!slot.snapped) {
      slot.snapshot = clock_.read(ctx);
      slot.snapped = true;
    }
  }

  bool fail_op(sim::ThreadCtx& ctx);

  std::size_t depth_;
  std::vector<util::Padded<VarMeta>> vars_;
  sim::GlobalClock clock_;
  std::array<util::Padded<Slot>, sim::kMaxThreads> slots_;
};

}  // namespace optm::stm
