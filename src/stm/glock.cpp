#include "stm/glock.hpp"

#include "util/spin.hpp"

namespace optm::stm {

GlobalLockStm::GlobalLockStm(std::size_t num_vars)
    : RuntimeBase(num_vars), values_(num_vars) {}

void GlobalLockStm::begin(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  util::Backoff backoff;
  for (;;) {
    std::uint64_t expected = 0;
    if (lock_->cas(ctx, expected, ctx.id() + 1)) break;
    backoff.pause();
  }
  slot.active = true;
  slot.undo.clear();
  ++ctx.stats.begins;
  rec_begin(ctx);
}

bool GlobalLockStm::read(sim::ThreadCtx& ctx, VarId var, std::uint64_t& out) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.reads;
  rec_inv(ctx, var, core::OpCode::kRead, 0);
  const RecWindow window = rec_sample_window();
  out = values_[var]->load(ctx);  // exclusive: reads are trivially valid
  rec_ret(ctx, var, core::OpCode::kRead, 0, out);
  return true;
}

bool GlobalLockStm::write(sim::ThreadCtx& ctx, VarId var, std::uint64_t value) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.writes;
  rec_inv(ctx, var, core::OpCode::kWrite, value);
  // In-place mutation of committed state: exclusive against samplers.
  const RecWindow window = rec_commit_window();
  // Eager in-place update with an undo log (exclusive access anyway).
  if (slot.undo.find(var) == nullptr) {
    slot.undo.upsert(var, values_[var]->load(ctx));
  }
  values_[var]->store(ctx, value);
  rec_ret(ctx, var, core::OpCode::kWrite, value, 0);
  return true;
}

bool GlobalLockStm::commit(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  rec_try_commit(ctx);
  const RecWindow window = rec_commit_window();
  rec_commit(ctx);  // commit point: still holding the global lock
  slot.active = false;
  ++ctx.stats.commits;
  lock_->store(ctx, 0);
  return true;
}

void GlobalLockStm::abort(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return;
  // Rollback restores committed values in place: exclusive window.
  const RecWindow window = rec_commit_window();
  // Roll back eager writes, then release.
  for (const WriteEntry& w : slot.undo.entries()) {
    values_[w.var]->store(ctx, w.value);
  }
  slot.active = false;
  ++ctx.stats.aborts;
  rec_voluntary_abort(ctx);
  lock_->store(ctx, 0);
}

}  // namespace optm::stm
