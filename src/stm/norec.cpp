#include "stm/norec.hpp"

#include "util/spin.hpp"

namespace optm::stm {

NorecStm::NorecStm(std::size_t num_vars)
    : RuntimeBase(num_vars), values_(num_vars) {
  // Reads are value-validated against a named seqlock snapshot rv and
  // stamped with it (the version half is kNoReadVersion — NOrec tracks
  // values, not versions), so the recorder windows are droppable.
  window_free_supported_ = true;
}

std::uint64_t NorecStm::wait_even(sim::ThreadCtx& ctx) {
  util::Backoff backoff;
  for (;;) {
    const std::uint64_t s = seqlock_->load(ctx);
    if ((s & 1) == 0) return s;
    backoff.pause();
  }
}

bool NorecStm::revalidate(sim::ThreadCtx& ctx, Slot& slot) {
  const std::uint64_t before = ctx.steps.total();
  for (;;) {
    const std::uint64_t s = wait_even(ctx);
    bool ok = true;
    for (const ReadEntry& r : slot.rs) {
      if (values_[r.var]->load(ctx) != r.version) {  // version field = value
        ok = false;
        break;
      }
    }
    if (!ok) {
      ctx.stats.validation_steps += ctx.steps.total() - before;
      return false;
    }
    if (seqlock_->load(ctx) == s) {
      slot.rv = s;
      ctx.stats.validation_steps += ctx.steps.total() - before;
      return true;
    }
    // A commit slipped in mid-validation; try again.
  }
}

void NorecStm::begin(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  slot.active = true;
  slot.rv_sampled = false;
  slot.rv = 0;
  slot.rs.clear();
  slot.ws.clear();
  ++ctx.stats.begins;
  rec_begin(ctx);
}

bool NorecStm::fail_op(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  slot.active = false;
  ++ctx.stats.aborts;
  rec_abort_mid_op(ctx, 2 * slot.rv + 1);  // serialize at the last-valid rv
  return false;
}

bool NorecStm::read(sim::ThreadCtx& ctx, VarId var, std::uint64_t& out) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.reads;
  rec_inv(ctx, var, core::OpCode::kRead, 0);

  if (const WriteEntry* own = slot.ws.find(var)) {
    out = own->value;
    rec_ret(ctx, var, core::OpCode::kRead, 0, out);
    return true;
  }

  const RecWindow window = rec_sample_window();
  ensure_rv(ctx, slot);
  std::uint64_t val = values_[var]->load(ctx);
  // If the global clock moved since our snapshot, some transaction
  // committed: value-revalidate EVERYTHING read so far (the amortized
  // Θ(|read set|) of Theorem 3), then re-read.
  while (seqlock_->load(ctx) != slot.rv) {
    if (!revalidate(ctx, slot)) return fail_op(ctx);
    val = values_[var]->load(ctx);
  }
  slot.rs.push_back({var, val});
  out = val;
  // Snapshot-only stamp: the value was current at seqlock snapshot rv (the
  // while loop above just proved it); the version identity is resolved by
  // value on the checker side.
  rec_ret(ctx, var, core::OpCode::kRead, 0, out, 2 * slot.rv + 1,
          core::kNoReadVersion);
  return true;
}

bool NorecStm::write(sim::ThreadCtx& ctx, VarId var, std::uint64_t value) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.writes;
  rec_inv(ctx, var, core::OpCode::kWrite, value);
  slot.ws.upsert(var, value);
  rec_ret(ctx, var, core::OpCode::kWrite, value, 0);
  return true;
}

bool NorecStm::commit(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  rec_try_commit(ctx);

  if (slot.ws.empty()) {
    // Read-only: the read set is valid at snapshot rv; serialize there.
    // Publishes nothing, so a sampling window is enough.
    const RecWindow window = rec_sample_window();
    ensure_rv(ctx, slot);
    slot.active = false;
    ++ctx.stats.commits;
    rec_commit(ctx, 2 * slot.rv + 1);
    return true;
  }

  const RecWindow window = rec_commit_window();
  ensure_rv(ctx, slot);

  // Acquire the global sequence lock at a snapshot our read set is valid
  // at; on interference revalidate and retry.
  for (;;) {
    std::uint64_t expect = slot.rv;
    if (seqlock_->cas(ctx, expect, slot.rv + 1)) break;
    if (!revalidate(ctx, slot)) {
      slot.active = false;
      ++ctx.stats.aborts;
      rec_abort_at_commit(ctx, 2 * slot.rv + 1);
      return false;
    }
  }

  // Commit point: we hold the global lock and the read set is valid.
  rec_commit(ctx, 2 * (slot.rv + 2));

  for (const WriteEntry& w : slot.ws.entries()) {
    values_[w.var]->store(ctx, w.value);
  }
  seqlock_->store(ctx, slot.rv + 2);
  slot.active = false;
  ++ctx.stats.commits;
  return true;
}

void NorecStm::abort(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return;
  ensure_rv(ctx, slot);
  slot.active = false;
  ++ctx.stats.aborts;
  rec_voluntary_abort(ctx, 2 * slot.rv + 1);
}

}  // namespace optm::stm
