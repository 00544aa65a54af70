#include "stm/visible.hpp"

#include "util/spin.hpp"

namespace optm::stm {

VisibleReadStm::VisibleReadStm(std::size_t num_vars,
                               std::unique_ptr<ContentionManager> cm)
    : RuntimeBase(num_vars),
      vars_(num_vars),
      cm_(cm != nullptr ? std::move(cm) : std::make_unique<AggressiveCm>()) {}

void VisibleReadStm::begin(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  // Reader bits are cleared lazily, here: completed transactions leave
  // their bits behind (writers skip non-Active readers in the kill-scan),
  // which keeps abort and commit paths O(1) — the amortization RSTM uses.
  clear_read_bits(ctx, slot);
  slot.active = true;
  ++slot.epoch;
  slot.ws.clear();
  slot.cm_view.start_stamp = start_stamps_.fetch_add(1) + 1;
  slot.cm_view.ops_executed = 0;
  slot.cm_view.retries = slot.cm_retries;
  status_[ctx.id()]->store(ctx, status_word(slot.epoch, kActive));
  ++ctx.stats.begins;
  rec_begin(ctx);
}

void VisibleReadStm::clear_read_bits(sim::ThreadCtx& ctx, Slot& slot) {
  const std::uint64_t my_bit = 1ULL << ctx.id();
  for (VarId var : slot.rs) (void)vars_[var]->readers.fetch_and(ctx, ~my_bit);
  slot.rs.clear();
}

void VisibleReadStm::release_owned(sim::ThreadCtx& ctx, Slot& slot) {
  for (const OwnedEntry& e : slot.ws) {
    std::uint64_t expect = owner_word(ctx.id(), slot.epoch);
    (void)vars_[e.var]->owner.cas(ctx, expect, 0);
  }
  slot.ws.clear();
}

bool VisibleReadStm::fail_op(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  status_[ctx.id()]->store(ctx, status_word(slot.epoch, kAborted));
  release_owned(ctx, slot);
  slot.active = false;  // reader bits cleared lazily at next begin
  ++slot.cm_retries;
  ++ctx.stats.aborts;
  rec_abort_mid_op(ctx);
  return false;
}

bool VisibleReadStm::read(sim::ThreadCtx& ctx, VarId var, std::uint64_t& out) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.reads;
  ++slot.cm_view.ops_executed;
  rec_inv(ctx, var, core::OpCode::kRead, 0);

  for (const OwnedEntry& e : slot.ws) {
    if (e.var == var) {
      out = e.value;
      rec_ret(ctx, var, core::OpCode::kRead, 0, out);
      return true;
    }
  }

  VarMeta& meta = *vars_[var];
  // The visible-read announcement (reader-bit RMW) commutes with rival
  // samples, so sampling windows may overlap it safely.
  const RecWindow window = rec_sample_window();

  // Announce FIRST (flag), then examine the owner (check): every writer
  // either sees our bit at its kill-scan or is seen by us here.
  const std::uint64_t my_bit = 1ULL << ctx.id();
  (void)meta.readers.fetch_or(ctx, my_bit);  // the visible shared write
  slot.rs.push_back(var);

  util::Backoff backoff;
  for (std::uint32_t attempt = 0;; ++attempt) {
    const std::uint64_t own = meta.owner.load(ctx);
    if (own == 0) break;
    const std::uint32_t s = static_cast<std::uint32_t>((own >> 32) - 1);
    const std::uint64_t e = own & 0xffffffffULL;
    const std::uint64_t st = status_[s]->load(ctx);
    if (epoch_of(st) != e || state_of(st) == kAborted) break;  // stale: old value valid
    if (state_of(st) == kCommitted) {
      backoff.pause();  // write-back in flight
      continue;
    }
    // Reader/writer conflict with a live owner.
    switch (cm_->resolve(slot.cm_view, slots_[s]->cm_view, attempt)) {
      case CmDecision::kAbortOther: {
        std::uint64_t expect = status_word(e, kActive);
        (void)status_[s]->cas(ctx, expect, status_word(e, kAborted));
        continue;
      }
      case CmDecision::kAbortSelf:
        return fail_op(ctx);
      case CmDecision::kWait:
        backoff.pause();
        continue;
    }
  }

  const std::uint64_t val = meta.value.load(ctx);
  // O(1) validation: if no writer killed us, the whole read set is intact.
  if (!still_active(ctx, slot)) return fail_op(ctx);

  out = val;
  rec_ret(ctx, var, core::OpCode::kRead, 0, out);
  return true;
}

bool VisibleReadStm::write(sim::ThreadCtx& ctx, VarId var, std::uint64_t value) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.writes;
  ++slot.cm_view.ops_executed;
  rec_inv(ctx, var, core::OpCode::kWrite, value);

  for (OwnedEntry& e : slot.ws) {
    if (e.var == var) {
      e.value = value;
      rec_ret(ctx, var, core::OpCode::kWrite, value, 0);
      return true;
    }
  }

  VarMeta& meta = *vars_[var];
  const std::uint64_t me = owner_word(ctx.id(), slot.epoch);
  util::Backoff backoff;
  for (std::uint32_t attempt = 0;; ++attempt) {
    std::uint64_t own = meta.owner.load(ctx);
    if (own == 0) {
      if (meta.owner.cas(ctx, own, me)) break;
      continue;
    }
    const std::uint32_t s = static_cast<std::uint32_t>((own >> 32) - 1);
    const std::uint64_t e = own & 0xffffffffULL;
    const std::uint64_t st = status_[s]->load(ctx);
    if (epoch_of(st) != e || state_of(st) == kAborted) {
      if (meta.owner.cas(ctx, own, me)) break;
      continue;
    }
    if (state_of(st) == kCommitted) {
      backoff.pause();
      continue;
    }
    switch (cm_->resolve(slot.cm_view, slots_[s]->cm_view, attempt)) {
      case CmDecision::kAbortOther: {
        std::uint64_t expect = status_word(e, kActive);
        (void)status_[s]->cas(ctx, expect, status_word(e, kAborted));
        continue;
      }
      case CmDecision::kAbortSelf:
        return fail_op(ctx);
      case CmDecision::kWait:
        backoff.pause();
        continue;
    }
  }

  // Kill-scan: eagerly abort every visible reader (this is what makes the
  // read-path validation O(1)).
  const std::uint64_t readers = vars_[var]->readers.load(ctx);
  for (std::uint32_t s = 0; s < sim::kMaxThreads; ++s) {
    if (s == ctx.id() || ((readers >> s) & 1) == 0) continue;
    const std::uint64_t st = status_[s]->load(ctx);
    if (state_of(st) == kActive) {
      std::uint64_t expect = st;
      (void)status_[s]->cas(ctx, expect, status_word(epoch_of(st), kAborted));
    }
  }

  slot.ws.push_back({var, value});
  if (!still_active(ctx, slot)) return fail_op(ctx);
  rec_ret(ctx, var, core::OpCode::kWrite, value, 0);
  return true;
}

bool VisibleReadStm::commit(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  rec_try_commit(ctx);

  const RecWindow window = rec_commit_window();

  // Commit point: the status CAS. No read-set validation needed — writers
  // abort visible readers eagerly, so still-Active means reads are intact.
  std::uint64_t expect = status_word(slot.epoch, kActive);
  if (!status_[ctx.id()]->cas(ctx, expect,
                              status_word(slot.epoch, kCommitted))) {
    release_owned(ctx, slot);
    slot.active = false;
    ++slot.cm_retries;
    ++ctx.stats.aborts;
    rec_abort_at_commit(ctx);
    return false;
  }
  rec_commit(ctx);

  for (const OwnedEntry& e : slot.ws) {
    VarMeta& meta = *vars_[e.var];
    meta.value.store(ctx, e.value);
    meta.owner.store(ctx, 0);
  }
  slot.ws.clear();
  slot.active = false;
  slot.cm_retries = 0;
  ++ctx.stats.commits;
  return true;
}

void VisibleReadStm::abort(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return;
  status_[ctx.id()]->store(ctx, status_word(slot.epoch, kAborted));
  release_owned(ctx, slot);
  slot.active = false;
  ++ctx.stats.aborts;
  rec_voluntary_abort(ctx);
}

}  // namespace optm::stm
