#include "stm/tiny.hpp"

#include "util/spin.hpp"

namespace optm::stm {

TinyStm::TinyStm(std::size_t num_vars) : RuntimeBase(num_vars), vars_(num_vars) {
  // Reads validate (or extend) against a named snapshot rv and are stamped
  // with their (rv, version) pair, so the recorder windows are droppable.
  window_free_supported_ = true;
}

void TinyStm::begin(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  slot.active = true;
  slot.rv_sampled = false;
  slot.rv = 0;
  slot.rs.clear();
  slot.ws.clear();
  ++ctx.stats.begins;
  rec_begin(ctx);
}

bool TinyStm::extend(sim::ThreadCtx& ctx, Slot& slot, std::uint64_t target) {
  const std::uint64_t before = ctx.steps.total();
  bool ok = true;
  for (const ReadEntry& r : slot.rs) {
    const std::uint64_t vl = vars_[r.var]->lock_ver.load(ctx);
    const bool ours = locked(vl) && version_of(vl) == ctx.id() + 1;
    if (ours) continue;  // we hold the lock: still our recorded version
    if (locked(vl) || version_of(vl) != r.version) {
      ok = false;  // overwritten (or being overwritten) by a rival
      break;
    }
  }
  ctx.stats.validation_steps += ctx.steps.total() - before;
  if (ok) {
    slot.rv = target;
    ++slot.extensions;
  }
  return ok;
}

void TinyStm::release_locks(sim::ThreadCtx& ctx, Slot& slot, bool write_back,
                            std::uint64_t new_version) {
  for (const LockedEntry& e : slot.ws) {
    VarMeta& meta = *vars_[e.var];
    if (write_back) {
      meta.value.store(ctx, e.value);
      meta.lock_ver.store(ctx, pack_version(new_version));
    } else {
      meta.lock_ver.store(ctx, pack_version(e.old_version));
    }
  }
  slot.ws.clear();
}

bool TinyStm::fail_op(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  release_locks(ctx, slot, /*write_back=*/false, 0);
  slot.active = false;
  ++ctx.stats.aborts;
  rec_abort_mid_op(ctx, 2 * slot.rv + 1);  // serialize at the snapshot
  return false;
}

bool TinyStm::read(sim::ThreadCtx& ctx, VarId var, std::uint64_t& out) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.reads;
  rec_inv(ctx, var, core::OpCode::kRead, 0);

  if (const LockedEntry* own = find_locked(slot, var)) {
    out = own->value;  // read-own-write from the buffered update
    rec_ret(ctx, var, core::OpCode::kRead, 0, out);
    return true;
  }

  VarMeta& meta = *vars_[var];
  const RecWindow window = rec_sample_window();
  ensure_rv(ctx, slot);
  for (;;) {
    const std::uint64_t v1 = meta.lock_ver.load(ctx);
    const std::uint64_t val = meta.value.load(ctx);
    const std::uint64_t v2 = meta.lock_ver.load(ctx);
    if (v1 != v2 || locked(v1)) {
      return fail_op(ctx);  // rival holds the lock: suicide (live conflict)
    }
    if (version_of(v1) > slot.rv) {
      // TL2 would abort here. Extension: if nothing read so far was
      // overwritten, the snapshot slides forward and the read proceeds —
      // Θ(|read set|) steps, the Theorem 3 price of staying progressive.
      if (!extend(ctx, slot, clock_.read(ctx))) return fail_op(ctx);
      // Re-sample: a rival may have overwritten this variable between the
      // sample above and extend()'s clock read, making (v1, val) stale
      // against the slid snapshot. (The windowed recorder's sampling
      // window used to exclude that interleaving; window-free, the
      // re-sample is what keeps the read — and its stamp — truthful.)
      continue;
    }
    slot.rs.push_back({var, version_of(v1)});
    out = val;
    // Stamp with the (possibly just-extended) snapshot: version_of(v1) <=
    // slot.rv holds for the value just re-sampled.
    rec_ret(ctx, var, core::OpCode::kRead, 0, out, 2 * slot.rv + 1,
            version_of(v1));
    return true;
  }
}

bool TinyStm::write(sim::ThreadCtx& ctx, VarId var, std::uint64_t value) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.writes;
  rec_inv(ctx, var, core::OpCode::kWrite, value);

  for (LockedEntry& e : slot.ws) {
    if (e.var == var) {
      e.value = value;  // already encounter-locked: update the buffer
      rec_ret(ctx, var, core::OpCode::kWrite, value, 0);
      return true;
    }
  }

  VarMeta& meta = *vars_[var];
  // Encounter-time locking mutates the lock word only (no committed value
  // is published), so sampling-grade atomicity suffices for the record.
  const RecWindow window = rec_sample_window();
  ensure_rv(ctx, slot);
  std::uint64_t vl = meta.lock_ver.load(ctx);
  if (locked(vl)) return fail_op(ctx);  // suicide against the live holder
  if (version_of(vl) > slot.rv) {
    // Writing a variable that moved past our snapshot: extend or die —
    // otherwise the commit-time validation could never succeed anyway.
    if (!extend(ctx, slot, clock_.read(ctx))) return fail_op(ctx);
    if (version_of(vl) > slot.rv) return fail_op(ctx);
  }
  if (!meta.lock_ver.cas(ctx, vl, pack_owner(ctx.id()))) {
    return fail_op(ctx);  // lost the race to another writer
  }
  slot.ws.push_back({var, value, version_of(vl)});
  rec_ret(ctx, var, core::OpCode::kWrite, value, 0);
  return true;
}

bool TinyStm::commit(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  rec_try_commit(ctx);

  if (slot.ws.empty()) {
    // Read-only: the read set is valid at rv; serialize there. Publishes
    // nothing, so a sampling window is enough.
    const RecWindow window = rec_sample_window();
    ensure_rv(ctx, slot);
    slot.active = false;
    ++ctx.stats.commits;
    rec_commit(ctx, 2 * slot.rv + 1);
    return true;
  }

  const RecWindow window = rec_commit_window();
  ensure_rv(ctx, slot);

  const std::uint64_t wv = clock_.advance(ctx);
  // If a rival committed between rv and wv - 1, the read set must still be
  // current (the locked write set cannot have changed under us).
  if (wv != slot.rv + 1 && !extend(ctx, slot, wv - 1)) {
    release_locks(ctx, slot, /*write_back=*/false, 0);
    slot.active = false;
    ++ctx.stats.aborts;
    rec_abort_at_commit(ctx, 2 * slot.rv + 1);
    return false;
  }

  rec_commit(ctx, 2 * wv);  // commit point: validated while holding locks
  release_locks(ctx, slot, /*write_back=*/true, wv);
  slot.active = false;
  ++ctx.stats.commits;
  return true;
}

void TinyStm::abort(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return;
  ensure_rv(ctx, slot);
  release_locks(ctx, slot, /*write_back=*/false, 0);
  slot.active = false;
  ++ctx.stats.aborts;
  rec_voluntary_abort(ctx, 2 * slot.rv + 1);
}

}  // namespace optm::stm
