#include "stm/tl2.hpp"

#include <algorithm>

#include "util/spin.hpp"

namespace optm::stm {

Tl2Stm::Tl2Stm(std::size_t num_vars) : RuntimeBase(num_vars), vars_(num_vars) {
  // Every non-local read is O(1)-validated against rv and stamped with its
  // (rv, version) pair below, so the recorder windows are droppable.
  window_free_supported_ = true;
}

void Tl2Stm::begin(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  slot.active = true;
  slot.rv_sampled = false;
  slot.rv = 0;
  slot.rs.clear();
  slot.ws.clear();
  ++ctx.stats.begins;
  rec_begin(ctx);
}

bool Tl2Stm::fail_op(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  slot.active = false;
  ++ctx.stats.aborts;
  rec_abort_mid_op(ctx, 2 * slot.rv + 1);  // serialize at the snapshot
  return false;
}

bool Tl2Stm::read(sim::ThreadCtx& ctx, VarId var, std::uint64_t& out) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.reads;
  rec_inv(ctx, var, core::OpCode::kRead, 0);

  if (const WriteEntry* own = slot.ws.find(var)) {
    out = own->value;  // read-own-write from the process-local buffer
    rec_ret(ctx, var, core::OpCode::kRead, 0, out);
    return true;
  }

  VarMeta& meta = *vars_[var];
  const RecWindow window = rec_sample_window();  // sampling atomic with record
  ensure_rv(ctx, slot);
  const std::uint64_t v1 = meta.lock_ver.load(ctx);
  const std::uint64_t val = meta.value.load(ctx);
  const std::uint64_t v2 = meta.lock_ver.load(ctx);
  // O(1) validation against rv: stale version => abort, regardless of
  // whether the writer is still live (the non-progressive abort).
  if (v1 != v2 || locked(v1) || version_of(v1) > slot.rv) {
    return fail_op(ctx);
  }
  slot.rs.push_back({var, version_of(v1)});
  out = val;
  // The read-stamp pair: the version read was current at snapshot rv
  // (version_of(v1) <= rv just validated) — all a stamp-space certificate
  // needs, with or without the sampling window.
  rec_ret(ctx, var, core::OpCode::kRead, 0, out, 2 * slot.rv + 1,
          version_of(v1));
  return true;
}

bool Tl2Stm::write(sim::ThreadCtx& ctx, VarId var, std::uint64_t value) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.writes;
  rec_inv(ctx, var, core::OpCode::kWrite, value);
  slot.ws.upsert(var, value);  // lazy: published only at commit
  rec_ret(ctx, var, core::OpCode::kWrite, value, 0);
  return true;
}

bool Tl2Stm::commit(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  rec_try_commit(ctx);

  // Read-only fast path: every read was already validated against rv, so
  // the transaction serializes at its last read; the commit point needs no
  // shared-memory work. (The window keeps the C record atomic with the
  // quiescent state the reads certified; see the recorder's soundness note.)
  if (slot.ws.empty()) {
    const RecWindow window = rec_sample_window();
    ensure_rv(ctx, slot);
    slot.active = false;
    ++ctx.stats.commits;
    rec_commit(ctx, 2 * slot.rv + 1);  // serialize at the snapshot time
    return true;
  }

  const RecWindow window = rec_commit_window();  // commit point atomic with record

  auto fail = [&](std::size_t locked_upto, auto& order) {
    for (std::size_t i = 0; i < locked_upto; ++i) {
      VarMeta& meta = *vars_[order[i].var];
      meta.lock_ver.store(ctx, pack(order[i].version));  // restore, unlock
    }
    slot.active = false;
    ++ctx.stats.aborts;
    rec_abort_at_commit(ctx, 2 * slot.rv + 1);
    return false;
  };

  // Lock the write set in VarId order (global order -> no deadlock). Record
  // each variable's pre-lock version for release-on-abort and validation.
  // The order scratch lives in the slot so steady-state commits reuse its
  // capacity instead of allocating.
  std::vector<Locked>& order = slot.lock_order;
  order.clear();
  order.reserve(slot.ws.size());
  for (const WriteEntry& w : slot.ws.entries()) order.push_back({w.var, w.value, 0});
  std::sort(order.begin(), order.end(),
            [](const Locked& a, const Locked& b) { return a.var < b.var; });

  for (std::size_t i = 0; i < order.size(); ++i) {
    VarMeta& meta = *vars_[order[i].var];
    util::Backoff backoff;
    for (std::uint32_t attempt = 0;; ++attempt) {
      std::uint64_t vl = meta.lock_ver.load(ctx);
      if (!locked(vl)) {
        order[i].version = version_of(vl);
        if (meta.lock_ver.cas(ctx, vl, vl | kLockedBit)) break;
      }
      if (attempt >= 32) return fail(i, order);  // bounded spinning
      backoff.pause();
    }
  }

  const std::uint64_t wv = clock_.advance(ctx);

  // Validate the read set unless nothing committed since begin.
  if (wv != slot.rv + 1) {
    for (const ReadEntry& r : slot.rs) {
      VarMeta& meta = *vars_[r.var];
      const std::uint64_t before = ctx.steps.total();
      const std::uint64_t vl = meta.lock_ver.load(ctx);
      ctx.stats.validation_steps += ctx.steps.total() - before;
      const bool locked_by_me = slot.ws.find(r.var) != nullptr;
      if ((locked(vl) && !locked_by_me) || version_of(vl) > slot.rv) {
        return fail(order.size(), order);
      }
    }
  }

  // Commit point: validation succeeded while holding every write lock.
  rec_commit(ctx, 2 * wv);

  // Write back and release with the new version.
  for (const Locked& l : order) {
    VarMeta& meta = *vars_[l.var];
    meta.value.store(ctx, l.value);
    meta.lock_ver.store(ctx, pack(wv));
  }
  slot.active = false;
  ++ctx.stats.commits;
  return true;
}

void Tl2Stm::abort(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return;
  ensure_rv(ctx, slot);
  slot.active = false;
  ++ctx.stats.aborts;
  rec_voluntary_abort(ctx, 2 * slot.rv + 1);
}

}  // namespace optm::stm
