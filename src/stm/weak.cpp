#include "stm/weak.hpp"

#include <algorithm>

#include "util/spin.hpp"

namespace optm::stm {

WeakStm::WeakStm(std::size_t num_vars) : RuntimeBase(num_vars), vars_(num_vars) {}

void WeakStm::begin(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  slot.active = true;
  slot.rs.clear();
  slot.ws.clear();
  ++ctx.stats.begins;
  rec_begin(ctx);
}

bool WeakStm::read(sim::ThreadCtx& ctx, VarId var, std::uint64_t& out) {
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

  VarMeta& meta = *vars_[var];
  const RecWindow window = rec_sample_window();
  // Stable (value, version) sample — and then NOTHING: no rv check, no
  // read-set validation. The transaction may now hold a torn snapshot.
  util::Backoff backoff;
  std::uint64_t v1 = 0;
  std::uint64_t val = 0;
  for (;;) {
    v1 = meta.lock_ver.load(ctx);
    val = meta.value.load(ctx);
    if (!locked(v1) && meta.lock_ver.load(ctx) == v1) break;
    backoff.pause();
  }
  slot.rs.push_back({var, version_of(v1)});
  out = val;
  rec_ret(ctx, var, core::OpCode::kRead, 0, out);
  return true;
}

bool WeakStm::write(sim::ThreadCtx& ctx, VarId var, std::uint64_t value) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.writes;
  rec_inv(ctx, var, core::OpCode::kWrite, value);
  slot.ws.upsert(var, value);
  rec_ret(ctx, var, core::OpCode::kWrite, value, 0);
  return true;
}

bool WeakStm::commit(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  rec_try_commit(ctx);

  const RecWindow window = rec_commit_window();

  auto finish_abort = [&] {
    slot.active = false;
    ++ctx.stats.aborts;
    rec_abort_at_commit(ctx);
    return false;
  };

  // Commit-time validation only (keeps COMMITTED transactions strictly
  // serializable; does nothing for the live ones).
  struct Locked {
    VarId var;
    std::uint64_t value;
    std::uint64_t version;
  };
  std::vector<Locked> order;
  order.reserve(slot.ws.size());
  for (const WriteEntry& w : slot.ws.entries()) order.push_back({w.var, w.value, 0});
  std::sort(order.begin(), order.end(),
            [](const Locked& a, const Locked& b) { return a.var < b.var; });

  auto release = [&](std::size_t upto) {
    for (std::size_t i = 0; i < upto; ++i) {
      vars_[order[i].var]->lock_ver.store(ctx, pack(order[i].version));
    }
  };

  for (std::size_t i = 0; i < order.size(); ++i) {
    VarMeta& meta = *vars_[order[i].var];
    util::Backoff backoff;
    for (std::uint32_t attempt = 0;; ++attempt) {
      std::uint64_t vl = meta.lock_ver.load(ctx);
      if (!locked(vl)) {
        order[i].version = version_of(vl);
        if (meta.lock_ver.cas(ctx, vl, vl | kLockedBit)) break;
      }
      if (attempt >= 32) {
        release(i);
        return finish_abort();
      }
      backoff.pause();
    }
  }

  {
    const std::uint64_t before = ctx.steps.total();
    for (const ReadEntry& r : slot.rs) {
      const std::uint64_t vl = vars_[r.var]->lock_ver.load(ctx);
      const bool locked_by_me = slot.ws.find(r.var) != nullptr;
      const std::uint64_t current =
          locked_by_me ? version_of(vl & ~kLockedBit) : version_of(vl);
      if ((locked(vl) && !locked_by_me) || current != r.version) {
        ctx.stats.validation_steps += ctx.steps.total() - before;
        release(order.size());
        return finish_abort();
      }
    }
    ctx.stats.validation_steps += ctx.steps.total() - before;
  }

  rec_commit(ctx);  // commit point: validated while holding the locks

  for (const Locked& l : order) {
    VarMeta& meta = *vars_[l.var];
    meta.value.store(ctx, l.value);
    meta.lock_ver.store(ctx, pack(l.version + 1));
  }
  slot.active = false;
  ++ctx.stats.commits;
  return true;
}

void WeakStm::abort(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return;
  slot.active = false;
  ++ctx.stats.aborts;
  rec_voluntary_abort(ctx);
}

}  // namespace optm::stm
