#include "stm/sistm.hpp"

#include <algorithm>

#include "util/spin.hpp"

namespace optm::stm {

SiStm::SiStm(std::size_t num_vars, std::size_t depth)
    : RuntimeBase(num_vars), depth_(depth == 0 ? 1 : depth), vars_(num_vars) {
  // Ring slot 0 holds the initial version (stamp 0, value 0): one install.
  for (auto& padded : vars_) {
    padded->ring = std::vector<Version>(depth_);
    padded->seqlock.init(2);
  }
}

void SiStm::begin(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  slot.active = true;
  slot.snapped = false;
  slot.snapshot = 0;
  slot.ws.clear();
  ++ctx.stats.begins;
  rec_begin(ctx);
}

bool SiStm::fail_op(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  ensure_snapshot(ctx, slot);
  slot.active = false;
  ++ctx.stats.aborts;
  rec_abort_mid_op(ctx, 2 * slot.snapshot + 1);  // serialize at the snapshot
  return false;
}

bool SiStm::read_version(sim::ThreadCtx& ctx, VarId var, std::uint64_t bound,
                         std::uint64_t& stamp, std::uint64_t& value) {
  VarMeta& meta = *vars_[var];
  util::Backoff backoff;
  for (;;) {
    const std::uint64_t s1 = meta.seqlock.load(ctx);
    if (s1 & 1) {  // writer installing
      backoff.pause();
      continue;
    }
    const std::uint64_t installs = s1 / 2;
    bool found = false;
    const std::size_t scan = std::min<std::size_t>(depth_, installs);
    for (std::size_t i = 0; i < scan; ++i) {
      const std::size_t pos = (installs - 1 - i) % depth_;
      const std::uint64_t st = meta.ring[pos].stamp.load(ctx);
      if (st <= bound) {
        stamp = st;
        value = meta.ring[pos].value.load(ctx);
        found = true;
        break;
      }
    }
    if (meta.seqlock.load(ctx) != s1) {
      backoff.pause();  // ring changed under us
      continue;
    }
    return found;
  }
}

bool SiStm::read(sim::ThreadCtx& ctx, VarId var, std::uint64_t& out) {
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
  ensure_snapshot(ctx, slot);
  std::uint64_t stamp = 0;
  std::uint64_t val = 0;
  // Pure snapshot read: consistent by construction, never validated, no
  // read set is even kept. The §2 zombie hazards cannot arise — this is
  // the half of opacity SI does keep. Fails only if the snapshot's
  // version was evicted from the bounded ring.
  if (!read_version(ctx, var, slot.snapshot, stamp, val)) return fail_op(ctx);
  out = val;
  rec_ret(ctx, var, core::OpCode::kRead, 0, out);
  return true;
}

bool SiStm::write(sim::ThreadCtx& ctx, VarId var, std::uint64_t value) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.writes;
  rec_inv(ctx, var, core::OpCode::kWrite, value);
  ensure_snapshot(ctx, slot);  // writes pin the snapshot too (first access)
  slot.ws.upsert(var, value);
  rec_ret(ctx, var, core::OpCode::kWrite, value, 0);
  return true;
}

bool SiStm::commit(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  rec_try_commit(ctx);

  if (slot.ws.empty()) {
    const RecWindow window = rec_sample_window();
    ensure_snapshot(ctx, slot);
    slot.active = false;
    ++ctx.stats.commits;
    // All reads came from the begin-time snapshot: serialize there.
    rec_commit(ctx, 2 * slot.snapshot + 1);
    return true;
  }

  const RecWindow window = rec_commit_window();
  ensure_snapshot(ctx, slot);

  // Lock write-set seqlocks in VarId order.
  std::vector<WriteEntry> order = slot.ws.entries();
  std::sort(order.begin(), order.end(),
            [](const WriteEntry& a, const WriteEntry& b) { return a.var < b.var; });

  auto unlock_upto = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      VarMeta& meta = *vars_[order[i].var];
      const std::uint64_t s = meta.seqlock.load(ctx);
      meta.seqlock.store(ctx, s - 1);  // restore even (no install)
    }
  };
  auto fail = [&](std::size_t locked_upto) {
    unlock_upto(locked_upto);
    slot.active = false;
    ++ctx.stats.aborts;
    rec_abort_at_commit(ctx, 2 * slot.snapshot + 1);
    return false;
  };

  for (std::size_t i = 0; i < order.size(); ++i) {
    VarMeta& meta = *vars_[order[i].var];
    util::Backoff backoff;
    for (std::uint32_t attempt = 0;; ++attempt) {
      std::uint64_t s = meta.seqlock.load(ctx);
      if ((s & 1) == 0 && meta.seqlock.cas(ctx, s, s + 1)) break;
      if (attempt >= 32) return fail(i);
      backoff.pause();
    }
  }

  // First committer wins — the ONLY validation SI performs, and it covers
  // the WRITE set, not the read set (the one-knob difference from MvStm).
  // A variable we wrote that a rival committed past our snapshot means the
  // rival was first: we abort. Reads are never revalidated, which is what
  // admits write skew.
  {
    const std::uint64_t before = ctx.steps.total();
    for (const WriteEntry& w : order) {
      VarMeta& meta = *vars_[w.var];
      const std::uint64_t s = meta.seqlock.load(ctx);  // odd: locked by us
      const std::uint64_t installs = (s - 1) / 2;
      const std::size_t newest = (installs - 1) % depth_;
      if (meta.ring[newest].stamp.load(ctx) > slot.snapshot) {
        ctx.stats.validation_steps += ctx.steps.total() - before;
        return fail(order.size());
      }
    }
    ctx.stats.validation_steps += ctx.steps.total() - before;
  }

  const std::uint64_t wv = clock_.advance(ctx);
  rec_commit(ctx, 2 * wv);  // commit point: FCW held while locked

  // Install the new versions and release (seqlock advances to a fresh even
  // value, signalling one more install).
  for (const WriteEntry& w : order) {
    VarMeta& meta = *vars_[w.var];
    const std::uint64_t s = meta.seqlock.load(ctx);  // odd
    const std::uint64_t installs = (s - 1) / 2;
    const std::size_t pos = installs % depth_;
    meta.ring[pos].stamp.store(ctx, wv);
    meta.ring[pos].value.store(ctx, w.value);
    meta.seqlock.store(ctx, s + 1);  // even, installs + 1
  }
  slot.active = false;
  ++ctx.stats.commits;
  return true;
}

void SiStm::abort(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return;
  ensure_snapshot(ctx, slot);
  slot.active = false;
  ++ctx.stats.aborts;
  rec_voluntary_abort(ctx, 2 * slot.snapshot + 1);
}

}  // namespace optm::stm
