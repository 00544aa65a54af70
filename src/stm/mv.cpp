#include "stm/mv.hpp"

#include <algorithm>

#include "util/spin.hpp"

namespace optm::stm {

MvStm::MvStm(std::size_t num_vars, std::size_t depth)
    : RuntimeBase(num_vars), depth_(depth == 0 ? 1 : depth), vars_(num_vars) {
  // Ring slot 0 holds the initial version (stamp 0, value 0): one install.
  for (auto& padded : vars_) {
    padded->ring = std::vector<Version>(depth_);
    padded->seqlock.init(2);
  }
  // Reads are snapshot-consistent by construction and stamped with their
  // (2·snapshot+1, version stamp) pair; update commits ticket after
  // locking, before validating (see mv.hpp) — the preconditions for
  // dropping the recorder windows alongside the already-window-free
  // read-only commit path.
  window_free_supported_ = true;
}

void MvStm::begin(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  slot.active = true;
  slot.read_only = false;
  slot.snapped = false;
  slot.snapshot = 0;
  slot.rs.clear();
  slot.ws.clear();
  ++ctx.stats.begins;
  rec_begin(ctx);
}

void MvStm::begin_read_only(sim::ThreadCtx& ctx) {
  begin(ctx);
  slots_[ctx.id()]->read_only = true;
}

bool MvStm::fail_op(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  ensure_snapshot(ctx, slot);
  slot.active = false;
  ++ctx.stats.aborts;
  rec_abort_mid_op(ctx, 2 * slot.snapshot + 1);  // serialize at the snapshot
  return false;
}

bool MvStm::read_version(sim::ThreadCtx& ctx, VarId var, std::uint64_t bound,
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

bool MvStm::read(sim::ThreadCtx& ctx, VarId var, std::uint64_t& out) {
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
  // Snapshot read (JVSTM-style): the newest version no newer than the
  // begin-time snapshot. Consistent by construction — no per-read
  // validation, O(depth) cost independent of k. Fails only if the
  // snapshot's version was evicted from the bounded ring.
  if (!read_version(ctx, var, slot.snapshot, stamp, val)) return fail_op(ctx);
  if (!slot.read_only) slot.rs.push_back({var, stamp});
  out = val;
  // The read-stamp pair: `stamp` is the version's writer ticket (its
  // stamp-space open rank is 2·stamp) and the read just proved it the
  // newest version at snapshot 2·snapshot+1 — all a stamp-space
  // certificate needs, with or without the sampling window.
  rec_ret(ctx, var, core::OpCode::kRead, 0, out, 2 * slot.snapshot + 1, stamp);
  return true;
}

bool MvStm::write(sim::ThreadCtx& ctx, VarId var, std::uint64_t value) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.writes;
  rec_inv(ctx, var, core::OpCode::kWrite, value);
  if (slot.read_only) return fail_op(ctx);  // declared read-only
  ensure_snapshot(ctx, slot);  // writes pin the snapshot too (first access)
  slot.ws.upsert(var, value);
  rec_ret(ctx, var, core::OpCode::kWrite, value, 0);
  return true;
}

bool MvStm::commit(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  rec_try_commit(ctx);

  if (slot.ws.empty()) {
    ensure_snapshot(ctx, slot);
    slot.active = false;
    ++ctx.stats.commits;
    // All reads came from the begin-time snapshot: serialize there. This is
    // the H4 optimization — read-only transactions commit regardless of
    // concurrent updates. The C event carries the snapshot rank
    // (2·snapshot+1), so the record POSITION of C is immaterial to the
    // version order and no sampling window is taken: read-only commits no
    // longer touch the shared window lock, and the certificate monitor's
    // stamp order reads the stamp straight off the event.
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

  // Ticket BEFORE validation (TL2's lock → ticket → validate): a rival
  // overwriting anything we read must lock that variable before drawing
  // ITS ticket, and our validation below sees the variable unlocked — so
  // the rival's ticket is drawn after our ticket, and the version we read
  // closes strictly above our serialization rank 2·wv. That ordering is
  // what keeps the stamps truthful once the commit window is gone; a
  // ticket wasted on a failed validation leaves a harmless clock gap.
  const std::uint64_t wv = clock_.advance(ctx);

  // Validate: nothing read may have a version newer than our snapshot —
  // otherwise serializing our writes at wv would reorder a conflicting
  // committed update (first committer wins).
  {
    const std::uint64_t before = ctx.steps.total();
    for (const ReadEntry& r : slot.rs) {
      VarMeta& meta = *vars_[r.var];
      const std::uint64_t s = meta.seqlock.load(ctx);
      const bool locked_by_me = slot.ws.find(r.var) != nullptr;
      if ((s & 1) != 0 && !locked_by_me) {
        ctx.stats.validation_steps += ctx.steps.total() - before;
        return fail(order.size());
      }
      const std::uint64_t installs = (locked_by_me ? s - 1 : s) / 2;
      const std::size_t newest = (installs - 1) % depth_;
      if (meta.ring[newest].stamp.load(ctx) > slot.snapshot) {
        ctx.stats.validation_steps += ctx.steps.total() - before;
        return fail(order.size());
      }
    }
    ctx.stats.validation_steps += ctx.steps.total() - before;
  }

  rec_commit(ctx, 2 * wv);  // commit point: validated while holding locks

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

void MvStm::abort(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return;
  ensure_snapshot(ctx, slot);
  slot.active = false;
  ++ctx.stats.aborts;
  rec_voluntary_abort(ctx, 2 * slot.snapshot + 1);
}

}  // namespace optm::stm
