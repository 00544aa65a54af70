#include "stm/dstm.hpp"

#include "util/spin.hpp"

namespace optm::stm {

DstmStm::DstmStm(std::size_t num_vars, std::unique_ptr<ContentionManager> cm)
    : RuntimeBase(num_vars),
      vars_(num_vars),
      cm_(cm != nullptr ? std::move(cm) : std::make_unique<AggressiveCm>()) {
  // Reads are stamped with their (validation snapshot, orec version) pair
  // and commits publish their ticket through the kCommitting status state
  // before drawing it (the orec-stamp story, dstm.hpp) — the
  // preconditions for dropping the recorder windows.
  window_free_supported_ = true;
}

void DstmStm::begin(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  slot.active = true;
  ++slot.epoch;
  slot.rv = 0;
  slot.rv_sampled = false;
  slot.rs.clear();
  slot.ws.clear();
  slot.cm_view.start_stamp = start_stamps_.fetch_add(1) + 1;
  slot.cm_view.ops_executed = 0;
  slot.cm_view.retries = slot.cm_retries;
  status_[ctx.id()]->store(ctx, status_word(slot.epoch, kActive));
  ++ctx.stats.begins;
  rec_begin(ctx);
}

bool DstmStm::validate(sim::ThreadCtx& ctx, Slot& slot, State expected) {
  const std::uint64_t before = ctx.steps.total();
  // The validation snapshot is drawn BEFORE any entry is examined: every
  // overwriter of an entry that passes below enters kCommitting — and so
  // draws its commit ticket — after the entry's check, hence after this
  // read, so a pass certifies the whole read set current at stamp 2·rv+1.
  const std::uint64_t rv = clock_.read(ctx);
  const std::uint64_t me = owner_word(ctx.id(), slot.epoch);
  bool ok = true;
  for (const ReadEntry& r : slot.rs) {
    VarMeta& meta = *vars_[r.var];
    // Wait out rival owners past the stamp authority: a kCommitting
    // owner's ticket may predate rv, and a kCommitted owner's write-back
    // is in flight. If it commits, the version bump fails the equality
    // check below; if it aborts, the entry was never in danger. The wait
    // is BOUNDED, failing the validation conservatively: two kCommitting
    // transactions can each read a variable the other owns, and an
    // unbounded wait would deadlock that cycle (a blocked entry is either
    // doomed anyway — a committed owner always writes it back — or
    // conservatively retried).
    util::Backoff backoff;
    bool blocked = false;
    for (std::uint32_t attempt = 0;; ++attempt) {
      const std::uint64_t own = meta.owner.load(ctx);
      if (own == 0 || own == me) break;
      const std::uint32_t s = static_cast<std::uint32_t>((own >> 32) - 1);
      const std::uint64_t e = own & 0xffffffffULL;
      const std::uint64_t st = status_[s]->load(ctx);
      if (epoch_of(st) != e ||
          (state_of(st) != kCommitting && state_of(st) != kCommitted)) {
        break;
      }
      if (attempt >= 64) {
        blocked = true;
        break;
      }
      backoff.pause();
    }
    if (blocked || meta.version.load(ctx) != r.version) {
      ok = false;
      break;
    }
  }
  // A transaction that owns variables may have been aborted by a rival
  // (rivals can only CAS kActive, so past kCommitting this is stable).
  if (ok && !slot.ws.empty()) {
    ok = status_[ctx.id()]->load(ctx) == status_word(slot.epoch, expected);
  }
  if (ok) {
    slot.rv = rv;
    slot.rv_sampled = true;
  }
  ctx.stats.validation_steps += ctx.steps.total() - before;
  return ok;
}

std::uint64_t DstmStm::abort_stamp(sim::ThreadCtx& ctx, Slot& slot) {
  // Serialize the abort at the last successful validation — the moment
  // the recorded reads were all current. A transaction that never
  // validated (write-only, or killed at its first read) has no read
  // claims to honor and serializes at the abort instant instead: the
  // clock is monotone past every commit whose C record preceded any of
  // its events, which is what certificate_order()'s real-time
  // reconstruction requires of the stamp.
  if (!slot.rv_sampled) slot.rv = clock_.read(ctx);
  return 2 * slot.rv + 1;
}

void DstmStm::release_owned(sim::ThreadCtx& ctx, Slot& slot) {
  for (const OwnedEntry& e : slot.ws) {
    std::uint64_t expect = owner_word(ctx.id(), slot.epoch);
    (void)vars_[e.var]->owner.cas(ctx, expect, 0);  // may have been stolen
  }
  slot.ws.clear();
}

bool DstmStm::fail_op(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  status_[ctx.id()]->store(ctx, status_word(slot.epoch, kAborted));
  release_owned(ctx, slot);
  slot.active = false;
  ++slot.cm_retries;
  ++ctx.stats.aborts;
  rec_abort_mid_op(ctx, abort_stamp(ctx, slot));
  return false;
}

bool DstmStm::read(sim::ThreadCtx& ctx, VarId var, std::uint64_t& out) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.reads;
  ++slot.cm_view.ops_executed;
  rec_inv(ctx, var, core::OpCode::kRead, 0);

  if (const OwnedEntry* own = find_owned(slot, var)) {
    out = own->value;
    rec_ret(ctx, var, core::OpCode::kRead, 0, out);
    return true;
  }

  VarMeta& meta = *vars_[var];
  const RecWindow window = rec_sample_window();

  // Sample a stable (value, version) pair of the latest committed state.
  // Versions advance by 2 per commit; an odd version marks a write-back in
  // flight (seqlock discipline), so a torn pair is impossible.
  std::uint64_t ver = 0;
  std::uint64_t val = 0;
  util::Backoff backoff;
  for (;;) {
    const std::uint64_t own = meta.owner.load(ctx);
    if (own != 0) {
      const std::uint32_t s = static_cast<std::uint32_t>((own >> 32) - 1);
      const std::uint64_t e = own & 0xffffffffULL;
      const std::uint64_t st = status_[s]->load(ctx);
      if (epoch_of(st) == e && state_of(st) == kCommitted) {
        // Commit point passed but write-back in flight: wait it out.
        backoff.pause();
        continue;
      }
      // Active owner: the committed state is still (value, version) — an
      // invisible read of the old value. Aborted/stale: likewise.
    }
    ver = meta.version.load(ctx);
    val = meta.value.load(ctx);
    if ((ver & 1) == 0 && meta.version.load(ctx) == ver) break;  // stable
    backoff.pause();
  }

  slot.rs.push_back({var, ver});

  // INCREMENTAL VALIDATION (the Θ(k) step of Theorem 3): with invisible
  // reads no other process can tell us a concurrent commit overwrote part
  // of our snapshot, so every read re-checks the whole read set.
  if (!validate(ctx, slot)) return fail_op(ctx);

  out = val;
  // The orec-version read-stamp pair: the sampled version word is the
  // writer's 2·wv ticket, just proven current at the validation snapshot
  // (dstm.hpp's orec-stamp story) — all a stamp-space certificate needs,
  // with or without the sampling window.
  rec_ret(ctx, var, core::OpCode::kRead, 0, out, 2 * slot.rv + 1, ver / 2);
  return true;
}

bool DstmStm::write(sim::ThreadCtx& ctx, VarId var, std::uint64_t value) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.writes;
  ++slot.cm_view.ops_executed;
  rec_inv(ctx, var, core::OpCode::kWrite, value);

  for (OwnedEntry& e : slot.ws) {
    if (e.var == var) {
      e.value = value;  // already own it: update the buffered value
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
      if (meta.owner.cas(ctx, own, me)) break;  // acquired
      continue;
    }
    const std::uint32_t s = static_cast<std::uint32_t>((own >> 32) - 1);
    const std::uint64_t e = own & 0xffffffffULL;
    const std::uint64_t st = status_[s]->load(ctx);
    if (epoch_of(st) != e || state_of(st) == kAborted) {
      // Stale or aborted owner: steal the ownership record.
      if (meta.owner.cas(ctx, own, me)) break;
      continue;
    }
    if (state_of(st) == kCommitted || state_of(st) == kCommitting) {
      // Past the stamp authority: not killable, resolves shortly.
      backoff.pause();
      continue;
    }
    // Live conflict: ask the contention manager.
    switch (cm_->resolve(slot.cm_view, slots_[s]->cm_view, attempt)) {
      case CmDecision::kAbortOther: {
        std::uint64_t expect = status_word(e, kActive);
        (void)status_[s]->cas(ctx, expect, status_word(e, kAborted));
        continue;  // re-examine (either aborted now, or it just finished)
      }
      case CmDecision::kAbortSelf:
        return fail_op(ctx);
      case CmDecision::kWait:
        backoff.pause();
        continue;
    }
  }

  slot.ws.push_back({var, value, meta.version.load(ctx)});
  rec_ret(ctx, var, core::OpCode::kWrite, value, 0);
  return true;
}

bool DstmStm::commit(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  rec_try_commit(ctx);

  const RecWindow window = rec_commit_window();

  auto fail = [&]() {
    status_[ctx.id()]->store(ctx, status_word(slot.epoch, kAborted));
    release_owned(ctx, slot);
    slot.active = false;
    ++slot.cm_retries;
    ++ctx.stats.aborts;
    rec_abort_at_commit(ctx, abort_stamp(ctx, slot));
    return false;
  };

  if (slot.ws.empty()) {
    // Read-only: the commit-time validation below is the serialization
    // point — everything read was simultaneously current at its rv.
    if (!validate(ctx, slot)) return fail();
    std::uint64_t expect = status_word(slot.epoch, kActive);
    if (!status_[ctx.id()]->cas(ctx, expect,
                                status_word(slot.epoch, kCommitted))) {
      return fail();
    }
    slot.active = false;
    slot.cm_retries = 0;
    ++ctx.stats.commits;
    rec_commit(ctx, 2 * slot.rv + 1);  // serialize at the snapshot
    return true;
  }

  // Stamp authority: entering kCommitting makes the intent to commit
  // visible through every owned orec BEFORE the ticket is drawn, so a
  // rival validation that found our orecs still kActive is guaranteed a
  // snapshot below our ticket. Rivals can no longer abort us past this
  // CAS (their kill CAS expects kActive); it fails only if one already
  // did.
  std::uint64_t expect = status_word(slot.epoch, kActive);
  if (!status_[ctx.id()]->cas(ctx, expect,
                              status_word(slot.epoch, kCommitting))) {
    return fail();
  }
  const std::uint64_t wv = clock_.advance(ctx);
  if (!validate(ctx, slot, kCommitting)) return fail();

  // Commit point: no rival can touch the status word past kCommitting,
  // so a plain store completes the transition.
  status_[ctx.id()]->store(ctx, status_word(slot.epoch, kCommitted));
  rec_commit(ctx, 2 * wv);

  // Write back and release ownership (odd version while in flight). The
  // final version word is the global ticket 2·wv, so the word a reader
  // samples IS the open rank of the version it read.
  for (const OwnedEntry& e : slot.ws) {
    VarMeta& meta = *vars_[e.var];
    meta.version.store(ctx, e.acq_version + 1);
    meta.value.store(ctx, e.value);
    meta.version.store(ctx, 2 * wv);
    meta.owner.store(ctx, 0);
  }
  slot.ws.clear();
  slot.active = false;
  slot.cm_retries = 0;
  ++ctx.stats.commits;
  return true;
}

void DstmStm::abort(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return;
  status_[ctx.id()]->store(ctx, status_word(slot.epoch, kAborted));
  release_owned(ctx, slot);
  slot.active = false;
  ++ctx.stats.aborts;
  rec_voluntary_abort(ctx, abort_stamp(ctx, slot));
}

}  // namespace optm::stm
