#include "stm/astm.hpp"

#include "util/spin.hpp"

namespace optm::stm {

AstmStm::AstmStm(std::size_t num_vars, std::unique_ptr<ContentionManager> cm,
                 AcquirePolicy policy)
    : RuntimeBase(num_vars),
      vars_(num_vars),
      cm_(cm != nullptr ? std::move(cm) : std::make_unique<AggressiveCm>()),
      policy_(policy) {
  if (policy_ == AcquirePolicy::kForceEager) {
    for (auto& m : mode_) m->eager = true;
  }
  // Reads are stamped with their (validation snapshot, orec version) pair
  // and commits ticket through kCommitting (the orec-stamp story,
  // dstm.hpp) — the preconditions for dropping the recorder windows.
  window_free_supported_ = true;
}

void AstmStm::begin(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  slot.active = true;
  slot.eager = mode_[ctx.id()]->eager;
  ++slot.epoch;
  slot.rv = 0;
  slot.rv_sampled = false;
  slot.rs.clear();
  slot.pending.clear();
  slot.owned.clear();
  slot.met_rival = false;
  slot.cm_view.start_stamp = start_stamps_.fetch_add(1) + 1;
  slot.cm_view.ops_executed = 0;
  slot.cm_view.retries = slot.cm_retries;
  status_[ctx.id()]->store(ctx, status_word(slot.epoch, kActive));
  ++ctx.stats.begins;
  rec_begin(ctx);
}

bool AstmStm::validate(sim::ThreadCtx& ctx, Slot& slot, State expected) {
  const std::uint64_t before = ctx.steps.total();
  // Snapshot first, entries after: every overwriter of an entry that
  // passes below enters kCommitting — and so draws its ticket — after the
  // entry's check, hence after this read (the orec-stamp story).
  const std::uint64_t rv = clock_.read(ctx);
  const std::uint64_t me = owner_word(ctx.id(), slot.epoch);
  bool ok = true;
  for (const ReadEntry& r : slot.rs) {
    VarMeta& meta = *vars_[r.var];
    // Wait out rival owners past the stamp authority (kCommitting) or
    // commit point (kCommitted, write-back in flight): commit bumps the
    // version and fails the equality check, abort leaves it untouched.
    // Bounded, then conservatively fail — two kCommitting transactions
    // can each read a variable the other owns, and an unbounded wait
    // would deadlock that cycle (see DstmStm::validate).
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
  // Ownership is revocable: once any variable is acquired, a rival may have
  // aborted us through our status word (only while it read kActive).
  if (ok && !slot.owned.empty()) {
    ok = status_[ctx.id()]->load(ctx) == status_word(slot.epoch, expected);
  }
  if (ok) {
    slot.rv = rv;
    slot.rv_sampled = true;
  }
  ctx.stats.validation_steps += ctx.steps.total() - before;
  return ok;
}

std::uint64_t AstmStm::abort_stamp(sim::ThreadCtx& ctx, Slot& slot) {
  // Last successful validation, or the abort instant when none ever
  // succeeded (no read claims to honor) — see DstmStm::abort_stamp.
  if (!slot.rv_sampled) slot.rv = clock_.read(ctx);
  return 2 * slot.rv + 1;
}

void AstmStm::release_owned(sim::ThreadCtx& ctx, Slot& slot) {
  for (const OwnedEntry& e : slot.owned) {
    std::uint64_t expect = owner_word(ctx.id(), slot.epoch);
    (void)vars_[e.var]->owner.cas(ctx, expect, 0);  // may have been stolen
  }
  slot.owned.clear();
}

void AstmStm::adapt(std::uint32_t process, const Slot& slot, bool committed,
                    bool late_abort) {
  if (policy_ != AcquirePolicy::kAdaptive) return;
  Mode& m = *mode_[process];
  if (!slot.eager) {
    // Lazy: punish commit-time aborts (conflicts discovered only after the
    // whole transaction ran); any other outcome resets the streak.
    if (late_abort) {
      if (++m.lazy_losses >= kLazyLossesToEager) {
        m.eager = true;
        m.lazy_losses = 0;
        m.eager_clean = 0;
        ++m.switches;
      }
    } else {
      m.lazy_losses = 0;
    }
    return;
  }
  // Eager: a long streak of commits that never met a rival means the
  // up-front acquisition pessimism buys nothing — go back to lazy.
  if (committed && !slot.met_rival) {
    if (++m.eager_clean >= kEagerCleanToLazy) {
      m.eager = false;
      m.eager_clean = 0;
      m.lazy_losses = 0;
      ++m.switches;
    }
  } else {
    m.eager_clean = 0;
  }
}

bool AstmStm::fail_op(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  status_[ctx.id()]->store(ctx, status_word(slot.epoch, kAborted));
  release_owned(ctx, slot);
  slot.active = false;
  ++slot.cm_retries;
  ++ctx.stats.aborts;
  adapt(ctx.id(), slot, /*committed=*/false, /*late_abort=*/false);
  rec_abort_mid_op(ctx, abort_stamp(ctx, slot));
  return false;
}

bool AstmStm::read(sim::ThreadCtx& ctx, VarId var, std::uint64_t& out) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.reads;
  ++slot.cm_view.ops_executed;
  rec_inv(ctx, var, core::OpCode::kRead, 0);

  if (const WriteEntry* own = slot.pending.find(var)) {
    out = own->value;
    rec_ret(ctx, var, core::OpCode::kRead, 0, out);
    return true;
  }

  VarMeta& meta = *vars_[var];
  const RecWindow window = rec_sample_window();

  // Sample a stable (value, version) pair of the latest committed state —
  // the same seqlock discipline as DSTM (versions advance by 2 per commit,
  // odd marks a write-back in flight).
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
        backoff.pause();  // write-back in flight: wait it out
        continue;
      }
      // Active/aborted/stale owner: the committed state is still valid —
      // an invisible read of the pre-owner value.
    }
    ver = meta.version.load(ctx);
    val = meta.value.load(ctx);
    if ((ver & 1) == 0 && meta.version.load(ctx) == ver) break;  // stable
    backoff.pause();
  }

  slot.rs.push_back({var, ver});

  // Incremental validation (the Θ(k) step of Theorem 3) — identical in
  // both acquisition modes, which is the point the bench demonstrates.
  if (!validate(ctx, slot)) return fail_op(ctx);

  out = val;
  // The orec-version read-stamp pair (see dstm.hpp): the sampled version
  // word is the writer's 2·wv ticket, just proven current at the
  // validation snapshot.
  rec_ret(ctx, var, core::OpCode::kRead, 0, out, 2 * slot.rv + 1, ver / 2);
  return true;
}

bool AstmStm::acquire(sim::ThreadCtx& ctx, Slot& slot, VarId var) {
  VarMeta& meta = *vars_[var];
  const std::uint64_t me = owner_word(ctx.id(), slot.epoch);
  util::Backoff backoff;
  for (std::uint32_t attempt = 0;; ++attempt) {
    std::uint64_t own = meta.owner.load(ctx);
    if (own == 0) {
      if (meta.owner.cas(ctx, own, me)) break;  // acquired
      continue;
    }
    if (own == me) break;  // already ours (re-acquisition at commit)
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
    slot.met_rival = true;
    switch (cm_->resolve(slot.cm_view, slots_[s]->cm_view, attempt)) {
      case CmDecision::kAbortOther: {
        std::uint64_t expect = status_word(e, kActive);
        (void)status_[s]->cas(ctx, expect, status_word(e, kAborted));
        continue;  // re-examine (either aborted now, or it just finished)
      }
      case CmDecision::kAbortSelf:
        return false;
      case CmDecision::kWait:
        backoff.pause();
        continue;
    }
  }
  slot.owned.push_back({var, meta.version.load(ctx)});
  return true;
}

bool AstmStm::write(sim::ThreadCtx& ctx, VarId var, std::uint64_t value) {
  bounds_check(var);
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return false;
  ++ctx.stats.writes;
  ++slot.cm_view.ops_executed;
  rec_inv(ctx, var, core::OpCode::kWrite, value);

  const bool known = slot.pending.find(var) != nullptr;
  slot.pending.upsert(var, value);

  if (slot.eager && !known) {
    // Eager acquire: claim the ownership record at the write itself.
    if (!acquire(ctx, slot, var)) return fail_op(ctx);
  }
  // Lazy acquire: the write costs zero shared-memory steps; all conflicts
  // surface in one batch at commit.

  rec_ret(ctx, var, core::OpCode::kWrite, value, 0);
  return true;
}

bool AstmStm::commit(sim::ThreadCtx& ctx) {
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
    adapt(ctx.id(), slot, /*committed=*/false, /*late_abort=*/true);
    rec_abort_at_commit(ctx, abort_stamp(ctx, slot));
    return false;
  };

  // Lazy mode: batch-acquire the write set now (eager mode already owns
  // everything; acquire() tolerates re-acquisition). Acquisition runs
  // while still kActive — rivals duel and may kill us throughout, exactly
  // as they can against an eager acquirer.
  if (!slot.eager) {
    for (const WriteEntry& e : slot.pending.entries()) {
      if (!acquire(ctx, slot, e.var)) return fail();
    }
  }

  if (slot.pending.empty()) {
    // Read-only: the commit-time validation is the serialization point.
    if (!validate(ctx, slot)) return fail();
    std::uint64_t expect = status_word(slot.epoch, kActive);
    if (!status_[ctx.id()]->cas(ctx, expect,
                                status_word(slot.epoch, kCommitted))) {
      return fail();
    }
    slot.active = false;
    slot.cm_retries = 0;
    ++ctx.stats.commits;
    adapt(ctx.id(), slot, /*committed=*/true, /*late_abort=*/false);
    rec_commit(ctx, 2 * slot.rv + 1);  // serialize at the snapshot
    return true;
  }

  // Stamp authority (the orec-stamp story, dstm.hpp): kCommitting is
  // published through every owned orec before the ticket is drawn, and
  // rivals can no longer abort us past this CAS.
  std::uint64_t expect = status_word(slot.epoch, kActive);
  if (!status_[ctx.id()]->cas(ctx, expect,
                              status_word(slot.epoch, kCommitting))) {
    return fail();
  }
  const std::uint64_t wv = clock_.advance(ctx);
  if (!validate(ctx, slot, kCommitting)) return fail();

  // Commit point: only we can touch the status word past kCommitting.
  status_[ctx.id()]->store(ctx, status_word(slot.epoch, kCommitted));
  rec_commit(ctx, 2 * wv);

  // Write back and release ownership (odd version while in flight); the
  // final version word is the global ticket 2·wv.
  for (const OwnedEntry& e : slot.owned) {
    VarMeta& meta = *vars_[e.var];
    const WriteEntry* w = slot.pending.find(e.var);
    meta.version.store(ctx, e.acq_version + 1);
    meta.value.store(ctx, w->value);
    meta.version.store(ctx, 2 * wv);
    meta.owner.store(ctx, 0);
  }
  slot.owned.clear();
  slot.active = false;
  slot.cm_retries = 0;
  ++ctx.stats.commits;
  adapt(ctx.id(), slot, /*committed=*/true, /*late_abort=*/false);
  return true;
}

void AstmStm::abort(sim::ThreadCtx& ctx) {
  Slot& slot = *slots_[ctx.id()];
  if (!slot.active) return;
  status_[ctx.id()]->store(ctx, status_word(slot.epoch, kAborted));
  release_owned(ctx, slot);
  slot.active = false;
  ++ctx.stats.aborts;
  adapt(ctx.id(), slot, /*committed=*/false, /*late_abort=*/false);
  rec_voluntary_abort(ctx, abort_stamp(ctx, slot));
}

}  // namespace optm::stm
