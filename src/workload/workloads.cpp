#include "workload/workloads.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "sim/thread_ctx.hpp"
#include "stm/tvar.hpp"
#include "util/rng.hpp"

namespace optm::wl {

namespace {

using Clock = std::chrono::steady_clock;

/// Aggregate the processes' stats into a RunResult timed from `t0`.
RunResult collect(const std::vector<std::unique_ptr<sim::ThreadCtx>>& ctxs,
                  Clock::time_point t0) {
  RunResult result;
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  for (const auto& ctx : ctxs) {
    result.commits += ctx->stats.commits;
    result.aborts += ctx->stats.aborts;
    result.reads += ctx->stats.reads;
    result.writes += ctx->stats.writes;
    result.validation_steps += ctx->stats.validation_steps;
    result.steps += ctx->steps;
  }
  return result;
}

/// Spawn `n` workers, each with its own ThreadCtx, run `body(ctx, index)`,
/// join, and aggregate stats into a RunResult.
template <typename Body>
RunResult run_threads(std::uint32_t n, Body&& body) {
  std::vector<std::unique_ptr<sim::ThreadCtx>> ctxs;
  ctxs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    ctxs.push_back(std::make_unique<sim::ThreadCtx>(i));

  const auto t0 = Clock::now();
  if (n == 1) {
    body(*ctxs[0], 0u);  // avoid thread overhead for single-process runs
  } else {
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      threads.emplace_back([&, i] { body(*ctxs[i], i); });
    }
    for (auto& t : threads) t.join();
  }
  return collect(ctxs, t0);
}

}  // namespace

BankResult run_bank(stm::Stm& stm, const BankParams& params) {
  BankResult result;
  result.expected_total =
      static_cast<std::uint64_t>(params.accounts) * params.initial_balance;

  // Seed the accounts from a priming transaction.
  {
    sim::ThreadCtx init_ctx(0);
    stm.begin(init_ctx);
    for (stm::VarId a = 0; a < params.accounts; ++a) {
      if (!stm.write(init_ctx, a, params.initial_balance)) break;
    }
    if (!stm.commit(init_ctx)) {
      return result;  // cannot happen: no concurrency yet
    }
  }

  result.run = run_threads(params.threads, [&](sim::ThreadCtx& ctx, std::uint32_t i) {
    util::Xoshiro256 rng(util::stream_seed(params.seed, i));
    for (std::uint64_t t = 0; t < params.transfers_per_thread; ++t) {
      const auto from = static_cast<stm::VarId>(rng.below(params.accounts));
      auto to = static_cast<stm::VarId>(rng.below(params.accounts));
      if (to == from) to = (to + 1) % params.accounts;
      const std::uint64_t amount = rng.below(10) + 1;
      (void)stm::atomically(stm, ctx, [&](stm::TxHandle& tx) {
        const std::uint64_t a = tx.read(from);
        const std::uint64_t b = tx.read(to);
        if (a < amount) return;  // insufficient funds: read-only this time
        tx.write(from, a - amount);
        tx.write(to, b + amount);
      });
    }
  });

  // Post-run audit scan (no concurrency left).
  {
    sim::ThreadCtx audit_ctx(0);
    std::uint64_t total = 0;
    (void)stm::atomically(stm, audit_ctx, [&](stm::TxHandle& tx) {
      total = 0;
      for (stm::VarId a = 0; a < params.accounts; ++a) total += tx.read(a);
    });
    result.final_total = total;
  }
  return result;
}

RunResult run_random_mix(stm::Stm& stm, const MixParams& params) {
  return run_threads(params.threads, [&](sim::ThreadCtx& ctx, std::uint32_t i) {
    util::Xoshiro256 rng(util::stream_seed(params.seed, i));
    for (std::uint64_t t = 0; t < params.txs_per_thread; ++t) {
      // Value-unique writes: (thread, sequence) encoded in the value.
      const bool voluntary_abort = rng.chance(params.voluntary_abort_ratio);
      std::uint64_t unique = (static_cast<std::uint64_t>(i + 1) << 40) |
                             ((t + 1) << 8);
      stm.begin(ctx);
      bool doomed = false;
      for (std::uint32_t op = 0; op < params.ops_per_tx && !doomed; ++op) {
        const auto var = static_cast<stm::VarId>(rng.below(params.vars));
        if (rng.chance(params.write_ratio)) {
          doomed = !stm.write(ctx, var, unique + op);
        } else {
          std::uint64_t v = 0;
          doomed = !stm.read(ctx, var, v);
        }
      }
      if (doomed) continue;  // forcefully aborted mid-transaction
      if (voluntary_abort) {
        stm.abort(ctx);
      } else {
        (void)stm.commit(ctx);
      }
    }
  });
}

RunResult run_interleaved_mix(stm::Stm& stm, const MixParams& params) {
  struct Proc {
    util::Xoshiro256 rng;
    std::uint64_t tx = 0;  // transactions finished
    std::uint32_t op = 0;  // operations done in the open one
    bool in_tx = false;
    bool voluntary_abort = false;
  };
  std::vector<std::unique_ptr<sim::ThreadCtx>> ctxs;
  std::vector<Proc> procs;
  std::vector<std::uint32_t> ready;  // processes with transactions left
  for (std::uint32_t i = 0; i < params.threads; ++i) {
    ctxs.push_back(std::make_unique<sim::ThreadCtx>(i));
    procs.push_back(Proc{util::Xoshiro256(util::stream_seed(params.seed, i))});
    if (params.txs_per_thread > 0) ready.push_back(i);
  }
  util::Xoshiro256 schedule(util::stream_seed(params.seed, params.threads));

  const auto t0 = Clock::now();
  while (!ready.empty()) {
    const std::size_t k = schedule.below(ready.size());
    const std::uint32_t i = ready[k];
    Proc& p = procs[i];
    sim::ThreadCtx& ctx = *ctxs[i];
    if (!p.in_tx) {
      p.voluntary_abort = p.rng.chance(params.voluntary_abort_ratio);
      stm.begin(ctx);
      p.in_tx = true;
      p.op = 0;
      continue;
    }
    if (p.op < params.ops_per_tx) {
      // Value-unique writes, encoded as run_random_mix encodes them.
      const std::uint64_t value =
          ((static_cast<std::uint64_t>(i + 1) << 40) | ((p.tx + 1) << 8)) +
          p.op;
      const auto var = static_cast<stm::VarId>(p.rng.below(params.vars));
      ++p.op;
      std::uint64_t out = 0;
      const bool ok = p.rng.chance(params.write_ratio)
                          ? stm.write(ctx, var, value)
                          : stm.read(ctx, var, out);
      if (ok) continue;
      p.in_tx = false;  // forcefully aborted mid-transaction
    } else {
      if (p.voluntary_abort) {
        stm.abort(ctx);
      } else {
        (void)stm.commit(ctx);
      }
      p.in_tx = false;
    }
    if (++p.tx == params.txs_per_thread) {
      ready[k] = ready.back();
      ready.pop_back();
    }
  }
  return collect(ctxs, t0);
}

RunResult run_read_mostly(stm::Stm& stm, const ReadMostlyParams& params) {
  const std::uint32_t total_threads = params.reader_threads + 1;
  return run_threads(total_threads, [&](sim::ThreadCtx& ctx, std::uint32_t i) {
    util::Xoshiro256 rng(util::stream_seed(params.seed, i));
    if (i == params.reader_threads) {
      // The writer: short update transactions.
      for (std::uint64_t t = 0; t < params.writer_txs; ++t) {
        const auto var = static_cast<stm::VarId>(rng.below(params.vars));
        (void)stm::atomically(stm, ctx, [&](stm::TxHandle& tx) {
          tx.write(var, (static_cast<std::uint64_t>(i + 1) << 40) | (t + 1));
        });
      }
      return;
    }
    // Readers: scan a random window of scan_length variables.
    for (std::uint64_t t = 0; t < params.scans_per_thread; ++t) {
      const std::uint32_t start = static_cast<std::uint32_t>(
          rng.below(params.vars - params.scan_length + 1));
      (void)stm::atomically(stm, ctx, [&](stm::TxHandle& tx) {
        std::uint64_t sum = 0;
        for (std::uint32_t v = 0; v < params.scan_length; ++v) {
          sum += tx.read(start + v);
        }
        (void)sum;
      });
    }
  });
}

CounterResult run_counter(stm::Stm& stm, const CounterParams& params) {
  CounterResult result;
  if (params.semantic) {
    stm::TCounter counter;
    result.run =
        run_threads(params.threads, [&](sim::ThreadCtx& ctx, std::uint32_t) {
          for (std::uint64_t t = 0; t < params.increments_per_thread; ++t) {
            // The commutative inc touches no shared object inside the
            // transaction: nothing to conflict on, nothing to abort (§3.4).
            (void)stm::atomically_with_counter(
                stm, ctx, counter,
                [&ctx](stm::TxHandle&, stm::TCounter& c) { c.inc(ctx); });
          }
        });
    result.final_value = counter.value();
    return result;
  }
  // Read-modify-write register encoding (§3.4): all increments conflict.
  result.run =
      run_threads(params.threads, [&](sim::ThreadCtx& ctx, std::uint32_t) {
        for (std::uint64_t t = 0; t < params.increments_per_thread; ++t) {
          (void)stm::atomically(stm, ctx, [&](stm::TxHandle& tx) {
            stm::register_increment(tx, 0);
          });
        }
      });
  {
    sim::ThreadCtx audit_ctx(0);
    (void)stm::atomically(stm, audit_ctx, [&](stm::TxHandle& tx) {
      result.final_value = static_cast<std::int64_t>(tx.read(0));
    });
  }
  return result;
}

WriteSkewResult run_write_skew(stm::Stm& stm, const WriteSkewParams& params) {
  WriteSkewResult result;
  sim::ThreadCtx p0(0);
  sim::ThreadCtx p1(1);
  sim::ThreadCtx coordinator(2);

  for (std::uint64_t round = 0; round < params.rounds; ++round) {
    // Reset both accounts (value-encoding: the round in the high bits
    // keeps writes value-unique; the low byte is the balance).
    const std::uint64_t full = ((round + 1) << 8) | params.initial;
    if (stm::atomically(stm, coordinator, [&](stm::TxHandle& tx) {
          tx.write(0, full);
          tx.write(1, full);
        }) == 0) {
      continue;
    }

    // The fully-overlapped deterministic schedule: two logical
    // withdrawers advance in lock-step phases.
    struct Step {
      bool alive = true;
      std::uint64_t x = 0, y = 0;
    };
    Step s0, s1;
    // Withdrawer 0 zeroes account 0, withdrawer 1 zeroes account 1. The
    // markers keep the zero-balance writes value-unique (low byte 0).
    const auto run0 = [&](int phase) {
      switch (phase) {
        case 0: stm.begin(p0); break;
        case 1: s0.alive = stm.read(p0, 0, s0.x); break;
        case 2: s0.alive = s0.alive && stm.read(p0, 1, s0.y); break;
        case 3:
          if (!s0.alive) break;
          if ((s0.x & 0xff) == 0 || (s0.y & 0xff) == 0) {
            stm.abort(p0);
            s0.alive = false;
            break;
          }
          s0.alive = stm.write(p0, 0, ((round + 1) << 32) | 0x100);
          break;
        case 4: s0.alive = s0.alive && stm.commit(p0); break;
        default: break;
      }
    };
    const auto run1 = [&](int phase) {
      switch (phase) {
        case 0: stm.begin(p1); break;
        case 1: s1.alive = stm.read(p1, 0, s1.x); break;
        case 2: s1.alive = s1.alive && stm.read(p1, 1, s1.y); break;
        case 3:
          if (!s1.alive) break;
          if ((s1.x & 0xff) == 0 || (s1.y & 0xff) == 0) {
            stm.abort(p1);
            s1.alive = false;
            break;
          }
          s1.alive = stm.write(p1, 1, ((round + 1) << 32) | 0x200);
          break;
        case 4: s1.alive = s1.alive && stm.commit(p1); break;
        default: break;
      }
    };
    for (int phase = 0; phase <= 4; ++phase) {
      run0(phase);
      run1(phase);
    }
    // Audit the round.
    std::uint64_t x = 0, y = 0;
    if (stm::atomically(stm, coordinator, [&](stm::TxHandle& tx) {
          x = tx.read(0);
          y = tx.read(1);
        }) == 0) {
      continue;
    }
    ++result.rounds_played;
    if (s0.alive && s1.alive) ++result.both_committed_rounds;
    if ((x & 0xff) == 0 && (y & 0xff) == 0) ++result.skew_rounds;
  }
  return result;
}

LongReaderProbe long_reader_probe(stm::Stm& stm, std::uint32_t vars,
                                  std::uint64_t writer_rounds) {
  LongReaderProbe probe;
  sim::ThreadCtx reader(0);
  sim::ThreadCtx writer(1);

  // Generation g writes value (g << 20) | var to every variable.
  const auto value_of = [](std::uint64_t gen, std::uint32_t var) {
    return (gen << 20) | var;
  };
  const auto generation_of = [](std::uint64_t value) { return value >> 20; };

  stm.begin(reader);
  std::vector<std::uint64_t> seen;
  seen.reserve(vars);
  probe.reads_succeeded = true;
  for (std::uint32_t v = 0; v < vars && probe.reads_succeeded; ++v) {
    std::uint64_t out = 0;
    if (!stm.read(reader, v, out)) {
      probe.reads_succeeded = false;
      break;
    }
    seen.push_back(out);

    // A writer generation lands between every two reads.
    if (probe.writer_commits < writer_rounds) {
      stm.begin(writer);
      bool ok = true;
      for (std::uint32_t w = 0; w < vars && ok; ++w) {
        ok = stm.write(writer, w, value_of(probe.writer_commits + 1, w));
      }
      if (ok && stm.commit(writer)) ++probe.writer_commits;
    }
  }
  probe.reader_committed = probe.reads_succeeded && stm.commit(reader);

  if (probe.reads_succeeded && !seen.empty()) {
    probe.snapshot_consistent = true;
    const std::uint64_t gen = generation_of(seen.front());
    for (const std::uint64_t value : seen) {
      if (generation_of(value) != gen) probe.snapshot_consistent = false;
    }
  }
  return probe;
}

LowerBoundProbe lower_bound_probe(stm::Stm& stm, std::size_t m) {
  LowerBoundProbe probe;
  sim::ThreadCtx reader(0);
  sim::ThreadCtx writer(1);

  // T1 reads variables 0..m-1.
  stm.begin(reader);
  for (std::size_t v = 0; v < m; ++v) {
    std::uint64_t out = 0;
    if (!stm.read(reader, static_cast<stm::VarId>(v), out)) return probe;
  }

  // T2 writes ONLY variable m and commits. This is the hard instance of
  // Theorem 3's proof: with invisible reads T1's process cannot know that
  // T2 left the read set alone, so it must examine all m entries to decide
  // between "abort now" and "let T1 commit" — and because nothing T1 read
  // actually changed, a progressive TM must then LET IT COMMIT, so there is
  // no early exit. (Overwriting the read set instead would let incremental
  // validation bail out at the first mismatch in O(1).)
  stm.begin(writer);
  if (!stm.write(writer, static_cast<stm::VarId>(m), 1000)) return probe;
  if (!stm.commit(writer)) return probe;

  // T1's final read: the process must now decide, alone, whether its m
  // earlier reads are still a consistent snapshot.
  const std::uint64_t steps_before = reader.steps.total();
  const std::uint64_t validation_before = reader.stats.validation_steps;
  std::uint64_t out = 0;
  probe.read_succeeded = stm.read(reader, static_cast<stm::VarId>(m), out);
  probe.steps_final_read = reader.steps.total() - steps_before;
  probe.validation_steps_final_read =
      reader.stats.validation_steps - validation_before;
  probe.reader_committed = probe.read_succeeded && stm.commit(reader);
  return probe;
}

}  // namespace optm::wl
