#include "core/parallel_verify.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/dense_state.hpp"
#include "core/object_spec.hpp"
#include "core/version_order.hpp"
#include "util/pool.hpp"

namespace optm::core {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);
constexpr std::size_t kOpenRank = static_cast<std::size_t>(-1);

[[nodiscard]] std::string tx_tag(TxId tx) {
  return "T" + std::to_string(tx);
}

/// §4 life-cycle, mirroring OnlineCertificateMonitor's state machine.
enum class TxPhase : std::uint8_t {
  kIdle,
  kOpPending,
  kCommitPending,
  kAbortPending,
  kDone,
};

/// The per-transaction pass-0 state. Default construction means "never
/// seen" (TxSlab absence).
struct TxMeta {
  TxPhase phase{TxPhase::kIdle};
  Event pending{};
  bool born{false};
  bool committed{false};
  bool has_write{false};
  std::size_t birth_rank{0};
  std::size_t commit_pos{kNone};
  std::size_t commit_rank{0};   // meaningful for committed update txs
  std::size_t ro_point{kNone};  // pinned read-only serialization point
  std::uint64_t max_read_stamp{0};  // kStampedRead: largest read snapshot
};

/// One certificate flag, as the passes stage it internally.
struct Flag {
  std::size_t pos;
  std::string reason;
  CertFlagKind kind;
  TxId tx;
  std::size_t shard;
};

/// One pass-0 step: the §4 lifecycle transition for event `e` at position
/// `i`, plus birth floors and the VersionOrderResolver rank assignment.
/// This mirrors OnlineCertificateMonitor::feed condition-for-condition,
/// including flag positions — the contract is verdict and position
/// equivalence with the streaming monitor under kCommitOrder,
/// kSnapshotRank and kStampedRead, and the BatchEquivalence,
/// MvSnapshotFuzz and conformance suites enforce it; change the monitor
/// and this function together. Pass0 calls it for every event in record
/// order.
void pass0_step(TxMeta& tx, const Event& e, std::size_t i,
                const ObjectModel& model, VersionOrderPolicy policy,
                VersionOrderResolver& resolver, std::vector<Flag>& flags) {
  if (!tx.born) {
    tx.born = true;
    tx.birth_rank = resolver.floor();
  }
  switch (e.kind) {
    case EventKind::kInvoke:
      if (tx.phase != TxPhase::kIdle) {
        flags.push_back({i, tx_tag(e.tx) +
                                " invoked an operation while not idle "
                                "(well-formedness)",
                         CertFlagKind::kNotWellFormed, e.tx, kNoShard});
      } else if (!model.contains(e.obj)) {
        flags.push_back({i, tx_tag(e.tx) +
                                " invoked an operation on unknown object x" +
                                std::to_string(e.obj),
                         CertFlagKind::kNotWellFormed, e.tx, kNoShard});
      } else {
        tx.phase = TxPhase::kOpPending;
        tx.pending = e;
      }
      break;
    case EventKind::kResponse:
      if (tx.phase != TxPhase::kOpPending || !tx.pending.matches(e)) {
        flags.push_back({i, tx_tag(e.tx) +
                                " received a response with no matching "
                                "invocation (well-formedness)",
                         CertFlagKind::kNotWellFormed, e.tx, kNoShard});
      } else {
        tx.phase = TxPhase::kIdle;
        if (e.op == OpCode::kWrite) tx.has_write = true;
        if (policy == VersionOrderPolicy::kStampedRead &&
            e.op == OpCode::kRead && e.stamp > tx.max_read_stamp) {
          tx.max_read_stamp = e.stamp;
        }
      }
      break;
    case EventKind::kTryCommit:
      if (tx.phase != TxPhase::kIdle) {
        flags.push_back(
            {i, tx_tag(e.tx) + " issued tryC while not idle (well-formedness)",
             CertFlagKind::kNotWellFormed, e.tx, kNoShard});
      } else {
        tx.phase = TxPhase::kCommitPending;
      }
      break;
    case EventKind::kCommit:
      if (tx.phase != TxPhase::kCommitPending) {
        flags.push_back(
            {i, tx_tag(e.tx) + " committed without tryC (well-formedness)",
             CertFlagKind::kNotWellFormed, e.tx, kNoShard});
      } else {
        tx.phase = TxPhase::kDone;
        tx.committed = true;
        tx.commit_pos = i;
        if (policy == VersionOrderPolicy::kStampedRead && e.stamp != 0 &&
            e.stamp < tx.max_read_stamp) {
          flags.push_back({i, tx_tag(e.tx) + " committed at stamp " +
                                  std::to_string(e.stamp) +
                                  " below its latest read snapshot " +
                                  std::to_string(tx.max_read_stamp),
                           CertFlagKind::kReadStampMismatch, e.tx, kNoShard});
        }
        if (tx.has_write) {
          tx.commit_rank = resolver.update_commit_rank(e);
        } else if (const auto point = resolver.read_only_point(e)) {
          tx.ro_point = *point;
        }
      }
      break;
    case EventKind::kTryAbort:
      if (tx.phase != TxPhase::kIdle) {
        flags.push_back(
            {i, tx_tag(e.tx) + " issued tryA while not idle (well-formedness)",
             CertFlagKind::kNotWellFormed, e.tx, kNoShard});
      } else {
        tx.phase = TxPhase::kAbortPending;
      }
      break;
    case EventKind::kAbort:
      if (tx.phase == TxPhase::kDone) {
        flags.push_back(
            {i, tx_tag(e.tx) + " aborted after completing (well-formedness)",
             CertFlagKind::kNotWellFormed, e.tx, kNoShard});
      } else {
        tx.phase = TxPhase::kDone;
      }
      break;
  }
}

/// One non-local read, with its version's validity interval resolved by a
/// shard pass; `close_pos` dates the close so the merge sweep can apply it
/// with the streaming monitor's timing.
struct ReadRec {
  TxId tx;
  std::size_t pos;
  ObjId obj;
  std::size_t shard;
  std::size_t open_rank;
  std::size_t close_rank;  // kOpenRank if never overwritten
  std::size_t close_pos;   // kNone if never overwritten
};

/// (close_pos, (close_rank, shard)) — min-heap element of the sweep.
using Close = std::pair<std::size_t, std::pair<std::size_t, std::size_t>>;

/// Replay one transaction's snapshot window over its reads (all shards,
/// sorted by position; `count` >= 1), applying version closes only once
/// their closing C event precedes the current position, then run the
/// serialization-point check at the commit position. `closes` is caller
/// scratch (reused across transactions so the sweep allocates nothing once
/// warm). Flags are appended with monitor-identical positions.
void sweep_tx_windows(TxId id, const TxMeta& meta, const ReadRec* reads,
                      std::size_t count, bool snapshot_rank,
                      std::vector<Close>& closes, std::vector<Flag>& flags) {
  std::size_t lo = 0;
  std::size_t hi = kOpenRank;
  std::size_t hi_shard = kNoShard;
  closes.clear();
  const auto apply_closes_before = [&](std::size_t pos) {
    while (!closes.empty() && closes.front().first < pos) {
      if (closes.front().second.first < hi) {
        hi = closes.front().second.first;
        hi_shard = closes.front().second.second;
      }
      std::pop_heap(closes.begin(), closes.end(), std::greater<Close>{});
      closes.pop_back();
    }
  };

  bool flagged = false;
  for (std::size_t i = 0; i < count && !flagged; ++i) {
    const ReadRec& r = reads[i];
    apply_closes_before(r.pos);
    if (r.open_rank > lo) lo = r.open_rank;
    if (r.close_pos != kNone) {
      if (r.close_pos < r.pos) {
        if (r.close_rank < hi) {
          hi = r.close_rank;
          hi_shard = r.shard;
        }
      } else {
        closes.push_back({r.close_pos, {r.close_rank, r.shard}});
        std::push_heap(closes.begin(), closes.end(), std::greater<Close>{});
      }
    }
    if (lo >= hi) {
      flags.push_back({r.pos, tx_tag(id) +
                                  "'s reads form no consistent snapshot "
                                  "(window empty after reading x" +
                                  std::to_string(r.obj) + ")",
                       CertFlagKind::kSnapshotEmpty, id, r.shard});
      flagged = true;
    } else if (hi <= meta.birth_rank) {
      flags.push_back({r.pos, tx_tag(id) + " read the outdated x" +
                                  std::to_string(r.obj) +
                                  ", overwritten before the transaction's "
                                  "first event (real-time order)",
                       CertFlagKind::kStaleRead, id, r.shard});
      flagged = true;
    }
  }
  if (!flagged && meta.committed && meta.commit_pos != kNone) {
    apply_closes_before(meta.commit_pos);
    if (meta.has_write) {
      if (snapshot_rank) {
        const std::size_t rank = meta.commit_rank;
        if (rank < lo || rank >= hi || rank <= meta.birth_rank) {
          flags.push_back({meta.commit_pos,
                           tx_tag(id) + " committed updates at rank " +
                               std::to_string(rank) +
                               " outside its snapshot window (version order)",
                           CertFlagKind::kNotCurrentAtCommit, id,
                           hi_shard != kNoShard ? hi_shard : reads[0].shard});
        }
      } else if (hi != kOpenRank) {
        flags.push_back({meta.commit_pos,
                         tx_tag(id) +
                             " committed updates although a version it read "
                             "was overwritten (reads not current at commit)",
                         CertFlagKind::kNotCurrentAtCommit, id, hi_shard});
      }
    } else if (meta.ro_point != kNone) {
      const std::size_t point = meta.ro_point;
      if (point < lo || point >= hi || point <= meta.birth_rank) {
        flags.push_back({meta.commit_pos,
                         tx_tag(id) +
                             " (read-only) committed at snapshot point " +
                             std::to_string(point) +
                             " outside its snapshot window",
                         CertFlagKind::kNoReadOnlyPoint, id,
                         hi_shard != kNoShard ? hi_shard : reads[0].shard});
      }
    } else if (lo >= hi || hi <= meta.birth_rank) {
      flags.push_back({meta.commit_pos,
                       tx_tag(id) +
                           " (read-only) committed with no serialization "
                           "point compatible with real-time order",
                       CertFlagKind::kNoReadOnlyPoint, id,
                       hi_shard != kNoShard ? hi_shard : reads[0].shard});
    }
  }
}

/// The birth-floor check for committed transactions with NO non-local
/// reads (they never enter sweep_tx_windows, which iterates read groups);
/// only meaningful under the stamp-space policies — the monitor fires it
/// at the C event.
void check_readless_tx(TxId id, const TxMeta& meta, std::vector<Flag>& flags) {
  if (!meta.committed) return;
  if (meta.has_write) {
    if (meta.commit_rank <= meta.birth_rank) {
      flags.push_back({meta.commit_pos,
                       tx_tag(id) + " committed updates at rank " +
                           std::to_string(meta.commit_rank) +
                           " outside its snapshot window (version order)",
                       CertFlagKind::kNotCurrentAtCommit, id, kNoShard});
    }
  } else if (meta.ro_point != kNone && meta.ro_point <= meta.birth_rank) {
    flags.push_back({meta.commit_pos,
                     tx_tag(id) + " (read-only) committed at snapshot point " +
                         std::to_string(meta.ro_point) +
                         " outside its snapshot window",
                     CertFlagKind::kNoReadOnlyPoint, id, kNoShard});
  }
}

/// Pass 0: well-formedness + the serialization-rank assignment. Everything
/// that couples registers together is computed here, sequentially and
/// cheaply — the VersionOrderResolver hands out ranks (commit-order or
/// stamp-space, per the policy) — so pass 1's shards never need to
/// synchronize. Per-transaction state lives in a TxId-indexed slab
/// (dense_state.hpp): recorder tx ids are dense, so the sequential pass is
/// one vector index per event instead of a hash probe. The lifecycle step
/// itself is pass0_step above.
struct Pass0 {
  TxSlab<TxMeta> txs;
  std::vector<Flag> flags;

  void run(const History& h, VersionOrderPolicy policy) {
    VersionOrderResolver resolver(policy);
    const std::vector<Event>& events = h.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      pass0_step(txs.get(e.tx), e, i, h.model(), policy, resolver, flags);
    }
  }
};

/// Pass 1 worker: the register-local certificate for one shard. Each read
/// resolves to a ReadRec against the FINAL version-chain state after the
/// scan; `close_pos` dates the close so the merge sweep can apply it with
/// the streaming monitor's timing.
struct ShardPass {
  const History* h;
  const Pass0* pass0;
  std::size_t shard;
  std::size_t num_shards;
  VersionOrderPolicy policy;

  std::vector<Flag> flags;
  std::vector<ReadRec> reads;

  struct VersionRec {
    Value val{0};  // the key, owned by the table
    ObjId obj{0};
    TxId writer{kNoTx};
    std::size_t open_rank{0};
    std::size_t close_rank{kOpenRank};
    std::size_t close_pos{kNone};
    bool installed{false};
  };

  [[nodiscard]] bool mine(ObjId obj) const noexcept {
    return h->model().contains(obj) && obj % num_shards == shard;
  }

  void run() {
    VersionTable<VersionRec> versions(h->model().size() / num_shards + 16);
    // Register -> key of its current committed version (dense by obj).
    std::vector<std::pair<ObjId, Value>> current(h->model().size());
    // Write sets, held compactly: the dense slab maps TxId -> 1-based
    // index (4 bytes/tx), the sets themselves exist only for transactions
    // that actually wrote in this shard — each of the N shards would
    // otherwise touch a full TxId-range of ~100-byte SmallWriteSets.
    TxSlab<std::uint32_t> writer_index;
    std::vector<SmallWriteSet<Value>> writer_sets;
    const auto writes_of = [&](TxId tx) -> SmallWriteSet<Value>* {
      const std::uint32_t* idx = writer_index.find(tx);
      return idx != nullptr && *idx != 0 ? &writer_sets[*idx - 1] : nullptr;
    };
    SmallWriteSet<Value>::SpillPool spill_pool;
    struct PendingRead {
      TxId tx;
      std::size_t pos;
      ObjId obj;
      std::pair<ObjId, Value> key;
      std::uint64_t stamp;  // 2·rv+1 when the read is stamped, else 0
      std::uint64_t ver;    // version half of the read-stamp pair
    };
    std::vector<PendingRead> pending_reads;

    for (ObjId r = 0; r < h->model().size(); ++r) {
      if (!mine(r)) continue;
      const auto* reg = dynamic_cast<const RegisterSpec*>(&h->model().spec(r));
      const Value init_val = reg->initial_value();
      VersionRec& init = versions.slot(r, init_val);
      init.writer = kInitTx;
      init.installed = true;
      current[r] = {r, init_val};
    }

    const std::vector<Event>& events = h->events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      if (e.kind == EventKind::kCommit) {
        const TxMeta* meta = pass0->txs.find(e.tx);
        if (meta == nullptr || !meta->committed || meta->commit_pos != i ||
            !meta->has_write) {
          continue;
        }
        SmallWriteSet<Value>* writes = writes_of(e.tx);
        if (writes == nullptr || writes->empty()) continue;
        const std::size_t rank = meta->commit_rank;
        for (const auto& [obj, value] : *writes) {
          auto& prev_key = current[obj];
          if (VersionRec* prev =
                  versions.find(prev_key.first, prev_key.second)) {
            prev->close_rank = rank;
            prev->close_pos = i;
          }
          VersionRec& rec = versions.slot(obj, value);
          rec.writer = e.tx;
          rec.open_rank = rank;
          rec.close_rank = kOpenRank;
          rec.close_pos = kNone;
          rec.installed = true;
          prev_key = {obj, value};
        }
        // NOTE: the write set is intentionally NOT recycled here — a
        // malformed history can read after its commit, and the monitor-
        // equivalent treatment of that read depends on the stale buffer
        // (the streaming monitor never consults a completed transaction's
        // writes, so it recycles; this pass has no lifecycle state).
        continue;
      }
      if (e.kind != EventKind::kResponse || !mine(e.obj)) continue;

      if (e.op == OpCode::kWrite) {
        bool inserted = false;
        VersionRec& rec = versions.slot(e.obj, e.arg, &inserted);
        if (inserted) {
          rec.writer = e.tx;
        } else if (rec.writer != e.tx) {
          flags.push_back({i, tx_tag(e.tx) + " rewrote value " +
                                  std::to_string(e.arg) + " of x" +
                                  std::to_string(e.obj) +
                                  " (value-unique writes required)",
                           CertFlagKind::kValueNotUnique, e.tx, shard});
          rec.writer = e.tx;
        }
        std::uint32_t& windex = writer_index.get(e.tx);
        if (windex == 0) {
          writer_sets.emplace_back();
          windex = static_cast<std::uint32_t>(writer_sets.size());
        }
        writer_sets[windex - 1].set(e.obj, e.arg, spill_pool);
        continue;
      }
      if (e.op != OpCode::kRead) continue;

      // Local reads answer from the write buffer; they never touch windows.
      if (const SmallWriteSet<Value>* own_set = writes_of(e.tx)) {
        if (const Value* own = own_set->find(e.obj)) {
          if (*own != e.ret) {
            flags.push_back({i, tx_tag(e.tx) + " read x" + std::to_string(e.obj) +
                                    "=" + std::to_string(e.ret) +
                                    " despite its own write of " +
                                    std::to_string(*own) +
                                    " (local consistency)",
                             CertFlagKind::kLocalInconsistency, e.tx, shard});
          }
          continue;
        }
      }

      const VersionRec* v = versions.find(e.obj, e.ret);
      if (v == nullptr) {
        flags.push_back({i, tx_tag(e.tx) + " read x" + std::to_string(e.obj) +
                                "=" + std::to_string(e.ret) +
                                ", a value never written",
                         CertFlagKind::kUnwrittenValue, e.tx, shard});
        continue;
      }
      if (v->writer == e.tx) {
        flags.push_back(
            {i, tx_tag(e.tx) + " read back its own value without a prior write",
             CertFlagKind::kSelfRead, e.tx, shard});
        continue;
      }
      if (v->writer != kInitTx) {
        const TxMeta* w = pass0->txs.find(v->writer);
        const bool committed_before =
            w != nullptr && w->committed && w->commit_pos < i;
        if (!committed_before) {
          flags.push_back({i, tx_tag(e.tx) + " read x" + std::to_string(e.obj) +
                                  "=" + std::to_string(e.ret) +
                                  " from non-committed T" +
                                  std::to_string(v->writer),
                           CertFlagKind::kReadFromNonCommitted, e.tx, shard});
          continue;
        }
      }
      pending_reads.push_back({e.tx, i, e.obj, {e.obj, e.ret},
                               policy == VersionOrderPolicy::kStampedRead
                                   ? e.stamp
                                   : 0,
                               e.ver});
    }

    // Resolve each read's interval to the version chain's final state
    // (versions only ever close once, so the final record plus close_pos
    // reconstructs what was known at any position).
    reads.reserve(pending_reads.size());
    for (const PendingRead& pr : pending_reads) {
      const VersionRec& rec = *versions.find(pr.key.first, pr.key.second);
      // kStampedRead: the read's (rv, version) pair must agree with the
      // value-resolved version chain — the same two checks, with the same
      // flag positions, as the streaming monitor's stamped-read path. (A
      // never-installed version presents the monitor's empty [0, 0)
      // interval, so its open rank is 0 here too.)
      if (pr.stamp != 0) {
        const std::size_t open = rec.installed ? rec.open_rank : 0;
        // The shared helper carries the monitor's wrap guard too.
        if (pr.ver != kNoReadVersion &&
            !read_stamp_names_version(pr.ver, open)) {
          flags.push_back(
              {pr.pos, tx_tag(pr.tx) + " stamped its read of x" +
                           std::to_string(pr.obj) + "=" +
                           std::to_string(pr.key.second) + " with version " +
                           std::to_string(pr.ver) +
                           " but the value belongs to the version opened at "
                           "rank " + std::to_string(open),
               CertFlagKind::kReadStampMismatch, pr.tx, shard});
          continue;
        }
        if (open > static_cast<std::size_t>(pr.stamp)) {
          flags.push_back(
              {pr.pos, tx_tag(pr.tx) + " read x" + std::to_string(pr.obj) +
                           "=" + std::to_string(pr.key.second) +
                           " from a version opened at rank " +
                           std::to_string(open) +
                           ", after its snapshot stamp " +
                           std::to_string(pr.stamp),
               CertFlagKind::kReadStampMismatch, pr.tx, shard});
          continue;
        }
      }
      if (!rec.installed) {
        // The writer committed but superseded this value with a later write
        // of its own, so the version never installed: the streaming monitor
        // leaves its interval at the empty [0, 0). Present the same.
        reads.push_back({pr.tx, pr.pos, pr.obj, shard, 0, 0, 0});
      } else {
        reads.push_back({pr.tx, pr.pos, pr.obj, shard, rec.open_rank,
                         rec.close_rank, rec.close_pos});
      }
    }
  }
};

/// Merge: replay each transaction's snapshot window over its reads from
/// all shards, in position order, applying closes only once their closing
/// C event precedes the current position — the streaming monitor's exact
/// knowledge timing. The per-transaction sweep itself is sweep_tx_windows
/// above.
void merge_windows(const Pass0& pass0, VersionOrderPolicy policy,
                   std::vector<ReadRec>& all_reads, std::vector<Flag>& flags) {
  const bool snapshot_rank = stamp_space(policy);
  std::sort(all_reads.begin(), all_reads.end(),
            [](const ReadRec& a, const ReadRec& b) {
              if (a.tx != b.tx) return a.tx < b.tx;
              return a.pos < b.pos;
            });

  // Close-heap scratch, reused across transactions so the sweep allocates
  // nothing once warm.
  std::vector<Close> closes;

  std::size_t begin = 0;
  while (begin < all_reads.size()) {
    std::size_t end = begin;
    while (end < all_reads.size() && all_reads[end].tx == all_reads[begin].tx) {
      ++end;
    }
    const TxId id = all_reads[begin].tx;
    const TxMeta& meta = *pass0.txs.find(id);
    sweep_tx_windows(id, meta, all_reads.data() + begin, end - begin,
                     snapshot_rank, closes, flags);
    begin = end;
  }
}

/// Committed transactions with NO non-local reads never enter
/// merge_windows (it iterates read groups), but under kSnapshotRank their
/// serialization points still face the birth-floor check — the monitor
/// fires it at the C event: a pinned read-only point at or below the
/// floor, or a blind update whose stamped rank is at or below the floor,
/// violates the real-time order.
void check_readless_points(const Pass0& pass0, std::vector<Flag>& flags,
                           const std::vector<ReadRec>& all_reads) {
  std::unordered_set<TxId> with_reads;
  for (const ReadRec& r : all_reads) with_reads.insert(r.tx);
  pass0.txs.for_each([&](TxId id, const TxMeta& meta) {
    if (!meta.committed || with_reads.count(id) != 0) return;
    check_readless_tx(id, meta, flags);
  });
}

}  // namespace

VerifyConcurrency resolve_verify_concurrency(std::size_t num_registers,
                                             std::size_t num_shards,
                                             std::size_t num_threads) noexcept {
  VerifyConcurrency out;
  out.threads = num_threads;
  if (out.threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    out.threads = hw > 0 ? hw : 1;
  }
  out.shards = num_shards;
  if (out.shards == 0) out.shards = std::min(num_registers, out.threads);
  if (out.shards == 0) out.shards = 1;
  return out;
}

History project_registers(const History& h, const std::vector<ObjId>& registers) {
  std::unordered_set<ObjId> regs(registers.begin(), registers.end());
  std::unordered_set<TxId> touching;
  for (const Event& e : h.events()) {
    if ((e.kind == EventKind::kInvoke || e.kind == EventKind::kResponse) &&
        regs.count(e.obj) != 0) {
      touching.insert(e.tx);
    }
  }
  History out(h.model());
  for (const Event& e : h.events()) {
    const bool op_event =
        e.kind == EventKind::kInvoke || e.kind == EventKind::kResponse;
    if (op_event ? regs.count(e.obj) != 0 : touching.count(e.tx) != 0) {
      out.append(e);
    }
  }
  return out;
}

ParallelVerifyResult verify_history_sharded(const History& h,
                                            util::ThreadPool& pool,
                                            const ShardVerifyOptions& options) {
  for (ObjId r = 0; r < h.model().size(); ++r) {
    if (dynamic_cast<const RegisterSpec*>(&h.model().spec(r)) == nullptr) {
      throw std::invalid_argument(
          "sharded verification: register histories only");
    }
  }

  ParallelVerifyResult result;
  result.events = h.size();
  const std::size_t shards =
      resolve_verify_concurrency(h.model().size(), options.num_shards,
                                 pool.size())
          .shards;
  result.shards_used = shards;

  Pass0 pass0;
  pass0.run(h, options.policy);

  std::vector<ShardPass> passes;
  passes.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    passes.push_back(ShardPass{&h, &pass0, s, shards, options.policy, {}, {}});
  }
  pool.parallel_for(shards, [&](std::size_t s) { passes[s].run(); });

  std::vector<Flag> flags = std::move(pass0.flags);
  std::vector<ReadRec> all_reads;
  for (ShardPass& p : passes) {
    flags.insert(flags.end(), p.flags.begin(), p.flags.end());
    all_reads.insert(all_reads.end(), p.reads.begin(), p.reads.end());
  }
  merge_windows(pass0, options.policy, all_reads, flags);
  if (stamp_space(options.policy)) {
    check_readless_points(pass0, flags, all_reads);
  }

  std::sort(flags.begin(), flags.end(),
            [](const Flag& a, const Flag& b) { return a.pos < b.pos; });

  // §3.6 repair: when every flag is a statement about the commit order
  // (reorder_repairable), a bounded search over the smart reorderings may
  // certify the history outright.
  if (options.policy == VersionOrderPolicy::kBlindWriteSmart &&
      !flags.empty() &&
      std::all_of(flags.begin(), flags.end(),
                  [](const Flag& f) { return reorder_repairable(f.kind); })) {
    const SmartReorderResult found = smart_reorder_search(h, flags.front().tx);
    if (found.certified) {
      result.smart_order = found.order;
      result.certified = true;
      return result;
    }
  }

  // Definitional fallback: adjudicate each flagged shard's sub-history.
  // Flags whose kind already proves non-opacity (a §5.4 consistency
  // violation) are adjudicated kNo without the exponential search — the
  // structured kind is what lets us dispatch here without string matching.
  std::unordered_map<std::size_t, std::pair<Verdict, std::string>> adjudicated;
  if (options.definitional_fallback) {
    for (const Flag& f : flags) {
      if (f.shard == kNoShard || adjudicated.count(f.shard) != 0) continue;
      if (proves_non_opaque(f.kind)) {
        adjudicated[f.shard] = {
            Verdict::kNo, std::string("flag kind ") + to_string(f.kind) +
                              " violates consistency (Theorem 2 makes it "
                              "necessary; no search needed)"};
        continue;
      }
      std::vector<ObjId> regs;
      for (ObjId r = 0; r < h.model().size(); ++r) {
        if (r % shards == f.shard) regs.push_back(r);
      }
      const History sub = project_registers(h, regs);
      if (sub.transactions().size() > options.fallback_max_txs) {
        adjudicated[f.shard] = {Verdict::kUnknown,
                                "sub-history too large for the definitional "
                                "checker (" +
                                    std::to_string(sub.transactions().size()) +
                                    " transactions)"};
        continue;
      }
      OpacityOptions opts;
      opts.max_states = options.fallback_max_states;
      const OpacityResult exact = check_opacity(sub, opts);
      adjudicated[f.shard] = {exact.verdict, exact.reason};
    }
  }

  result.flags.reserve(flags.size());
  for (const Flag& f : flags) {
    ShardFlag out;
    out.pos = f.pos;
    out.reason = f.reason;
    out.kind = f.kind;
    out.tx = f.tx;
    out.shard = f.shard;
    const auto a = adjudicated.find(f.shard);
    if (a != adjudicated.end()) {
      out.adjudication = a->second.first;
      out.adjudication_reason = a->second.second;
    }
    result.flags.push_back(std::move(out));
  }
  result.certified = result.flags.empty();
  if (!result.flags.empty()) {
    result.violation = OnlineViolation{result.flags.front().pos,
                                       result.flags.front().reason,
                                       result.flags.front().kind};
  }
  return result;
}

ParallelVerifyResult verify_history_sharded(const History& h,
                                            const ShardVerifyOptions& options) {
  util::ThreadPool pool(resolve_verify_concurrency(h.model().size(),
                                                   options.num_shards,
                                                   options.num_threads)
                            .threads);
  return verify_history_sharded(h, pool, options);
}

}  // namespace optm::core
