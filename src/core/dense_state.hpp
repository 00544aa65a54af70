// Dense state containers for the certificate engines' hot path.
//
// The certificate engines resolve every event against two keys: its
// transaction id and, for register operations, the (register, value)
// version it names. Node-based hash maps (std::unordered_map) would cost a
// hash, a bucket probe, a pointer chase and (on insertion) a node
// allocation per event. This header provides structures that are O(1) per
// access with ZERO heap allocations in steady state:
//
//   * TxSlab<T>      — a TxId-indexed slab of small per-id records. Both
//     recorders allocate transaction ids densely from 1
//     (Recorder::begin_tx is a fetch_add), so the id IS the index; the
//     slab grows geometrically and an access is one bounds check + one
//     vector index. Hand-built histories with genuinely sparse ids
//     (fuzzers, adversarial tests) spill into a small overflow map instead
//     of ballooning the slab: an id more than kGrowSlack past the dense
//     frontier is judged non-dense. A slab entry lives as long as the
//     engine, so it should be small: the streaming monitor keeps one
//     32-bit word per id (unborn, finished, or its live slot) and holds a
//     live transaction's full state in a recycled pool of its own
//     (core/online.hpp); the sharded offline driver keeps a TxMeta per id.
//
//   * VersionTable<R> — an open-addressing, linear-probing flat table over
//     (register, value) keys, the §5.4 value-unique version namespace.
//     Slots store the record inline (no nodes), probing is cache-
//     sequential, and the table only ever grows — the engines never erase
//     a version, so no tombstones exist and a probe chain never has to
//     step over deleted slots. A rehash starts a fresh EPOCH with every
//     slot reinserted; epoch() counts them. A record's address is a
//     handle that stays valid for the rest of its epoch: the streaming
//     monitor keeps one per register (its current version, closed at the
//     next install without a probe), and resolve() re-finds a handle by
//     key once the epoch has moved, so a stale address is never
//     dereferenced.
//
//   * SmallWriteSet  — a transaction's executed writes, sorted by
//     register: inline storage for the common small write set, spilling
//     into a pooled vector past kInlineCapacity. Spill vectors are
//     RECYCLED through a caller-owned pool (release() at transaction
//     completion), so even write-heavy streams stop allocating once the
//     pool has warmed to the high-water number of concurrently live
//     spilled transactions. Iteration order is ascending register — the
//     same order the std::map it replaces gave the engines, so commit
//     installation order (and therefore every verdict and flag position)
//     is preserved byte for byte.
//
// All three are shared by OnlineCertificateMonitor (core/online.hpp) and
// the sharded offline driver (core/parallel_verify.cpp); the monitor's
// reserve() pre-sizes them so a soak-scale feed performs no allocation at
// all after warm-up (tests/core/monitor_alloc_test.cpp holds it to that
// under a counting operator-new).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "util/hash.hpp"

namespace optm::core {

// ---------------------------------------------------------------------------
// TxSlab
// ---------------------------------------------------------------------------

/// TxId-indexed slab with an overflow map for non-dense ids. T must be
/// default-constructible; a default-constructed T is indistinguishable
/// from "never touched" (the monitor's id word is 0 = unborn, TxMeta
/// encodes absence as !born, which default-construction yields).
template <typename T>
class TxSlab {
 public:
  /// Ids at most this far past the dense frontier still grow the slab;
  /// anything further is treated as sparse and lives in the overflow map
  /// (prevents a single adversarial id from allocating gigabytes).
  static constexpr TxId kGrowSlack = 1u << 16;

  void reserve(std::size_t num_txs) { dense_.reserve(num_txs); }

  /// Mutable access, growing the slab on demand (the "insert" of the map
  /// API this replaces). Hot path: one compare + one index. Geometric
  /// growth, clipped to the reserved capacity so a reserve() sized to the
  /// load is never overshot into a reallocation.
  ///
  /// INVARIANT: overflow_ never holds a key below dense_.size() — growth
  /// migrates any overflow entries the new frontier covers, so a dense
  /// hit can never shadow state parked in the overflow map (an id judged
  /// sparse earlier stays authoritative after the frontier passes it).
  [[nodiscard]] T& get(TxId tx) {
    if (tx < dense_.size()) return dense_[tx];
    if (tx < dense_.size() + kGrowSlack) {
      const std::size_t need = static_cast<std::size_t>(tx) + 1;
      const std::size_t want =
          std::max<std::size_t>(need, dense_.size() * 2);
      dense_.resize(std::max(need, std::min(want, dense_.capacity())));
      migrate_covered_overflow();
      return dense_[tx];
    }
    return overflow_[tx];
  }

  /// Lookup without insertion. A dense id below the frontier always
  /// resolves (possibly to a default-constructed T — see class comment).
  [[nodiscard]] T* find(TxId tx) noexcept {
    if (tx < dense_.size()) return &dense_[tx];
    const auto it = overflow_.find(tx);
    return it == overflow_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const T* find(TxId tx) const noexcept {
    if (tx < dense_.size()) return &dense_[tx];
    const auto it = overflow_.find(tx);
    return it == overflow_.end() ? nullptr : &it->second;
  }

  /// Visit every slot ever materialized, as (TxId, T&). Dense slots that
  /// were never touched visit as default-constructed T — callers filter on
  /// their own "born" marker, exactly as they skipped absent map keys.
  template <typename F>
  void for_each(F&& f) const {
    for (TxId tx = 0; tx < dense_.size(); ++tx) f(tx, dense_[tx]);
    for (const auto& [tx, t] : overflow_) f(tx, t);
  }

 private:
  /// Restore the class invariant after dense growth: entries the new
  /// frontier covers move from the overflow map into their dense slot.
  /// Overflow is adversarial-input-only, so this stays off the hot path.
  void migrate_covered_overflow() {
    if (overflow_.empty()) return;
    for (auto it = overflow_.begin(); it != overflow_.end();) {
      if (it->first < dense_.size()) {
        dense_[it->first] = std::move(it->second);
        it = overflow_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::vector<T> dense_;
  std::unordered_map<TxId, T> overflow_;
};

// ---------------------------------------------------------------------------
// VersionTable
// ---------------------------------------------------------------------------

/// Open-addressing flat hash table over (register, value) keys. Linear
/// probing, power-of-two capacity, load factor <= 1/2, records inline. No
/// erase — the version namespace only grows — hence no tombstones.
template <typename Rec>
class VersionTable {
 public:
  explicit VersionTable(std::size_t expected_entries = 16) {
    rehash(bucket_count_for(expected_entries));
  }

  void reserve(std::size_t entries) {
    const std::size_t want = bucket_count_for(entries);
    if (want > slots_.size()) rehash(want);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Find the record for (obj, val), default-inserting one if absent (the
  /// emplace of the map API this replaces). `inserted` reports which. The
  /// growth check runs only when the probe actually inserts, so a lookup
  /// of an existing key can never rehash — reserve() sized exactly to the
  /// load stays allocation-free, as the monitor's reserve() contract
  /// promises.
  [[nodiscard]] Rec& slot(ObjId obj, Value val, bool* inserted = nullptr) {
    std::size_t i = find_slot(obj, val);
    if (slots_[i].used) {
      if (inserted != nullptr) *inserted = false;
      return slots_[i].rec;
    }
    if ((size_ + 1) * 2 > slots_.size()) {
      rehash(slots_.size() * 2);
      i = find_slot(obj, val);  // empty slot in the new epoch
    }
    Slot& s = slots_[i];
    s.used = true;
    s.obj = obj;
    s.val = val;
    s.rec = Rec{};
    ++size_;
    if (inserted != nullptr) *inserted = true;
    return s.rec;
  }

  [[nodiscard]] Rec* find(ObjId obj, Value val) noexcept {
    Slot& s = slots_[find_slot(obj, val)];
    return s.used ? &s.rec : nullptr;
  }
  [[nodiscard]] const Rec* find(ObjId obj, Value val) const noexcept {
    return const_cast<VersionTable*>(this)->find(obj, val);
  }

  /// Rehashes so far. The address slot() or find() returned for a record
  /// is valid while epoch() still equals its value when the address was
  /// taken; every rehash moves every record.
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }

  /// The record behind a handle (`rec`, taken in epoch `epoch`) for key
  /// (obj, val): the address itself within its epoch, a fresh lookup by
  /// key after a rehash. The stale address is never dereferenced.
  [[nodiscard]] Rec* resolve(Rec* rec, std::uint32_t epoch, ObjId obj,
                             Value val) noexcept {
    return epoch == epoch_ ? rec : find(obj, val);
  }

 private:
  struct Slot {
    Rec rec{};
    Value val{0};
    ObjId obj{0};
    bool used{false};
  };

  [[nodiscard]] static std::size_t bucket_count_for(
      std::size_t entries) noexcept {
    std::size_t cap = 16;
    while (cap < entries * 2) cap *= 2;  // keep load factor <= 1/2
    return cap;
  }

  [[nodiscard]] std::size_t bucket_of(ObjId obj, Value val) const noexcept {
    const std::uint64_t key =
        util::hash_combine(obj, static_cast<std::uint64_t>(val));
    return static_cast<std::size_t>(util::mix64(key)) & mask_;
  }

  /// Probe to the key's slot or the first empty slot of its chain.
  [[nodiscard]] std::size_t find_slot(ObjId obj, Value val) const noexcept {
    std::size_t i = bucket_of(obj, val);
    for (;;) {
      const Slot& s = slots_[i];
      if (!s.used || (s.obj == obj && s.val == val)) return i;
      i = (i + 1) & mask_;
    }
  }

  void rehash(std::size_t new_buckets) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_buckets, Slot{});
    mask_ = new_buckets - 1;
    ++epoch_;
    for (Slot& s : old) {
      if (!s.used) continue;
      std::size_t i = bucket_of(s.obj, s.val);
      while (slots_[i].used) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint32_t epoch_ = 0;
};

// ---------------------------------------------------------------------------
// SmallWriteSet
// ---------------------------------------------------------------------------

/// A transaction's executed writes (latest value per register), sorted by
/// register. Inline up to kInlineCapacity entries; beyond that the entries
/// move into a vector acquired from a caller-owned pool and returned to it
/// by release() when the transaction completes — the pool is what makes a
/// long stream of write-heavy transactions allocation-free once warm.
class SmallWriteSet {
 public:
  using Entry = std::pair<ObjId, Value>;
  using Spill = std::vector<Entry>;
  using SpillPool = std::vector<Spill>;
  static constexpr std::size_t kInlineCapacity = 4;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] const Entry* begin() const noexcept {
    return spilled_ ? spill_.data() : inline_.data();
  }
  [[nodiscard]] const Entry* end() const noexcept { return begin() + size_; }

  [[nodiscard]] const Value* find(ObjId obj) const noexcept {
    for (const Entry* e = begin(); e != end(); ++e) {
      if (e->first == obj) return &e->second;
      if (e->first > obj) break;  // sorted
    }
    return nullptr;
  }

  /// Insert or overwrite the write to `obj`, keeping entries sorted.
  void set(ObjId obj, Value val, SpillPool& pool) {
    Entry* data = spilled_ ? spill_.data() : inline_.data();
    std::size_t at = 0;
    while (at < size_ && data[at].first < obj) ++at;
    if (at < size_ && data[at].first == obj) {
      data[at].second = val;
      return;
    }
    if (!spilled_ && size_ == kInlineCapacity) {
      if (pool.empty()) {
        spill_ = Spill{};
      } else {
        spill_ = std::move(pool.back());
        pool.pop_back();
        spill_.clear();
      }
      spill_.insert(spill_.end(), inline_.begin(), inline_.end());
      spilled_ = true;
      data = spill_.data();
    }
    if (spilled_) {
      spill_.insert(spill_.begin() + static_cast<std::ptrdiff_t>(at),
                    {obj, val});
    } else {
      for (std::size_t i = size_; i > at; --i) inline_[i] = inline_[i - 1];
      inline_[at] = {obj, val};
    }
    ++size_;
  }

  /// Return any spill storage to the pool and forget all entries (the
  /// transaction completed; its writes are installed or discarded).
  void release(SpillPool& pool) noexcept {
    if (spilled_) {
      pool.push_back(std::move(spill_));
      spill_ = Spill{};
      spilled_ = false;
    }
    size_ = 0;
  }

 private:
  std::array<Entry, kInlineCapacity> inline_{};
  Spill spill_;
  std::uint32_t size_ = 0;
  bool spilled_ = false;
};

}  // namespace optm::core
