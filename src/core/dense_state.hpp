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
//     32-bit word per id (unborn, committed, aborted, or its live slot)
//     and holds a live transaction's full state in a recycled pool of its
//     own (core/online.hpp).
//
//   * VersionTable<R> — the §5.4 value-unique version namespace over
//     (register, value) keys: an append-only ARCHIVE of records in fixed
//     chunks under a compact exact INDEX of 8-byte slots (a 32-bit hash
//     fingerprint and a 32-bit archive position, linear probing, at most
//     half full). Records never move: a record's address is a handle that
//     stays valid for the table's lifetime, so the streaming monitor keeps
//     one per register (its current version, closed at the next install
//     without a probe). The engines never erase a version, so no
//     tombstones exist; when the index doubles it is rebuilt from a
//     sequential scan of the archive, and only the index is reallocated.
//     Per version that is one archive entry (32 B for the monitor's
//     record) plus 16–32 B of index slots. home() names the index slot a
//     key's probe starts at, so a caller can prefetch it events ahead;
//     probes() counts the calls into the index.
//
//   * SmallWriteSet<P> — a transaction's executed writes, sorted by
//     register, each with a payload P (the streaming monitor keeps the
//     version's record address, so its commit installs without a second
//     probe): inline storage for the
//     common small write set, spilling into a pooled vector past
//     kInlineCapacity. Spill vectors are
//     RECYCLED through a caller-owned pool (release() at transaction
//     completion), so even write-heavy streams stop allocating once the
//     pool has warmed to the high-water number of concurrently live
//     spilled transactions. Iteration order is ascending register — the
//     same order the std::map it replaces gave the engines, so commit
//     installation order (and therefore every verdict and flag position)
//     is preserved byte for byte.
//
// All three serve OnlineCertificateMonitor (core/online.hpp); its
// reserve() pre-sizes them so a soak-scale feed performs no allocation at
// all after warm-up (tests/core/monitor_alloc_test.cpp holds it to that
// under a counting operator-new).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>
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

/// What VersionTable asks of its record type: the (register, value) key as
/// members `obj` and `val`, and nothing to destroy. The table writes the
/// key when it inserts the record and compares it to confirm every index
/// hit; every other member belongs to the engine, which must never
/// overwrite the key (assign fields, not whole records).
template <typename Rec>
concept VersionRecord =
    std::is_trivially_destructible_v<Rec> && requires(Rec& r) {
      { r.obj } -> std::same_as<ObjId&>;
      { r.val } -> std::same_as<Value&>;
    };

/// Append-only record archive under an exact (register, value) index. No
/// erase — the version namespace only grows — hence no tombstones.
///
///   * The archive holds the records in insertion order, in chunks of
///     kChunkRecords that are never moved or freed before the table: the
///     address slot() or find() returns stays valid for the table's life.
///   * The index is one 8-byte slot per bucket, linear probing, load
///     factor <= 1/2: the upper 32 bits of the key's hash (its
///     fingerprint) over the record's archive position + 1 (0 = empty).
///     The home bucket is the hash's top bits, so keys that share a
///     fingerprint share a probe chain. A fingerprint match is confirmed
///     against the archived key: the index is exact, not a filter.
///   * When the index would pass half full it doubles, rebuilt by one
///     sequential scan of the archive; the records stay where they are.
///   * probes() counts the calls into the index (slot() plus find()); a
///     rebuild is not a call.
template <VersionRecord Rec>
class VersionTable {
 public:
  /// Records per archive chunk, allocated whole.
  static constexpr std::size_t kChunkRecords = 4096;
  /// Most records a table holds: an index slot names one by a 32-bit
  /// position + 1.
  static constexpr std::size_t kMaxRecords =
      std::numeric_limits<std::uint32_t>::max();

  explicit VersionTable(std::size_t expected_entries = 16) {
    reserve(expected_entries);
  }

  /// Size the index and the archive for `entries` records: inserts up to
  /// that count allocate nothing. Throws std::length_error past
  /// kMaxRecords.
  void reserve(std::size_t entries) {
    const std::size_t buckets = bucket_count_for(entries);
    if (buckets > index_.size()) rebuild(buckets);
    const std::size_t chunks = (entries + kChunkRecords - 1) / kChunkRecords;
    chunks_.reserve(chunks);
    while (chunks_.size() < chunks) add_chunk();
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Bytes held: the index's slots plus every archive chunk.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return index_.capacity() * sizeof(std::uint64_t) +
           chunks_.size() * kChunkRecords * sizeof(Rec);
  }

  /// Find the record for (obj, val), appending a default one if absent
  /// (the emplace of the map API this replaces). `inserted` reports which.
  /// Growth runs only when the probe actually inserts, so a lookup of an
  /// existing key never allocates — reserve() sized exactly to the load
  /// stays allocation-free, as the monitor's reserve() contract promises.
  [[nodiscard]] Rec& slot(ObjId obj, Value val, bool* inserted = nullptr) {
    ++probes_;
    const std::uint64_t h = hash(obj, val);
    std::size_t i = probe(h, obj, val);
    if (index_[i] != 0) {
      if (inserted != nullptr) *inserted = false;
      return record(index_[i]);
    }
    if (size_ == kMaxRecords) {
      throw std::length_error("VersionTable: more than 2^32 - 1 records");
    }
    if ((size_ + 1) * 2 > index_.size()) {
      rebuild(index_.size() * 2);
      i = probe(h, obj, val);  // the key's empty slot in the new index
    }
    if (size_ == chunks_.size() * kChunkRecords) add_chunk();
    Rec* rec = std::construct_at(chunks_[size_ / kChunkRecords].get() +
                                 size_ % kChunkRecords);
    rec->obj = obj;
    rec->val = val;
    ++size_;
    index_[i] = (h & kFingerprintMask) | size_;
    if (inserted != nullptr) *inserted = true;
    return *rec;
  }

  [[nodiscard]] Rec* find(ObjId obj, Value val) noexcept {
    ++probes_;
    const std::uint64_t s = index_[probe(hash(obj, val), obj, val)];
    return s == 0 ? nullptr : &record(s);
  }
  [[nodiscard]] const Rec* find(ObjId obj, Value val) const noexcept {
    return const_cast<VersionTable*>(this)->find(obj, val);
  }

  /// The index slot where the key's probe starts. Any key names a slot
  /// inside the index; the address is valid until the index next doubles.
  /// Reads nothing and counts as no probe: it is for prefetching.
  [[nodiscard]] const std::uint64_t* home(ObjId obj, Value val) const noexcept {
    return &index_[hash(obj, val) >> shift_];
  }

  /// Calls into the index so far: slot() plus find().
  [[nodiscard]] std::uint64_t probes() const noexcept { return probes_; }

  /// The key's full hash: fingerprint in the upper 32 bits, home bucket in
  /// the top log2(buckets) bits.
  [[nodiscard]] static std::uint64_t hash(ObjId obj, Value val) noexcept {
    return util::mix64(
        util::hash_combine(obj, static_cast<std::uint64_t>(val)));
  }

 private:
  static constexpr std::uint64_t kFingerprintMask = ~std::uint64_t{0} << 32;

  struct FreeChunk {
    void operator()(Rec* chunk) const noexcept {
      std::allocator<Rec>{}.deallocate(chunk, kChunkRecords);
    }
  };
  using Chunk = std::unique_ptr<Rec[], FreeChunk>;

  /// Buckets for `entries` at load factor <= 1/2. The kMaxRecords check
  /// comes first, so `entries * 2` cannot wrap and the doubling ends.
  [[nodiscard]] static std::size_t bucket_count_for(std::size_t entries) {
    if (entries > kMaxRecords) {
      throw std::length_error("VersionTable: more than 2^32 - 1 records");
    }
    std::size_t cap = 16;
    while (cap < entries * 2) cap *= 2;
    return cap;
  }

  /// The archived record an occupied index slot names.
  [[nodiscard]] Rec& record(std::uint64_t slot) const noexcept {
    const std::size_t pos = (slot & ~kFingerprintMask) - 1;
    return chunks_[pos / kChunkRecords][pos % kChunkRecords];
  }

  /// The index slot holding the key, or the first empty slot of its chain.
  [[nodiscard]] std::size_t probe(std::uint64_t h, ObjId obj,
                                  Value val) const noexcept {
    for (std::size_t i = h >> shift_;; i = (i + 1) & mask_) {
      const std::uint64_t s = index_[i];
      if (s == 0) return i;
      if ((s & kFingerprintMask) == (h & kFingerprintMask)) {
        const Rec& rec = record(s);
        if (rec.obj == obj && rec.val == val) return i;
      }
    }
  }

  /// Replace the index by one of `buckets` slots, filled by a sequential
  /// scan of the archive.
  void rebuild(std::size_t buckets) {
    std::vector<std::uint64_t> index(buckets, 0);
    const std::size_t mask = buckets - 1;
    const int shift = std::countl_zero(buckets) + 1;
    for (std::size_t pos = 0; pos < size_; ++pos) {
      const Rec& rec = chunks_[pos / kChunkRecords][pos % kChunkRecords];
      const std::uint64_t h = hash(rec.obj, rec.val);
      std::size_t i = h >> shift;
      while (index[i] != 0) i = (i + 1) & mask;
      index[i] = (h & kFingerprintMask) | (pos + 1);
    }
    index_ = std::move(index);
    mask_ = mask;
    shift_ = shift;
  }

  void add_chunk() {
    Chunk chunk(std::allocator<Rec>{}.allocate(kChunkRecords));
    chunks_.push_back(std::move(chunk));
  }

  std::vector<std::uint64_t> index_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
  std::vector<Chunk> chunks_;
  /// Mutable: the const find() counts too.
  mutable std::uint64_t probes_ = 0;
};

// ---------------------------------------------------------------------------
// SmallWriteSet
// ---------------------------------------------------------------------------

/// A transaction's executed writes (the latest write's payload per
/// register), sorted by register. Inline up to kInlineCapacity entries;
/// beyond that the entries move into a vector acquired from a caller-owned
/// pool and returned to it by release() when the transaction completes —
/// the pool is what makes a long stream of write-heavy transactions
/// allocation-free once warm.
template <typename Payload>
class SmallWriteSet {
 public:
  using Entry = std::pair<ObjId, Payload>;
  using Spill = std::vector<Entry>;
  using SpillPool = std::vector<Spill>;
  static constexpr std::size_t kInlineCapacity = 4;

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] const Entry* begin() const noexcept {
    return spilled_ ? spill_.data() : inline_.data();
  }
  [[nodiscard]] const Entry* end() const noexcept { return begin() + size_; }

  [[nodiscard]] const Payload* find(ObjId obj) const noexcept {
    for (const Entry* e = begin(); e != end(); ++e) {
      if (e->first == obj) return &e->second;
      if (e->first > obj) break;  // sorted
    }
    return nullptr;
  }

  /// Insert or overwrite the write to `obj`, keeping entries sorted.
  void set(ObjId obj, Payload val, SpillPool& pool) {
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
