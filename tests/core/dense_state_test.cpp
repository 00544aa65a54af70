// The dense hot-path containers (core/dense_state.hpp). TxSlab carries the
// regression for the overflow/dense shadowing bug: an id first judged
// sparse (parked in the overflow map) must stay authoritative after the
// dense frontier later grows past it (growth migrates the entry), or a
// transaction's lifecycle state would silently reset mid-stream.
// VersionTable's records must never move while its index rebuilds, and a
// fingerprint match must never stand in for the archived key.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/dense_state.hpp"

namespace optm::core {
namespace {

TEST(TxSlab, DenseIdsRoundTrip) {
  TxSlab<int> slab;
  for (TxId tx = 1; tx <= 100; ++tx) slab.get(tx) = static_cast<int>(tx);
  for (TxId tx = 1; tx <= 100; ++tx) {
    ASSERT_NE(slab.find(tx), nullptr);
    EXPECT_EQ(*slab.find(tx), static_cast<int>(tx));
  }
}

TEST(TxSlab, SparseIdsGoToOverflowAndSurviveFrontierGrowth) {
  TxSlab<int> slab;
  // Far past the grow slack from an empty slab: judged sparse.
  const TxId sparse = TxSlab<int>::kGrowSlack + 70'000;
  slab.get(sparse) = 42;
  ASSERT_NE(slab.find(sparse), nullptr);
  EXPECT_EQ(*slab.find(sparse), 42);

  // Now grow the dense frontier PAST the sparse id (within slack of the
  // current frontier each step). The overflow entry must migrate, not be
  // shadowed by a default-constructed dense slot.
  TxId frontier = 0;
  while (frontier < sparse + 10) {
    frontier += TxSlab<int>::kGrowSlack - 1;
    slab.get(frontier) = -1;
  }
  ASSERT_NE(slab.find(sparse), nullptr);
  EXPECT_EQ(*slab.find(sparse), 42) << "overflow entry shadowed by growth";
  EXPECT_EQ(slab.get(sparse), 42);

  // And it visits exactly once with its value.
  int seen = 0;
  slab.for_each([&](TxId tx, const int& v) {
    if (tx == sparse) {
      ++seen;
      EXPECT_EQ(v, 42);
    }
  });
  EXPECT_EQ(seen, 1);
}

TEST(TxSlab, ReserveIsNeverOvershotByGeometricGrowth) {
  TxSlab<int> slab;
  slab.reserve(1000);
  // Touch ids densely: growth doubles but clips to the reserved capacity.
  for (TxId tx = 0; tx < 1000; ++tx) slab.get(tx) = 1;
  ASSERT_NE(slab.find(999), nullptr);
}

/// A VersionTable record: the key the table owns, and a payload.
struct Rec {
  Value val{0};
  ObjId obj{0};
  int payload{0};
};
using Table = VersionTable<Rec>;

TEST(VersionTable, FindAndInsertAcrossRebuilds) {
  Table table(2);  // 16 buckets: force several index rebuilds
  for (ObjId obj = 0; obj < 8; ++obj) {
    for (Value v = 0; v < 64; ++v) {
      bool inserted = false;
      Rec& rec = table.slot(obj, v, &inserted);
      EXPECT_TRUE(inserted);
      EXPECT_EQ(rec.obj, obj);
      EXPECT_EQ(rec.val, v);
      rec.payload = static_cast<int>(obj * 1000 + v);
    }
  }
  EXPECT_EQ(table.size(), 8u * 64u);
  for (ObjId obj = 0; obj < 8; ++obj) {
    for (Value v = 0; v < 64; ++v) {
      const Rec* rec = table.find(obj, v);
      ASSERT_NE(rec, nullptr) << obj << "," << v;
      EXPECT_EQ(rec->payload, static_cast<int>(obj * 1000 + v));
    }
  }
  EXPECT_EQ(table.find(9, 0), nullptr);
  EXPECT_EQ(table.find(0, 64), nullptr);
  // Re-slot of an existing key reports !inserted and keeps the record.
  bool inserted = true;
  EXPECT_EQ(table.slot(3, 7, &inserted).payload, 3007);
  EXPECT_FALSE(inserted);
}

TEST(VersionTable, ProbesCountSlotAndFindCallsOnly) {
  Table table(2);
  for (Value v = 0; v < 100; ++v) (void)table.slot(1, v);  // rebuilds too
  EXPECT_EQ(table.probes(), 100u);
  (void)table.slot(1, 5);  // a hit is a call all the same
  (void)table.find(2, 5);  // and so is a miss
  const Table& view = table;
  (void)view.find(1, 6);
  EXPECT_EQ(table.probes(), 103u);
  (void)table.home(1, 7);  // a prefetch address, no probe
  EXPECT_EQ(table.probes(), 103u);
}

TEST(VersionTable, HomeSlotOfAnyKeyLiesInTheIndex) {
  Table table(1000);  // 2048 buckets: the load stays at most 1/2
  const std::uint64_t* lo = table.home(0, 0);
  const std::uint64_t* hi = lo;
  for (const ObjId obj : {ObjId{0}, ObjId{7}, ~ObjId{0}}) {
    for (Value v = -5000; v < 5000; ++v) {
      const std::uint64_t* home = table.home(obj, v);
      EXPECT_EQ(home, table.home(obj, v));
      lo = std::min(lo, home);
      hi = std::max(hi, home);
    }
  }
  EXPECT_LT(hi - lo, 2048);
  EXPECT_GT(hi - lo, 2000) << "30000 keys should reach nearly every bucket";
}

TEST(VersionTable, RecordsKeepAddressAndContentsAcrossIndexRebuilds) {
  Table table;  // starts at 16 buckets
  const std::size_t start_bytes = table.bytes();
  // Past two archive chunks: the index doubles ten times on the way.
  constexpr Value kRecords = 2 * Table::kChunkRecords + 100;
  std::vector<const Rec*> addresses;
  for (Value v = 0; v < kRecords; ++v) {
    Rec& rec = table.slot(static_cast<ObjId>(v % 5), v);
    rec.payload = static_cast<int>(v) * 3;
    addresses.push_back(&rec);
    // Every record taken so far is where it was, unchanged, after each
    // insert (under ASan a moved record would read freed memory).
    if ((v & (v - 1)) == 0) {
      for (Value u = 0; u <= v; ++u) {
        ASSERT_EQ(addresses[static_cast<std::size_t>(u)]->payload,
                  static_cast<int>(u) * 3);
      }
    }
  }
  EXPECT_GE(table.bytes(), start_bytes + 3 * Table::kChunkRecords * sizeof(Rec));
  for (Value v = 0; v < kRecords; ++v) {
    const Rec* rec = table.find(static_cast<ObjId>(v % 5), v);
    ASSERT_EQ(rec, addresses[static_cast<std::size_t>(v)]) << v;
    EXPECT_EQ(rec->obj, static_cast<ObjId>(v % 5));
    EXPECT_EQ(rec->val, v);
    EXPECT_EQ(rec->payload, static_cast<int>(v) * 3);
  }
  // A reserve() past the load rebuilds the index again; records stay.
  table.reserve(4 * kRecords);
  EXPECT_EQ(table.find(0, 0), addresses[0]);
  const Rec* last = table.find(static_cast<ObjId>((kRecords - 1) % 5), kRecords - 1);
  ASSERT_EQ(last, addresses.back());
  EXPECT_EQ(last->payload, static_cast<int>(kRecords - 1) * 3);
}

TEST(VersionTable, FingerprintTwinsResolveToTheirOwnRecords) {
  // Brute-force two keys whose hashes share the upper 32 bits (the index
  // fingerprint): about 2^18 hashes hold a few such pairs. Sharing the
  // fingerprint, they share a home bucket, hence one probe chain.
  std::unordered_map<std::uint32_t, Value> seen;
  Value a = -1;
  Value b = -1;
  for (Value v = 0; v < (Value{1} << 20) && a < 0; ++v) {
    const auto fp = static_cast<std::uint32_t>(Table::hash(0, v) >> 32);
    const auto [it, fresh] = seen.emplace(fp, v);
    if (!fresh) {
      a = it->second;
      b = v;
    }
  }
  ASSERT_GE(a, 0) << "no fingerprint collision found";
  const std::uint64_t ha = Table::hash(0, a);
  ASSERT_NE(ha, Table::hash(0, b));
  ASSERT_EQ(ha >> 32, Table::hash(0, b) >> 32);

  Table table;
  table.slot(0, a).payload = 1;
  // The twin probes past a's slot, whose fingerprint matches: the archived
  // key must tell them apart.
  EXPECT_EQ(table.find(0, b), nullptr);
  bool inserted = false;
  table.slot(0, b, &inserted).payload = 2;
  EXPECT_TRUE(inserted);
  ASSERT_NE(table.find(0, a), nullptr);
  ASSERT_NE(table.find(0, b), nullptr);
  EXPECT_EQ(table.find(0, a)->payload, 1);
  EXPECT_EQ(table.find(0, b)->payload, 2);
  EXPECT_NE(table.find(0, a), table.find(0, b));

  // A third key with the same fingerprint — here even the same full hash:
  // hash_combine(seed, v) = seed ^ (v + k + (seed << 6) + (seed >> 2)),
  // solved for v at another register — is absent.
  constexpr std::uint64_t kCombine = 0x9e3779b97f4a7c15ULL;
  const ObjId c_obj = 7;
  const std::uint64_t combined =
      util::hash_combine(0, static_cast<std::uint64_t>(a));
  const auto c_val = static_cast<Value>((combined ^ c_obj) - kCombine -
                                        (std::uint64_t{c_obj} << 6) -
                                        (std::uint64_t{c_obj} >> 2));
  ASSERT_EQ(Table::hash(c_obj, c_val), ha);
  EXPECT_EQ(table.find(c_obj, c_val), nullptr);
  EXPECT_EQ(table.size(), 2u);
}

TEST(VersionTable, AbsurdReserveThrowsInsteadOfSpinning) {
  Table table;
  // One past the 32-bit archive positions, and sizes whose bucket count
  // would wrap to 0 when doubled.
  EXPECT_THROW(table.reserve(Table::kMaxRecords + 1), std::length_error);
  EXPECT_THROW(table.reserve((std::size_t{1} << 62) + 1), std::length_error);
  EXPECT_THROW(table.reserve(~std::size_t{0}), std::length_error);
  EXPECT_THROW(Table{~std::size_t{0}}, std::length_error);
  // The table is untouched and still works.
  table.slot(1, 2).payload = 3;
  EXPECT_EQ(table.find(1, 2)->payload, 3);
}

TEST(SmallWriteSet, SortedUpsertInlineAndSpilled) {
  SmallWriteSet<Value>::SpillPool pool;
  SmallWriteSet<Value> ws;
  EXPECT_TRUE(ws.empty());
  // Out-of-order inserts, one overwrite, spill past the inline capacity.
  const ObjId objs[] = {7, 3, 9, 1, 5, 8, 2};
  for (std::size_t i = 0; i < std::size(objs); ++i) {
    ws.set(objs[i], static_cast<Value>(objs[i] * 10), pool);
  }
  ws.set(3, 333, pool);  // overwrite keeps size
  EXPECT_EQ(ws.size(), std::size(objs));
  // Iteration is ascending-register (the std::map order the engines need).
  ObjId prev = 0;
  for (const auto& [obj, val] : ws) {
    EXPECT_GT(obj, prev);
    prev = obj;
    EXPECT_EQ(val, obj == 3 ? 333 : static_cast<Value>(obj * 10));
  }
  ASSERT_NE(ws.find(3), nullptr);
  EXPECT_EQ(*ws.find(3), 333);
  EXPECT_EQ(ws.find(4), nullptr);

  // release() recycles the spill storage through the pool.
  ws.release(pool);
  EXPECT_TRUE(ws.empty());
  EXPECT_EQ(pool.size(), 1u);
  SmallWriteSet<Value> other;
  for (ObjId obj = 0; obj < 6; ++obj) other.set(obj, 1, pool);
  EXPECT_TRUE(pool.empty()) << "spill should come from the pool";
}

}  // namespace
}  // namespace optm::core
