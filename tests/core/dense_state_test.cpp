// The dense hot-path containers (core/dense_state.hpp) — including the
// regression for the overflow/dense shadowing bug: an id first judged
// sparse (parked in the overflow map) must stay authoritative after the
// dense frontier later grows past it (growth migrates the entry), or a
// transaction's lifecycle state would silently reset mid-stream.
#include <gtest/gtest.h>

#include <cstdint>

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

TEST(VersionTable, FindAndInsertAcrossRehashes) {
  VersionTable<int> table(2);  // force several rehashes
  for (ObjId obj = 0; obj < 8; ++obj) {
    for (Value v = 0; v < 64; ++v) {
      bool inserted = false;
      table.slot(obj, v, &inserted) = static_cast<int>(obj * 1000 + v);
      EXPECT_TRUE(inserted);
    }
  }
  EXPECT_EQ(table.size(), 8u * 64u);
  for (ObjId obj = 0; obj < 8; ++obj) {
    for (Value v = 0; v < 64; ++v) {
      const int* rec = table.find(obj, v);
      ASSERT_NE(rec, nullptr) << obj << "," << v;
      EXPECT_EQ(*rec, static_cast<int>(obj * 1000 + v));
    }
  }
  EXPECT_EQ(table.find(9, 0), nullptr);
  EXPECT_EQ(table.find(0, 64), nullptr);
  // Re-slot of an existing key reports !inserted and keeps the record.
  bool inserted = true;
  EXPECT_EQ(table.slot(3, 7, &inserted), 3007);
  EXPECT_FALSE(inserted);
}

TEST(VersionTable, HandlesHoldWithinTheirEpochAndResolveByKeyAfter) {
  VersionTable<int> table(2);
  const std::uint32_t start = table.epoch();
  int* handle = &table.slot(0, 1);
  *handle = 41;
  const std::uint32_t taken = table.epoch();
  EXPECT_EQ(taken, start);  // one insert into 16 buckets: no rehash
  // Lookups and re-slots of existing keys never rehash: the epoch stays,
  // the handle is the live record.
  EXPECT_EQ(table.find(0, 1), handle);
  EXPECT_EQ(&table.slot(0, 1), handle);
  EXPECT_EQ(table.epoch(), taken);
  EXPECT_EQ(table.resolve(handle, taken, 0, 1), handle);
  // reserve() within capacity does not rehash; past it, it does.
  table.reserve(1);
  EXPECT_EQ(table.epoch(), taken);
  // Inserts grow the table: every rehash starts a new epoch and moves
  // every record, so the old address must be resolved by key (and never
  // read: under ASan, reading it would be a use-after-free).
  std::uint32_t last = taken;
  for (Value v = 2; v < 200; ++v) {
    table.slot(1, v) = static_cast<int>(v);
    EXPECT_GE(table.epoch(), last);
    last = table.epoch();
  }
  EXPECT_GE(table.epoch(), taken + 3);
  int* moved = table.resolve(handle, taken, 0, 1);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved, table.find(0, 1));
  EXPECT_EQ(*moved, 41);
  // A handle taken in the current epoch is its own address again.
  EXPECT_EQ(table.resolve(moved, table.epoch(), 0, 1), moved);
  const std::uint32_t before = table.epoch();
  table.reserve(4096);
  EXPECT_EQ(table.epoch(), before + 1);
  EXPECT_EQ(*table.resolve(moved, before, 0, 1), 41);
}

TEST(SmallWriteSet, SortedUpsertInlineAndSpilled) {
  SmallWriteSet::SpillPool pool;
  SmallWriteSet ws;
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
  SmallWriteSet other;
  for (ObjId obj = 0; obj < 6; ++obj) other.set(obj, 1, pool);
  EXPECT_TRUE(pool.empty()) << "spill should come from the pool";
}

}  // namespace
}  // namespace optm::core
