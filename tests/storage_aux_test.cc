// Hash index and LRU cache tests.

#include <gtest/gtest.h>

#include "storage/hash_index.h"
#include "storage/lru_cache.h"
#include "util/rng.h"

namespace drugtree {
namespace storage {
namespace {

TEST(HashIndexTest, InsertFindErase) {
  HashIndex idx;
  ASSERT_TRUE(idx.Insert(Value::String("a"), 1).ok());
  ASSERT_TRUE(idx.Insert(Value::String("a"), 2).ok());
  ASSERT_TRUE(idx.Insert(Value::String("b"), 3).ok());
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.NumKeys(), 2u);
  EXPECT_EQ(idx.Find(Value::String("a")), (std::vector<RowId>{1, 2}));
  EXPECT_TRUE(idx.Find(Value::String("z")).empty());
  EXPECT_TRUE(idx.Contains(Value::String("b")));
  ASSERT_TRUE(idx.Erase(Value::String("a"), 1).ok());
  EXPECT_EQ(idx.Find(Value::String("a")), (std::vector<RowId>{2}));
  ASSERT_TRUE(idx.Erase(Value::String("a"), 2).ok());
  EXPECT_FALSE(idx.Contains(Value::String("a")));
  EXPECT_EQ(idx.NumKeys(), 1u);
}

TEST(HashIndexTest, DuplicatePairRejected) {
  HashIndex idx;
  ASSERT_TRUE(idx.Insert(Value::Int64(1), 7).ok());
  EXPECT_TRUE(idx.Insert(Value::Int64(1), 7).IsAlreadyExists());
}

TEST(HashIndexTest, EraseMissingNotFound) {
  HashIndex idx;
  EXPECT_TRUE(idx.Erase(Value::Int64(1), 7).IsNotFound());
  ASSERT_TRUE(idx.Insert(Value::Int64(1), 7).ok());
  EXPECT_TRUE(idx.Erase(Value::Int64(1), 8).IsNotFound());
}

TEST(HashIndexTest, MixedValueTypes) {
  HashIndex idx;
  ASSERT_TRUE(idx.Insert(Value::Int64(42), 1).ok());
  ASSERT_TRUE(idx.Insert(Value::String("42"), 2).ok());
  EXPECT_EQ(idx.Find(Value::Int64(42)), (std::vector<RowId>{1}));
  EXPECT_EQ(idx.Find(Value::String("42")), (std::vector<RowId>{2}));
  // Int64 42 and Double 42.0 are equal values, so they share an entry list.
  EXPECT_EQ(idx.Find(Value::Double(42.0)), (std::vector<RowId>{1}));
}

TEST(LruCacheTest, BasicPutGet) {
  LruCache<int, std::string> cache(10);
  cache.Put(1, "one");
  cache.Put(2, "two");
  auto v = cache.Get(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "one");
  EXPECT_FALSE(cache.Get(3).has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(3);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(3, 30);
  cache.Get(1);       // 1 is now MRU; 2 is LRU
  cache.Put(4, 40);   // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(LruCacheTest, ChargeBasedEviction) {
  LruCache<int, std::string> cache(100);
  cache.Put(1, "a", 60);
  cache.Put(2, "b", 60);  // exceeds capacity: evicts 1
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_EQ(cache.used(), 60u);
}

TEST(LruCacheTest, OversizedEntryNotCached) {
  LruCache<int, int> cache(10);
  cache.Put(1, 1, 11);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, OverwriteUpdatesValueAndCharge) {
  LruCache<int, std::string> cache(10);
  cache.Put(1, "old", 4);
  cache.Put(1, "new", 6);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.used(), 6u);
  EXPECT_EQ(*cache.Get(1), "new");
}

TEST(LruCacheTest, EraseAndClear) {
  LruCache<int, int> cache(10);
  cache.Put(1, 1);
  cache.Put(2, 2);
  cache.Erase(1);
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.used(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.used(), 0u);
}

TEST(LruCacheTest, ForEachVisitsAll) {
  LruCache<int, int> cache(10);
  cache.Put(1, 10);
  cache.Put(2, 20);
  int sum = 0;
  cache.ForEach([&](const int& k, const int& v) { sum += k + v; });
  EXPECT_EQ(sum, 33);
}

TEST(LruCacheTest, HitRate) {
  LruCache<int, int> cache(10);
  cache.Put(1, 1);
  cache.Get(1);
  cache.Get(1);
  cache.Get(2);
  EXPECT_NEAR(cache.stats().HitRate(), 2.0 / 3.0, 1e-12);
}

TEST(LruCacheTest, StressAgainstCapacity) {
  LruCache<int, int> cache(50);
  util::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    cache.Put(static_cast<int>(rng.Uniform(200)), i);
    EXPECT_LE(cache.used(), 50u);
    EXPECT_LE(cache.size(), 50u);
  }
}

}  // namespace
}  // namespace storage
}  // namespace drugtree
