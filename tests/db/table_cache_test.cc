#include "src/db/table_cache.h"

#include <gtest/gtest.h>

#include "src/db/dbformat.h"
#include "src/db/filename.h"
#include "src/env/sim_env.h"
#include "src/table/table_builder.h"

namespace pipelsm {
namespace {

class TableCacheTest : public ::testing::Test {
 protected:
  TableCacheTest() : icmp_(BytewiseComparator()) {
    topt_.comparator = &icmp_;
    env_.CreateDir("/db");
  }

  // Writes table file `number` with a couple of entries; returns size.
  uint64_t BuildFile(uint64_t number) {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(env_.NewWritableFile(TableFileName("/db", number), &file).ok());
    TableBuilder builder(topt_, file.get());
    std::string ikey;
    AppendInternalKey(&ikey, ParsedInternalKey("k" + std::to_string(number),
                                               1, kTypeValue));
    builder.Add(ikey, "v" + std::to_string(number));
    EXPECT_TRUE(builder.Finish().ok());
    file->Close();
    uint64_t size;
    EXPECT_TRUE(env_.GetFileSize(TableFileName("/db", number), &size).ok());
    return size;
  }

  SimEnv env_;
  InternalKeyComparator icmp_;
  TableOptions topt_;
};

TEST_F(TableCacheTest, OpensAndIterates) {
  uint64_t size = BuildFile(1);
  TableCache cache("/db", topt_, &env_, 10);
  std::unique_ptr<Iterator> it(cache.NewIterator({}, 1, size));
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("v1", it->value().ToString());
}

TEST_F(TableCacheTest, CachesOpenTables) {
  uint64_t size = BuildFile(1);
  TableCache cache("/db", topt_, &env_, 10);

  std::shared_ptr<Table> a, b;
  ASSERT_TRUE(cache.GetTable(1, size, &a).ok());
  ASSERT_TRUE(cache.GetTable(1, size, &b).ok());
  EXPECT_EQ(a.get(), b.get());  // same reader, not reopened
}

TEST_F(TableCacheTest, EvictsLeastRecentlyUsed) {
  TableCache cache("/db", topt_, &env_, /*max_open_tables=*/2);
  uint64_t sizes[4];
  for (uint64_t n = 1; n <= 3; n++) {
    sizes[n] = BuildFile(n);
  }
  std::shared_ptr<Table> t1a, t2, t3, t1b;
  ASSERT_TRUE(cache.GetTable(1, sizes[1], &t1a).ok());
  ASSERT_TRUE(cache.GetTable(2, sizes[2], &t2).ok());
  ASSERT_TRUE(cache.GetTable(3, sizes[3], &t3).ok());  // evicts table 1
  ASSERT_TRUE(cache.GetTable(1, sizes[1], &t1b).ok());
  EXPECT_NE(t1a.get(), t1b.get());  // reopened after eviction
}

TEST_F(TableCacheTest, KeepsTheMostRecentTablesForAnyShardCount) {
  // Shards never split a 2-table capacity into slices too small to hold
  // a table, whatever count is asked for (0 = one per core).
  uint64_t sizes[6];
  for (uint64_t n = 1; n <= 5; n++) {
    sizes[n] = BuildFile(n);
  }
  for (size_t shards : {0, 1, 2, 4, 16}) {
    SCOPED_TRACE(shards);
    TableCache cache("/db", topt_, &env_, /*max_open_tables=*/2, shards);
    std::shared_ptr<Table> opened[6];
    for (uint64_t n = 1; n <= 5; n++) {
      ASSERT_TRUE(cache.GetTable(n, sizes[n], &opened[n]).ok());
    }
    std::shared_ptr<Table> t;
    ASSERT_TRUE(cache.GetTable(5, sizes[5], &t).ok());
    EXPECT_EQ(opened[5].get(), t.get());
    ASSERT_TRUE(cache.GetTable(4, sizes[4], &t).ok());
    EXPECT_EQ(opened[4].get(), t.get());
    ASSERT_TRUE(cache.GetTable(3, sizes[3], &t).ok());
    EXPECT_NE(opened[3].get(), t.get());  // third most recent: evicted
  }
}

TEST_F(TableCacheTest, EvictDropsCachedReader) {
  uint64_t size = BuildFile(1);
  TableCache cache("/db", topt_, &env_, 10);
  std::shared_ptr<Table> a, b;
  ASSERT_TRUE(cache.GetTable(1, size, &a).ok());
  cache.Evict(1);
  ASSERT_TRUE(cache.GetTable(1, size, &b).ok());
  EXPECT_NE(a.get(), b.get());
  // Pinned reader remains usable after eviction.
  std::unique_ptr<Iterator> it(a->NewIterator());
  it->SeekToFirst();
  EXPECT_TRUE(it->Valid());
}

TEST_F(TableCacheTest, MissingFileErrors) {
  TableCache cache("/db", topt_, &env_, 10);
  std::shared_ptr<Table> t;
  EXPECT_FALSE(cache.GetTable(99, 1000, &t).ok());
  std::unique_ptr<Iterator> it(cache.NewIterator({}, 99, 1000));
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  EXPECT_FALSE(it->status().ok());
}

TEST_F(TableCacheTest, GetRoutesToTable) {
  uint64_t size = BuildFile(7);
  TableCache cache("/db", topt_, &env_, 10);
  std::string ikey;
  AppendInternalKey(&ikey, ParsedInternalKey("k7", kMaxSequenceNumber,
                                             kValueTypeForSeek));
  bool found = false;
  ASSERT_TRUE(cache
                  .Get({}, 7, size, ikey,
                       [&](const Slice&, const Slice& v) {
                         found = (v == Slice("v7"));
                       })
                  .ok());
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace pipelsm
