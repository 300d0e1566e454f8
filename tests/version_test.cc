// Tests for the version helpers (run iterator, run point lookup, including
// a key whose versions span tables), Options sanitization and DB statistics
// accounting.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/statistics.h"
#include "core/version.h"
#include "pm/pm_pool.h"
#include "pmtable/pm_table_builder.h"

namespace pmblade {
namespace {

class RunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "pmblade_run_test.pm";
    ::remove(path_.c_str());
    PmPoolOptions popts;
    popts.capacity = 32 << 20;
    popts.latency.inject_latency = false;
    ASSERT_TRUE(PmPool::Open(path_, popts, &pool_).ok());
  }
  void TearDown() override {
    pool_.reset();
    ::remove(path_.c_str());
  }

  /// Builds one table with keys [lo, hi), all at `seq`.
  L0TableRef Build(int lo, int hi, SequenceNumber seq = 10) {
    PmTableBuilder builder(pool_.get(), PmTableOptions{});
    for (int i = lo; i < hi; ++i) {
      char key[24];
      snprintf(key, sizeof(key), "key%05d", i);
      std::string ikey;
      AppendInternalKey(&ikey, key, seq, kTypeValue);
      builder.Add(ikey, "v" + std::to_string(i));
    }
    std::shared_ptr<PmTable> t;
    EXPECT_TRUE(builder.Finish(&t).ok());
    return t;
  }

  std::string path_;
  std::unique_ptr<PmPool> pool_;
  InternalKeyComparator icmp_{BytewiseComparator()};
};

TEST_F(RunTest, RunIteratorConcatenatesTables) {
  std::vector<L0TableRef> run = {Build(0, 100), Build(100, 200),
                                 Build(200, 300)};
  std::unique_ptr<Iterator> it(NewRunIterator(&icmp_, run));
  int count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) ++count;
  EXPECT_EQ(count, 300);
  EXPECT_TRUE(it->status().ok());
}

TEST_F(RunTest, RunIteratorSeekBinarySearchesBoundaries) {
  std::vector<L0TableRef> run = {Build(0, 100), Build(100, 200),
                                 Build(200, 300)};
  std::unique_ptr<Iterator> it(NewRunIterator(&icmp_, run));
  std::string seek;
  AppendInternalKey(&seek, "key00150", kMaxSequenceNumber,
                    kValueTypeForSeek);
  it->Seek(seek);
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "key00150");
  // Before everything / after everything.
  seek.clear();
  AppendInternalKey(&seek, "a", kMaxSequenceNumber, kValueTypeForSeek);
  it->Seek(seek);
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "key00000");
  seek.clear();
  AppendInternalKey(&seek, "z", kMaxSequenceNumber, kValueTypeForSeek);
  it->Seek(seek);
  EXPECT_FALSE(it->Valid());
}

TEST_F(RunTest, RunIteratorBackwardAcrossTables) {
  std::vector<L0TableRef> run = {Build(0, 5), Build(5, 10)};
  std::unique_ptr<Iterator> it(NewRunIterator(&icmp_, run));
  it->SeekToLast();
  for (int i = 9; i >= 0; --i) {
    ASSERT_TRUE(it->Valid()) << i;
    char key[24];
    snprintf(key, sizeof(key), "key%05d", i);
    EXPECT_EQ(ExtractUserKey(it->key()).ToString(), key);
    it->Prev();
  }
  EXPECT_FALSE(it->Valid());
}

TEST_F(RunTest, RunGetFindsCorrectTable) {
  std::vector<L0TableRef> run = {Build(0, 100), Build(100, 200)};
  LookupKey lkey("key00150", kMaxSequenceNumber);
  std::string value;
  bool found = false;
  Status result;
  ASSERT_TRUE(RunGet(run, icmp_, lkey, &value, &found, &result).ok());
  ASSERT_TRUE(found);
  EXPECT_EQ(value, "v150");
  // Key between tables' ranges but absent.
  LookupKey absent("key00099x", kMaxSequenceNumber);
  found = true;
  ASSERT_TRUE(RunGet(run, icmp_, absent, &value, &found, &result).ok());
  EXPECT_FALSE(found);
  // Empty run.
  ASSERT_TRUE(RunGet({}, icmp_, lkey, &value, &found, &result).ok());
  EXPECT_FALSE(found);
}

// Output tables are cut by size, not at user-key boundaries, so one key's
// versions can span several tables of a run; a snapshot lookup must walk on
// to the table holding its visible version.
TEST_F(RunTest, RunGetFollowsVersionsAcrossTables) {
  auto version = [this](SequenceNumber seq) -> L0TableRef {
    PmTableBuilder builder(pool_.get(), PmTableOptions{});
    std::string ikey;
    AppendInternalKey(&ikey, "key00005", seq, kTypeValue);
    builder.Add(ikey, "v@" + std::to_string(seq));
    std::shared_ptr<PmTable> t;
    EXPECT_TRUE(builder.Finish(&t).ok());
    return t;
  };
  std::vector<L0TableRef> run = {Build(0, 5), version(30), version(20),
                                 version(10), Build(6, 9)};
  for (auto [snapshot, want] :
       std::vector<std::pair<SequenceNumber, std::string>>{
           {kMaxSequenceNumber, "v@30"}, {25, "v@20"}, {15, "v@10"}}) {
    LookupKey lkey("key00005", snapshot);
    std::string value;
    bool found = false;
    Status result;
    ASSERT_TRUE(RunGet(run, icmp_, lkey, &value, &found, &result).ok());
    ASSERT_TRUE(found) << snapshot;
    EXPECT_EQ(value, want);
  }
  // Older than every version: the walk stops at the next key's table.
  LookupKey too_old("key00005", 5);
  std::string value;
  bool found = true;
  Status result;
  ASSERT_TRUE(RunGet(run, icmp_, too_old, &value, &found, &result).ok());
  EXPECT_FALSE(found);
}

TEST(OptionsTest, SanitizeFillsDefaults) {
  Options options;
  ASSERT_TRUE(options.Sanitize().ok());
  EXPECT_NE(options.env, nullptr);
  EXPECT_NE(options.raw_env, nullptr);
  EXPECT_NE(options.logger, nullptr);
  EXPECT_NE(options.clock, nullptr);
}

TEST(OptionsTest, SanitizeRejectsBadValues) {
  Options options;
  options.memtable_bytes = 16;
  EXPECT_TRUE(options.Sanitize().IsInvalidArgument());

  options = Options();
  options.pm_pool_capacity = 1024;
  EXPECT_TRUE(options.Sanitize().IsInvalidArgument());

  options = Options();
  options.partition_boundaries = {"b", "b"};
  EXPECT_TRUE(options.Sanitize().IsInvalidArgument());

  options = Options();
  options.partition_boundaries = {"c", "a"};
  EXPECT_TRUE(options.Sanitize().IsInvalidArgument());
}

TEST(OptionsTest, SanitizeClampsCompactionKnobs) {
  Options options;
  options.major.concurrency = 0;
  options.major.worker_threads = -3;
  options.major.max_io_q = 0;
  ASSERT_TRUE(options.Sanitize().ok());
  EXPECT_GE(options.major.concurrency, 1);
  EXPECT_GE(options.major.worker_threads, 1);
  EXPECT_GE(options.major.max_io_q, 1);
}

TEST(DbStatisticsTest, ReadSourceAccounting) {
  DbStatistics stats;
  stats.RecordRead(ReadSource::kMemtable, 100);
  stats.RecordRead(ReadSource::kPmLevel0, 200);
  stats.RecordRead(ReadSource::kPmLevel0, 300);
  stats.RecordRead(ReadSource::kSsdLevel1, 400);
  stats.RecordRead(ReadSource::kNotFound, 500);
  EXPECT_EQ(stats.reads(ReadSource::kMemtable), 1u);
  EXPECT_EQ(stats.reads(ReadSource::kPmLevel0), 2u);
  EXPECT_EQ(stats.total_reads(), 5u);
  // Hit ratio counts only successful reads: 3 fast / 4 answered.
  EXPECT_DOUBLE_EQ(stats.PmHitRatio(), 3.0 / 4.0);
  EXPECT_EQ(stats.GetLatencyHistogram().count(), 5u);
}

TEST(DbStatisticsTest, WriteAndCompactionAccounting) {
  DbStatistics stats;
  stats.RecordWrite(1000, 50);
  stats.RecordWrite(2000, 60);
  stats.AddFlush();
  stats.AddInternalCompaction(5000, 3000);
  stats.AddMajorCompaction(9000);
  EXPECT_EQ(stats.writes(), 2u);
  EXPECT_EQ(stats.user_bytes_written(), 3000u);
  EXPECT_EQ(stats.flushes(), 1u);
  EXPECT_EQ(stats.internal_compactions(), 1u);
  EXPECT_EQ(stats.major_compactions(), 1u);
  stats.Reset();
  EXPECT_EQ(stats.writes(), 0u);
  EXPECT_EQ(stats.total_reads(), 0u);
}

TEST(DbStatisticsTest, ToStringContainsKeyFields) {
  DbStatistics stats;
  stats.RecordRead(ReadSource::kMemtable, 10);
  std::string s = stats.ToString();
  EXPECT_NE(s.find("mem=1"), std::string::npos);
  EXPECT_NE(s.find("flushes=0"), std::string::npos);
}

}  // namespace
}  // namespace pmblade
