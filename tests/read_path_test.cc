// Read-path tests: bloom filters must never produce a false negative
// across flush, internal compaction, major compaction and reopen (for every
// level-0 layout), absent-key probes must register bloom negatives, a
// snapshot Get must find a key whose versions span two tables of a run,
// concurrent Gets and scans must see every acknowledged write while flushes
// and compactions publish new read views, a fixed read sequence must charge
// exactly its pinned modeled PM/SSD cost, and the block cache's charge
// accounting must match its capacity through inserts, evictions and
// arbiter-style SetCapacity shrinks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "core/db_impl.h"
#include "env/sim_env.h"
#include "env/ssd_model.h"
#include "sstable/block.h"
#include "sstable/block_cache.h"
#include "sstable/format.h"
#include "util/coding.h"
#include "util/random.h"

namespace pmblade {
namespace {

class ReadPathTest : public ::testing::TestWithParam<L0Layout> {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "pmblade_read_path_test";
    Options defaults;
    DestroyDB(defaults, dbname_);
    options_ = Options();
    options_.l0_layout = GetParam();
    options_.memtable_bytes = 64 << 10;
    options_.pm_pool_capacity = 64 << 20;
    options_.pm_latency.inject_latency = false;
    options_.partition_boundaries = {"key3", "key6"};
  }

  void TearDown() override {
    db_.reset();
    DestroyDB(options_, dbname_);
  }

  void Open() {
    db_.reset();
    std::unique_ptr<DB> db;
    Status s = DB::Open(options_, dbname_, &db);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_ = std::move(db);
  }

  static std::string Key(int i) { return "key" + std::to_string(i); }
  static std::string Value(int i) { return "value" + std::to_string(i); }

  void LoadKeys(int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(i)).ok());
    }
  }

  /// Every loaded key must be found with its latest value — a bloom false
  /// negative would surface here as NOT_FOUND.
  void ExpectAllPresent(int n) {
    for (int i = 0; i < n; ++i) {
      std::string value;
      Status s = db_->Get(ReadOptions(), Key(i), &value);
      ASSERT_TRUE(s.ok()) << Key(i) << ": " << s.ToString();
      EXPECT_EQ(value, Value(i));
    }
  }

  uint64_t Property(const std::string& name) {
    uint64_t value = 0;
    EXPECT_TRUE(db_->GetProperty(name, &value)) << name;
    return value;
  }

  std::string dbname_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_P(ReadPathTest, NoFalseNegativesAcrossLifecycle) {
  Open();
  const int n = 500;
  LoadKeys(n);

  // In the memtable.
  ExpectAllPresent(n);
  // In unsorted level-0 tables (flush builds the per-table filters).
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ExpectAllPresent(n);
  // In the sorted run (internal compaction rebuilds filters).
  ASSERT_TRUE(db_->CompactLevel0().ok());
  ExpectAllPresent(n);
  // On SSD level-1 (SSTable filter blocks).
  ASSERT_TRUE(db_->CompactToLevel1(false).ok());
  ExpectAllPresent(n);
  // After reopen (PM layouts rebuild their DRAM filters by table scan).
  Open();
  ExpectAllPresent(n);

  // Overwrites and deletes must stay visible through the filters too.
  ASSERT_TRUE(db_->Put(WriteOptions(), Key(1), "rewritten").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), Key(2)).ok());
  ASSERT_TRUE(db_->FlushMemTable().ok());
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), Key(1), &value).ok());
  EXPECT_EQ(value, "rewritten");
  EXPECT_TRUE(db_->Get(ReadOptions(), Key(2), &value).IsNotFound());
}

TEST_P(ReadPathTest, AbsentKeysRegisterBloomNegatives) {
  Open();
  const int n = 500;
  LoadKeys(n);
  ASSERT_TRUE(db_->FlushMemTable().ok());

  uint64_t checks_before = Property("pmblade.bloom-checks");
  uint64_t negatives_before = Property("pmblade.bloom-negatives");
  // Absent keys INTERIOR to the loaded key range ("keyN0z" sorts between
  // keyN0 and keyN1), so they pass the tables' min/max range check and the
  // rejection must come from the bloom filter itself.
  for (int i = 0; i < 200; ++i) {
    std::string value;
    EXPECT_TRUE(
        db_->Get(ReadOptions(), "key" + std::to_string(i) + "0z", &value)
            .IsNotFound());
  }
  EXPECT_GT(Property("pmblade.bloom-checks"), checks_before);
  // With 10 bits/key the false-positive rate is ~1%; 200 absent probes
  // must produce a healthy majority of bloom rejections.
  EXPECT_GE(Property("pmblade.bloom-negatives"), negatives_before + 150);
}

TEST_P(ReadPathTest, FiltersDisabledStillCorrect) {
  options_.bloom_bits_per_key = 0;  // the no-filter baseline
  Open();
  const int n = 200;
  LoadKeys(n);
  ASSERT_TRUE(db_->FlushMemTable().ok());
  ExpectAllPresent(n);
  EXPECT_EQ(Property("pmblade.bloom-checks"), 0u);
  std::string value;
  EXPECT_TRUE(db_->Get(ReadOptions(), "absent", &value).IsNotFound());
}

// Under a live snapshot internal compaction keeps a key's older versions,
// and it cuts output tables by byte count, not at user-key boundaries: one
// key's versions can then span two tables of the sorted run. A snapshot Get
// must reach the older table instead of stopping at the first table whose
// largest user key covers the key.
TEST_P(ReadPathTest, SnapshotGetSeesVersionsSplitAcrossRunTables) {
  options_.internal_table_target_bytes = 1;  // one record per output table
  for (bool older_on_ssd : {false, true}) {
    SCOPED_TRACE(older_on_ssd ? "older version on SSD" : "level-0 only");
    Open();
    if (older_on_ssd) {
      ASSERT_TRUE(db_->Put(WriteOptions(), "k", "ssd-v0").ok());
      ASSERT_TRUE(db_->CompactToLevel1(false).ok());
    }
    ASSERT_TRUE(db_->Put(WriteOptions(), "k", "old").ok());
    const uint64_t snapshot = db_->GetSnapshot();
    ASSERT_TRUE(db_->Put(WriteOptions(), "k", "new").ok());
    ASSERT_TRUE(db_->FlushMemTable().ok());
    ASSERT_TRUE(db_->CompactLevel0().ok());

    ReadOptions at_snapshot;
    at_snapshot.snapshot = snapshot;
    std::string value;
    Status s = db_->Get(at_snapshot, "k", &value);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(value, "old");
    ASSERT_TRUE(db_->Get(ReadOptions(), "k", &value).ok());
    EXPECT_EQ(value, "new");

    // The iterator at the same snapshot agrees with the point lookup.
    std::unique_ptr<Iterator> it(db_->NewIterator(at_snapshot));
    it->Seek("k");
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), "k");
    EXPECT_EQ(it->value().ToString(), "old");
    it.reset();

    db_->ReleaseSnapshot(snapshot);
    db_.reset();
    DestroyDB(options_, dbname_);
  }
}

// Readers hold a published read view while flushes and compactions install
// new ones. Every key is written before the readers start, and a writer keeps
// overwriting all of them with rising rounds. Each Get, and each entry of a
// short Seek/Next scan, must return at least the round acknowledged before
// the read began, and a scan must visit the keys in order without a gap.
TEST_P(ReadPathTest, ConcurrentReadsSeeAcknowledgedWritesAcrossInstalls) {
  Open();
  constexpr int kKeys = 120;
  std::vector<std::string> sorted_keys;
  for (int i = 0; i < kKeys; ++i) sorted_keys.push_back(Key(i));
  std::sort(sorted_keys.begin(), sorted_keys.end());

  // acked[i]: the newest round of sorted_keys[i] whose Put has returned.
  std::vector<std::atomic<int>> acked(kKeys);
  auto value_of = [](int round) {
    char buf[16];
    snprintf(buf, sizeof(buf), "r%06d", round);
    return std::string(buf);
  };
  auto round_of = [](const std::string& value) {
    return value.size() == 7 && value[0] == 'r' ? std::stoi(value.substr(1))
                                                : -1;
  };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db_->Put(WriteOptions(), sorted_keys[i], value_of(0)).ok());
    acked[i].store(0);
  }

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> reads{0};
  std::thread writer([&] {
    for (int round = 1; !done.load() && failures.load() == 0; ++round) {
      for (int i = 0; i < kKeys; ++i) {
        if (!db_->Put(WriteOptions(), sorted_keys[i], value_of(round)).ok()) {
          failures.fetch_add(1);
          return;
        }
        acked[i].store(round);
      }
    }
  });
  auto reader = [&](uint32_t seed) {
    Random rnd(seed);
    std::vector<int> floor(kKeys);
    while (!done.load() && failures.load() == 0) {
      const int i = static_cast<int>(rnd.Uniform(kKeys));
      int want = acked[i].load();
      std::string value;
      Status s = db_->Get(ReadOptions(), sorted_keys[i], &value);
      if (!s.ok() || round_of(value) < want) {
        ADD_FAILURE() << "Get " << sorted_keys[i] << ": " << s.ToString()
                      << " value " << value << ", acked round " << want;
        failures.fetch_add(1);
        return;
      }
      for (int k = 0; k < kKeys; ++k) floor[k] = acked[k].load();
      std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
      it->Seek(sorted_keys[i]);
      for (int k = i; k < std::min(i + 8, kKeys); ++k, it->Next()) {
        if (!it->Valid() || it->key().ToString() != sorted_keys[k] ||
            round_of(it->value().ToString()) < floor[k]) {
          ADD_FAILURE() << "scan from " << sorted_keys[i] << " at "
                        << sorted_keys[k] << ": "
                        << (it->Valid() ? it->key().ToString() + " = " +
                                              it->value().ToString()
                                        : it->status().ToString())
                        << ", acked round " << floor[k];
          failures.fetch_add(1);
          return;
        }
      }
      reads.fetch_add(1);
    }
  };
  std::thread reader1(reader, 301);
  std::thread reader2(reader, 302);

  // Each step publishes new read views under the readers, which must have
  // made progress in between so that reads overlap every kind of install.
  auto await_reads = [&](int n) {
    const int target = reads.load() + n;
    while (reads.load() < target && failures.load() == 0) {
      std::this_thread::yield();
    }
  };
  for (int step = 0; step < 3 && failures.load() == 0; ++step) {
    await_reads(50);
    EXPECT_TRUE(db_->FlushMemTable().ok());
    await_reads(50);
    EXPECT_TRUE(db_->CompactLevel0().ok());
    await_reads(50);
    EXPECT_TRUE(db_->CompactToLevel1(false).ok());
  }
  done.store(true);
  writer.join();
  reader1.join();
  reader2.join();
  EXPECT_EQ(failures.load(), 0);

  // The final state holds every key at its last acknowledged round.
  for (int i = 0; i < kKeys; ++i) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), sorted_keys[i], &value).ok());
    EXPECT_EQ(round_of(value), acked[i].load()) << sorted_keys[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, ReadPathTest,
                         ::testing::Values(L0Layout::kPmTable,
                                           L0Layout::kArrayTable,
                                           L0Layout::kSnappyTable,
                                           L0Layout::kSstable),
                         [](const ::testing::TestParamInfo<L0Layout>& info) {
                           switch (info.param) {
                             case L0Layout::kPmTable:
                               return "PmTable";
                             case L0Layout::kArrayTable:
                               return "ArrayTable";
                             case L0Layout::kSnappyTable:
                               return "SnappyTable";
                             case L0Layout::kSnappyGroupTable:
                               return "SnappyGroupTable";
                             case L0Layout::kSstable:
                               return "Sstable";
                           }
                           return "Unknown";
                         });

// -- Modeled device cost of a fixed read sequence ---------------------------

// The PM and SSD charges are the paper's cost model; a read-path refactor
// must not move them. A settled DB holds one SSD run, a PM sorted run and a
// PM unsorted table in each of three partitions; a fixed single-threaded
// sequence of Gets and scans must charge exactly the pinned figures.
TEST(ReadPathCostTest, FixedReadSequenceChargesPinnedDeviceCost) {
  const std::string dbname =
      ::testing::TempDir() + "pmblade_read_path_cost_test";
  SsdModelOptions model_options;
  model_options.inject_latency = false;
  SsdModel model(model_options);
  SimEnv sim(PosixEnv(), &model);
  Options options;
  options.env = &sim;
  options.ssd_model = &model;
  options.block_cache_bytes = 0;  // every SSD block read reaches the model
  options.memtable_bytes = 64 << 10;
  options.pm_pool_capacity = 64 << 20;
  options.pm_latency.inject_latency = false;
  options.partition_boundaries = {"key3", "key6"};
  options.enable_cost_model = false;  // no background compaction picks
  options.l0_table_trigger = 1000;
  DestroyDB(options, dbname);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  auto key = [](int i) { return "key" + std::to_string(i); };
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(db->Put(WriteOptions(), key(i), "ssd" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(db->CompactToLevel1(false).ok());
  for (int i = 0; i < 600; i += 3) {
    ASSERT_TRUE(db->Put(WriteOptions(), key(i), "sorted").ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());
  ASSERT_TRUE(db->CompactLevel0().ok());
  for (int i = 0; i < 700; i += 5) {
    ASSERT_TRUE(db->Put(WriteOptions(), key(i), "unsorted").ok());
  }
  ASSERT_TRUE(db->FlushMemTable().ok());

  const std::vector<std::string> metrics = {
      "pmblade.pm.bytes_read", "pmblade.pm.read_accesses",
      "pmblade.ssd.bytes_read", "pmblade.ssd.reads", "pmblade.bloom.checks"};
  auto read_all = [&] {
    std::vector<uint64_t> values;
    for (const auto& name : metrics) {
      uint64_t v = 0;
      EXPECT_TRUE(db->GetProperty(name, &v)) << name;
      values.push_back(v);
    }
    return values;
  };
  const std::vector<uint64_t> before = read_all();

  int found = 0;
  for (int i = 0; i < 700; i += 7) {
    std::string value;
    Status s = db->Get(ReadOptions(), key(i), &value);
    ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    if (s.ok()) ++found;
  }
  for (int i = 0; i < 60; ++i) {  // absent keys inside the loaded range
    std::string value;
    EXPECT_TRUE(
        db->Get(ReadOptions(), key(i) + "0z", &value).IsNotFound());
  }
  int scanned = 0;
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  for (const char* start : {"key1", "key45", "key599"}) {
    it->Seek(start);
    for (int n = 0; n < 50 && it->Valid(); ++n, it->Next()) ++scanned;
  }
  for (it->SeekToLast(); it->Valid(); it->Prev()) ++scanned;
  ASSERT_TRUE(it->status().ok());
  it.reset();

  const std::vector<uint64_t> after = read_all();
  std::vector<uint64_t> delta;
  for (size_t m = 0; m < metrics.size(); ++m) {
    delta.push_back(after[m] - before[m]);
  }
  EXPECT_EQ(found, 88);
  EXPECT_EQ(scanned, 770);
  EXPECT_EQ(delta, (std::vector<uint64_t>{25544, 203, 177822, 55, 416}));

  db.reset();
  DestroyDB(options, dbname);
}

// -- Block cache charge accounting -----------------------------------------

/// A minimal well-formed block: no entries, one restart slot, so Block's
/// parser accepts it while the test controls the charge exactly.
std::shared_ptr<Block> MakeBlock(size_t payload) {
  std::string raw(payload, 'x');
  PutFixed32(&raw, 0);  // restart[0]
  PutFixed32(&raw, 1);  // num_restarts
  char* heap = new char[raw.size()];
  memcpy(heap, raw.data(), raw.size());
  BlockContents contents;
  contents.data = Slice(heap, raw.size());
  contents.cachable = true;
  contents.heap_allocated = true;
  return std::make_shared<Block>(contents);
}

TEST(BlockCacheTest, ChargeNeverExceedsCapacityAfterEviction) {
  BlockCache cache(64 << 10);
  for (uint64_t i = 0; i < 64; ++i) {
    cache.Insert(1, i * 4096, MakeBlock(4000), 4096);
  }
  EXPECT_LE(cache.TotalCharge(), cache.capacity());
  EXPECT_GT(cache.TotalCharge(), 0u);
}

TEST(BlockCacheTest, LookupTracksHitsAndMisses) {
  BlockCache cache(64 << 10);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.Insert(1, 0, MakeBlock(100), 128);
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(BlockCacheTest, SetCapacityShrinkEvictsToFit) {
  BlockCache cache(256 << 10);
  for (uint64_t i = 0; i < 32; ++i) {
    cache.Insert(1, i * 4096, MakeBlock(4000), 4096);
  }
  uint64_t charge_before = cache.TotalCharge();
  EXPECT_GT(charge_before, static_cast<uint64_t>(16 << 10));

  cache.SetCapacity(16 << 10);
  EXPECT_EQ(cache.capacity(), static_cast<size_t>(16 << 10));
  EXPECT_LE(cache.TotalCharge(), static_cast<size_t>(16 << 10));

  // Growing back re-admits new blocks without disturbing the survivors.
  cache.SetCapacity(256 << 10);
  for (uint64_t i = 0; i < 32; ++i) {
    cache.Insert(2, i * 4096, MakeBlock(4000), 4096);
  }
  EXPECT_LE(cache.TotalCharge(), cache.capacity());
}

TEST(BlockCacheTest, EvictTableDropsOnlyThatTable) {
  BlockCache cache(256 << 10);
  cache.Insert(1, 0, MakeBlock(100), 128);
  cache.Insert(2, 0, MakeBlock(100), 128);
  cache.EvictTable(1);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_NE(cache.Lookup(2, 0), nullptr);
}

}  // namespace
}  // namespace pmblade
