// Tests for the PM table family: the three-layer prefix-compressed PM table
// (the paper's core structure), the array-based table, and the two
// LZ-compressed baselines. Includes parameterized cross-structure property
// tests: every structure must agree with an in-memory model.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "memtable/internal_key.h"
#include "pm/pm_pool.h"
#include "pmtable/array_table.h"
#include "pmtable/l0_table.h"
#include "pmtable/pm_table.h"
#include "pmtable/pm_table_builder.h"
#include "pmtable/snappy_table.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/random.h"

// Counts heap allocations, so a test can pin that a PM-table lookup makes
// none.
static std::atomic<uint64_t> g_heap_allocations{0};

void* operator new(size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The replacement pair is malloc/free by construction; GCC cannot see that
// once it inlines them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace pmblade {
namespace {

std::string IKey(const std::string& user_key, SequenceNumber seq,
                 ValueType type = kTypeValue) {
  std::string out;
  AppendInternalKey(&out, user_key, seq, type);
  return out;
}

class PmTableEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "pmblade_pmtable_test.pm";
    ::remove(path_.c_str());
    PmPoolOptions opts;
    opts.capacity = 64 << 20;
    opts.latency.inject_latency = false;
    ASSERT_TRUE(PmPool::Open(path_, opts, &pool_).ok());
  }
  void TearDown() override {
    pool_.reset();
    ::remove(path_.c_str());
  }

  std::string path_;
  std::unique_ptr<PmPool> pool_;
};

TEST_F(PmTableEnv, BuildEmptyTable) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  EXPECT_EQ(table->num_entries(), 0u);
  std::unique_ptr<Iterator> it(table->NewIterator());
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
}

TEST_F(PmTableEnv, SingleEntry) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  builder.Add(IKey("orders|row1", 5), "hello");
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  EXPECT_EQ(table->num_entries(), 1u);
  EXPECT_EQ(table->num_metas(), 1u);

  std::unique_ptr<Iterator> it(table->NewIterator());
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "orders|row1");
  EXPECT_EQ(it->value().ToString(), "hello");
}

TEST_F(PmTableEnv, MetaLayerExtractsTableIds) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  // Three database tables; the meta layer should hold exactly 3 components.
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < 50; ++i) {
      char key[64];
      snprintf(key, sizeof(key), "table%c|row%04d", 'A' + t, i);
      builder.Add(IKey(key, 10), "v");
    }
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  EXPECT_EQ(table->num_metas(), 3u);
  EXPECT_EQ(table->num_entries(), 150u);
}

TEST_F(PmTableEnv, PrefixCompressionShrinksTable) {
  // Long shared prefixes: the PM table image should be much smaller than an
  // array table over the same data.
  PmTableBuilder pm_builder(pool_.get(), PmTableOptions{});
  ArrayTableBuilder array_builder(pool_.get());
  for (int i = 0; i < 2000; ++i) {
    char key[80];
    snprintf(key, sizeof(key),
             "orders_index_by_user|user%06d|order%06d", i / 4, i);
    std::string ikey = IKey(key, 10);
    pm_builder.Add(ikey, "v");
    array_builder.Add(ikey, "v");
  }
  std::shared_ptr<PmTable> pm_table;
  std::shared_ptr<ArrayTable> array_table;
  ASSERT_TRUE(pm_builder.Finish(&pm_table).ok());
  ASSERT_TRUE(array_builder.Finish(&array_table).ok());
  EXPECT_LT(pm_table->size_bytes(), array_table->size_bytes());
}

TEST_F(PmTableEnv, SeekAcrossMetaBoundaries) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  for (char t : {'A', 'C', 'E'}) {
    for (int i = 0; i < 40; ++i) {
      char key[32];
      snprintf(key, sizeof(key), "t%c|k%03d", t, i);
      builder.Add(IKey(key, 10), std::string(1, t));
    }
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());

  std::unique_ptr<Iterator> it(table->NewIterator());
  // Seek to a meta that does not exist ("tB|...") lands on first tC key.
  it->Seek(IKey("tB|k999", kMaxSequenceNumber));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "tC|k000");
  // Seek past everything.
  it->Seek(IKey("tZ|k000", kMaxSequenceNumber));
  EXPECT_FALSE(it->Valid());
  // Seek before everything.
  it->Seek(IKey("t0|k000", kMaxSequenceNumber));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "tA|k000");
}

TEST_F(PmTableEnv, SeekWithinGroupsExactAndBetween) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{.group_size = 8});
  for (int i = 0; i < 200; i += 2) {
    char key[32];
    snprintf(key, sizeof(key), "tbl|key%05d", i);
    builder.Add(IKey(key, 10), "v" + std::to_string(i));
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());

  std::unique_ptr<Iterator> it(table->NewIterator());
  for (int i = 0; i < 200; i += 2) {
    char key[32];
    snprintf(key, sizeof(key), "tbl|key%05d", i);
    it->Seek(IKey(key, kMaxSequenceNumber));
    ASSERT_TRUE(it->Valid()) << key;
    EXPECT_EQ(ExtractUserKey(it->key()).ToString(), key);
    // Seek between keys finds the next one.
    char between[32];
    snprintf(between, sizeof(between), "tbl|key%05d", i + 1);
    it->Seek(IKey(between, kMaxSequenceNumber));
    if (i + 2 < 200) {
      char next[32];
      snprintf(next, sizeof(next), "tbl|key%05d", i + 2);
      ASSERT_TRUE(it->Valid());
      EXPECT_EQ(ExtractUserKey(it->key()).ToString(), next);
    } else {
      EXPECT_FALSE(it->Valid());
    }
  }
}

TEST_F(PmTableEnv, MultipleVersionsNewestFirst) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  // Internal order: same user key, descending seq.
  builder.Add(IKey("tbl|k", 30), "v30");
  builder.Add(IKey("tbl|k", 20), "v20");
  builder.Add(IKey("tbl|k", 10, kTypeDeletion), "");
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());

  std::unique_ptr<Iterator> it(table->NewIterator());
  it->Seek(IKey("tbl|k", 25));  // snapshot 25 sees seq 20
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(UnpackSequence(ExtractTag(it->key())), 20u);
  EXPECT_EQ(it->value().ToString(), "v20");
}

TEST_F(PmTableEnv, ReopenFromPool) {
  uint64_t id;
  {
    PmTableBuilder builder(pool_.get(), PmTableOptions{});
    for (int i = 0; i < 100; ++i) {
      char key[32];
      snprintf(key, sizeof(key), "tbl|key%04d", i);
      builder.Add(IKey(key, 5), "val" + std::to_string(i));
    }
    std::shared_ptr<PmTable> table;
    ASSERT_TRUE(builder.Finish(&table).ok());
    id = table->id();
  }
  // Reopen by id (simulates recovery).
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(PmTable::Open(pool_.get(), id, &table).ok());
  EXPECT_EQ(table->num_entries(), 100u);
  std::unique_ptr<Iterator> it(table->NewIterator());
  it->Seek(IKey("tbl|key0042", kMaxSequenceNumber));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->value().ToString(), "val42");
}

TEST_F(PmTableEnv, DestroyFreesPoolSpace) {
  uint64_t before = pool_->FreeBytes();
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  for (int i = 0; i < 1000; ++i) {
    builder.Add(IKey("t|" + std::to_string(1000 + i), 5),
                std::string(100, 'x'));
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  EXPECT_LT(pool_->FreeBytes(), before);
  ASSERT_TRUE(table->Destroy().ok());
  // The free is deferred until the last reference drops, so concurrent
  // readers holding a ref never observe freed storage.
  EXPECT_LT(pool_->FreeBytes(), before);
  table.reset();
  EXPECT_EQ(pool_->FreeBytes(), before);
}

TEST_F(PmTableEnv, BoundariesCached) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  builder.Add(IKey("t|aaa", 5), "v");
  builder.Add(IKey("t|mmm", 5), "v");
  builder.Add(IKey("t|zzz", 5), "v");
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  EXPECT_EQ(ExtractUserKey(table->smallest()).ToString(), "t|aaa");
  EXPECT_EQ(ExtractUserKey(table->largest()).ToString(), "t|zzz");
}

TEST_F(PmTableEnv, KeysWithoutSeparator) {
  // Keys with no '|' have an empty meta component; the table must still
  // function.
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  for (int i = 0; i < 50; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "plain%04d", i);
    builder.Add(IKey(key, 5), "v");
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  EXPECT_EQ(table->num_metas(), 1u);
  std::unique_ptr<Iterator> it(table->NewIterator());
  it->Seek(IKey("plain0025", kMaxSequenceNumber));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "plain0025");
}

TEST_F(PmTableEnv, PmReadTrafficIsAccounted) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  for (int i = 0; i < 500; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "t|key%05d", i);
    builder.Add(IKey(key, 5), std::string(64, 'v'));
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  EXPECT_GT(pool_->stats().bytes_written(), 0u);

  pool_->stats().Reset();
  std::unique_ptr<Iterator> it(table->NewIterator());
  it->Seek(IKey("t|key00250", kMaxSequenceNumber));
  EXPECT_GT(pool_->stats().read_accesses(), 0u);
}

// Field offsets of the PM table image (see the layout block in pm_table.cc).
constexpr size_t kHeaderPrefixOff = 28;
constexpr size_t kHeaderGroupIndexOff = 32;
constexpr size_t kHeaderEntryOff = 36;
constexpr size_t kHeaderSizeOff = 40;
constexpr size_t kHeaderCrcOff = 44;
constexpr size_t kGroupIndexEntry = 16;

// Rewrites one fixed32 field of a stored image; header fields get their crc
// recomputed so the damage is only the field itself.
void SetField(char* image, size_t offset, uint32_t value) {
  EncodeFixed32(image + offset, value);
  if (offset < kHeaderCrcOff) {
    EncodeFixed32(image + kHeaderCrcOff, crc32c::Value(image, 44));
  }
}

TEST_F(PmTableEnv, OpenRejectsDamagedLayoutFields) {
  const PmTableOptions options{.group_size = 16, .prefix_width = 8};
  PmTableBuilder builder(pool_.get(), options);
  for (int i = 0; i < 100; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "t%c|key%05d", 'A' + i / 50, i);
    builder.Add(IKey(key, 5), "v" + std::to_string(i));
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  ASSERT_GE(table->num_groups(), 4u);
  const uint64_t id = table->id();
  uint64_t object_size = 0;
  char* image = pool_->DataFor(id, &object_size);
  ASSERT_GE(object_size, table->size_bytes());
  const std::string pristine(image, table->size_bytes());
  const uint32_t gindex = DecodeFixed32(image + kHeaderGroupIndexOff);
  const uint32_t entry_off = DecodeFixed32(image + kHeaderEntryOff);
  const uint32_t size = DecodeFixed32(image + kHeaderSizeOff);
  auto group_field = [&](uint32_t g, size_t field) {
    return gindex + g * kGroupIndexEntry + field;
  };
  const uint32_t group1_offset = DecodeFixed32(image + group_field(1, 0));

  const uint32_t count1 = DecodeFixed32(image + group_field(1, 4));
  const uint32_t count2 = DecodeFixed32(image + group_field(2, 4));

  // One or two fields per case; the two-field cases keep the count sum.
  struct Field {
    size_t offset;
    uint32_t value;
  };
  struct Damage {
    const char* what;
    std::vector<Field> fields;
  };
  const Damage damages[] = {
      {"count 0", {{group_field(1, 4), 0}, {group_field(2, 4), count2 + count1}}},
      {"count > group_size",
       {{group_field(1, 4), count1 + 1}, {group_field(2, 4), count2 - 1}}},
      {"counts disagree with num_entries", {{group_field(1, 4), count1 - 1}}},
      {"common_len > prefix_width",
       {{group_field(1, 12), options.prefix_width + 1}}},
      {"entry offset not ascending", {{group_field(2, 0), group1_offset}}},
      {"entry offset past the entry layer",
       {{group_field(3, 0), size - entry_off}}},
      {"meta id out of range", {{group_field(1, 8), table->num_metas()}}},
      {"layer offsets not ascending", {{kHeaderPrefixOff, gindex + 1}}},
      {"entry layer past size", {{kHeaderEntryOff, size + 1}}},
      {"group index overlaps the entry layer", {{kHeaderEntryOff, gindex + 8}}},
      {"size beyond object",
       {{kHeaderSizeOff, static_cast<uint32_t>(object_size) + 4096}}},
  };
  for (const Damage& d : damages) {
    for (const Field& f : d.fields) SetField(image, f.offset, f.value);
    std::shared_ptr<PmTable> reopened;
    Status s = PmTable::Open(pool_.get(), id, &reopened);
    EXPECT_TRUE(s.IsCorruption()) << d.what << ": " << s.ToString();
    memcpy(image, pristine.data(), pristine.size());
  }
  std::shared_ptr<PmTable> reopened;
  EXPECT_TRUE(PmTable::Open(pool_.get(), id, &reopened).ok());

  // A PM-table object too small to hold the 64-byte header.
  PmPool::ObjectInfo info;
  char* tiny = nullptr;
  ASSERT_TRUE(pool_->Allocate(32, kPmTableObject, &info, &tiny).ok());
  memcpy(tiny, pristine.data(), 32);
  EXPECT_TRUE(PmTable::Open(pool_.get(), info.id, &reopened).IsCorruption());
}

// The array and LZ baselines share a 32-byte header whose last fixed32
// before the crc is the image size; each is damaged the same way.
struct BaselineLayout {
  const char* name;
  size_t offsets_field, data_field, size_field, crc_field;
  std::function<uint64_t(PmPool*)> build;  // returns the new object's id
  std::function<Status(PmPool*, uint64_t)> open;
};

std::vector<BaselineLayout> BaselineLayouts() {
  auto fill = [](auto* builder) {
    for (int i = 0; i < 50; ++i) {
      char key[16];
      snprintf(key, sizeof(key), "key%05d", i);
      builder->Add(IKey(key, 5), "v" + std::to_string(i));
    }
  };
  return {
      {"array", 8, 12, 16, 20,
       [fill](PmPool* pool) {
         ArrayTableBuilder b(pool);
         fill(&b);
         std::shared_ptr<ArrayTable> t;
         EXPECT_TRUE(b.Finish(&t).ok());
         return t->id();
       },
       [](PmPool* pool, uint64_t id) {
         std::shared_ptr<ArrayTable> t;
         return ArrayTable::Open(pool, id, &t);
       }},
      {"snappy", 16, 20, 24, 28,
       [fill](PmPool* pool) {
         SnappyTableBuilder b(pool, 8);
         fill(&b);
         std::shared_ptr<SnappyTable> t;
         EXPECT_TRUE(b.Finish(&t).ok());
         return t->id();
       },
       [](PmPool* pool, uint64_t id) {
         std::shared_ptr<SnappyTable> t;
         return SnappyTable::Open(pool, id, &t);
       }},
  };
}

TEST_F(PmTableEnv, BaselineOpenRejectsSizesBeyondTheObject) {
  for (const BaselineLayout& layout : BaselineLayouts()) {
    SCOPED_TRACE(layout.name);
    const uint64_t id = layout.build(pool_.get());
    uint64_t object_size = 0;
    char* image = pool_->DataFor(id, &object_size);
    ASSERT_NE(image, nullptr);
    const uint32_t size = DecodeFixed32(image + layout.size_field);
    ASSERT_EQ(size, object_size);
    const std::string pristine(image, size);
    auto set_field = [&](size_t offset, uint32_t value) {
      EncodeFixed32(image + offset, value);
      EncodeFixed32(image + layout.crc_field,
                    crc32c::Value(image, layout.crc_field));
    };
    const struct {
      const char* what;
      size_t offset;
      uint32_t value;
    } damages[] = {
        {"size beyond object", layout.size_field, size + 4096},
        {"offsets area past size", layout.offsets_field, size + 1},
        {"data area past size", layout.data_field, size + 1},
    };
    for (const auto& d : damages) {
      set_field(d.offset, d.value);
      Status s = layout.open(pool_.get(), id);
      EXPECT_TRUE(s.IsCorruption()) << d.what << ": " << s.ToString();
      memcpy(image, pristine.data(), pristine.size());
    }
    EXPECT_TRUE(layout.open(pool_.get(), id).ok());
  }
}

TEST_F(PmTableEnv, BaselineOpenRejectsTruncatedObjects) {
  for (const BaselineLayout& layout : BaselineLayouts()) {
    SCOPED_TRACE(layout.name);
    const uint64_t id = layout.build(pool_.get());
    uint64_t object_size = 0;
    const char* image = pool_->DataFor(id, &object_size);
    ASSERT_NE(image, nullptr);
    // The image cut short by 8 bytes, its header (size field and crc) intact.
    PmPool::ObjectInfo info;
    char* cut = nullptr;
    ASSERT_TRUE(pool_->Allocate(object_size - 8, kArrayTableObject, &info,
                                &cut)
                    .ok());
    memcpy(cut, image, object_size - 8);
    Status s = layout.open(pool_.get(), info.id);
    EXPECT_TRUE(s.IsCorruption()) << "truncated image: " << s.ToString();
    // An object too small to hold the 32-byte header.
    char* tiny = nullptr;
    ASSERT_TRUE(
        pool_->Allocate(16, kArrayTableObject, &info, &tiny).ok());
    memcpy(tiny, image, 16);
    s = layout.open(pool_.get(), info.id);
    EXPECT_TRUE(s.IsCorruption()) << "16-byte object: " << s.ToString();
  }
}

TEST_F(PmTableEnv, GetAndSeekReportTheSameMalformedEntry) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{.group_size = 8});
  for (int i = 0; i < 64; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "t|key%05d", i);
    builder.Add(IKey(key, 5), "value");
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  // Stretch the value length of group 3's second entry past the table end:
  // a continuation bit on its one-byte value_len varint pulls the suffix's
  // first byte into the length (thousands of bytes).
  char* image = pool_->DataFor(table->id());
  const uint32_t gindex = DecodeFixed32(image + kHeaderGroupIndexOff);
  const uint32_t entry_off = DecodeFixed32(image + kHeaderEntryOff);
  char* first = image + entry_off +
                      DecodeFixed32(image + gindex + 3 * kGroupIndexEntry);
  const size_t first_len = 2 + static_cast<uint8_t>(first[0]) +
                           static_cast<uint8_t>(first[1]);
  first[first_len + 1] = static_cast<char>(0xff);

  for (int i : {24, 27, 31}) {
    char key[32];
    snprintf(key, sizeof(key), "t|key%05d", i);
    LookupKey lkey(key, kMaxSequenceNumber);
    std::string value;
    bool found = false;
    Status result;
    Status s = table->Get(lkey, &value, &found, &result);
    EXPECT_TRUE(s.IsCorruption()) << key << ": " << s.ToString();
    EXPECT_FALSE(found);

    std::unique_ptr<Iterator> it(table->NewIterator());
    it->Seek(lkey.internal_key());
    EXPECT_FALSE(it->Valid());
    EXPECT_EQ(it->status().ToString(), s.ToString());
  }
}

TEST_F(PmTableEnv, GetAllocatesNothing) {
  PmTableBuilder builder(pool_.get(), PmTableOptions{});
  for (int i = 0; i < 500; i += 2) {
    char key[32];
    snprintf(key, sizeof(key), "t|key%05d", i);
    builder.Add(IKey(key, 5), std::string(64, 'v'));
  }
  std::shared_ptr<PmTable> table;
  ASSERT_TRUE(builder.Finish(&table).ok());
  InternalKeyComparator icmp(BytewiseComparator());

  std::string value;
  value.reserve(128);  // a hit's value fits without growing the string
  for (int i : {0, 1, 250, 251, 498, 499}) {
    char key[32];
    snprintf(key, sizeof(key), "t|key%05d", i);
    LookupKey lkey(key, kMaxSequenceNumber);
    bool found = false;
    Status result;
    const uint64_t before = g_heap_allocations.load();
    Status s = L0TableGet(*table, icmp, lkey, &value, &found, &result);
    const uint64_t allocations = g_heap_allocations.load() - before;
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(found, i % 2 == 0) << key;
    EXPECT_EQ(allocations, 0u) << key;
  }
}

TEST_F(PmTableEnv, GetChargesExactlyWhatSeekCharges) {
  for (uint32_t group_size : {8u, 16u}) {
    SCOPED_TRACE(group_size);
    PmTableBuilder builder(
        pool_.get(), PmTableOptions{.group_size = group_size, .prefix_width = 8});
    std::vector<std::string> targets;
    Random r(group_size);
    for (int i = 0; i < 300; ++i) {
      char key[48];
      snprintf(key, sizeof(key), "%s|key%05d", i < 150 ? "orders" : "users",
               i * 2);
      const int versions = 1 + static_cast<int>(r.Uniform(12));
      for (int v = versions; v > 0; --v) {
        const SequenceNumber seq = 10 * v;
        builder.Add(IKey(key, seq, r.OneIn(5) ? kTypeDeletion : kTypeValue),
                    std::string(r.Uniform(40), 'v'));
        targets.push_back(IKey(key, seq));      // exact version
        targets.push_back(IKey(key, seq - 5));  // snapshot between versions
      }
      targets.push_back(IKey(key, kMaxSequenceNumber));
      snprintf(key, sizeof(key), "%s|key%05d", i < 150 ? "orders" : "users",
               i * 2 + 1);
      targets.push_back(IKey(key, kMaxSequenceNumber));  // absent, between
    }
    targets.push_back(IKey("aaa|first", kMaxSequenceNumber));  // before all
    targets.push_back(IKey("zzz|last", kMaxSequenceNumber));   // after all
    std::shared_ptr<PmTable> table;
    ASSERT_TRUE(builder.Finish(&table).ok());

    std::unique_ptr<Iterator> it(table->NewIterator());
    for (const std::string& target : targets) {
      pool_->stats().Reset();
      it->Seek(target);
      ASSERT_TRUE(it->status().ok());
      const uint64_t seek_accesses = pool_->stats().read_accesses();
      const uint64_t seek_bytes = pool_->stats().bytes_read();

      pool_->stats().Reset();
      LookupKey lkey(ExtractUserKey(target),
                     UnpackSequence(ExtractTag(Slice(target))));
      std::string value;
      bool found = false;
      Status result;
      ASSERT_TRUE(table->Get(lkey, &value, &found, &result).ok());
      EXPECT_EQ(pool_->stats().read_accesses(), seek_accesses)
          << ExtractUserKey(target).ToString();
      EXPECT_EQ(pool_->stats().bytes_read(), seek_bytes)
          << ExtractUserKey(target).ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-structure property tests: each L0 structure vs an in-memory model.
// ---------------------------------------------------------------------------

enum class Structure { kPmTable, kPmTableGroup8, kArray, kSnappy, kSnappyGroup };

class L0StructureTest : public PmTableEnv,
                        public ::testing::WithParamInterface<Structure> {
 protected:
  // The param interface clashes with PmTableEnv's Test base; re-declare.
};

class L0PropertyTest : public ::testing::TestWithParam<Structure> {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "pmblade_l0prop_test.pm";
    ::remove(path_.c_str());
    PmPoolOptions opts;
    opts.capacity = 64 << 20;
    opts.latency.inject_latency = false;
    ASSERT_TRUE(PmPool::Open(path_, opts, &pool_).ok());
  }
  void TearDown() override {
    pool_.reset();
    ::remove(path_.c_str());
  }

  // `entries` are (internal key, value) pairs in internal order: a map of
  // single-version keys, or a vector when a user key has several versions.
  template <typename Entries>
  L0TableRef Build(const Entries& model) {
    switch (GetParam()) {
      case Structure::kPmTable: {
        PmTableBuilder b(pool_.get(), PmTableOptions{.group_size = 16});
        for (auto& [k, v] : model) b.Add(k, v);
        std::shared_ptr<PmTable> t;
        EXPECT_TRUE(b.Finish(&t).ok());
        return t;
      }
      case Structure::kPmTableGroup8: {
        PmTableBuilder b(pool_.get(),
                         PmTableOptions{.group_size = 8, .prefix_width = 12});
        for (auto& [k, v] : model) b.Add(k, v);
        std::shared_ptr<PmTable> t;
        EXPECT_TRUE(b.Finish(&t).ok());
        return t;
      }
      case Structure::kArray: {
        ArrayTableBuilder b(pool_.get());
        for (auto& [k, v] : model) b.Add(k, v);
        std::shared_ptr<ArrayTable> t;
        EXPECT_TRUE(b.Finish(&t).ok());
        return t;
      }
      case Structure::kSnappy: {
        SnappyTableBuilder b(pool_.get(), 1);
        for (auto& [k, v] : model) b.Add(k, v);
        std::shared_ptr<SnappyTable> t;
        EXPECT_TRUE(b.Finish(&t).ok());
        return t;
      }
      case Structure::kSnappyGroup: {
        SnappyTableBuilder b(pool_.get(), 8);
        for (auto& [k, v] : model) b.Add(k, v);
        std::shared_ptr<SnappyTable> t;
        EXPECT_TRUE(b.Finish(&t).ok());
        return t;
      }
    }
    return nullptr;
  }

  static std::map<std::string, std::string> MakeModel(int n, uint64_t seed) {
    Random r(seed);
    std::map<std::string, std::string> model;
    const char* tables[] = {"orders|", "users|", "idx_user_orders|"};
    while (static_cast<int>(model.size()) < n) {
      std::string user_key = tables[r.Uniform(3)];
      std::string suffix;
      r.RandomString(4 + r.Uniform(20), &suffix);
      user_key += suffix;
      std::string value;
      r.RandomBytes(r.Uniform(120), &value);
      model[IKey(user_key, 7)] = value;
    }
    return model;
  }

  using Entries = std::vector<std::pair<std::string, std::string>>;

  // `users` user keys, each with 1..20 versions (newest first) so version
  // runs straddle group boundaries at group sizes 8 and 16; about one
  // version in four is a tombstone. Fills `seqs` with each key's sequences.
  static Entries MakeVersionedModel(
      int users, uint64_t seed,
      std::map<std::string, std::vector<SequenceNumber>>* seqs) {
    Random r(seed);
    std::map<std::string, std::vector<SequenceNumber>> keys;
    const char* tables[] = {"orders|", "users|"};
    while (static_cast<int>(keys.size()) < users) {
      std::string user_key = tables[r.Uniform(2)];
      std::string suffix;
      r.RandomString(2 + r.Uniform(10), &suffix);
      keys[user_key + suffix];
    }
    Entries entries;
    for (auto& [user_key, versions] : keys) {
      SequenceNumber seq = 1000 + r.Uniform(1000);
      for (uint64_t v = 1 + r.Uniform(20); v > 0; --v) {
        versions.push_back(seq);
        const bool tombstone = r.OneIn(4);
        std::string value;
        if (!tombstone) r.RandomBytes(r.Uniform(40), &value);
        entries.emplace_back(
            IKey(user_key, seq, tombstone ? kTypeDeletion : kTypeValue),
            value);
        seq -= 1 + r.Uniform(5);
      }
    }
    *seqs = std::move(keys);
    return entries;
  }

  std::string path_;
  std::unique_ptr<PmPool> pool_;
};

TEST_P(L0PropertyTest, FullScanMatchesModel) {
  auto model = MakeModel(800, 42);
  L0TableRef table = Build(model);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->num_entries(), model.size());

  std::unique_ptr<Iterator> it(table->NewIterator());
  it->SeekToFirst();
  // Model keys sort by raw bytes; internal order for distinct user keys with
  // equal seq is the same as byte order of (user_key ++ tag).
  for (auto& [k, v] : model) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), k);
    EXPECT_EQ(it->value().ToString(), v);
    it->Next();
  }
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok());
}

TEST_P(L0PropertyTest, SeekEveryKeyFindsIt) {
  auto model = MakeModel(400, 99);
  L0TableRef table = Build(model);
  std::unique_ptr<Iterator> it(table->NewIterator());
  for (auto& [k, v] : model) {
    std::string seek_key =
        IKey(ExtractUserKey(k).ToString(), kMaxSequenceNumber);
    it->Seek(seek_key);
    ASSERT_TRUE(it->Valid()) << ExtractUserKey(k).ToString();
    EXPECT_EQ(ExtractUserKey(it->key()).ToString(),
              ExtractUserKey(k).ToString());
    EXPECT_EQ(it->value().ToString(), v);
  }
}

TEST_P(L0PropertyTest, GenericGetAgainstModel) {
  auto model = MakeModel(300, 7);
  L0TableRef table = Build(model);
  InternalKeyComparator icmp(BytewiseComparator());
  for (auto& [k, v] : model) {
    LookupKey lkey(ExtractUserKey(k), kMaxSequenceNumber);
    std::string value;
    bool found = false;
    Status result;
    ASSERT_TRUE(
        L0TableGet(*table, icmp, lkey, &value, &found, &result).ok());
    ASSERT_TRUE(found) << ExtractUserKey(k).ToString();
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(value, v);
  }
  // Absent keys.
  LookupKey absent("zzzz|not-there", kMaxSequenceNumber);
  std::string value;
  bool found = true;
  Status result;
  ASSERT_TRUE(
      L0TableGet(*table, icmp, absent, &value, &found, &result).ok());
  EXPECT_FALSE(found);
}

TEST_P(L0PropertyTest, SnapshotGetMatchesIteratorSeek) {
  std::map<std::string, std::vector<SequenceNumber>> seqs;
  L0TableRef table = Build(MakeVersionedModel(150, 21, &seqs));
  ASSERT_NE(table, nullptr);
  InternalKeyComparator icmp(BytewiseComparator());

  // Every version, every gap between versions, above the newest and below
  // the oldest, plus absent keys before, between and after the stored ones.
  std::vector<std::pair<std::string, SequenceNumber>> lookups;
  for (const auto& [user_key, versions] : seqs) {
    lookups.emplace_back(user_key, kMaxSequenceNumber);
    for (SequenceNumber seq : versions) {
      lookups.emplace_back(user_key, seq);
      lookups.emplace_back(user_key, seq - 1);
    }
    lookups.emplace_back(user_key + "0", kMaxSequenceNumber);
  }
  lookups.emplace_back("a|before", kMaxSequenceNumber);
  lookups.emplace_back("orders|", kMaxSequenceNumber);
  lookups.emplace_back("zzz|after", kMaxSequenceNumber);

  std::unique_ptr<Iterator> it(table->NewIterator());
  int hits = 0, tombstones = 0;
  for (const auto& [user_key, seq] : lookups) {
    SCOPED_TRACE(user_key + " @" + std::to_string(seq));
    LookupKey lkey(user_key, seq);
    // Reference: the first entry >= the lookup key, if it has the user key.
    it->Seek(lkey.internal_key());
    ASSERT_TRUE(it->status().ok());
    bool want_found = false;
    bool want_tombstone = false;
    std::string want_value;
    if (it->Valid() && ExtractUserKey(it->key()) == Slice(user_key)) {
      want_found = true;
      want_tombstone = (ExtractTag(it->key()) & 0xff) == kTypeDeletion;
      want_value = it->value().ToString();
    }

    std::string value;
    bool found = false;
    Status result;
    ASSERT_TRUE(L0TableGet(*table, icmp, lkey, &value, &found, &result).ok());
    ASSERT_EQ(found, want_found);
    if (!found) continue;
    ++hits;
    if (want_tombstone) {
      ++tombstones;
      EXPECT_TRUE(result.IsNotFound());
    } else {
      EXPECT_TRUE(result.ok());
      EXPECT_EQ(value, want_value);
    }
  }
  // The lookups cover hits, tombstones and misses.
  EXPECT_GT(tombstones, 0);
  EXPECT_GT(hits - tombstones, 0);
  EXPECT_LT(hits, static_cast<int>(lookups.size()));
}

TEST_P(L0PropertyTest, BackwardScanMatchesModel) {
  auto model = MakeModel(200, 13);
  L0TableRef table = Build(model);
  std::unique_ptr<Iterator> it(table->NewIterator());
  it->SeekToLast();
  for (auto rit = model.rbegin(); rit != model.rend(); ++rit) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), rit->first);
    it->Prev();
  }
  EXPECT_FALSE(it->Valid());
}

INSTANTIATE_TEST_SUITE_P(Structures, L0PropertyTest,
                         ::testing::Values(Structure::kPmTable,
                                           Structure::kPmTableGroup8,
                                           Structure::kArray,
                                           Structure::kSnappy,
                                           Structure::kSnappyGroup));

}  // namespace
}  // namespace pmblade
