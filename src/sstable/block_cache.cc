#include "sstable/block_cache.h"

#include <atomic>

#include "obs/metrics.h"
#include "sstable/block.h"

namespace pmblade {

struct BlockCache::Shard {
  struct Entry {
    uint64_t key;
    uint64_t file_number;
    std::shared_ptr<Block> block;
    size_t charge;
  };

  std::mutex mu;
  std::list<Entry> lru;  // front = most recent
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index;
  size_t capacity = 0;
  size_t usage = 0;

  void EvictToFit() {
    while (usage > capacity && !lru.empty()) {
      const Entry& victim = lru.back();
      usage -= victim.charge;
      index.erase(victim.key);
      lru.pop_back();
    }
  }
};

BlockCache::BlockCache(size_t capacity, int num_shards)
    : num_shards_(num_shards < 1 ? 1 : num_shards) {
  shards_.reset(new Shard[num_shards_]);
  SetCapacity(capacity);
}

void BlockCache::SetCapacity(size_t capacity) {
  capacity_.store(capacity, std::memory_order_relaxed);
  size_t per_shard = capacity / num_shards_;
  if (per_shard == 0) per_shard = 1;
  for (int i = 0; i < num_shards_; ++i) {
    Shard* shard = &shards_[i];
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->capacity = per_shard;
    shard->EvictToFit();
  }
}

BlockCache::~BlockCache() = default;

BlockCache::Shard* BlockCache::ShardFor(uint64_t key) const {
  // Mix before sharding so sequential offsets spread out.
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdull;
  return &shards_[key % num_shards_];
}

std::shared_ptr<Block> BlockCache::Lookup(uint64_t file_number,
                                          uint64_t offset) {
  uint64_t key = KeyOf(file_number, offset);
  Shard* shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard->mu);
  auto it = shard->index.find(key);
  if (it == shard->index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  // Move to front.
  shard->lru.splice(shard->lru.begin(), shard->lru, it->second);
  return it->second->block;
}

void BlockCache::Insert(uint64_t file_number, uint64_t offset,
                        std::shared_ptr<Block> block, size_t charge) {
  uint64_t key = KeyOf(file_number, offset);
  Shard* shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard->mu);
  auto it = shard->index.find(key);
  if (it != shard->index.end()) {
    shard->usage -= it->second->charge;
    shard->lru.erase(it->second);
    shard->index.erase(it);
  }
  shard->lru.push_front(
      Shard::Entry{key, file_number, std::move(block), charge});
  shard->index[key] = shard->lru.begin();
  shard->usage += charge;
  shard->EvictToFit();
}

void BlockCache::EvictTable(uint64_t file_number) {
  for (int i = 0; i < num_shards_; ++i) {
    Shard* shard = &shards_[i];
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->file_number == file_number) {
        shard->usage -= it->charge;
        shard->index.erase(it->key);
        it = shard->lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

size_t BlockCache::TotalCharge() const {
  size_t total = 0;
  for (int i = 0; i < num_shards_; ++i) {
    Shard* shard = &shards_[i];
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->usage;
  }
  return total;
}

void BlockCache::RegisterMetrics(obs::MetricsRegistry* registry) {
  registry->RegisterGaugeCallback("pmblade.blockcache.hits", [this] {
    return static_cast<double>(hits());
  });
  registry->RegisterGaugeCallback("pmblade.blockcache.misses", [this] {
    return static_cast<double>(misses());
  });
  registry->RegisterGaugeCallback("pmblade.blockcache.charge", [this] {
    return static_cast<double>(TotalCharge());
  });
  registry->RegisterGaugeCallback("pmblade.blockcache.capacity", [this] {
    return static_cast<double>(capacity());
  });
}

}  // namespace pmblade
