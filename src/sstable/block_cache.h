// Sharded LRU cache for uncompressed data blocks. Keyed by
// (table file number, block offset); charged by block byte size.

#ifndef PMBLADE_SSTABLE_BLOCK_CACHE_H_
#define PMBLADE_SSTABLE_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace pmblade {

namespace obs {
class MetricsRegistry;
}  // namespace obs

class Block;

class BlockCache {
 public:
  /// `capacity` in bytes across all shards.
  explicit BlockCache(size_t capacity, int num_shards = 4);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Looks up the block for (file_number, offset); returns a shared handle
  /// keeping the block alive, or nullptr on miss.
  std::shared_ptr<Block> Lookup(uint64_t file_number, uint64_t offset);

  /// Inserts a block (taking shared ownership); evicts LRU entries to fit.
  void Insert(uint64_t file_number, uint64_t offset,
              std::shared_ptr<Block> block, size_t charge);

  /// Drops all entries for a table (called when its file is deleted).
  void EvictTable(uint64_t file_number);

  /// Re-divides a new total byte capacity across the shards, evicting LRU
  /// entries that no longer fit. Safe against concurrent Lookup/Insert; the
  /// memory arbiter calls this on every rebalance.
  void SetCapacity(size_t capacity);
  size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }

  size_t TotalCharge() const;
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  /// Registers the "pmblade.blockcache.{hits,misses,charge,capacity}"
  /// gauges. The cache must outlive the registry's reads.
  void RegisterMetrics(obs::MetricsRegistry* registry);

 private:
  struct Shard;

  static uint64_t KeyOf(uint64_t file_number, uint64_t offset) {
    // Offsets are < 2^40 for any realistic table; fold the file number in.
    return (file_number << 40) ^ offset;
  }

  Shard* ShardFor(uint64_t key) const;

  std::unique_ptr<Shard[]> shards_;
  int num_shards_;
  std::atomic<size_t> capacity_{0};
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
};

}  // namespace pmblade

#endif  // PMBLADE_SSTABLE_BLOCK_CACHE_H_
