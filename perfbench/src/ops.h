// Generated inputs and their checks: the key space, self-verifying values,
// per-key version bookkeeping and the seeded operation stream.
//
// Values are self-verifying: each 100-byte value carries the key index, the
// writer id, a per-key version and a checksum over the rest, so a reader
// can tell a wrong key, a torn or corrupted value and a stale version apart
// without a shadow copy of the data.
//
// Every key has exactly one writer (its owner), so versions of one key are
// issued and acknowledged in commit order and a reader can demand
//   acked_before_read <= version_read <= issued_after_read.

#ifndef PERFBENCH_OPS_H_
#define PERFBENCH_OPS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/random.h"
#include "util/slice.h"
#include "util/zipfian.h"

namespace perfbench {

constexpr size_t kKeyBytes = 16;
constexpr size_t kValueBytes = 100;
constexpr int kBatchKeys = 4;
constexpr int kScanLength = 50;

/// Keys "user%012llu" (16 bytes); byte order equals index order. The
/// absent key of index i sorts between key i and key i + 1, so it lands in
/// the same partition and SSTables as a present neighbour.
std::string KeyAt(uint64_t index);
std::string AbsentKeyAt(uint64_t index);
/// Parses a present key; false for anything else.
bool ParseKey(const pmblade::Slice& key, uint64_t* index);

/// Loader writes version 1 with this writer id.
constexpr uint32_t kLoaderWriter = 0xffff;

std::string EncodeValue(uint64_t key_index, uint32_t writer,
                        uint32_t version);

struct DecodedValue {
  uint64_t key_index = 0;
  uint32_t writer = 0;
  uint32_t version = 0;
};
/// Checks size, checksum and key index; fills *out on success. `why` gets a
/// short reason on failure.
bool DecodeValue(const pmblade::Slice& value, uint64_t expected_key,
                 DecodedValue* out, const char** why);

/// Issued and acknowledged version per key.
class VersionTable {
 public:
  explicit VersionTable(uint64_t num_keys);

  uint64_t size() const { return n_; }
  /// Owner only: the version for its next write of `key`.
  uint32_t Issue(uint64_t key) {
    const uint32_t v = issued_[key].load(std::memory_order_relaxed) + 1;
    issued_[key].store(v, std::memory_order_release);
    return v;
  }
  /// Owner only: the write of `version` was acknowledged.
  void Ack(uint64_t key, uint32_t version) {
    acked_[key].store(version, std::memory_order_release);
  }
  uint32_t acked(uint64_t key) const {
    return acked_[key].load(std::memory_order_acquire);
  }
  uint32_t issued(uint64_t key) const {
    return issued_[key].load(std::memory_order_acquire);
  }
  /// Marks every key loaded at version 1.
  void SetLoaded();

 private:
  uint64_t n_;
  std::unique_ptr<std::atomic<uint32_t>[]> issued_;
  std::unique_ptr<std::atomic<uint32_t>[]> acked_;
};

/// Result of checking one read value against the version table.
/// `acked_floor` was read before the read began.
bool CheckRead(const pmblade::Slice& value, uint64_t key, uint32_t acked_floor,
               const VersionTable& versions, const char** why);

enum class OpKind : uint8_t {
  kGet,        // point read of a present key
  kGetAbsent,  // point read of a key never written; must be NotFound
  kPut,        // single-key write (SET)
  kScan,       // Seek + kScanLength entries
  kMultiGet,   // kBatchKeys point reads in one request (MGET)
  kMultiPut,   // kBatchKeys writes in one atomic batch (WriteBatch / MSET)
};
constexpr int kNumOpKinds = 6;
const char* OpKindName(OpKind kind);

/// Share of each OpKind, in permille (sums to 1000).
struct Mix {
  int permille[kNumOpKinds] = {};
};

struct KeyDistribution {
  uint64_t num_keys = 0;
  bool zipfian = false;
  double theta = 0.99;
  /// Scatter popular ranks over the key space through a bijection (so a
  /// key has one owner even when scrambled).
  bool scramble = false;
};

struct Op {
  OpKind kind = OpKind::kGet;
  int num_keys = 1;
  uint64_t keys[kBatchKeys] = {};
};

/// The seeded operation stream of one generator. Writes only target keys
/// this generator owns (`owner` of `owners`); reads target any key. The
/// same (seed, stream id) always yields the same sequence.
class OpStream {
 public:
  OpStream(uint64_t seed, uint32_t stream_id, const Mix& mix,
           const KeyDistribution& dist, uint32_t owner, uint32_t owners);

  Op Next();
  /// Rank-space bijection used for scrambling, and its owner function.
  uint64_t KeyOfRank(uint64_t rank) const;
  uint32_t OwnerOf(uint64_t key) const;

  /// Optional filter for kMultiPut key sets (e.g. "spans two shards");
  /// the stream redraws a bounded number of times until it passes.
  void set_batch_filter(bool (*filter)(const Op&)) { batch_filter_ = filter; }

 private:
  uint64_t DrawRank();
  uint64_t DrawOwnedKey();

  Mix mix_;
  KeyDistribution dist_;
  uint32_t owner_;
  uint32_t owners_;
  uint64_t scramble_mul_ = 1;
  uint64_t scramble_inv_ = 1;
  pmblade::Random rng_;
  std::unique_ptr<pmblade::ZipfianGenerator> zipf_;
  bool (*batch_filter_)(const Op&) = nullptr;
};

}  // namespace perfbench

#endif  // PERFBENCH_OPS_H_
