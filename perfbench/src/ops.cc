#include "ops.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void PutU64(char* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
void PutU32(char* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Layout: [0,8) key index, [8,12) writer, [12,16) version,
// [16,96) filler derived from (key, version), [96,100) checksum of [0,96).
constexpr size_t kChecksumAt = kValueBytes - 4;

uint32_t Checksum(const char* p) {
  uint64_t h = 0x84222325cbf29ce4ull;
  for (size_t i = 0; i < kChecksumAt; i += 8) h = Mix64(h ^ GetU64(p + i));
  return static_cast<uint32_t>(h ^ (h >> 32));
}

uint64_t Gcd(uint64_t a, uint64_t b) {
  while (b != 0) {
    const uint64_t t = a % b;
    a = b;
    b = t;
  }
  return a;
}

// Inverse of a modulo n (gcd(a, n) == 1), by the extended Euclid method.
uint64_t ModInverse(uint64_t a, uint64_t n) {
  __int128 t = 0, new_t = 1;
  __int128 r = n, new_r = a;
  while (new_r != 0) {
    const __int128 q = r / new_r;
    __int128 tmp = t - q * new_t;
    t = new_t;
    new_t = tmp;
    tmp = r - q * new_r;
    r = new_r;
    new_r = tmp;
  }
  if (t < 0) t += n;
  return static_cast<uint64_t>(t);
}

uint64_t MulMod(uint64_t a, uint64_t b, uint64_t n) {
  return static_cast<uint64_t>(static_cast<unsigned __int128>(a) * b % n);
}

uint64_t ScrambleMultiplier(uint64_t n) {
  if (n <= 2) return 1;
  uint64_t a = static_cast<uint64_t>(static_cast<double>(n) * 0.6180339887);
  if (a == 0) a = 1;
  while (Gcd(a, n) != 1) ++a;
  return a;
}

}  // namespace

std::string KeyAt(uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%012llu",
                static_cast<unsigned long long>(index));
  return std::string(buf, kKeyBytes);
}

std::string AbsentKeyAt(uint64_t index) { return KeyAt(index) + "~"; }

bool ParseKey(const pmblade::Slice& key, uint64_t* index) {
  if (key.size() != kKeyBytes || std::memcmp(key.data(), "user", 4) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 4; i < kKeyBytes; ++i) {
    const char c = key.data()[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *index = v;
  return true;
}

std::string EncodeValue(uint64_t key_index, uint32_t writer,
                        uint32_t version) {
  std::string value(kValueBytes, '\0');
  char* p = value.data();
  PutU64(p, key_index);
  PutU32(p + 8, writer);
  PutU32(p + 12, version);
  uint64_t state = key_index * 0x100000001b3ull ^ version;
  for (size_t i = 16; i < kChecksumAt; i += 8) {
    state = Mix64(state);
    PutU64(p + i, state);
  }
  PutU32(p + kChecksumAt, Checksum(p));
  return value;
}

bool DecodeValue(const pmblade::Slice& value, uint64_t expected_key,
                 DecodedValue* out, const char** why) {
  if (value.size() != kValueBytes) {
    *why = "value size";
    return false;
  }
  const char* p = value.data();
  if (GetU32(p + kChecksumAt) != Checksum(p)) {
    *why = "value checksum";
    return false;
  }
  out->key_index = GetU64(p);
  out->writer = GetU32(p + 8);
  out->version = GetU32(p + 12);
  if (out->key_index != expected_key) {
    *why = "value of another key";
    return false;
  }
  return true;
}

VersionTable::VersionTable(uint64_t num_keys)
    : n_(num_keys),
      issued_(new std::atomic<uint32_t>[num_keys]),
      acked_(new std::atomic<uint32_t>[num_keys]) {
  for (uint64_t i = 0; i < n_; ++i) {
    issued_[i].store(0, std::memory_order_relaxed);
    acked_[i].store(0, std::memory_order_relaxed);
  }
}

void VersionTable::SetLoaded() {
  for (uint64_t i = 0; i < n_; ++i) {
    issued_[i].store(1, std::memory_order_relaxed);
    acked_[i].store(1, std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_release);
}

bool CheckRead(const pmblade::Slice& value, uint64_t key, uint32_t acked_floor,
               const VersionTable& versions, const char** why) {
  DecodedValue decoded;
  if (!DecodeValue(value, key, &decoded, why)) return false;
  if (decoded.version < acked_floor) {
    *why = "stale version";
    return false;
  }
  if (decoded.version > versions.issued(key)) {
    *why = "version never written";
    return false;
  }
  return true;
}

const char* OpKindName(OpKind kind) {
  static const char* kNames[] = {"get",  "get_absent", "put",
                                 "scan", "multi_get",  "multi_put"};
  return kNames[static_cast<int>(kind)];
}

OpStream::OpStream(uint64_t seed, uint32_t stream_id, const Mix& mix,
                   const KeyDistribution& dist, uint32_t owner,
                   uint32_t owners)
    : mix_(mix),
      dist_(dist),
      owner_(owner),
      owners_(owners),
      rng_(Mix64(seed * 0x9e3779b97f4a7c15ull + stream_id + 1)) {
  if (dist_.scramble) {
    scramble_mul_ = ScrambleMultiplier(dist_.num_keys);
    scramble_inv_ = ModInverse(scramble_mul_, dist_.num_keys);
  }
  if (dist_.zipfian) {
    zipf_ = std::make_unique<pmblade::ZipfianGenerator>(
        dist_.num_keys, dist_.theta, rng_.Next64());
  }
}

uint64_t OpStream::KeyOfRank(uint64_t rank) const {
  if (!dist_.scramble) return rank;
  const uint64_t n = dist_.num_keys;
  return (MulMod(rank, scramble_mul_, n) + n / 3) % n;
}

uint32_t OpStream::OwnerOf(uint64_t key) const {
  uint64_t rank = key;
  if (dist_.scramble) {
    const uint64_t n = dist_.num_keys;
    rank = MulMod((key + n - n / 3) % n, scramble_inv_, n);
  }
  return static_cast<uint32_t>(rank % owners_);
}

uint64_t OpStream::DrawRank() {
  return zipf_ != nullptr ? zipf_->Next() : rng_.Uniform(dist_.num_keys);
}

uint64_t OpStream::DrawOwnedKey() {
  uint64_t rank = DrawRank();
  rank = rank - rank % owners_ + owner_;
  if (rank >= dist_.num_keys) rank -= owners_;
  return KeyOfRank(rank);
}

Op OpStream::Next() {
  Op op;
  int pick = static_cast<int>(rng_.Uniform(1000));
  int kind = 0;
  while (kind < kNumOpKinds - 1 && pick >= mix_.permille[kind]) {
    pick -= mix_.permille[kind];
    ++kind;
  }
  op.kind = static_cast<OpKind>(kind);
  switch (op.kind) {
    case OpKind::kPut:
      op.keys[0] = DrawOwnedKey();
      break;
    case OpKind::kMultiGet:
    case OpKind::kMultiPut: {
      op.num_keys = kBatchKeys;
      for (int attempt = 0; attempt < 16; ++attempt) {
        for (int i = 0; i < kBatchKeys; ++i) {
          bool fresh = false;
          while (!fresh) {
            op.keys[i] = op.kind == OpKind::kMultiPut
                             ? DrawOwnedKey()
                             : KeyOfRank(DrawRank());
            fresh = true;
            for (int j = 0; j < i; ++j) fresh &= op.keys[j] != op.keys[i];
          }
        }
        if (op.kind == OpKind::kMultiGet || batch_filter_ == nullptr ||
            batch_filter_(op)) {
          break;
        }
      }
      break;
    }
    case OpKind::kGet:
    case OpKind::kGetAbsent:
    case OpKind::kScan:
      op.keys[0] = KeyOfRank(DrawRank());
      break;
  }
  return op;
}

}  // namespace perfbench
