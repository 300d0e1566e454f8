#include "pmtable/pm_table.h"

#include <algorithm>
#include <cstring>

#include "util/coding.h"
#include "util/crc32c.h"

namespace pmblade {

// Header layout (64 bytes):
//   0..3   magic "PMT1"
//   4..7   fixed32 num_entries
//   8..11  fixed32 num_groups
//   12..15 fixed32 num_metas
//   16..19 fixed32 group_size
//   20..23 fixed32 prefix_width
//   24..27 fixed32 meta_layer offset     (from image start)
//   28..31 fixed32 prefix_layer offset
//   32..35 fixed32 group_index offset
//   36..39 fixed32 entry_layer offset
//   40..43 fixed32 total image size
//   44..47 fixed32 header crc (bytes 0..43)
//   48..63 reserved
// Group index entry (16 bytes):
//   0..3   fixed32 entry offset (relative to entry layer)
//   4..7   fixed32 entry count
//   8..11  fixed32 meta id
//   12..15 fixed32 common prefix length (over remainders)

namespace pmtable_format {
constexpr char kMagic[4] = {'P', 'M', 'T', '1'};
constexpr uint32_t kHeaderSize = 64;
constexpr uint32_t kGroupIndexEntrySize = 16;
}  // namespace pmtable_format

using namespace pmtable_format;  // NOLINT

Status PmTable::Open(PmPool* pool, uint64_t id,
                     std::shared_ptr<PmTable>* table) {
  uint64_t object_size = 0;
  char* data = pool->DataFor(id, &object_size);
  if (data == nullptr) {
    return Status::NotFound("pm table: no such pool object");
  }
  if (object_size < kHeaderSize) {
    return Status::Corruption("pm table: pool object smaller than header");
  }
  std::shared_ptr<PmTable> t(new PmTable());
  t->pool_ = pool;
  t->id_ = id;
  t->base_ = data;
  PMBLADE_RETURN_IF_ERROR(t->Validate(object_size));
  *table = std::move(t);
  return Status::OK();
}

Status PmTable::Validate(uint64_t object_size) {
  const char* h = base_;
  if (memcmp(h, kMagic, 4) != 0) {
    return Status::Corruption("pm table: bad magic");
  }
  if (crc32c::Value(h, 44) != DecodeFixed32(h + 44)) {
    return Status::Corruption("pm table: header crc mismatch");
  }
  num_entries_ = DecodeFixed32(h + 4);
  num_groups_ = DecodeFixed32(h + 8);
  num_metas_ = DecodeFixed32(h + 12);
  group_size_ = DecodeFixed32(h + 16);
  prefix_width_ = DecodeFixed32(h + 20);
  uint32_t meta_off = DecodeFixed32(h + 24);
  uint32_t prefix_off = DecodeFixed32(h + 28);
  uint32_t gindex_off = DecodeFixed32(h + 32);
  uint32_t entry_off = DecodeFixed32(h + 36);
  size_bytes_ = DecodeFixed32(h + 40);

  if (prefix_width_ == 0 || prefix_width_ > 64 || group_size_ == 0) {
    return Status::Corruption("pm table: bad geometry");
  }
  if (size_bytes_ > object_size) {
    return Status::Corruption("pm table: image larger than its pool object");
  }
  // Layers are laid out in order inside the image, the prefix layer and
  // group index sized for num_groups_.
  if (meta_off < kHeaderSize || prefix_off < meta_off ||
      gindex_off < prefix_off || entry_off < gindex_off ||
      size_bytes_ < entry_off ||
      gindex_off - prefix_off < uint64_t{num_groups_} * prefix_width_ ||
      entry_off - gindex_off < uint64_t{num_groups_} * kGroupIndexEntrySize) {
    return Status::Corruption("pm table: bad layer offsets");
  }

  meta_layer_ = base_ + meta_off;
  prefix_layer_ = base_ + prefix_off;
  group_index_ = base_ + gindex_off;
  entry_layer_ = base_ + entry_off;
  limit_ = base_ + size_bytes_;

  metas_.clear();
  Slice meta_in(meta_layer_, prefix_layer_ - meta_layer_);
  for (uint32_t i = 0; i < num_metas_; ++i) {
    Slice m;
    if (!GetLengthPrefixedSlice(&meta_in, &m)) {
      return Status::Corruption("pm table: bad meta layer");
    }
    metas_.push_back(m);
  }
  // Every group-index field the read paths trust, checked once here.
  const uint64_t entry_layer_size = size_bytes_ - entry_off;
  uint64_t entries = 0;
  for (uint32_t g = 0; g < num_groups_; ++g) {
    const char* ge = group_index_ + uint64_t{g} * kGroupIndexEntrySize;
    uint32_t offset = DecodeFixed32(ge);
    uint32_t count = DecodeFixed32(ge + 4);
    uint32_t meta_id = DecodeFixed32(ge + 8);
    uint32_t common_len = DecodeFixed32(ge + 12);
    if (meta_id >= num_metas_) {
      return Status::Corruption("pm table: bad meta id in group index");
    }
    if (g > 0 && meta_id < DecodeFixed32(ge - kGroupIndexEntrySize + 8)) {
      return Status::Corruption("pm table: meta ids not ascending");
    }
    if (count == 0 || count > group_size_) {
      return Status::Corruption("pm table: bad group entry count");
    }
    if (common_len > prefix_width_) {
      return Status::Corruption("pm table: bad group common prefix");
    }
    if (offset >= entry_layer_size ||
        (g > 0 && offset <= DecodeFixed32(ge - kGroupIndexEntrySize))) {
      return Status::Corruption("pm table: bad group entry offset");
    }
    entries += count;
  }
  if (entries != num_entries_) {
    return Status::Corruption("pm table: group counts disagree with header");
  }

  // Cache boundary keys.
  if (num_entries_ > 0) {
    std::unique_ptr<Iterator> it(NewIterator());
    it->SeekToFirst();
    if (!it->Valid()) return Status::Corruption("pm table: empty first");
    smallest_ = it->key().ToString();
    it->SeekToLast();
    if (!it->Valid()) return Status::Corruption("pm table: empty last");
    largest_ = it->key().ToString();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Point lookup
// ---------------------------------------------------------------------------

/// A stored internal key in the three pieces it is split into on PM:
/// meta ++ slot[0:common_len] ++ suffix. Compares against a contiguous
/// target without joining the pieces.
struct PmTable::SplitKey {
  Slice parts[3];

  size_t size() const {
    return parts[0].size() + parts[1].size() + parts[2].size();
  }

  /// Bytewise order of this key's user key (all but the last 8 bytes)
  /// against `user_key`.
  int CompareUserKey(const Slice& user_key) const {
    const size_t len = size() - 8;
    size_t off = 0;
    for (const Slice& part : parts) {
      if (off == len) break;
      const size_t n = std::min(part.size(), len - off);
      const size_t m = std::min(n, user_key.size() - off);
      if (m > 0) {
        int r = memcmp(part.data(), user_key.data() + off, m);
        if (r != 0) return r;
      }
      if (m < n) return +1;  // user_key is a proper prefix of this key
      off += n;
    }
    return len < user_key.size() ? -1 : 0;
  }

  /// The packed (seq, type) tag: the last 8 bytes, which a short suffix
  /// leaves split across the pieces.
  uint64_t Tag() const {
    const Slice& suffix = parts[2];
    if (suffix.size() >= 8) {
      return DecodeFixed64(suffix.data() + suffix.size() - 8);
    }
    char buf[8];
    size_t need = 8;
    for (int i = 2; i >= 0 && need > 0; --i) {
      const size_t n = std::min(need, parts[i].size());
      memcpy(buf + need - n, parts[i].data() + parts[i].size() - n, n);
      need -= n;
    }
    return DecodeFixed64(buf);
  }

  /// Internal-key order: user key ascending, tag descending.
  int Compare(const Slice& target) const {
    int r = CompareUserKey(ExtractUserKey(target));
    if (r != 0) return r;
    const uint64_t tag = Tag(), target_tag = ExtractTag(target);
    if (tag > target_tag) return -1;
    if (tag < target_tag) return +1;
    return 0;
  }
};

namespace {
Status BadEntry() { return Status::Corruption("pm table: bad entry encoding"); }
}  // namespace

PmTable::Group PmTable::GroupAt(uint32_t g) const {
  const char* ge = group_index_ + uint64_t{g} * kGroupIndexEntrySize;
  const char* slot = prefix_layer_ + uint64_t{g} * prefix_width_;
  return Group{entry_layer_ + DecodeFixed32(ge), DecodeFixed32(ge + 4),
               metas_[DecodeFixed32(ge + 8)],
               Slice(slot, DecodeFixed32(ge + 12))};
}

const char* PmTable::DecodeEntry(const Group& grp, const char* p,
                                 SplitKey* key, Slice* value) const {
  uint32_t suffix_len = 0, value_len = 0;
  p = GetVarint32Ptr(p, limit_, &suffix_len);
  if (p == nullptr) return nullptr;
  p = GetVarint32Ptr(p, limit_, &value_len);
  if (p == nullptr ||
      uint64_t{suffix_len} + value_len > static_cast<uint64_t>(limit_ - p) ||
      grp.meta.size() + grp.prefix.size() + suffix_len < 8) {
    return nullptr;
  }
  *key = SplitKey{{grp.meta, grp.prefix, Slice(p, suffix_len)}};
  *value = Slice(p + suffix_len, value_len);
  return p + suffix_len + value_len;
}

Status PmTable::FindGroup(const Slice& target, uint32_t* group,
                          uint32_t* probes) const {
  // Upper bound: the first group whose first key > target. Each probe
  // reads one prefix slot plus the group's first entry header — a single
  // dependent PM access. Full-key comparison keeps internal-key order exact
  // regardless of slot truncation ties.
  *probes = 0;
  uint32_t lo = 0, hi = num_groups_;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    ++*probes;
    const Group grp = GroupAt(mid);
    SplitKey first;
    Slice value;
    if (DecodeEntry(grp, grp.entries, &first, &value) == nullptr) {
      return BadEntry();
    }
    if (first.Compare(target) > 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  *group = (lo > 0) ? lo - 1 : 0;
  return Status::OK();
}

Status PmTable::Get(const LookupKey& lkey, std::string* value, bool* found,
                    Status* result_status) const {
  *found = false;
  if (num_groups_ == 0) return Status::OK();
  const Slice target = lkey.internal_key();
  uint32_t g = 0, probes = 0;
  PMBLADE_RETURN_IF_ERROR(FindGroup(target, &g, &probes));

  // The answer is the first candidate entry >= target or, when every
  // candidate entry is smaller, the next group's first entry (its first key
  // is > target by the search). Each group touched is walked to its end so
  // the charge covers its full byte span and every entry is checked, as
  // PmTableIter::LoadGroup does; entries after the answer are only skipped.
  // The search and the groups are charged in one InjectRead.
  size_t bytes = SearchBytes(probes);
  uint64_t accesses = probes;
  const uint32_t candidate = g;
  bool positioned = false;
  SplitKey hit;
  Slice hit_value;
  for (; !positioned && g < num_groups_ && g <= candidate + 1; ++g) {
    const Group grp = GroupAt(g);
    const char* p = grp.entries;
    for (uint32_t i = 0; i < grp.count; ++i) {
      SplitKey key;
      Slice entry_value;
      p = DecodeEntry(grp, p, &key, &entry_value);
      if (p == nullptr) {
        pool_->InjectRead(bytes, accesses);
        return BadEntry();
      }
      if (!positioned && (g > candidate || key.Compare(target) >= 0)) {
        positioned = true;
        hit = key;
        hit_value = entry_value;
      }
    }
    bytes += static_cast<size_t>(p - grp.entries);
    ++accesses;
  }
  pool_->InjectRead(bytes, accesses);
  if (!positioned) return Status::OK();

  const uint64_t tag = hit.Tag();
  if (UnpackType(tag) > kTypeValue) {
    return Status::Corruption("l0 table: malformed internal key");
  }
  if (hit.CompareUserKey(lkey.user_key()) != 0) return Status::OK();
  *found = true;
  if (UnpackType(tag) == kTypeDeletion) {
    *result_status = Status::NotFound();
  } else {
    value->assign(hit_value.data(), hit_value.size());
    *result_status = Status::OK();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

class PmTableIter final : public Iterator {
 public:
  explicit PmTableIter(std::shared_ptr<const PmTable> table)
      : t_(std::move(table)) {}

  bool Valid() const override { return group_ < t_->num_groups_; }
  Status status() const override { return status_; }
  Slice key() const override { return key_; }
  Slice value() const override { return value_; }

  // NewIterator hands out an empty iterator for a table without groups, so
  // every method here may assume num_groups_ > 0.
  void SeekToFirst() override {
    if (LoadGroup(0)) PositionAt(0);
  }

  void SeekToLast() override {
    if (LoadGroup(t_->num_groups_ - 1)) {
      PositionAt(static_cast<int>(entry_count_) - 1);
    }
  }

  void Seek(const Slice& target) override {
    uint32_t candidate = 0, probes = 0;
    if (!t_->FindGroup(target, &candidate, &probes).ok()) {
      Corrupt();
      return;
    }
    t_->pool_->InjectRead(t_->SearchBytes(probes), probes);
    if (!LoadGroup(candidate)) return;
    for (size_t i = 0; i < entry_count_; ++i) {
      if (Compare(EntryKey(i), target) >= 0) {
        PositionAt(static_cast<int>(i));
        return;
      }
    }
    // Every entry of the candidate group < target: the answer is the first
    // entry of the next group (its first key > target by the search above).
    if (candidate + 1 < t_->num_groups_) {
      if (LoadGroup(candidate + 1)) PositionAt(0);
    } else {
      group_ = t_->num_groups_;
    }
  }

  void Next() override {
    if (index_ + 1 < static_cast<int>(entry_count_)) {
      PositionAt(index_ + 1);
      return;
    }
    if (group_ + 1 >= t_->num_groups_) {
      group_ = t_->num_groups_;
      return;
    }
    if (LoadGroup(group_ + 1)) PositionAt(0);
  }

  void Prev() override {
    if (index_ > 0) {
      PositionAt(index_ - 1);
      return;
    }
    if (group_ == 0) {
      group_ = t_->num_groups_;
      return;
    }
    if (LoadGroup(group_ - 1)) {
      PositionAt(static_cast<int>(entry_count_) - 1);
    }
  }

 private:
  /// Reconstructed entries of the loaded group live as offset/length pairs
  /// into key_buf_ (one flat buffer reused across group loads), so decoding
  /// a group allocates nothing once the buffer has warmed up.
  struct EntryRef {
    uint32_t key_offset = 0;
    uint32_t key_len = 0;
    Slice value;
  };

  Slice EntryKey(size_t i) const {
    return Slice(key_buf_.data() + entries_[i].key_offset,
                 entries_[i].key_len);
  }

  int Compare(const Slice& a, const Slice& b) const {
    // Internal-key order: user key ascending, tag descending.
    int r = ExtractUserKey(a).compare(ExtractUserKey(b));
    if (r != 0) return r;
    uint64_t atag = ExtractTag(a), btag = ExtractTag(b);
    if (atag > btag) return -1;
    if (atag < btag) return +1;
    return 0;
  }

  /// Decodes all entries of group `g` into the flat key buffer + entry
  /// refs. Allocation-free once the buffers are warm. Injects the PM read
  /// cost of the group scan. False (and invalid, with a Corruption status)
  /// on a malformed entry.
  bool LoadGroup(uint32_t g) {
    group_ = g;
    const PmTable::Group grp = t_->GroupAt(g);
    if (entries_.size() < grp.count) entries_.resize(grp.count);
    entry_count_ = grp.count;
    key_buf_.clear();  // keeps capacity

    const char* p = grp.entries;
    for (uint32_t i = 0; i < grp.count; ++i) {
      PmTable::SplitKey key;
      EntryRef& e = entries_[i];
      p = t_->DecodeEntry(grp, p, &key, &e.value);
      if (p == nullptr) {
        Corrupt();
        return false;
      }
      e.key_offset = static_cast<uint32_t>(key_buf_.size());
      for (const Slice& part : key.parts) {
        key_buf_.append(part.data(), part.size());
      }
      e.key_len = static_cast<uint32_t>(key_buf_.size()) - e.key_offset;
    }
    // One sequential PM access covering the group's bytes.
    t_->pool_->InjectRead(static_cast<size_t>(p - grp.entries), 1);
    return true;
  }

  void PositionAt(int i) {
    index_ = i;
    key_ = EntryKey(i);
    value_ = entries_[i].value;
  }

  void Corrupt() {
    status_ = Status::Corruption("pm table: bad entry encoding");
    group_ = t_->num_groups_;
    entry_count_ = 0;
  }

  std::shared_ptr<const PmTable> t_;
  uint32_t group_ = UINT32_MAX;
  int index_ = -1;
  uint32_t entry_count_ = 0;
  std::vector<EntryRef> entries_;
  std::string key_buf_;
  Slice key_;
  Slice value_;
  Status status_;
};

Iterator* PmTable::NewIterator() const {
  if (num_groups_ == 0) return NewEmptyIterator();
  return new PmTableIter(shared_from_this());
}

}  // namespace pmblade
