// PmTable: the paper's compressed level-0 table (Section IV-A, Fig. 2(b)).
//
// Three-layer layout inside one PM-pool object:
//
//   [header 64 B]
//   [meta layer]   distinct "table id" key components (length-prefixed);
//                  extracted once per table instead of repeated per key
//   [prefix layer] one fixed-width slot per group: the first `prefix_width`
//                  bytes of the group's first key *remainder* (key with its
//                  meta component stripped), zero-padded, memcmp-comparable
//   [group index]  per group: entry-layer offset, entry count, meta id,
//                  common-prefix length (over remainders, <= prefix_width)
//   [entry layer]  per entry: varint suffix_len | varint value_len |
//                  suffix bytes | value bytes, where
//                  full_key = meta[group.meta_id] ++ slot[0:common_len] ++
//                             suffix
//
// Groups hold up to `group_size` entries (8 or 16) and never straddle a meta
// boundary, so slot order within one meta range equals full-key order.
//
// Point lookup (the paper's read path, Get): binary-search the groups by
// their first keys, meta ++ slot[0:common_len] ++ first suffix, compared in
// place (one PM access per probe — the array layout needs two), then walk
// the one candidate group up to the first entry >= the target, falling
// through to the next group's first entry when every candidate entry is
// smaller. No key is materialized and nothing is allocated. The group
// search (FindGroup) is shared with PmTableIter::Seek, and Get charges the
// PM pool exactly the bytes and accesses Seek does: SearchBytes(probes) in
// one access per probe, plus one access covering the full byte span of each
// group touched. Get sums them into a single InjectRead.
//
// Open validates the header's layer offsets and every group-index entry, so
// both read paths can trust `count`, `common_len` and the entry offsets.

#ifndef PMBLADE_PMTABLE_PM_TABLE_H_
#define PMBLADE_PMTABLE_PM_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "pm/pm_pool.h"
#include "pmtable/l0_table.h"
#include "util/comparator.h"

namespace pmblade {

struct PmTableOptions {
  uint32_t group_size = 16;     // entries per group (paper: 8 or 16)
  uint32_t prefix_width = 8;    // fixed slot width in bytes, <= 64
};

class PmTable : public L0Table,
                public std::enable_shared_from_this<PmTable> {
 public:
  /// Opens a PM table stored as pool object `id`. Validates the header
  /// against the object's size and caches boundary keys in DRAM.
  static Status Open(PmPool* pool, uint64_t id,
                     std::shared_ptr<PmTable>* table);

  Iterator* NewIterator() const override;
  /// In-place point lookup; see the file comment. Stateless, so concurrent
  /// readers share nothing.
  Status Get(const LookupKey& lkey, std::string* value, bool* found,
             Status* result_status) const override;
  uint64_t num_entries() const override { return num_entries_; }
  uint64_t size_bytes() const override { return size_bytes_; }
  Slice smallest() const override { return smallest_; }
  Slice largest() const override { return largest_; }
  uint64_t id() const override { return id_; }
  Status Destroy() override {
    doomed_ = true;
    return Status::OK();
  }
  ~PmTable() override {
    if (doomed_) pool_->Free(id_);
  }

  uint32_t num_groups() const { return num_groups_; }
  uint32_t num_metas() const { return num_metas_; }

 private:
  friend class PmTableIter;
  PmTable() = default;

  /// Checks every layout field the read paths trust; the image must fit in
  /// its `object_size`-byte pool object.
  Status Validate(uint64_t object_size);

  /// One decoded group-index entry.
  struct Group {
    const char* entries;  // first entry header in the entry layer
    uint32_t count;
    Slice meta;           // the group's meta component
    Slice prefix;         // slot[0:common_len], shared by every entry
  };
  Group GroupAt(uint32_t g) const;

  /// An entry's internal key as the pieces it is stored in (pm_table.cc).
  struct SplitKey;

  /// Parses the entry of `grp` at `p` into its key and value. Returns the
  /// next entry's start, or nullptr when the encoding runs past the table
  /// or the key is too short to hold an internal-key tag.
  const char* DecodeEntry(const Group& grp, const char* p, SplitKey* key,
                          Slice* value) const;

  /// Binary search over the group first keys: sets *group to the last group
  /// whose first key is <= `target` in internal order (0 when none is) and
  /// *probes to the number of groups probed. Corruption when a probed first
  /// entry is malformed. Charges nothing: the caller charges
  /// SearchBytes(probes) bytes in `probes` accesses.
  Status FindGroup(const Slice& target, uint32_t* group,
                   uint32_t* probes) const;
  /// PM bytes one search reads: a prefix slot plus a 16-byte group-index
  /// entry per probe.
  size_t SearchBytes(uint32_t probes) const {
    return probes * (prefix_width_ + 16);
  }

  // Decoded layout pointers (into the pool mapping).
  const char* base_ = nullptr;
  const char* meta_layer_ = nullptr;
  const char* prefix_layer_ = nullptr;
  const char* group_index_ = nullptr;
  const char* entry_layer_ = nullptr;
  const char* limit_ = nullptr;

  PmPool* pool_ = nullptr;
  uint64_t id_ = 0;
  bool doomed_ = false;  // free the pool object on destruction
  uint64_t size_bytes_ = 0;
  uint32_t num_entries_ = 0;
  uint32_t num_groups_ = 0;
  uint32_t num_metas_ = 0;
  uint32_t group_size_ = 0;
  uint32_t prefix_width_ = 0;

  // DRAM-side caches built at open.
  std::vector<Slice> metas_;  // views into the meta layer
  std::string smallest_;
  std::string largest_;
};

}  // namespace pmblade

#endif  // PMBLADE_PMTABLE_PM_TABLE_H_
