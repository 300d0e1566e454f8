// Partition: one key-range shard of the partitioned LSM-tree (Section III).
// Its table set is not stored here: it is slot index() of the DB's published
// SuperVersion (version.h), an immutable PartitionSnapshot holding
//   * a list of UNSORTED level-0 tables (newest first, mutually
//     overlapping — flushed memtable segments),
//   * one SORTED level-0 run (non-overlapping tables, the output of the
//     last internal compaction),
//   * a stack of SSD runs (newest first; each run is non-overlapping
//     SSTables tagged with a compaction-policy level). The leveled policy
//     keeps at most one run, tagged level 1 — the paper's single level-1
//     run; tiered / lazy-leveling policies stack several runs whose level
//     tags are non-decreasing with depth.
// A Partition holds what does not change with the table set: its fixed key
// range and the counters the cost models consume (n_i^r, n_i^w, n_i^u,
// reads/sec), reset whenever the partition is compacted.

#ifndef PMBLADE_CORE_PARTITION_H_
#define PMBLADE_CORE_PARTITION_H_

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "compaction/cost_model.h"
#include "core/version.h"
#include "memtable/internal_key.h"
#include "pmtable/l0_table.h"
#include "util/clock.h"

namespace pmblade {

class Partition {
 public:
  /// `begin` inclusive, `end` exclusive over user keys; empty begin = -inf,
  /// empty end = +inf. `index` is the partition's position in the DB's
  /// ascending partition list, and so its slot in SuperVersion::parts.
  Partition(uint64_t id, size_t index, std::string begin, std::string end,
            Clock* clock)
      : id_(id), index_(index), begin_(std::move(begin)),
        end_(std::move(end)), clock_(clock),
        counter_epoch_nanos_(clock->NowNanos()) {}

  uint64_t id() const { return id_; }
  size_t index() const { return index_; }
  const std::string& begin_key() const { return begin_; }
  const std::string& end_key() const { return end_; }

  bool Contains(const Slice& user_key) const {
    if (!begin_.empty() && user_key.compare(Slice(begin_)) < 0) return false;
    if (!end_.empty() && user_key.compare(Slice(end_)) >= 0) return false;
    return true;
  }

  /// Removes exactly the tables in `snapshot` (by table identity) from
  /// `from`, preserving the order of everything else. Install step of a
  /// compaction: `from` is a copy of the current set, `snapshot` the
  /// compaction's inputs; tables that arrived since (flushed tables at the
  /// front of unsorted) are untouched. See SuperVersion for the publish
  /// rule.
  static void RemoveTables(std::vector<L0TableRef>* from,
                           const std::vector<L0TableRef>& snapshot) {
    from->erase(std::remove_if(from->begin(), from->end(),
                               [&snapshot](const L0TableRef& table) {
                                 for (const auto& snap : snapshot) {
                                   if (snap.get() == table.get()) return true;
                                 }
                                 return false;
                               }),
                from->end());
  }

  // ---- cost-model counters ----
  // Lock-free: Get bumps NoteRead and the group-commit leader runs NoteWrite
  // without the DB mutex (the Eq. 2 probe happens in the unlocked
  // WAL/memtable section of the write pipeline).
  void NoteRead() { reads_.fetch_add(1, std::memory_order_relaxed); }
  void NoteWrite(bool is_update) {
    writes_.fetch_add(1, std::memory_order_relaxed);
    if (is_update) updates_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Snapshot of counters in the cost model's shape; the table counts and
  /// s_i come from `tables`, this partition's published set.
  PartitionCounters Counters(const PartitionSnapshot& tables) const {
    PartitionCounters counters;
    counters.partition_id = id_;
    counters.unsorted_tables = static_cast<uint32_t>(tables.unsorted.size());
    counters.sorted_tables = static_cast<uint32_t>(tables.sorted_run.size());
    counters.size_bytes = tables.L0Bytes();
    counters.reads = reads_.load(std::memory_order_relaxed);
    counters.writes = writes_.load(std::memory_order_relaxed);
    counters.updates = updates_.load(std::memory_order_relaxed);
    uint64_t elapsed = clock_->NowNanos() - counter_epoch_nanos_;
    counters.reads_per_sec =
        elapsed > 0 ? static_cast<double>(counters.reads) * 1e9 / elapsed
                    : 0.0;
    return counters;
  }

  /// Called after any compaction touches this partition ("re-zeroed when a
  /// major compaction or internal compaction occurs").
  void ResetCounters() {
    reads_.store(0, std::memory_order_relaxed);
    writes_.store(0, std::memory_order_relaxed);
    updates_.store(0, std::memory_order_relaxed);
    counter_epoch_nanos_ = clock_->NowNanos();
  }

 private:
  uint64_t id_;
  size_t index_;
  std::string begin_;
  std::string end_;
  Clock* clock_;

  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> updates_{0};
  uint64_t counter_epoch_nanos_;
};

}  // namespace pmblade

#endif  // PMBLADE_CORE_PARTITION_H_
