// Version: the DB's published read view (SuperVersion) and a partition's
// immutable table set, plus the iterators over table runs and read-path
// lookups shared by the DB implementation.

#ifndef PMBLADE_CORE_VERSION_H_
#define PMBLADE_CORE_VERSION_H_

#include <memory>
#include <string>
#include <vector>

#include "memtable/internal_key.h"
#include "pmtable/l0_table.h"
#include "util/iterator.h"

namespace pmblade {

class MemTable;

/// Concatenating iterator over a RUN: a vector of non-overlapping tables in
/// ascending key order. Seek binary-searches table boundaries, then the
/// table. The run vector is copied (shared_ptrs), so the iterator stays
/// valid across version changes.
Iterator* NewRunIterator(const InternalKeyComparator* icmp,
                         std::vector<L0TableRef> run);

/// Point lookup in a run: picks the candidate table by boundary binary
/// search, then the following tables while they start with the same user
/// key. Same out-parameters as L0TableGet (including the optional bloom
/// probe accounting).
Status RunGet(const std::vector<L0TableRef>& run,
              const InternalKeyComparator& icmp, const LookupKey& lkey,
              std::string* value, bool* found, Status* result_status,
              ReadProbeStats* probe = nullptr);

/// One sorted run of SSD SSTables (ascending key order) plus its policy
/// level tag. Level 0 is the PM side; SSD runs start at level 1.
struct SsdRun {
  uint32_t level = 1;
  std::vector<L0TableRef> tables;  // ascending key order

  uint64_t bytes() const {
    uint64_t total = 0;
    for (const auto& table : tables) total += table->size_bytes();
    return total;
  }
};

/// One partition's table set, published as one slot of a SuperVersion. A
/// published set is immutable: readers and compactions hold it by
/// shared_ptr and probe it without the DB mutex, and a change publishes an
/// edited copy instead (see SuperVersion below).
struct PartitionSnapshot {
  std::string begin_key;  // user keys; empty = unbounded
  std::string end_key;
  std::vector<L0TableRef> unsorted;  // newest first
  std::vector<L0TableRef> sorted_run;
  /// SSD run stack, newest first; level tags non-decreasing with depth.
  std::vector<SsdRun> ssd_runs;

  /// Total level-0 bytes (s_i).
  uint64_t L0Bytes() const {
    uint64_t total = 0;
    for (const auto& table : unsorted) total += table->size_bytes();
    for (const auto& table : sorted_run) total += table->size_bytes();
    return total;
  }
  /// Total SSD bytes across every run in the stack. (Under the leveled
  /// policy the stack is at most one level-1 run, so this is the paper's
  /// level-1 size.)
  uint64_t SsdBytes() const {
    uint64_t total = 0;
    for (const auto& run : ssd_runs) total += run.bytes();
    return total;
  }
  /// The deepest level tag in the run stack (0 when no SSD runs exist).
  uint32_t MaxSsdLevel() const {
    return ssd_runs.empty() ? 0 : ssd_runs.back().level;
  }
};

/// Everything a read consults, published as one immutable value: the active
/// memtable, the memtable being flushed (or nullptr) and every partition's
/// table set, aligned by index with the DB's partition list.
///
/// Publish rule: the DB holds the current SuperVersion by shared_ptr under
/// its mutex, and a published SuperVersion is never edited in place.
///   * A reader copies the pointer under the mutex and probes everything
///     lock-free afterwards. The memtable references and the deferred
///     L0Table::Destroy (storage freed at the last ref drop) keep a held
///     SuperVersion's memtables and tables valid across later installs.
///   * Every change (memtable switch, recovery, flush, compaction install)
///     copies the current SuperVersion, edits the copy and swaps it in, all
///     under the mutex.
///   * A compaction merges a partition's set `before` with the mutex
///     released, then edits the set current at install time, not `before`:
///     a flush may have prepended tables meanwhile, and they stay above the
///     output. Partition::RemoveTables drops exactly `before`'s inputs. Only
///     the worker that CLAIMED the partition (db_impl.h) removes tables or
///     edits the sorted run and SSD stack.
struct SuperVersion {
  std::shared_ptr<MemTable> mem;
  std::shared_ptr<MemTable> imm;  // being flushed, else nullptr
  std::vector<std::shared_ptr<const PartitionSnapshot>> parts;

  /// A fresh memtable for `mem`. Its one reference is taken here and
  /// dropped when the last SuperVersion holding it is destroyed; iterators
  /// take their own.
  static std::shared_ptr<MemTable> NewMemTable(
      const InternalKeyComparator& icmp);
};

/// Lazy concatenating iterator over range-disjoint partitions: only the
/// partition under the cursor has its tables open, so a Seek costs one
/// partition's worth of child seeks instead of the whole database's.
Iterator* NewPartitionConcatIterator(
    const InternalKeyComparator* icmp,
    std::vector<std::shared_ptr<const PartitionSnapshot>> parts);

/// Wraps a merged internal-key iterator into the user-visible view at
/// `snapshot`: hides newer-than-snapshot entries, surfaces only the newest
/// visible version per user key, skips tombstones. Takes ownership of
/// `internal`. Shared by pmblade::DB and the baseline engines.
Iterator* NewUserIterator(Iterator* internal,
                          const InternalKeyComparator* icmp,
                          SequenceNumber snapshot);

}  // namespace pmblade

#endif  // PMBLADE_CORE_VERSION_H_
