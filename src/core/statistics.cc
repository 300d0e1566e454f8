#include "core/statistics.h"

#include <cstdio>
#include <unordered_map>

#include "obs/metrics.h"

namespace pmblade {

void DbStatistics::Reset() {
  for (auto& counter : reads_by_source_) counter.store(0);
  writes_.store(0);
  scans_.store(0);
  scan_entries_.store(0);
  user_bytes_written_.store(0);
  flushes_.store(0);
  internal_compactions_.store(0);
  internal_compaction_bytes_in_.store(0);
  internal_compaction_bytes_out_.store(0);
  major_compactions_.store(0);
  major_compaction_bytes_.store(0);
  get_latency_.Clear();
  put_latency_.Clear();
  scan_latency_.Clear();
}

void DbStatistics::AddFrom(const DbStatistics& other) {
  for (int i = 0; i < kNumReadSources; ++i) {
    reads_by_source_[i].fetch_add(other.reads_by_source_[i].load(),
                                  std::memory_order_relaxed);
  }
  writes_.fetch_add(other.writes_.load(), std::memory_order_relaxed);
  scans_.fetch_add(other.scans_.load(), std::memory_order_relaxed);
  scan_entries_.fetch_add(other.scan_entries_.load(),
                          std::memory_order_relaxed);
  user_bytes_written_.fetch_add(other.user_bytes_written_.load(),
                                std::memory_order_relaxed);
  flushes_.fetch_add(other.flushes_.load(), std::memory_order_relaxed);
  internal_compactions_.fetch_add(other.internal_compactions_.load(),
                                  std::memory_order_relaxed);
  internal_compaction_bytes_in_.fetch_add(
      other.internal_compaction_bytes_in_.load(), std::memory_order_relaxed);
  internal_compaction_bytes_out_.fetch_add(
      other.internal_compaction_bytes_out_.load(), std::memory_order_relaxed);
  major_compactions_.fetch_add(other.major_compactions_.load(),
                               std::memory_order_relaxed);
  major_compaction_bytes_.fetch_add(other.major_compaction_bytes_.load(),
                                    std::memory_order_relaxed);
  get_latency_.MergeIn(other.get_latency_.Merged());
  put_latency_.MergeIn(other.put_latency_.Merged());
  scan_latency_.MergeIn(other.scan_latency_.Merged());
}

void DbStatistics::RegisterWith(obs::MetricsRegistry* registry) {
  auto counter = [registry](const std::string& name,
                            const std::atomic<uint64_t>* src) {
    registry->RegisterCounterCallback(name, [src] { return src->load(); });
  };
  counter("pmblade.reads.memtable", &reads_by_source_[0]);
  counter("pmblade.reads.pm_l0", &reads_by_source_[1]);
  counter("pmblade.reads.ssd_l1", &reads_by_source_[2]);
  counter("pmblade.reads.miss", &reads_by_source_[3]);
  counter("pmblade.writes", &writes_);
  counter("pmblade.write.user_bytes", &user_bytes_written_);
  counter("pmblade.scans", &scans_);
  counter("pmblade.scan.entries", &scan_entries_);
  counter("pmblade.flush.count", &flushes_);
  counter("pmblade.compaction.internal.count", &internal_compactions_);
  counter("pmblade.compaction.internal.bytes_in",
          &internal_compaction_bytes_in_);
  counter("pmblade.compaction.internal.bytes_out",
          &internal_compaction_bytes_out_);
  counter("pmblade.compaction.major.count", &major_compactions_);
  counter("pmblade.compaction.major.bytes", &major_compaction_bytes_);

  registry->RegisterHistogramCallback(
      "pmblade.latency.get", [this] { return get_latency_.Merged(); });
  registry->RegisterHistogramCallback(
      "pmblade.latency.put", [this] { return put_latency_.Merged(); });
  registry->RegisterHistogramCallback(
      "pmblade.latency.scan", [this] { return scan_latency_.Merged(); });
}

std::string DbStatistics::ToString() const {
  char buf[512];
  snprintf(buf, sizeof(buf),
           "reads: mem=%llu pm=%llu ssd=%llu miss=%llu (pm-hit %.1f%%)\n"
           "writes=%llu (%llu B) scans=%llu\n"
           "flushes=%llu internal-compactions=%llu major-compactions=%llu",
           static_cast<unsigned long long>(reads(ReadSource::kMemtable)),
           static_cast<unsigned long long>(reads(ReadSource::kPmLevel0)),
           static_cast<unsigned long long>(reads(ReadSource::kSsdLevel1)),
           static_cast<unsigned long long>(reads(ReadSource::kNotFound)),
           PmHitRatio() * 100.0,
           static_cast<unsigned long long>(writes()),
           static_cast<unsigned long long>(user_bytes_written()),
           static_cast<unsigned long long>(scans()),
           static_cast<unsigned long long>(flushes()),
           static_cast<unsigned long long>(internal_compactions()),
           static_cast<unsigned long long>(major_compactions()));
  return buf;
}

bool ReadNumericProperty(
    const std::string& property,
    const std::function<bool(const std::string&, double*)>& read,
    uint64_t* value) {
  // Dashed property name -> the registry metric it aliases.
  static const std::unordered_map<std::string, std::string> kAliases = {
      // write pipeline
      {"pmblade.write-pressure", "pmblade.write.pressure"},
      {"pmblade.wal-syncs", "pmblade.wal.syncs"},
      {"pmblade.write-groups", "pmblade.write.groups"},
      {"pmblade.write-group-writes", "pmblade.write.group_writes"},
      {"pmblade.write-slowdowns", "pmblade.write.slowdowns"},
      {"pmblade.write-stalls", "pmblade.write.stalls"},
      {"pmblade.write-stall-nanos", "pmblade.write.stall_nanos"},
      {"pmblade.bg-flushes", "pmblade.flush.bg_flushes"},
      {"pmblade.memtable-limit", "pmblade.write.memtable_limit"},
      {"pmblade.open-snapshots", "pmblade.snapshots.open"},
      // cross-shard 2PC
      {"pmblade.txn-prepared", "pmblade.txn.prepared"},
      {"pmblade.txn-committed", "pmblade.txn.committed"},
      {"pmblade.txn-rolled-back", "pmblade.txn.rolled_back"},
      {"pmblade.txn-pending", "pmblade.txn.pending"},
      {"pmblade.txn-retained", "pmblade.txn.retained"},
      {"pmblade.txn-in-doubt", "pmblade.txn.in_doubt"},
      {"pmblade.txn-resolved-commit", "pmblade.txn.resolved_commit"},
      {"pmblade.txn-resolved-rollback", "pmblade.txn.resolved_rollback"},
      // compaction
      {"pmblade.compactions-completed", "pmblade.compaction.sched.completed"},
      {"pmblade.compactions-failed", "pmblade.compaction.sched.failed"},
      {"pmblade.compaction-retries", "pmblade.compaction.sched.retries"},
      {"pmblade.compaction-queue-depth", "pmblade.compaction.queue_depth"},
      {"pmblade.compaction-workers", "pmblade.compaction.workers"},
      {"pmblade.compaction-active", "pmblade.compaction.active"},
      {"pmblade.compaction-subcompactions",
       "pmblade.compaction.subcompactions"},
      {"pmblade.compaction-major-wall-nanos",
       "pmblade.compaction.major.wall_nanos"},
      {"pmblade.file-gc-failures", "pmblade.gc.remove_failures"},
      // bloom / cache / memory
      {"pmblade.bloom-checks", "pmblade.bloom.checks"},
      {"pmblade.bloom-negatives", "pmblade.bloom.negatives"},
      {"pmblade.bloom-false-positives", "pmblade.bloom.false_positives"},
      {"pmblade.blockcache-charge", "pmblade.blockcache.charge"},
      {"pmblade.blockcache-capacity", "pmblade.blockcache.capacity"},
      {"pmblade.mem-rebalances", "pmblade.mem.rebalances"},
      {"pmblade.pm-used-bytes", "pmblade.pm.used_bytes"},
      {"pmblade.pm-bytes-written", "pmblade.pm.bytes_written"},
      // LSM shape; ssd-bytes (historically l1-bytes) covers the whole SSD
      // run stack, not only level 1
      {"pmblade.num-partitions", "pmblade.lsm.num_partitions"},
      {"pmblade.num-unsorted-tables", "pmblade.lsm.unsorted_tables"},
      {"pmblade.num-sorted-tables", "pmblade.lsm.sorted_tables"},
      {"pmblade.l0-bytes", "pmblade.lsm.l0_bytes"},
      {"pmblade.l1-bytes", "pmblade.lsm.l1_bytes"},
      {"pmblade.ssd-bytes", "pmblade.lsm.l1_bytes"},
      {"pmblade.num-ssd-runs", "pmblade.lsm.ssd_runs"},
      {"pmblade.max-ssd-level", "pmblade.lsm.max_ssd_level"},
      // write amplification = ssd-bytes-written / ssd-user-bytes-written
      {"pmblade.ssd-bytes-written", "pmblade.compaction.major.bytes"},
      {"pmblade.ssd-user-bytes-written", "pmblade.write.user_bytes"},
      // sharding
      {"pmblade.num-shards", "pmblade.shards"},
  };
  auto alias = kAliases.find(property);
  const bool in_table = alias != kAliases.end();
  double v = 0;
  if (!read(in_table ? alias->second : property, &v) && !in_table) {
    return false;
  }
  *value = v > 0 ? static_cast<uint64_t>(v) : 0;
  return true;
}

}  // namespace pmblade
