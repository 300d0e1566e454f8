// MetricsRegistry: the engine-wide catalogue of named counters, gauges and
// histograms. Hot paths touch relaxed atomics (Counter/Gauge) or a sharded
// histogram; Snapshot() produces a consistent, name-sorted copy of every
// registered metric that the exporters (obs/exporter.h) render as JSON or
// Prometheus text.
//
// Two registration styles:
//   * Owned instruments — GetCounter/GetGauge/GetHistogram create (or look
//     up) an instrument owned by the registry; callers cache the returned
//     pointer and update it lock-free.
//   * Pull callbacks — Register*Callback attach a function evaluated at
//     Snapshot() or Read() time, used to surface pre-existing counters
//     (DbStatistics, SsdModel, PmPool) and computed gauges (q_flush, level
//     sizes) without duplicating state.
//
// Naming convention: dot-separated lowercase paths under the "pmblade."
// root, e.g. "pmblade.reads.memtable", "pmblade.compaction.internal.count",
// "pmblade.io.q_flush". The Prometheus exporter maps '.' and '-' to '_'.

#ifndef PMBLADE_OBS_METRICS_H_
#define PMBLADE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/histogram.h"

namespace pmblade {
namespace obs {

class Counter {
 public:
  void Inc(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A histogram instrument backed by ShardedHistogram so concurrent
/// observers do not serialize on one mutex.
class HistogramMetric {
 public:
  void Observe(uint64_t value) { hist_.Add(value); }
  Histogram Snapshot() const { return hist_.Merged(); }

 private:
  ShardedHistogram hist_;
};

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* MetricKindName(MetricKind kind);

/// One metric's value at snapshot time.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  // counters and gauges
  Histogram hist;      // kind == kHistogram only
};

struct MetricsSnapshot {
  uint64_t taken_at_nanos = 0;
  std::vector<MetricSample> samples;  // sorted by name

  const MetricSample* Find(const std::string& name) const {
    for (const auto& sample : samples) {
      if (sample.name == name) return &sample;
    }
    return nullptr;
  }
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Look up or create an owned instrument. The returned pointer is stable
  /// for the registry's lifetime. Returns nullptr if `name` is already
  /// registered with a different kind.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  HistogramMetric* GetHistogram(const std::string& name);

  /// Pull-style metrics evaluated at Snapshot() time. The callback must be
  /// safe to invoke from any thread; it runs WITHOUT the registry lock held,
  /// so it may take unrelated locks (e.g. the DB mutex) freely.
  /// Re-registering an existing name replaces the callback.
  void RegisterCounterCallback(const std::string& name,
                               std::function<uint64_t()> fn);
  void RegisterGaugeCallback(const std::string& name,
                             std::function<double()> fn);
  void RegisterHistogramCallback(const std::string& name,
                                 std::function<Histogram()> fn);

  /// Bulk contributor evaluated at Snapshot() time, after the registry's
  /// own entries: appends arbitrarily many samples in one call. Used by
  /// ShardedDB to splice every shard's registry (prefixed per shard) plus
  /// cross-shard aggregates into the facade registry's snapshots without
  /// registering thousands of forwarding callbacks. Runs WITHOUT the
  /// registry lock held, same contract as the per-metric callbacks.
  void RegisterSnapshotProvider(
      std::function<void(std::vector<MetricSample>*)> fn);

  /// Consistent, name-sorted copy of every metric. Callback evaluation
  /// happens after the registry lock is released, so callbacks may take
  /// unrelated mutexes (e.g. the DB mutex) whose holders call GetCounter().
  MetricsSnapshot Snapshot(uint64_t now_nanos = 0) const;

  /// Current value of one counter or gauge, without a full snapshot: only
  /// `name`'s instrument or callback is evaluated, the callback outside the
  /// registry lock as in Snapshot(). Snapshot providers are not consulted.
  /// Returns false if `name` is not registered or is a histogram.
  bool Read(const std::string& name, double* value) const;

  size_t NumMetrics() const;

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    // Owned instruments (at most one set, matching `kind`).
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
    // Pull callbacks (used when the owned instrument is null).
    std::function<uint64_t()> counter_fn;
    std::function<double()> gauge_fn;
    std::function<Histogram()> histogram_fn;
  };
  // An entry's instruments and callbacks, copied under mu_ and evaluated
  // after it is released (defined in metrics.cc).
  struct Pending;

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // sorted by name
  std::vector<std::function<void(std::vector<MetricSample>*)>> providers_;
};

}  // namespace obs
}  // namespace pmblade

#endif  // PMBLADE_OBS_METRICS_H_
