// Tests for the observability subsystem (src/obs): MetricsRegistry
// semantics (Snapshot and single-metric Read), EventBus fan-out and
// ordering, TraceRecorder ring behaviour, the Prometheus/JSON exporters,
// and the JSON validator they are checked with.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/event.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "util/histogram.h"

namespace pmblade {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, GetCounterReturnsStablePointer) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("pmblade.test.counter");
  ASSERT_NE(a, nullptr);
  a->Inc();
  a->Inc(41);
  Counter* b = registry.GetCounter("pmblade.test.counter");
  ASSERT_EQ(a, b);
  ASSERT_EQ(b->Value(), 42u);
  ASSERT_EQ(registry.NumMetrics(), 1u);
}

TEST(MetricsRegistryTest, KindMismatchReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("m"), nullptr);
  ASSERT_EQ(registry.GetGauge("m"), nullptr);
  ASSERT_EQ(registry.GetHistogram("m"), nullptr);
  // The original instrument is untouched.
  ASSERT_NE(registry.GetCounter("m"), nullptr);
  ASSERT_EQ(registry.NumMetrics(), 1u);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("pmblade.test.gauge");
  ASSERT_NE(g, nullptr);
  g->Set(7);
  g->Add(-3);
  ASSERT_EQ(g->Value(), 4);
  MetricsSnapshot snap = registry.Snapshot();
  const MetricSample* sample = snap.Find("pmblade.test.gauge");
  ASSERT_NE(sample, nullptr);
  ASSERT_EQ(sample->kind, MetricKind::kGauge);
  ASSERT_EQ(sample->value, 4.0);
}

TEST(MetricsRegistryTest, HistogramMetricObserves) {
  MetricsRegistry registry;
  HistogramMetric* h = registry.GetHistogram("pmblade.test.hist");
  ASSERT_NE(h, nullptr);
  for (uint64_t v = 1; v <= 100; ++v) h->Observe(v);
  Histogram merged = h->Snapshot();
  ASSERT_EQ(merged.count(), 100u);
  ASSERT_EQ(merged.min(), 1u);
  ASSERT_EQ(merged.max(), 100u);
  MetricsSnapshot snap = registry.Snapshot();
  const MetricSample* sample = snap.Find("pmblade.test.hist");
  ASSERT_NE(sample, nullptr);
  ASSERT_EQ(sample->kind, MetricKind::kHistogram);
  ASSERT_EQ(sample->hist.count(), 100u);
}

TEST(MetricsRegistryTest, SnapshotIsNameSorted) {
  MetricsRegistry registry;
  registry.GetCounter("z.last");
  registry.GetCounter("a.first");
  registry.GetGauge("m.middle");
  MetricsSnapshot snap = registry.Snapshot(12345);
  ASSERT_EQ(snap.taken_at_nanos, 12345u);
  ASSERT_EQ(snap.samples.size(), 3u);
  for (size_t i = 1; i < snap.samples.size(); ++i) {
    ASSERT_LT(snap.samples[i - 1].name, snap.samples[i].name);
  }
}

TEST(MetricsRegistryTest, CounterCallbackEvaluatedAtSnapshot) {
  MetricsRegistry registry;
  uint64_t source = 5;
  registry.RegisterCounterCallback("pmblade.test.cb",
                                   [&source] { return source; });
  ASSERT_EQ(registry.Snapshot().Find("pmblade.test.cb")->value, 5.0);
  source = 99;
  ASSERT_EQ(registry.Snapshot().Find("pmblade.test.cb")->value, 99.0);
}

TEST(MetricsRegistryTest, GaugeCallback) {
  MetricsRegistry registry;
  registry.RegisterGaugeCallback("pmblade.test.g", [] { return 2.5; });
  MetricsSnapshot snap = registry.Snapshot();
  const MetricSample* sample = snap.Find("pmblade.test.g");
  ASSERT_NE(sample, nullptr);
  ASSERT_EQ(sample->kind, MetricKind::kGauge);
  ASSERT_EQ(sample->value, 2.5);
}

TEST(MetricsRegistryTest, HistogramCallback) {
  MetricsRegistry registry;
  registry.RegisterHistogramCallback("pmblade.test.h", [] {
    Histogram h;
    h.Add(10);
    h.Add(20);
    return h;
  });
  MetricsSnapshot snap = registry.Snapshot();
  const MetricSample* sample = snap.Find("pmblade.test.h");
  ASSERT_NE(sample, nullptr);
  ASSERT_EQ(sample->kind, MetricKind::kHistogram);
  ASSERT_EQ(sample->hist.count(), 2u);
  ASSERT_EQ(sample->hist.max(), 20u);
}

TEST(MetricsRegistryTest, CallbackTakesPrecedenceOverInstrument) {
  // Registering a callback over an existing instrument must not invalidate
  // cached instrument pointers, and the callback wins at snapshot time.
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("pmblade.test.dual");
  c->Inc(3);
  registry.RegisterCounterCallback("pmblade.test.dual", [] {
    return uint64_t{1000};
  });
  c->Inc(4);  // cached pointer still safe to use
  ASSERT_EQ(c->Value(), 7u);
  ASSERT_EQ(registry.Snapshot().Find("pmblade.test.dual")->value, 1000.0);
}

TEST(MetricsRegistryTest, SnapshotToleratesReentrantCallback) {
  // A callback that calls back into the registry (as DB code does when a
  // gauge callback locks a mutex whose holders call GetCounter) must not
  // deadlock: callbacks are evaluated after the registry lock is dropped.
  MetricsRegistry registry;
  registry.GetCounter("pmblade.test.inner")->Inc(11);
  registry.RegisterGaugeCallback("pmblade.test.reentrant", [&registry] {
    return static_cast<double>(
        registry.GetCounter("pmblade.test.inner")->Value());
  });
  MetricsSnapshot snap = registry.Snapshot();
  const MetricSample* sample = snap.Find("pmblade.test.reentrant");
  ASSERT_NE(sample, nullptr);
  ASSERT_EQ(sample->value, 11.0);
}

TEST(MetricsRegistryTest, ReadEvaluatesOneCounterOrGauge) {
  MetricsRegistry registry;
  registry.GetCounter("pmblade.test.owned")->Inc(5);
  registry.GetGauge("pmblade.test.owned_gauge")->Set(-3);
  registry.RegisterCounterCallback("pmblade.test.counter_fn",
                                   [] { return uint64_t{9}; });
  registry.RegisterGaugeCallback("pmblade.test.gauge_fn", [] { return 2.5; });
  double v = 0;
  ASSERT_TRUE(registry.Read("pmblade.test.owned", &v));
  EXPECT_EQ(v, 5.0);
  ASSERT_TRUE(registry.Read("pmblade.test.owned_gauge", &v));
  EXPECT_EQ(v, -3.0);
  ASSERT_TRUE(registry.Read("pmblade.test.counter_fn", &v));
  EXPECT_EQ(v, 9.0);
  ASSERT_TRUE(registry.Read("pmblade.test.gauge_fn", &v));
  EXPECT_EQ(v, 2.5);
}

TEST(MetricsRegistryTest, ReadRejectsAbsentAndHistogramNames) {
  MetricsRegistry registry;
  registry.GetHistogram("pmblade.test.hist")->Observe(7);
  registry.RegisterHistogramCallback("pmblade.test.hist_fn",
                                     [] { return Histogram(); });
  double v = 42;
  EXPECT_FALSE(registry.Read("pmblade.test.absent", &v));
  EXPECT_FALSE(registry.Read("pmblade.test.hist", &v));
  EXPECT_FALSE(registry.Read("pmblade.test.hist_fn", &v));
  EXPECT_EQ(v, 42.0);
}

TEST(MetricsRegistryTest, ReadRunsCallbackOutsideRegistryLock) {
  // Same lock-order contract as Snapshot(): the callback takes an outside
  // mutex whose holder calls GetCounter(). Evaluating the callback under
  // the registry lock would invert the order (a deadlock here, a
  // lock-order report under TSan).
  MetricsRegistry registry;
  std::mutex outside;
  registry.RegisterGaugeCallback("pmblade.test.locked", [&] {
    std::lock_guard<std::mutex> lock(outside);
    return static_cast<double>(
        registry.GetCounter("pmblade.test.inner")->Value());
  });
  constexpr int kRounds = 2000;
  std::thread holder([&] {
    for (int i = 0; i < kRounds; ++i) {
      std::lock_guard<std::mutex> lock(outside);
      registry.GetCounter("pmblade.test.inner")->Inc();
    }
  });
  double v = 0;
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(registry.Read("pmblade.test.locked", &v));
  }
  holder.join();
  ASSERT_TRUE(registry.Read("pmblade.test.locked", &v));
  EXPECT_EQ(v, static_cast<double>(kRounds));
}

TEST(MetricsRegistryTest, ConcurrentCounterIncrements) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("pmblade.test.mt");
  constexpr int kThreads = 8;
  constexpr int kIncsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kIncsPerThread; ++i) counter->Inc();
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * kIncsPerThread);
}

// ---------------------------------------------------------------------------
// Event / EventBus
// ---------------------------------------------------------------------------

TEST(EventTest, WithAppendsFieldsAndFieldOrReads) {
  Event e(EventType::kFlushEnd, 77);
  e.With("tables", 3).With("duration_nanos", 1500);
  ASSERT_EQ(e.num_fields, 2);
  ASSERT_EQ(e.FieldOr("tables", -1), 3.0);
  ASSERT_EQ(e.FieldOr("duration_nanos", -1), 1500.0);
  ASSERT_EQ(e.FieldOr("absent", -1), -1.0);
}

TEST(EventTest, WithDropsFieldsPastMax) {
  Event e(EventType::kFlushBegin, 0);
  for (int i = 0; i < Event::kMaxFields + 5; ++i) e.With("k", i);
  ASSERT_EQ(e.num_fields, Event::kMaxFields);
}

TEST(EventTest, ToJsonIsValidJson) {
  Event e(EventType::kInternalDecision, 42);
  e.With("partition", 1)
      .With("eq1_benefit_rate", 0.5)
      .With("eq1", 1)
      .WithDetail("[{\"partition\":1,\"kept\":true}]");
  std::string json = e.ToJson();
  size_t pos = 0;
  ASSERT_TRUE(JsonLint(json, &pos)) << json << " error at " << pos;
  ASSERT_NE(json.find("\"internal_decision\""), std::string::npos);
  ASSERT_NE(json.find("\"detail\""), std::string::npos);
}

class RecordingListener : public EventListener {
 public:
  explicit RecordingListener(std::vector<std::string>* log,
                             const std::string& name)
      : log_(log), name_(name) {}
  void OnEvent(const Event& event) override {
    log_->push_back(name_ + ":" + EventTypeName(event.type));
  }

 private:
  std::vector<std::string>* log_;
  std::string name_;
};

TEST(EventBusTest, InactiveWithoutListeners) {
  EventBus bus;
  ASSERT_FALSE(bus.active());
  // Emitting with no listeners is allowed and counts nothing delivered.
  bus.Emit(Event(EventType::kWalSync, 0));
  ASSERT_EQ(bus.emitted(), 0u);
}

TEST(EventBusTest, ListenersInvokedInSubscriptionOrder) {
  EventBus bus;
  std::vector<std::string> log;
  RecordingListener first(&log, "first");
  RecordingListener second(&log, "second");
  bus.Subscribe(&first);
  bus.Subscribe(&second);
  ASSERT_TRUE(bus.active());
  bus.Emit(Event(EventType::kFlushBegin, 0));
  bus.Emit(Event(EventType::kFlushEnd, 1));
  ASSERT_EQ(log.size(), 4u);
  ASSERT_EQ(log[0], "first:flush_begin");
  ASSERT_EQ(log[1], "second:flush_begin");
  ASSERT_EQ(log[2], "first:flush_end");
  ASSERT_EQ(log[3], "second:flush_end");
}

TEST(EventBusTest, UnsubscribeStopsDelivery) {
  EventBus bus;
  std::vector<std::string> log;
  RecordingListener a(&log, "a");
  RecordingListener b(&log, "b");
  bus.Subscribe(&a);
  bus.Subscribe(&b);
  bus.Unsubscribe(&a);
  ASSERT_TRUE(bus.active());
  bus.Emit(Event(EventType::kWalSync, 0));
  ASSERT_EQ(log.size(), 1u);
  ASSERT_EQ(log[0], "b:wal_sync");
  bus.Unsubscribe(&b);
  ASSERT_FALSE(bus.active());
  bus.Emit(Event(EventType::kWalSync, 1));
  ASSERT_EQ(log.size(), 1u);
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, KeepsEventsUnderCapacity) {
  TraceRecorder trace(8);
  for (int i = 0; i < 5; ++i) {
    Event e(EventType::kWalSync, static_cast<uint64_t>(i));
    e.With("bytes", i * 100);
    trace.OnEvent(e);
  }
  ASSERT_EQ(trace.recorded(), 5u);
  std::vector<Event> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(events[i].timestamp_nanos, static_cast<uint64_t>(i));
    ASSERT_EQ(events[i].FieldOr("bytes", -1), i * 100.0);
  }
}

TEST(TraceRecorderTest, RingWrapsKeepingNewestOldestFirst) {
  constexpr size_t kCapacity = 8;
  TraceRecorder trace(kCapacity);
  constexpr int kTotal = 27;
  for (int i = 0; i < kTotal; ++i) {
    trace.OnEvent(Event(EventType::kFlushBegin, static_cast<uint64_t>(i)));
  }
  ASSERT_EQ(trace.recorded(), static_cast<uint64_t>(kTotal));
  std::vector<Event> events = trace.Snapshot();
  ASSERT_EQ(events.size(), kCapacity);
  // The last kCapacity events, oldest first.
  for (size_t i = 0; i < kCapacity; ++i) {
    ASSERT_EQ(events[i].timestamp_nanos,
              static_cast<uint64_t>(kTotal - kCapacity + i));
  }
}

TEST(TraceRecorderTest, DumpJsonLinesEachLineValid) {
  TraceRecorder trace(4);
  for (int i = 0; i < 6; ++i) {
    Event e(EventType::kSsdQueueDepth, static_cast<uint64_t>(i));
    e.With("depth", i);
    trace.OnEvent(e);
  }
  std::string dump = trace.DumpJsonLines();
  std::stringstream ss(dump);
  std::string line;
  int lines = 0;
  while (std::getline(ss, line)) {
    if (line.empty()) continue;
    size_t pos = 0;
    ASSERT_TRUE(JsonLint(line, &pos)) << line << " error at " << pos;
    ++lines;
  }
  ASSERT_EQ(lines, 4);
}

TEST(TraceRecorderTest, ConcurrentRecordingLosesNothingInTotal) {
  constexpr size_t kCapacity = 64;
  TraceRecorder trace(kCapacity);
  EventBus bus;
  bus.Subscribe(&trace);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bus, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Event e(EventType::kIoGateChange,
                static_cast<uint64_t>(t) * kPerThread + i);
        e.With("budget", i);
        bus.Emit(e);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(trace.recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  // Every surviving slot holds a distinct ticket from the final window; the
  // snapshot never exceeds capacity and timestamps are unique.
  std::vector<Event> events = trace.Snapshot();
  ASSERT_LE(events.size(), kCapacity);
  std::set<uint64_t> stamps;
  for (const auto& e : events) stamps.insert(e.timestamp_nanos);
  ASSERT_EQ(stamps.size(), events.size());
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ExporterTest, ToPrometheusNameMapsIllegalChars) {
  ASSERT_EQ(ToPrometheusName("pmblade.reads.memtable"),
            "pmblade_reads_memtable");
  ASSERT_EQ(ToPrometheusName("a-b.c:d_e9"), "a_b_c:d_e9");
  ASSERT_EQ(ToPrometheusName("plain"), "plain");
}

TEST(ExporterTest, PrometheusEmitsTypeAndSampleLines) {
  MetricsRegistry registry;
  registry.GetCounter("pmblade.x.count")->Inc(12);
  registry.GetGauge("pmblade.x.gauge")->Set(-3);
  std::string text = ExportPrometheus(registry.Snapshot());
  ASSERT_NE(text.find("# TYPE pmblade_x_count counter"), std::string::npos);
  ASSERT_NE(text.find("pmblade_x_count 12"), std::string::npos);
  ASSERT_NE(text.find("# TYPE pmblade_x_gauge gauge"), std::string::npos);
  ASSERT_NE(text.find("pmblade_x_gauge -3"), std::string::npos);
}

TEST(ExporterTest, PrometheusHistogramHasBucketsSumCount) {
  MetricsRegistry registry;
  HistogramMetric* h = registry.GetHistogram("pmblade.x.lat");
  h->Observe(1);
  h->Observe(100);
  h->Observe(100000);
  std::string text = ExportPrometheus(registry.Snapshot());
  ASSERT_NE(text.find("# TYPE pmblade_x_lat histogram"), std::string::npos);
  ASSERT_NE(text.find("pmblade_x_lat_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  ASSERT_NE(text.find("pmblade_x_lat_count 3"), std::string::npos);
  ASSERT_NE(text.find("pmblade_x_lat_sum"), std::string::npos);
}

TEST(ExporterTest, PrometheusLinesAreParseable) {
  MetricsRegistry registry;
  registry.GetCounter("pmblade.a")->Inc();
  registry.GetGauge("pmblade.b")->Set(5);
  registry.GetHistogram("pmblade.c")->Observe(42);
  std::string text = ExportPrometheus(registry.Snapshot());
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      ASSERT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      continue;
    }
    // "name[{labels}] value"
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string value = line.substr(space + 1);
    ASSERT_FALSE(value.empty()) << line;
    char* end = nullptr;
    strtod(value.c_str(), &end);
    ASSERT_EQ(*end, '\0') << line;
    std::string name = line.substr(0, space);
    for (char c : name.substr(0, name.find('{'))) {
      bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                   (c >= '0' && c <= '9') || c == '_' || c == ':';
      ASSERT_TRUE(legal) << line;
    }
  }
}

TEST(ExporterTest, JsonExportIsValidAndCarriesEvents) {
  MetricsRegistry registry;
  registry.GetCounter("pmblade.j.count")->Inc(9);
  registry.GetHistogram("pmblade.j.hist")->Observe(10);
  Event e(EventType::kFlushEnd, 5);
  e.With("tables", 2);
  std::string json = ExportJson(registry.Snapshot(123), {e});
  size_t pos = 0;
  ASSERT_TRUE(JsonLint(json, &pos)) << json << " error at " << pos;
  ASSERT_NE(json.find("\"ts\":123"), std::string::npos);
  ASSERT_NE(json.find("\"pmblade.j.count\":9"), std::string::npos);
  ASSERT_NE(json.find("\"pmblade.j.hist\""), std::string::npos);
  ASSERT_NE(json.find("\"flush_end\""), std::string::npos);
}

TEST(ExporterTest, JsonExportEmptyRegistryStillValid) {
  MetricsRegistry registry;
  std::string json = ExportJson(registry.Snapshot(), {});
  size_t pos = 0;
  ASSERT_TRUE(JsonLint(json, &pos)) << json << " error at " << pos;
  ASSERT_NE(json.find("\"events\":[]"), std::string::npos);
}

TEST(JsonLintTest, AcceptsValidDocuments) {
  for (const char* doc : {
           "{}",
           "[]",
           "null",
           "true",
           "-12.5e3",
           "\"str with \\\" escape\"",
           "{\"a\":[1,2,{\"b\":null}],\"c\":\"\\u0041\"}",
           "[1, 2, 3]",
       }) {
    ASSERT_TRUE(JsonLint(doc)) << doc;
  }
}

TEST(JsonLintTest, RejectsInvalidDocuments) {
  for (const char* doc : {
           "",
           "{",
           "[1,]",
           "{\"a\":}",
           "{'a':1}",
           "nul",
           "01",
           "{} extra",
           "\"unterminated",
           "{\"a\" 1}",
       }) {
    size_t pos = 0;
    ASSERT_FALSE(JsonLint(doc, &pos)) << doc;
  }
}

// ---------------------------------------------------------------------------
// ShardedHistogram
// ---------------------------------------------------------------------------

TEST(ShardedHistogramTest, MergedCombinesAllShards) {
  ShardedHistogram hist(4);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 1; i <= kPerThread; ++i) {
        hist.Add(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  Histogram merged = hist.Merged();
  ASSERT_EQ(merged.count(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  ASSERT_EQ(merged.min(), 1u);
  ASSERT_EQ(merged.max(), static_cast<uint64_t>(kPerThread));
}

TEST(ShardedHistogramTest, ClearResetsEveryShard) {
  ShardedHistogram hist;
  hist.Add(5);
  hist.Add(50);
  ASSERT_EQ(hist.Merged().count(), 2u);
  hist.Clear();
  ASSERT_EQ(hist.Merged().count(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace pmblade
