// TracingDB: a DB decorator that records one span per engine call. The RESP
// workload hands it to net::Server, so the spans show how much of a
// request's time the engine took on the server's worker thread; the rest is
// the net layer's (parse, dispatch, reply, socket).

#ifndef PERFBENCH_TRACING_DB_H_
#define PERFBENCH_TRACING_DB_H_

#include <string>

#include "core/db.h"
#include "trace.h"

namespace perfbench {

class TracingDB final : public pmblade::DB {
 public:
  /// `base` is not owned and must outlive this object.
  explicit TracingDB(pmblade::DB* base) : base_(base) {}

  using pmblade::DB::Delete;
  using pmblade::DB::Get;
  using pmblade::DB::GetProperty;
  using pmblade::DB::GetWritePressure;
  using pmblade::DB::Put;

  pmblade::Status Put(const pmblade::WriteOptions& options,
                      const pmblade::Slice& key,
                      const pmblade::Slice& value) override {
    ScopedSpan span(SpanName::kDbPut);
    return base_->Put(options, key, value);
  }
  pmblade::Status Delete(const pmblade::WriteOptions& options,
                         const pmblade::Slice& key) override {
    ScopedSpan span(SpanName::kDbWrite);
    return base_->Delete(options, key);
  }
  pmblade::Status Write(const pmblade::WriteOptions& options,
                        pmblade::WriteBatch* batch) override {
    ScopedSpan span(SpanName::kDbWrite);
    return base_->Write(options, batch);
  }
  pmblade::Status Get(const pmblade::ReadOptions& options,
                      const pmblade::Slice& key, std::string* value) override {
    ScopedSpan span(SpanName::kDbGet);
    return base_->Get(options, key, value);
  }
  pmblade::Iterator* NewIterator(
      const pmblade::ReadOptions& options) override;

  uint64_t GetSnapshot() override { return base_->GetSnapshot(); }
  void ReleaseSnapshot(uint64_t snapshot) override {
    base_->ReleaseSnapshot(snapshot);
  }
  pmblade::Status FlushMemTable() override { return base_->FlushMemTable(); }
  pmblade::Status CompactLevel0() override { return base_->CompactLevel0(); }
  pmblade::Status CompactToLevel1(bool respect_cost_model) override {
    return base_->CompactToLevel1(respect_cost_model);
  }
  const pmblade::DbStatistics& statistics() const override {
    return static_cast<const pmblade::DB*>(base_)->statistics();
  }
  pmblade::DbStatistics& statistics() override { return base_->statistics(); }
  bool GetProperty(const std::string& property, uint64_t* value) override {
    return base_->GetProperty(property, value);
  }
  bool GetProperty(const std::string& property, std::string* value) override {
    return base_->GetProperty(property, value);
  }
  pmblade::WritePressure GetWritePressure() override {
    return base_->GetWritePressure();
  }
  pmblade::WritePressure GetWritePressure(const pmblade::Slice& key) override {
    return base_->GetWritePressure(key);
  }
  pmblade::WritePressure GetShardWritePressure(uint32_t shard) override {
    return base_->GetShardWritePressure(shard);
  }
  uint32_t num_shards() const override { return base_->num_shards(); }
  pmblade::obs::MetricsRegistry* metrics_registry() override {
    return base_->metrics_registry();
  }

 private:
  pmblade::DB* base_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_DB_H_
