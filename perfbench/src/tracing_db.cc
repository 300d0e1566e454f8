#include "tracing_db.h"

#include <memory>

namespace perfbench {

namespace {

// Spans an iterator's whole life (creation, seeks, steps, teardown) as one
// db.scan span.
class TracingIterator final : public pmblade::Iterator {
 public:
  TracingIterator(std::unique_ptr<ScopedSpan> span, pmblade::Iterator* base)
      : span_(std::move(span)), base_(base) {}
  ~TracingIterator() override {
    base_.reset();
    span_.reset();
  }

  bool Valid() const override { return base_->Valid(); }
  void SeekToFirst() override { base_->SeekToFirst(); }
  void SeekToLast() override { base_->SeekToLast(); }
  void Seek(const pmblade::Slice& target) override { base_->Seek(target); }
  void Next() override { base_->Next(); }
  void Prev() override { base_->Prev(); }
  pmblade::Slice key() const override { return base_->key(); }
  pmblade::Slice value() const override { return base_->value(); }
  pmblade::Status status() const override { return base_->status(); }

 private:
  std::unique_ptr<ScopedSpan> span_;
  std::unique_ptr<pmblade::Iterator> base_;
};

}  // namespace

pmblade::Iterator* TracingDB::NewIterator(
    const pmblade::ReadOptions& options) {
  auto span = std::make_unique<ScopedSpan>(SpanName::kDbScan);
  pmblade::Iterator* base = base_->NewIterator(options);
  return new TracingIterator(std::move(span), base);
}

}  // namespace perfbench
