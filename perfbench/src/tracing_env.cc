#include "tracing_env.h"

#include "trace.h"

namespace perfbench {

using pmblade::Slice;
using pmblade::Status;

namespace {

class TracingSequentialFile final : public pmblade::SequentialFile {
 public:
  TracingSequentialFile(std::unique_ptr<pmblade::SequentialFile> base,
                        FileKind kind)
      : base_(std::move(base)), kind_(kind) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    ScopedSpan span(SpanName::kEnvRead, kind_);
    Status s = base_->Read(n, result, scratch);
    span.set_bytes(s.ok() ? result->size() : 0);
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<pmblade::SequentialFile> base_;
  FileKind kind_;
};

class TracingRandomAccessFile final : public pmblade::RandomAccessFile {
 public:
  TracingRandomAccessFile(std::unique_ptr<pmblade::RandomAccessFile> base,
                          FileKind kind)
      : base_(std::move(base)), kind_(kind) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    ScopedSpan span(SpanName::kEnvRead, kind_);
    Status s = base_->Read(offset, n, result, scratch);
    span.set_bytes(s.ok() ? result->size() : 0);
    return s;
  }

 private:
  std::unique_ptr<pmblade::RandomAccessFile> base_;
  FileKind kind_;
};

class TracingWritableFile final : public pmblade::WritableFile {
 public:
  TracingWritableFile(std::unique_ptr<pmblade::WritableFile> base,
                      FileKind kind)
      : base_(std::move(base)), kind_(kind) {}

  Status Append(const Slice& data) override {
    ScopedSpan span(SpanName::kEnvAppend, kind_);
    span.set_bytes(data.size());
    return base_->Append(data);
  }
  Status Flush() override {
    ScopedSpan span(SpanName::kEnvFlush, kind_);
    return base_->Flush();
  }
  Status Sync() override {
    ScopedSpan span(SpanName::kEnvSync, kind_);
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<pmblade::WritableFile> base_;
  FileKind kind_;
};

}  // namespace

Status TracingEnv::NewSequentialFile(
    const std::string& fname,
    std::unique_ptr<pmblade::SequentialFile>* result) {
  const FileKind kind = FileKindOf(fname);
  std::unique_ptr<pmblade::SequentialFile> base;
  Status s;
  {
    ScopedSpan span(SpanName::kEnvOpen, kind);
    s = base_->NewSequentialFile(fname, &base);
  }
  if (s.ok()) result->reset(new TracingSequentialFile(std::move(base), kind));
  return s;
}

Status TracingEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<pmblade::RandomAccessFile>* result) {
  const FileKind kind = FileKindOf(fname);
  std::unique_ptr<pmblade::RandomAccessFile> base;
  Status s;
  {
    ScopedSpan span(SpanName::kEnvOpen, kind);
    s = base_->NewRandomAccessFile(fname, &base);
  }
  if (s.ok()) {
    result->reset(new TracingRandomAccessFile(std::move(base), kind));
  }
  return s;
}

Status TracingEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<pmblade::WritableFile>* result) {
  const FileKind kind = FileKindOf(fname);
  std::unique_ptr<pmblade::WritableFile> base;
  Status s;
  {
    ScopedSpan span(SpanName::kEnvOpen, kind);
    s = base_->NewWritableFile(fname, &base);
  }
  if (s.ok()) result->reset(new TracingWritableFile(std::move(base), kind));
  return s;
}

}  // namespace perfbench
