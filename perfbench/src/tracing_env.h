// TracingEnv: an Env decorator that records one span per file operation,
// tagged by file kind (WAL, SSTable, manifest) and by the role of the
// calling thread. It sits under the engine's Env (and its raw_env), so the
// engine sees an ordinary Env and the spans time the real file work.

#ifndef PERFBENCH_TRACING_ENV_H_
#define PERFBENCH_TRACING_ENV_H_

#include <memory>
#include <string>
#include <vector>

#include "env/env.h"

namespace perfbench {

class TracingEnv final : public pmblade::Env {
 public:
  /// `base` is not owned and must outlive this Env.
  explicit TracingEnv(pmblade::Env* base) : base_(base) {}

  pmblade::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<pmblade::SequentialFile>* result) override;
  pmblade::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<pmblade::RandomAccessFile>* result) override;
  pmblade::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<pmblade::WritableFile>* result) override;

  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  pmblade::Status GetChildren(const std::string& dir,
                              std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  pmblade::Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  pmblade::Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  pmblade::Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  pmblade::Status GetFileSize(const std::string& fname,
                              uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  pmblade::Status RenameFile(const std::string& src,
                             const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  pmblade::Env* base_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_ENV_H_
