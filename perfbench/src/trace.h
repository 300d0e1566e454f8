// Span recorder for the traced benchmark run.
//
// A span has a name, a start, an end, a parent and an operation id; every
// span one client operation causes carries that operation's id. Spans live
// in per-thread memory (no locks on the recording path) and are written out
// once the run ends. Each thread also folds its spans into running
// aggregates as they close, so the per-layer numbers cover every span even
// when the stored span list is capped.
//
// Tracing is a process-wide switch: with it off, ScopedSpan costs one
// relaxed load and the recording code never runs.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Span names. Db* wrap DB API calls made by a client thread (or by the
/// RESP decorator on a server thread); Env* wrap file operations; Resp*
/// wrap one RESP request as the client sees it.
enum class SpanName : uint8_t {
  kDbGet,
  kDbPut,
  kDbWrite,
  kDbScan,
  kEnvRead,
  kEnvAppend,
  kEnvFlush,
  kEnvSync,
  kEnvOpen,
  kRespRequest,
  kNumNames,
};
constexpr int kNumSpanNames = static_cast<int>(SpanName::kNumNames);
const char* SpanNameString(SpanName name);

/// File kind of an Env span, from the file name.
enum class FileKind : uint8_t { kNone, kWal, kSst, kManifest, kOther };
constexpr int kNumFileKinds = 5;
const char* FileKindString(FileKind kind);
FileKind FileKindOf(const std::string& fname);

/// Thread role: a thread the benchmark owns (client) or any other thread
/// (background: flush, compaction, RESP server workers).
enum class Role : uint8_t { kBackground = 0, kClient = 1 };
constexpr int kNumRoles = 2;

/// Marks the calling thread as one the benchmark owns.
void SetClientThread();
Role CurrentRole();

struct SpanRecord {
  uint64_t op_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t bytes = 0;
  int32_t parent = -1;  // index into the same thread's span list, -1 = root
  SpanName name = SpanName::kDbGet;
  FileKind kind = FileKind::kNone;
  Role role = Role::kBackground;
};

/// Running totals for one (name, file kind, role, parent name) cell.
struct SpanAggregate {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;  // total minus the time covered by direct children
  uint64_t bytes = 0;
};

/// Parent slot for a root span in the aggregate table.
constexpr int kNoParent = kNumSpanNames;

class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its handle for End().
  /// `op_id` 0 inherits the enclosing span's operation (or starts a new
  /// one on a thread with no open span).
  int Begin(SpanName name, FileKind kind, uint64_t op_id);
  void End(int handle, uint64_t bytes);
  /// Records a finished root span with its own operation id, for work that
  /// does not nest on one thread (pipelined RESP requests).
  void RecordSpan(SpanName name, uint64_t start_ns, uint64_t end_ns);

  /// A fresh operation id.
  uint64_t NewOpId() { return next_op_.fetch_add(1, std::memory_order_relaxed); }

  /// Sums every thread's aggregates.
  struct Totals {
    SpanAggregate cell[kNumSpanNames][kNumFileKinds][kNumRoles]
                      [kNumSpanNames + 1];
    uint64_t stored = 0;
    uint64_t dropped = 0;

    /// Sum over the dimensions given as -1.
    SpanAggregate Sum(int name, int kind, int role, int parent) const;
  };
  Totals Collect() const;

  /// Writes every stored span as one JSON line each.
  bool WriteSpans(const std::string& path) const;

  /// Most spans one thread stores (aggregates keep counting past it).
  static constexpr size_t kMaxStoredPerThread = 50000;

  struct ThreadBuffer;

 private:
  Tracer() = default;
  ThreadBuffer* Local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_op_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  // guarded by mu_
};

/// RAII span; a no-op while tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanName name, FileKind kind = FileKind::kNone,
             uint64_t op_id = 0)
      : handle_(Tracer::Get().enabled()
                    ? Tracer::Get().Begin(name, kind, op_id)
                    : -1) {}
  ~ScopedSpan() {
    if (handle_ >= 0) Tracer::Get().End(handle_, bytes_);
  }
  void set_bytes(uint64_t bytes) { bytes_ = bytes; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int handle_;
  uint64_t bytes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
