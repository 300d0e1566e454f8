#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

thread_local Role tls_role = Role::kBackground;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

const char* SpanNameString(SpanName name) {
  static const char* kNames[] = {
      "db.get",    "db.put",   "db.write", "db.scan",     "env.read",
      "env.append", "env.flush", "env.sync", "env.open", "resp.request"};
  return kNames[static_cast<int>(name)];
}

const char* FileKindString(FileKind kind) {
  static const char* kNames[] = {"-", "log", "sst", "manifest", "other"};
  return kNames[static_cast<int>(kind)];
}

FileKind FileKindOf(const std::string& fname) {
  if (EndsWith(fname, ".log")) return FileKind::kWal;
  if (EndsWith(fname, ".sst")) return FileKind::kSst;
  const size_t slash = fname.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? fname : fname.substr(slash + 1);
  if (base.rfind("MANIFEST", 0) == 0 || base == "CURRENT") {
    return FileKind::kManifest;
  }
  return FileKind::kOther;
}

void SetClientThread() { tls_role = Role::kClient; }
Role CurrentRole() { return tls_role; }

struct Tracer::ThreadBuffer {
  struct Open {
    uint64_t op_id;
    uint64_t start_ns;
    uint64_t child_ns;
    int32_t stored;  // index into spans, -1 past the storage cap
    SpanName name;
    FileKind kind;
    int parent_name;
  };
  uint32_t thread_index = 0;
  Role role = Role::kBackground;
  std::vector<SpanRecord> spans;
  std::vector<Open> open;
  uint64_t dropped = 0;
  SpanAggregate cell[kNumSpanNames][kNumFileKinds][kNumSpanNames + 1];
};

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // never destroyed: threads may
                                         // outlive static destruction
  return *tracer;
}

Tracer::ThreadBuffer* Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->role = tls_role;
    buffer->spans.reserve(4096);
    std::lock_guard<std::mutex> lock(mu_);
    buffer->thread_index = static_cast<uint32_t>(buffers_.size());
    local = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return local;
}

int Tracer::Begin(SpanName name, FileKind kind, uint64_t op_id) {
  ThreadBuffer* buf = Local();
  buf->role = tls_role;
  const ThreadBuffer::Open* parent =
      buf->open.empty() ? nullptr : &buf->open.back();
  if (op_id == 0) op_id = parent != nullptr ? parent->op_id : NewOpId();
  int32_t stored = -1;
  const uint64_t now = NowNanos();
  if (buf->spans.size() < kMaxStoredPerThread) {
    SpanRecord rec;
    rec.op_id = op_id;
    rec.start_ns = now;
    rec.parent = parent != nullptr ? parent->stored : -1;
    rec.name = name;
    rec.kind = kind;
    rec.role = buf->role;
    stored = static_cast<int32_t>(buf->spans.size());
    buf->spans.push_back(rec);
  } else {
    ++buf->dropped;
  }
  buf->open.push_back(ThreadBuffer::Open{
      op_id, now, 0, stored, name, kind,
      parent != nullptr ? static_cast<int>(parent->name) : kNoParent});
  return static_cast<int>(buf->open.size()) - 1;
}

void Tracer::End(int handle, uint64_t bytes) {
  ThreadBuffer* buf = Local();
  if (handle != static_cast<int>(buf->open.size()) - 1) return;  // misuse
  const ThreadBuffer::Open span = buf->open.back();
  buf->open.pop_back();
  const uint64_t now = NowNanos();
  const uint64_t duration = now - span.start_ns;
  SpanAggregate& agg = buf->cell[static_cast<int>(span.name)]
                                [static_cast<int>(span.kind)]
                                [span.parent_name];
  agg.count += 1;
  agg.total_ns += duration;
  agg.self_ns += duration > span.child_ns ? duration - span.child_ns : 0;
  agg.bytes += bytes;
  if (!buf->open.empty()) buf->open.back().child_ns += duration;
  if (span.stored >= 0) {
    SpanRecord& rec = buf->spans[span.stored];
    rec.end_ns = now;
    rec.bytes = bytes;
  }
}

void Tracer::RecordSpan(SpanName name, uint64_t start_ns, uint64_t end_ns) {
  ThreadBuffer* buf = Local();
  buf->role = tls_role;
  SpanAggregate& agg =
      buf->cell[static_cast<int>(name)][static_cast<int>(FileKind::kNone)]
               [kNoParent];
  agg.count += 1;
  agg.total_ns += end_ns - start_ns;
  agg.self_ns += end_ns - start_ns;
  if (buf->spans.size() < kMaxStoredPerThread) {
    SpanRecord rec;
    rec.op_id = NewOpId();
    rec.start_ns = start_ns;
    rec.end_ns = end_ns;
    rec.name = name;
    rec.role = buf->role;
    buf->spans.push_back(rec);
  } else {
    ++buf->dropped;
  }
}

SpanAggregate Tracer::Totals::Sum(int name, int kind, int role,
                                  int parent) const {
  SpanAggregate out;
  for (int n = 0; n < kNumSpanNames; ++n) {
    if (name >= 0 && n != name) continue;
    for (int k = 0; k < kNumFileKinds; ++k) {
      if (kind >= 0 && k != kind) continue;
      for (int r = 0; r < kNumRoles; ++r) {
        if (role >= 0 && r != role) continue;
        for (int p = 0; p <= kNumSpanNames; ++p) {
          if (parent >= 0 && p != parent) continue;
          const SpanAggregate& c = cell[n][k][r][p];
          out.count += c.count;
          out.total_ns += c.total_ns;
          out.self_ns += c.self_ns;
          out.bytes += c.bytes;
        }
      }
    }
  }
  return out;
}

Tracer::Totals Tracer::Collect() const {
  Totals totals{};
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    const int r = static_cast<int>(buf->role);
    for (int n = 0; n < kNumSpanNames; ++n) {
      for (int k = 0; k < kNumFileKinds; ++k) {
        for (int p = 0; p <= kNumSpanNames; ++p) {
          const SpanAggregate& c = buf->cell[n][k][p];
          SpanAggregate& t = totals.cell[n][k][r][p];
          t.count += c.count;
          t.total_ns += c.total_ns;
          t.self_ns += c.self_ns;
          t.bytes += c.bytes;
        }
      }
    }
    totals.stored += buf->spans.size();
    totals.dropped += buf->dropped;
  }
  return totals;
}

bool Tracer::WriteSpans(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    for (const SpanRecord& s : buf->spans) {
      if (s.end_ns == 0) continue;  // still open when the run ended
      std::fprintf(f,
                   "{\"thread\":%u,\"op\":%llu,\"name\":\"%s\",\"file\":\"%s\","
                   "\"role\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                   "\"parent\":%d,\"bytes\":%llu}\n",
                   buf->thread_index, static_cast<unsigned long long>(s.op_id),
                   SpanNameString(s.name), FileKindString(s.kind),
                   s.role == Role::kClient ? "client" : "background",
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.bytes));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
