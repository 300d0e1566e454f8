#include "harness.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <thread>

#include "core/sharded_db.h"
#include "memtable/write_batch.h"
#include "pm/pm_pool.h"
#include "trace.h"

namespace perfbench {

using pmblade::Status;

namespace {

constexpr double kTauM = 64.0 * 1024 * 1024;  // CostModelParams::tau_m
constexpr int kPartitions = 16;
constexpr int kLoadBatch = 32;
constexpr int kCpuSampleEvery = 8;
// A window in which the host stole under this share of the VM's CPU time
// (4 of the 400 ticks a second of a 4-vCPU VM) counts as calm.
constexpr double kCalmSteal = 0.01;
constexpr int kExitSetupFailed = 3;

Mix MakeMix(int get, int get_absent, int put, int scan, int multi_get,
            int multi_put) {
  Mix mix;
  mix.permille[static_cast<int>(OpKind::kGet)] = get;
  mix.permille[static_cast<int>(OpKind::kGetAbsent)] = get_absent;
  mix.permille[static_cast<int>(OpKind::kPut)] = put;
  mix.permille[static_cast<int>(OpKind::kScan)] = scan;
  mix.permille[static_cast<int>(OpKind::kMultiGet)] = multi_get;
  mix.permille[static_cast<int>(OpKind::kMultiPut)] = multi_put;
  return mix;
}

std::vector<WorkloadSpec> Workloads() {
  std::vector<WorkloadSpec> all;
  {
    // YCSB-B over data that stays in PM level-0: the version grab ->
    // memtable -> PM lookup path, with a small writer share.
    WorkloadSpec w;
    w.name = "pm_read";
    w.num_keys = 200000;
    w.client_threads = 2;
    w.mix = MakeMix(930, 0, 50, 10, 0, 10);
    w.dist = KeyDistribution{w.num_keys, true, 0.99, true};
    w.settle = Settle::kCompactLevel0;
    w.setups = 5;
    w.pm_only = true;
    all.push_back(w);
  }
  {
    // Write-heavy, hot partitions (unscrambled Zipfian): the write path
    // and every compaction kind.
    WorkloadSpec w;
    w.name = "ssd_write";
    w.tau_m = 16 << 20;
    w.tau_t = 8 << 20;
    w.tau_w = 2 << 20;
    w.num_keys = static_cast<uint64_t>(1.8 * w.tau_m / (kKeyBytes + kValueBytes));
    w.client_threads = 2;
    w.mix = MakeMix(100, 0, 880, 10, 0, 10);
    w.dist = KeyDistribution{w.num_keys, true, 0.99, false};
    w.settle = Settle::kWaitIdle;
    w.setups = 5;
    w.durability_check = true;
    w.min_major_compactions = 3;
    all.push_back(w);
  }
  {
    // Data ~3x tau_m, 20x the block cache: SST reads, bloom filters, the
    // block cache and merging iterators.
    WorkloadSpec w;
    w.name = "ssd_read_scan";
    w.num_keys = static_cast<uint64_t>(3 * kTauM / (kKeyBytes + kValueBytes));
    w.client_threads = 2;
    w.mix = MakeMix(600, 100, 90, 200, 0, 10);
    w.dist = KeyDistribution{w.num_keys, false, 0.99, false};
    // Down to the Eq. 3 retained set, so the timed phase's writes cannot
    // refill level-0 to tau_m: a major compaction inside some windows and
    // not others would swing write_amp from run to run.
    w.settle = Settle::kCompactToLevel1;
    w.setups = 2;
    w.min_ssd_get_frac = 0.5;
    all.push_back(w);
  }
  {
    // Open loop through the RESP server over a two-shard engine.
    WorkloadSpec w;
    w.name = "resp_sharded";
    w.num_keys = 200000;
    w.client_threads = 1;
    w.mix = MakeMix(650, 0, 200, 50, 99, 1);
    w.dist = KeyDistribution{w.num_keys, false, 0.99, false};
    w.settle = Settle::kCompactLevel0;
    w.setups = 5;
    w.num_shards = 2;
    w.resp = true;
    all.push_back(w);
  }
  return all;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

uint64_t ClockNanos(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

void SyncFilesystem(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

// Steal and total CPU time of the "cpu" line of /proc/stat, in ticks;
// false when unreadable.
bool ReadCpuTicks(uint64_t* steal, uint64_t* total) {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return false;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return false;
  *steal = v[7];
  *total = std::accumulate(v, v + 8, 0ull);
  return true;
}

}  // namespace

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
uint64_t ThreadCpuNanos() { return ClockNanos(CLOCK_THREAD_CPUTIME_ID); }
uint64_t ProcessCpuNanos() { return ClockNanos(CLOCK_PROCESS_CPUTIME_ID); }

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) {
      *spec = w;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------- Engine

Engine::Engine(const WorkloadSpec& spec, const std::string& dbname,
               bool trace)
    : dbname_(dbname), model_([] {
        pmblade::SsdModelOptions mopts;
        mopts.inject_latency = false;
        return mopts;
      }()) {
  pmblade::Env* posix = pmblade::PosixEnv();
  if (trace) {
    traced_posix_ = std::make_unique<TracingEnv>(posix);
    posix = traced_posix_.get();
  }
  sim_env_ = std::make_unique<pmblade::SimEnv>(posix, &model_);
  options_.env = sim_env_.get();
  options_.raw_env = posix;
  options_.ssd_model = &model_;
  options_.pm_latency.inject_latency = false;
  options_.sync_wal = false;
  options_.num_shards = spec.num_shards;
  if (spec.tau_m != 0) options_.cost.tau_m = spec.tau_m;
  if (spec.tau_t != 0) options_.cost.tau_t = spec.tau_t;
  if (spec.tau_w != 0) options_.cost.tau_w = spec.tau_w;
  for (int i = 1; i < kPartitions; ++i) {
    options_.partition_boundaries.push_back(
        KeyAt(spec.num_keys * static_cast<uint64_t>(i) / kPartitions));
  }
}

Engine::~Engine() { Close(); }

Status Engine::Open() {
  Close();
  return pmblade::DB::Open(options_, dbname_, &db_);
}

void Engine::Close() { db_.reset(); }

void Engine::Destroy() {
  Close();
  pmblade::PosixEnv()->RemoveDirRecursively(dbname_);
}

uint64_t Engine::Property(const std::string& name) const {
  uint64_t value = 0;
  return db_->GetProperty(name, &value) ? value : 0;
}

bool Engine::WaitIdle(double timeout_s) {
  const uint64_t deadline =
      NowNanos() + static_cast<uint64_t>(timeout_s * 1e9);
  int quiet = 0;
  while (NowNanos() < deadline) {
    const pmblade::obs::MetricsSnapshot snap =
        db_->metrics_registry()->Snapshot();
    double busy = 0;
    for (const char* name :
         {"pmblade.compaction.queue_depth", "pmblade.compaction.active",
          "pmblade.compaction.running", "pmblade.flush.queue_depth"}) {
      const pmblade::obs::MetricSample* s = snap.Find(name);
      if (s != nullptr) busy += s->value;
    }
    quiet = busy == 0 ? quiet + 1 : 0;
    if (quiet >= 3) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

// ------------------------------------------------------------ sampling

double EngineSample::Get(const std::string& name) const {
  const pmblade::obs::MetricSample* s = snap.Find(name);
  if (s == nullptr) return 0;
  return s->kind == pmblade::obs::MetricKind::kHistogram
             ? static_cast<double>(s->hist.count())
             : s->value;
}

EngineSample SampleEngine(Engine* engine) {
  EngineSample out;
  out.snap = engine->db()->metrics_registry()->Snapshot();
  out.ssd_service_ns = engine->model().ServiceNanos();
  out.ssd_bytes_written = engine->model().bytes_written();
  out.ssd_reads = engine->model().reads();
  out.ssd_writes = engine->model().writes();
  out.process_cpu_ns = ProcessCpuNanos();
  return out;
}

void ClientTally::StartWindows(uint64_t start, double seconds) {
  start_ns = start;
  windows.resize(static_cast<size_t>(std::max(1.0, std::ceil(seconds))));
}

void ClientTally::Record(Lat kind, uint64_t end_ns, uint64_t latency_ns) {
  const uint64_t since = end_ns > start_ns ? end_ns - start_ns : 0;
  const size_t w = std::min<size_t>(since / 1000000000ull, windows.size() - 1);
  windows[w].lat[static_cast<int>(kind)].Add(latency_ns);
  ++windows[w].ops;
}

uint64_t ClientTally::Samples(Lat kind) const {
  uint64_t n = 0;
  for (const Window& w : windows) n += w.lat[static_cast<int>(kind)].count();
  return n;
}

void WindowSampler::Start(uint64_t start_ns, size_t windows) {
  Stop();
  steal_.assign(windows, 0.0);
  stored_.assign(windows, 0.0);
  thread_ = std::thread([this, start_ns, windows] {
    uint64_t steal0 = 0, total0 = 0;
    bool have_steal = ReadCpuTicks(&steal0, &total0);
    for (size_t w = 0; w < windows; ++w) {
      const uint64_t boundary = start_ns + (w + 1) * 1000000000ull;
      const uint64_t now = NowNanos();
      if (boundary > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(boundary - now));
      }
      stored_[w] = static_cast<double>(engine_->Property("pmblade.l0-bytes") +
                                       engine_->Property("pmblade.ssd-bytes"));
      uint64_t steal = 0, total = 0;
      have_steal = have_steal && ReadCpuTicks(&steal, &total);
      if (!have_steal) continue;
      steal_[w] = total > total0 ? static_cast<double>(steal - steal0) /
                                       static_cast<double>(total - total0)
                                 : 0.0;
      steal0 = steal;
      total0 = total;
    }
    if (!have_steal) steal_.clear();
  });
}

void WindowSampler::Stop() {
  if (thread_.joinable()) thread_.join();
}

void ClientTally::Merge(const ClientTally& o) {
  attempted += o.attempted;
  failed += o.failed;
  puts += o.puts;
  scans += o.scans;
  batches += o.batches;
  user_bytes += o.user_bytes;
  scan_entries += o.scan_entries;
  thread_cpu_ns += o.thread_cpu_ns;
  sampled_cpu_ns += o.sampled_cpu_ns;
  sampled_wall_ns += o.sampled_wall_ns;
  if (first_failure.empty()) first_failure = o.first_failure;
}

// ------------------------------------------------------------- loading

namespace {

// Loads every key at version 1 from `threads` threads, each walking its
// share of a seeded permutation of the key space in WriteBatches. A batch
// holds keys of one shard only: a cross-shard batch would commit through
// 2PC, whose prepare fsyncs would then set the set-up time.
Status Load(pmblade::DB* db, uint64_t num_keys, uint32_t num_shards,
            int threads, uint64_t seed) {
  std::vector<std::thread> workers;
  std::vector<Status> results(threads);
  // The load order is a seeded affine permutation of [0, n).
  uint64_t mul = (num_keys * 7) / 11 + (seed % 997) + 1;
  auto gcd = [](uint64_t a, uint64_t b) {
    while (b != 0) {
      const uint64_t t = a % b;
      a = b;
      b = t;
    }
    return a;
  };
  while (gcd(mul, num_keys) != 1) ++mul;
  const uint64_t offset = seed % num_keys;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      SetClientThread();
      std::vector<pmblade::WriteBatch> batches(num_shards);
      std::vector<int> in_batch(num_shards, 0);
      for (uint64_t j = t; j < num_keys; j += threads) {
        const uint64_t key = static_cast<uint64_t>(
            (static_cast<unsigned __int128>(j) * mul + offset) % num_keys);
        const std::string k = KeyAt(key);
        const uint32_t shard =
            num_shards > 1 ? pmblade::ShardedDB::ShardOfKey(k, num_shards) : 0;
        batches[shard].Put(k, EncodeValue(key, kLoaderWriter, 1));
        if (++in_batch[shard] == kLoadBatch) {
          Status s = db->Write(pmblade::WriteOptions(), &batches[shard]);
          if (!s.ok()) {
            results[t] = s;
            return;
          }
          batches[shard].Clear();
          in_batch[shard] = 0;
        }
      }
      for (uint32_t i = 0; i < num_shards; ++i) {
        if (in_batch[i] == 0) continue;
        Status s = db->Write(pmblade::WriteOptions(), &batches[i]);
        if (!s.ok()) {
          results[t] = s;
          return;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (const Status& s : results) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status SetUp(const WorkloadSpec& spec, uint64_t seed, Engine* engine) {
  engine->Destroy();
  Status s = engine->Open();
  if (!s.ok()) return s;
  s = Load(engine->db(), spec.num_keys, spec.num_shards,
           std::max(2, spec.client_threads), seed);
  if (!s.ok()) return s;
  s = engine->db()->FlushMemTable();
  if (!s.ok()) return s;
  if (!engine->WaitIdle(120)) return Status::IOError("compaction never idle");
  if (spec.settle == Settle::kWaitIdle) return Status::OK();
  s = spec.settle == Settle::kCompactLevel0
          ? engine->db()->CompactLevel0()
          : engine->db()->CompactToLevel1(/*respect_cost_model=*/true);
  if (!s.ok()) return s;
  if (!engine->WaitIdle(120)) return Status::IOError("compaction never idle");
  return Status::OK();
}

// ---------------------------------------------------------- closed loop

struct ScanScratch {
  std::vector<std::string> keys;
  std::vector<std::string> values;
  uint32_t floors[kScanLength] = {};
};

class ClosedLoopClient {
 public:
  ClosedLoopClient(const WorkloadSpec& spec, const RunConfig& config,
                   pmblade::DB* db, VersionTable* versions, uint32_t id,
                   ClientTally* tally)
      : spec_(spec),
        trace_(config.trace),
        db_(db),
        versions_(versions),
        id_(id),
        tally_(tally),
        stream_(config.seed, id, spec.mix, spec.dist, id,
                static_cast<uint32_t>(spec.client_threads)) {}

  // Runs operations until `deadline`; returns the end time of the last.
  uint64_t Run(uint64_t deadline) {
    const uint64_t cpu0 = ThreadCpuNanos();
    uint64_t end = NowNanos();
    while (end < deadline) end = Execute(stream_.Next());
    tally_->thread_cpu_ns = ThreadCpuNanos() - cpu0;
    return end;
  }

 private:
  // Times one engine call, records its latency under `kind` (and, traced,
  // spans it and samples its CPU); returns the call's end time.
  template <typename Fn>
  uint64_t Timed(Lat kind, SpanName name, Fn&& fn) {
    const bool sample = trace_ && (++calls_ % kCpuSampleEvery == 0);
    const uint64_t cpu0 = sample ? ThreadCpuNanos() : 0;
    const uint64_t t0 = NowNanos();
    {
      ScopedSpan span(name);
      fn();
    }
    const uint64_t end = NowNanos();
    if (sample) {
      tally_->sampled_cpu_ns += ThreadCpuNanos() - cpu0;
      tally_->sampled_wall_ns += end - t0;
    }
    tally_->Record(kind, end, end - t0);
    return end;
  }

  uint64_t Execute(const Op& op) {
    ++tally_->attempted;
    uint64_t end = 0;
    const uint64_t key = op.keys[0];
    switch (op.kind) {
      case OpKind::kGet: {
        const uint32_t floor = versions_->acked(key);
        const std::string k = KeyAt(key);
        Status s;
        end = Timed(Lat::kGet, SpanName::kDbGet, [&] {
          s = db_->Get(pmblade::ReadOptions(), k, &value_);
        });
        const char* why = nullptr;
        if (!s.ok()) {
          tally_->Fail("get " + k + ": " + s.ToString());
        } else if (!CheckRead(value_, key, floor, *versions_, &why)) {
          tally_->Fail("get " + k + ": " + why);
        }
        break;
      }
      case OpKind::kGetAbsent: {
        const std::string k = AbsentKeyAt(key);
        Status s;
        end = Timed(Lat::kGet, SpanName::kDbGet, [&] {
          s = db_->Get(pmblade::ReadOptions(), k, &value_);
        });
        if (!s.IsNotFound()) tally_->Fail("absent key " + k + " found");
        break;
      }
      case OpKind::kPut: {
        const uint32_t version = versions_->Issue(key);
        const std::string k = KeyAt(key);
        const std::string v = EncodeValue(key, id_, version);
        Status s;
        end = Timed(Lat::kPut, SpanName::kDbPut, [&] {
          s = db_->Put(pmblade::WriteOptions(), k, v);
        });
        ++tally_->puts;
        if (s.ok()) {
          versions_->Ack(key, version);
          tally_->user_bytes += k.size() + v.size();
        } else {
          tally_->Fail("put " + k + ": " + s.ToString());
        }
        break;
      }
      case OpKind::kMultiPut: {
        pmblade::WriteBatch batch;
        uint32_t issued[kBatchKeys];
        uint64_t bytes = 0;
        for (int i = 0; i < op.num_keys; ++i) {
          issued[i] = versions_->Issue(op.keys[i]);
          const std::string k = KeyAt(op.keys[i]);
          const std::string v = EncodeValue(op.keys[i], id_, issued[i]);
          batch.Put(k, v);
          bytes += k.size() + v.size();
        }
        Status s;
        end = Timed(Lat::kBatch, SpanName::kDbWrite, [&] {
          s = db_->Write(pmblade::WriteOptions(), &batch);
        });
        ++tally_->batches;
        if (s.ok()) {
          for (int i = 0; i < op.num_keys; ++i) {
            versions_->Ack(op.keys[i], issued[i]);
          }
          tally_->user_bytes += bytes;
        } else {
          tally_->Fail("write batch: " + s.ToString());
        }
        break;
      }
      case OpKind::kScan:
        end = Scan(key);
        break;
      case OpKind::kMultiGet:
        tally_->Fail("multi_get is not a closed-loop operation");
        end = NowNanos();
        break;
    }
    return end;
  }

  uint64_t Scan(uint64_t start) {
    const uint64_t expect = std::min<uint64_t>(
        kScanLength, versions_->size() - start);
    for (uint64_t i = 0; i < expect; ++i) {
      scratch_.floors[i] = versions_->acked(start + i);
    }
    size_t got = 0;
    Status status;
    const std::string seek = KeyAt(start);
    const uint64_t end = Timed(Lat::kScan, SpanName::kDbScan, [&] {
      std::unique_ptr<pmblade::Iterator> it(
          db_->NewIterator(pmblade::ReadOptions()));
      for (it->Seek(seek); it->Valid() && got < kScanLength; it->Next()) {
        scratch_.keys[got].assign(it->key().data(), it->key().size());
        scratch_.values[got].assign(it->value().data(), it->value().size());
        ++got;
      }
      status = it->status();
    });
    ++tally_->scans;
    tally_->scan_entries += got;
    if (!status.ok()) {
      tally_->Fail("scan: " + status.ToString());
      return end;
    }
    if (got != expect) {
      tally_->Fail("scan from " + seek + " returned " + std::to_string(got) +
                   " entries, expected " + std::to_string(expect));
      return end;
    }
    for (size_t i = 0; i < got; ++i) {
      uint64_t index = 0;
      if (!ParseKey(scratch_.keys[i], &index) || index != start + i) {
        tally_->Fail("scan from " + seek + ": out of order or out of bounds "
                     "key " + scratch_.keys[i]);
        return end;
      }
      const char* why = nullptr;
      if (!CheckRead(scratch_.values[i], index, scratch_.floors[i],
                     *versions_, &why)) {
        tally_->Fail("scan value of " + scratch_.keys[i] + ": " + why);
        return end;
      }
    }
    return end;
  }

  const WorkloadSpec& spec_;
  bool trace_;
  pmblade::DB* db_;
  VersionTable* versions_;
  uint32_t id_;
  ClientTally* tally_;
  OpStream stream_;
  std::string value_;
  ScanScratch scratch_{std::vector<std::string>(kScanLength),
                       std::vector<std::string>(kScanLength), {}};
  uint64_t calls_ = 0;
};

PhaseResult RunClosedLoop(const WorkloadSpec& spec, const RunConfig& config,
                          Engine* engine, VersionTable* versions,
                          WindowSampler* sampler) {
  PhaseResult result;
  const int n = spec.client_threads;
  result.tallies.resize(n);
  for (ClientTally& t : result.tallies) t.StartWindows(0, config.seconds);
  std::vector<std::unique_ptr<ClosedLoopClient>> clients;
  for (int t = 0; t < n; ++t) {
    clients.push_back(std::make_unique<ClosedLoopClient>(
        spec, config, engine->db(), versions, static_cast<uint32_t>(t),
        &result.tallies[t]));
  }
  std::atomic<int> ready{0};
  std::atomic<uint64_t> start_at{0};
  std::vector<uint64_t> ends(n, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      SetClientThread();
      ready.fetch_add(1);
      uint64_t start = 0;
      while ((start = start_at.load(std::memory_order_acquire)) == 0) {
        std::this_thread::yield();
      }
      result.tallies[t].StartWindows(start, config.seconds);
      ends[t] = clients[t]->Run(
          start + static_cast<uint64_t>(config.seconds * 1e9));
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  const uint64_t start = NowNanos();
  sampler->Start(start, result.tallies[0].windows.size());
  start_at.store(start, std::memory_order_release);
  for (auto& th : threads) th.join();
  result.wall_s =
      (*std::max_element(ends.begin(), ends.end()) - start) / 1e9;
  return result;
}

// ----------------------------------------------------------- durability

// Closes the engine while its memtable and WAL still hold acknowledged
// writes, reopens it (so recovery must replay the WAL) and checks that every
// key holds at least its highest acknowledged version.
void CheckDurability(const RunConfig& config, Engine* engine,
                     const VersionTable& versions, ClientTally* tally) {
  engine->Close();
  if (config.lose_unflushed_writes) {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(engine->dbname(), ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("wal-", 0) == 0) std::filesystem::remove(entry.path(), ec);
    }
  }
  Status s = engine->Open();
  if (!s.ok()) {
    tally->Fail("reopen: " + s.ToString());
    return;
  }
  std::string value;
  for (uint64_t key = 0; key < versions.size(); ++key) {
    ++tally->attempted;
    s = engine->db()->Get(pmblade::ReadOptions(), KeyAt(key), &value);
    const char* why = nullptr;
    if (!s.ok()) {
      tally->Fail("after reopen, get " + KeyAt(key) + ": " + s.ToString());
    } else if (!CheckRead(value, key, versions.acked(key), versions, &why)) {
      tally->Fail("after reopen, " + KeyAt(key) + ": " + why);
    }
  }
}

// Overwrites the most popular keys with another key's value and adds keys
// the workload never writes, bypassing the version table.
void PlantFaults(const WorkloadSpec& spec, const RunConfig& config,
                 pmblade::DB* db) {
  OpStream stream(config.seed, 0, spec.mix, spec.dist, 0, 1);
  for (uint64_t rank = 0; rank < 64; ++rank) {
    const uint64_t key = stream.KeyOfRank(rank);
    const uint64_t other = (key + 1) % spec.num_keys;
    db->Put(pmblade::WriteOptions(), KeyAt(key),
            EncodeValue(other, kLoaderWriter, 1));
    db->Put(pmblade::WriteOptions(), AbsentKeyAt(key),
            EncodeValue(key, kLoaderWriter, 1));
  }
}

// ---------------------------------------------------------------- output

struct Emitter {
  JsonObject metrics;
  void Add(const std::string& name, double value, const char* unit) {
    JsonObject m;
    m.Add("value", value);
    m.AddString("unit", unit);
    metrics.AddRaw(name, m.ToString());
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The windows the end-to-end medians are taken over: every window in which
// the host stole under kCalmSteal of the VM's CPU time or, when fewer than
// half of them are that calm, the least-stolen half. Every window when steal
// could not be read.
std::vector<size_t> CalmWindows(const std::vector<double>& steal,
                                size_t windows) {
  std::vector<size_t> order(windows);
  std::iota(order.begin(), order.end(), 0);
  if (steal.size() != windows) return order;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  const size_t calm = static_cast<size_t>(std::count_if(
      steal.begin(), steal.end(), [](double f) { return f < kCalmSteal; }));
  order.resize(std::max(calm, (windows + 1) / 2));
  std::sort(order.begin(), order.end());
  return order;
}

// One window's p-th percentile over every client, in nanoseconds; -1 when
// the window holds no sample of `kind`.
double WindowPercentile(const std::vector<ClientTally>& tallies, size_t w,
                        Lat kind, double p) {
  pmblade::Histogram merged;
  for (const ClientTally& t : tallies) {
    merged.Merge(t.windows[w].lat[static_cast<int>(kind)]);
  }
  return merged.count() > 0 ? merged.Percentile(p) : -1;
}

// Median over the given windows of each window's p-th percentile.
double WindowedPercentile(const std::vector<ClientTally>& tallies,
                          const std::vector<size_t>& windows, Lat kind,
                          double p) {
  std::vector<double> per_window;
  for (size_t w : windows) {
    const double v = WindowPercentile(tallies, w, kind, p);
    if (v >= 0) per_window.push_back(v);
  }
  return Median(per_window);
}

uint64_t WindowOps(const std::vector<ClientTally>& tallies, size_t w) {
  uint64_t ops = 0;
  for (const ClientTally& t : tallies) ops += t.windows[w].ops;
  return ops;
}

// Median over the given windows of the operations completed.
double WindowedRate(const std::vector<ClientTally>& tallies,
                    const std::vector<size_t>& windows) {
  std::vector<double> per_window;
  for (size_t w : windows) {
    per_window.push_back(static_cast<double>(WindowOps(tallies, w)));
  }
  return Median(per_window);
}

}  // namespace

// ------------------------------------------------------------ the run

int RunWorkload(const RunConfig& config) {
  WorkloadSpec spec;
  if (!FindWorkload(config.workload, &spec)) {
    std::fprintf(stderr, "unknown workload %s\n", config.workload.c_str());
    return 2;
  }
  return RunSpec(spec, config);
}

namespace {

// Everything one run measured, for the metric formulas below.
struct Measured {
  const WorkloadSpec& spec;
  const PhaseResult& phase;
  std::vector<double> steal;  // per window
  std::vector<size_t> calm;   // the windows the medians are taken over
  ClientTally all;  // every client tally merged, plus the restart check
  EngineSample before, after;
  double setup_s = 0;
  std::vector<double> stored;  // level-0 + SSD bytes at each window's end
  double l0_bytes = 0, ssd_bytes = 0, ssd_runs = 0;  // compacted, idle
  double peak_rss_mb = 0;

  double Delta(const std::string& name) const {
    return after.Get(name) - before.Get(name);
  }
  double Ops() const { return static_cast<double>(all.attempted); }
  // Modeled device time: SSD service time plus PM traffic priced at the
  // default PmLatencyOptions.
  double SsdNanos() const {
    return static_cast<double>(after.ssd_service_ns - before.ssd_service_ns);
  }
  double PmNanos() const {
    const pmblade::PmLatencyOptions pm;
    return Delta("pmblade.pm.read_accesses") * pm.read_access_nanos +
           Delta("pmblade.pm.bytes_read") * pm.read_nanos_per_byte +
           Delta("pmblade.pm.bytes_written") * pm.write_nanos_per_byte +
           Delta("pmblade.pm.persists") * pm.persist_nanos;
  }
  double EngineGets() const {
    return Delta("pmblade.reads.memtable") + Delta("pmblade.reads.pm_l0") +
           Delta("pmblade.reads.ssd_l1") + Delta("pmblade.reads.miss");
  }
  double PctUs(Lat kind, double p) const {
    return WindowedPercentile(phase.tallies, calm, kind, p) / 1e3;
  }
  double Rate() const { return WindowedRate(phase.tallies, calm); }
};

// Workload guards: a reason when the run no longer exercises its layer.
std::string CheckGuards(const Measured& m) {
  const WorkloadSpec& spec = m.spec;
  const double majors = m.Delta("pmblade.compaction.major.count");
  if (spec.pm_only && (majors > 0 || m.after.ssd_reads > m.before.ssd_reads)) {
    return spec.name + " had a major compaction or an SSD read";
  }
  if (majors < spec.min_major_compactions) {
    return spec.name + " ran " + std::to_string(static_cast<int>(majors)) +
           " major compactions, needs " +
           std::to_string(spec.min_major_compactions);
  }
  const double found = m.Delta("pmblade.reads.memtable") +
                       m.Delta("pmblade.reads.pm_l0") +
                       m.Delta("pmblade.reads.ssd_l1");
  if (m.Delta("pmblade.reads.ssd_l1") < spec.min_ssd_get_frac * found) {
    return spec.name + " served under " +
           std::to_string(static_cast<int>(spec.min_ssd_get_frac * 100)) +
           "% of its Gets from SSD runs";
  }
  return "";
}

void EmitEndToEnd(const Measured& m, Emitter* out) {
  const double live_bytes =
      static_cast<double>(m.spec.num_keys) * (kKeyBytes + kValueBytes);
  out->Add("setup_s", m.setup_s, "s");
  out->Add("ops_per_s", m.Rate(), "1/s");
  out->Add("get_p50_us", m.PctUs(Lat::kGet, 50), "us");
  out->Add("put_p50_us", m.PctUs(Lat::kPut, 50), "us");
  out->Add("scan_p50_us", m.PctUs(Lat::kScan, 50), "us");
  out->Add("batch_p50_us", m.PctUs(Lat::kBatch, 50), "us");
  // Every byte the SSD model saw written (WAL, SSTables, manifest) per user
  // byte written.
  out->Add("write_amp",
           Ratio(static_cast<double>(m.after.ssd_bytes_written -
                                     m.before.ssd_bytes_written),
                 static_cast<double>(m.all.user_bytes)),
           "ratio");
  // Bytes stored in level-0 and SSD runs, median over the windows, per
  // live user byte.
  out->Add("space_amp", Ratio(Median(m.stored), live_bytes), "ratio");
  out->Add("modeled_device_us_per_op",
           Ratio(m.SsdNanos() + m.PmNanos(), m.Ops()) / 1e3, "us");
  out->Add("peak_rss_mb", m.peak_rss_mb, "MB");
}

void EmitPerLayer(const Measured& m, const Tracer::Totals& spans,
                  Emitter* out) {
  constexpr int kAny = -1;
  constexpr int kBg = static_cast<int>(Role::kBackground);
  constexpr int kClient = static_cast<int>(Role::kClient);
  auto sum = [&](SpanName name, FileKind kind, int role, int parent) {
    return spans.Sum(static_cast<int>(name),
                     kind == FileKind::kNone ? kAny : static_cast<int>(kind),
                     role, parent);
  };
  auto any = [&](SpanName name) { return sum(name, FileKind::kNone, kAny, kAny); };
  auto mean_us = [](uint64_t ns, uint64_t count) {
    return Ratio(static_cast<double>(ns), static_cast<double>(count)) / 1e3;
  };
  const ClientTally& all = m.all;
  const double ops = m.Ops();
  const double gets = m.EngineGets();
  const double writes = static_cast<double>(all.puts + all.batches);
  auto per_get = [&](const char* metric) { return Ratio(m.Delta(metric), gets); };

  const SpanAggregate db_get = any(SpanName::kDbGet);
  const SpanAggregate db_scan = any(SpanName::kDbScan);
  out->Add("core.get_self_us", mean_us(db_get.self_ns, db_get.count), "us");
  out->Add("core.client_cpu_frac",
           Ratio(static_cast<double>(all.sampled_cpu_ns),
                 static_cast<double>(all.sampled_wall_ns)),
           "ratio");
  out->Add("core.bloom_checks_per_get", per_get("pmblade.bloom.checks"),
           "count");
  const SpanAggregate db_put = any(SpanName::kDbPut);
  out->Add("core.put_self_us", mean_us(db_put.self_ns, db_put.count), "us");
  out->Add("core.write_group_size",
           Ratio(m.Delta("pmblade.write.group_writes"),
                 m.Delta("pmblade.write.groups")),
           "count");
  out->Add("core.stall_ms", m.Delta("pmblade.write.stall_nanos") / 1e6, "ms");
  out->Add("core.stalls", m.Delta("pmblade.write.stalls"), "count");
  out->Add("core.slowdowns", m.Delta("pmblade.write.slowdowns"), "count");
  out->Add("core.scan_self_us", mean_us(db_scan.self_ns, db_scan.count), "us");
  out->Add("core.read_src_memtable_frac", per_get("pmblade.reads.memtable"),
           "ratio");
  out->Add("core.read_src_pm_frac", per_get("pmblade.reads.pm_l0"), "ratio");
  out->Add("core.read_src_ssd_frac", per_get("pmblade.reads.ssd_l1"), "ratio");
  out->Add("core.read_miss_frac", per_get("pmblade.reads.miss"), "ratio");
  out->Add("core.bloom_negatives_per_get", per_get("pmblade.bloom.negatives"),
           "count");
  out->Add("core.bloom_fp_per_get", per_get("pmblade.bloom.false_positives"),
           "count");
  out->Add("core.txn_committed_per_batch",
           Ratio(m.Delta("pmblade.txn.committed"),
                 static_cast<double>(all.batches)),
           "count");

  const SpanAggregate wal_append =
      sum(SpanName::kEnvAppend, FileKind::kWal, kAny, kAny);
  const SpanAggregate wal_flush =
      sum(SpanName::kEnvFlush, FileKind::kWal, kAny, kAny);
  const SpanAggregate wal_sync =
      sum(SpanName::kEnvSync, FileKind::kWal, kAny, kAny);
  out->Add("memtable.wal_append_us",
           mean_us(wal_append.total_ns + wal_flush.total_ns, wal_append.count),
           "us");
  out->Add("memtable.wal_appends_per_put", Ratio(wal_append.count, writes),
           "count");
  out->Add("memtable.wal_bytes_per_put", Ratio(wal_append.bytes, writes), "B");
  out->Add("memtable.wal_sync_us", mean_us(wal_sync.total_ns, wal_sync.count),
           "us");
  out->Add("memtable.wal_syncs_per_op", Ratio(wal_sync.count, ops), "count");

  out->Add("pm.read_accesses_per_get", per_get("pmblade.pm.read_accesses"),
           "count");
  out->Add("pm.bytes_read_per_get", per_get("pmblade.pm.bytes_read"), "B");
  out->Add("pm.bytes_written_per_user_byte",
           Ratio(m.Delta("pmblade.pm.bytes_written"),
                 static_cast<double>(all.user_bytes)),
           "ratio");
  out->Add("pm.persists_per_put", Ratio(m.Delta("pmblade.pm.persists"), writes),
           "count");
  out->Add("pm.modeled_us_per_op", Ratio(m.PmNanos(), ops) / 1e3, "us");
  // Table counts as the timed phase left them; sizes after compaction.
  out->Add("pmtable.unsorted_tables",
           m.after.Get("pmblade.lsm.unsorted_tables"), "count");
  out->Add("pmtable.sorted_tables", m.after.Get("pmblade.lsm.sorted_tables"),
           "count");
  out->Add("pmtable.l0_mb", m.l0_bytes / (1 << 20), "MB");

  const SpanAggregate sst_get = sum(SpanName::kEnvRead, FileKind::kSst, kAny,
                                    static_cast<int>(SpanName::kDbGet));
  const SpanAggregate sst_scan = sum(SpanName::kEnvRead, FileKind::kSst, kAny,
                                     static_cast<int>(SpanName::kDbScan));
  const SpanAggregate sst_all =
      sum(SpanName::kEnvRead, FileKind::kSst, kAny, kAny);
  const double hits = m.Delta("pmblade.blockcache.hits");
  const double misses = m.Delta("pmblade.blockcache.misses");
  out->Add("sstable.reads_per_get", Ratio(sst_get.count, db_get.count),
           "count");
  out->Add("sstable.read_bytes_per_get", Ratio(sst_get.bytes, db_get.count),
           "B");
  out->Add("sstable.read_us", mean_us(sst_all.total_ns, sst_all.count), "us");
  out->Add("sstable.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  out->Add("sstable.reads_per_scan", Ratio(sst_scan.count, db_scan.count),
           "count");
  // Entries the benchmark's scans consumed; the engine counts none per scan.
  out->Add("sstable.entries_per_scan",
           Ratio(static_cast<double>(all.scan_entries),
                 static_cast<double>(all.scans)),
           "count");
  out->Add("sstable.ssd_runs", m.ssd_runs, "count");
  out->Add("sstable.l1_mb", m.ssd_bytes / (1 << 20), "MB");

  // Background: every thread the benchmark does not own.
  uint64_t bg_io_ns = 0;
  for (SpanName name : {SpanName::kEnvRead, SpanName::kEnvAppend,
                        SpanName::kEnvFlush, SpanName::kEnvSync,
                        SpanName::kEnvOpen}) {
    bg_io_ns += sum(name, FileKind::kNone, kBg, kAny).total_ns;
  }
  const double wall = m.phase.wall_s;
  const double bg_cpu_ns =
      static_cast<double>(m.after.process_cpu_ns - m.before.process_cpu_ns) -
      static_cast<double>(all.thread_cpu_ns);
  out->Add("compaction.bg_cpu_s_per_s", Ratio(bg_cpu_ns / 1e9, wall), "s/s");
  out->Add("compaction.bg_io_ms_per_s",
           Ratio(static_cast<double>(bg_io_ns) / 1e6, wall), "ms/s");
  out->Add("compaction.minor_count", m.Delta("pmblade.flush.count"), "count");
  out->Add("compaction.internal_count",
           m.Delta("pmblade.compaction.internal.count"), "count");
  out->Add("compaction.major_count", m.Delta("pmblade.compaction.major.count"),
           "count");
  out->Add("compaction.internal_mb_in",
           m.Delta("pmblade.compaction.internal.bytes_in") / (1 << 20), "MB");
  out->Add("compaction.internal_mb_out",
           m.Delta("pmblade.compaction.internal.bytes_out") / (1 << 20), "MB");
  out->Add("compaction.major_mb_written",
           m.Delta("pmblade.compaction.major.bytes") / (1 << 20), "MB");
  out->Add("compaction.major_wall_ms",
           m.Delta("pmblade.compaction.major.wall_nanos") / 1e6, "ms");
  out->Add("compaction.failed", m.Delta("pmblade.compaction.sched.failed"),
           "count");
  out->Add("compaction.retries", m.Delta("pmblade.compaction.sched.retries"),
           "count");

  const SpanAggregate syncs = any(SpanName::kEnvSync);
  out->Add("env.ssd_modeled_us_per_op", Ratio(m.SsdNanos(), ops) / 1e3, "us");
  out->Add("env.ssd_reads_client",
           static_cast<double>(
               sum(SpanName::kEnvRead, FileKind::kSst, kClient, kAny).count),
           "count");
  out->Add("env.ssd_reads_bg",
           static_cast<double>(
               sum(SpanName::kEnvRead, FileKind::kSst, kBg, kAny).count),
           "count");
  out->Add("env.ssd_writes",
           static_cast<double>(m.after.ssd_writes - m.before.ssd_writes),
           "count");
  out->Add("env.fsyncs_per_op", Ratio(syncs.count, ops), "count");
  out->Add("env.fsync_us", mean_us(syncs.total_ns, syncs.count), "us");

  // The RESP server's engine calls are the decorator's root DB spans on
  // its (background) worker threads.
  uint64_t engine_ns = 0;
  for (SpanName name : {SpanName::kDbGet, SpanName::kDbPut,
                        SpanName::kDbWrite, SpanName::kDbScan}) {
    engine_ns += sum(name, FileKind::kNone, kBg, kNoParent).total_ns;
  }
  const SpanAggregate resp = any(SpanName::kRespRequest);
  const double requests = static_cast<double>(resp.count);
  const double engine_us = mean_us(engine_ns, resp.count);
  out->Add("net.self_us",
           requests > 0 ? mean_us(resp.total_ns, resp.count) - engine_us : 0,
           "us");
  out->Add("net.engine_us", engine_us, "us");
  out->Add("net.busy_frac", Ratio(m.Delta("pmblade.server.sheds"), requests),
           "ratio");
  out->Add("net.bytes_in_per_req",
           Ratio(m.Delta("pmblade.server.bytes_in"), requests), "B");
  out->Add("net.bytes_out_per_req",
           Ratio(m.Delta("pmblade.server.bytes_out"), requests), "B");
  pmblade::Histogram late;
  for (const ClientTally& t : m.phase.tallies) late.Merge(t.late);
  out->Add("bench.gen_late_p99_us", late.Percentile(99) / 1e3, "us");
}

std::string RunInfo(const Measured& m, const RunConfig& config,
                    const std::vector<double>& setup_times,
                    const std::string& guard) {
  const WorkloadSpec& spec = m.spec;
  JsonObject info;
  info.AddString("workload", spec.name);
  info.AddInt("seed", config.seed);
  info.Add("seconds", config.seconds);
  info.AddInt("trace", config.trace ? 1 : 0);
  info.AddInt("client_threads", static_cast<uint64_t>(spec.client_threads));
  info.AddInt("num_keys", spec.num_keys);
  info.AddInt("num_shards", spec.num_shards);
  JsonObject samples;
  const char* names[kNumLat] = {"get", "put", "scan", "batch"};
  for (int k = 0; k < kNumLat; ++k) {
    uint64_t n = 0;
    for (const ClientTally& t : m.phase.tallies) n += t.Samples(Lat(k));
    samples.AddInt(names[k], n);
  }
  info.AddRaw("samples", samples.ToString());
  // Tail latencies are recorded but not gated: on a shared 4-vCPU host
  // they follow the host's scheduling noise more than the program.
  JsonObject p99;
  for (int k = 0; k < kNumLat; ++k) p99.Add(names[k], m.PctUs(Lat(k), 99));
  info.AddRaw("p99_us", p99.ToString());
  std::string list = "[";
  for (size_t i = 0; i < setup_times.size(); ++i) {
    list += (i > 0 ? "," : "") + std::to_string(setup_times[i]);
  }
  info.AddRaw("setup_times_s", list + "]");
  info.Add("ops_per_s", m.Rate());
  // Per window: operations, get p50, stored bytes and the host's steal
  // share, and the windows the end-to-end medians used.
  const size_t windows = m.phase.tallies[0].windows.size();
  auto render = [&](auto value_of) {
    std::string out = "[";
    for (size_t w = 0; w < windows; ++w) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.6g", w > 0 ? "," : "",
                    static_cast<double>(value_of(w)));
      out += buf;
    }
    return out + "]";
  };
  info.AddRaw("window_ops", render([&](size_t w) {
                return WindowOps(m.phase.tallies, w);
              }));
  info.AddRaw("window_get_p50_us", render([&](size_t w) {
                return WindowPercentile(m.phase.tallies, w, Lat::kGet, 50) / 1e3;
              }));
  info.AddRaw("window_stored_mb", render([&](size_t w) {
                return w < m.stored.size() ? m.stored[w] / (1 << 20) : -1.0;
              }));
  info.AddRaw("window_steal", render([&](size_t w) {
                return w < m.steal.size() ? m.steal[w] : -1.0;
              }));
  std::string calm = "[";
  for (size_t i = 0; i < m.calm.size(); ++i) {
    calm += (i > 0 ? "," : "") + std::to_string(m.calm[i]);
  }
  info.AddRaw("calm_windows", calm + "]");
  // Mean steal share over every window, and over the windows used.
  auto mean_steal = [&](const std::vector<size_t>& ws) {
    double sum = 0;
    for (size_t w : ws) sum += m.steal[w];
    return m.steal.empty() || ws.empty() ? -1.0 : sum / ws.size();
  };
  std::vector<size_t> every(m.steal.size());
  std::iota(every.begin(), every.end(), 0);
  info.Add("steal_frac", mean_steal(every));
  info.Add("calm_steal_frac", mean_steal(m.calm));
  info.Add("failed_frac", Ratio(static_cast<double>(m.all.failed), m.Ops()));
  info.Add("major_compactions", m.Delta("pmblade.compaction.major.count"));
  info.AddString("guard", guard);
  info.AddString("first_failure", m.all.first_failure);
  return info.ToString();
}

}  // namespace

int RunSpec(const WorkloadSpec& spec, const RunConfig& config) {
  std::error_code ec;
  std::filesystem::create_directories(config.dir, ec);
  Engine engine(spec, config.dir + "/db", config.trace);
  std::vector<double> setup_times;
  for (int i = 0; i < spec.setups; ++i) {
    const uint64_t t0 = NowNanos();
    Status s = SetUp(spec, config.seed, &engine);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
      return kExitSetupFailed;
    }
    setup_times.push_back((NowNanos() - t0) / 1e9);
  }
  std::fprintf(stderr,
               "%s: set-up %.3f s; l0 %.1f MB, ssd %.1f MB, %.0f major "
               "compactions\n",
               spec.name.c_str(), Median(setup_times),
               engine.Property("pmblade.l0-bytes") / 1048576.0,
               engine.Property("pmblade.ssd-bytes") / 1048576.0,
               SampleEngine(&engine).Get("pmblade.compaction.major.count"));
  // Write back the set-up's dirty pages (WAL, SSTables, the PM pool's
  // mapping) before timing, so kernel writeback of the set-up does not land
  // in the timed phase. Not part of setup_s: it is the OS's lazy work.
  const uint64_t sync_start = NowNanos();
  SyncFilesystem(config.dir);
  std::fprintf(stderr, "%s: writeback %.3f s\n", spec.name.c_str(),
               (NowNanos() - sync_start) / 1e9);
  VersionTable versions(spec.num_keys);
  versions.SetLoaded();
  if (config.plant_faults) PlantFaults(spec, config, engine.db());

  const EngineSample before = SampleEngine(&engine);
  WindowSampler sampler(&engine);
  Tracer::Get().Enable(config.trace);
  const PhaseResult phase =
      spec.resp ? RunOpenLoop(spec, config, &engine, &versions, &sampler)
                : RunClosedLoop(spec, config, &engine, &versions, &sampler);
  Tracer::Get().Enable(false);
  sampler.Stop();

  Measured m{spec, phase};
  m.steal = sampler.steal();
  m.stored = sampler.stored();
  m.calm = CalmWindows(m.steal, phase.tallies[0].windows.size());
  m.before = before;
  m.after = SampleEngine(&engine);
  m.setup_s = Median(setup_times);
  for (const ClientTally& t : phase.tallies) m.all.Merge(t);
  const std::string guard = CheckGuards(m);

  // The restart check comes first, while the memtable and WAL still hold
  // the timed phase's last acknowledged writes (not timed).
  if (spec.durability_check) {
    ClientTally checks;
    CheckDurability(config, &engine, versions, &checks);
    m.all.Merge(checks);
  }

  // Level-0 and SSD sizes for the per-layer figures, once level-0 is
  // compacted and compaction is idle (not timed): what internal compaction
  // happened to have deduplicated when the window closed would otherwise
  // swing them from run to run.
  if (engine.db() != nullptr) {
    engine.db()->FlushMemTable();
    engine.WaitIdle(60);
    engine.db()->CompactLevel0();
    engine.WaitIdle(60);
    m.l0_bytes = static_cast<double>(engine.Property("pmblade.l0-bytes"));
    m.ssd_bytes = static_cast<double>(engine.Property("pmblade.ssd-bytes"));
    m.ssd_runs = static_cast<double>(engine.Property("pmblade.num-ssd-runs"));
  }
  engine.Close();  // joins the engine's threads before spans are read

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  m.peak_rss_mb = usage.ru_maxrss / 1024.0;

  Emitter out;
  if (!config.trace) {
    EmitEndToEnd(m, &out);
  } else {
    const Tracer::Totals spans = Tracer::Get().Collect();
    EmitPerLayer(m, spans, &out);
    if (!config.spans_path.empty() &&
        !Tracer::Get().WriteSpans(config.spans_path)) {
      std::fprintf(stderr, "could not write %s\n", config.spans_path.c_str());
    }
  }

  const bool correct = m.all.failed == 0 && guard.empty();
  JsonObject result;
  result.AddRaw("correct", correct ? "true" : "false");
  result.AddInt("attempted", std::max<uint64_t>(m.all.attempted, 1));
  result.AddInt("failed", m.all.failed);
  result.AddRaw("metrics", out.metrics.ToString());
  result.AddRaw("info", RunInfo(m, config, setup_times, guard));
  if (!guard.empty()) std::fprintf(stderr, "GUARD: %s\n", guard.c_str());
  if (m.all.failed > 0) {
    std::fprintf(stderr, "FAILED %llu of %llu: %s\n",
                 static_cast<unsigned long long>(m.all.failed),
                 static_cast<unsigned long long>(m.all.attempted),
                 m.all.first_failure.c_str());
  }
  std::printf("%s\n", result.ToString().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
