#include "core/db_impl.h"

#include <algorithm>

#include "compaction/merging_iterator.h"
#include "core/sharded_db.h"
#include "core/version.h"
#include "memtable/txn_record.h"
#include "obs/exporter.h"
#include "pmtable/array_table.h"
#include "pmtable/snappy_table.h"
#include "sstable/ssd_l0_table.h"
#include "util/coding.h"
#include "util/sync_point.h"

namespace pmblade {

namespace {

/// Upper bound on one group-commit batch: the leader stops coalescing
/// follower batches past this many WAL bytes.
constexpr size_t kWriteGroupMaxBytes = 1 << 20;

std::string WalFileName(const std::string& dbname, uint64_t number) {
  char buf[64];
  snprintf(buf, sizeof(buf), "/wal-%06llu.log",
           static_cast<unsigned long long>(number));
  return dbname + buf;
}

std::string SstFileName(const std::string& dbname, uint64_t number) {
  char buf[64];
  snprintf(buf, sizeof(buf), "/%06llu.sst",
           static_cast<unsigned long long>(number));
  return dbname + buf;
}

/// Clips an owned sorted internal-key iterator to the user-key range
/// [begin, end) — empty bound = unbounded. A flush slices the frozen
/// memtable per partition with these, and subcompaction slices wrap their
/// merged input in one: boundaries compare USER keys, so every version of a
/// user key lands in exactly one slice and the per-slice dedup and
/// tombstone logic in ProcessSlice stays correct.
class RangeClippedIterator final : public Iterator {
 public:
  RangeClippedIterator(Iterator* base, std::string begin_user_key,
                       std::string end_user_key)
      : base_(base),
        begin_(std::move(begin_user_key)),
        end_(std::move(end_user_key)) {}

  bool Valid() const override {
    if (!base_->Valid()) return false;
    if (end_.empty()) return true;
    return ExtractUserKey(base_->key()).compare(Slice(end_)) < 0;
  }
  void SeekToFirst() override {
    if (begin_.empty()) {
      base_->SeekToFirst();
    } else {
      // Position at the first entry whose user key >= begin_: seek with the
      // largest tag so no version of begin_ itself is skipped.
      std::string target;
      AppendInternalKey(&target, Slice(begin_), kMaxSequenceNumber,
                        kValueTypeForSeek);
      base_->Seek(Slice(target));
    }
  }
  void SeekToLast() override {}  // forward-only, like the merge that reads it
  void Seek(const Slice&) override {}
  void Next() override { base_->Next(); }
  void Prev() override {}
  Slice key() const override { return base_->key(); }
  Slice value() const override { return base_->value(); }
  Status status() const override { return base_->status(); }

 private:
  std::unique_ptr<Iterator> base_;
  std::string begin_;
  std::string end_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Open / Init / recovery
// ---------------------------------------------------------------------------

Status DB::Open(const Options& options, const std::string& dbname,
                std::unique_ptr<DB>* db) {
  db->reset();
  if (options.num_shards > 1) {
    auto sharded = std::make_unique<ShardedDB>(options, dbname);
    PMBLADE_RETURN_IF_ERROR(sharded->Init());
    *db = std::move(sharded);
    return Status::OK();
  }
  // A directory pinned by a ShardedDB cannot be opened single-shard: the
  // data lives in shard-<i> subdirectories the classic engine would
  // silently ignore, presenting an empty DB.
  {
    Env* env = options.env != nullptr ? options.env : PosixEnv();
    const std::string marker = dbname + "/SHARDS";
    if (env->FileExists(marker)) {
      std::string pinned;
      (void)ReadFileToString(env, marker, &pinned);
      return Status::InvalidArgument(
          dbname + " was created with num_shards=" + pinned +
          "; open it with that shard count");
    }
  }
  auto impl = std::make_unique<DBImpl>(options, dbname);
  PMBLADE_RETURN_IF_ERROR(impl->Init());
  *db = std::move(impl);
  return Status::OK();
}

Status DestroyDB(const Options& options, const std::string& dbname) {
  Env* env = options.env != nullptr ? options.env : PosixEnv();
  if (!options.pm_pool_path.empty()) {
    if (env->FileExists(options.pm_pool_path)) {
      env->RemoveFile(options.pm_pool_path);
    }
    // A sharded DB opened with an explicit pool path suffixes it per shard.
    for (uint32_t i = 0; i < options.num_shards; ++i) {
      const std::string shard_pool =
          ShardedDB::ShardPmPoolPath(options.pm_pool_path, i);
      if (env->FileExists(shard_pool)) env->RemoveFile(shard_pool);
    }
  }
  if (!env->FileExists(dbname)) return Status::OK();
  return env->RemoveDirRecursively(dbname);
}

DBImpl::DBImpl(const Options& options, const std::string& dbname)
    : options_(options), dbname_(dbname), icmp_(BytewiseComparator()) {}

DBImpl::~DBImpl() {
  // Join the arbiter thread first: its callbacks touch the metrics
  // registry, the block cache and the cost model, all torn down below.
  if (arbiter_ != nullptr) arbiter_->Stop();
  // The SSD model may be caller-owned and outlive this DB; detach our bus
  // before it dies.
  if (model_ != nullptr) model_->set_event_bus(nullptr);
  // Drain the background flush before tearing anything down (the job takes
  // mu_ itself, so wait without holding it). This must precede the
  // scheduler shutdown: an inline-mode flush blocks on the scheduler
  // draining, and any flush may enqueue a check.
  if (flush_pool_ != nullptr) {
    flush_pool_->Wait();
    flush_pool_.reset();
  }
  // Stop the compaction worker: the in-flight job (which takes mu_ itself)
  // finishes, queued checks are dropped — compaction is redoable, the next
  // open re-evaluates.
  if (compaction_scheduler_ != nullptr) compaction_scheduler_->Shutdown();
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_file_ != nullptr) wal_file_->Close();
}

Status DBImpl::Init() {
  PMBLADE_RETURN_IF_ERROR(options_.Sanitize());
  env_ = options_.env;
  raw_env_ = options_.raw_env;
  clock_ = options_.clock;

  if (env_->FileExists(dbname_) && options_.error_if_exists) {
    return Status::InvalidArgument(dbname_ + " already exists");
  }
  if (!env_->FileExists(dbname_)) {
    if (!options_.create_if_missing) {
      return Status::NotFound(dbname_ + " does not exist");
    }
  }
  PMBLADE_RETURN_IF_ERROR(env_->CreateDir(dbname_));

  if (options_.ssd_model != nullptr) {
    model_ = options_.ssd_model;
  } else {
    SsdModelOptions mopts;
    mopts.inject_latency = false;
    mopts.clock = clock_;
    owned_model_.reset(new SsdModel(mopts));
    model_ = owned_model_.get();
  }

  // bloom_bits_per_key <= 0 is the no-filter baseline; block_cache_bytes
  // == 0 the no-cache one (both used by benchmark A/B runs).
  if (options_.bloom_bits_per_key > 0) {
    filter_policy_.reset(new BloomFilterPolicy(options_.bloom_bits_per_key));
  }
  if (options_.shared_block_cache != nullptr) {
    block_cache_ = options_.shared_block_cache;  // ShardedDB-owned
  } else if (options_.block_cache_bytes > 0) {
    owned_block_cache_.reset(new BlockCache(options_.block_cache_bytes));
    block_cache_ = owned_block_cache_.get();
  }
  memtable_limit_.store(options_.memtable_bytes, std::memory_order_relaxed);
  // Published before any gauge callback or background thread can read it;
  // recovery fills in the partitions' slots.
  sv_ = std::make_shared<const SuperVersion>(
      SuperVersion{SuperVersion::NewMemTable(icmp_), nullptr, {}});

  // PM pool (always opened; cheap when unused by the layout).
  std::string pool_path = options_.pm_pool_path.empty()
                              ? dbname_ + "/pool.pm"
                              : options_.pm_pool_path;
  PmPoolOptions popts;
  popts.capacity = options_.pm_pool_capacity;
  popts.latency = options_.pm_latency;
  popts.clock = clock_;
  PMBLADE_RETURN_IF_ERROR(PmPool::Open(pool_path, popts, &pool_));

  // Factories. Level-1 is always SSTables; level-0 layout is configurable.
  L0FactoryOptions l1opts;
  l1opts.layout = L0Layout::kSstable;
  l1opts.icmp = &icmp_;
  l1opts.filter_policy = filter_policy_.get();
  l1opts.block_cache = block_cache_;
  l1opts.block_size = options_.block_size;
  l1opts.ssd_dir = dbname_;
  l1_factory_.reset(new L0TableFactory(l1opts, pool_.get(), env_));

  if (options_.l0_layout == L0Layout::kSstable) {
    l0_factory_.reset();  // level-0 shares the level-1 factory
  } else {
    L0FactoryOptions l0opts = l1opts;
    l0opts.layout = options_.l0_layout;
    l0opts.pm_table = options_.pm_table;
    l0_factory_.reset(new L0TableFactory(l0opts, pool_.get(), env_));
  }

  cost_model_.reset(new CostModel(options_.cost));

  // The compaction policy. Sanitize already rejected unknown names, but the
  // factory revalidates so a direct DBImpl construction fails loudly too.
  {
    CompactionPolicyOptions popts_policy;
    popts_policy.policy = options_.compaction_policy;
    popts_policy.size_ratio = options_.compaction_size_ratio;
    popts_policy.max_ssd_levels = options_.max_ssd_levels;
    popts_policy.adaptive_tau_t = options_.adaptive_tau_t;
    popts_policy.tau_t_max_factor = options_.tau_t_max_factor;
    PMBLADE_RETURN_IF_ERROR(
        NewCompactionPicker(popts_policy, cost_model_.get(), &picker_));
  }

  // ---- observability wiring ----
  if (options_.trace_ring_capacity > 0) {
    trace_.reset(new obs::TraceRecorder(options_.trace_ring_capacity));
    events_.Subscribe(trace_.get());
  }
  stats_.RegisterWith(&metrics_);
  pool_->RegisterMetrics(&metrics_);
  model_->RegisterMetrics(&metrics_);
  model_->set_event_bus(&events_);
  // Cost-model accounting counters, cached so the compaction path (which
  // runs under mu_) never touches the registry lock.
  decision_counter_ = metrics_.GetCounter("pmblade.cost.decisions");
  eq1_trigger_counter_ = metrics_.GetCounter("pmblade.cost.eq1_triggered");
  eq2_trigger_counter_ = metrics_.GetCounter("pmblade.cost.eq2_triggered");
  keep_set_counter_ = metrics_.GetCounter("pmblade.cost.keep_set_selections");
  wal_sync_counter_ = metrics_.GetCounter("pmblade.wal.syncs");
  // Write-pipeline instruments: group-commit amortization and backpressure.
  group_counter_ = metrics_.GetCounter("pmblade.write.groups");
  group_write_counter_ = metrics_.GetCounter("pmblade.write.group_writes");
  group_size_hist_ = metrics_.GetHistogram("pmblade.write.group_size");
  slowdown_counter_ = metrics_.GetCounter("pmblade.write.slowdowns");
  stall_counter_ = metrics_.GetCounter("pmblade.write.stalls");
  stall_nanos_counter_ = metrics_.GetCounter("pmblade.write.stall_nanos");
  bg_flush_counter_ = metrics_.GetCounter("pmblade.flush.bg_flushes");
  // Two-phase-commit instruments (stay at zero on the single-shard path).
  txn_prepared_counter_ = metrics_.GetCounter("pmblade.txn.prepared");
  txn_committed_counter_ = metrics_.GetCounter("pmblade.txn.committed");
  txn_rolled_back_counter_ = metrics_.GetCounter("pmblade.txn.rolled_back");
  metrics_.RegisterGaugeCallback("pmblade.write.writes_per_sync", [this] {
    uint64_t syncs = wal_sync_counter_->Value();
    if (syncs == 0) return 0.0;
    return static_cast<double>(group_write_counter_->Value()) /
           static_cast<double>(syncs);
  });
  metrics_.RegisterGaugeCallback("pmblade.flush.queue_depth", [this] {
    return flush_pool_ != nullptr
               ? static_cast<double>(flush_pool_->PendingTasks())
               : 0.0;
  });
  metrics_.RegisterGaugeCallback("pmblade.write.queue_depth", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<double>(writers_.size());
  });
  // Computed gauges. Callbacks run outside the registry lock (see
  // MetricsRegistry::Snapshot), so locking mu_ here is safe.
  metrics_.RegisterGaugeCallback("pmblade.io.q_flush", [this] {
    int q = options_.major.max_io_q;
    int q_comp = model_->Inflight(IoClass::kCompaction);
    int q_cli = model_->Inflight(IoClass::kClient);
    return static_cast<double>(std::max(q - q_comp - q_cli, 0));
  });
  // LSM shape, each summed over the published partition table sets.
  auto partition_sum = [this](uint64_t (*per_part)(const PartitionSnapshot&)) {
    return [this, per_part] {
      std::lock_guard<std::mutex> lock(mu_);
      uint64_t total = 0;
      for (const auto& part : sv_->parts) total += per_part(*part);
      return static_cast<double>(total);
    };
  };
  metrics_.RegisterGaugeCallback(
      "pmblade.lsm.l0_bytes",
      partition_sum([](const PartitionSnapshot& t) { return t.L0Bytes(); }));
  metrics_.RegisterGaugeCallback(
      "pmblade.lsm.l1_bytes",
      partition_sum([](const PartitionSnapshot& t) { return t.SsdBytes(); }));
  metrics_.RegisterGaugeCallback(
      "pmblade.lsm.num_partitions",
      partition_sum([](const PartitionSnapshot&) -> uint64_t { return 1; }));
  metrics_.RegisterGaugeCallback(
      "pmblade.lsm.unsorted_tables",
      partition_sum([](const PartitionSnapshot& t) -> uint64_t {
        return t.unsorted.size();
      }));
  metrics_.RegisterGaugeCallback(
      "pmblade.lsm.sorted_tables",
      partition_sum([](const PartitionSnapshot& t) -> uint64_t {
        return t.sorted_run.size();
      }));
  metrics_.RegisterGaugeCallback(
      "pmblade.lsm.ssd_runs",
      partition_sum([](const PartitionSnapshot& t) -> uint64_t {
        return t.ssd_runs.size();
      }));
  metrics_.RegisterGaugeCallback("pmblade.lsm.max_ssd_level", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t deepest = 0;
    for (const auto& part : sv_->parts) {
      deepest = std::max(deepest, part->MaxSsdLevel());
    }
    return static_cast<double>(deepest);
  });
  // The policy ordinal plus per-level run/file/byte gauges (level 0 = PM
  // level-0; SSD runs start at 1).
  metrics_.RegisterGaugeCallback("pmblade.policy", [this] {
    return static_cast<double>(static_cast<int>(picker_->kind()));
  });
  for (uint32_t level = 0; level <= options_.max_ssd_levels; ++level) {
    auto shape = [this, level](int field) {
      return [this, level, field] {
        std::lock_guard<std::mutex> lock(mu_);
        uint64_t stat[3];
        LevelShapeLocked(level, &stat[0], &stat[1], &stat[2]);
        return static_cast<double>(stat[field]);
      };
    };
    const std::string prefix =
        "pmblade.lsm.level" + std::to_string(level) + ".";
    metrics_.RegisterGaugeCallback(prefix + "runs", shape(0));
    metrics_.RegisterGaugeCallback(prefix + "files", shape(1));
    metrics_.RegisterGaugeCallback(prefix + "bytes", shape(2));
  }
  // Write-path and snapshot state behind the numeric properties.
  metrics_.RegisterGaugeCallback("pmblade.write.pressure", [this] {
    return static_cast<double>(static_cast<int>(GetWritePressure()));
  });
  metrics_.RegisterGaugeCallback("pmblade.write.memtable_limit", [this] {
    return static_cast<double>(
        memtable_limit_.load(std::memory_order_relaxed));
  });
  metrics_.RegisterGaugeCallback("pmblade.snapshots.open", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<double>(live_snapshots_.size());
  });
  metrics_.RegisterGaugeCallback("pmblade.txn.pending", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t pending = 0;
    for (const auto& entry : txns_) {
      if (!entry.second.committed) ++pending;
    }
    return static_cast<double>(pending);
  });
  metrics_.RegisterGaugeCallback("pmblade.txn.retained", [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<double>(txns_.size() + replay_committed_.size() +
                               replay_rolled_back_.size());
  });
  metrics_.RegisterGaugeCallback("pmblade.shards", [] { return 1.0; });
  // Route major-compaction instrumentation through our bus/registry.
  options_.major.event_bus = &events_;
  options_.major.metrics = &metrics_;

  // Read-path instruments: bloom probe counters (fed from Get's
  // ReadProbeStats) and block-cache gauges.
  bloom_check_counter_ = metrics_.GetCounter("pmblade.bloom.checks");
  bloom_negative_counter_ = metrics_.GetCounter("pmblade.bloom.negatives");
  bloom_fp_counter_ = metrics_.GetCounter("pmblade.bloom.false_positives");
  if (block_cache_ != nullptr) block_cache_->RegisterMetrics(&metrics_);

  // Memory arbitration: one budget over {memtable quota, block cache,
  // Eq. 3 keep-set}, retuned by the MemoryArbiter's feedback thread. The
  // configured memtable_bytes/block_cache_bytes/cost.tau_t seed the split;
  // any remainder of the budget lands on the keep-set.
  if (options_.memory_budget_bytes > 0) {
    const uint64_t total = options_.memory_budget_bytes;
    uint64_t floors[mem::kNumComponents];
    uint64_t initial[mem::kNumComponents];
    floors[mem::kMemtable] = std::max<uint64_t>(64 << 10, total / 32);
    floors[mem::kBlockCache] =
        block_cache_ != nullptr ? std::max<uint64_t>(64 << 10, total / 32)
                                : 0;
    floors[mem::kKeepSet] = 4096;
    initial[mem::kMemtable] = options_.memtable_bytes;
    initial[mem::kBlockCache] =
        block_cache_ != nullptr ? options_.block_cache_bytes : 0;
    initial[mem::kKeepSet] = options_.cost.tau_t;
    mem_budget_.reset(new mem::MemoryBudget(total, floors, initial));

    auto apply = [this](int component, uint64_t target) {
      switch (component) {
        case mem::kMemtable:
          memtable_limit_.store(static_cast<size_t>(target),
                                std::memory_order_relaxed);
          break;
        case mem::kBlockCache:
          if (block_cache_ != nullptr) block_cache_->SetCapacity(target);
          break;
        case mem::kKeepSet:
          // 0 would read as "unset" to base_tau_t(); the floor keeps the
          // target positive, but stay safe against direct Transfer calls.
          cost_model_->set_dynamic_tau_t(std::max<uint64_t>(target, 1));
          break;
      }
    };
    // Push the seeded split into the engine (the ctor may have reshaped
    // the configured values to fit the budget and floors).
    for (int c = 0; c < mem::kNumComponents; ++c) {
      apply(c, mem_budget_->target(c));
    }

    mem::ArbiterOptions aopts;
    aopts.interval_ms = options_.arbiter_interval_ms;
    aopts.clock = clock_;
    aopts.metrics = &metrics_;
    aopts.events = &events_;
    aopts.logger = options_.logger;
    arbiter_.reset(new mem::MemoryArbiter(
        aopts, mem_budget_.get(),
        [this] {
          mem::ArbiterInputs in;
          in.reads = stats_.total_reads();
          in.reads_ssd_l1 = stats_.reads(ReadSource::kSsdLevel1);
          in.writes = stats_.writes();
          if (block_cache_ != nullptr) {
            in.cache_hits = block_cache_->hits();
            in.cache_misses = block_cache_->misses();
          }
          in.bloom_checks = bloom_check_counter_->Value();
          in.bloom_negatives = bloom_negative_counter_->Value();
          in.bloom_false_positives = bloom_fp_counter_->Value();
          in.flushes = stats_.flushes();
          in.slowdowns = slowdown_counter_->Value();
          in.stalls = stall_counter_->Value();
          return in;
        },
        apply));
    arbiter_->Start();
  }

  flush_pool_.reset(new ThreadPool(1));

  // The dedicated Algorithm-1 worker (see compaction_scheduler.h for the
  // thread/lock model). Created before recovery so manual compactions work
  // immediately after Open.
  CompactionScheduler::Options copts;
  copts.workers = options_.compaction_workers;
  copts.event_bus = &events_;
  copts.metrics = &metrics_;
  copts.clock = clock_;
  copts.logger = options_.logger;
  compaction_scheduler_.reset(new CompactionScheduler(copts));
  compaction_scheduler_->set_check([this] {
    return BackgroundCompactionCheck();
  });
  file_gc_fail_counter_ = metrics_.GetCounter("pmblade.gc.remove_failures");
  subcompaction_counter_ =
      metrics_.GetCounter("pmblade.compaction.subcompactions");
  major_wall_nanos_counter_ =
      metrics_.GetCounter("pmblade.compaction.major.wall_nanos");

  // Live q_cli: when env_ is a SimEnv sharing our model, its file wrappers
  // already classify client I/O into the inflight gauges; otherwise DBImpl
  // registers its own client ops (WAL writes, SSD-resident reads) so the
  // io-gate's q_cli term reflects real foreground pressure instead of a
  // constant 0.
  {
    SimEnv* sim = dynamic_cast<SimEnv*>(env_);
    track_client_io_ = (sim == nullptr || sim->model() != model_);
  }

  // Recover or bootstrap.
  ManifestState state;
  std::vector<std::shared_ptr<const PartitionSnapshot>> parts;
  Status s = ReadManifest(env_, dbname_, &state);
  if (s.ok()) {
    l1_factory_->set_next_file_number(state.next_file_number);
    last_sequence_ = state.last_sequence;
    flushed_sequence_ = state.flushed_sequence;
    PMBLADE_RETURN_IF_ERROR(RecoverPartitions(state, &parts));
    if (state.wal_number != 0) {
      PMBLADE_RETURN_IF_ERROR(ReplayWals(state.wal_number));
    }
  } else if (s.IsNotFound()) {
    // Fresh DB: create partitions from the configured boundaries, each
    // with an empty table set.
    std::vector<std::string> ends = options_.partition_boundaries;
    ends.emplace_back();
    std::string prev;
    for (const auto& end : ends) {
      partitions_.push_back(std::make_unique<Partition>(
          next_partition_id_++, partitions_.size(), prev, end, clock_));
      parts.push_back(std::make_shared<const PartitionSnapshot>(
          PartitionSnapshot{prev, end, {}, {}, {}}));
      prev = end;
    }
    // No manifest means nothing on disk is referenced: a directory that
    // still holds pool objects or .sst files (a crash before the very first
    // manifest commit) is all garbage. WAL data replays into the memtable
    // regardless.
    for (const auto& info : pool_->ListObjects()) {
      pool_->Free(info.id);
    }
    std::vector<std::string> children;
    if (env_->GetChildren(dbname_, &children).ok()) {
      for (const auto& child : children) {
        if (child.size() > 4 &&
            child.compare(child.size() - 4, 4, ".sst") == 0) {
          env_->RemoveFile(dbname_ + "/" + child);
        }
      }
    }
  } else {
    return s;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    InstallSuperVersionLocked(
        [&parts](SuperVersion* sv) { sv->parts = std::move(parts); });
  }

  // The manifest's next_file_number can be STALE: logs rotated after the
  // last manifest commit carry numbers at or above it. Allocating from the
  // stale counter would hand NewWal() the number of a replayed live log and
  // O_TRUNC it — the replayed data would then exist only in DRAM until the
  // next flush. Bump past every replayed log before allocating anything.
  for (uint64_t number : live_wals_) {
    if (number >= l1_factory_->peek_next_file_number()) {
      l1_factory_->set_next_file_number(number + 1);
    }
  }

  PMBLADE_RETURN_IF_ERROR(NewWal());
  live_wals_.push_back(wal_number_);
  return PersistManifest();
}

Status DBImpl::RecoverPartitions(
    const ManifestState& state,
    std::vector<std::shared_ptr<const PartitionSnapshot>>* parts) {
  partitions_.clear();

  std::set<uint64_t> referenced_pm_ids;
  std::set<uint64_t> referenced_files;

  TableReaderOptions ropts;
  ropts.comparator = &icmp_;
  ropts.filter_policy = filter_policy_.get();
  ropts.block_cache = block_cache_;

  auto open_pm = [&](uint64_t id, L0TableRef* table) -> Status {
    referenced_pm_ids.insert(id);
    auto objects = pool_->ListObjects();
    uint32_t kind = 0;
    for (const auto& info : objects) {
      if (info.id == id) {
        kind = info.kind;
        break;
      }
    }
    switch (kind) {
      case kPmTableObject: {
        std::shared_ptr<PmTable> t;
        PMBLADE_RETURN_IF_ERROR(PmTable::Open(pool_.get(), id, &t));
        *table = std::move(t);
        break;
      }
      case kArrayTableObject: {
        std::shared_ptr<ArrayTable> t;
        PMBLADE_RETURN_IF_ERROR(ArrayTable::Open(pool_.get(), id, &t));
        *table = std::move(t);
        break;
      }
      case kSnappyTableObject:
      case kSnappyGroupTableObject: {
        std::shared_ptr<SnappyTable> t;
        PMBLADE_RETURN_IF_ERROR(SnappyTable::Open(pool_.get(), id, &t));
        *table = std::move(t);
        break;
      }
      default:
        return Status::Corruption("manifest references missing pm object");
    }
    // The DRAM whole-table bloom is not part of the PM media format;
    // rebuild it by scanning the table (it is immutable from here on), so
    // reopened tables filter exactly like freshly flushed ones.
    if (filter_policy_ != nullptr) {
      (*table)->BuildFilter(filter_policy_.get());
    }
    return Status::OK();
  };

  auto open_sst = [&](uint64_t number, L0TableRef* table) -> Status {
    referenced_files.insert(number);
    TableReaderOptions opts = ropts;
    opts.file_number = number;
    std::shared_ptr<SsdL0Table> t;
    PMBLADE_RETURN_IF_ERROR(SsdL0Table::Open(
        env_, SstFileName(dbname_, number), number, opts, &t));
    *table = std::move(t);
    return Status::OK();
  };

  for (const auto& mp : state.partitions) {
    partitions_.push_back(std::make_unique<Partition>(
        mp.id, partitions_.size(), mp.begin_key, mp.end_key, clock_));
    next_partition_id_ = std::max(next_partition_id_, mp.id + 1);
    auto tables = std::make_shared<PartitionSnapshot>(
        PartitionSnapshot{mp.begin_key, mp.end_key, {}, {}, {}});
    for (uint64_t id : mp.unsorted_pm_ids) {
      L0TableRef t;
      PMBLADE_RETURN_IF_ERROR(open_pm(id, &t));
      tables->unsorted.push_back(std::move(t));
    }
    for (uint64_t id : mp.sorted_pm_ids) {
      L0TableRef t;
      PMBLADE_RETURN_IF_ERROR(open_pm(id, &t));
      tables->sorted_run.push_back(std::move(t));
    }
    for (uint64_t number : mp.unsorted_file_numbers) {
      L0TableRef t;
      PMBLADE_RETURN_IF_ERROR(open_sst(number, &t));
      tables->unsorted.push_back(std::move(t));
    }
    for (uint64_t number : mp.sorted_file_numbers) {
      L0TableRef t;
      PMBLADE_RETURN_IF_ERROR(open_sst(number, &t));
      tables->sorted_run.push_back(std::move(t));
    }
    for (const ManifestSsdRun& mrun : mp.ssd_runs) {
      SsdRun run;
      run.level = mrun.level;
      for (uint64_t number : mrun.file_numbers) {
        L0TableRef t;
        PMBLADE_RETURN_IF_ERROR(open_sst(number, &t));
        run.tables.push_back(std::move(t));
      }
      tables->ssd_runs.push_back(std::move(run));
    }
    parts->push_back(std::move(tables));
  }

  // Garbage-collect pool objects an interrupted compaction left behind.
  for (const auto& info : pool_->ListObjects()) {
    if (referenced_pm_ids.count(info.id) == 0) {
      pool_->Free(info.id);
    }
  }
  // Garbage-collect orphan .sst files.
  std::vector<std::string> children;
  if (env_->GetChildren(dbname_, &children).ok()) {
    for (const auto& child : children) {
      if (child.size() > 4 &&
          child.compare(child.size() - 4, 4, ".sst") == 0) {
        uint64_t number = strtoull(child.c_str(), nullptr, 10);
        if (referenced_files.count(number) == 0) {
          env_->RemoveFile(dbname_ + "/" + child);
        }
      }
    }
  }
  return Status::OK();
}

Status DBImpl::ReplayWals(uint64_t floor) {
  // The manifest's wal number is a FLOOR: every log >= it may hold
  // acknowledged writes not yet in level-0 tables (with a background flush
  // in flight there can be several — the imm's logs plus the active one).
  // Replay them all, ascending, so a crash mid-flush loses nothing; logs
  // below the floor were flushed before the last manifest commit and are
  // garbage-collected here.
  std::vector<uint64_t> numbers;
  std::vector<std::string> children;
  PMBLADE_RETURN_IF_ERROR(env_->GetChildren(dbname_, &children));
  for (const auto& child : children) {
    if (child.size() > 8 && child.compare(0, 4, "wal-") == 0 &&
        child.compare(child.size() - 4, 4, ".log") == 0) {
      uint64_t number = strtoull(child.c_str() + 4, nullptr, 10);
      if (number < floor) {
        env_->RemoveFile(dbname_ + "/" + child);
      } else {
        numbers.push_back(number);
      }
    }
  }
  std::sort(numbers.begin(), numbers.end());

  struct LogReporter : wal::Reader::Reporter {
    Logger* logger;
    void Corruption(size_t bytes, const Status& status) override {
      PMBLADE_WARN(logger, "wal replay dropped %zu bytes: %s", bytes,
                   status.ToString().c_str());
    }
  } reporter;
  reporter.logger = options_.logger;

  // Sequences at or below this were flushed to level-0 before the last
  // manifest commit: a replayed commit marker whose payload falls under it
  // must NOT re-apply (carried fence records can outlive their payload's
  // flush), or the memtable would hold duplicate internal keys. This must
  // be the true flush watermark — the manifest's last_sequence runs ahead
  // of it whenever the memtable holds acknowledged writes, and using that
  // as the floor drops committed payloads on a second recovery.
  const SequenceNumber flushed_floor = flushed_sequence_;

  for (uint64_t number : numbers) {
    std::unique_ptr<SequentialFile> file;
    PMBLADE_RETURN_IF_ERROR(
        env_->NewSequentialFile(WalFileName(dbname_, number), &file));
    wal::Reader reader(file.get(), &reporter);
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      if (record.size() < 12) continue;
      if (IsTxnRecord(record)) {
        TxnRecord txn;
        Status ts = DecodeTxnRecord(record, &txn);
        if (!ts.ok()) {
          PMBLADE_WARN(options_.logger, "wal replay dropped txn record: %s",
                       ts.ToString().c_str());
          continue;
        }
        if (txn.txn_id > max_seen_txn_id_) max_seen_txn_id_ = txn.txn_id;
        switch (txn.type) {
          case TxnRecordType::kPrepare: {
            // Carried copies of an already-committed fence must not demote
            // it back to pending.
            TxnEntry& e = txns_[txn.txn_id];
            if (!e.committed) {
              e.participants = txn.participants;
              e.payload.assign(txn.payload.data(), txn.payload.size());
              e.marker_ticket = 0;  // already durable: it came off disk
            }
            break;
          }
          case TxnRecordType::kCommit: {
            auto it = txns_.find(txn.txn_id);
            if (it == txns_.end()) {
              // Marker-only evidence: the fence was forgotten before the
              // prepare's log died, but the marker outlived it. Keep the
              // verdict for sibling resolution.
              replay_committed_.insert(txn.txn_id);
              break;
            }
            if (!it->second.committed && txn.base_seq > flushed_floor) {
              WriteBatch batch;
              batch.SetContentsFrom(Slice(it->second.payload));
              batch.SetSequence(txn.base_seq);
              Status s = batch.InsertInto(sv_->mem.get());
              if (!s.ok()) return s;
              SequenceNumber end_seq = txn.base_seq + batch.Count() - 1;
              if (end_seq > last_sequence_) last_sequence_ = end_seq;
            }
            it->second.committed = true;
            it->second.base_seq = txn.base_seq;
            it->second.marker_ticket = 0;
            break;
          }
          case TxnRecordType::kRollback: {
            auto it = txns_.find(txn.txn_id);
            if (it != txns_.end()) {
              if (it->second.committed) break;  // commit evidence wins
              txns_.erase(it);
            }
            replay_rolled_back_.insert(txn.txn_id);
            break;
          }
        }
        continue;
      }
      WriteBatch batch;
      batch.SetContentsFrom(record);
      Status s = batch.InsertInto(sv_->mem.get());
      if (!s.ok()) return s;
      SequenceNumber end_seq = batch.Sequence() + batch.Count() - 1;
      if (end_seq > last_sequence_) last_sequence_ = end_seq;
    }
    // The replayed log stays live (and in the manifest's floor) until the
    // recovered memtable is flushed; deleting it before then would lose the
    // data on a second crash.
    live_wals_.push_back(number);
  }
  return Status::OK();
}

Status DBImpl::NewWal() {
  // Only called from a write-leader context (or Init), so no append can be
  // racing the rotation. Old logs are deleted when their flush commits.
  uint64_t new_number = l1_factory_->NextFileNumber();
  std::unique_ptr<WritableFile> file;
  PMBLADE_RETURN_IF_ERROR(
      env_->NewWritableFile(WalFileName(dbname_, new_number), &file));
  if (wal_file_ != nullptr) {
    // Sync the rotated-out log before abandoning it. Sync writes only ever
    // fsync the CURRENT wal, yet a sync ack promises durability for the
    // whole write history — any unsynced tail left behind here would be
    // covered by that promise but dropped by a power cut.
    PMBLADE_RETURN_IF_ERROR(wal_file_->Sync());
    wal_synced_ticket_.store(wal_append_ticket_.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
    PMBLADE_SYNC_POINT("DBImpl::NewWal:OldWalSynced");
    wal_file_->Close();
  }
  wal_number_ = new_number;
  wal_file_ = std::move(file);
  wal_.reset(new wal::Writer(wal_file_.get()));
  return CarryTxnRecordsLocked();
}

Status DBImpl::CarryTxnRecordsLocked() {
  // Re-home every retained txn record into the fresh WAL: pending prepares
  // (their payload is nowhere else until committed+flushed) and committed
  // fences (siblings' recovery may still need the commit evidence). The
  // copies in the rotated-out logs die when their flush commits, so the new
  // WAL must hold these durably first — hence the fsync when anything was
  // carried.
  if (txns_.empty()) return Status::OK();
  std::string record;
  for (auto& entry : txns_) {
    EncodePrepareRecord(entry.first, entry.second.participants,
                        Slice(entry.second.payload), &record);
    PMBLADE_RETURN_IF_ERROR(wal_->AddRecord(record));
    wal_append_ticket_.fetch_add(1, std::memory_order_relaxed);
    if (entry.second.committed) {
      EncodeCommitRecord(entry.first, entry.second.base_seq, &record);
      PMBLADE_RETURN_IF_ERROR(wal_->AddRecord(record));
      wal_append_ticket_.fetch_add(1, std::memory_order_relaxed);
    }
    entry.second.marker_ticket =
        wal_append_ticket_.load(std::memory_order_relaxed);
  }
  PMBLADE_RETURN_IF_ERROR(wal_file_->Sync());
  wal_synced_ticket_.store(wal_append_ticket_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  PMBLADE_SYNC_POINT("DBImpl::NewWal:TxnRecordsCarried");
  return Status::OK();
}

Status DBImpl::PersistManifest() {
  ManifestState state;
  state.next_file_number = l1_factory_->peek_next_file_number();
  state.last_sequence = last_sequence_;
  state.flushed_sequence = flushed_sequence_;
  // Replay floor: the oldest log still holding un-flushed data.
  state.wal_number = live_wals_.empty() ? wal_number_ : live_wals_.front();
  for (const auto& partition : partitions_) {
    ManifestPartition mp;
    mp.id = partition->id();
    mp.begin_key = partition->begin_key();
    mp.end_key = partition->end_key();
    const bool ssd_l0 = options_.l0_layout == L0Layout::kSstable;
    const PartitionSnapshot& tables = *sv_->parts[partition->index()];
    for (const auto& table : tables.unsorted) {
      (ssd_l0 ? mp.unsorted_file_numbers : mp.unsorted_pm_ids)
          .push_back(table->id());
    }
    for (const auto& table : tables.sorted_run) {
      (ssd_l0 ? mp.sorted_file_numbers : mp.sorted_pm_ids)
          .push_back(table->id());
    }
    for (const SsdRun& run : tables.ssd_runs) {
      ManifestSsdRun mrun;
      mrun.level = run.level;
      for (const auto& table : run.tables) {
        mrun.file_numbers.push_back(table->id());
      }
      mp.ssd_runs.push_back(std::move(mrun));
    }
    state.partitions.push_back(std::move(mp));
  }
  return WriteManifest(env_, dbname_, state);
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Status DBImpl::Put(const WriteOptions& options, const Slice& key,
                   const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, &batch);
}

Status DBImpl::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

Status DBImpl::Write(const WriteOptions& options, WriteBatch* updates) {
  const uint64_t start = clock_->NowNanos();
  WriterState w(updates, options.sync || options_.sync_wal);
  Status status = WriteInternal(w);
  if (updates != nullptr) {
    stats_.RecordWrite(updates->ApproximateSize(),
                       clock_->NowNanos() - start);
  }
  return status;
}

Status DBImpl::WriteInternal(WriterState& w) {
  std::unique_lock<std::mutex> lock(mu_);
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) {
    w.cv.wait(lock);
  }
  if (w.done) {
    // A leader committed this write as part of its group.
    return w.status;
  }

  // This thread is the group leader: it owns the WAL, the memtable and the
  // group scratch (group_, staged_, group_batch_) until it pops itself off
  // the queue, which is what makes the unlocked section below
  // single-writer.
  const bool txn = w.kind != WriteKind::kBatch;
  CollectWriteGroupLocked(&w);
  bool inserts = !txn;
  for (WriterState* m : group_) inserts |= m->kind == WriteKind::kTxnCommit;
  Status status;
  if (inserts) {
    // A group that inserts into the memtable needs room there (a force-flush
    // marker only rotates it). MakeRoomForWrite may drop the lock, so collect
    // again: writers that queued meanwhile join the group.
    status = MakeRoomForWrite(lock, /*force=*/!txn && w.batch == nullptr);
    CollectWriteGroupLocked(&w);
  } else {
    status = bg_error_;
  }
  // A group that never started fails its leader alone; every follower
  // leads its own attempt next.
  WriterState* last_writer = status.ok() ? group_.back() : &w;

  // Stage one WAL record per unit of work under mu_: the coalesced batch
  // group, or each txn op's own record. Reserved up front because a
  // commit's payload points into its own element.
  staged_.reserve(group_.size());
  bool group_sync = false;
  if (status.ok()) {
    for (WriterState* m : group_) {
      switch (m->kind) {
        case WriteKind::kBatch:
          if (m->batch == nullptr) break;  // force-flush marker: no record
          if (staged_.empty()) {
            // A lone batch is logged and inserted as is, without a copy.
            staged_.emplace_back(m);
            staged_.back().payload = m->batch;
          } else {
            // Switch to the scratch batch; the leader's own is untouched.
            WriteBatch*& group = staged_.back().payload;
            if (group != &group_batch_) {
              group_batch_.Clear();
              group_batch_.Append(*group);
              group = &group_batch_;
            }
            group_batch_.Append(*m->batch);
          }
          break;
        case WriteKind::kTxnPrepare:
          staged_.emplace_back(m);
          EncodePrepareRecord(m->txn_id, *m->participants, m->batch->rep(),
                              &staged_.back().txn_record);
          break;
        case WriteKind::kTxnCommit: {
          // An unknown txn or a repeated commit settles here, without IO
          // and without a say in the group's fsync.
          auto it = txns_.find(m->txn_id);
          if (it == txns_.end()) {
            m->own_status = true;
            m->status = Status::InvalidArgument("commit of unknown txn");
            continue;
          }
          if (it->second.committed) {
            m->own_status = true;
            m->status = Status::OK();
            continue;
          }
          staged_.emplace_back(m);
          StagedRecord& s = staged_.back();
          s.commit_batch.SetContentsFrom(Slice(it->second.payload));
          s.payload = &s.commit_batch;
          break;  // the record carries the base sequence: encoded below
        }
        case WriteKind::kTxnRollback:
          staged_.emplace_back(m);
          EncodeRollbackRecord(m->txn_id, &staged_.back().txn_record);
          break;
      }
      // One fsync covers the whole group: any member that wants durability
      // upgrades everyone (a prepare always does).
      group_sync |= m->sync;
    }
  }
  // Every payload takes its sequences from one running cursor.
  SequenceNumber last_sequence = last_sequence_;
  bool has_payload = false;
  for (StagedRecord& s : staged_) {
    if (s.payload == nullptr) continue;
    s.payload->SetSequence(last_sequence + 1);
    if (s.writer->kind == WriteKind::kTxnCommit) {
      EncodeCommitRecord(s.writer->txn_id, last_sequence + 1, &s.txn_record);
    }
    last_sequence += s.payload->Count();
    has_payload = true;
  }

  if (!staged_.empty()) {
    // Only the leader switches memtables, so sv_ keeps `mem` alive while
    // the lock is released below.
    MemTable* mem = sv_->mem.get();
    bool sync_error = false;
    // WAL append, ONE fsync for the whole group, Eq. 2 probes and the
    // memtable insert all run outside mu_: readers and queueing writers
    // proceed concurrently.
    lock.unlock();
    {
      // The WAL append/fsync lands on the SSD: register one client op so
      // the io-gate's q_cli gauge sees live foreground write pressure
      // (no-op when the SimEnv already classifies this I/O).
      ScopedExternalIo wal_io(track_client_io_ ? model_ : nullptr,
                              IoClass::kClient);
      uint64_t bytes = 0;
      for (StagedRecord& s : staged_) {
        const Slice record = s.txn_record.empty() ? Slice(s.payload->rep())
                                                  : Slice(s.txn_record);
        if (status.ok()) status = wal_->AddRecord(record);
        bytes += record.size();
        s.ticket =
            wal_append_ticket_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (!txn) {
          PMBLADE_SYNC_POINT("DBImpl::Write:AfterWalAppend");
        } else if (status.ok() && s.writer->kind == WriteKind::kTxnCommit) {
          PMBLADE_SYNC_POINT("DBImpl::CommitTxn:AfterAppend");
        }
      }
      if (status.ok() && group_sync) {
        const uint64_t sync_start = clock_->NowNanos();
        status = wal_file_->Sync();
        if (!status.ok()) {
          sync_error = true;
        } else {
          wal_sync_counter_->Inc();
          wal_synced_ticket_.store(staged_.back().ticket,
                                   std::memory_order_relaxed);
          if (!txn) {
            PMBLADE_SYNC_POINT("DBImpl::Write:AfterWalSync");
          }
          for (StagedRecord& s : staged_) {
            if (s.writer->kind == WriteKind::kTxnPrepare) {
              PMBLADE_SYNC_POINT("DBImpl::PrepareTxn:AfterSync");
            }
          }
          if (events_.active()) {
            events_.Emit(
                obs::Event(obs::EventType::kWalSync, clock_->NowNanos())
                    .With("bytes", static_cast<double>(bytes))
                    .With("writes", static_cast<double>(group_.size()))
                    .With("duration_nanos",
                          static_cast<double>(clock_->NowNanos() -
                                              sync_start)));
          }
        }
      }
    }
    if (status.ok()) {
      for (StagedRecord& s : staged_) {
        if (s.payload == nullptr) continue;
        NoteGroupWrites(*s.payload, mem);
        status = s.payload->InsertInto(mem);
        if (!status.ok()) break;
      }
    }
    if (status.ok() && txn && events_.active()) {
      for (StagedRecord& s : staged_) {
        const WriterState& m = *s.writer;
        obs::Event event(m.kind == WriteKind::kTxnPrepare
                             ? obs::EventType::kTxnPrepare
                         : m.kind == WriteKind::kTxnCommit
                             ? obs::EventType::kTxnCommit
                             : obs::EventType::kTxnRollback,
                         clock_->NowNanos());
        event.With("txn_id", static_cast<double>(m.txn_id));
        if (m.kind == WriteKind::kTxnPrepare) {
          event.With("participants",
                     static_cast<double>(m.participants->size()))
              .With("bytes", static_cast<double>(m.batch->rep().size()));
        }
        events_.Emit(event);
      }
    }
    lock.lock();
    if (sync_error) {
      // The durability state of the WAL tail is unknown; fail every
      // subsequent write rather than acknowledge on a broken log.
      bg_error_ = status;
    }
    if (status.ok()) {
      if (has_payload) {
        // Publish the group's sequences only now that every entry is in
        // the memtable: a reader snapshotting last_sequence_ can never
        // observe a torn group.
        if (!txn) {
          PMBLADE_SYNC_POINT("DBImpl::Write:BeforePublish");
        } else {
          PMBLADE_SYNC_POINT("DBImpl::CommitTxn:BeforePublish");
        }
        last_sequence_ = last_sequence;
      }
      for (StagedRecord& s : staged_) {
        const WriterState& m = *s.writer;
        switch (m.kind) {
          case WriteKind::kBatch:
            break;
          case WriteKind::kTxnPrepare: {
            TxnEntry& entry = txns_[m.txn_id];
            entry.participants = *m.participants;
            entry.payload = m.batch->rep();
            entry.committed = false;
            entry.marker_ticket = s.ticket;
            max_seen_txn_id_ = std::max(max_seen_txn_id_, m.txn_id);
            txn_prepared_counter_->Inc();
            break;
          }
          case WriteKind::kTxnCommit: {
            auto it = txns_.find(m.txn_id);  // re-find: mu_ was released
            if (it != txns_.end()) {
              it->second.committed = true;
              it->second.base_seq = s.payload->Sequence();
              it->second.marker_ticket = s.ticket;
            }
            txn_committed_counter_->Inc();
            break;
          }
          case WriteKind::kTxnRollback:
            txns_.erase(m.txn_id);
            txn_rolled_back_counter_->Inc();
            break;
        }
      }
      group_counter_->Inc();
      group_write_counter_->Inc(group_.size());
      group_size_hist_->Observe(group_.size());
    }
    staged_.clear();
  }

  // Wake everyone the group covered (they return with the group status
  // unless staging settled their own) and promote the next queued writer
  // to leader.
  while (true) {
    WriterState* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      if (!ready->own_status) ready->status = status;
      ready->done = true;
      ready->cv.notify_one();
    }
    if (ready == last_writer) break;
  }
  if (!writers_.empty()) writers_.front()->cv.notify_one();

  return w.own_status ? w.status : status;
}

void DBImpl::CollectWriteGroupLocked(WriterState* leader) {
  group_.clear();
  group_.push_back(leader);
  const bool txn = leader->kind != WriteKind::kBatch;
  if (!txn && leader->batch == nullptr) return;  // a marker leads alone

  // Cap a batch group at 1 MiB, and tighter when the leader itself is small
  // so tiny writes aren't delayed behind megabytes of followers.
  size_t size = txn ? 0 : leader->batch->ApproximateSize();
  size_t max_size = kWriteGroupMaxBytes;
  if (size <= (128 << 10) && size + (128 << 10) < max_size) {
    max_size = size + (128 << 10);
  }
  for (auto it = writers_.begin() + 1; it != writers_.end(); ++it) {
    WriterState* candidate = *it;
    // Batches and txn ops never share a group, and a force-flush marker
    // leads its own turn.
    if ((candidate->kind != WriteKind::kBatch) != txn) break;
    if (!txn) {
      if (candidate->batch == nullptr) break;
      size += candidate->batch->ApproximateSize();
      if (size > max_size) break;
    }
    group_.push_back(candidate);
  }
}

// ---------------------------------------------------------------------------
// Cross-shard two-phase commit (see the header block and sharded_db.cc)
// ---------------------------------------------------------------------------

Status DBImpl::PrepareTxn(const WriteOptions& /*options*/, uint64_t txn_id,
                          const std::vector<uint32_t>& participants,
                          WriteBatch* batch) {
  if (batch == nullptr || batch->Count() == 0) {
    return Status::InvalidArgument("empty txn sub-batch");
  }
  // Prepares are ALWAYS fsynced, regardless of the user's sync flag: the
  // all-prepares-durable state is what lets recovery COMMIT an in-doubt
  // transaction, so an unsynced prepare would turn "resolution commits"
  // into data loss on the other shards.
  WriterState w(WriteKind::kTxnPrepare, txn_id, batch, /*sync=*/true);
  w.participants = &participants;
  return WriteInternal(w);
}

Status DBImpl::CommitTxn(const WriteOptions& options, uint64_t txn_id) {
  WriterState w(WriteKind::kTxnCommit, txn_id, nullptr,
                options.sync || options_.sync_wal);
  return WriteInternal(w);
}

Status DBImpl::RollbackTxn(const WriteOptions& options, uint64_t txn_id) {
  WriterState w(WriteKind::kTxnRollback, txn_id, nullptr,
                options.sync || options_.sync_wal);
  return WriteInternal(w);
}

std::vector<DBImpl::InDoubtTxn> DBImpl::GetInDoubtTxns() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<InDoubtTxn> result;
  for (const auto& entry : txns_) {
    if (entry.second.committed) continue;
    InDoubtTxn txn;
    txn.txn_id = entry.first;
    txn.participants = entry.second.participants;
    result.push_back(std::move(txn));
  }
  return result;
}

DBImpl::TxnPeerState DBImpl::QueryTxn(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn_id);
  if (it != txns_.end()) {
    return it->second.committed ? TxnPeerState::kCommitted
                                : TxnPeerState::kPrepared;
  }
  if (replay_committed_.count(txn_id) != 0) return TxnPeerState::kCommitted;
  if (replay_rolled_back_.count(txn_id) != 0) {
    return TxnPeerState::kRolledBack;
  }
  return TxnPeerState::kUnknown;
}

bool DBImpl::TxnMarkerDurable(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) return true;  // already forgotten
  return it->second.marker_ticket <=
         wal_synced_ticket_.load(std::memory_order_relaxed);
}

void DBImpl::ForgetTxn(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  txns_.erase(txn_id);
  replay_committed_.erase(txn_id);
  replay_rolled_back_.erase(txn_id);
}

uint64_t DBImpl::MaxSeenTxnId() {
  std::lock_guard<std::mutex> lock(mu_);
  return max_seen_txn_id_;
}

std::vector<uint64_t> DBImpl::GetRetainedTxnIds() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> result;
  for (const auto& entry : txns_) result.push_back(entry.first);
  for (uint64_t txn_id : replay_committed_) result.push_back(txn_id);
  for (uint64_t txn_id : replay_rolled_back_) result.push_back(txn_id);
  return result;
}

void DBImpl::NoteGroupWrites(const WriteBatch& group, MemTable* mem) {
  // Partition write/update counters for the cost model. Update detection
  // probes only the memtable (cheap, DRAM, no value copy): hot keys
  // rewritten within a memtable window are what Eq. 2 cares about. Runs in
  // the unlocked leader section BEFORE the group is inserted, so the probe
  // sees only prior writes.
  struct CounterHandler : WriteBatch::Handler {
    DBImpl* db;
    MemTable* mem;
    void Put(const Slice& key, const Slice&) override {
      LookupKey lkey(key, kMaxSequenceNumber);
      db->FindPartition(key)->NoteWrite(mem->Contains(lkey));
    }
    void Delete(const Slice& key) override {
      db->FindPartition(key)->NoteWrite(true);
    }
  } handler;
  handler.db = this;
  handler.mem = mem;
  (void)group.Iterate(&handler);  // we built the group; it cannot be malformed
}

Status DBImpl::MakeRoomForWrite(std::unique_lock<std::mutex>& lock,
                                bool force) {
  bool allow_delay = !force;
  while (true) {
    if (!bg_error_.ok()) return bg_error_;
    const size_t usage = sv_->mem->ApproximateMemoryUsage();
    // The rotation threshold is dynamic: the memory arbiter retunes
    // memtable_limit_ at runtime (it equals options_.memtable_bytes when
    // the arbiter is off).
    const size_t limit = memtable_limit_.load(std::memory_order_relaxed);
    if (allow_delay && sv_->imm != nullptr &&
        usage >= static_cast<size_t>(limit *
                                     options_.write_slowdown_watermark)) {
      // Soft limit: the flush is behind. Delay this write once by ~1 ms to
      // shed load gradually instead of hitting the hard stall cliff.
      slowdown_counter_->Inc();
      lock.unlock();
      clock_->SleepForNanos(options_.write_slowdown_nanos);
      lock.lock();
      allow_delay = false;
      continue;
    }
    if (!force && usage < limit) break;
    if (sv_->imm != nullptr) {
      // Hard stall: both memtables are full; wait for the background flush.
      stall_counter_->Inc();
      const uint64_t stall_start = clock_->NowNanos();
      flush_done_cv_.wait(lock, [this] {
        return sv_->imm == nullptr || !bg_error_.ok();
      });
      stall_nanos_counter_->Inc(clock_->NowNanos() - stall_start);
      continue;
    }
    if (sv_->mem->num_entries() == 0) break;  // nothing to rotate
    PMBLADE_RETURN_IF_ERROR(SwitchMemTableLocked());
    force = false;
  }
  return Status::OK();
}

Status DBImpl::SwitchMemTableLocked() {
  // MakeRoomForWrite guarantees there is no imm here.
  std::vector<uint64_t> feeding = live_wals_;
  PMBLADE_RETURN_IF_ERROR(NewWal());
  live_wals_.push_back(wal_number_);
  PMBLADE_SYNC_POINT("DBImpl::SwitchMemTable:AfterNewWal");
  imm_wals_ = std::move(feeding);
  InstallSuperVersionLocked([this](SuperVersion* sv) {
    sv->imm = std::move(sv->mem);
    sv->mem = SuperVersion::NewMemTable(icmp_);
  });
  // Writes are quiesced here (leader context under mu_), so last_sequence_
  // is exactly the frozen memtable's ceiling.
  imm_ceiling_ = last_sequence_;
  flush_pool_->Submit([this] { BackgroundFlush(); });
  return Status::OK();
}

void DBImpl::BackgroundFlush() {
  std::shared_ptr<MemTable> imm;
  {
    std::lock_guard<std::mutex> lock(mu_);
    imm = sv_->imm;
  }
  if (imm == nullptr) return;
  PMBLADE_SYNC_POINT("DBImpl::BackgroundFlush:Start");

  const uint64_t flush_start = clock_->NowNanos();
  if (events_.active()) {
    events_.Emit(obs::Event(obs::EventType::kFlushBegin, flush_start)
                     .With("entries", static_cast<double>(imm->num_entries()))
                     .With("bytes", static_cast<double>(
                                        imm->ApproximateMemoryUsage())));
  }

  L0TableFactory* factory =
      l0_factory_ != nullptr ? l0_factory_.get() : l1_factory_.get();

  // Build per-partition level-0 tables WITHOUT the DB mutex: imm is frozen,
  // partition boundaries are immutable after Init, and the factory / PM
  // pool are internally synchronized. Readers and writers proceed.
  std::vector<std::pair<Partition*, L0TableRef>> built;
  Status s;
  for (auto& partition : partitions_) {
    RangeClippedIterator slice(imm->NewIterator(), partition->begin_key(),
                               partition->end_key());
    slice.SeekToFirst();
    L0TableRef table;
    s = factory->BuildFrom(&slice, &table);  // no table for an empty slice
    if (!s.ok()) break;
    if (table != nullptr) built.emplace_back(partition.get(), std::move(table));
  }
  PMBLADE_SYNC_POINT("DBImpl::BackgroundFlush:BuiltTables");

  std::lock_guard<std::mutex> lock(mu_);
  if (s.ok()) {
    // One install under a short critical section: imm leaves the read view
    // as its tables join it, newest first per partition.
    std::vector<Partition*> touched;
    InstallSuperVersionLocked([&built, &touched](SuperVersion* sv) {
      for (auto& entry : built) {
        Partition* partition = entry.first;
        auto next =
            std::make_shared<PartitionSnapshot>(*sv->parts[partition->index()]);
        next->unsorted.insert(next->unsorted.begin(), std::move(entry.second));
        sv->parts[partition->index()] = std::move(next);
        touched.push_back(partition);
      }
      sv->imm = nullptr;
    });
    if (imm_ceiling_ > flushed_sequence_) flushed_sequence_ = imm_ceiling_;
    stats_.AddFlush();
    bg_flush_counter_->Inc();

    // The flushed memtable's logs are now redundant: advance the replay
    // floor, commit the manifest, then delete them.
    std::vector<uint64_t> flushed = std::move(imm_wals_);
    imm_wals_.clear();
    for (uint64_t number : flushed) {
      live_wals_.erase(
          std::remove(live_wals_.begin(), live_wals_.end(), number),
          live_wals_.end());
    }
    PMBLADE_SYNC_POINT("DBImpl::BackgroundFlush:Installed");
    s = PersistManifest();
    PMBLADE_SYNC_POINT("DBImpl::BackgroundFlush:ManifestCommitted");
    if (s.ok()) {
      for (uint64_t number : flushed) {
        const std::string path = WalFileName(dbname_, number);
        Status rs = env_->RemoveFile(path);
        if (!rs.ok() && env_->FileExists(path)) {
          // A WAL that survives its delete is re-replayed on the next open —
          // harmless for correctness (its data is already durable in L0 and
          // replay is idempotent) but it costs startup time and disk. Keep
          // retrying after future manifest commits instead of leaking it.
          PMBLADE_WARN(options_.logger, "failed to delete flushed wal %s: %s",
                       path.c_str(), rs.ToString().c_str());
          file_gc_fail_counter_->Inc();
          pending_file_gc_.push_back(path);
        }
      }
      PMBLADE_SYNC_POINT("DBImpl::BackgroundFlush:WalsDeleted");
      RetryPendingFileGcLocked();
    }
    if (events_.active()) {
      events_.Emit(
          obs::Event(obs::EventType::kFlushEnd, clock_->NowNanos())
              .With("tables", static_cast<double>(touched.size()))
              .With("duration_nanos",
                    static_cast<double>(clock_->NowNanos() - flush_start)));
    }
    if (s.ok()) {
      // The flush is committed and imm is clear: wake stalled writers
      // NOW. Algorithm 1 is handed to the scheduler and must not extend
      // the stall.
      flush_done_cv_.notify_all();
      ScheduleCompactionCheck(touched);
    }
  } else {
    // Failed build: drop partial outputs. imm stays installed for reads
    // and its data remains recoverable from the still-live WALs.
    for (auto& entry : built) entry.second->Destroy();
  }
  if (!s.ok()) {
    bg_error_ = s;
    PMBLADE_WARN(options_.logger, "background flush failed: %s",
                 s.ToString().c_str());
  }
  flush_done_cv_.notify_all();
}

void DBImpl::RetryPendingFileGcLocked() {
  if (pending_file_gc_.empty()) return;
  std::vector<std::string> still_pending;
  for (const std::string& path : pending_file_gc_) {
    if (!env_->FileExists(path)) continue;  // a later attempt got it
    Status rs = env_->RemoveFile(path);
    if (!rs.ok() && env_->FileExists(path)) still_pending.push_back(path);
  }
  pending_file_gc_ = std::move(still_pending);
}

Status DBImpl::FlushMemTable() {
  // Rotate the memtable through the writer queue (a batch-less marker) so
  // WAL rotation stays leader-exclusive, then wait for the background
  // flush to commit.
  PMBLADE_RETURN_IF_ERROR(Write(WriteOptions(), nullptr));
  {
    std::unique_lock<std::mutex> lock(mu_);
    flush_done_cv_.wait(lock, [this] {
      return sv_->imm == nullptr || !bg_error_.ok();
    });
    PMBLADE_RETURN_IF_ERROR(bg_error_);
  }
  // Algorithm-1 work triggered by this flush runs on the compaction
  // scheduler; drain it so maintenance callers (tests, CompactToLevel1, the
  // crash model) observe the post-compaction state deterministically.
  // Bounded even when the env is dying: failed checks retry a bounded
  // number of times (CompactionScheduler::Options::retry_limit), then the
  // scheduler parks.
  compaction_scheduler_->WaitIdle();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Compaction scheduling (Algorithm 1)
// ---------------------------------------------------------------------------

void DBImpl::ScheduleCompactionCheck(const std::vector<Partition*>& touched) {
  for (Partition* partition : touched) {
    MarkCompactionDirtyLocked(partition);
  }
  compaction_scheduler_->ScheduleCheck();
}

void DBImpl::MarkCompactionDirtyLocked(Partition* partition) {
  if (std::find(compaction_dirty_.begin(), compaction_dirty_.end(),
                partition) == compaction_dirty_.end()) {
    compaction_dirty_.push_back(partition);
  }
}

Status DBImpl::BackgroundCompactionCheck() {
  std::unique_lock<std::mutex> lock(mu_);
  // Claim phase: take the dirty partitions no concurrent check holds. A
  // partition another worker is compacting STAYS dirty — the holder's check
  // (or this one, below) hands it to a fresh check once claims release, so
  // dirtiness is never lost and two workers never share a partition.
  std::vector<Partition*> mine;
  {
    std::vector<Partition*> still_held;
    for (Partition* partition : compaction_dirty_) {
      if (compacting_.insert(partition).second) {
        mine.push_back(partition);
      } else {
        still_held.push_back(partition);
      }
    }
    compaction_dirty_ = std::move(still_held);
  }
#ifdef PMBLADE_SYNC_POINTS
  {
    std::vector<uint64_t> claimed_ids;
    for (Partition* partition : mine) claimed_ids.push_back(partition->id());
    PMBLADE_SYNC_POINT_ARG("DBImpl::CompactionCheck:Claimed", &claimed_ids);
  }
#endif
  Status s = RunCompactionsLocked(lock, mine);
  for (Partition* partition : mine) compacting_.erase(partition);
  if (!s.ok()) {
    // Re-arm the dirty set so the scheduler's retry (or the next
    // flush-triggered check) re-evaluates the same partitions.
    for (Partition* partition : mine) MarkCompactionDirtyLocked(partition);
  }
  // Flushes may have re-dirtied partitions this check was holding (a fresh
  // check skipped them as claimed). Only a check that owned claims
  // re-schedules — a check that claimed nothing must not, or two no-op
  // checks would ping-pong the queue while the holder works.
  if (!mine.empty() && !compaction_dirty_.empty() && s.ok()) {
    compaction_scheduler_->ScheduleCheck();
  }
  return s;
}

Status DBImpl::RunCompactionsLocked(std::unique_lock<std::mutex>& lock,
                                    const std::vector<Partition*>& touched) {
  // First failure seen; siblings keep compacting (isolation: one poisoned
  // partition must not block progress elsewhere in the same check).
  Status first_error;
  if (options_.enable_cost_model) {
    if (options_.enable_internal_compaction) {
      for (Partition* partition : touched) {
        PartitionCounters counters =
            partition->Counters(*sv_->parts[partition->index()]);
        CostDecision decision = cost_model_->EvaluateInternal(counters);
        decision_counter_->Inc();
        if (decision.eq1_triggered) eq1_trigger_counter_->Inc();
        if (decision.eq2_triggered) eq2_trigger_counter_->Inc();
        if (events_.active()) {
          // Every evaluation is recorded — negative verdicts explain why a
          // partition was NOT compacted, which matters as much as the
          // positives when debugging the policy.
          events_.Emit(
              obs::Event(obs::EventType::kInternalDecision,
                         clock_->NowNanos())
                  .With("partition", static_cast<double>(counters.partition_id))
                  .With("n_r_hat", counters.reads_per_sec)
                  .With("n_unsorted",
                        static_cast<double>(counters.unsorted_tables))
                  .With("n_w", static_cast<double>(counters.writes))
                  .With("n_u", static_cast<double>(counters.updates))
                  .With("size_bytes", static_cast<double>(counters.size_bytes))
                  .With("eq1_benefit_rate", decision.eq1_benefit_rate)
                  .With("eq1_cost_rate", decision.eq1_cost_rate)
                  .With("eq2_ssd_savings", decision.eq2_ssd_savings)
                  .With("eq2_pm_cost", decision.eq2_pm_cost)
                  .With("eq1", decision.eq1_triggered ? 1 : 0)
                  .With("eq2", decision.eq2_triggered ? 1 : 0));
        }
        if (decision.triggered()) {
          Status is = RunInternalCompactionOnPartition(lock, partition);
          if (!is.ok()) {
            if (!bg_error_.ok()) return is;  // manifest loss: stop the check
            if (first_error.ok()) first_error = is;
          }
        }
      }
    }

    // ---- SSD side: the picker decides what/when/where ----
    // Round 0 is the EVICTION check (the Eq. 3 gate + keep-set, evaluated
    // exactly once per check); later rounds drain the policy's shape
    // MAINTENANCE jobs (tiered/lazy run-block merges — leveled never emits
    // any). The round cap bounds a cascade: each round installs at most one
    // job per partition, and a tiered merge cascade over L levels settles in
    // <= L rounds, so 10 covers max_ssd_levels' whole range with slack.
    std::set<Partition*> ours(touched.begin(), touched.end());
    constexpr int kMaxPolicyRounds = 10;
    for (int round = 0; round < kMaxPolicyRounds; ++round) {
      PickContext ctx = BuildPickContextLocked(ours);
      std::vector<CompactionJob> jobs;
      if (round == 0) {
        EvictionPick pick = picker_->PickEviction(ctx);
        if (pick.evaluated) {
          keep_set_counter_->Inc();
          if (events_.active()) {
            std::vector<PartitionCounters> all;
            all.reserve(ctx.partitions.size());
            for (const PartitionView& view : ctx.partitions) {
              all.push_back(view.counters);
            }
            EmitKeepSetEvent(all, pick.keep, pick.tau_t, ctx.total_l0_bytes);
          }
        }
        jobs = std::move(pick.jobs);
        // A failed internal compaction still evaluates the gate (counter +
        // event, as always) but must not start eviction work.
        if (!first_error.ok()) jobs.clear();
      }
      if (jobs.empty()) {
        if (!first_error.ok()) break;
        jobs = picker_->PickMaintenance(ctx);
      }
      if (jobs.empty()) break;

      // Claim job partitions this check does not already hold, so
      // concurrent checks stay off them for the whole merge + install.
      std::vector<MajorJob> major_jobs;
      std::vector<Partition*> extra_claims;
      for (const CompactionJob& job : jobs) {
        Partition* partition = partitions_[job.partition_index].get();
        if (ours.count(partition) == 0) {
          if (!compacting_.insert(partition).second) continue;  // held
          extra_claims.push_back(partition);
        }
        MajorJob mj;
        mj.partition = partition;
        mj.include_l0 = job.include_l0;
        mj.run_begin = job.run_begin;
        mj.run_end = job.run_end;
        mj.output_level = job.output_level;
        major_jobs.push_back(mj);
      }
      Status ms;
      if (!major_jobs.empty()) {
        ms = RunMajorCompactionOnJobs(lock, major_jobs);
      }
      for (Partition* partition : extra_claims) {
        compacting_.erase(partition);
        // An extra victim was not in this check's dirty claim, so a failure
        // would not be re-armed by the caller — mark it dirty here so the
        // retry re-selects it.
        if (!ms.ok()) MarkCompactionDirtyLocked(partition);
      }
      if (!ms.ok()) {
        if (first_error.ok()) first_error = ms;
        break;
      }
    }
    return first_error;
  }

  // Conventional policy (PMBlade-PM): when any partition accumulates
  // l0_table_trigger level-0 tables, compact the ENTIRE level-0 down.
  bool due = false;
  for (const auto& tables : sv_->parts) {
    if (tables->unsorted.size() + tables->sorted_run.size() >=
        options_.l0_table_trigger) {
      due = true;
      break;
    }
  }
  if (pool_->FreeBytes() < pool_->capacity() / 8 &&
      options_.l0_layout != L0Layout::kSstable) {
    due = true;
  }
  if (due) {
    std::set<Partition*> ours(touched.begin(), touched.end());
    std::vector<Partition*> victims;
    std::vector<Partition*> extra_claims;
    for (const auto& partition : partitions_) {
      Partition* p = partition.get();
      if (sv_->parts[p->index()]->L0Bytes() == 0) continue;
      if (ours.count(p) == 0) {
        if (!compacting_.insert(p).second) continue;  // held by a sibling
        extra_claims.push_back(p);
      }
      victims.push_back(p);
    }
    if (!victims.empty()) {
      std::vector<MajorJob> jobs;
      jobs.reserve(victims.size());
      for (Partition* p : victims) jobs.push_back(FullCollapseJobLocked(p));
      first_error = RunMajorCompactionOnJobs(lock, jobs);
    }
    for (Partition* p : extra_claims) {
      compacting_.erase(p);
      if (!first_error.ok()) MarkCompactionDirtyLocked(p);
    }
  }
  return first_error;
}

void DBImpl::EmitKeepSetEvent(const std::vector<PartitionCounters>& all,
                              const std::set<size_t>& keep, uint64_t tau_t,
                              uint64_t total_l0_bytes) {
  // Per-partition Eq. 3 scores ride in the detail payload (variable size).
  std::string detail = "[";
  char buf[160];
  for (size_t i = 0; i < all.size(); ++i) {
    const PartitionCounters& c = all[i];
    double score = c.size_bytes > 0 ? static_cast<double>(c.reads) /
                                          static_cast<double>(c.size_bytes)
                                    : 0.0;
    snprintf(buf, sizeof(buf),
             "%s{\"partition\":%llu,\"reads\":%llu,\"size_bytes\":%llu,"
             "\"score\":%.17g,\"kept\":%s}",
             i == 0 ? "" : ",", static_cast<unsigned long long>(c.partition_id),
             static_cast<unsigned long long>(c.reads),
             static_cast<unsigned long long>(c.size_bytes), score,
             keep.count(i) != 0 ? "true" : "false");
    detail += buf;
  }
  detail += "]";
  events_.Emit(
      obs::Event(obs::EventType::kKeepSetSelected, clock_->NowNanos())
          .With("partitions", static_cast<double>(all.size()))
          .With("kept", static_cast<double>(keep.size()))
          .With("tau_t", static_cast<double>(
                             tau_t != 0 ? tau_t : options_.cost.tau_t))
          .With("total_l0_bytes", static_cast<double>(total_l0_bytes))
          .WithDetail(std::move(detail)));
}

Status DBImpl::RunInternalCompactionOnPartition(
    std::unique_lock<std::mutex>& lock, Partition* partition) {
  // The merge input. Only this (claim-holding) thread removes tables from
  // the partition, so `before`'s unsorted tables stay a suffix of the
  // current set's while the merge runs; flushes may prepend newer tables.
  const std::shared_ptr<const PartitionSnapshot> before =
      sv_->parts[partition->index()];
  if (before->unsorted.empty() && before->sorted_run.size() <= 1) {
    return Status::OK();
  }
  std::vector<L0TableRef> inputs = before->unsorted;  // newest first
  for (const auto& table : before->sorted_run) inputs.push_back(table);

  L0TableFactory* factory =
      l0_factory_ != nullptr ? l0_factory_.get() : l1_factory_.get();

  InternalCompactionOptions copts;
  copts.target_table_bytes = options_.internal_table_target_bytes;
  // The SSD stack only changes under this thread's claim, so the verdict
  // stays valid while the lock is released below.
  copts.drop_tombstones = before->ssd_runs.empty();
  copts.oldest_snapshot = OldestLiveSnapshot();
  copts.clock = clock_;
  copts.event_bus = &events_;
  copts.partition_id = partition->id();

  // The merge runs without mu_: readers and the write pipeline proceed.
  lock.unlock();
  std::vector<L0TableRef> outputs;
  InternalCompactionStats cstats;
  Status s =
      RunInternalCompaction(copts, icmp_, inputs, factory, &outputs, &cstats);
  PMBLADE_SYNC_POINT("DBImpl::InternalCompaction:Outputs");
  if (!s.ok()) {
    // Retryable: drop any tables built before the failure so PM is not
    // leaked, mutate nothing.
    for (auto& table : outputs) table->Destroy();
    lock.lock();
    return s;
  }
  lock.lock();

  // Install under mu_ onto the CURRENT set: remove exactly `before`'s
  // unsorted tables (newer flushed tables at the front stay, correctly
  // ordered above the merged run).
  InstallSuperVersionLocked([&](SuperVersion* sv) {
    auto next =
        std::make_shared<PartitionSnapshot>(*sv->parts[partition->index()]);
    Partition::RemoveTables(&next->unsorted, before->unsorted);
    next->sorted_run = std::move(outputs);
    sv->parts[partition->index()] = std::move(next);
  });
  partition->ResetCounters();
  stats_.AddInternalCompaction(cstats.input_bytes, cstats.output_bytes);

  s = PersistManifest();
  if (!s.ok()) {
    // The new run is already installed in memory; a manifest that cannot be
    // written is a stop-the-world condition (same class as a flush-side
    // manifest failure), not a retryable compaction error.
    bg_error_ = s;
    return s;
  }
  PMBLADE_SYNC_POINT("DBImpl::InternalCompaction:AfterManifest");
  for (auto& table : inputs) table->Destroy();

  PMBLADE_INFO(options_.logger,
               "internal compaction p%llu: %llu->%llu tables, released %lld B",
               static_cast<unsigned long long>(partition->id()),
               static_cast<unsigned long long>(cstats.input_tables),
               static_cast<unsigned long long>(cstats.output_tables),
               static_cast<long long>(cstats.bytes_released()));
  return Status::OK();
}

DBImpl::MajorJob DBImpl::FullCollapseJobLocked(Partition* partition) const {
  MajorJob job;
  job.partition = partition;
  job.include_l0 = true;
  job.run_begin = 0;
  job.run_end = sv_->parts[partition->index()]->ssd_runs.size();
  job.output_level = 1;
  return job;
}

PickContext DBImpl::BuildPickContextLocked(const std::set<Partition*>& ours) {
  PickContext ctx;
  ctx.partitions.reserve(partitions_.size());
  for (const auto& up : partitions_) {
    Partition* partition = up.get();
    const PartitionSnapshot& tables = *sv_->parts[partition->index()];
    PartitionView view;
    view.counters = partition->Counters(tables);
    view.l0_bytes = tables.L0Bytes();
    view.runs.reserve(tables.ssd_runs.size());
    for (const SsdRun& run : tables.ssd_runs) {
      PartitionView::RunView rv;
      rv.level = run.level;
      rv.bytes = run.bytes();
      view.runs.push_back(rv);
    }
    // Claimable for job purposes: held by THIS check already, or unclaimed.
    view.claimable =
        ours.count(partition) != 0 || compacting_.count(partition) == 0;
    ctx.total_l0_bytes += view.l0_bytes;
    ctx.recent_reads += view.counters.reads;
    ctx.recent_writes += view.counters.writes;
    ctx.partitions.push_back(std::move(view));
  }
  // PM-pressure backstop: the Eq. 3 gate also fires when the pool runs
  // short (irrelevant for the SSD-resident kSstable layout).
  ctx.pool_pressure = pool_->FreeBytes() < pool_->capacity() / 8 &&
                      options_.l0_layout != L0Layout::kSstable;
  return ctx;
}

Status DBImpl::RunMajorCompactionOnJobs(std::unique_lock<std::mutex>& lock,
                                        const std::vector<MajorJob>& jobs) {
  // Each job merges its partition's table set as of now, `befores[j]`,
  // with mu_ released. Run indices stay valid through the install: the
  // caller holds each job partition's claim, only the claim holder edits
  // the SSD stack, and flushes never touch it.
  std::vector<std::shared_ptr<const PartitionSnapshot>> befores;
  befores.reserve(jobs.size());
  std::vector<CompactionSubtaskInput> subtasks;
  /// subtasks[i] merges one key-range slice of job subtask_job[i]; slices
  /// of a job occupy consecutive subtask indices in ascending key order,
  /// which is what lets the install below stitch them back into one sorted
  /// output run by simple concatenation.
  std::vector<size_t> subtask_job;
  const size_t max_slices =
      static_cast<size_t>(std::max(options_.max_subcompactions, 1));
  for (size_t j = 0; j < jobs.size(); ++j) {
    const MajorJob& job = jobs[j];
    std::shared_ptr<const PartitionSnapshot> before =
        sv_->parts[job.partition->index()];
    befores.push_back(before);
    const size_t run_begin = job.run_begin;
    const size_t run_end = std::min(job.run_end, before->ssd_runs.size());
    // Tombstones may drop only when the job's inputs reach the oldest run
    // (its output becomes the new bottom of this partition's stack). A
    // run-stacking eviction (run_end == run_begin == 0 over a non-empty
    // stack) or an upper-level block merge keeps them: older runs below may
    // still hold shadowed versions of the deleted keys.
    const bool drop_tombstones = run_end >= before->ssd_runs.size();

    uint64_t pm_bytes = 0;
    if (job.include_l0) pm_bytes = before->L0Bytes();
    uint64_t ssd_bytes = 0;
    for (size_t r = run_begin; r < run_end; ++r) {
      ssd_bytes += before->ssd_runs[r].bytes();
    }
    double ssd_fraction =
        (pm_bytes + ssd_bytes) > 0
            ? static_cast<double>(ssd_bytes) / (pm_bytes + ssd_bytes)
            : 0.0;
    if (options_.l0_layout == L0Layout::kSstable) ssd_fraction = 1.0;

    // Subcompaction split rule: slice the job at the table boundaries of
    // its largest sorted component (the oldest input run when one exists,
    // else the sorted run) — every table's smallest user key is a candidate
    // bound, and up to max_subcompactions-1 evenly spaced candidates are
    // kept. Bounds compare user keys, so all versions of a key share a
    // slice.
    std::vector<std::string> bounds;
    // (A job without input runs always includes level-0.)
    const std::vector<L0TableRef>& base_run =
        run_end > run_begin ? before->ssd_runs[run_end - 1].tables
                            : before->sorted_run;
    if (max_slices > 1 && base_run.size() > 1) {
      const size_t k = base_run.size();
      const size_t want = std::min(max_slices - 1, k - 1);
      std::set<size_t> cuts;  // positions in [1, k-1]: cut before table pos
      for (size_t jj = 1; jj <= want; ++jj) {
        size_t pos = jj * k / (want + 1);
        cuts.insert(std::max<size_t>(1, std::min(pos, k - 1)));
      }
      for (size_t pos : cuts) {
        bounds.push_back(ExtractUserKey(base_run[pos]->smallest()).ToString());
      }
    }

    const bool include_l0 = job.include_l0;
    const InternalKeyComparator* icmp = &icmp_;
    const size_t num_slices = bounds.size() + 1;
    for (size_t slice = 0; slice < num_slices; ++slice) {
      std::string lo = slice == 0 ? std::string() : bounds[slice - 1];
      std::string hi = slice + 1 == num_slices ? std::string() : bounds[slice];
      CompactionSubtaskInput sub;
      sub.ssd_input_fraction = ssd_fraction;
      sub.drop_tombstones = drop_tombstones ? 1 : 0;
      sub.make_input = [before, include_l0, run_begin, run_end, icmp, lo,
                        hi]() -> Iterator* {
        // Child order is irrelevant for correctness (the merge resolves
        // duplicates by sequence number); newest-first mirrors the read
        // path.
        std::vector<Iterator*> children;
        if (include_l0) {
          for (const auto& table : before->unsorted) {
            children.push_back(table->NewIterator());
          }
          children.push_back(NewRunIterator(icmp, before->sorted_run));
        }
        for (size_t r = run_begin; r < run_end; ++r) {
          children.push_back(NewRunIterator(icmp, before->ssd_runs[r].tables));
        }
        Iterator* merged = NewMergingIterator(icmp, std::move(children));
        if (lo.empty() && hi.empty()) {
          merged->SeekToFirst();
          return merged;
        }
        Iterator* clipped = new RangeClippedIterator(merged, lo, hi);
        clipped->SeekToFirst();
        return clipped;
      };
      subtasks.push_back(std::move(sub));
      subtask_job.push_back(j);
    }
  }

  MajorCompactionOptions mopts = options_.major;
  mopts.oldest_snapshot = OldestLiveSnapshot();
  // Per-subtask verdicts above override this; one Run may mix bottom jobs
  // (full collapses) with non-bottom ones (run stacking, block merges).
  mopts.drop_tombstones = true;
  mopts.clock = clock_;
  MajorCompactor compactor(raw_env_, model_, l1_factory_.get(), mopts);

  // Merge + all simulated-SSD I/O without mu_.
  lock.unlock();
#ifdef PMBLADE_SYNC_POINTS
  {
    // Fired OUTSIDE mu_ so crash/overlap tests may block here without
    // stalling readers, writers or sibling compaction workers.
    std::vector<uint64_t> victim_ids;
    victim_ids.reserve(jobs.size());
    for (const MajorJob& job : jobs) victim_ids.push_back(job.partition->id());
    PMBLADE_SYNC_POINT_ARG("DBImpl::MajorCompaction:BeforeRun", &victim_ids);
  }
#endif
  std::vector<CompactionOutputMeta> outputs;
  MajorCompactionStats mstats;
  Status s = compactor.Run(subtasks, &outputs, &mstats);
  if (s.ok()) {
    if (subcompaction_counter_ != nullptr) {
      subcompaction_counter_->Inc(subtasks.size());
    }
    if (major_wall_nanos_counter_ != nullptr) {
      major_wall_nanos_counter_->Inc(mstats.wall_nanos);
    }
  }
  PMBLADE_SYNC_POINT("DBImpl::MajorCompaction:AfterRun");

  // Open ALL outputs before touching any victim: either every table is
  // ready to install or nothing is mutated. (Opening one victim at a time
  // used to leave earlier victims half-installed — and their doomed tables
  // leaked — when an Open failed at victim v>0, and a later flush's
  // manifest commit would persist the mixed state.)
  TableReaderOptions ropts;
  ropts.comparator = &icmp_;
  ropts.filter_policy = filter_policy_.get();
  ropts.block_cache = block_cache_;

  // One slot per subtask: empty slices produce no output and leave their
  // slot null. Stitching below walks slots in subtask order, which is
  // ascending key order within each job.
  std::vector<L0TableRef> slice_tables(subtasks.size());
  size_t opened = 0;
  while (s.ok() && opened < outputs.size()) {
    const CompactionOutputMeta& meta = outputs[opened];
    TableReaderOptions opts = ropts;
    opts.file_number = meta.file_number;
    std::shared_ptr<SsdL0Table> table;
    s = SsdL0Table::Open(env_, meta.path, meta.file_number, opts, &table);
    if (!s.ok()) break;  // `opened` must not count this file: it still
                         // needs the RemoveFile below, not a Destroy
    slice_tables[meta.subtask_index] = std::move(table);
    ++opened;
  }
  if (!s.ok()) {
    // Nothing was installed; delete the compaction's output files so a
    // failed run leaves no orphans (opened tables drop theirs via Destroy
    // at last ref, unopened ones are removed directly), and report a
    // retryable failure.
    for (auto& table : slice_tables) {
      if (table != nullptr) table->Destroy();
    }
    for (size_t i = opened; i < outputs.size(); ++i) {
      raw_env_->RemoveFile(outputs[i].path);
    }
    lock.lock();
    return s;
  }

  // Stitch: concatenate each job's slice outputs (already disjoint and
  // ascending) back into one output run, then install everything under a
  // single mu_ hold + manifest commit below.
  std::vector<std::vector<L0TableRef>> new_runs(jobs.size());
  for (size_t i = 0; i < slice_tables.size(); ++i) {
    if (slice_tables[i] != nullptr) {
      new_runs[subtask_job[i]].push_back(std::move(slice_tables[i]));
    }
  }
  PMBLADE_SYNC_POINT("DBImpl::MajorCompaction:OutputsOpened");
  lock.lock();

  // Install ALL jobs atomically under one mu_ hold + one manifest commit.
  // Each install edits a copy of the partition's CURRENT set: it removes
  // exactly `before`'s level-0 inputs, so anything flushed into a partition
  // while the merge ran stays in unsorted, above the new run. The input run
  // block [run_begin, run_end) is replaced in place by the output run,
  // preserving the stack's newest-first recency order and its
  // non-decreasing level tags.
  std::vector<L0TableRef> doomed;
  InstallSuperVersionLocked([&](SuperVersion* sv) {
    for (size_t j = 0; j < jobs.size(); ++j) {
      const MajorJob& job = jobs[j];
      const size_t index = job.partition->index();
      const PartitionSnapshot& before = *befores[j];
      auto next = std::make_shared<PartitionSnapshot>(*sv->parts[index]);
      if (job.include_l0) {
        for (auto& t : before.unsorted) doomed.push_back(t);
        for (auto& t : before.sorted_run) doomed.push_back(t);
        Partition::RemoveTables(&next->unsorted, before.unsorted);
        Partition::RemoveTables(&next->sorted_run, before.sorted_run);
      }
      const size_t run_end = std::min(job.run_end, before.ssd_runs.size());
      for (size_t r = job.run_begin; r < run_end; ++r) {
        for (auto& t : before.ssd_runs[r].tables) doomed.push_back(t);
      }
      std::vector<SsdRun>& stack = next->ssd_runs;
      stack.erase(stack.begin() + static_cast<ptrdiff_t>(job.run_begin),
                  stack.begin() + static_cast<ptrdiff_t>(run_end));
      if (!new_runs[j].empty()) {
        SsdRun out;
        out.level = job.output_level;
        out.tables = std::move(new_runs[j]);
        stack.insert(stack.begin() + static_cast<ptrdiff_t>(job.run_begin),
                     std::move(out));
      }
      sv->parts[index] = std::move(next);
    }
  });
  // Counters feed the Eq. 1/2/3 decisions about PM level-0; a pure
  // shape-maintenance merge does not consume L0, so it keeps them.
  for (const MajorJob& job : jobs) {
    if (job.include_l0) job.partition->ResetCounters();
  }
  stats_.AddMajorCompaction(mstats.ssd_bytes_written);

  s = PersistManifest();
  if (!s.ok()) {
    // Installed state that cannot reach the manifest: stop-the-world, same
    // class as a flush-side manifest failure.
    bg_error_ = s;
    return s;
  }
  PMBLADE_SYNC_POINT("DBImpl::MajorCompaction:AfterManifest");
  for (auto& table : doomed) table->Destroy();

  PMBLADE_INFO(options_.logger,
               "major compaction (%s): %zu jobs in %zu slices, %llu records "
               "in, %llu out",
               picker_->name(), jobs.size(), subtasks.size(),
               static_cast<unsigned long long>(mstats.input_records),
               static_cast<unsigned long long>(mstats.output_records));
  return Status::OK();
}

Status DBImpl::CompactLevel0() {
  // Serialize with background checks on the scheduler thread — the only
  // thread allowed to mutate sorted runs (see partition.h).
  return compaction_scheduler_->RunExclusive([this] {
    std::unique_lock<std::mutex> lock(mu_);
    for (auto& partition : partitions_) {
      PMBLADE_RETURN_IF_ERROR(
          RunInternalCompactionOnPartition(lock, partition.get()));
    }
    return Status::OK();
  });
}

Status DBImpl::CompactToLevel1(bool respect_cost_model) {
  // Drain the memtable through the normal (queued, background) flush path
  // first; FlushMemTable also drains the scheduler, so the victim selection
  // below sees post-compaction state.
  PMBLADE_RETURN_IF_ERROR(FlushMemTable());
  return compaction_scheduler_->RunExclusive([this, respect_cost_model] {
    std::unique_lock<std::mutex> lock(mu_);
    std::set<size_t> keep;
    if (respect_cost_model && options_.enable_cost_model) {
      std::vector<PartitionCounters> all;
      uint64_t total_l0 = 0;
      for (const auto& partition : partitions_) {
        const PartitionSnapshot& tables = *sv_->parts[partition->index()];
        all.push_back(partition->Counters(tables));
        total_l0 += tables.L0Bytes();
      }
      std::vector<size_t> retained = cost_model_->SelectRetained(all);
      keep.insert(retained.begin(), retained.end());
      keep_set_counter_->Inc();
      if (events_.active()) {
        EmitKeepSetEvent(all, keep, /*tau_t=*/0, total_l0);
      }
    }
    std::vector<MajorJob> jobs;
    for (size_t i = 0; i < partitions_.size(); ++i) {
      Partition* partition = partitions_[i].get();
      if (keep.count(i) != 0) continue;
      // Worth collapsing when level-0 holds data, or the SSD stack is not
      // already one level-1 run (a tiered/lazy shape this manual "compact
      // everything to level 1" API promises to flatten). For leveled-built
      // data this reduces to the historical L0Bytes() > 0 filter.
      const PartitionSnapshot& tables = *sv_->parts[i];
      const std::vector<SsdRun>& stack = tables.ssd_runs;
      bool flat = stack.size() == 1 && stack[0].level == 1;
      if (tables.L0Bytes() == 0 && (stack.empty() || flat)) continue;
      jobs.push_back(FullCollapseJobLocked(partition));
    }
    if (jobs.empty()) return Status::OK();
    return RunMajorCompactionOnJobs(lock, jobs);
  });
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

Partition* DBImpl::FindPartition(const Slice& user_key) const {
  // Partitions are sorted by range; binary search on end keys. The last
  // partition is unbounded above, so the search never runs off the end.
  size_t lo = 0, hi = partitions_.size() - 1;
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    const std::string& end = partitions_[mid]->end_key();
    if (!end.empty() && user_key.compare(Slice(end)) >= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return partitions_[lo].get();
}

SequenceNumber DBImpl::OldestLiveSnapshot() const {
  if (live_snapshots_.empty()) return kMaxSequenceNumber;
  return *live_snapshots_.begin();
}

std::shared_ptr<const SuperVersion> DBImpl::GrabReadView(
    SequenceNumber* last_sequence) {
  std::lock_guard<std::mutex> lock(mu_);
  *last_sequence = last_sequence_;
  return sv_;
}

void DBImpl::InstallSuperVersionLocked(
    const std::function<void(SuperVersion*)>& edit) {
  auto next = std::make_shared<SuperVersion>(*sv_);
  edit(next.get());
  sv_ = std::move(next);
}

Status DBImpl::Get(const ReadOptions& options, const Slice& key,
                   std::string* value) {
  const uint64_t start = clock_->NowNanos();

  // Brief grab of the sequence and the read view, then everything else
  // lock-free: a flush, compaction or group commit in flight never blocks a
  // reader past it.
  SequenceNumber snapshot;
  const std::shared_ptr<const SuperVersion> sv = GrabReadView(&snapshot);
  if (options.snapshot != 0) snapshot = options.snapshot;
  Partition* partition = FindPartition(key);
  partition->NoteRead();
  const PartitionSnapshot& tables = *sv->parts[partition->index()];

  LookupKey lkey(key, snapshot);
  Status result = Status::NotFound();
  ReadSource source = ReadSource::kNotFound;
  bool answered = false;

  std::string local_value;
  Status probe_status;
  ReadProbeStats probe;
  if (sv->mem->Get(lkey, &local_value, &probe_status)) {
    answered = true;
    source = ReadSource::kMemtable;
    result = probe_status;
  }
  if (!answered && sv->imm != nullptr &&
      sv->imm->Get(lkey, &local_value, &probe_status)) {
    answered = true;
    source = ReadSource::kMemtable;
    result = probe_status;
  }
  // SSD-resident probes register as one client op each for the live q_cli
  // gauge; PM-resident level-0 probes never touch the SSD queue.
  const bool ssd_l0 =
      track_client_io_ && options_.l0_layout == L0Layout::kSstable;
  if (!answered) {
    ScopedExternalIo io(ssd_l0 ? model_ : nullptr, IoClass::kClient);
    for (const auto& table : tables.unsorted) {
      bool found = false;
      Status s = L0TableGet(*table, icmp_, lkey, &local_value, &found,
                            &probe_status, &probe);
      if (!s.ok()) return s;
      if (found) {
        answered = true;
        source = ReadSource::kPmLevel0;
        result = probe_status;
        break;
      }
    }
  }
  if (!answered && !tables.sorted_run.empty()) {
    ScopedExternalIo io(ssd_l0 ? model_ : nullptr, IoClass::kClient);
    bool found = false;
    Status s = RunGet(tables.sorted_run, icmp_, lkey, &local_value, &found,
                      &probe_status, &probe);
    if (!s.ok()) return s;
    if (found) {
      answered = true;
      source = ReadSource::kPmLevel0;
      result = probe_status;
    }
  }
  if (!answered && !tables.ssd_runs.empty()) {
    // SSD runs always live on the SSD; probe newest-first — the first run
    // holding any version of the key is authoritative.
    ScopedExternalIo io(track_client_io_ ? model_ : nullptr, IoClass::kClient);
    for (const SsdRun& run : tables.ssd_runs) {
      bool found = false;
      Status s = RunGet(run.tables, icmp_, lkey, &local_value, &found,
                        &probe_status, &probe);
      if (!s.ok()) return s;
      if (found) {
        answered = true;
        source = ReadSource::kSsdLevel1;
        result = probe_status;
        break;
      }
    }
  }

  if (answered && result.ok()) {
    value->swap(local_value);
  } else if (!answered) {
    result = Status::NotFound();
    source = ReadSource::kNotFound;
  } else {
    source = ReadSource::kNotFound;  // tombstone
  }
  if (probe.bloom_checks > 0) {
    bloom_check_counter_->Inc(probe.bloom_checks);
    if (probe.bloom_negatives > 0) {
      bloom_negative_counter_->Inc(probe.bloom_negatives);
    }
    if (probe.bloom_false_positives > 0) {
      bloom_fp_counter_->Inc(probe.bloom_false_positives);
    }
  }
  stats_.RecordRead(source, clock_->NowNanos() - start);
  return result;
}

uint64_t DBImpl::GetSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  live_snapshots_.insert(last_sequence_);
  return last_sequence_;
}

void DBImpl::ReleaseSnapshot(uint64_t snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_snapshots_.find(snapshot);
  if (it != live_snapshots_.end()) live_snapshots_.erase(it);
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

WritePressure DBImpl::GetWritePressure() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!bg_error_.ok()) return WritePressure::kStall;
  if (sv_->imm == nullptr) return WritePressure::kNone;
  // A flush is in flight: grade by how full the active memtable is, the
  // same thresholds MakeRoomForWrite applies (slowdown at the watermark,
  // hard stall when full).
  const size_t usage = sv_->mem->ApproximateMemoryUsage();
  const size_t limit = memtable_limit_.load(std::memory_order_relaxed);
  if (usage >= limit) return WritePressure::kStall;
  if (usage >=
      static_cast<size_t>(limit * options_.write_slowdown_watermark)) {
    return WritePressure::kSlowdown;
  }
  return WritePressure::kNone;
}

void DBImpl::SetDynamicTauT(uint64_t bytes) {
  // 0 reads as "unset" to base_tau_t(); keep the target positive.
  cost_model_->set_dynamic_tau_t(std::max<uint64_t>(bytes, 1));
}

bool DBImpl::GetProperty(const std::string& property, uint64_t* value) {
  return ReadNumericProperty(
      property,
      [this](const std::string& name, double* v) {
        return metrics_.Read(name, v);
      },
      value);
}

void DBImpl::LevelShapeLocked(uint32_t level, uint64_t* runs, uint64_t* files,
                              uint64_t* bytes) const {
  *runs = *files = *bytes = 0;
  for (const auto& part : sv_->parts) {
    const PartitionSnapshot& tables = *part;
    if (level == 0) {
      // PM level-0: each unsorted table is its own (single-table) run, the
      // sorted run is one more.
      *runs += tables.unsorted.size() + (tables.sorted_run.empty() ? 0 : 1);
      *files += tables.unsorted.size() + tables.sorted_run.size();
      *bytes += tables.L0Bytes();
    } else {
      for (const SsdRun& run : tables.ssd_runs) {
        if (run.level != level) continue;
        *runs += 1;
        *files += run.tables.size();
        *bytes += run.bytes();
      }
    }
  }
}

bool DBImpl::GetProperty(const std::string& property, std::string* value) {
  // Deliberately does NOT hold mu_: the registry snapshot evaluates gauge
  // callbacks that lock mu_ themselves.
  if (property == "pmblade.compaction-policy") {
    *value = picker_->name();
    return true;
  }
  if (property == "pmblade.stats.json") {
    obs::MetricsSnapshot snapshot = metrics_.Snapshot(clock_->NowNanos());
    std::vector<obs::Event> events;
    if (trace_ != nullptr) events = trace_->Snapshot();
    *value = obs::ExportJson(snapshot, events);
    return true;
  }
  if (property == "pmblade.stats.prometheus") {
    *value = obs::ExportPrometheus(metrics_.Snapshot(clock_->NowNanos()));
    return true;
  }
  if (property == "pmblade.stats") {
    *value = stats_.ToString();
    return true;
  }
  if (property == "pmblade.trace.json") {
    *value = trace_ != nullptr ? trace_->DumpJsonLines() : std::string();
    return true;
  }
  if (property == "pmblade.mem.json") {
    *value = arbiter_ != nullptr ? arbiter_->ToJson()
                                 : std::string("{\"enabled\":false}");
    return true;
  }
  return false;
}

}  // namespace pmblade
