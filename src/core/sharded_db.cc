#include "core/sharded_db.h"

#include <algorithm>
#include <cstdlib>

#include <condition_variable>
#include <set>

#include "compaction/merging_iterator.h"
#include "obs/exporter.h"
#include "util/comparator.h"
#include "util/sync_point.h"

namespace pmblade {

namespace {

/// Splits one WriteBatch into per-shard sub-batches, preserving op order
/// within each shard (order across shards is immaterial: keyspaces are
/// disjoint under hash routing).
class ShardSplitter final : public WriteBatch::Handler {
 public:
  ShardSplitter(std::vector<WriteBatch>* subs, uint32_t num_shards)
      : subs_(subs), num_shards_(num_shards) {}

  void Put(const Slice& key, const Slice& value) override {
    (*subs_)[ShardedDB::ShardOfKey(key, num_shards_)].Put(key, value);
  }
  void Delete(const Slice& key) override {
    (*subs_)[ShardedDB::ShardOfKey(key, num_shards_)].Delete(key);
  }

 private:
  std::vector<WriteBatch>* subs_;
  uint32_t num_shards_;
};

/// "pmblade.shard.<i>.<suffix>" -> (i, "pmblade.<suffix>").
bool ParseShardProperty(const std::string& property, uint32_t num_shards,
                        uint32_t* shard, std::string* rest) {
  static constexpr char kPrefix[] = "pmblade.shard.";
  static constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (property.rfind(kPrefix, 0) != 0) return false;
  const size_t dot = property.find('.', kPrefixLen);
  // At most 9 digits, so the index cannot wrap around to a valid shard.
  if (dot == std::string::npos || dot == kPrefixLen || dot - kPrefixLen > 9) {
    return false;
  }
  uint64_t index = 0;
  for (size_t i = kPrefixLen; i < dot; ++i) {
    if (property[i] < '0' || property[i] > '9') return false;
    index = index * 10 + (property[i] - '0');
  }
  if (index >= num_shards) return false;
  *shard = static_cast<uint32_t>(index);
  *rest = "pmblade." + property.substr(dot + 1);
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

uint32_t ShardedDB::ShardOfKey(const Slice& key, uint32_t num_shards) {
  // FNV-1a 64: cheap, stable across platforms (the shard of a key is part
  // of the on-disk contract — see the SHARDS marker).
  uint64_t hash = 1469598103934665603ull;
  for (size_t i = 0; i < key.size(); ++i) {
    hash ^= static_cast<unsigned char>(key.data()[i]);
    hash *= 1099511628211ull;
  }
  return static_cast<uint32_t>(hash % num_shards);
}

std::string ShardedDB::ShardPmPoolPath(const std::string& base,
                                       uint32_t shard) {
  return base + ".shard-" + std::to_string(shard);
}

std::string ShardedDB::ShardDirName(const std::string& dbname,
                                    uint32_t shard) {
  return dbname + "/shard-" + std::to_string(shard);
}

// ---------------------------------------------------------------------------
// Open / close
// ---------------------------------------------------------------------------

ShardedDB::ShardedDB(const Options& options, const std::string& dbname)
    : options_(options), dbname_(dbname) {}

ShardedDB::~ShardedDB() {
  // Join the arbiter thread before any member it touches (the shards'
  // quotas, the shared cache, the facade registry) is destroyed.
  if (arbiter_ != nullptr) arbiter_->Stop();
  // Last chance to retire committed fences whose markers are already
  // durable; the rest replay at the next open and are forgotten by its
  // resolution pass.
  if (!shards_.empty()) DrainForgettableTxns();
  // Fan-out tasks capture shards; join them first.
  fanout_pool_.reset();
  // Shards read through shared_cache_; drop them while it is still alive
  // (declaration order already guarantees this — made explicit here).
  shards_.clear();
}

Status ShardedDB::Init() {
  PMBLADE_RETURN_IF_ERROR(options_.Sanitize());
  env_ = options_.env;

  if (env_->FileExists(dbname_) && options_.error_if_exists) {
    return Status::InvalidArgument(dbname_ + " already exists");
  }
  if (!env_->FileExists(dbname_) && !options_.create_if_missing) {
    return Status::NotFound(dbname_ + " does not exist");
  }
  PMBLADE_RETURN_IF_ERROR(env_->CreateDir(dbname_));
  PMBLADE_RETURN_IF_ERROR(CheckOrPinShardCount());

  if (options_.shared_block_cache == nullptr &&
      options_.block_cache_bytes > 0) {
    shared_cache_.reset(new BlockCache(options_.block_cache_bytes));
  }
  BlockCache* cache = options_.shared_block_cache != nullptr
                          ? options_.shared_block_cache
                          : shared_cache_.get();

  shards_.reserve(options_.num_shards);
  for (uint32_t i = 0; i < options_.num_shards; ++i) {
    Options shard_opts = options_;
    shard_opts.num_shards = 1;
    shard_opts.shared_block_cache = cache;
    // One arbiter over every shard (below), not one per shard.
    shard_opts.memory_budget_bytes = 0;
    // Existence checks happened at the facade level; shard directories
    // come and go with it.
    shard_opts.error_if_exists = false;
    shard_opts.create_if_missing = true;
    if (!options_.pm_pool_path.empty()) {
      shard_opts.pm_pool_path = ShardPmPoolPath(options_.pm_pool_path, i);
    }
    auto shard =
        std::make_unique<DBImpl>(shard_opts, ShardDirName(dbname_, i));
    PMBLADE_RETURN_IF_ERROR(shard->Init());
    shards_.push_back(std::move(shard));
  }

  RegisterAggregatedMetrics(cache);
  if (options_.memory_budget_bytes > 0) {
    PMBLADE_RETURN_IF_ERROR(SetUpSharedArbiter());
  }

  // Cross-shard write fan-out + 2PC bookkeeping. A wave runs N-1 shard ops
  // on the pool (the caller runs the last inline), and pool threads BLOCK
  // inside the target shard's group commit — so a pool sized for one wave
  // serializes concurrent writers' waves behind each other. Provision for
  // several in-flight waves; beyond that, excess waves ride the shards'
  // own group commit batching anyway.
  fanout_pool_.reset(new ThreadPool(static_cast<int>(
      std::min<uint32_t>(4 * (options_.num_shards - 1), 32))));
  txn_in_doubt_counter_ = metrics_.GetCounter("pmblade.txn.in_doubt");
  txn_resolved_commit_counter_ =
      metrics_.GetCounter("pmblade.txn.resolved_commit");
  txn_resolved_rollback_counter_ =
      metrics_.GetCounter("pmblade.txn.resolved_rollback");
  // Resolve transactions a crash left prepared-but-undecided, and seed the
  // txn-id allocator past everything the shards replayed.
  PMBLADE_RETURN_IF_ERROR(ResolveInDoubtTxns());
  return Status::OK();
}

Status ShardedDB::CheckOrPinShardCount() {
  const std::string marker = dbname_ + "/SHARDS";
  if (env_->FileExists(marker)) {
    std::string data;
    PMBLADE_RETURN_IF_ERROR(ReadFileToString(env_, marker, &data));
    const unsigned long pinned = std::strtoul(data.c_str(), nullptr, 10);
    if (pinned != options_.num_shards) {
      return Status::InvalidArgument(
          dbname_ + " was created with num_shards=" + std::to_string(pinned) +
          "; reopening with num_shards=" +
          std::to_string(options_.num_shards) + " would mis-route keys");
    }
    return Status::OK();
  }
  return WriteStringToFile(env_, Slice(std::to_string(options_.num_shards)),
                           marker);
}

Status ShardedDB::SetUpSharedArbiter() {
  const uint64_t total = options_.memory_budget_bytes;
  const uint64_t n = shards_.size();
  uint64_t floors[mem::kNumComponents];
  uint64_t initial[mem::kNumComponents];
  // Same shape as DBImpl's embedded arbiter, scaled: the memtable and
  // keep-set components cover ALL shards (apply splits them evenly), the
  // cache component is the one shared cache.
  floors[mem::kMemtable] = std::max<uint64_t>(4096 * n, total / 32);
  floors[mem::kBlockCache] =
      shared_cache_ != nullptr ? std::max<uint64_t>(64 << 10, total / 32) : 0;
  floors[mem::kKeepSet] = 4096;
  initial[mem::kMemtable] = static_cast<uint64_t>(options_.memtable_bytes) * n;
  initial[mem::kBlockCache] =
      shared_cache_ != nullptr ? options_.block_cache_bytes : 0;
  initial[mem::kKeepSet] = options_.cost.tau_t * n;
  mem_budget_.reset(new mem::MemoryBudget(total, floors, initial));

  auto apply = [this](int component, uint64_t target) {
    const uint64_t n_shards = shards_.size();
    switch (component) {
      case mem::kMemtable: {
        // Even split; the 4 KiB clamp keeps a pathological split from
        // wedging a shard's write path.
        const uint64_t per = std::max<uint64_t>(target / n_shards, 4096);
        for (auto& shard : shards_) {
          shard->SetMemtableLimit(static_cast<size_t>(per));
        }
        break;
      }
      case mem::kBlockCache:
        if (shared_cache_ != nullptr) shared_cache_->SetCapacity(target);
        break;
      case mem::kKeepSet: {
        const uint64_t per = std::max<uint64_t>(target / n_shards, 1);
        for (auto& shard : shards_) shard->SetDynamicTauT(per);
        break;
      }
    }
  };
  for (int c = 0; c < mem::kNumComponents; ++c) {
    apply(c, mem_budget_->target(c));
  }

  mem::ArbiterOptions aopts;
  aopts.interval_ms = options_.arbiter_interval_ms;
  aopts.clock = options_.clock;
  aopts.metrics = &metrics_;
  aopts.logger = options_.logger;
  arbiter_.reset(new mem::MemoryArbiter(
      aopts, mem_budget_.get(),
      [this] {
        mem::ArbiterInputs in;
        for (auto& shard : shards_) {
          const DbStatistics& stats =
              static_cast<const DBImpl&>(*shard).statistics();
          in.reads += stats.total_reads();
          in.reads_ssd_l1 += stats.reads(ReadSource::kSsdLevel1);
          in.writes += stats.writes();
          in.flushes += stats.flushes();
          uint64_t v = 0;
          if (shard->GetProperty("pmblade.bloom-checks", &v)) {
            in.bloom_checks += v;
          }
          if (shard->GetProperty("pmblade.bloom-negatives", &v)) {
            in.bloom_negatives += v;
          }
          if (shard->GetProperty("pmblade.bloom-false-positives", &v)) {
            in.bloom_false_positives += v;
          }
          if (shard->GetProperty("pmblade.write-slowdowns", &v)) {
            in.slowdowns += v;
          }
          if (shard->GetProperty("pmblade.write-stalls", &v)) in.stalls += v;
        }
        if (shared_cache_ != nullptr) {
          in.cache_hits = shared_cache_->hits();
          in.cache_misses = shared_cache_->misses();
        }
        return in;
      },
      apply));
  arbiter_->Start();
  return Status::OK();
}

// The facade's aggregation rule, shared by GetProperty and the snapshot
// provider that feeds the exporters: a name the facade registers itself
// wins, and any other name is the sum over the shards. The facade registers
// exactly the names whose values do not add up across shards.
void ShardedDB::RegisterAggregatedMetrics(BlockCache* cache) {
  metrics_.RegisterGaugeCallback("pmblade.shards", [this] {
    return static_cast<double>(shards_.size());
  });
  // Every shard runs the same Options, so shard 0 speaks for all of them.
  auto from_shard0 = [this](const char* name) {
    return [this, name] {
      double v = 0;
      shards_[0]->metrics()->Read(name, &v);
      return v;
    };
  };
  metrics_.RegisterGaugeCallback("pmblade.policy",
                                 from_shard0("pmblade.policy"));
  // A process-wide resource is one value, not an N-fold sum.
  if (cache != nullptr) cache->RegisterMetrics(&metrics_);
  if (options_.ssd_model != nullptr) {
    options_.ssd_model->RegisterMetrics(&metrics_);
    metrics_.RegisterGaugeCallback("pmblade.io.q_flush",
                                   from_shard0("pmblade.io.q_flush"));
  }
  // A ratio is recomputed from the summed counters.
  metrics_.RegisterGaugeCallback("pmblade.write.writes_per_sync", [this] {
    double writes = 0, syncs = 0;
    SumOverShards("pmblade.write.group_writes", &writes);
    SumOverShards("pmblade.wal.syncs", &syncs);
    return syncs == 0 ? 0.0 : writes / syncs;
  });
  // Depth and backpressure are the deepest / most pressed shard's.
  metrics_.RegisterGaugeCallback("pmblade.lsm.max_ssd_level", [this] {
    double deepest = 0;
    for (const auto& shard : shards_) {
      double v = 0;
      if (shard->metrics()->Read("pmblade.lsm.max_ssd_level", &v)) {
        deepest = std::max(deepest, v);
      }
    }
    return deepest;
  });
  metrics_.RegisterGaugeCallback("pmblade.write.pressure", [this] {
    return static_cast<double>(static_cast<int>(GetWritePressure()));
  });
  // Each facade handle pins one snapshot per shard; count handles once.
  metrics_.RegisterGaugeCallback("pmblade.snapshots.open", [this] {
    std::lock_guard<std::mutex> lock(snap_mu_);
    return static_cast<double>(snapshots_.size());
  });
  // Splice every shard's registry into facade snapshots: a
  // pmblade.shard.<i>.* breakdown plus the cross-shard sums under the
  // original names.
  metrics_.RegisterSnapshotProvider([this](
                                        std::vector<obs::MetricSample>* out) {
    // *out holds the facade's own samples so far; those names win.
    std::set<std::string> own;
    for (const auto& sample : *out) own.insert(sample.name);
    std::map<std::string, obs::MetricSample> sums;
    for (size_t i = 0; i < shards_.size(); ++i) {
      const std::string prefix = "pmblade.shard." + std::to_string(i) + ".";
      obs::MetricsSnapshot snap = shards_[i]->metrics()->Snapshot(0);
      for (auto& sample : snap.samples) {
        static constexpr char kRoot[] = "pmblade.";
        obs::MetricSample per_shard = sample;
        per_shard.name = prefix + (sample.name.rfind(kRoot, 0) == 0
                                       ? sample.name.substr(sizeof(kRoot) - 1)
                                       : sample.name);
        out->push_back(std::move(per_shard));
        if (own.count(sample.name) != 0) continue;
        auto it = sums.find(sample.name);
        if (it == sums.end()) {
          sums.emplace(sample.name, std::move(sample));
        } else if (it->second.kind == obs::MetricKind::kHistogram) {
          it->second.hist.Merge(sample.hist);
          it->second.value = static_cast<double>(it->second.hist.count());
        } else {
          it->second.value += sample.value;
        }
      }
    }
    for (auto& [name, sample] : sums) {
      (void)name;
      out->push_back(std::move(sample));
    }
  });
}

bool ShardedDB::SumOverShards(const std::string& name, double* total) const {
  bool found = false;
  *total = 0;
  for (const auto& shard : shards_) {
    double v = 0;
    if (shard->metrics()->Read(name, &v)) {
      *total += v;
      found = true;
    }
  }
  return found;
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

Status ShardedDB::Put(const WriteOptions& options, const Slice& key,
                      const Slice& value) {
  return shards_[Route(key)]->Put(options, key, value);
}

Status ShardedDB::Delete(const WriteOptions& options, const Slice& key) {
  return shards_[Route(key)]->Delete(options, key);
}

Status ShardedDB::Write(const WriteOptions& options, WriteBatch* batch) {
  if (batch == nullptr) {
    return Status::InvalidArgument("null WriteBatch");
  }
  const uint32_t n = static_cast<uint32_t>(shards_.size());
  std::vector<WriteBatch> subs(n);
  ShardSplitter splitter(&subs, n);
  PMBLADE_RETURN_IF_ERROR(batch->Iterate(&splitter));
  std::vector<uint32_t> participants;
  for (uint32_t i = 0; i < n; ++i) {
    if (subs[i].Count() > 0) participants.push_back(i);
  }
  if (participants.empty()) return Status::OK();
  if (participants.size() == 1) {
    // Marker-free fast path: one shard's normal group commit is already
    // atomic + durable on its own, identical to num_shards=1.
    const uint32_t only = participants.front();
    return shards_[only]->Write(options, &subs[only]);
  }
  return WriteAtomic(options, subs, participants);
}

void ShardedDB::RunOnShards(const std::vector<uint32_t>& ids,
                            const std::function<void(uint32_t)>& fn) {
  if (ids.empty()) return;
  if (ids.size() == 1 || fanout_pool_ == nullptr) {
    for (uint32_t id : ids) fn(id);
    return;
  }
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = ids.size() - 1;
  for (size_t i = 0; i + 1 < ids.size(); ++i) {
    const uint32_t id = ids[i];
    fanout_pool_->Submit([&mu, &cv, &remaining, &fn, id] {
      fn(id);
      // Decrement + notify under the lock: the waiter owns the stack these
      // live on and must not unblock before the notify completes.
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) cv.notify_one();
    });
  }
  fn(ids.back());
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&remaining] { return remaining == 0; });
}

Status ShardedDB::WriteAtomic(const WriteOptions& options,
                              std::vector<WriteBatch>& subs,
                              const std::vector<uint32_t>& participants) {
  const uint64_t txn_id =
      next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  std::vector<Status> statuses(shards_.size());

  // Phase 1: every participant appends + fsyncs a prepare record holding
  // its sub-batch — in parallel, so the wave costs max(shard fsync).
  RunOnShards(participants, [&](uint32_t shard) {
    statuses[shard] =
        shards_[shard]->PrepareTxn(options, txn_id, participants,
                                   &subs[shard]);
  });
  Status prepare_status;
  for (uint32_t shard : participants) {
    if (prepare_status.ok() && !statuses[shard].ok()) {
      prepare_status = statuses[shard];
    }
  }
  PMBLADE_SYNC_POINT("ShardedDB::Write:AfterPrepare");
  if (!prepare_status.ok()) {
    // Abort: rollback markers everywhere (harmless on shards whose prepare
    // never landed). Durability is lazy — recovery defaults a missing
    // prepare to rollback anyway — but note the indeterminate window: if
    // every prepare actually reached disk despite the error, a crash
    // before the rollback markers sync can resolve this txn COMMITTED.
    RunOnShards(participants, [&](uint32_t shard) {
      shards_[shard]->RollbackTxn(WriteOptions(), txn_id);
    });
    return prepare_status;
  }

  // Phase 2: tiny commit markers, sequence assignment + publish — also in
  // parallel. No rollback from here on: with every prepare durable the txn
  // is decided, and a shard that failed its marker will be resolved
  // COMMITTED from its still-buffered prepare at the next open.
  //
  // The markers are deliberately NOT fsynced even for sync writes: the
  // durable prepares on every participant already decide the txn (a crash
  // that loses every marker still resolves to commit), so a second fsync
  // wave here would double the sync cost of a cross-shard batch for no
  // durability gain. Markers become durable on the next natural sync —
  // group-commit fsync, WAL rotation — which only delays fence retirement.
  WriteOptions commit_options = options;
  commit_options.sync = false;
  RunOnShards(participants, [&](uint32_t shard) {
    statuses[shard] = shards_[shard]->CommitTxn(commit_options, txn_id);
  });
  Status result;
  for (uint32_t shard : participants) {
    if (result.ok() && !statuses[shard].ok()) result = statuses[shard];
  }

  // Retire the fence once every participant's marker is durable; until
  // then WAL rotation keeps carrying the commit evidence siblings might
  // need at recovery.
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    PendingForget pending;
    pending.txn_id = txn_id;
    pending.participants = participants;
    pending_forget_.push_back(std::move(pending));
  }
  DrainForgettableTxns();
  return result;
}

void ShardedDB::DrainForgettableTxns() {
  std::vector<PendingForget> pending;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    pending.swap(pending_forget_);
  }
  std::vector<PendingForget> keep;
  for (auto& p : pending) {
    bool durable = true;
    for (uint32_t shard : p.participants) {
      if (!shards_[shard]->TxnMarkerDurable(p.txn_id)) {
        durable = false;
        break;
      }
    }
    if (durable) {
      for (uint32_t shard : p.participants) {
        shards_[shard]->ForgetTxn(p.txn_id);
      }
    } else {
      keep.push_back(std::move(p));
    }
  }
  if (!keep.empty()) {
    std::lock_guard<std::mutex> lock(txn_mu_);
    pending_forget_.insert(pending_forget_.begin(),
                           std::make_move_iterator(keep.begin()),
                           std::make_move_iterator(keep.end()));
  }
}

Status ShardedDB::ResolveInDoubtTxns() {
  // Union of every shard's in-doubt set (the participant list rides in the
  // prepare record, so any surviving prepare names the whole group).
  std::map<uint64_t, std::vector<uint32_t>> in_doubt;
  uint64_t max_txn = 0;
  for (auto& shard : shards_) {
    max_txn = std::max(max_txn, shard->MaxSeenTxnId());
    for (auto& txn : shard->GetInDoubtTxns()) {
      auto& parts = in_doubt[txn.txn_id];
      if (parts.empty()) parts = txn.participants;
    }
  }
  next_txn_id_.store(max_txn + 1, std::memory_order_relaxed);

  WriteOptions sync_opts;
  sync_opts.sync = true;
  Status result;
  for (auto& [txn_id, participants] : in_doubt) {
    txn_in_doubt_counter_->Inc();
    // Decision rules, in order: commit evidence anywhere => COMMIT;
    // a rollback marker => ROLL BACK; any participant with no trace (its
    // always-fsynced prepare is missing, so the commit wave cannot have
    // started) => ROLL BACK; all participants prepared => COMMIT (the
    // batch was fully durable, exactly the state phase 2 acts from).
    bool any_committed = false;
    bool any_rolled_back = false;
    bool any_unknown = false;
    for (uint32_t shard : participants) {
      if (shard >= shards_.size()) {
        any_unknown = true;
        continue;
      }
      switch (shards_[shard]->QueryTxn(txn_id)) {
        case DBImpl::TxnPeerState::kCommitted:
          any_committed = true;
          break;
        case DBImpl::TxnPeerState::kRolledBack:
          any_rolled_back = true;
          break;
        case DBImpl::TxnPeerState::kUnknown:
          any_unknown = true;
          break;
        case DBImpl::TxnPeerState::kPrepared:
          break;
      }
    }
    const bool commit = any_committed || (!any_rolled_back && !any_unknown);
    for (uint32_t shard : participants) {
      if (shard >= shards_.size()) continue;
      if (shards_[shard]->QueryTxn(txn_id) !=
          DBImpl::TxnPeerState::kPrepared) {
        continue;
      }
      // Resolution markers are always fsynced: the verdict must not flip
      // across a second crash.
      Status s = commit ? shards_[shard]->CommitTxn(sync_opts, txn_id)
                        : shards_[shard]->RollbackTxn(sync_opts, txn_id);
      if (result.ok() && !s.ok()) result = s;
    }
    (commit ? txn_resolved_commit_counter_ : txn_resolved_rollback_counter_)
        ->Inc();
  }
  PMBLADE_RETURN_IF_ERROR(result);

  // Every verdict is durable now; retained fences and replay evidence are
  // redundant, so drop them — the shards start with empty txn state.
  std::set<uint64_t> retained;
  for (auto& shard : shards_) {
    for (uint64_t txn_id : shard->GetRetainedTxnIds()) {
      retained.insert(txn_id);
    }
  }
  for (uint64_t txn_id : retained) {
    for (auto& shard : shards_) shard->ForgetTxn(txn_id);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reads / snapshots
// ---------------------------------------------------------------------------

Status ShardedDB::Get(const ReadOptions& options, const Slice& key,
                      std::string* value) {
  const uint32_t shard = Route(key);
  if (options.snapshot == 0) {
    return shards_[shard]->Get(options, key, value);
  }
  ReadOptions ropts = options;
  PMBLADE_RETURN_IF_ERROR(
      TranslateSnapshot(options.snapshot, shard, &ropts.snapshot));
  return shards_[shard]->Get(ropts, key, value);
}

Iterator* ShardedDB::NewIterator(const ReadOptions& options) {
  std::vector<uint64_t> seqs;  // empty = read at each shard's latest
  if (options.snapshot != 0) {
    std::lock_guard<std::mutex> lock(snap_mu_);
    auto it = snapshots_.find(options.snapshot);
    if (it == snapshots_.end()) {
      return NewErrorIterator(
          Status::InvalidArgument("unknown snapshot handle"));
    }
    seqs = it->second;
  }
  std::vector<Iterator*> children;
  children.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ReadOptions ropts = options;
    ropts.snapshot = seqs.empty() ? 0 : seqs[i];
    children.push_back(shards_[i]->NewIterator(ropts));
  }
  // Each child already yields live user keys in bytewise order, and hash
  // routing keeps the shards' keyspaces disjoint, so the plain merge IS
  // the global sorted view.
  return NewMergingIterator(BytewiseComparator(), std::move(children));
}

uint64_t ShardedDB::GetSnapshot() {
  std::vector<uint64_t> seqs;
  seqs.reserve(shards_.size());
  for (auto& shard : shards_) seqs.push_back(shard->GetSnapshot());
  std::lock_guard<std::mutex> lock(snap_mu_);
  const uint64_t handle = next_snapshot_handle_++;
  snapshots_.emplace(handle, std::move(seqs));
  return handle;
}

void ShardedDB::ReleaseSnapshot(uint64_t snapshot) {
  std::vector<uint64_t> seqs;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    auto it = snapshots_.find(snapshot);
    if (it == snapshots_.end()) return;
    seqs = std::move(it->second);
    snapshots_.erase(it);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->ReleaseSnapshot(seqs[i]);
  }
}

Status ShardedDB::TranslateSnapshot(uint64_t handle, uint32_t shard,
                                    uint64_t* shard_snapshot) const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  auto it = snapshots_.find(handle);
  if (it == snapshots_.end()) {
    return Status::NotFound("unknown snapshot handle");
  }
  *shard_snapshot = it->second[shard];
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

Status ShardedDB::FlushMemTable() {
  Status result;
  for (auto& shard : shards_) {
    Status s = shard->FlushMemTable();
    if (result.ok() && !s.ok()) result = s;
  }
  // Rotation just fsynced every shard's WAL, so any fence still waiting on
  // marker durability is ready to retire.
  DrainForgettableTxns();
  return result;
}

Status ShardedDB::CompactLevel0() {
  Status result;
  for (auto& shard : shards_) {
    Status s = shard->CompactLevel0();
    if (result.ok() && !s.ok()) result = s;
  }
  return result;
}

Status ShardedDB::CompactToLevel1(bool respect_cost_model) {
  Status result;
  for (auto& shard : shards_) {
    Status s = shard->CompactToLevel1(respect_cost_model);
    if (result.ok() && !s.ok()) result = s;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

void ShardedDB::RefreshAggregateStats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  agg_stats_.Reset();
  for (const auto& shard : shards_) {
    agg_stats_.AddFrom(static_cast<const DBImpl&>(*shard).statistics());
  }
}

const DbStatistics& ShardedDB::statistics() const {
  RefreshAggregateStats();
  return agg_stats_;
}

DbStatistics& ShardedDB::statistics() {
  RefreshAggregateStats();
  return agg_stats_;
}

WritePressure ShardedDB::GetWritePressure() {
  WritePressure worst = WritePressure::kNone;
  for (auto& shard : shards_) {
    WritePressure p = shard->GetWritePressure();
    if (static_cast<int>(p) > static_cast<int>(worst)) worst = p;
    if (worst == WritePressure::kStall) break;
  }
  return worst;
}

WritePressure ShardedDB::GetWritePressure(const Slice& key) {
  return shards_[Route(key)]->GetWritePressure();
}

WritePressure ShardedDB::GetShardWritePressure(uint32_t shard) {
  if (shard >= shards_.size()) return WritePressure::kNone;
  return shards_[shard]->GetWritePressure();
}

bool ShardedDB::GetProperty(const std::string& property, uint64_t* value) {
  // Per-shard drill-down: "pmblade.shard.<i>.<prop>".
  uint32_t shard = 0;
  std::string rest;
  if (ParseShardProperty(property, static_cast<uint32_t>(shards_.size()),
                         &shard, &rest)) {
    return shards_[shard]->GetProperty(rest, value);
  }
  // The facade rule (see RegisterAggregatedMetrics): its own metric wins,
  // otherwise the sum over the shards.
  return ReadNumericProperty(
      property,
      [this](const std::string& name, double* v) {
        return metrics_.Read(name, v) || SumOverShards(name, v);
      },
      value);
}

bool ShardedDB::GetProperty(const std::string& property, std::string* value) {
  if (property == "pmblade.stats.json") {
    obs::MetricsSnapshot snapshot =
        metrics_.Snapshot(options_.clock->NowNanos());
    *value = obs::ExportJson(snapshot, {});
    return true;
  }
  if (property == "pmblade.stats.prometheus") {
    *value = obs::ExportPrometheus(metrics_.Snapshot(options_.clock->NowNanos()));
    return true;
  }
  if (property == "pmblade.stats") {
    RefreshAggregateStats();
    std::lock_guard<std::mutex> lock(stats_mu_);
    *value = agg_stats_.ToString();
    return true;
  }
  if (property == "pmblade.mem.json") {
    *value = arbiter_ != nullptr ? arbiter_->ToJson()
                                 : std::string("{\"enabled\":false}");
    return true;
  }
  if (property == "pmblade.compaction-policy") {
    // Every shard runs the same Options; shard 0 speaks for all.
    return shards_[0]->GetProperty(property, value);
  }
  if (property == "pmblade.trace.json") {
    // Concatenated per-shard traces (each line is a self-contained JSON
    // event; ordering across shards is by shard, not time).
    value->clear();
    for (auto& shard : shards_) {
      std::string part;
      if (shard->GetProperty(property, &part)) value->append(part);
    }
    return true;
  }
  uint32_t shard = 0;
  std::string rest;
  if (ParseShardProperty(property, static_cast<uint32_t>(shards_.size()),
                         &shard, &rest)) {
    return shards_[shard]->GetProperty(rest, value);
  }
  return false;
}

}  // namespace pmblade
