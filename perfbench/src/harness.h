// The benchmark harness: engine set-up through the public seams, the
// closed-loop and open-loop (RESP) load generators, and the metrics each run
// reports.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "env/sim_env.h"
#include "env/ssd_model.h"
#include "obs/metrics.h"
#include "ops.h"
#include "stats.h"
#include "tracing_env.h"
#include "util/histogram.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;         // scratch directory for the DB files
  std::string spans_path;  // where a traced run writes its spans
  /// Self-test only: after set-up, write values the benchmark did not
  /// issue (another key's value, and keys outside the key space) behind
  /// the checks' back. A correct harness must then fail the run.
  bool plant_faults = false;
  /// Self-test only: delete the WAL before the clean-restart check reopens
  /// the engine, so acknowledged writes not yet flushed are lost. A correct
  /// check must then fail the run.
  bool lose_unflushed_writes = false;
};

/// How a workload settles after loading (each then waits for compaction to
/// go idle): nothing more, a full internal compaction of level-0, or a
/// major compaction down to the Eq. 3 retained set.
enum class Settle { kWaitIdle, kCompactLevel0, kCompactToLevel1 };

struct WorkloadSpec {
  std::string name;
  uint64_t num_keys = 0;
  int client_threads = 1;
  Mix mix;
  KeyDistribution dist;
  Settle settle = Settle::kWaitIdle;
  int setups = 1;         // set-up repetitions; setup_s is their median
  uint32_t num_shards = 1;
  bool resp = false;      // drive through an in-process RESP server
  bool durability_check = false;
  // Workload guards (see README): the timed phase must stay off the SSD,
  // must run this many major compactions, must serve this share of found
  // Gets from SSD runs.
  bool pm_only = false;
  int min_major_compactions = 0;
  double min_ssd_get_frac = 0;
  /// Level-0 budgets (CostModelParams tau_m / tau_t / tau_w); 0 keeps the
  /// engine default.
  uint64_t tau_m = 0, tau_t = 0, tau_w = 0;
};

/// Looks up a workload by name; false when unknown.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

/// The engine under test with the benchmark-owned device model and Env
/// stack. Latency injection is off; modeled device time is still charged
/// and counted.
class Engine {
 public:
  Engine(const WorkloadSpec& spec, const std::string& dbname, bool trace);
  ~Engine();

  pmblade::Status Open();
  void Close();
  /// Removes the DB directory.
  void Destroy();

  pmblade::DB* db() const { return db_.get(); }
  pmblade::SsdModel& model() { return model_; }
  const std::string& dbname() const { return dbname_; }

  uint64_t Property(const std::string& name) const;
  /// Waits until no flush or compaction is queued or running (bounded by
  /// `timeout_s`); false on timeout.
  bool WaitIdle(double timeout_s);

 private:
  pmblade::Options options_;
  std::string dbname_;
  pmblade::SsdModel model_;
  std::unique_ptr<TracingEnv> traced_posix_;
  std::unique_ptr<pmblade::SimEnv> sim_env_;
  std::unique_ptr<pmblade::DB> db_;
};

/// Counter values at the start or end of a timed phase.
struct EngineSample {
  pmblade::obs::MetricsSnapshot snap;
  uint64_t ssd_service_ns = 0;
  uint64_t ssd_bytes_written = 0;
  uint64_t ssd_reads = 0;
  uint64_t ssd_writes = 0;
  uint64_t process_cpu_ns = 0;

  /// A registry sample's value (a histogram's count); 0 if absent.
  double Get(const std::string& name) const;
};
EngineSample SampleEngine(Engine* engine);

/// Latency classes reported end to end.
enum class Lat { kGet, kPut, kScan, kBatch };
constexpr int kNumLat = 4;

/// What a client thread (or the open-loop RESP generator) measured. The timed
/// phase is cut into one-second windows; the end-to-end figures are medians
/// over the windows the host left alone (see WindowSampler), so a disturbed
/// second does not move them.
struct ClientTally {
  struct Window {
    pmblade::Histogram lat[kNumLat];  // nanoseconds
    uint64_t ops = 0;  // operations completed in the window
  };
  std::vector<Window> windows;
  uint64_t start_ns = 0;
  pmblade::Histogram late;  // open loop: send time minus scheduled time
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t puts = 0, scans = 0, batches = 0;  // batches: multi-key writes
  uint64_t user_bytes = 0;      // key + value bytes of acknowledged writes
  uint64_t scan_entries = 0;
  uint64_t thread_cpu_ns = 0;   // over the timed phase
  uint64_t sampled_cpu_ns = 0;  // traced: CPU inside sampled DB calls
  uint64_t sampled_wall_ns = 0; // traced: wall time of the same calls
  std::string first_failure;

  void StartWindows(uint64_t start, double seconds);
  /// One completed operation; `latency_ns` is recorded under `kind`.
  void Record(Lat kind, uint64_t end_ns, uint64_t latency_ns);
  uint64_t Samples(Lat kind) const;

  void Fail(const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }
  void Merge(const ClientTally& other);
};

/// What a sampler thread reads at the end of each one-second window of the
/// timed phase: the CPU time the hypervisor gave to other guests ("steal" in
/// /proc/stat) during the window, as a share of the VM's CPU time, and the
/// bytes the engine stores (level-0 plus SSD runs). On a shared host, steal
/// bursts stretch every latency in the windows they hit; the end-to-end
/// medians skip those windows.
class WindowSampler {
 public:
  explicit WindowSampler(const Engine* engine) : engine_(engine) {}
  ~WindowSampler() { Stop(); }
  /// Samples at `start_ns` and at every window boundary after it.
  void Start(uint64_t start_ns, size_t windows);
  /// Joins the sampler thread.
  void Stop();
  /// Per-window steal shares; empty when /proc/stat is unreadable.
  const std::vector<double>& steal() const { return steal_; }
  /// Stored bytes at the end of each window.
  const std::vector<double>& stored() const { return stored_; }

 private:
  const Engine* engine_;
  std::thread thread_;
  std::vector<double> steal_;
  std::vector<double> stored_;
};

struct PhaseResult {
  std::vector<ClientTally> tallies;
  double wall_s = 0;
};

/// Runs the whole benchmark for one workload; prints progress lines and the
/// result object. Returns the process exit code: 0 when every output check
/// and workload guard passed, 1 when one failed, 2 on bad arguments, 3 when
/// set-up failed.
int RunWorkload(const RunConfig& config);
/// The same for an explicit spec (the self-tests shrink the data).
int RunSpec(const WorkloadSpec& spec, const RunConfig& config);

// The RESP load generator (resp_load.cc). Starts `sampler` with the phase.
PhaseResult RunOpenLoop(const WorkloadSpec& spec, const RunConfig& config,
                        Engine* engine, VersionTable* versions,
                        WindowSampler* sampler);

uint64_t NowNanos();
uint64_t ThreadCpuNanos();
uint64_t ProcessCpuNanos();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
