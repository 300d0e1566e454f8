// perfbench_run: runs one benchmark workload against the engine and prints
// its metrics as the last line of standard output (one JSON object).
//
//   perfbench_run --workload NAME --seed N --seconds S --trace 0|1
//                 --dir SCRATCH_DIR [--spans FILE]
//
// perfbench/run.py builds this program and wraps it; see perfbench/README.md.

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace {

[[noreturn]] void Spin() {
  for (;;) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

// Keeps every vCPU of the VM from halting while the benchmark runs: a child
// process runs one SCHED_IDLE spinner per CPU. The guest scheduler runs a
// spinner only when nothing else wants its CPU and preempts it as soon as a
// thread wakes, so the program loses (almost) no CPU time to them; what they
// remove is the hypervisor's wake-up of a halted vCPU, which on a shared
// host takes as long as the host's other guests make it take. Being another
// process, the spinners stay out of the program's CPU time and peak RSS.
// Returns the child's pid, or -1 when it could not start.
pid_t StartKeepAwake() {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() == 1) _exit(0);
  sched_param param{};
  sched_setscheduler(0, SCHED_IDLE, &param);
  std::vector<std::thread> spinners;
  for (long i = 1; i < sysconf(_SC_NPROCESSORS_ONLN); ++i) {
    spinners.emplace_back(Spin);
  }
  Spin();
}

void StopKeepAwake(pid_t pid) {
  if (pid <= 0) return;
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--dir") {
      config.dir = value;
    } else if (flag == "--spans") {
      config.spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (config.workload.empty() || config.dir.empty() || config.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--dir DIR [--spans FILE]\n",
                 argv[0]);
    return 2;
  }
  const pid_t spinners = StartKeepAwake();
  const int code = perfbench::RunWorkload(config);
  StopKeepAwake(spinners);
  return code;
}
