// perfbench: one workload of the steady-state pipeline benchmark.
//
//   perfbench --workload=live_saturated --seed=1 --seconds=10 --trace=0
//             --tmp=DIR [--trace-out=FILE] [--git-sha=SHA]
//   perfbench --control --seed=1 --tmp=DIR
//
// Prints a `provenance {...}` line and then, as the last line of stdout,
// the result object {"correct", "attempted", "failed", "metrics"}.
// --control runs the live harness over the non-opaque weak runtime and
// exits 0 only if the monitor flags it. perfbench/run.py builds this
// binary and drives it; see perfbench/README.md.
#include <sched.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

// OPTM_SANITIZE (any sanitizer, UBSan included) reaches us as
// PERFBENCH_SANITIZE; the compiler macros catch flags passed by hand.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = sizeof(PERFBENCH_SANITIZE) > 1;
#endif

#ifdef NDEBUG
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// "--name=value" -> value, or nullptr.
const char* flag(const char* arg, const char* name) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Fails the run once the round in flight passes its deadline: a hung
/// pipeline is a failed run, not a stuck benchmark.
class Watchdog {
 public:
  Watchdog() : thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> guard(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(200),
                         [this] { return stop_; })) {
      const std::int64_t deadline = perfbench::g_round_deadline_ns.load();
      if (deadline != 0 && perfbench::now_ns() > deadline) {
        std::fprintf(stderr, "perfbench: a round passed its deadline (hung)\n");
        std::printf(
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
            "\"metrics\": {}}\n");
        std::fflush(stdout);
        std::_Exit(3);
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool control = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (const char* v = flag(a, "--workload")) {
      o.workload = v;
    } else if (const char* v = flag(a, "--seed")) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = flag(a, "--seconds")) {
      o.seconds = std::strtod(v, nullptr);
    } else if (const char* v = flag(a, "--trace")) {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (const char* v = flag(a, "--tmp")) {
      o.tmp_dir = v;
    } else if (const char* v = flag(a, "--trace-out")) {
      o.trace_out = v;
    } else if (const char* v = flag(a, "--git-sha")) {
      o.git_sha = v;
    } else if (std::strcmp(a, "--control") == 0) {
      control = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", a);
      return 2;
    }
  }
  if (!kOptimizedBuild || kSanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s build (build type "
                 "%s); configure with -DCMAKE_BUILD_TYPE=Release\n",
                 kSanitized ? "sanitizer" : "debug", PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (o.tmp_dir.empty() || (!control && (o.workload.empty() || o.seconds <= 0))) {
    std::fprintf(stderr, "perfbench: need --workload, --seconds > 0 and --tmp\n");
    return 2;
  }
  o.nproc = online_cpus();

  const Watchdog watchdog;
  if (control) {
    std::string detail;
    const bool flagged = perfbench::run_negative_control(o, detail);
    std::printf("{\"control\": \"weak\", \"flagged\": %s, \"detail\": \"%s\"}\n",
                flagged ? "true" : "false", json_escape(detail).c_str());
    return flagged ? 0 : 1;
  }

  perfbench::Report rep;
  try {
    rep = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  perfbench::g_round_deadline_ns.store(0);
  for (const std::string& f : rep.failures) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
  }

  std::printf("provenance {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"git_sha\": \"%s\"",
              json_escape(o.workload).c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0, o.nproc,
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              json_escape(o.git_sha).c_str());
  for (const auto& [key, value] : rep.provenance) {
    std::printf(", \"%s\": \"%s\"", json_escape(key).c_str(),
                json_escape(value).c_str());
  }
  std::printf("}\n");

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              rep.failed == 0 ? "true" : "false", rep.attempted, rep.failed);
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const perfbench::Metric& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
