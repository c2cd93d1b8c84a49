// qsmt end-to-end benchmark driver (see ../README.md).
//
//   qsmt_perfbench --workload oneshot-short|oneshot-long|daemon-sessions
//                  --seed N --seconds S --trace 0|1
//   qsmt_perfbench --selftest
//
// Prints a host-facts line, then the result line as the last line of
// standard output. Exit code 0 only when every verdict checked out.
#include <omp.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "checker.hpp"
#include "workloads.hpp"

namespace perfbench {

bool Tally::record(Judgement judgement, const std::string& why) {
  ++attempted;
  if (judgement == Judgement::kCorrect) return true;
  if (judgement == Judgement::kFailed) {
    // The first few are shown; the count is in the result line.
    if (++failed <= 3) std::cerr << "failed check-sat: " << why << '\n';
    return true;
  }
  std::cerr << "WRONG verdict: " << why << '\n';
  correct = false;
  return false;
}

double median_setup_seconds(std::size_t setups, SpeedReference& reference,
                            const std::function<double()>& one_setup) {
  // Probes before and after every set-up: each set-up is taken at the
  // factor of the probes around it.
  constexpr int kProbes = 5;
  const auto probes = [&] {
    for (int i = 0; i < kProbes; ++i) reference.probe();
  };
  probes();
  std::vector<double> seconds;
  for (std::size_t i = 0; i < setups; ++i) {
    const Clock::time_point start = Clock::now();
    const double timed = one_setup();
    const Clock::time_point end = Clock::now();
    probes();
    seconds.push_back(timed / reference.factor_at(start + (end - start) / 2));
  }
  return median(seconds);
}

EndToEnd whole_run(const std::vector<double>& latencies_ms,
                   double tail_quantile, double wall_seconds,
                   double cpu_seconds) {
  const double n = static_cast<double>(latencies_ms.size());
  if (n * (1.0 - tail_quantile) < 10.0) {
    std::cerr << "warning: " << latencies_ms.size()
              << " samples leave fewer than ten beyond p"
              << 100.0 * tail_quantile << '\n';
  }
  std::fprintf(stderr, "latency profile (ms):");
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.98, 0.99}) {
    std::fprintf(stderr, " p%g %.3f", 100.0 * q, quantile(latencies_ms, q));
  }
  std::fprintf(stderr, " (n=%zu)\n", latencies_ms.size());
  EndToEnd e2e;
  e2e.p50_ms = quantile(latencies_ms, 0.5);
  e2e.tail_ms = quantile(latencies_ms, tail_quantile);
  e2e.per_s = n / wall_seconds;
  e2e.cpu_ms = cpu_seconds * 1e3 / n;
  return e2e;
}

void add_end_to_end(Metrics& metrics, const EndToEnd& e2e) {
  metrics["checksat_p50_ms"] = {e2e.p50_ms, "ms"};
  metrics["checksat_tail_ms"] = {e2e.tail_ms, "ms"};
  metrics["checksat_per_s"] = {e2e.per_s, "1/s"};
  metrics["cpu_ms_per_checksat"] = {e2e.cpu_ms, "ms"};
  metrics["setup_s"] = {e2e.setup_s, "s"};
  metrics["peak_rss_mb"] = {e2e.peak_rss_mb > 0 ? e2e.peak_rss_mb : peak_rss_mib(),
                            "MiB"};
}

Metrics zero_per_layer() {
  static const std::vector<std::pair<const char*, const char*>> kLayers = {
      {"smtlib.parse_ms", "ms"},
      {"smtlib.compile_ms", "ms"},
      {"smtlib.fragment_hits", "count"},
      {"smtlib.warm_start_hits", "count"},
      {"baseline.certify_ms", "ms"},
      {"baseline.exhaustive_searches", "count"},
      {"strqubo.build_ms", "ms"},
      {"strqubo.qubo_vars", "count"},
      {"qubo.adjacency_ms", "ms"},
      {"strqubo.verify_ms", "ms"},
      {"anneal.sample_ms", "ms"},
      {"anneal.reads", "count"},
      {"anneal.reads_per_s", "1/s"},
      {"sat.dpllt_ms", "ms"},
      {"sat.theory_checks", "count"},
      {"service.queue_wait_ms", "ms"},
      {"service.attempts_per_job", "count"},
      {"service.decided_per_attempt", "ratio"},
      {"service.members_cancelled", "count"},
      {"service.verify_retries", "count"},
      {"service.model_cache_hits", "count"},
      {"service.jobs_fused", "count"},
      {"canon.answer_hits", "count"},
      {"canon.answer_misses", "count"},
      {"canon.key_ms", "ms"},
      {"server.roundtrip_overhead_ms", "ms"},
      {"server.admission_waits", "count"},
      {"trace.checksats", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.span_coverage_min_pct", "%"},
      {"trace.replay_mismatches", "count"},
  };
  Metrics metrics;
  for (const auto& [name, unit] : kLayers) metrics[name] = {0.0, unit};
  return metrics;
}

int selftest();

}  // namespace perfbench

namespace {

int usage() {
  std::cerr << "usage: qsmt_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       qsmt_perfbench --selftest\n";
  return 2;
}

// Runs the benchmark in a child process. Linux carries a parent's resident
// high-water mark across fork and exec into getrusage's ru_maxrss, so a run
// launched from a large parent (the Python launcher) would report the
// parent's peak; a child forked here, before any thread exists, starts
// from this small process instead. The parent only waits for it.
int run_in_child(int (*body)(int, char**), int argc, char** argv) {
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) return body(argc, argv);
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    std::exit(body(argc, argv));
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

int run_main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return selftest();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (!have_workload || config.seconds <= 0) return usage();

  // The thread budget is fixed by the launcher through OMP_NUM_THREADS
  // (read by the OpenMP runtime at start-up, before main).
  config.omp_threads = static_cast<std::size_t>(omp_get_max_threads());
  try {
    if (config.workload == "oneshot-short") {
      return run_oneshot(config, Mix::kShort);
    }
    if (config.workload == "oneshot-long") {
      return run_oneshot(config, Mix::kLong);
    }
    if (config.workload == "daemon-sessions") return run_daemon(config);
  } catch (const std::exception& e) {
    std::cerr << "qsmt_perfbench: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "unknown workload " << config.workload << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) { return run_in_child(run_main, argc, argv); }
