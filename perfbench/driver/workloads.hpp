// The three workloads: oneshot-short, oneshot-long, daemon-sessions.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "checker.hpp"
#include "common.hpp"
#include "measure.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// OpenMP team size of the program.
  std::size_t omp_threads = 1;
};

/// Tallies of one run's check-sats.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// Records one judged answer; prints failures and wrong verdicts to
  /// stderr. Returns false on a wrong verdict (the run aborts).
  bool record(Judgement judgement, const std::string& why);
};

/// Runs `one_setup` `setups` times, each returning the seconds it timed,
/// takes each at the speed factor of the reference probes around it and
/// returns their median, seconds.
double median_setup_seconds(std::size_t setups, SpeedReference& reference,
                            const std::function<double()>& one_setup);

int run_oneshot(const RunConfig& config, Mix mix);
int run_daemon(const RunConfig& config);

/// The six end-to-end metrics (README, "End-to-end metrics").
struct EndToEnd {
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double per_s = 0.0;
  double cpu_ms = 0.0;
  double setup_s = 0.0;
  /// Peak RSS to report, MiB; 0 reads the process's peak at the end.
  double peak_rss_mb = 0.0;
};

/// Whole-run figures of a closed loop: latency quantiles over every
/// check-sat, throughput and CPU over the whole timed wall time.
EndToEnd whole_run(const std::vector<double>& latencies_ms,
                   double tail_quantile, double wall_seconds,
                   double cpu_seconds);

void add_end_to_end(Metrics& metrics, const EndToEnd& e2e);

/// Every per-layer metric, zero-filled; each workload overwrites the layers
/// it exercises.
Metrics zero_per_layer();

}  // namespace perfbench
