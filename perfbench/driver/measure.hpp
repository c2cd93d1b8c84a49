// Clocks, summaries, host facts and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds (user + sys) of the whole process / the calling thread.
double process_cpu_seconds();
double thread_cpu_seconds();

/// Peak resident set of the process, MiB.
double peak_rss_mib();

/// Linear-interpolated quantile, q in [0, 1]. Empty input gives 0.
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// One metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> metric map (print order = insertion order by name).
using Metrics = std::map<std::string, Metric>;

/// Host and configuration facts printed before the result line.
struct HostFacts {
  int pinned_cpu = -1;
  std::size_t omp_threads = 0;
  std::size_t service_workers = 0;
  std::size_t client_connections = 0;
};

/// Prints `{"host": {...}}` on one line: nproc, ISA flags, thread budget.
void print_host_facts(const std::string& workload, const HostFacts& facts);

/// Prints the final result line.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics);

/// The machine-speed reference (README, "Speed reference"). A fixed kernel
/// of the benchmark's own code is run every few tens of milliseconds beside
/// the workload; its CPU time over its time on the reference host is the
/// speed factor of that moment (above 1: the host runs slower). Reported
/// times are divided by the factor and rates multiplied by it, so that a
/// shared host's speed swings between runs do not read as the program's.
class SpeedReference {
 public:
  /// Runs the kernel once on the calling thread and records its CPU time.
  void probe();

  /// Probes when at least `interval` seconds have passed since the last
  /// probe (or when none was made yet).
  void probe_every(double interval);

  /// Median factor of the `kNeighbours` probes nearest to `t` in time.
  double factor_at(Clock::time_point t) const;

  /// Median factor of the probes in [from, to); of the nearest ones when
  /// the interval holds fewer than three.
  double factor_between(Clock::time_point from, Clock::time_point to) const;

  /// Median factor of every probe; 1 when there is none.
  double factor() const { return factor_quantile(0.5); }

  /// Quantile `q` of every probe's factor; 1 when there is none.
  double factor_quantile(double q) const;

  /// Wall seconds spent in probes so far.
  double seconds() const { return wall_seconds_; }

 private:
  struct Probe {
    Clock::time_point at;
    double factor;
  };
  static constexpr std::size_t kNeighbours = 15;
  std::vector<Probe> probes_;  // In time order.
  double wall_seconds_ = 0.0;
};

/// Spans recorded around the benchmark's own calls into the library. Every
/// span carries the id of the check-sat it belongs to; stage names are the
/// per-layer metric prefixes ("smtlib.parse", "baseline.certify", ...).
/// The spans of one check-sat tile it: each runs from the end of the
/// previous one (or from begin()) to the end of its call, so the harness's
/// few instructions between two calls are charged to the later stage and a
/// timer interrupt landing there cannot open an unexplained gap.
class SpanLog {
 public:
  struct Span {
    std::uint64_t request;
    const char* stage;
    double seconds;
  };

  /// Starts the spans of `request`.
  void begin(std::uint64_t request) {
    request_ = request;
    cursor_ = Clock::now();
  }

  /// Closes the current span as `stage`, ending now.
  void close(const char* stage) {
    spans_.push_back({request_, stage, 0.0});  // Any allocation is in-span.
    const Clock::time_point now = Clock::now();
    spans_.back().seconds = std::chrono::duration<double>(now - cursor_).count();
    cursor_ = now;
  }

  /// Seconds covered by the spans of `request` (recorded last, so the scan
  /// stops at the first span of another request).
  double request_seconds(std::uint64_t request) const {
    double total = 0.0;
    for (auto it = spans_.rbegin(); it != spans_.rend() && it->request == request;
         ++it) {
      total += it->seconds;
    }
    return total;
  }

  /// Total seconds per stage over every request.
  std::map<std::string, double> stage_seconds() const {
    std::map<std::string, double> totals;
    for (const Span& span : spans_) totals[span.stage] += span.seconds;
    return totals;
  }

 private:
  std::uint64_t request_ = 0;
  Clock::time_point cursor_;
  // A deque, not a vector: growing never relocates the recorded spans.
  std::deque<Span> spans_;
};

/// Runs `fn` as the next span (`stage`) of the current request and returns
/// its result.
template <typename Fn>
auto timed_stage(SpanLog& log, const char* stage, Fn&& fn) {
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    log.close(stage);
  } else {
    auto result = fn();
    log.close(stage);
    return result;
  }
}

}  // namespace perfbench
