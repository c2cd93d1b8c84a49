#include "measure.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>

namespace perfbench {

namespace {

double clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

// ---- the speed reference's kernel --------------------------------------------

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

// Metropolis sweeps over a fixed sparse QUBO (256 spins, 8 couplings each):
// floating point, exp() and scattered reads, as in the annealer.
double anneal_part() {
  constexpr int kSpins = 256;
  constexpr int kDegree = 8;
  static const auto couplings = [] {
    std::vector<std::pair<int, double>> c(kSpins * kDegree);
    std::uint64_t s = 0x9e3779b97f4a7c15ULL;
    for (auto& [j, w] : c) {
      j = static_cast<int>(xorshift(s) % kSpins);
      w = static_cast<double>(xorshift(s) % 2001) / 1000.0 - 1.0;
    }
    return c;
  }();
  std::vector<std::uint8_t> bit(kSpins, 0);
  std::uint64_t s = 0x2545f4914f6cdd1dULL;
  double energy = 0.0;
  for (int sweep = 0; sweep < 8; ++sweep) {
    const double beta = 0.2 + 0.6 * sweep;
    for (int i = 0; i < kSpins; ++i) {
      double field = 0.0;
      for (int k = 0; k < kDegree; ++k) {
        const auto& [j, w] = couplings[static_cast<std::size_t>(i * kDegree + k)];
        field += bit[static_cast<std::size_t>(j)] ? w : 0.0;
      }
      const double delta = bit[static_cast<std::size_t>(i)] ? -field : field;
      const double u = static_cast<double>(xorshift(s) >> 11) * 0x1.0p-53;
      if (delta < 0.0 || u < std::exp(-beta * delta)) {
        bit[static_cast<std::size_t>(i)] ^= 1;
        energy += delta;
      }
    }
  }
  return energy;
}

// A brute-force walk over strings of three 7-bit characters against a
// position-class pattern, as in the certifier's exhaustive search. The
// pattern is read through a volatile, so the walk cannot be folded away.
volatile int pattern_shift = 0;

std::uint64_t search_part() {
  const int shift = pattern_shift;
  std::uint64_t classes[3][2] = {};
  for (int c : {'a', 'c', 'e', 'q'}) classes[0][(c + shift) >> 6] |= 1ULL << ((c + shift) & 63);
  for (int c : {'m', 'n', 'z'}) classes[1][(c + shift) >> 6] |= 1ULL << ((c + shift) & 63);
  for (int c : {'b', 'x'}) classes[2][(c + shift) >> 6] |= 1ULL << ((c + shift) & 63);
  std::uint64_t hits = 0;
  int text[3];
  for (int a = 32; a < 128; a += 8) {
    text[0] = a;
    for (int b = 0; b < 128; ++b) {
      text[1] = b;
      for (int c = 0; c < 128; c += 4) {
        text[2] = c;
        bool match = true;
        for (int p = 0; p < 3 && match; ++p) {
          match = (classes[p][text[p] >> 6] >> (text[p] & 63)) & 1ULL;
        }
        hits += match ? 1 : static_cast<std::uint64_t>(text[(a + b) % 3] & 1);
      }
    }
  }
  return hits;
}

// Small strings built, keyed and sorted, as in the SMT-LIB front end.
std::size_t string_part() {
  std::vector<std::string> terms;
  std::map<std::string, std::size_t> index;
  std::uint64_t s = 0x853c49e6748fea9bULL;
  for (int i = 0; i < 160; ++i) {
    std::string term = "(str.in_re x";
    for (int k = 0; k < 4; ++k) {
      term += " (str.to_re \"";
      term += static_cast<char>('a' + xorshift(s) % 26);
      term += "\")";
    }
    term += ')';
    index.emplace(term, terms.size());
    terms.push_back(std::move(term));
  }
  std::sort(terms.begin(), terms.end());
  return index.size() + terms.front().size();
}

volatile double kernel_sink = 0.0;

// The reference kernel's thread CPU time on the reference host (README,
// "Speed reference"): the median of 2,000 probes.
constexpr double kReferenceSeconds = 450e-6;

double run_kernel() {
  const double anneal = anneal_part();
  const auto search = static_cast<double>(search_part());
  const auto strings = static_cast<double>(string_part());
  return anneal + search + strings;
}

}  // namespace

double process_cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

void print_host_facts(const std::string& workload, const HostFacts& facts) {
  std::vector<std::string> isa;
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) isa.push_back("sse4.2");
  if (__builtin_cpu_supports("avx")) isa.push_back("avx");
  if (__builtin_cpu_supports("avx2")) isa.push_back("avx2");
  if (__builtin_cpu_supports("fma")) isa.push_back("fma");
  if (__builtin_cpu_supports("avx512f")) isa.push_back("avx512f");
  if (__builtin_cpu_supports("avx512bw")) isa.push_back("avx512bw");
  if (__builtin_cpu_supports("avx512vl")) isa.push_back("avx512vl");
  std::ostringstream out;
  out << "{\"host\": {\"workload\": \"" << workload << "\", \"nproc\": "
      << sysconf(_SC_NPROCESSORS_ONLN) << ", \"isa\": [";
  for (std::size_t i = 0; i < isa.size(); ++i) {
    out << (i ? ", " : "") << '"' << isa[i] << '"';
  }
  out << "], \"pinned_cpu\": " << facts.pinned_cpu
      << ", \"omp_threads\": " << facts.omp_threads
      << ", \"service_workers\": " << facts.service_workers
      << ", \"client_connections\": " << facts.client_connections << "}}";
  std::cout << out.str() << std::endl;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
        << number(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void SpeedReference::probe() {
  const Clock::time_point start = Clock::now();
  const double cpu0 = thread_cpu_seconds();
  kernel_sink = kernel_sink + run_kernel();
  const double cpu = thread_cpu_seconds() - cpu0;
  probes_.push_back({start, cpu / kReferenceSeconds});
  wall_seconds_ += seconds_since(start);
}

void SpeedReference::probe_every(double interval) {
  if (probes_.empty() ||
      std::chrono::duration<double>(Clock::now() - probes_.back().at).count() >=
          interval) {
    probe();
  }
}

double SpeedReference::factor_at(Clock::time_point t) const {
  if (probes_.empty()) return 1.0;
  // The kNeighbours probes nearest to t: a window around its insertion point.
  const auto at = std::lower_bound(
      probes_.begin(), probes_.end(), t,
      [](const Probe& p, Clock::time_point v) { return p.at < v; });
  const std::size_t n = probes_.size();
  const std::size_t k = std::min(kNeighbours, n);
  std::size_t lo = static_cast<std::size_t>(at - probes_.begin());
  lo = lo > k / 2 ? lo - k / 2 : 0;
  lo = std::min(lo, n - k);
  std::vector<double> factors;
  for (std::size_t i = lo; i < lo + k; ++i) factors.push_back(probes_[i].factor);
  return median(std::move(factors));
}

double SpeedReference::factor_between(Clock::time_point from,
                                      Clock::time_point to) const {
  std::vector<double> factors;
  for (const Probe& p : probes_) {
    if (p.at >= from && p.at < to) factors.push_back(p.factor);
  }
  if (factors.size() < 3) return factor_at(from + (to - from) / 2);
  return median(std::move(factors));
}

double SpeedReference::factor_quantile(double q) const {
  if (probes_.empty()) return 1.0;
  std::vector<double> factors;
  for (const Probe& p : probes_) factors.push_back(p.factor);
  return quantile(std::move(factors), q);
}

}  // namespace perfbench
