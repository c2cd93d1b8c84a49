// oneshot-short and oneshot-long: fresh engine::solve_script calls, one per
// script, no SolveContext, on the main thread (closed loop of one).
//
// The timed run measures only the library call. The traced run (--trace 1)
// also replays every script stage by stage through the modules' public
// functions (parse, compile, certify_unsat, build, adjacency, sample,
// verify; DPLL(T) as one stage for boolean scripts), checks that the
// replayed verdict equals the timed path's, and that the stage spans cover
// at least 90% of each replay's wall time.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <span>

#include "anneal/simulated_annealer.hpp"
#include "baseline/unsat.hpp"
#include "engine/engine.hpp"
#include "qubo/adjacency.hpp"
#include "sat/dpllt.hpp"
#include "smtlib/compiler.hpp"
#include "smtlib/driver.hpp"
#include "smtlib/incremental.hpp"
#include "smtlib/parser.hpp"
#include "strenc/ascii7.hpp"
#include "strqubo/builders.hpp"
#include "strqubo/verify.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using qsmt::smtlib::CheckSatStatus;

// The shipped smt_cli configuration (examples/smt_cli.cpp).
qsmt::anneal::SimulatedAnnealerParams cli_sampler_params() {
  qsmt::anneal::SimulatedAnnealerParams params;
  params.num_reads = 64;
  params.num_sweeps = 512;
  params.seed = 7;
  return params;
}

Verdict to_verdict(CheckSatStatus status) {
  switch (status) {
    case CheckSatStatus::kSat:
      return Verdict::kSat;
    case CheckSatStatus::kUnsat:
      return Verdict::kUnsat;
    case CheckSatStatus::kUnknown:
      break;
  }
  return Verdict::kUnknown;
}

struct Solved {
  Answer answer;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
};

Solved solve_timed(const std::string& script,
                   const qsmt::anneal::Sampler& sampler) {
  Solved out;
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point start = Clock::now();
  try {
    const qsmt::engine::ScriptResult result =
        qsmt::engine::solve_script(script, sampler);
    out.seconds = seconds_since(start);
    out.answer.verdict = to_verdict(result.status);
    out.answer.model = result.model_value;
  } catch (const std::exception& e) {
    out.seconds = seconds_since(start);
    out.answer.verdict = Verdict::kError;
    out.answer.text = e.what();
  }
  out.cpu_seconds = process_cpu_seconds() - cpu0;
  return out;
}

// Per-layer counters of the traced replay.
struct ReplayCounts {
  std::uint64_t fragment_hits = 0;
  std::uint64_t exhaustive_searches = 0;
  std::uint64_t qubo_vars = 0;
  std::uint64_t sampled = 0;
  std::uint64_t reads = 0;
  std::uint64_t theory_checks = 0;
};

// The conjunctive path of SmtDriver::check_sat with a fresh SolveContext,
// one public call per stage. Mirrors smtlib::solve_conjunction_incremental's
// merge (string bits shared, auxiliary blocks re-linked past them).
// A parsed one-shot script: its declarations and assertions.
struct Parsed {
  std::vector<qsmt::smtlib::TermPtr> assertions;
  std::map<std::string, qsmt::smtlib::Sort> declared;
  bool boolean = false;
};

// Results of the cheap front stages, kept across replays. Each stage
// overwrites its slot inside its own span, so freeing the previous
// script's parse tree and compiled query is timed in the stage that made
// them, and no replay ends with untimed teardown.
struct ReplayScratch {
  Parsed parsed;
  qsmt::smtlib::CompiledQuery query;
  qsmt::baseline::UnsatCertificate certificate;
};

Answer replay_conjunctive(ReplayScratch& scratch,
                          const qsmt::anneal::Sampler& sampler, SpanLog& log,
                          ReplayCounts& counts) {
  namespace sm = qsmt::smtlib;
  namespace sq = qsmt::strqubo;
  Answer answer;
  answer.verdict = Verdict::kUnknown;
  timed_stage(log, "smtlib.compile", [&] {
    scratch.query = sm::compile_assertions(scratch.parsed.assertions,
                                           scratch.parsed.declared);
  });
  const sm::CompiledQuery& query = scratch.query;
  if (!query.falsified_ground.empty()) {
    answer.verdict = Verdict::kUnsat;
    return answer;
  }
  if (!query.unsupported.empty()) return answer;
  if (query.constraints.empty()) {
    answer.verdict = Verdict::kSat;
    return answer;
  }
  timed_stage(log, "baseline.certify", [&] {
    scratch.certificate = qsmt::baseline::certify_unsat(query.constraints);
    // Route 4, the exhaustive search, ran when routes 1-3 proved nothing
    // and the string is short enough.
    const std::size_t length =
        sq::constraint_num_variables(query.constraints.front()) /
        qsmt::strenc::kBitsPerChar;
    if (length <= qsmt::baseline::kMaxExhaustiveLength &&
        (!scratch.certificate.proven ||
         scratch.certificate.reason.rfind("exhaustive", 0) == 0)) {
      ++counts.exhaustive_searches;
    }
  });
  const qsmt::baseline::UnsatCertificate& certificate = scratch.certificate;
  if (certificate.proven) {
    answer.verdict = Verdict::kUnsat;
    return answer;
  }
  const auto& constraints = query.constraints;
  for (const auto& c : constraints) {
    if (!sq::produces_string(c)) return answer;
  }
  const std::size_t string_bits = sq::constraint_num_variables(constraints.front());
  for (const auto& c : constraints) {
    if (sq::constraint_num_variables(c) != string_bits) return answer;
  }

  const sq::BuildOptions options;
  qsmt::qubo::QuboModel merged(string_bits);
  timed_stage(log, "strqubo.build", [&] {
    sm::FragmentCache fragments;
    std::size_t aux_base = string_bits;
    for (const auto& constraint : constraints) {
      const auto part = fragments.get_or_build(constraint, options);
      const std::size_t part_aux = part->num_variables() > string_bits
                                       ? part->num_variables() - string_bits
                                       : 0;
      auto remap = [&](std::size_t v) {
        return v < string_bits ? v : aux_base + (v - string_bits);
      };
      merged.add_offset(part->offset());
      for (std::size_t v = 0; v < part->num_variables(); ++v) {
        const double lin = part->linear_terms()[v];
        if (lin != 0.0) merged.add_linear(remap(v), lin);
      }
      for (const auto& [key, value] : part->quadratic_terms()) {
        if (value == 0.0) continue;
        merged.add_quadratic(remap(key >> 32), remap(key & 0xffffffffULL),
                             value);
      }
      aux_base += part_aux;
    }
    counts.fragment_hits += fragments.stats().hits;
  });
  counts.qubo_vars += std::max(merged.num_variables(), string_bits);
  const qsmt::qubo::QuboAdjacency adjacency =
      timed_stage(log, "qubo.adjacency",
                  [&] { return qsmt::qubo::QuboAdjacency(merged); });
  const qsmt::anneal::SampleSet samples = timed_stage(
      log, "anneal.sample", [&] { return sampler.sample(adjacency); });
  ++counts.sampled;
  counts.reads += cli_sampler_params().num_reads;
  timed_stage(log, "strqubo.verify", [&] {
    for (const auto& sample : samples) {
      const std::string value = qsmt::strenc::decode_string(
          std::span(sample.bits).subspan(0, string_bits));
      bool ok = true;
      for (const auto& c : constraints) {
        if (!sq::verify_string(c, value)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        answer.verdict = Verdict::kSat;
        answer.model = value;
        return;
      }
    }
  });
  return answer;
}

Answer replay_dpllt(const Parsed& parsed, const qsmt::anneal::Sampler& sampler,
                    SpanLog& log, ReplayCounts& counts) {
  return timed_stage(log, "sat.dpllt", [&] {
    const qsmt::sat::DpllTSolver solver(sampler, qsmt::strqubo::BuildOptions{},
                                        {});
    const qsmt::sat::DpllTResult solved =
        solver.solve(parsed.assertions, {}, parsed.declared, nullptr);
    counts.theory_checks += solved.theory_rounds;
    Answer answer;
    answer.verdict = to_verdict(solved.status);
    answer.model = solved.model_value;
    return answer;
  });
}

// Parse (with the engine's routing decision) as one stage, then the
// engine's conjunctive or DPLL(T) path.
Answer replay(const std::string& script, const qsmt::anneal::Sampler& sampler,
              std::uint64_t id, SpanLog& log, ReplayCounts& counts,
              ReplayScratch& scratch) {
  namespace sm = qsmt::smtlib;
  log.begin(id);
  timed_stage(log, "smtlib.parse", [&] {
    Parsed& out = scratch.parsed;
    out = Parsed{};
    const std::vector<sm::Command> commands = sm::parse_script(script);
    out.boolean = qsmt::engine::needs_boolean_engine(commands);
    for (const auto& command : commands) {
      if (const auto* d = std::get_if<sm::DeclareConst>(&command)) {
        out.declared.emplace(d->name, d->sort);
      } else if (const auto* a = std::get_if<sm::AssertCmd>(&command)) {
        out.assertions.push_back(a->term);
      }
    }
  });
  return scratch.parsed.boolean
             ? replay_dpllt(scratch.parsed, sampler, log, counts)
             : replay_conjunctive(scratch, sampler, log, counts);
}

// Seconds between two probes of the speed reference (README, "Speed
// reference"): about 1 % of the run.
constexpr double kProbeInterval = 0.05;

// Tail percentile per workload (README, "Tail percentile").
double tail_quantile(Mix mix) { return mix == Mix::kShort ? 0.90 : 0.95; }

// One set-up: the sampler plus the fixed warm-up set, solved and checked.
// Returns its seconds.
double one_setup(Mix mix) {
  const Clock::time_point start = Clock::now();
  const qsmt::anneal::SimulatedAnnealer sampler(cli_sampler_params());
  Checker checker;
  for (const Instance& instance : warmup_set(mix)) {
    const Solved solved = solve_timed(render_script(instance), sampler);
    std::string why;
    if (judge(instance, "x", solved.answer, checker, why) ==
        Judgement::kWrong) {
      throw std::runtime_error("warm-up: " + why);
    }
  }
  return seconds_since(start);
}

}  // namespace

int run_oneshot(const RunConfig& config, Mix mix) {
  HostFacts facts;
  facts.omp_threads = config.omp_threads;
  facts.client_connections = 1;
  print_host_facts(config.workload, facts);

  SpeedReference reference;
  const double setup_s =
      median_setup_seconds(5, reference, [mix] { return one_setup(mix); });
  const qsmt::anneal::SimulatedAnnealer sampler(cli_sampler_params());
  Tally tally;

  // Per check-sat: wall and CPU seconds, and when it started (for the speed
  // factor of its moment).
  std::vector<double> latencies_s;
  std::vector<double> cpus_s;
  std::vector<Clock::time_point> started;
  double timed_seconds = 0.0;
  // Traced-run state.
  SpanLog log;
  ReplayCounts counts;
  ReplayScratch scratch;
  double replay_seconds = 0.0;
  double min_coverage = 1.0;
  std::uint64_t mismatches = 0;
  std::map<std::string, double> family_ms;
  std::map<std::string, std::uint64_t> family_n;

  // Each round's answers are judged when the round ends; the judging time
  // is taken out of the closed loop's wall time.
  std::uint64_t checksats = 0;
  double judge_seconds = 0.0;
  const double setup_probe_seconds = reference.seconds();
  const Clock::time_point start = Clock::now();
  for (std::uint64_t round = 0; tally.correct; ++round) {
    const std::vector<Instance> instances = make_round(mix, config.seed, round);
    std::vector<Answer> answers;
    for (const Instance& instance : instances) {
      const std::string script = render_script(instance);
      if (!config.trace) reference.probe_every(kProbeInterval);
      started.push_back(Clock::now());
      const Solved solved = solve_timed(script, sampler);
      latencies_s.push_back(solved.seconds);
      cpus_s.push_back(solved.cpu_seconds);
      timed_seconds += solved.seconds;
      family_ms[instance.family] += solved.seconds * 1e3;
      ++family_n[instance.family];
      answers.push_back(solved.answer);
      const std::uint64_t id = ++checksats;
      if (config.trace) {
        const Clock::time_point replay_start = Clock::now();
        const Answer replayed = replay(script, sampler, id, log, counts, scratch);
        const double wall = seconds_since(replay_start);
        replay_seconds += wall;
        min_coverage = std::min(min_coverage, log.request_seconds(id) / wall);
        if (replayed.verdict != solved.answer.verdict ||
            replayed.model != solved.answer.model) {
          ++mismatches;
          std::cerr << "replay mismatch on " << instance.family << ": "
                    << script << '\n';
        }
      }
    }
    const Clock::time_point judge_start = Clock::now();
    Checker checker;  // Per round: its regex cache stays one round's size.
    for (std::size_t i = 0; i < instances.size(); ++i) {
      std::string why;
      if (!tally.record(judge(instances[i], "x", answers[i], checker, why),
                        why)) {
        break;
      }
    }
    judge_seconds += seconds_since(judge_start);
    if (seconds_since(start) >= config.seconds) break;
  }
  if (!config.trace) reference.probe();  // The last check-sat's neighbour.
  const double wall = seconds_since(start) - judge_seconds -
                      (reference.seconds() - setup_probe_seconds);
  for (const auto& [family, ms] : family_ms) {
    std::fprintf(stderr, "family %-14s n=%-5llu mean %.3f ms\n", family.c_str(),
                 static_cast<unsigned long long>(family_n[family]),
                 ms / static_cast<double>(family_n[family]));
  }

  Metrics metrics;
  if (config.trace) {
    metrics = zero_per_layer();
    const double n = static_cast<double>(checksats);
    const std::map<std::string, double> stages = log.stage_seconds();
    const auto stage_s = [&](const char* stage) {
      auto it = stages.find(stage);
      return it == stages.end() ? 0.0 : it->second;
    };
    const auto per_call_ms = [&](const char* stage) {
      return stage_s(stage) * 1e3 / n;
    };
    metrics["smtlib.parse_ms"].value = per_call_ms("smtlib.parse");
    metrics["smtlib.compile_ms"].value = per_call_ms("smtlib.compile");
    metrics["smtlib.fragment_hits"].value = static_cast<double>(counts.fragment_hits);
    metrics["baseline.certify_ms"].value = per_call_ms("baseline.certify");
    metrics["baseline.exhaustive_searches"].value =
        static_cast<double>(counts.exhaustive_searches);
    metrics["strqubo.build_ms"].value = per_call_ms("strqubo.build");
    metrics["strqubo.qubo_vars"].value =
        counts.sampled ? static_cast<double>(counts.qubo_vars) /
                             static_cast<double>(counts.sampled)
                       : 0.0;
    metrics["qubo.adjacency_ms"].value = per_call_ms("qubo.adjacency");
    metrics["strqubo.verify_ms"].value = per_call_ms("strqubo.verify");
    metrics["anneal.sample_ms"].value = per_call_ms("anneal.sample");
    metrics["anneal.reads"].value = static_cast<double>(counts.reads);
    const double sample_s = stage_s("anneal.sample");
    metrics["anneal.reads_per_s"].value =
        sample_s > 0 ? static_cast<double>(counts.reads) / sample_s : 0.0;
    metrics["sat.dpllt_ms"].value = per_call_ms("sat.dpllt");
    metrics["sat.theory_checks"].value = static_cast<double>(counts.theory_checks);
    metrics["trace.checksats"].value = n;
    metrics["trace.overhead_pct"].value =
        timed_seconds > 0 ? 100.0 * (replay_seconds - timed_seconds) / timed_seconds
                          : 0.0;
    metrics["trace.span_coverage_min_pct"].value = 100.0 * min_coverage;
    metrics["trace.replay_mismatches"].value = static_cast<double>(mismatches);
    std::string largest;
    double largest_s = -1.0;
    for (const auto& [stage, s] : stages) {
      if (s > largest_s) {
        largest = stage;
        largest_s = s;
      }
      std::fprintf(stderr, "stage %-18s %.3f s\n", stage.c_str(), s);
    }
    std::cerr << "largest stage: " << largest << '\n';
    if (mismatches != 0 || min_coverage < 0.9) {
      std::cerr << "trace check failed: " << mismatches
                << " replay mismatches, minimum span coverage "
                << 100.0 * min_coverage << "%\n";
      tally.correct = false;
    }
  } else {
    // Each check-sat at the speed factor of its moment; the loop's own time
    // between check-sats at the run's median factor.
    std::vector<double> latencies_ms;
    double cpu_seconds = 0.0;
    double loop_seconds = (wall - timed_seconds) / reference.factor();
    for (std::size_t i = 0; i < latencies_s.size(); ++i) {
      const double factor = reference.factor_at(started[i]);
      latencies_ms.push_back(latencies_s[i] * 1e3 / factor);
      cpu_seconds += cpus_s[i] / factor;
      loop_seconds += latencies_s[i] / factor;
    }
    double raw_cpu = 0.0;
    for (double c : cpus_s) raw_cpu += c;
    std::fprintf(stderr,
                 "speed factor: p10 %.4f p50 %.4f p90 %.4f; unadjusted p50 %.4f ms, "
                 "%.4f check-sats/s, cpu %.4f ms\n",
                 reference.factor_quantile(0.1), reference.factor(),
                 reference.factor_quantile(0.9), 1e3 * median(latencies_s),
                 static_cast<double>(latencies_s.size()) / wall,
                 1e3 * raw_cpu / static_cast<double>(cpus_s.size()));
    EndToEnd e2e = whole_run(latencies_ms, tail_quantile(mix), loop_seconds,
                             cpu_seconds);
    e2e.setup_s = setup_s;
    add_end_to_end(metrics, e2e);
  }
  print_result(tally.correct, tally.attempted, tally.failed, metrics);
  return tally.correct ? 0 : 1;
}

}  // namespace perfbench
