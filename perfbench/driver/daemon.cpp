// daemon-sessions: the shipped qsmt-server configuration (answer cache on,
// 8 MiB, as qsmt-server's defaults) serving framed localhost sockets, with
// three client connections in a closed loop, each running incremental
// sessions.
//
// The timed run measures client round trips. The traced run (--trace 1)
// runs three phases over the same request streams: (A) the daemon over
// sockets, reading the SolveService, AdmissionGate and AnswerCache stats()
// snapshots; (B) the same frames through in-process server::Session
// objects, whose time per frame is subtracted from (A)'s round trip of the
// same request; (C) the same queries submitted straight to a SolveService,
// reading each JobResult (attempts, queue wait) and timing the canonical
// answer key.
#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>

#include "canon/answer_cache.hpp"
#include "canon/canon.hpp"
#include "server/admission.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/session.hpp"
#include "service/service.hpp"
#include "smtlib/driver.hpp"
#include "smtlib/parser.hpp"
#include "strqubo/constraint.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kClients = 3;
constexpr std::size_t kWorkers = 1;
// Per client and round: 4 repeats, the fault, 11 family steps, 4 repeats,
// 11 family steps (README, "daemon-sessions").
constexpr std::size_t kRepeatsPerHalf = 4;
constexpr double kTailQuantile = 0.99;

const char* const kVars[kClients] = {"x", "s", "v1"};

// One framed request: exactly one check-sat, answered with its model.
struct Request {
  std::string frame;
  Instance effective;  ///< Assertions in force at the check-sat.
};

// The instance's assertions other than its length fact.
std::vector<std::string> atoms_of(const Instance& in) {
  std::vector<std::string> atoms;
  for (const std::string& a : in.assertions) {
    if (a.rfind("(= (str.len $V) ", 0) != 0) atoms.push_back(a);
  }
  return atoms;
}

// Argument-permuted copy: assertion order reversed and the arguments of
// every top-level `=` swapped (the compiler and the canonicalizer accept
// both orders).
Instance permuted(const Instance& in) {
  Instance out = in;
  out.assertions.clear();
  for (auto it = in.assertions.rbegin(); it != in.assertions.rend(); ++it) {
    SExpr e = read_sexprs(*it).at(0);
    if (e.head_is("=") && e.items.size() == 3) std::swap(e.items[1], e.items[2]);
    out.assertions.push_back(print_sexpr(e));
  }
  return out;
}

// A check-sat over `in` alone, scoped in push/pop at depth 0.
Request stateless_step(const Instance& in, const std::string& var) {
  return {"(push 1)\n" + render_assertions(in, var) +
              "(check-sat)\n(get-model)\n(pop 1)\n",
          in};
}

std::vector<Instance> episode_instances(std::uint64_t seed, std::size_t client,
                                        std::uint64_t round, int half) {
  return make_round(Mix::kDaemon, seed, (round * kClients + client) * 2 + half);
}

// A repeat of another client's query from two to eight rounds back (or of
// its warm-up set in the first rounds): renamed to this client's variable,
// and argument-permuted every other time.
Instance repeat_of(Rng& rng, std::uint64_t seed, std::size_t client,
                   std::uint64_t round, std::size_t k) {
  const std::size_t other =
      (client + 1 + std::uniform_int_distribution<std::size_t>(0, kClients - 2)(rng)) %
      kClients;
  Instance source;
  if (round < 2) {
    const std::vector<Instance> warm = warmup_set(Mix::kDaemon);
    source = warm[std::uniform_int_distribution<std::size_t>(0, warm.size() - 1)(rng)];
  } else {
    const std::uint64_t lo = round >= 8 ? round - 8 : 0;
    const std::uint64_t r =
        std::uniform_int_distribution<std::uint64_t>(lo, round - 2)(rng);
    const int half = static_cast<int>(std::uniform_int_distribution<int>(0, 1)(rng));
    const std::vector<Instance> pool = episode_instances(seed, other, r, half);
    const Instance& base =
        pool[std::uniform_int_distribution<std::size_t>(0, pool.size() - 1)(rng)];
    const std::vector<std::string> atoms = atoms_of(base);
    source = base;
    source.assertions = {"(= (str.len $V) " + std::to_string(base.length) + ")"};
    for (const std::string& a : atoms) source.assertions.push_back(a);
  }
  source.family = "repeat:" + source.family;
  return k % 2 == 0 ? permuted(source) : source;
}

// One incremental episode: the length fact at depth 1, then one mutated
// assertion per step (push/assert/check-sat/pop, every third step as
// check-sat-assuming instead). `tail` closes the episode's scope.
void append_episode(std::vector<Request>& out, const std::vector<Instance>& family,
                    const std::string& var, const std::string& tail) {
  const std::string len =
      "(= (str.len $V) " + std::to_string(family.front().length) + ")";
  for (std::size_t i = 0; i < family.size(); ++i) {
    const std::vector<std::string> atoms = atoms_of(family[i]);
    Request req;
    req.effective = family[i];
    req.effective.assertions = {len};
    if (i == 0) req.frame = "(push 1)\n(assert " + bind_var(len, var) + ")\n";
    if (i % 3 == 2) {
      std::string terms;
      for (const std::string& a : atoms) {
        terms += (terms.empty() ? "" : " ") + bind_var(a, var);
      }
      req.frame += "(check-sat-assuming (" + terms + "))\n(get-model)\n";
    } else {
      req.frame += "(push 1)\n";
      for (const std::string& a : atoms) {
        req.frame += "(assert " + bind_var(a, var) + ")\n";
      }
      req.frame += "(check-sat)\n(get-model)\n(pop 1)\n";
    }
    for (const std::string& a : atoms) req.effective.assertions.push_back(a);
    if (i + 1 == family.size()) req.frame += tail;
    out.push_back(std::move(req));
  }
}

// The requests of one client's round, in order.
std::vector<Request> client_round(std::uint64_t seed, std::size_t client,
                                  std::uint64_t round) {
  const std::string var = kVars[client];
  Rng rng = make_rng(seed, 1000 + client, round);
  std::vector<Request> out;
  std::size_t k = 0;
  for (int half = 0; half < 2; ++half) {
    for (std::size_t i = 0; i < kRepeatsPerHalf; ++i) {
      out.push_back(stateless_step(repeat_of(rng, seed, client, round, k++), var));
    }
    if (half == 0) {
      out.front().frame = "(reset)\n(declare-const " + var + " String)\n" +
                          out.front().frame;
      out.push_back(stateless_step(known_fault_instance(client), var));
    }
    append_episode(out, episode_instances(seed, client, round, half), var,
                   "(pop 1)\n");
  }
  return out;
}

// The fixed warm-up set as stateless steps.
std::vector<Request> client_warmup(std::size_t client) {
  const std::string var = kVars[client];
  std::vector<Request> out;
  for (const Instance& in : warmup_set(Mix::kDaemon)) {
    out.push_back(stateless_step(in, var));
  }
  out.front().frame = "(reset)\n(declare-const " + var + " String)\n" +
                      out.front().frame;
  return out;
}

// The shipped daemon configuration (qsmt-server's defaults) at the thread
// budget: kWorkers service workers, answer cache on with 8 MiB.
qsmt::server::ServerOptions daemon_options() {
  qsmt::server::ServerOptions options;
  options.service.num_workers = kWorkers;
  qsmt::canon::AnswerCacheOptions cache;
  cache.max_bytes = std::size_t{8} << 20;
  options.service.answer_cache = std::make_shared<qsmt::canon::AnswerCache>(cache);
  return options;
}

// One client's share of a run: latency per check-sat in request order and
// the judged tally.
struct ClientLog {
  std::vector<double> ms;
  std::vector<double> done_s;  ///< Completion time since the loop started.
  Tally tally;
};

// Peak RSS at matched work: the daemon's memory grows with every answer it
// caches, so its peak is read when the run completes its kRssCheckSats-th
// check-sat (about 7 s in), not at the end of a run whose length in
// check-sats depends on speed.
constexpr std::uint64_t kRssCheckSats = 10000;

struct RssAtWork {
  std::atomic<std::uint64_t> done{0};
  double mib = 0.0;  ///< Written once, by the thread completing the count.

  void count() {
    if (done.fetch_add(1) + 1 == kRssCheckSats) mib = peak_rss_mib();
  }
};

// Closed loop of whole rounds until `seconds` have passed since `start`.
// Each round's answers are judged when the round ends, so the harness keeps
// no per-request state beyond the latencies.
template <typename Exchange>
void closed_loop(std::uint64_t seed, std::size_t client, double seconds,
                 Clock::time_point start, Exchange&& exchange, ClientLog& log,
                 RssAtWork* rss = nullptr) {
  Checker checker;
  std::vector<Answer> answers;
  for (std::uint32_t round = 0; log.tally.correct; ++round) {
    const std::vector<Request> requests = client_round(seed, client, round);
    answers.clear();
    for (const Request& request : requests) {
      const Clock::time_point sent = Clock::now();
      std::string reply;
      try {
        reply = exchange(request.frame);
      } catch (const std::exception& e) {
        // A dropped connection or a protocol error ends the run.
        std::cerr << "client " << client << ": " << e.what() << '\n';
        log.tally.correct = false;
        return;
      }
      const Clock::time_point done = Clock::now();
      log.ms.push_back(std::chrono::duration<double, std::milli>(done - sent).count());
      log.done_s.push_back(std::chrono::duration<double>(done - start).count());
      answers.push_back(parse_reply(reply, kVars[client]));
      if (rss != nullptr) rss->count();
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
      std::string why;
      if (!log.tally.record(judge(requests[i].effective, kVars[client],
                                  answers[i], checker, why),
                            why)) {
        break;
      }
    }
    if (seconds_since(start) >= seconds) break;
  }
}

// Sums the clients' tallies.
Tally merged_tally(const std::vector<ClientLog>& logs) {
  Tally total;
  for (const ClientLog& log : logs) {
    total.attempted += log.tally.attempted;
    total.failed += log.tally.failed;
    total.correct = total.correct && log.tally.correct;
  }
  return total;
}

// A server with its clients connected and the warm-up set answered.
struct Daemon {
  std::shared_ptr<qsmt::canon::AnswerCache> answers;
  std::unique_ptr<qsmt::server::Server> server;
  std::vector<std::unique_ptr<qsmt::server::Client>> clients;
};

Daemon boot_daemon(double& seconds) {
  const Clock::time_point start = Clock::now();
  Daemon d;
  qsmt::server::ServerOptions options = daemon_options();
  d.answers = options.service.answer_cache;
  d.server = std::make_unique<qsmt::server::Server>(std::move(options));
  const std::uint16_t port = d.server->listen(0);
  d.server->start();
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    d.clients.push_back(std::make_unique<qsmt::server::Client>());
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        Checker checker;
        qsmt::server::Client& client = *d.clients[c];
        client.connect(port);
        for (const Request& req : client_warmup(c)) {
          const Answer answer = parse_reply(client.request(req.frame), kVars[c]);
          std::string why;
          if (judge(req.effective, kVars[c], answer, checker, why) ==
              Judgement::kWrong) {
            errors[c] = why;
          }
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  seconds = seconds_since(start);
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("warm-up: " + e);
  }
  return d;
}

std::vector<double> latencies_of(const std::vector<ClientLog>& logs) {
  std::vector<double> ms;
  for (const ClientLog& log : logs) {
    ms.insert(ms.end(), log.ms.begin(), log.ms.end());
  }
  return ms;
}

// Timed windows of the socket phase: the run's first `seconds` cut into
// kWindows equal slices, with the process's and the client threads' CPU
// clocks read at every boundary.
constexpr int kWindows = 10;

struct WindowClocks {
  Clock::time_point start;
  double width = 0.0;
  std::vector<double> process_cpu;  ///< kWindows + 1 boundary readings.
  std::vector<double> client_cpu;  ///< Client and probe threads, summed.
};

double thread_clock_seconds(std::thread& thread) {
  clockid_t id{};
  timespec ts{};
  if (pthread_getcpuclockid(thread.native_handle(), &id) != 0 ||
      clock_gettime(id, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Seconds between two probes of the speed reference (README, "Speed
// reference"): about 1 % of the daemon's one CPU.
constexpr double kProbeInterval = 0.05;

// Phase A: the daemon over sockets; `clocks` gets the window boundaries'
// CPU readings (the program's CPU time is the process's less its client
// threads'). With a `reference`, a probe thread runs the speed reference
// beside the daemon on its CPU; its CPU time is taken out with the
// clients'.
void run_sockets(Daemon& d, std::uint64_t seed, double seconds,
                 std::vector<ClientLog>& logs, WindowClocks& clocks,
                 RssAtWork& rss, SpeedReference* reference = nullptr) {
  logs.assign(kClients, {});
  const Clock::time_point start = Clock::now();
  clocks.start = start;
  std::atomic<bool> sampled{false};
  std::vector<std::thread> threads;
  if (reference != nullptr) {
    threads.emplace_back([&] {
      while (!sampled.load()) {
        reference->probe();
        std::this_thread::sleep_for(std::chrono::duration<double>(kProbeInterval));
      }
    });
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      closed_loop(seed, c, seconds, start,
                  [&](const std::string& frame) {
                    return d.clients[c]->request(frame);
                  },
                  logs[c], &rss);
      // Stay alive until the last boundary's CPU clock has been read.
      while (!sampled.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  clocks.width = seconds / kWindows;
  for (int k = 0; k <= kWindows; ++k) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(k * clocks.width)));
    double clients = 0.0;
    for (std::thread& t : threads) clients += thread_clock_seconds(t);
    clocks.process_cpu.push_back(process_cpu_seconds());
    clocks.client_cpu.push_back(clients);
  }
  sampled = true;
  for (std::thread& t : threads) t.join();
}

// Per-window figures, each at the speed factor of the probes in its
// window, then their medians: a burst of load from outside the program
// moves one window, not the reported value.
EndToEnd windowed(const std::vector<ClientLog>& logs, const WindowClocks& clocks,
                  const SpeedReference& reference) {
  std::vector<std::vector<double>> ms(kWindows);
  for (const ClientLog& log : logs) {
    for (std::size_t i = 0; i < log.ms.size(); ++i) {
      const int k = static_cast<int>(log.done_s[i] / clocks.width);
      if (k < kWindows) ms[static_cast<std::size_t>(k)].push_back(log.ms[i]);
    }
  }
  std::vector<double> p50, tail, per_s, cpu, factors, raw_p50, raw_per_s;
  for (int k = 0; k < kWindows; ++k) {
    const auto& w = ms[static_cast<std::size_t>(k)];
    if (w.size() * (1.0 - kTailQuantile) < 10.0) {
      std::cerr << "warning: window " << k << " has " << w.size()
                << " check-sats, fewer than ten beyond p" << 100.0 * kTailQuantile
                << '\n';
    }
    const double n = std::max<double>(1.0, static_cast<double>(w.size()));
    const auto at = [&](int boundary) {
      return clocks.start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(boundary * clocks.width));
    };
    const double factor = reference.factor_between(at(k), at(k + 1));
    factors.push_back(factor);
    raw_p50.push_back(quantile(w, 0.5));
    p50.push_back(raw_p50.back() / factor);
    tail.push_back(quantile(w, kTailQuantile) / factor);
    raw_per_s.push_back(static_cast<double>(w.size()) / clocks.width);
    per_s.push_back(raw_per_s.back() * factor);
    const auto kk = static_cast<std::size_t>(k);
    cpu.push_back(1e3 *
                  ((clocks.process_cpu[kk + 1] - clocks.process_cpu[kk]) -
                   (clocks.client_cpu[kk + 1] - clocks.client_cpu[kk])) /
                  n / factor);
  }
  for (int k = 0; k < kWindows; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    std::fprintf(stderr,
                 "window %d: speed factor %.4f; %.0f check-sats/s, p50 %.3f ms, "
                 "tail %.2f ms, cpu %.3f ms (unadjusted %.0f/s, p50 %.3f ms)\n",
                 k, factors[kk], per_s[kk], p50[kk], tail[kk], cpu[kk],
                 raw_per_s[kk], raw_p50[kk]);
  }
  EndToEnd e2e;
  e2e.p50_ms = median(p50);
  e2e.tail_ms = median(tail);
  e2e.per_s = median(per_s);
  e2e.cpu_ms = median(cpu);
  return e2e;
}

// Phase B: the same frames through in-process sessions on a fresh service
// with the daemon's options; latencies align with phase A's by request.
void run_sessions(std::uint64_t seed, double seconds, std::vector<ClientLog>& logs,
                  qsmt::server::Session::Stats& session_stats) {
  const qsmt::server::ServerOptions options = daemon_options();
  qsmt::service::SolveService service(options.service);
  qsmt::server::AdmissionGate gate(kWorkers, options.max_waiting);
  logs.assign(kClients, {});
  std::vector<std::unique_ptr<qsmt::server::Session>> sessions;
  for (std::size_t c = 0; c < kClients; ++c) {
    qsmt::server::SessionOptions so;
    so.seed = options.seed + c;
    so.tenant = c;
    sessions.push_back(std::make_unique<qsmt::server::Session>(service, &gate, so));
  }
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      closed_loop(seed, c, seconds, start,
                  [&](const std::string& frame) {
                    return sessions[c]->consume(frame);
                  },
                  logs[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& s : sessions) {
    const auto st = s->stats();
    session_stats.check_sats += st.check_sats;
    session_stats.answer_hits += st.answer_hits;
    session_stats.overload_rejects += st.overload_rejects;
    session_stats.solve_seconds_total += st.solve_seconds_total;
  }
}

// Phase C: the effective queries straight to a SolveService (as the
// session submits them), reading each JobResult.
struct JobTotals {
  std::uint64_t jobs = 0;
  std::uint64_t decided = 0;
  std::uint64_t attempts = 0;
  double queue_seconds = 0.0;
  double key_seconds = 0.0;
  std::uint64_t keys = 0;
};

void run_jobs(std::uint64_t seed, double seconds, JobTotals& totals, Tally& tally) {
  const qsmt::server::ServerOptions options = daemon_options();
  qsmt::service::SolveService service(options.service);
  std::mutex mutex;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      JobTotals local;
      Checker checker;
      std::optional<std::string> last_model;
      std::uint64_t ordinal = 0;
      for (std::uint32_t round = 0; tally.correct; ++round) {
        for (const Request& req : client_round(seed, c, round)) {
          const std::string script =
              "(declare-const " + std::string(kVars[c]) + " String)\n" +
              render_assertions(req.effective, kVars[c]) + "(check-sat)\n";
          namespace sm = qsmt::smtlib;
          std::vector<sm::TermPtr> assertions;
          std::map<std::string, sm::Sort> declared;
          for (const auto& command : sm::parse_script(script)) {
            if (const auto* d = std::get_if<sm::DeclareConst>(&command)) {
              declared.emplace(d->name, d->sort);
            } else if (const auto* a = std::get_if<sm::AssertCmd>(&command)) {
              assertions.push_back(a->term);
            }
          }
          const sm::PresolveResult pre = sm::presolve_check_sat(assertions, declared);
          Answer answer;
          if (pre.decided) {
            answer.verdict = pre.record.status == sm::CheckSatStatus::kSat
                                 ? Verdict::kSat
                                 : pre.record.status == sm::CheckSatStatus::kUnsat
                                       ? Verdict::kUnsat
                                       : Verdict::kUnknown;
          } else {
            qsmt::service::JobOptions job;
            job.seed = options.seed + c * 1000003 + ++ordinal;
            job.warm_start = last_model;
            const auto& cs = pre.query.constraints;
            const bool single = cs.size() == 1 && qsmt::strqubo::produces_string(cs.front());
            const Clock::time_point key_start = Clock::now();
            if (single) {
              (void)qsmt::canon::constraint_answer_key(cs.front(), options.service.build);
            } else {
              (void)qsmt::canon::script_answer_key(
                  qsmt::canon::canonicalize_script(script), options.service.build);
            }
            local.key_seconds += seconds_since(key_start);
            ++local.keys;
            const qsmt::service::JobResult result =
                single ? service.submit(cs.front(), job).get()
                       : service.submit_script(script, job).get();
            ++local.jobs;
            local.attempts += result.attempts;
            local.queue_seconds += result.queue_seconds;
            if (result.status != sm::CheckSatStatus::kUnknown) ++local.decided;
            answer.verdict = result.status == sm::CheckSatStatus::kSat
                                 ? Verdict::kSat
                                 : result.status == sm::CheckSatStatus::kUnsat
                                       ? Verdict::kUnsat
                                       : Verdict::kUnknown;
            answer.model = result.text ? *result.text : result.model_value;
            if (answer.verdict == Verdict::kSat) last_model = answer.model;
          }
          std::string why;
          if (judge(req.effective, kVars[c], answer, checker, why) == Judgement::kWrong) {
            std::lock_guard<std::mutex> lock(mutex);
            tally.record(Judgement::kWrong, "in-process job: " + why);
          }
        }
        if (seconds_since(start) >= seconds) break;
      }
      std::lock_guard<std::mutex> lock(mutex);
      totals.jobs += local.jobs;
      totals.decided += local.decided;
      totals.attempts += local.attempts;
      totals.queue_seconds += local.queue_seconds;
      totals.key_seconds += local.key_seconds;
      totals.keys += local.keys;
    });
  }
  for (std::thread& t : threads) t.join();
}

// Pins the process to one CPU (the last one it may use) before any of its
// threads exists, so every thread inherits it. On this project's shared
// 4-vCPU test host, the daemon spread over several vCPUs drew ~20 % CPU
// steal and 20-26 % run-to-run spreads; on one vCPU steal stayed near 2 %.
// Returns the CPU, or -1 when the affinity could not be read or set.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

}  // namespace

int run_daemon(const RunConfig& config) {
  HostFacts facts;
  facts.pinned_cpu = pin_to_one_cpu();
  facts.omp_threads = config.omp_threads;
  facts.service_workers = kWorkers;
  facts.client_connections = kClients;
  print_host_facts(config.workload, facts);

  // Five boots; the median is setup_s and the last daemon is measured.
  SpeedReference reference;
  Daemon daemon;
  const double setup_s = median_setup_seconds(5, reference, [&daemon] {
    double seconds = 0.0;
    daemon = boot_daemon(seconds);  // The previous one is torn down after.
    return seconds;
  });

  Tally tally;
  Metrics metrics;
  if (!config.trace) {
    std::vector<ClientLog> logs;
    WindowClocks clocks;
    RssAtWork rss;
    SpeedReference during;
    run_sockets(daemon, config.seed, config.seconds, logs, clocks, rss, &during);
    tally = merged_tally(logs);
    const auto st = daemon.server->service().stats();
    const auto ac = daemon.answers->stats();
    std::fprintf(stderr,
                 "service: jobs %llu, answer hits %llu misses %llu, warm %llu/%llu, "
                 "fused %llu, cancelled %llu, retries %llu, model-cache hits %llu; "
                 "answer cache %llu entries %llu bytes\n",
                 (unsigned long long)st.jobs_submitted, (unsigned long long)st.answer_hits,
                 (unsigned long long)st.answer_misses, (unsigned long long)st.warm_hits,
                 (unsigned long long)st.warm_starts, (unsigned long long)st.jobs_fused,
                 (unsigned long long)st.members_cancelled, (unsigned long long)st.verify_retries,
                 (unsigned long long)st.model_cache_hits, (unsigned long long)ac.entries,
                 (unsigned long long)ac.bytes);
    EndToEnd e2e = windowed(logs, clocks, during);
    e2e.setup_s = setup_s;
    e2e.peak_rss_mb = rss.mib;
    add_end_to_end(metrics, e2e);
    print_result(tally.correct, tally.attempted, tally.failed, metrics);
    return tally.correct ? 0 : 1;
  }

  // Traced run: phase A 40% of the time, phases B and C 30% each.
  metrics = zero_per_layer();
  std::vector<ClientLog> sockets;
  std::atomic<bool> polling{true};
  std::uint64_t waiting_polls = 0;
  std::thread poller([&] {
    while (polling.load()) {
      if (daemon.server->gate().stats().waiting > 0) ++waiting_polls;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  WindowClocks clocks;
  RssAtWork rss;
  run_sockets(daemon, config.seed, 0.4 * config.seconds, sockets, clocks, rss);
  polling = false;
  poller.join();
  tally = merged_tally(sockets);
  const auto service = daemon.server->service().stats();
  const auto answers = daemon.answers->stats();

  std::vector<ClientLog> sessions;
  qsmt::server::Session::Stats session_stats;
  run_sessions(config.seed, 0.3 * config.seconds, sessions, session_stats);
  if (!merged_tally(sessions).correct) tally.correct = false;

  JobTotals jobs;
  run_jobs(config.seed, 0.3 * config.seconds, jobs, tally);

  // Round trip minus in-process session time, paired by request.
  std::vector<double> overhead;
  for (std::size_t c = 0; c < kClients; ++c) {
    const std::size_t n = std::min(sockets[c].ms.size(), sessions[c].ms.size());
    for (std::size_t i = 0; i < n; ++i) {
      overhead.push_back(sockets[c].ms[i] - sessions[c].ms[i]);
    }
  }
  const double n_jobs = std::max<double>(1.0, static_cast<double>(jobs.jobs));
  metrics["service.queue_wait_ms"].value = jobs.queue_seconds * 1e3 / n_jobs;
  metrics["service.attempts_per_job"].value = static_cast<double>(jobs.attempts) / n_jobs;
  metrics["service.decided_per_attempt"].value =
      jobs.attempts ? static_cast<double>(jobs.decided) / static_cast<double>(jobs.attempts)
                    : 0.0;
  metrics["service.members_cancelled"].value = static_cast<double>(service.members_cancelled);
  metrics["service.verify_retries"].value = static_cast<double>(service.verify_retries);
  metrics["service.model_cache_hits"].value = static_cast<double>(service.model_cache_hits);
  metrics["service.jobs_fused"].value = static_cast<double>(service.jobs_fused);
  metrics["smtlib.warm_start_hits"].value = static_cast<double>(service.warm_hits);
  metrics["canon.answer_hits"].value = static_cast<double>(answers.hits);
  metrics["canon.answer_misses"].value = static_cast<double>(answers.misses);
  metrics["canon.key_ms"].value =
      jobs.keys ? jobs.key_seconds * 1e3 / static_cast<double>(jobs.keys) : 0.0;
  metrics["server.roundtrip_overhead_ms"].value = median(overhead);
  metrics["server.admission_waits"].value = static_cast<double>(waiting_polls);
  std::uint64_t checksats = 0;
  for (const ClientLog& log : sockets) checksats += log.ms.size();
  metrics["trace.checksats"].value = static_cast<double>(checksats);
  std::fprintf(stderr,
               "phase A: %llu check-sats, p50 %.3f ms; phase B: session p50 %.3f ms, "
               "%llu answer hits; phase C: %llu jobs\n",
               static_cast<unsigned long long>(checksats),
               median(latencies_of(sockets)), median(latencies_of(sessions)),
               static_cast<unsigned long long>(session_stats.answer_hits),
               static_cast<unsigned long long>(jobs.jobs));
  print_result(tally.correct, tally.attempted, tally.failed, metrics);
  return tally.correct ? 0 : 1;
}

}  // namespace perfbench
