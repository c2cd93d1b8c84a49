// Self-test of the planted truth and the independent checker:
//  * every planted witness satisfies its script (all three mixes);
//  * every planted-unsat instance of length <= 3 has no model among all
//    128^L strings, by brute force with the checker;
//  * the checker rejects corrupted models and parses daemon replies.
#include <iostream>

#include "checker.hpp"
#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

int selftest() {
  Checker checker;
  int errors = 0;
  const auto fail = [&](const std::string& what) {
    std::cerr << "selftest FAILED: " << what << '\n';
    ++errors;
  };

  std::size_t witnesses = 0;
  std::size_t corrupted = 0;
  for (Mix mix : {Mix::kShort, Mix::kLong, Mix::kDaemon}) {
    for (std::uint64_t round = 0; round < 20; ++round) {
      std::vector<Instance> instances = make_round(mix, 1 + round, round);
      for (const Instance& w : warmup_set(mix)) instances.push_back(w);
      for (std::size_t v = 0; v < 3; ++v) {
        instances.push_back(known_fault_instance(v));
      }
      for (const Instance& in : instances) {
        if (!in.sat) continue;
        ++witnesses;
        if (!checker.satisfies(in, "x", in.witness)) {
          fail("witness " + quote(in.witness) + " violates " +
               render_assertions(in, "x"));
        }
        // A corrupted model (one character too many) must be rejected,
        // both by the evaluator and by the verdict judge.
        Answer bad{Verdict::kSat, in.witness + "a", ""};
        std::string why;
        ++corrupted;
        if (judge(in, "x", bad, checker, why) != Judgement::kWrong) {
          fail("corrupted model " + quote(bad.model) + " accepted for " +
               render_assertions(in, "x"));
        }
      }
    }
  }
  std::cout << "planted witnesses verified: " << witnesses
            << ", corrupted models rejected: " << corrupted << '\n';

  std::size_t searched = 0;
  for (const Instance& in : small_unsat_instances(12345, 1)) {
    const std::vector<SExpr> asserts = read_sexprs(render_assertions(in, "x"));
    std::string s(in.length, '\0');
    std::uint64_t total = 1;
    for (std::size_t i = 0; i < in.length; ++i) total *= 128;
    std::uint64_t models = 0;
    for (std::uint64_t code = 0; code < total; ++code) {
      std::uint64_t c = code;
      for (std::size_t i = 0; i < in.length; ++i, c /= 128) {
        s[i] = static_cast<char>(c % 128);
      }
      if (checker.holds(asserts, "x", s)) ++models;
    }
    // Lengths other than in.length cannot satisfy the len fact, which the
    // same evaluator checks; the search covers every string it admits.
    searched += total;
    if (models != 0) {
      fail(in.family + " has " + std::to_string(models) + " models: " +
           render_assertions(in, "x"));
    }
  }
  std::cout << "planted-unsat strings searched: " << searched << '\n';

  const Answer parsed =
      parse_reply("sat\n(model (define-fun x () String \"a\"\"b\"))\n", "x");
  if (parsed.verdict != Verdict::kSat || parsed.model != "a\"b") {
    fail("reply parser");
  }
  if (parse_reply("(error \"overloaded\")\n", "x").verdict != Verdict::kError) {
    fail("error reply parser");
  }
  std::cout << (errors == 0 ? "selftest ok" : "selftest FAILED") << '\n';
  return errors == 0 ? 0 : 1;
}

}  // namespace perfbench
