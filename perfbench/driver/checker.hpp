// Independent answer checker: its own s-expression reader and an evaluator
// of the SMT-LIB string fragment written with std::string and std::regex.
// It shares no code with the solver (no strqubo::verify_*, no smtlib
// parser), so a verdict is judged by a second implementation of the
// semantics, not by the one that produced it.
#pragma once

#include <regex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct SExpr {
  enum class Kind { kList, kSymbol, kString, kInt };
  Kind kind = Kind::kList;
  std::string text;  ///< Symbol name, decoded string literal, or digits.
  std::vector<SExpr> items;

  bool is_list() const { return kind == Kind::kList; }
  bool head_is(std::string_view name) const {
    return is_list() && !items.empty() &&
           items[0].kind == Kind::kSymbol && items[0].text == name;
  }
};

/// Reads every top-level s-expression of `text`. Throws std::runtime_error
/// on unbalanced input.
std::vector<SExpr> read_sexprs(std::string_view text);

/// Prints an s-expression back as SMT-LIB text (string literals re-quoted).
std::string print_sexpr(const SExpr& expr);

/// SMT-LIB string literal for `value` (quotes doubled).
std::string quote(const std::string& value);

class Checker {
 public:
  /// True when binding `var` to `value` makes every assertion of
  /// `instance` true under SMT-LIB semantics.
  bool satisfies(const Instance& instance, const std::string& var,
                 const std::string& value);

  /// Same over pre-read `(assert t)` commands (the brute-force self-test
  /// reads a script once and evaluates it on every candidate string).
  bool holds(const std::vector<SExpr>& asserts, const std::string& var,
             const std::string& value);

 private:
  struct Value;
  Value eval(const SExpr& term, const std::string& var,
             const std::string& value);
  const std::regex& compiled(const std::string& pattern);

  std::unordered_map<std::string, std::regex> regex_cache_;
};

enum class Verdict { kSat, kUnsat, kUnknown, kError };

/// One check-sat answer as the client saw it.
struct Answer {
  Verdict verdict = Verdict::kError;
  std::string model;  ///< Value of the string variable (sat only).
  std::string text;   ///< Raw reply, for diagnostics.
};

/// Parses a daemon reply to `(check-sat)` followed by `(get-model)`.
Answer parse_reply(const std::string& reply, const std::string& var);

enum class Judgement {
  kCorrect,  ///< Verified sat model, or unsat on a planted-unsat instance.
  kFailed,   ///< unknown / (error ...) / timeout: counted, not fatal.
  kWrong,    ///< A wrong verdict or a model that violates the script.
};

/// Judges `answer` against the planted truth and the checker. `why` gets a
/// one-line reason for anything but kCorrect.
Judgement judge(const Instance& instance, const std::string& var,
                const Answer& answer, Checker& checker, std::string& why);

}  // namespace perfbench
