#include "checker.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <variant>

namespace perfbench {

namespace {

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  bool done() {
    skip();
    return pos_ >= text_.size();
  }

  SExpr next() {
    skip();
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
    const char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      SExpr list;
      for (;;) {
        skip();
        if (pos_ >= text_.size()) throw std::runtime_error("unclosed '('");
        if (text_[pos_] == ')') {
          ++pos_;
          return list;
        }
        list.items.push_back(next());
      }
    }
    if (c == ')') throw std::runtime_error("stray ')'");
    SExpr atom;
    if (c == '"') {
      atom.kind = SExpr::Kind::kString;
      ++pos_;
      for (;;) {
        if (pos_ >= text_.size()) throw std::runtime_error("unclosed string");
        if (text_[pos_] == '"') {
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '"') {
            atom.text += '"';
            pos_ += 2;
            continue;
          }
          ++pos_;
          return atom;
        }
        atom.text += text_[pos_++];
      }
    }
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !std::isspace(static_cast<unsigned char>(
                                      text_[pos_])) &&
           text_[pos_] != '(' && text_[pos_] != ')' && text_[pos_] != '"') {
      ++pos_;
    }
    atom.text = std::string(text_.substr(start, pos_ - start));
    atom.kind = std::all_of(atom.text.begin(), atom.text.end(),
                            [](unsigned char d) { return std::isdigit(d); })
                    ? SExpr::Kind::kInt
                    : SExpr::Kind::kSymbol;
    return atom;
  }

 private:
  void skip() {
    while (pos_ < text_.size()) {
      if (std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      } else if (text_[pos_] == ';') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::string escape_regex_char(char c) {
  static const std::string special = R"(\^$.|?*+()[]{}-/)";
  std::string out;
  if (special.find(c) != std::string::npos) out += '\\';
  out += c;
  return out;
}

[[noreturn]] void unsupported(const SExpr& term) {
  throw std::runtime_error("checker: unsupported term " + print_sexpr(term));
}

}  // namespace

std::vector<SExpr> read_sexprs(std::string_view text) {
  Reader reader(text);
  std::vector<SExpr> out;
  while (!reader.done()) out.push_back(reader.next());
  return out;
}

std::string quote(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    out += c;
    if (c == '"') out += '"';
  }
  out += '"';
  return out;
}

std::string print_sexpr(const SExpr& expr) {
  switch (expr.kind) {
    case SExpr::Kind::kString:
      return quote(expr.text);
    case SExpr::Kind::kSymbol:
    case SExpr::Kind::kInt:
      return expr.text;
    case SExpr::Kind::kList:
      break;
  }
  std::string out = "(";
  for (std::size_t i = 0; i < expr.items.size(); ++i) {
    if (i > 0) out += ' ';
    out += print_sexpr(expr.items[i]);
  }
  return out + ")";
}

// A value of the fragment: Bool, Int, String, or a regular expression kept
// as ECMAScript pattern text.
struct Checker::Value {
  struct Re {
    std::string pattern;
    friend bool operator==(const Re&, const Re&) = default;
  };
  std::variant<bool, std::int64_t, std::string, Re> v;

  bool as_bool() const { return std::get<bool>(v); }
  std::int64_t as_int() const { return std::get<std::int64_t>(v); }
  const std::string& as_str() const { return std::get<std::string>(v); }
  const std::string& as_re() const { return std::get<Re>(v).pattern; }
};

const std::regex& Checker::compiled(const std::string& pattern) {
  auto it = regex_cache_.find(pattern);
  if (it == regex_cache_.end()) {
    it = regex_cache_
             .emplace(pattern, std::regex(pattern, std::regex::ECMAScript |
                                                       std::regex::optimize))
             .first;
  }
  return it->second;
}

Checker::Value Checker::eval(const SExpr& term, const std::string& var,
                             const std::string& value) {
  switch (term.kind) {
    case SExpr::Kind::kString:
      return {term.text};
    case SExpr::Kind::kInt:
      return {static_cast<std::int64_t>(std::stoll(term.text))};
    case SExpr::Kind::kSymbol:
      if (term.text == var) return {value};
      if (term.text == "true") return {true};
      if (term.text == "false") return {false};
      unsupported(term);
    case SExpr::Kind::kList:
      break;
  }
  if (term.items.empty() || term.items[0].kind != SExpr::Kind::kSymbol) {
    unsupported(term);
  }
  const std::string& op = term.items[0].text;
  std::vector<Value> args;
  for (std::size_t i = 1; i < term.items.size(); ++i) {
    args.push_back(eval(term.items[i], var, value));
  }
  const auto need = [&](std::size_t n) {
    if (args.size() != n) unsupported(term);
  };

  if (op == "and" || op == "or") {
    bool acc = op == "and";
    for (const Value& a : args) {
      acc = op == "and" ? (acc && a.as_bool()) : (acc || a.as_bool());
    }
    return {acc};
  }
  if (op == "not") {
    need(1);
    return {!args[0].as_bool()};
  }
  if (op == "=") {
    need(2);
    return {args[0].v == args[1].v};
  }
  if (op == "str.len") {
    need(1);
    return {static_cast<std::int64_t>(args[0].as_str().size())};
  }
  if (op == "str.++") {
    std::string out;
    for (const Value& a : args) out += a.as_str();
    return {out};
  }
  if (op == "str.replace" || op == "str.replace_all") {
    need(3);
    std::string s = args[0].as_str();
    const std::string& from = args[1].as_str();
    const std::string& to = args[2].as_str();
    if (from.empty()) unsupported(term);
    std::size_t at = s.find(from);
    while (at != std::string::npos) {
      s.replace(at, from.size(), to);
      if (op == "str.replace") break;
      at = s.find(from, at + to.size());
    }
    return {s};
  }
  if (op == "str.rev") {
    need(1);
    const std::string& s = args[0].as_str();
    return {std::string(s.rbegin(), s.rend())};
  }
  if (op == "str.at") {
    need(2);
    const std::string& s = args[0].as_str();
    const std::int64_t i = args[1].as_int();
    if (i < 0 || static_cast<std::size_t>(i) >= s.size()) {
      return {std::string()};
    }
    return {std::string(1, s[static_cast<std::size_t>(i)])};
  }
  if (op == "str.indexof") {
    need(3);
    const std::string& s = args[0].as_str();
    const std::int64_t from = args[2].as_int();
    if (from < 0 || static_cast<std::size_t>(from) > s.size()) {
      return {std::int64_t{-1}};
    }
    const std::size_t at =
        s.find(args[1].as_str(), static_cast<std::size_t>(from));
    return {at == std::string::npos ? std::int64_t{-1}
                                    : static_cast<std::int64_t>(at)};
  }
  if (op == "str.contains") {
    need(2);
    return {args[0].as_str().find(args[1].as_str()) != std::string::npos};
  }
  if (op == "str.prefixof") {
    need(2);
    const std::string& p = args[0].as_str();
    const std::string& s = args[1].as_str();
    return {s.size() >= p.size() && s.compare(0, p.size(), p) == 0};
  }
  if (op == "str.suffixof") {
    need(2);
    const std::string& p = args[0].as_str();
    const std::string& s = args[1].as_str();
    return {s.size() >= p.size() &&
            s.compare(s.size() - p.size(), p.size(), p) == 0};
  }
  if (op == "qsmt.is_palindrome") {
    need(1);
    const std::string& s = args[0].as_str();
    return {std::equal(s.begin(), s.end(), s.rbegin())};
  }
  if (op == "str.to_re") {
    need(1);
    std::string pattern;
    for (char c : args[0].as_str()) pattern += escape_regex_char(c);
    return {Value::Re{"(?:" + pattern + ")"}};
  }
  if (op == "re.++" || op == "re.union") {
    std::string pattern = "(?:";
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i > 0 && op == "re.union") pattern += '|';
      pattern += args[i].as_re();
    }
    return {Value::Re{pattern + ")"}};
  }
  if (op == "re.+" || op == "re.*" || op == "re.opt") {
    need(1);
    const char suffix = op == "re.+" ? '+' : op == "re.*" ? '*' : '?';
    return {Value::Re{"(?:" + args[0].as_re() + suffix + ")"}};
  }
  if (op == "str.in_re") {
    need(2);
    return {std::regex_match(args[0].as_str(), compiled(args[1].as_re()))};
  }
  unsupported(term);
}

bool Checker::satisfies(const Instance& instance, const std::string& var,
                        const std::string& value) {
  return holds(read_sexprs(render_assertions(instance, var)), var, value);
}

bool Checker::holds(const std::vector<SExpr>& asserts, const std::string& var,
                    const std::string& value) {
  for (const SExpr& command : asserts) {
    if (!command.head_is("assert") || command.items.size() != 2) {
      throw std::runtime_error("checker: expected (assert t), got " +
                               print_sexpr(command));
    }
    if (!eval(command.items[1], var, value).as_bool()) return false;
  }
  return true;
}

Answer parse_reply(const std::string& reply, const std::string& var) {
  Answer answer;
  answer.text = reply;
  std::vector<SExpr> items;
  try {
    items = read_sexprs(reply);
  } catch (const std::exception&) {
    return answer;  // kError
  }
  if (items.empty() || items[0].kind != SExpr::Kind::kSymbol) return answer;
  const std::string& head = items[0].text;
  if (head == "unsat") answer.verdict = Verdict::kUnsat;
  if (head == "unknown") answer.verdict = Verdict::kUnknown;
  if (head != "sat") return answer;
  // sat must come with the (get-model) reply binding `var`.
  for (std::size_t i = 1; i < items.size(); ++i) {
    if (!items[i].head_is("model")) continue;
    for (std::size_t j = 1; j < items[i].items.size(); ++j) {
      const SExpr& def = items[i].items[j];
      if (def.head_is("define-fun") && def.items.size() == 5 &&
          def.items[1].text == var &&
          def.items[4].kind == SExpr::Kind::kString) {
        answer.verdict = Verdict::kSat;
        answer.model = def.items[4].text;
        return answer;
      }
    }
  }
  return answer;  // sat without a usable model: kError
}

Judgement judge(const Instance& instance, const std::string& var,
                const Answer& answer, Checker& checker, std::string& why) {
  switch (answer.verdict) {
    case Verdict::kUnknown:
    case Verdict::kError:
      why = instance.family + ": " +
            (answer.verdict == Verdict::kUnknown ? "unknown" : "error") +
            " on " + render_assertions(instance, var);
      return Judgement::kFailed;
    case Verdict::kUnsat:
      if (instance.sat) {
        why = instance.family + ": unsat, but witness " +
              quote(instance.witness) + " satisfies the script";
        return Judgement::kWrong;
      }
      return Judgement::kCorrect;
    case Verdict::kSat:
      break;
  }
  if (!checker.satisfies(instance, var, answer.model)) {
    why = instance.family + ": sat model " + quote(answer.model) +
          " violates " + render_assertions(instance, var);
    return Judgement::kWrong;
  }
  if (!instance.sat) {
    why = instance.family + ": planted-unsat instance has a model " +
          quote(answer.model);
    return Judgement::kWrong;
  }
  return Judgement::kCorrect;
}

}  // namespace perfbench
