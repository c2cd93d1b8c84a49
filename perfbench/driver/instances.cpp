// Seeded instance generation with planted truth.
//
// Every satisfiable instance is built around a witness string drawn first;
// every unsatisfiable one is contradictory by construction (a length
// conflict, a pinned string that violates a sibling, or a regex class
// excluded by not-contains). The make-up of a round (families, lengths,
// shares) never depends on the seed; README.md states it.
#include <algorithm>
#include <array>
#include <stdexcept>

#include "checker.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

char letter(Rng& rng) {
  return static_cast<char>('a' + std::uniform_int_distribution<int>(0, 25)(rng));
}

std::string letters(Rng& rng, std::size_t n) {
  std::string s;
  for (std::size_t i = 0; i < n; ++i) s += letter(rng);
  return s;
}

std::size_t pick(Rng& rng, std::size_t lo, std::size_t hi) {
  return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
}

std::string lit(const std::string& s) { return quote(s); }

std::string len_fact(std::size_t n) {
  return "(= (str.len $V) " + std::to_string(n) + ")";
}

// A regex element: the set of characters allowed at one position.
// Multi-member classes are sub-cubes of the 7-bit code (every member
// differs from the others only on 1-2 free low bits, and every combination
// of the free bits is a member), which the default averaged class encoding
// represents exactly.
using CharClass = std::string;

CharClass subcube_class(Rng& rng, char c) {
  static constexpr std::array<int, 6> kMasks = {1, 2, 4, 3, 5, 6};
  for (int attempt = 0; attempt < 8; ++attempt) {
    const int mask = kMasks[pick(rng, 0, kMasks.size() - 1)];
    const int base = c & ~mask;
    CharClass members;
    bool ok = true;
    for (int sub = 0; sub < 8; ++sub) {
      if ((sub & ~mask) != 0) continue;
      const int member = base | sub;
      if (member < 'a' || member > 'z') ok = false;
      members += static_cast<char>(member);
    }
    if (ok) return members;
  }
  return CharClass(1, c);
}

std::string render_class(const CharClass& members) {
  if (members.size() == 1) return "(str.to_re " + lit(members) + ")";
  std::string out = "(re.union";
  for (char m : members) out += " (str.to_re " + lit(std::string(1, m)) + ")";
  return out + ")";
}

std::string render_regex(const std::vector<CharClass>& items, bool plus_last) {
  std::vector<std::string> parts;
  for (const CharClass& item : items) parts.push_back(render_class(item));
  if (plus_last) parts.back() = "(re.+ " + parts.back() + ")";
  if (parts.size() == 1) return parts[0];
  std::string out = "(re.++";
  for (const std::string& p : parts) out += " " + p;
  return out + ")";
}

char member_of(Rng& rng, const CharClass& members) {
  return members[pick(rng, 0, members.size() - 1)];
}

// Substrings of 2-3 characters (1 at length 2): long enough that a family
// has more distinct queries than a run asks, so the daemon's answer cache
// is hit by the stated repeats, not by chance re-draws.
std::size_t substring_length(Rng& rng, std::size_t n) {
  return pick(rng, std::min<std::size_t>(2, n - 1),
              std::min<std::size_t>(3, n - 1));
}

Instance start(const char* family, std::size_t n) {
  Instance in;
  in.family = family;
  in.length = n;
  return in;
}

// ---- satisfiable §4 families (witness first) -------------------------------

Instance equality(Rng& rng, std::size_t n) {
  Instance in = start("equality", n);
  in.witness = letters(rng, n);
  in.assertions = {"(= $V " + lit(in.witness) + ")"};
  return in;
}

Instance concat(Rng& rng, std::size_t n) {
  Instance in = start("concat", n);
  in.witness = letters(rng, n);
  const std::size_t cut = pick(rng, 1, n - 1);
  in.assertions = {"(= $V (str.++ " + lit(in.witness.substr(0, cut)) + " " +
                   lit(in.witness.substr(cut)) + "))"};
  return in;
}

Instance contains(Rng& rng, std::size_t n) {
  Instance in = start("contains", n);
  in.witness = letters(rng, n);
  const std::size_t m = substring_length(rng, n);
  const std::size_t at = pick(rng, 0, n - m);
  in.assertions = {len_fact(n), "(str.contains $V " +
                                    lit(in.witness.substr(at, m)) + ")"};
  return in;
}

// str.indexof / str.prefixof / str.suffixof, all compiled to the §4.5
// index-of builder. str.indexof asks for index 0 only: at a later index the
// solver can answer sat with a model whose first occurrence is earlier
// (CHANGES.md, FOUND), which the checker would rightly call wrong.
Instance index_of(Rng& rng, std::size_t n) {
  Instance in = start("index-of", n);
  const std::size_t m = substring_length(rng, n);
  const std::size_t variant = pick(rng, 0, 2);
  const std::size_t at = variant == 2 ? n - m : 0;
  in.witness = letters(rng, n);
  const std::string sub = in.witness.substr(at, m);
  if (variant == 0) {
    in.assertions = {len_fact(n), "(= (str.indexof $V " + lit(sub) + " 0) " +
                                      std::to_string(at) + ")"};
  } else {
    in.assertions = {len_fact(n), std::string("(") +
                                      (variant == 1 ? "str.prefixof "
                                                    : "str.suffixof ") +
                                      lit(sub) + " $V)"};
  }
  return in;
}

Instance replace(Rng& rng, std::size_t n, bool all) {
  Instance in = start(all ? "replace-all" : "replace", n);
  std::string input = letters(rng, n);
  const char from = input[pick(rng, 0, n - 1)];
  char to = letter(rng);
  while (to == from) to = letter(rng);
  in.witness = input;
  for (char& c : in.witness) {
    if (c == from) {
      c = to;
      if (!all) break;
    }
  }
  in.assertions = {"(= $V (" + std::string(all ? "str.replace_all "
                                               : "str.replace ") +
                   lit(input) + " " + lit(std::string(1, from)) + " " +
                   lit(std::string(1, to)) + "))"};
  return in;
}

Instance reverse(Rng& rng, std::size_t n) {
  Instance in = start("reverse", n);
  const std::string input = letters(rng, n);
  in.witness = std::string(input.rbegin(), input.rend());
  in.assertions = {"(= $V (str.rev " + lit(input) + "))"};
  return in;
}

Instance palindrome(Rng& rng, std::size_t n) {
  Instance in = start("palindrome", n);
  in.witness = letters(rng, n);
  for (std::size_t i = 0; i < n / 2; ++i) in.witness[n - 1 - i] = in.witness[i];
  in.assertions = {len_fact(n), "(qsmt.is_palindrome $V)"};
  return in;
}

// Items cover the witness; with '+' on the last item it covers the tail.
Instance regex(Rng& rng, std::size_t n, bool plus_last) {
  Instance in = start(plus_last ? "regex-plus" : "regex-match", n);
  const std::size_t items_n =
      plus_last ? (n <= 2 ? 1 : pick(rng, 2, n - 1)) : n;
  std::vector<CharClass> items;
  for (std::size_t i = 0; i < items_n; ++i) {
    const char c = letter(rng);
    items.push_back(pick(rng, 0, 1) == 0 ? subcube_class(rng, c)
                                         : CharClass(1, c));
  }
  for (std::size_t i = 0; i < n; ++i) {
    in.witness += member_of(rng, items[std::min(i, items_n - 1)]);
  }
  in.assertions = {len_fact(n),
                   "(str.in_re $V " + render_regex(items, plus_last) + ")"};
  return in;
}

Instance regex_match(Rng& rng, std::size_t n) {
  return regex(rng, n, n >= 3 && pick(rng, 0, 2) == 0);
}

Instance regex_fixed(Rng& rng, std::size_t n) { return regex(rng, n, false); }

// '+' patterns at length <= 3 (README, "oneshot-short"): certify_unsat's
// exhaustive search gets no regex prefix pruning and walks the alphabet up
// to the pattern's first member. The i-th (0-11) length-2 pattern of a
// round is one class or literal holding 'a' + 2i, repeated, so the twelve
// span the alphabet evenly in every round whatever the seed.
Instance shallow_regex_plus(Rng& rng, int i) {
  Instance in = start("regex-plus", 2);
  const char c = static_cast<char>('a' + 2 * i);
  const CharClass item = pick(rng, 0, 1) == 0 ? subcube_class(rng, c) : CharClass(1, c);
  in.witness = std::string(1, member_of(rng, item)) + member_of(rng, item);
  in.assertions = {len_fact(2),
                   "(str.in_re $V " + render_regex({item}, true) + ")"};
  return in;
}

// The length-3 '+' pattern of a round: its first character is fixed ('m',
// mid-alphabet), so every round walks the same ~128^3-deep search whatever
// the seed, and only the tail class varies.
Instance deep_regex_plus(Rng& rng) {
  Instance in = start("regex-plus", 3);
  const CharClass head(1, 'm');
  const CharClass tail = pick(rng, 0, 1) == 0 ? subcube_class(rng, letter(rng))
                                              : CharClass(1, letter(rng));
  in.witness = head + member_of(rng, tail) + member_of(rng, tail);
  in.assertions = {len_fact(3),
                   "(str.in_re $V " + render_regex({head, tail}, true) + ")"};
  return in;
}

// One str.at atom below length 4, two at distinct positions from 4 on (a
// single atom has too few distinct queries; two make a conjunction).
Instance char_at(Rng& rng, std::size_t n) {
  Instance in = start("char-at", n);
  in.witness = letters(rng, n);
  in.assertions = {len_fact(n)};
  const std::size_t first = pick(rng, 0, n - 1);
  std::vector<std::size_t> at = {first};
  if (n >= 4) at.push_back((first + pick(rng, 1, n - 1)) % n);
  for (std::size_t k : at) {
    in.assertions.push_back("(= (str.at $V " + std::to_string(k) + ") " +
                            lit(std::string(1, in.witness[k])) + ")");
  }
  return in;
}

Instance not_contains(Rng& rng, std::size_t n) {
  Instance in = start("not-contains", n);
  const std::string sub = letters(rng, pick(rng, 2, 3));
  do {
    in.witness = letters(rng, n);
  } while (in.witness.find(sub) != std::string::npos);
  in.assertions = {len_fact(n), "(not (str.contains $V " + lit(sub) + "))"};
  return in;
}

using Family = Instance (*)(Rng&, std::size_t);

Instance replace_first(Rng& rng, std::size_t n) { return replace(rng, n, false); }
Instance replace_every(Rng& rng, std::size_t n) { return replace(rng, n, true); }

// The eleven string-producing §4 families the SMT-LIB front end compiles
// (includes, §4.4, yields a position and has no SMT-LIB form here).
constexpr std::array<Family, 11> kFamilies = {
    equality,    concat,     contains,      index_of,
    replace_every, replace_first, reverse, palindrome,
    regex_match, char_at,    not_contains};

// ---- boolean scripts (routed to DPLL(T)) -----------------------------------

Instance or_equal(Rng& rng, std::size_t n) {
  Instance in = start("or-equal", n);
  in.witness = letters(rng, n);
  const std::string other = letters(rng, n);
  in.assertions = {pick(rng, 0, 1) == 0
                       ? "(or (= $V " + lit(in.witness) + ") (= $V " +
                             lit(other) + "))"
                       : "(or (= $V " + lit(other) + ") (= $V " +
                             lit(in.witness) + "))"};
  return in;
}

Instance or_atoms(Rng& rng, std::size_t n) {
  Instance in = start("or-atoms", n);
  in.witness = letters(rng, n);
  const std::size_t k = pick(rng, 0, n - 1);
  const std::size_t at = pick(rng, 0, n - 2);
  in.assertions = {len_fact(n),
                   "(or (str.contains $V " + lit(in.witness.substr(at, 2)) +
                       ") (= (str.at $V " + std::to_string(k) + ") " +
                       lit(std::string(1, in.witness[k])) + "))"};
  return in;
}

Instance not_prefix(Rng& rng, std::size_t n) {
  Instance in = start("not-prefix", n);
  in.witness = letters(rng, n);
  // The excluded prefix differs from the contained substring's first
  // character too: otherwise the annealer's natural placement at position 0
  // starts with it, and DPLL(T) gives up (CHANGES.md, FOUND).
  char p = letter(rng);
  while (p == in.witness[0] || p == in.witness[1]) p = letter(rng);
  in.assertions = {len_fact(n),
                   "(str.contains $V " + lit(in.witness.substr(1, 2)) + ")",
                   "(not (str.prefixof " + lit(std::string(1, p)) + " $V))"};
  return in;
}

constexpr std::array<Family, 3> kBooleanFamilies = {or_equal, or_atoms,
                                                    not_prefix};

// ---- unsatisfiable by construction -----------------------------------------

// A length fact the pinned target cannot meet.
Instance unsat_length(Rng& rng, std::size_t n) {
  Instance in = start("unsat-length", n);
  in.sat = false;
  const std::string target = letters(rng, n);
  in.assertions = {len_fact(n + 1 <= 3 ? n + 1 : n - 1),
                   "(str.contains $V " + lit(target.substr(0, 1)) + ")",
                   "(= $V " + lit(target) + ")"};
  return in;
}

// A pinned string that violates a sibling not-contains.
Instance unsat_pinned(Rng& rng, std::size_t n) {
  Instance in = start("unsat-pinned", n);
  in.sat = false;
  const std::string target = letters(rng, n);
  in.assertions = {len_fact(n), "(= $V " + lit(target) + ")",
                   "(not (str.contains $V " +
                       lit(std::string(1, target[pick(rng, 0, n - 1)])) +
                       "))"};
  return in;
}

// A regex whose class at one position is excluded member by member.
Instance unsat_regex(Rng& rng, std::size_t n) {
  Instance in = start("unsat-regex", n);
  in.sat = false;
  std::vector<CharClass> items;
  for (std::size_t i = 0; i < n; ++i) items.push_back(CharClass(1, letter(rng)));
  const std::size_t k = pick(rng, 0, n - 1);
  CharClass excluded;
  do {
    excluded = subcube_class(rng, letter(rng));
  } while (excluded.size() < 2);
  items[k] = excluded;
  in.assertions = {len_fact(n),
                   "(str.in_re $V " + render_regex(items, false) + ")"};
  for (char m : excluded) {
    in.assertions.push_back("(not (str.contains $V " +
                            lit(std::string(1, m)) + "))");
  }
  return in;
}

constexpr std::array<Family, 3> kUnsatFamilies = {unsat_length, unsat_pinned,
                                                  unsat_regex};

}  // namespace

std::string bind_var(std::string term, const std::string& var) {
  for (std::size_t at = term.find("$V"); at != std::string::npos;
       at = term.find("$V", at + var.size())) {
    term.replace(at, 2, var);
  }
  return term;
}

std::string render_assertions(const Instance& instance,
                              const std::string& var) {
  std::string out;
  for (const std::string& a : instance.assertions) {
    out += "(assert " + bind_var(a, var) + ")\n";
  }
  return out;
}

std::string render_script(const Instance& instance, const std::string& var) {
  return "(declare-const " + var + " String)\n" +
         render_assertions(instance, var) + "(check-sat)\n";
}

Rng make_rng(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(stream),
                    static_cast<std::uint32_t>(index),
                    static_cast<std::uint32_t>(index >> 32)};
  return Rng(seq);
}

Instance known_fault_instance(std::size_t variant) {
  // Eight positions of one two-member class whose members differ in six
  // bits: '!' 0100001 / '~' 1111110, '$' 0100100 / '{' 1111011, '#' 0100011
  // / '|' 1111100. The averaged encoding leaves those bits free, so only 2
  // of the 64 ground-band characters per position are members. No other
  // query's model is a string over such a class, so no session's warm start
  // (its last model) can hand the service a ready witness either. Variants
  // differ in structure, so the daemon's clients never share (or fuse) one.
  static const char* const kClasses[] = {"!~", "${", "#|"};
  const CharClass members = kClasses[variant % 3];
  Instance in = start("regex-fault", 8);
  for (int i = 0; i < 8; ++i) in.witness += members[static_cast<std::size_t>(i % 2)];
  std::vector<CharClass> items(8, members);
  in.assertions = {len_fact(8),
                   "(str.in_re $V " + render_regex(items, false) + ")"};
  return in;
}

std::vector<Instance> make_round(Mix mix, std::uint64_t seed,
                                 std::uint64_t round) {
  Rng rng = make_rng(seed, static_cast<std::uint64_t>(mix) + 1, round);
  std::vector<Instance> out;
  switch (mix) {
    case Mix::kShort:
      // Twice: every family (fixed-length regex) at lengths 2 and 3, and
      // every unsat template at both; then one '+' regex at length 3.
      for (int rep = 0; rep < 2; ++rep) {
        for (std::size_t n : {2, 3}) {
          for (Family f : kFamilies) {
            out.push_back((f == regex_match ? regex_fixed : f)(rng, n));
          }
          for (Family f : kUnsatFamilies) out.push_back(f(rng, n));
        }
      }
      for (int i = 0; i < 12; ++i) out.push_back(shallow_regex_plus(rng, i));
      out.push_back(deep_regex_plus(rng));
      break;
    case Mix::kLong:
      // Two of every family and three of every boolean shape at 5-12
      // characters, then the named fault instance.
      for (int rep = 0; rep < 2; ++rep) {
        for (Family f : kFamilies) out.push_back(f(rng, pick(rng, 5, 12)));
      }
      for (int rep = 0; rep < 3; ++rep) {
        for (Family f : kBooleanFamilies) out.push_back(f(rng, pick(rng, 5, 12)));
      }
      out.push_back(known_fault_instance(0));
      break;
    case Mix::kDaemon: {
      // One incremental episode: every family at one length of 4-8.
      const std::size_t n = pick(rng, 4, 8);
      for (Family f : kFamilies) out.push_back(f(rng, n));
      break;
    }
  }
  return out;
}

std::vector<Instance> warmup_set(Mix mix) {
  // A fixed seed: the warm-up work is identical in every run. Three of
  // every family (fixed-length regex) at the workload's lengths; length 2
  // for oneshot-short, whose length-3 scripts are too slow to warm up with.
  std::vector<Instance> out;
  Rng rng = make_rng(0x5e7u, 99, static_cast<std::uint64_t>(mix));
  const std::size_t lo = mix == Mix::kShort ? 2 : mix == Mix::kLong ? 5 : 4;
  const std::size_t hi = mix == Mix::kShort ? 2 : mix == Mix::kLong ? 12 : 8;
  for (int rep = 0; rep < 3; ++rep) {
    for (Family f : kFamilies) {
      out.push_back((f == regex_match ? regex_fixed : f)(rng, pick(rng, lo, hi)));
    }
  }
  return out;
}

std::vector<Instance> small_unsat_instances(std::uint64_t seed,
                                            std::size_t per_template) {
  std::vector<Instance> out;
  Rng rng = make_rng(seed, 77, 0);
  for (std::size_t n : {2, 3}) {
    for (Family f : kUnsatFamilies) {
      for (std::size_t i = 0; i < per_template; ++i) out.push_back(f(rng, n));
    }
  }
  return out;
}

}  // namespace perfbench
