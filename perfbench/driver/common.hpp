// Shared types of the qsmt end-to-end benchmark (see ../README.md).
#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// One generated check-sat query with the truth planted by construction.
struct Instance {
  /// Op family ("equality", "regex-match", "unsat-pinned", "or-eq", ...).
  std::string family;
  /// Length of the planted witness (or of the conflicting target).
  std::size_t length = 0;
  /// Assertion terms; the string variable is written as the token `$V`.
  std::vector<std::string> assertions;
  /// Planted truth: true = satisfiable (`witness` satisfies every assertion),
  /// false = unsatisfiable by construction.
  bool sat = true;
  std::string witness;
};

/// `term` with the variable token `$V` replaced by `var`.
std::string bind_var(std::string term, const std::string& var);

/// Renders the assertions over variable `var`, one `(assert ...)` per line.
std::string render_assertions(const Instance& instance, const std::string& var);

/// Complete one-shot script: declare, assert, check-sat.
std::string render_script(const Instance& instance,
                          const std::string& var = "x");

using Rng = std::mt19937_64;

/// Deterministic per-purpose stream: the same (seed, stream, index) always
/// yields the same generator state.
Rng make_rng(std::uint64_t seed, std::uint64_t stream, std::uint64_t index);

/// Workload mix of one round (instances in a fixed order of families).
enum class Mix { kShort, kLong, kDaemon };

/// One round of instances for `mix`: the same family/length make-up in every
/// round and for every seed; only the strings differ.
std::vector<Instance> make_round(Mix mix, std::uint64_t seed,
                                 std::uint64_t round);

/// Fixed, seed-independent warm-up set timed as part of set-up.
std::vector<Instance> warmup_set(Mix mix);

/// The named regex-encoding fault instance; `variant` (0-2) picks one of
/// three structurally different but equivalent classes.
Instance known_fault_instance(std::size_t variant);

/// Planted-unsat instances of length <= 3 (all templates), for the
/// brute-force self-test.
std::vector<Instance> small_unsat_instances(std::uint64_t seed,
                                            std::size_t per_template);

}  // namespace perfbench
