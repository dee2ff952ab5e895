// A bench's named claim: `value op bound`, with its verdict. Benches print
// one line per gate, list every gate in their JSON's top-level "gates"
// array and exit 1 unless all of them passed.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "json.hpp"

namespace mtlsplit::bench {

struct Gate {
  std::string name;
  double value = 0.0;
  const char* op = "==";
  double bound = 0.0;
  std::string verdict;  // pass, fail or not_exercised

  /// A gate that passes when `value op bound` holds. Otherwise it fails,
  /// or, for a gate checking that the bench provoked the condition it
  /// names (@p exercise), it is not_exercised.
  static Gate check(std::string name, double value, const char* op,
                    double bound, bool exercise = false) {
    const std::string o = op;
    const bool holds = o == "<"    ? value < bound
                       : o == "<=" ? value <= bound
                       : o == "==" ? value == bound
                       : o == ">=" ? value >= bound
                                   : value > bound;
    return {std::move(name), value, op, bound,
            holds ? "pass" : exercise ? "not_exercised" : "fail"};
  }

  bool passed() const { return verdict == "pass"; }

  /// The "gates" array entry: {name, value, op, bound, verdict}.
  Json json() const {
    return {{"name", name},
            {"value", value},
            {"op", op},
            {"bound", bound},
            {"verdict", verdict}};
  }

  /// The console line: verdict, name, then the comparison.
  void print() const {
    std::printf("  %-13s %-40s %s %s %s\n", verdict.c_str(), name.c_str(),
                Json::number(value).c_str(), op, Json::number(bound).c_str());
  }
};

inline bool all_passed(const std::vector<Gate>& gates) {
  return std::all_of(gates.begin(), gates.end(),
                     [](const Gate& g) { return g.passed(); });
}

/// What one scenario of a scenario-table bench returns: its metrics,
/// nested under the JSON keys they fill, and its named gates.
struct Report {
  Json metrics;
  std::vector<Gate> gates;

  /// Declares a gate (Gate::check).
  void gate(std::string name, double value, const char* op, double bound,
            bool exercise = false) {
    gates.push_back(Gate::check(std::move(name), value, op, bound, exercise));
  }
  bool ok() const { return all_passed(gates); }
};

}  // namespace mtlsplit::bench
