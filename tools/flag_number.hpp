#pragma once

// The one reading of a numeric command-line flag in the tools: a
// whole-token number (sim::parseNumber, the rule of setup files and job
// lines), so "2x", "abc" and a negative count are usage errors, not 2, 0
// or a wrapped unsigned value.

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "eclipse/sim/config.hpp"

/// Returns `text` read as a T; a bad value prints a usage error naming
/// `flag` and exits with status 2.
template <typename T>
T flagNumber(const std::string& flag, const char* text) {
  const std::optional<T> v = eclipse::sim::parseNumber<T>(text);
  if (!v) {
    std::fprintf(stderr, "%s: bad number '%s'\n", flag.c_str(), text);
    std::exit(2);
  }
  return *v;
}
