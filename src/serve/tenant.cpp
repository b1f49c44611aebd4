#include "eclipse/serve/tenant.hpp"

#include <optional>
#include <sstream>

#include "eclipse/sim/config.hpp"

namespace eclipse::serve {

namespace {

/// Whole-token numbers only (sim::parseNumber): "2x", "5abc" and a negative
/// count are bad values, not a prefix or a wrapped minus sign.
template <typename T>
bool readNumber(const std::string& text, T& out) {
  const std::optional<T> v = sim::parseNumber<T>(text);
  if (v) out = *v;
  return v.has_value();
}

}  // namespace

bool parseTenantSpec(const std::string& spec, TenantConfig& out, std::string& err) {
  out = TenantConfig{};
  const auto colon = spec.find(':');
  out.name = spec.substr(0, colon);
  if (out.name.empty()) {
    err = "empty tenant name";
    return false;
  }
  if (colon == std::string::npos) return true;

  std::istringstream is(spec.substr(colon + 1));
  std::string field;
  while (std::getline(is, field, ',')) {
    if (field.empty()) continue;
    const auto eq = field.find('=');
    if (eq == std::string::npos) {
      err = "tenant field without '=': " + field;
      return false;
    }
    const std::string key = field.substr(0, eq);
    const std::string val = field.substr(eq + 1);
    bool ok = true;
    if (key == "rate") {
      ok = readNumber(val, out.rate);
    } else if (key == "burst") {
      ok = readNumber(val, out.burst);
    } else if (key == "quota") {
      ok = readNumber(val, out.max_inflight);
    } else if (key == "pending") {
      ok = readNumber(val, out.max_pending);
    } else if (key == "weight") {
      ok = readNumber(val, out.weight);
    } else if (key == "policy") {
      if (val == "shed") {
        out.policy = OverloadPolicy::Shed;
      } else if (val == "queue") {
        out.policy = OverloadPolicy::Queue;
      } else {
        err = "unknown policy: " + val;
        return false;
      }
    } else {
      err = "unknown tenant field: " + key;
      return false;
    }
    if (!ok) {
      err = "bad value for tenant " + key + ": " + val;
      return false;
    }
  }
  // Negated so that a NaN rate or weight is out of range too.
  if (!(out.rate >= 0.0 && out.weight > 0.0 && out.max_inflight >= 1)) {
    err = "tenant limits out of range (rate >= 0, weight > 0, quota >= 1)";
    return false;
  }
  return true;
}

}  // namespace eclipse::serve
