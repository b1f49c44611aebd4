#include "eclipse/sim/config.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace eclipse::sim {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

Config Config::fromString(std::string_view text) {
  Config cfg;
  std::string section;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    // Strip comments starting with '#' or ';'.
    if (auto hash = line.find_first_of("#;"); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']' || line.size() < 3) {
        throw std::runtime_error("config: malformed section header at line " + std::to_string(line_no));
      }
      section = std::string(trim(line.substr(1, line.size() - 2)));
      continue;
    }

    std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error("config: missing '=' at line " + std::to_string(line_no));
    }
    std::string key(trim(line.substr(0, eq)));
    std::string value(trim(line.substr(eq + 1)));
    if (key.empty()) {
      throw std::runtime_error("config: empty key at line " + std::to_string(line_no));
    }
    if (!section.empty()) key = section + "." + key;
    cfg.values_[key] = value;
  }
  return cfg;
}

Config Config::fromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("config: cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return fromString(ss.str());
}

void Config::set(const std::string& key, std::string value) { values_[key] = std::move(value); }
void Config::set(const std::string& key, std::int64_t value) { values_[key] = std::to_string(value); }
void Config::set(const std::string& key, double value) { values_[key] = std::to_string(value); }
void Config::set(const std::string& key, bool value) { values_[key] = value ? "true" : "false"; }

bool Config::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Config::getString(const std::string& key, std::string fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? std::move(fallback) : it->second;
}

std::int64_t Config::getInt(const std::string& key, std::int64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::optional<std::int64_t> out = parseNumber<std::int64_t>(it->second);
  if (!out) throw std::runtime_error("config: key '" + key + "' is not an integer: " + it->second);
  return *out;
}

double Config::getDouble(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::optional<double> out = parseNumber<double>(it->second);
  if (!out) throw std::runtime_error("config: key '" + key + "' is not a number: " + it->second);
  return *out;
}

bool Config::getBool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& s = it->second;
  if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
  if (s == "false" || s == "0" || s == "no" || s == "off") return false;
  throw std::runtime_error("config: key '" + key + "' is not a boolean: " + s);
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

std::string Config::toString() const {
  std::ostringstream ss;
  for (const auto& [k, v] : values_) ss << k << " = " << v << "\n";
  return ss.str();
}

void Config::merge(const Config& other) {
  for (const auto& [k, v] : other.values_) values_[k] = v;
}

}  // namespace eclipse::sim
