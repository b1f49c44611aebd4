#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace eclipse::sim {

/// Reads all of `text` as a T (an integer or floating-point type) with
/// std::from_chars: no leading blank or '+', no trailing characters, no
/// fraction for an integer T and no minus sign for an unsigned one.
/// std::nullopt otherwise. The one number rule of setup files, job lines
/// and the serving wire.
template <typename T>
[[nodiscard]] std::optional<T> parseNumber(std::string_view text) {
  T out{};
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return std::nullopt;
  return out;
}

/// Architectural setup file, as used for design-space exploration.
///
/// The paper (Section 7) drives the simulator from a setup file holding
/// architecture parameters (cache sizes, bus latency/width, ...). Format:
///
///     # comment
///     [bus]
///     width_bytes = 16
///     latency     = 3
///
/// Keys are addressed as "section.key"; keys before any section header have
/// no prefix. Values are stored as strings and converted on access.
class Config {
 public:
  Config() = default;

  /// Parses setup-file text. Throws std::runtime_error on malformed lines.
  static Config fromString(std::string_view text);

  /// Loads a setup file from disk. Throws std::runtime_error on I/O errors.
  static Config fromFile(const std::string& path);

  void set(const std::string& key, std::string value);
  void set(const std::string& key, std::int64_t value);
  void set(const std::string& key, double value);
  void set(const std::string& key, bool value);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed getters; return `fallback` when the key is absent and throw
  /// std::runtime_error when the value does not parse as the requested type.
  [[nodiscard]] std::string getString(const std::string& key, std::string fallback = {}) const;
  [[nodiscard]] std::int64_t getInt(const std::string& key, std::int64_t fallback = 0) const;
  [[nodiscard]] double getDouble(const std::string& key, double fallback = 0.0) const;
  [[nodiscard]] bool getBool(const std::string& key, bool fallback = false) const;

  /// All keys in lexicographic order (for dumping / diffing setups).
  [[nodiscard]] std::vector<std::string> keys() const;

  /// Serialises back to setup-file text (flat, fully-qualified keys).
  [[nodiscard]] std::string toString() const;

  /// Merges `other` into this config; keys in `other` win.
  void merge(const Config& other);

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace eclipse::sim
