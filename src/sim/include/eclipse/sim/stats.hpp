#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "eclipse/sim/types.hpp"

namespace eclipse::sim {

/// Streaming accumulator for scalar measurements (min/max/mean/variance).
class Accumulator {
 public:
  void add(double x) {
    ++n_;
    sum_ += x;
    sum_sq_ += x * x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }
  [[nodiscard]] double min() const { return n_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return n_ == 0 ? 0.0 : max_; }
  [[nodiscard]] double variance() const {
    if (n_ < 2) return 0.0;
    const double m = mean();
    return std::max(0.0, sum_sq_ / static_cast<double>(n_) - m * m);
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }

  void reset() { *this = Accumulator{}; }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Time series of (cycle, value) samples — the raw material for the
/// buffer-filling and utilization plots of Figures 9 and 10.
class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  void sample(Cycle at, double value) { points_.emplace_back(at, value); }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<std::pair<Cycle, double>>& points() const { return points_; }
  [[nodiscard]] bool empty() const { return points_.empty(); }
  [[nodiscard]] std::size_t size() const { return points_.size(); }

  [[nodiscard]] double maxValue() const {
    double m = 0.0;
    for (const auto& [c, v] : points_) m = std::max(m, v);
    return m;
  }

  /// Mean of samples whose cycle lies in [from, to).
  [[nodiscard]] double meanValueIn(Cycle from, Cycle to) const {
    double s = 0.0;
    std::size_t n = 0;
    for (const auto& [c, v] : points_) {
      if (c >= from && c < to) {
        s += v;
        ++n;
      }
    }
    return n == 0 ? 0.0 : s / static_cast<double>(n);
  }

  void clear() { points_.clear(); }

 private:
  std::string name_;
  std::vector<std::pair<Cycle, double>> points_;
};

/// Utilization tracker: accumulates busy cycles against elapsed cycles.
class Utilization {
 public:
  void addBusy(Cycle cycles) { busy_ += cycles; }

  /// Fraction of `elapsed` spent busy, clamped to [0, 1].
  [[nodiscard]] double fraction(Cycle elapsed) const {
    if (elapsed == 0) return 0.0;
    return std::min(1.0, static_cast<double>(busy_) / static_cast<double>(elapsed));
  }

  void reset() { busy_ = 0; }

 private:
  Cycle busy_ = 0;
};

}  // namespace eclipse::sim
