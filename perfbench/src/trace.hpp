#pragma once

// Host-time spans recorded by the benchmark around its own calls into the
// simulator modules. Spans are kept in memory and written once, at the end
// of a run, as Chrome trace-event JSON (opens offline in Perfetto).

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Operation ids group spans: timed operations count up from 1, set-up
/// repetitions and reference rounds live in their own ranges.
inline constexpr std::uint64_t kSetupOpBase = 1'000'000;
inline constexpr std::uint64_t kRoundOpBase = 2'000'000;

class Tracer {
 public:
  /// A disabled tracer records nothing and costs one branch per scope.
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  void setEnabled(bool on) { enabled_ = on; }

  /// Microseconds since the tracer was created (the trace's time base).
  [[nodiscard]] double nowUs() const { return usAt(Clock::now()); }
  [[nodiscard]] double usAt(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  }

  /// RAII span on the calling (main) thread; nests under the open span.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    Tracer* tracer_;
    int index_;
  };

  [[nodiscard]] Scope scope(const char* name, std::uint64_t op);

  /// Records a finished span measured elsewhere (e.g. a farm job's queue
  /// and run phases), on display lane `tid`, under `parent` (-1: none).
  /// Returns its index for use as a parent.
  int record(const char* name, double start_us, double end_us, std::uint64_t op, int tid,
             int parent = -1);

  /// Per-operation sum of the durations (ms) of spans named `name`, for
  /// operation ids in [lo, hi). One entry per operation that has the span.
  [[nodiscard]] std::vector<double> perOpMs(std::string_view name, std::uint64_t lo,
                                            std::uint64_t hi) const;

  /// Writes every span as a Chrome trace-event file. `other_data` is a JSON
  /// object stored under "otherData" (host context). Returns false when the
  /// file cannot be written.
  bool writeChrome(const std::string& path, const std::string& other_data) const;

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
    std::uint64_t op;
    int tid;
  };

  void close(int index);

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench
