#include "trace.hpp"

#include <cstdio>
#include <map>

namespace perfbench {

Tracer::Scope Tracer::scope(const char* name, std::uint64_t op) {
  if (!enabled_) return Scope(nullptr, -1);
  const double now = nowUs();
  spans_.push_back(Span{name, now, now, open_, op, 0});
  open_ = static_cast<int>(spans_.size()) - 1;
  return Scope(this, open_);
}

void Tracer::close(int index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_us = nowUs();
  open_ = s.parent;
}

int Tracer::record(const char* name, double start_us, double end_us, std::uint64_t op, int tid,
                   int parent) {
  spans_.push_back(Span{name, start_us, end_us < start_us ? start_us : end_us, parent, op, tid});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::perOpMs(std::string_view name, std::uint64_t lo,
                                    std::uint64_t hi) const {
  std::map<std::uint64_t, double> by_op;
  for (const Span& s : spans_) {
    if (s.op >= lo && s.op < hi && name == s.name) by_op[s.op] += (s.end_us - s.start_us) / 1000.0;
  }
  std::vector<double> out;
  out.reserve(by_op.size());
  for (const auto& [op, ms] : by_op) out.push_back(ms);
  return out;
}

bool Tracer::writeChrome(const std::string& path, const std::string& other_data) const {
  // Self time: a span's duration minus the part its children cover. Child
  // spans nest strictly inside their parent, so the covered part is the
  // sum of the children's durations.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\"traceEvents\":[\n",
               other_data.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string_view name(s.name);
    const std::string_view cat = name.substr(0, name.find('.'));
    const double dur = s.end_us - s.start_us;
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"parent\":%d,\"self_us\":%.3f}}%s\n",
                 s.name, static_cast<int>(cat.size()), cat.data(), s.tid, s.start_us, dur,
                 static_cast<unsigned long long>(s.op), s.parent, dur - child_us[i],
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
