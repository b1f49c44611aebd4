#include "eclipse/farm/job.hpp"

#include <sstream>
#include <stdexcept>

#include "eclipse/sim/config.hpp"
#include "eclipse/sim/prng.hpp"

namespace eclipse::farm {

namespace {

/// Seeded fault-storm spec, derived exactly like the farm soak's stormJob
/// so storm jobs hit the same (seed, kind) → spec mapping the in-process
/// oracles use.
sim::FaultSpec stormSpec(std::uint64_t seed, sim::FaultKind kind) {
  sim::Prng rng(seed * 977 + static_cast<std::uint64_t>(kind));
  sim::FaultSpec spec;
  spec.kind = kind;
  spec.at_cycle = 2'000 + rng.below(60'000);
  if (kind == sim::FaultKind::TaskHang) {
    spec.shell = static_cast<std::uint32_t>(rng.below(4));
    spec.task = 0;
    spec.delay_cycles = 10'000 + rng.below(100'000);
  } else {  // CorruptPayload at the VLD coefficient output
    spec.shell = 0;
    spec.task = 0;
    spec.port = 0;
    spec.xor_mask = static_cast<std::uint8_t>(1 + rng.below(255));
  }
  return spec;
}

/// Reads a job key's number as a whole token (sim::parseNumber); a bad one
/// throws, which parseJob reports as a bad value for the key.
template <typename T>
void readNumber(std::string_view val, T& out) {
  const std::optional<T> v = sim::parseNumber<T>(val);
  if (!v) throw std::invalid_argument("not a number");
  out = *v;
}

}  // namespace

std::optional<Job> parseJob(const std::string& line, std::string& err, const Job& base,
                            const JobKeyHook& hook) {
  err.clear();
  std::istringstream is(line);
  std::string name;
  if (!(is >> name) || name[0] == '#') return std::nullopt;

  auto fail = [&err](std::string why) {
    err = std::move(why);
    return std::nullopt;
  };
  Job job = base;
  job.name = name;
  WorkloadDesc wd;  // shared by every app of the job
  std::vector<AppKind> kinds{AppKind::Decode};
  std::string storm;  // applied after the loop (needs storm_seed)
  std::uint64_t storm_seed = 1;

  std::string field;
  while (is >> field) {
    const auto eq = field.find('=');
    if (eq == std::string::npos) return fail("field without '=': " + field);
    const std::string key = field.substr(0, eq);
    const std::string val = field.substr(eq + 1);
    try {
      if (key == "kind") {
        kinds.clear();
        std::istringstream ks(val);
        std::string k;
        while (std::getline(ks, k, '+')) {
          if (k == "decode") {
            kinds.push_back(AppKind::Decode);
          } else if (k == "encode") {
            kinds.push_back(AppKind::Encode);
          } else {
            return fail("unknown kind: " + k);
          }
        }
        if (kinds.empty()) return fail("empty kind list");
      } else if (key == "width") {
        readNumber(val, wd.width);
      } else if (key == "height") {
        readNumber(val, wd.height);
      } else if (key == "frames") {
        readNumber(val, wd.frames);
      } else if (key == "seed") {
        readNumber(val, wd.seed);
      } else if (key == "qscale") {
        readNumber(val, wd.qscale);
      } else if (key == "gop") {
        const auto comma = val.find(',');
        readNumber(val.substr(0, comma), wd.gop_n);
        if (comma != std::string::npos) readNumber(val.substr(comma + 1), wd.gop_m);
      } else if (key == "detail") {
        readNumber(val, wd.detail);
      } else if (key == "motion") {
        readNumber(val, wd.motion_speed);
      } else if (key == "noise") {
        readNumber(val, wd.noise_level);
      } else if (key == "priority") {
        if (val == "high") {
          job.priority = Priority::High;
        } else if (val == "normal") {
          job.priority = Priority::Normal;
        } else if (val == "low") {
          job.priority = Priority::Low;
        } else {
          return fail("unknown priority: " + val);
        }
      } else if (key == "max_cycles") {
        readNumber(val, job.max_cycles);
      } else if (key == "verify") {
        job.verify = val != "0" && val != "false";
      } else if (key == "retries") {
        readNumber(val, job.retry.max_attempts);
      } else if (key == "backoff_ms") {
        readNumber(val, job.retry.backoff_ms);
      } else if (key == "deadline") {
        readNumber(val, job.deadline);
      } else if (key == "supervise_ms") {
        readNumber(val, job.supervise_ms);
      } else if (key == "storm") {
        if (val != "hang" && val != "corrupt") return fail("unknown storm: " + val);
        storm = val;
      } else if (key == "storm_seed") {
        readNumber(val, storm_seed);
      } else if (key == "watchdog") {
        readNumber(val, job.watchdog_timeout);
      } else if (key == "hang_ms") {
        readNumber(val, job.chaos.hang_ms);
      } else if (key == "hang_attempts") {
        readNumber(val, job.chaos.attempts);
      } else if (key.rfind("config:", 0) == 0) {
        job.config.set(key.substr(7), val);
      } else if (!hook || !hook(key, val)) {
        return fail("unknown field: " + key);
      }
    } catch (const std::exception&) {
      return fail("bad value for " + key + ": " + val);
    }
  }

  if (!storm.empty()) {
    const sim::FaultKind kind =
        storm == "hang" ? sim::FaultKind::TaskHang : sim::FaultKind::CorruptPayload;
    job.faults.seed = storm_seed;
    job.faults.faults.push_back(stormSpec(storm_seed, kind));
  }
  job.apps.clear();
  for (AppKind k : kinds) job.apps.push_back(AppSpec{k, wd});
  return job;
}

}  // namespace eclipse::farm
