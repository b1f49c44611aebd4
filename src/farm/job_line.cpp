#include "eclipse/farm/job.hpp"

#include <sstream>

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
        wd.width = std::stoi(val);
      } else if (key == "height") {
        wd.height = std::stoi(val);
      } else if (key == "frames") {
        wd.frames = std::stoi(val);
      } else if (key == "seed") {
        wd.seed = std::stoull(val);
      } else if (key == "qscale") {
        wd.qscale = std::stoi(val);
      } else if (key == "gop") {
        const auto comma = val.find(',');
        wd.gop_n = std::stoi(val.substr(0, comma));
        if (comma != std::string::npos) wd.gop_m = std::stoi(val.substr(comma + 1));
      } else if (key == "detail") {
        wd.detail = std::stoi(val);
      } else if (key == "motion") {
        wd.motion_speed = std::stoi(val);
      } else if (key == "noise") {
        wd.noise_level = std::stod(val);
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
        job.max_cycles = std::stoull(val);
      } else if (key == "verify") {
        job.verify = val != "0" && val != "false";
      } else if (key == "retries") {
        job.retry.max_attempts = std::stoi(val);
      } else if (key == "backoff_ms") {
        job.retry.backoff_ms = std::stod(val);
      } else if (key == "deadline") {
        job.deadline = std::stoull(val);
      } else if (key == "supervise_ms") {
        job.supervise_ms = std::stod(val);
      } else if (key == "storm") {
        if (val != "hang" && val != "corrupt") return fail("unknown storm: " + val);
        storm = val;
      } else if (key == "storm_seed") {
        storm_seed = std::stoull(val);
      } else if (key == "watchdog") {
        job.watchdog_timeout = std::stoull(val);
      } else if (key == "hang_ms") {
        job.chaos.hang_ms = std::stod(val);
      } else if (key == "hang_attempts") {
        job.chaos.attempts = std::stoi(val);
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
