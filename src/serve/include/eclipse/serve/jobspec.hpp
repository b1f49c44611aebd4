#pragma once

#include <string>

#include "eclipse/farm/job.hpp"

namespace eclipse::serve {

/// A parsed job specification: the farm job plus the serve-level QoS
/// fields that never reach the farm (the dispatcher consumes them).
struct ParsedSpec {
  farm::Job job;
  /// Wall-clock deadline for the whole serve path (admission to result),
  /// in ms. 0 = none. Drives deadline-aware lane promotion: when the
  /// remaining slack drops below the dispatcher's promotion threshold the
  /// job is bumped one farm lane up (see DESIGN §15).
  double deadline_ms = 0.0;
};

/// Parses `<name> [key=value ...]` into a job — the same grammar served
/// jobs and their in-process oracles go through, so the bit-identity gate
/// compares two executions of the *same* Job value by construction.
///
/// Keys: the farm_driver job-line set (kind, width, height, frames, seed,
/// qscale, gop=N[,M], detail, motion, noise, priority, max_cycles, verify,
/// retries, backoff_ms, deadline, supervise_ms, config:KEY=V) plus
/// the serve extensions:
///   deadline_ms=X          wall deadline for lane promotion (serve-level)
///   storm=hang|corrupt     deterministic fault storm (chaos soak; mirrors
///   storm_seed=N           the farm soak's seeded spec derivation)
///   watchdog=N             per-shell watchdog timeout in cycles
///   hang_ms=X hang_attempts=N   host-side worker-hang injection
///
/// Returns false with `err` set on a malformed spec; `out` is unspecified
/// then. An empty/comment spec is an error here (unlike a job *file* line,
/// a submitted spec must name a job).
bool parseJobSpec(const std::string& spec, ParsedSpec& out, std::string& err);

}  // namespace eclipse::serve
