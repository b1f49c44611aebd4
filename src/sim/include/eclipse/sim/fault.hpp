#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "eclipse/sim/types.hpp"

namespace eclipse::sim {

/// Deterministic fault injection for the simulation kernel.
///
/// A FaultPlan is a list of cycle-scheduled FaultSpecs; the FaultInjector
/// holds the armed plan and is *queried* by the models at well-defined
/// points (message send, task dispatch, stream commit). With no plan armed
/// the injector pointer on the Simulator is null and every hook is a
/// branch-on-null — the no-fault timing stays bit-identical.
///
/// The injector itself draws no random numbers: randomised campaigns seed a
/// Prng externally and derive the spec fields (cycles, addresses, bits)
/// from it, so a (plan, seed) pair always reproduces the same run.
///
/// Threading: the injector has plain state and is called only from the
/// thread driving its Simulator; read triggers()/triggerCount() outside run().
enum class FaultKind : std::uint8_t {
  DropPutspace,    ///< silently discard a putspace message leaving a shell
  DelayPutspace,   ///< deliver a putspace message late by delay_cycles
  BitFlipSram,     ///< flip one bit of an on-chip stream-buffer byte
  BitFlipDram,     ///< flip one bit of an off-chip byte
  TaskHang,        ///< a dispatched task wedges for delay_cycles, no progress
  CorruptPayload,  ///< XOR the payload of a packet committed at a port
};

[[nodiscard]] constexpr const char* faultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::DropPutspace: return "drop-putspace";
    case FaultKind::DelayPutspace: return "delay-putspace";
    case FaultKind::BitFlipSram: return "bitflip-sram";
    case FaultKind::BitFlipDram: return "bitflip-dram";
    case FaultKind::TaskHang: return "task-hang";
    case FaultKind::CorruptPayload: return "corrupt-payload";
  }
  return "?";
}

/// One scheduled fault. Which fields matter depends on `kind`:
///  * DropPutspace / DelayPutspace: shell (message source), window, count.
///  * BitFlipSram / BitFlipDram: addr, bit, at_cycle (fires once, as an
///    event armed by the owner of the memories).
///  * TaskHang: shell, task, window, count, delay_cycles (hang length).
///  * CorruptPayload: shell, task, port, window, count, xor_mask.
struct FaultSpec {
  FaultKind kind = FaultKind::DropPutspace;
  std::uint32_t shell = 0;
  TaskId task = 0;
  PortId port = 0;
  Cycle at_cycle = 0;     ///< window start (inclusive)
  Cycle until_cycle = 0;  ///< window end (inclusive); 0 = unbounded
  std::uint32_t count = 1;  ///< triggers left inside the window; 0 = unlimited
  Cycle delay_cycles = 0;
  Addr addr = 0;
  std::uint32_t bit = 0;
  std::uint8_t xor_mask = 0x40;
};

/// A plan: the specs plus the seed they were derived from (provenance for
/// logs and reproduction; the injector never draws randomness itself).
struct FaultPlan {
  std::vector<FaultSpec> faults;
  std::uint64_t seed = 0;
};

/// One fault that actually fired (for tests, benchmarks and reports).
struct FaultTrigger {
  FaultKind kind = FaultKind::DropPutspace;
  Cycle cycle = 0;
  std::uint32_t shell = 0;
  TaskId task = 0;
  std::uint32_t detail = 0;  ///< row / bytes / low address bits, kind-specific
};

class FaultInjector {
 public:
  void arm(const FaultSpec& spec) {
    specs_.push_back(spec);
  }
  void clear() {
    specs_.clear();
    spent_.clear();  // budgets are per-plan; the trigger log survives re-arming
  }
  [[nodiscard]] bool armed() const { return !specs_.empty(); }

  /// MessageNetwork hook: drop the putspace message leaving `src_shell`?
  bool shouldDropPutspace(std::uint32_t src_shell, Cycle now) {
    FaultSpec* s = match(FaultKind::DropPutspace, now,
                         [&](const FaultSpec& f) { return f.shell == src_shell; });
    if (s == nullptr) return false;
    consume(*s);
    return true;
  }

  /// MessageNetwork hook: extra delivery latency for a message leaving
  /// `src_shell` (0 = deliver normally).
  Cycle putspaceDelay(std::uint32_t src_shell, Cycle now) {
    FaultSpec* s = match(FaultKind::DelayPutspace, now,
                         [&](const FaultSpec& f) { return f.shell == src_shell; });
    if (s == nullptr) return 0;
    consume(*s);
    return s->delay_cycles;
  }

  /// Coprocessor hook: cycles the dispatched (shell, task) wedges for
  /// instead of executing its processing step (0 = run normally).
  Cycle taskHangCycles(std::uint32_t shell, TaskId task, Cycle now) {
    FaultSpec* s = match(FaultKind::TaskHang, now, [&](const FaultSpec& f) {
      return f.shell == shell && f.task == task;
    });
    if (s == nullptr) return 0;
    consume(*s);
    return s->delay_cycles;
  }

  /// Shell hook: XOR mask to apply to a packet payload committed at
  /// (shell, task, port), or nullopt to commit cleanly.
  std::optional<std::uint8_t> corruptPayload(std::uint32_t shell, TaskId task, PortId port,
                                             Cycle now) {
    FaultSpec* s = match(FaultKind::CorruptPayload, now, [&](const FaultSpec& f) {
      return f.shell == shell && f.task == task && f.port == port;
    });
    if (s == nullptr) return std::nullopt;
    consume(*s);
    return s->xor_mask;
  }

  /// Records a fault that fired (also called by externally armed events,
  /// e.g. the instance's scheduled bit-flips).
  void logTrigger(const FaultTrigger& t) {
    triggers_.push_back(t);
  }

  [[nodiscard]] const std::vector<FaultTrigger>& triggers() const { return triggers_; }
  [[nodiscard]] std::size_t triggerCount(FaultKind k) const {
    std::size_t n = 0;
    for (const auto& t : triggers_) {
      if (t.kind == k) ++n;
    }
    return n;
  }

 private:
  template <typename Pred>
  FaultSpec* match(FaultKind kind, Cycle now, Pred&& pred) {
    for (FaultSpec& s : specs_) {
      if (s.kind != kind || !pred(s)) continue;
      if (now < s.at_cycle) continue;
      if (s.until_cycle != 0 && now > s.until_cycle) continue;
      if (s.count == 0 || spent_of(s) < s.count) return &s;
    }
    return nullptr;
  }

  // Trigger budgets are tracked per spec by address: specs_ only grows
  // (clear() resets everything), so the parallel spent vector stays aligned.
  std::uint32_t& spent_ref(FaultSpec& s) {
    const auto idx = static_cast<std::size_t>(&s - specs_.data());
    if (spent_.size() < specs_.size()) spent_.resize(specs_.size(), 0);
    return spent_[idx];
  }
  std::uint32_t spent_of(FaultSpec& s) { return spent_ref(s); }
  void consume(FaultSpec& s) { ++spent_ref(s); }

  std::vector<FaultSpec> specs_;
  std::vector<std::uint32_t> spent_;
  std::vector<FaultTrigger> triggers_;
};

}  // namespace eclipse::sim
