/// \file schedule.hpp
/// The resolved fault schedule of one run: explicit scenario faults plus
/// deterministically drawn random faults, flattened into a sorted edge
/// list the simulator walks as `now` advances (every edge is also a
/// `next_event` horizon, which is how faults stay bitwise-identical
/// across the dense and event schedulers), plus per-channel
/// SDRAM timelines the TimingOracle folds into its constraint checks so
/// it verifies the *faulted* timing, not the nominal one.
///
/// Building a schedule is a pure function of (explicit faults, random
/// knobs, fabric shape) — the same discipline as src/explore/ sweep
/// expansion — so two runs of the same scenario, in any sched mode, on
/// any worker, see the exact same faults.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "fault/spec.hpp"

namespace annoc::fault {

/// The fabric shape FaultSchedule::build draws random targets from.
/// Everything here is itself a pure function of the scenario (the link
/// list comes from the mesh geometry or the topology spec, in a fixed
/// order), so the schedule stays a pure function of the scenario.
struct FabricInfo {
  std::uint32_t num_nodes = 0;
  /// Undirected router-router links, each with a < b, in a fixed
  /// deterministic order (Network::link_list).
  std::vector<std::pair<NodeId, NodeId>> links;
  /// Controller-hosting nodes; random dead links never disconnect any
  /// node from all of these (a reachable memory is what keeps random
  /// fault legs livelock-free — authored `faults` may disconnect it on
  /// purpose, which is exactly the watchdog scenario).
  std::vector<NodeId> mem_nodes;
  std::uint32_t num_channels = 1;
  std::uint32_t num_banks = 8;
  bool refresh_enabled = false;
  std::uint64_t nominal_trefi = 0;  ///< cycles; 0 when refresh is off
  std::uint64_t trfc = 0;           ///< storm-tREFI floor is 4 * tRFC
  /// Per-channel eligibility for RANDOM SDRAM faults (refresh storms,
  /// bank throttles); empty = every channel. The simulator excludes
  /// DPQ-engine channels here: the LatencyBoundOracle proves a WCET
  /// bound computed from nominal timing, which an SDRAM fault would
  /// (correctly, but uselessly) violate. Explicit `faults` entries are
  /// NOT filtered — an author who targets a DPQ channel owns the
  /// resulting bound violation (docs/RESILIENCE.md).
  std::vector<std::uint8_t> sdram_fault_ok;
};

/// The `fault.*` scalar scenario knobs (all sweepable).
struct RandomFaultParams {
  std::uint64_t seed = 0;
  std::uint32_t count = 0;  ///< 0 = no random faults
  /// Comma-separated FaultKind tokens, or "all".
  std::string kinds = "all";
  Cycle start = 30000;
  Cycle spacing = 20000;
  Cycle duration = 40000;  ///< 0 = permanent
};

/// One activation or deactivation, in schedule order.
struct FaultEdge {
  Cycle at = 0;
  bool activate = true;
  std::uint32_t fault = 0;  ///< index into FaultSchedule::faults()
};

/// One SDRAM timing change on a channel; the oracle folds edges with
/// `at <= event cycle` before checking that event, mirroring exactly
/// what the simulator applies to the Device at the same cycle.
struct SdramFaultEdge {
  enum class Kind : std::uint8_t { kTrefi, kBankExtra };
  Cycle at = 0;
  Kind kind = Kind::kTrefi;
  std::uint64_t trefi = 0;          ///< kTrefi: the new tREFI value
  std::uint64_t bank_mask = 0;      ///< kBankExtra: affected banks
  std::uint32_t extra_trcd = 0;     ///< kBankExtra: new extra (0 clears)
  std::uint32_t extra_trp = 0;
};

struct SdramFaultTimeline {
  std::vector<SdramFaultEdge> edges;  ///< sorted by `at`

  [[nodiscard]] bool empty() const { return edges.empty(); }
};

class FaultSchedule {
 public:
  /// Resolve the schedule: validate/copy the explicit faults, then draw
  /// `rnd.count` random faults from the fabric with a dedicated RNG
  /// stream (independent of the traffic seed). Explicit faults with an
  /// out-of-fabric target are clamped into range rather than rejected —
  /// the scenario parser already range-checks what it can see; targets
  /// depending on the final fabric (mesh_preset re-tiling) are only
  /// knowable here.
  [[nodiscard]] static FaultSchedule build(
      const std::vector<FaultSpec>& explicit_faults,
      const RandomFaultParams& rnd, const FabricInfo& fabric);

  [[nodiscard]] const std::vector<FaultSpec>& faults() const {
    return faults_;
  }
  /// Sorted by (at, deactivations-before-activations, fault index).
  [[nodiscard]] const std::vector<FaultEdge>& edges() const {
    return edges_;
  }
  /// Per-channel SDRAM timing timeline (empty for unaffected channels).
  [[nodiscard]] const SdramFaultTimeline& timeline(
      std::uint32_t channel) const;

  [[nodiscard]] bool empty() const { return faults_.empty(); }

 private:
  std::vector<FaultSpec> faults_;
  std::vector<FaultEdge> edges_;
  std::vector<SdramFaultTimeline> timelines_;  ///< indexed by channel
};

}  // namespace annoc::fault
