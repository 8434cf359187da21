/// \file source.hpp
/// The traffic-source contract: anything that can feed a core's request
/// stream into the mesh. The simulator drives each core through this
/// interface, so the paper's closed-loop random generator
/// (CoreGenerator), the synthetic-pattern overlays and the trace
/// replayer (TraceReplayer) are interchangeable per run — a scenario
/// file picks which one builds each core.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "traffic/core_spec.hpp"

namespace annoc::noc {
class Network;
}  // namespace annoc::noc

namespace annoc::traffic {

struct GeneratorStats {
  std::uint64_t requests_generated = 0;
  std::uint64_t packets_injected = 0;
  std::uint64_t bytes_requested = 0;
  std::uint64_t inject_stalls = 0;  ///< cycles blocked on a full buffer
};

class TrafficSource {
 public:
  virtual ~TrafficSource() = default;

  /// Generate whatever this cycle calls for and inject backlog
  /// (link/buffer permitting). Called once per executed cycle; whatever
  /// the cycles the event scheduler jumped would have accrued must be
  /// caught up first, so results stay bit-identical to dense stepping.
  virtual void tick(Cycle now, noc::Network& net) = 0;

  /// Earliest future cycle (>= now) this source can act — a lower
  /// bound, per the next_event contract (DESIGN.md). kNeverCycle when
  /// permanently drained.
  [[nodiscard]] virtual Cycle next_event(Cycle now) const = 0;

  /// A parent request from this core completed (all subpackets done).
  virtual void on_parent_completed() = 0;

  /// Gate request creation (drain phase: injection of the existing
  /// backlog continues, but no new requests are created).
  virtual void set_emitting(bool emitting) = 0;

  [[nodiscard]] virtual const GeneratorStats& stats() const = 0;
  [[nodiscard]] virtual CoreId core_id() const = 0;
  [[nodiscard]] virtual const CoreSpec& spec() const = 0;
  /// Requests created but not yet injected (conservation audit).
  [[nodiscard]] virtual std::size_t backlog() const = 0;
};

}  // namespace annoc::traffic
