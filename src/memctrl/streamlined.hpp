/// \file streamlined.hpp
/// The slim memory subsystem used with the SDRAM-aware NoC of [4] and
/// with the GSS / GSS+SAGM designs (Fig. 6): because scheduling already
/// happened inside the routers, the subsystem is just a small in-order
/// input FIFO feeding the command engine — no reorder buffers, no
/// per-thread queues. The SAGM variant differs only in the device burst
/// mode (BL4 / BL4-OTF) and in the packets themselves (pre-split,
/// AP-tagged), both handled by the command engine.
#pragma once

#include <cstdint>

#include "common/bounded_queue.hpp"
#include "memctrl/command_engine.hpp"
#include "memctrl/subsystem.hpp"

namespace annoc::memctrl {

struct StreamlinedConfig {
  /// Input FIFO depth in flits. Deliberately shallow: scheduling has
  /// already happened in the routers, and a deep in-order tail here
  /// would bury the very ordering the GSS routers produced.
  std::uint32_t input_flits = 16;
  std::uint32_t window_depth = 12;   ///< command-engine window (packets)
  std::uint32_t lookahead = 8;       ///< banks prepared ahead
  std::uint32_t reorder_depth = 8;   ///< cross-master CAS slip window
};

class StreamlinedSubsystem final : public MemorySubsystem {
 public:
  StreamlinedSubsystem(const sdram::DeviceConfig& dev_cfg,
                       const StreamlinedConfig& cfg);

  // PacketSink
  [[nodiscard]] bool can_accept(const noc::Packet& pkt) const override;
  void deliver(noc::Packet&& pkt, Cycle now) override;

  void tick(Cycle now) override;

  [[nodiscard]] std::size_t pending_requests() const override {
    return input_.size() + engine_.pending();
  }
  [[nodiscard]] const EngineStats& engine_stats() const override {
    return engine_.stats();
  }
  [[nodiscard]] Cycle next_event(Cycle now) const override;
  /// Cycles the engine sat empty with nothing buffered (network-starved).
  /// Gap-aware: cycles the event scheduler skips while idle and
  /// empty are credited on the next tick, so the counter matches dense
  /// stepping exactly.
  [[nodiscard]] std::uint64_t starved_cycles() const { return starved_; }

 private:
  StreamlinedConfig cfg_;
  CommandEngine engine_;
  std::uint64_t starved_ = 0;
  Cycle last_tick_ = kNeverCycle;
  BoundedQueue<noc::Packet> input_;
  std::uint32_t input_used_flits_ = 0;
};

}  // namespace annoc::memctrl
