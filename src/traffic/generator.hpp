/// \file generator.hpp
/// Closed-loop traffic generator for one core: accrues payload credit,
/// emits requests per the core's size/direction/locality distributions,
/// optionally splits them per SAGM, and injects them over the core's
/// link into the local router.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "noc/network.hpp"
#include "noc/packet.hpp"
#include "sdram/address.hpp"
#include "sdram/interleave.hpp"
#include "traffic/core_spec.hpp"
#include "traffic/source.hpp"

namespace annoc::traffic {

struct GeneratorConfig {
  CoreSpec spec;
  CoreId core_id = 0;
  NodeId node = 0;
  /// Destination when constructed with a bare AddressMapper (the
  /// single-controller compat path). The MemoryMap constructor routes
  /// each request to map.node_of(addr) instead and ignores this field.
  NodeId mem_node = 0;
  std::uint32_t bus_bytes = 4;
  /// Assign ServiceClass::kPriority to demand requests (Table II mode).
  bool priority_demand = false;
  /// SAGM: split requests into subpackets of this many beats (0 = off).
  std::uint32_t split_beats = 0;
  std::uint64_t seed = 1;
  /// Invoked for every generated request with the parent packet (before
  /// splitting) and the number of subpackets it became.
  std::function<void(const noc::Packet&, std::uint32_t)> on_request;
};

class CoreGenerator final : public TrafficSource {
 public:
  /// Multi-controller construction: requests decode through `map`,
  /// which picks the destination controller per address. The map is
  /// copied (it only points at the caller-owned AddressMapper).
  CoreGenerator(const GeneratorConfig& cfg, const sdram::MemoryMap& map,
                PacketId& id_source);

  /// Single-controller compat: wraps `mapper` in a one-channel map
  /// targeting cfg.mem_node. Bitwise identical to the multi-controller
  /// constructor with channels == 1.
  CoreGenerator(const GeneratorConfig& cfg,
                const sdram::AddressMapper& mapper, PacketId& id_source);

  /// Generate (credit permitting) and inject (link/buffer permitting).
  /// Credit for the gate-open cycles a skipping scheduler jumped is
  /// caught up in closed form by repeated_add, which returns the bits
  /// of dense stepping's per-cycle additions (a += k*b is not k times
  /// a += b).
  void tick(Cycle now, noc::Network& net) override;

  /// Earliest future cycle (>= now) this generator can act: inject its
  /// backlog, or accrue enough credit to emit. The emission horizon is
  /// a deliberately safe under-estimate of the credit-crossing cycle
  /// (landing early costs a few dense steps; landing late would change
  /// results). kNeverCycle when drained and rate-less.
  [[nodiscard]] Cycle next_event(Cycle now) const override;

  /// A parent request completed (all subpackets serviced).
  void on_parent_completed() override {
    ANNOC_ASSERT(outstanding_ > 0);
    --outstanding_;
  }

  /// Gate request generation (drain phase: injection of the existing
  /// backlog continues, but no new requests are created).
  void set_emitting(bool emitting) override { emitting_ = emitting; }

  [[nodiscard]] const GeneratorStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] CoreId core_id() const override { return cfg_.core_id; }
  [[nodiscard]] const CoreSpec& spec() const override { return cfg_.spec; }
  [[nodiscard]] std::uint32_t outstanding() const { return outstanding_; }
  [[nodiscard]] std::size_t backlog() const override {
    return backlog_.size();
  }

 private:
  [[nodiscard]] std::uint32_t pick_size();
  [[nodiscard]] std::uint64_t pick_address(std::uint32_t bytes);
  void emit_request(Cycle now);

  GeneratorConfig cfg_;
  sdram::MemoryMap map_;
  PacketId& id_source_;
  Rng rng_;

  double credit_ = 0.0;
  bool emitting_ = true;
  std::uint32_t next_size_ = 0;
  bool next_is_demand_ = false;
  std::uint64_t cursor_ = 0;
  std::uint32_t outstanding_ = 0;
  Cycle link_free_at_ = 0;
  /// Cycle of the last executed tick (kNeverCycle before the first) and
  /// whether credit was accruing at it — the state that governs the
  /// catch-up of skipped cycles.
  Cycle last_tick_ = kNeverCycle;
  bool accruing_ = false;
  /// Size-mix weights, precomputed so pick_size() never allocates.
  std::vector<double> size_weights_;
  std::deque<noc::Packet> backlog_;
  GeneratorStats stats_;
};

}  // namespace annoc::traffic
