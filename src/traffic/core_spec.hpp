/// \file core_spec.hpp
/// Declarative description of one IP core's memory-traffic behaviour.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/tokens.hpp"
#include "common/types.hpp"

namespace annoc::traffic {

/// One entry of a request-size distribution.
struct SizeMix {
  std::uint32_t bytes = 32;
  double weight = 1.0;
};

/// Synthetic traffic pattern shaping a core's request stream on top of
/// the base rate/size/locality model (docs/WORKLOADS.md, "Synthetic
/// patterns"). kRandom is the paper's model and the default; the other
/// patterns are deterministic overlays so the event scheduler stays
/// bit-identical (gating is a pure function of the cycle number, never
/// of extra RNG draws).
enum class TrafficPattern : std::uint8_t {
  kRandom,         ///< the paper's random mix (sequential/jump cursor)
  kHotspot,        ///< random jumps concentrate on a hot sub-region
  kBursty,         ///< on/off square wave: rate applies only while on
  kFramePeriodic,  ///< MPEG-like frame cadence: active window per period
};

inline constexpr Token<TrafficPattern> kPatternTokenList[] = {
    {"random", TrafficPattern::kRandom},
    {"hotspot", TrafficPattern::kHotspot},
    {"bursty", TrafficPattern::kBursty},
    {"frame", TrafficPattern::kFramePeriodic},
};
inline constexpr TokenSet<TrafficPattern> kPatternTokens{"pattern",
                                                         kPatternTokenList};

[[nodiscard]] inline const char* to_string(TrafficPattern p) {
  return kPatternTokens.name(p);
}

/// Traffic model parameters for one core. Rates are in bytes of useful
/// payload per memory-clock cycle; the generator is closed-loop — it
/// stops accruing credit while `max_outstanding` requests are in flight,
/// which is how the RTL cores of the paper behave when their local FIFOs
/// fill (and what keeps latencies finite at saturating offered loads).
struct CoreSpec {
  std::string name;
  /// Demand/prefetch mix: fraction of requests that are demand-class.
  /// Non-MPU cores use 0 (pure stream traffic).
  double demand_fraction = 0.0;
  bool is_mpu = false;

  double read_fraction = 0.7;
  double bytes_per_cycle = 1.0;
  // One default-constructed mix (32 B, weight 1). Not `{{32, 1.0}}`:
  // GCC 12 flags the initializer_list backing array of a default member
  // initializer as maybe-uninitialized once the constructor is inlined.
  std::vector<SizeMix> sizes = std::vector<SizeMix>(1);
  /// Demand-request size for MPU cores (a cache line).
  std::uint32_t demand_bytes = 32;

  std::uint32_t max_outstanding = 8;
  /// Open-loop core: the request rate is a real-time requirement (video
  /// pipelines), so credit accrues regardless of outstanding requests
  /// and the backlog grows when the memory system cannot keep up —
  /// which is exactly how congestion becomes latency in the paper's
  /// RTL testbench. Closed-loop (false) models cores that stall on
  /// outstanding requests, like a CPU on demand misses.
  bool open_loop = false;
  /// Probability the next request continues the sequential stream.
  double sequential_fraction = 0.9;

  /// Address region (frame buffers, bitstream buffers, ...).
  std::uint64_t region_base = 0;
  std::uint64_t region_bytes = 4u << 20;

  /// Placement priority for the A3MAP-substitute mapper (0 = use
  /// bytes_per_cycle). The MPU gets a large weight: its demand misses
  /// are latency-critical, so A3MAP places it next to the memory.
  double placement_weight = 0.0;

  /// Synthetic pattern overlay (kRandom reproduces the paper's model
  /// exactly; see TrafficPattern).
  TrafficPattern pattern = TrafficPattern::kRandom;
  /// kHotspot: probability a non-sequential jump lands in the hot
  /// sub-region at the start of the core's address region.
  double hotspot_fraction = 0.8;
  /// kHotspot: size of the hot sub-region in bytes (clamped to the
  /// region).
  std::uint64_t hotspot_bytes = 64u << 10;
  /// kBursty: cycles of each on phase (credit accrues / requests emit).
  Cycle burst_on_cycles = 2000;
  /// kBursty: cycles of each off phase (core is silent).
  Cycle burst_off_cycles = 2000;
  /// kFramePeriodic: frame period in cycles (e.g. clock_mhz * 1e6 / fps).
  Cycle frame_period = 16000;
  /// kFramePeriodic: leading fraction of each period the core is active
  /// (the frame's fetch/decode window; the rest of the period idles).
  double frame_active_fraction = 0.5;
};

/// A pattern's emission gate: open for the first `open` cycles of every
/// `period` (cycle numbers counted from 0). `period == 0` means always
/// open, which is every kRandom and kHotspot core.
struct GateCycle {
  Cycle period = 0;
  Cycle open = 0;
};

[[nodiscard]] inline GateCycle gate_cycle(const CoreSpec& s) {
  switch (s.pattern) {
    case TrafficPattern::kBursty:
      return {s.burst_on_cycles + s.burst_off_cycles, s.burst_on_cycles};
    case TrafficPattern::kFramePeriodic:
      return {s.frame_period,
              static_cast<Cycle>(s.frame_active_fraction *
                                 static_cast<double>(s.frame_period))};
    case TrafficPattern::kRandom:
    case TrafficPattern::kHotspot:
      break;
  }
  return {};
}

/// Is the per-cycle emission gate open at `now`? Pure function of the
/// cycle number (and the spec), so a skipping scheduler can count the
/// open cycles it jumped (open_cycles_before) and stay bit-identical
/// to dense stepping. Always true for kRandom and kHotspot.
[[nodiscard]] inline bool pattern_gate_open(const CoreSpec& s, Cycle now) {
  const GateCycle g = gate_cycle(s);
  return g.period == 0 || now % g.period < g.open;
}

/// First cycle >= `now` with the gate open (kNeverCycle when the gate
/// never opens, e.g. a zero-length on phase).
[[nodiscard]] inline Cycle pattern_next_open(const CoreSpec& s, Cycle now) {
  if (pattern_gate_open(s, now)) return now;
  const GateCycle g = gate_cycle(s);
  if (g.open == 0) return kNeverCycle;
  // The gate reopens at the start of the next period.
  return now + (g.period - now % g.period);
}

/// Number of cycles in [0, now) with the gate open, in O(1): the gate
/// repeats with its period, so whole periods contribute their open
/// cycles each and the partial period its open head.
[[nodiscard]] inline Cycle open_cycles_before(const CoreSpec& s, Cycle now) {
  const GateCycle g = gate_cycle(s);
  if (g.period == 0) return now;
  const Cycle open = std::min(g.open, g.period);
  return now / g.period * open + std::min(now % g.period, open);
}

}  // namespace annoc::traffic
