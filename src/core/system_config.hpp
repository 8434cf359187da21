/// \file system_config.hpp
/// One experiment point: design x application x DDR generation/clock,
/// plus the knobs the paper sweeps.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/tokens.hpp"
#include "common/types.hpp"
#include "fault/spec.hpp"
#include "noc/flow_controller.hpp"
#include "sdram/config.hpp"
#include "traffic/application.hpp"

namespace annoc::core {

/// The seven design points compared across the paper's tables.
enum class DesignPoint : std::uint8_t {
  kConv,        ///< round-robin NoC + MemMax/Databahn subsystem, BL8
  kConvPfs,     ///< CONV with priority-first routers and subsystem
  kRef4,        ///< [4]: SDRAM-aware NoC + streamlined subsystem, BL8
  kRef4Pfs,     ///< [4] with a priority-first stage
  kGss,         ///< GSS routers (Fig. 4a) + streamlined subsystem, BL8
  kGssSagm,     ///< GSS + SAGM splitting + BL4/OTF + AP subsystem
  kGssSagmSti,  ///< GSS (Fig. 4b) + SAGM
};

[[nodiscard]] inline const char* to_string(DesignPoint d) {
  switch (d) {
    case DesignPoint::kConv: return "CONV";
    case DesignPoint::kConvPfs: return "CONV+PFS";
    case DesignPoint::kRef4: return "[4]";
    case DesignPoint::kRef4Pfs: return "[4]+PFS";
    case DesignPoint::kGss: return "GSS";
    case DesignPoint::kGssSagm: return "GSS+SAGM";
    case DesignPoint::kGssSagmSti: return "GSS+SAGM+STI";
  }
  return "?";
}

/// Scenario-file tokens of the design points (`design`, and the design
/// argument of the example CLIs).
inline constexpr Token<DesignPoint> kDesignTokenList[] = {
    {"conv", DesignPoint::kConv},       {"conv+pfs", DesignPoint::kConvPfs},
    {"ref4", DesignPoint::kRef4},       {"ref4+pfs", DesignPoint::kRef4Pfs},
    {"gss", DesignPoint::kGss},         {"gss+sagm", DesignPoint::kGssSagm},
    {"gss+sagm+sti", DesignPoint::kGssSagmSti},
};
inline constexpr TokenSet<DesignPoint> kDesignTokens{"design",
                                                     kDesignTokenList};

/// Does this design split packets per SAGM?
[[nodiscard]] inline bool uses_sagm(DesignPoint d) {
  return d == DesignPoint::kGssSagm || d == DesignPoint::kGssSagmSti;
}

/// Does this design use the conventional (MemMax/Databahn) subsystem?
[[nodiscard]] inline bool uses_conv_subsystem(DesignPoint d) {
  return d == DesignPoint::kConv || d == DesignPoint::kConvPfs;
}

/// Memory-controller arbiter engine. The design point implies one
/// (CONV designs -> kConv, everything else -> kStreamlined); the
/// `engine` knob overrides that choice, and kDpq selects the Dynamic
/// Priority Queue arbiter with a provable worst-case latency bound
/// (arXiv 1207.1187, ROADMAP item 3).
enum class EngineKind : std::uint8_t {
  kConv,         ///< MemMax thread arbiter + Databahn look-ahead engine
  kStreamlined,  ///< FIFO front of the shared look-ahead command engine
  kDpq,          ///< DPQ bounded-latency arbiter (one request/requestor)
};

/// "gss_sagm" is the historical name of the streamlined subsystem (it
/// serves every non-CONV design point, GSS+SAGM first).
inline constexpr Token<EngineKind> kEngineTokenList[] = {
    {"conv", EngineKind::kConv},
    {"streamlined", EngineKind::kStreamlined},
    {"gss_sagm", EngineKind::kStreamlined},
    {"dpq", EngineKind::kDpq},
};
inline constexpr TokenSet<EngineKind> kEngineTokens{"engine",
                                                    kEngineTokenList};

[[nodiscard]] inline const char* to_string(EngineKind e) {
  return kEngineTokens.name(e);
}

/// The engine a design point runs when no `engine` override is given.
[[nodiscard]] inline EngineKind default_engine(DesignPoint d) {
  return uses_conv_subsystem(d) ? EngineKind::kConv
                                : EngineKind::kStreamlined;
}

/// Router flow-control kind for a design point.
[[nodiscard]] inline noc::FlowControlKind router_kind(DesignPoint d) {
  switch (d) {
    case DesignPoint::kConv: return noc::FlowControlKind::kRoundRobin;
    case DesignPoint::kConvPfs: return noc::FlowControlKind::kPriorityFirst;
    case DesignPoint::kRef4: return noc::FlowControlKind::kSdramAware;
    case DesignPoint::kRef4Pfs: return noc::FlowControlKind::kSdramAwarePfs;
    case DesignPoint::kGss: return noc::FlowControlKind::kGss;
    case DesignPoint::kGssSagm: return noc::FlowControlKind::kGss;
    case DesignPoint::kGssSagmSti: return noc::FlowControlKind::kGssSti;
  }
  return noc::FlowControlKind::kRoundRobin;
}

/// Device burst mode for a design point (Section V: CONV and [4] program
/// BL8 via MRS; SAGM programs BL4 on DDR I/II and BL4/BL8 OTF on
/// DDR III).
[[nodiscard]] inline sdram::BurstMode burst_mode(DesignPoint d,
                                                 sdram::DdrGeneration gen) {
  if (!uses_sagm(d)) return sdram::BurstMode::kBl8;
  return gen == sdram::DdrGeneration::kDdr3 ? sdram::BurstMode::kBl4Otf
                                            : sdram::BurstMode::kBl4;
}

/// Execution scheduling mode: how the simulator decides which cycles
/// and components to tick. Both modes produce bit-identical Metrics
/// (tests/event_sched_test.cpp and the differential fuzz harness
/// enforce it); they differ only in wall-clock speed.
enum class SchedMode : std::uint8_t {
  kDense,  ///< tick every component every cycle (the reference)
  kEvent,  ///< per-component wakeups via the EventQueue heap, with a
           ///< dense fallback while every cycle has work
};

inline constexpr Token<SchedMode> kSchedTokenList[] = {
    {"dense", SchedMode::kDense},
    {"event", SchedMode::kEvent},
};
inline constexpr TokenSet<SchedMode> kSchedTokens{"sched mode",
                                                  kSchedTokenList};

[[nodiscard]] inline const char* to_string(SchedMode m) {
  return kSchedTokens.name(m);
}

/// How much the observability layer records (see src/obs/ and the
/// DESIGN.md "Observability" chapter). Off is the measurement
/// configuration: no sink is attached and every emission site reduces to
/// one never-taken branch (or to nothing under
/// -DANNOC_DISABLE_OBSERVABILITY).
enum class ObserveLevel : std::uint8_t {
  kOff,       ///< no observers; zero-overhead measurement mode
  kCounters,  ///< fold events into Metrics::obs (per-router stall
              ///< histograms, per-bank tallies, GSS ladder occupancy)
  kFull,      ///< counters + high-volume per-router events in exports
};

inline constexpr Token<ObserveLevel> kObserveTokenList[] = {
    {"off", ObserveLevel::kOff},
    {"counters", ObserveLevel::kCounters},
    {"full", ObserveLevel::kFull},
};
inline constexpr TokenSet<ObserveLevel> kObserveTokens{"observe level",
                                                       kObserveTokenList};

[[nodiscard]] inline const char* to_string(ObserveLevel lv) {
  return kObserveTokens.name(lv);
}

/// Per-controller command-engine overrides for multi-controller
/// fabrics (SystemConfig::controller_overrides); unset fields fall
/// back to the global engine knobs.
struct ControllerOverrides {
  std::optional<EngineKind> engine;
  std::optional<std::uint32_t> engine_lookahead;
  std::optional<std::uint32_t> engine_reorder_depth;
  std::optional<std::uint32_t> engine_window;
};

struct SystemConfig {
  /// Which of the paper's seven design points to build (routers x
  /// memory subsystem x device burst mode); see README's table.
  DesignPoint design = DesignPoint::kGss;
  /// Workload: one of the paper's three multimedia SoC models.
  traffic::AppId app = traffic::AppId::kSingleDtv;
  /// When set, overrides `app`: simulate a user-defined SoC instead of
  /// one of the paper's three models (see examples/custom_soc.cpp).
  std::optional<traffic::Application> custom_app;
  /// SDRAM generation; selects the JEDEC-style timing parameter set.
  sdram::DdrGeneration generation = sdram::DdrGeneration::kDdr2;
  /// Memory clock in MHz (the single clock domain; ns timings are
  /// re-derived into cycles at this clock).
  double clock_mhz = 333.0;

  /// Table II mode: MPU demand requests become priority packets.
  bool priority_enabled = false;

  /// Model the read-data return path through a dedicated response mesh
  /// (default off: the paper measures the request path and SoCs run
  /// separate response networks; see core/response_path.hpp). When on,
  /// a read completes at its core only when the data lands, and
  /// Metrics::response_path records the return-stage latency.
  bool model_response_path = false;

  /// Length of the measurement window, in memory-clock cycles.
  Cycle sim_cycles = 200000;
  /// Cycles simulated before the window opens (queues fill, rows open);
  /// all rate counters are baseline-subtracted at the window start.
  Cycle warmup_cycles = 20000;
  /// After the measurement window closes, keep simulating (without
  /// generating new requests) for at most this many cycles so requests
  /// created inside the window still reach the latency statistics
  /// instead of being silently dropped — short windows would otherwise
  /// undercount tail latency. Measurement counters (utilization,
  /// measured_cycles) are frozen at the window edge; 0 disables the
  /// drain entirely (any still-outstanding requests are reported in
  /// Metrics::outstanding_requests either way).
  Cycle drain_cycle_limit = 20000;
  /// RNG seed for the traffic generators; runs are fully deterministic
  /// for a fixed (config, seed) pair.
  std::uint64_t seed = 42;

  /// Scheduling mode (see SchedMode). The event core wakes each
  /// component only at its next_event horizon and jumps the clock over
  /// cycles where none is due; the components that carry per-cycle
  /// state (traffic credit, starvation counters) replay skipped cycles
  /// exactly, so results are bit-identical to dense stepping — see
  /// DESIGN.md, "The next_event contract". Dense ticks every component
  /// every cycle: the reference, and what audit_horizons runs.
  SchedMode sched = SchedMode::kEvent;

  /// Audit the next_event contract while stepping: before each
  /// component's tick, capture its fresh horizon and a fingerprint of
  /// its observable state; if the tick changed the fingerprint although
  /// the horizon claimed the component had nothing to do this cycle,
  /// abort with the offender named. Catches stale/too-late horizons —
  /// the bugs that silently corrupt event-driven runs — at their
  /// source. Costs a few percent; meant for tests and triage runs, not
  /// measurement. An audited run steps densely whatever `sched` says
  /// (event mode *consumes* horizons; auditing needs the dense
  /// reference). It also re-derives each replayed router arbitration
  /// and each skipped downstream probe (DESIGN.md "Arbitration memo").
  bool audit_horizons = false;

  /// Memory-controller arbiter engine. Unset keeps the design point's
  /// implied engine (CONV designs use the MemMax/Databahn subsystem,
  /// everything else the streamlined one), so existing configurations
  /// stay bit-identical; set to EngineKind::kDpq for the
  /// bounded-latency Dynamic Priority Queue arbiter. Per-controller
  /// overrides (controller_overrides[].engine) refine this further in
  /// multi-controller fabrics. Resolve with resolved_engine().
  std::optional<EngineKind> engine;

  /// DPQ best-effort aging window in cycles (EngineKind::kDpq only):
  /// a best-effort request is promoted into the priority level after
  /// waiting this long, which is what bounds its latency. 0 derives
  /// the default n_requestors * dpq_slot_wcet() (see
  /// memctrl/dpq_bound.hpp); larger values favour priority traffic at
  /// the cost of a looser best-effort bound.
  Cycle dpq_promote_after = 0;

  /// GSS priority control token (2..5/6); paper Section IV-B.
  std::uint32_t pct = 4;

  /// Fig. 8: number of routers (closest to memory first) running the
  /// GSS flow control; the rest run priority-first. nullopt = all
  /// routers use the design's kind.
  std::optional<std::size_t> num_gss_routers;

  /// Memory-controller ablation knobs (nullopt = design-point default).
  /// Lookahead = banks prepared ahead of the oldest request;
  /// reorder depth = cross-master CAS slip window (1 = strictly
  /// in-order data, the dumbest paper-faithful controller).
  std::optional<std::uint32_t> engine_lookahead;
  std::optional<std::uint32_t> engine_reorder_depth;
  std::optional<std::uint32_t> engine_window;

  /// Address-map chunk size in bytes for the chunked bank-interleave
  /// policy (0 = default 256). Must divide the row size.
  std::uint32_t map_chunk_bytes = 0;

  /// Virtual channels per router input port (1 = wormhole, the paper's
  /// experimental configuration; >1 switches to virtual-channel flow
  /// control, the alternative Section IV-A mentions).
  std::uint32_t num_vcs = 1;

  /// Use minimal adaptive (negative-first, congestion-aware) routing
  /// instead of deterministic XY (Section IV-A allows either; the
  /// paper's experiments use XY, which stays the default).
  bool adaptive_routing = false;

  /// When non-empty, write one CSV row per completed subpacket to this
  /// path (see core/trace.hpp).
  std::string trace_path;

  /// When non-empty, record every generated parent request (cycle,
  /// core, address, direction, size, priority) to this path as a
  /// replayable trace — CSV unless the extension is .bin/.atrace (see
  /// traffic/trace_replay.hpp and docs/WORKLOADS.md). Works in any run,
  /// including one that is itself a replay.
  std::string record_trace_path;

  /// When non-empty, replace the random traffic generators with a
  /// trace replay: each core re-emits its slice of this trace file at
  /// the recorded cycles (open-loop, deterministic, skip aware). The application still supplies the mesh and core
  /// placement; records naming a nonexistent core are a load error.
  std::string replay_trace_path;

  /// Observability level (see ObserveLevel). Instrumentation is purely
  /// observational: Metrics are bit-identical at every level
  /// (tests/observability_test.cpp enforces this).
  ObserveLevel observe = ObserveLevel::kOff;

  /// When non-empty, write a Chrome trace_event / Perfetto JSON timeline
  /// to this path (packet lifecycles, per-bank state, command-bus
  /// occupancy; open at ui.perfetto.dev). Implies at least kCounters
  /// observation; combine with observe=kFull for per-router
  /// grant/stall/admit instants in the timeline.
  std::string perfetto_path;

  /// Self-checking layer (src/check/): attach the JEDEC TimingOracle and
  /// the ConservationChecker to the run and abort with a violation report
  /// if the simulation breaks a DDR timing constraint or loses/creates a
  /// packet. On by default — the checkers are pure event-stream observers
  /// and never perturb results; set false for measurement runs where the
  /// event-emission overhead matters, or build with -DANNOC_DISABLE_CHECKS
  /// to compile the layer out entirely.
  bool check = true;

  /// Enable the SDRAM refresh engine (periodic REF every tREFI with a
  /// forced-precharge drain; see sdram/device.cpp). Default off, matching
  /// the paper's evaluation; the refresh-under-load tests turn it on.
  bool refresh = false;

  /// Number of memory controllers (channels). 1 keeps the paper's
  /// single-subsystem fabric bit-exactly; N > 1 stripes the address
  /// space across N controllers (see interleave_shift) each hanging
  /// off its own NoC node (see mem_nodes).
  std::uint32_t num_controllers = 1;

  /// Channel-select granule as a power of two: consecutive
  /// (1 << interleave_shift)-byte granules go to consecutive
  /// controllers. nullopt derives it from the address-map chunk (so
  /// channel hops align with bank hops). Ignored when
  /// num_controllers == 1.
  std::optional<std::uint32_t> interleave_shift;

  /// NoC node of each controller (index == channel). Empty
  /// auto-places: the application's mem_node for one controller, a
  /// deterministic perimeter spread for more. Must have
  /// num_controllers entries when set.
  std::vector<NodeId> mem_nodes;

  /// Mesh preset "WxH" (e.g. "8x8", "16x16"): re-tile the selected
  /// application's cores round-robin onto a W x H mesh instead of its
  /// native geometry. Empty = native. Mutually exclusive with a custom
  /// topology.
  std::string mesh_preset;

  /// Per-controller command-engine overrides, indexed by channel;
  /// entries beyond the list (or unset fields) fall back to the global
  /// engine_window/engine_lookahead/engine_reorder_depth knobs.
  std::vector<ControllerOverrides> controller_overrides;

  /// Explicit fault-injection specs (src/fault/): each entry names a
  /// fault kind, its activation cycle and an optional end. Applied at
  /// fixed cycles in every sched mode (activation edges become event
  /// horizons), so faulted runs stay bit-identical across dense and
  /// event. See docs/RESILIENCE.md.
  std::vector<fault::FaultSpec> faults;

  /// Randomized fault schedule (the fuzz harness's fault leg): inject
  /// `fault_count` faults drawn deterministically from `fault_seed`,
  /// starting at `fault_start` and spaced `fault_spacing` cycles, each
  /// lasting `fault_duration` (0 = permanent). `fault_kinds` is a
  /// comma-separated kind filter, or "all". Random dead-link draws
  /// always keep every node connected to a memory controller; explicit
  /// `faults` entries may deliberately partition the fabric (that is
  /// the watchdog's test vector).
  std::uint64_t fault_seed = 0;
  std::uint32_t fault_count = 0;
  std::string fault_kinds = "all";
  Cycle fault_start = 30000;
  Cycle fault_spacing = 20000;
  Cycle fault_duration = 40000;

  /// Deadlock/livelock watchdog: if no forward progress happens
  /// anywhere (no injection, hop, ejection, SDRAM completion) for this
  /// many cycles while requests are outstanding, dump a structured
  /// diagnostic census through the obs layer and abort. 0 disables.
  /// Pure observer: a run that never deadlocks is bit-identical with
  /// the watchdog on or off.
  Cycle watchdog_cycles = 0;

  /// SAGM split granularity in beats; 0 = per-generation default.
  /// DDR I/II: 4 beats (one BL4 CAS, 2 bus cycles — the paper's "packet
  /// BL 2"). DDR III: 8 beats — tCCD = 4 cycles means a BL4 CAS cannot
  /// be followed for 4 cycles anyway, so splitting finer than 8 beats
  /// would idle half of every data slot (the paper's explanation of why
  /// SAGM gains less on DDR III).
  std::uint32_t split_beats = 0;

  /// The arbiter engine controller `channel` actually runs: its
  /// per-controller override when set, else the global `engine` knob,
  /// else the design point's implied engine.
  [[nodiscard]] EngineKind resolved_engine(std::uint32_t channel) const {
    if (channel < controller_overrides.size() &&
        controller_overrides[channel].engine) {
      return *controller_overrides[channel].engine;
    }
    if (engine) return *engine;
    return default_engine(design);
  }

  /// True when any controller of this config resolves to the DPQ
  /// engine (decides whether the LatencyBoundOracle attaches).
  [[nodiscard]] bool any_dpq_controller() const {
    for (std::uint32_t c = 0; c < num_controllers; ++c) {
      if (resolved_engine(c) == EngineKind::kDpq) return true;
    }
    return false;
  }
};

/// Resolve the SAGM split granularity for a generation.
[[nodiscard]] inline std::uint32_t default_split_beats(
    sdram::DdrGeneration gen) {
  return gen == sdram::DdrGeneration::kDdr3 ? 8u : 4u;
}

/// Parse a "WxH" mesh preset (e.g. "8x8", "16x16"). Dimensions are
/// capped at 64 per side — far beyond the paper's design space, small
/// enough to catch typos like "16x16000". Shared by the simulator
/// (which asserts on it) and the scenario loader (which turns a
/// violation into a positioned diagnostic).
[[nodiscard]] inline bool parse_mesh_preset(const std::string& s,
                                            std::uint32_t* w,
                                            std::uint32_t* h) {
  const std::size_t x = s.find('x');
  if (x == std::string::npos || x == 0 || x + 1 >= s.size()) return false;
  std::uint32_t dims[2] = {0, 0};
  const std::size_t starts[2] = {0, x + 1};
  const std::size_t ends[2] = {x, s.size()};
  for (int d = 0; d < 2; ++d) {
    for (std::size_t i = starts[d]; i < ends[d]; ++i) {
      if (s[i] < '0' || s[i] > '9') return false;
      dims[d] = dims[d] * 10 + static_cast<std::uint32_t>(s[i] - '0');
      if (dims[d] > 64) return false;
    }
    if (dims[d] == 0) return false;
  }
  *w = dims[0];
  *h = dims[1];
  return true;
}

}  // namespace annoc::core
