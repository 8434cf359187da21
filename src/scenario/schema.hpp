/// \file schema.hpp
/// The scenario-file schema as data: one KeyInfo row per accepted JSON
/// key, with its type, default and one-line doc. scenario.cpp validates
/// against these tables (unknown keys are reported with their source
/// line), and tools/gen_config_reference.py parses this file to emit
/// the "Scenario file schema" tables in docs/CONFIG_REFERENCE.md — keep
/// each entry in the `{"key", "type", "default", "doc"},` shape the
/// generator greps for. docs/WORKLOADS.md is the narrative companion.
#pragma once

#include <cstddef>

namespace annoc::scenario {

struct KeyInfo {
  const char* key;
  const char* type;  ///< string | number | bool | number|null | array | object
  const char* def;   ///< default, as scenario-file text ("-" = required)
  const char* doc;
};

/// Top-level scenario keys. `app` and `cores`/`mesh` are mutually
/// exclusive ways to pick the workload; everything else maps onto one
/// core::SystemConfig field (defaults match that struct exactly).
inline constexpr KeyInfo kScenarioKeys[] = {
    {"name", "string", "\"\"",
     "Display name for reports; also the application name of a custom core set."},
    {"design", "string", "gss",
     "Design point: conv, conv+pfs, ref4, ref4+pfs, gss, gss+sagm or gss+sagm+sti."},
    {"app", "string", "sdtv",
     "Paper application model: bluray, sdtv or ddtv. Mutually exclusive with cores/mesh."},
    {"ddr", "number", "2",
     "SDRAM generation: 1, 2 or 3 (selects the JEDEC-style timing set)."},
    {"clock_mhz", "number", "333",
     "Memory clock in MHz; ns timings are re-derived into cycles at this clock."},
    {"priority", "bool", "false",
     "Table II mode: MPU demand requests become priority packets."},
    {"model_response_path", "bool", "false",
     "Model the read-data return mesh; reads complete when data lands at the core."},
    {"measure_cycles", "number", "200000",
     "Length of the measurement window in memory-clock cycles."},
    {"warmup_cycles", "number", "20000",
     "Cycles simulated before the window opens (queues fill, rows open)."},
    {"drain_cycle_limit", "number", "20000",
     "Post-window cycles allowed for in-window requests to complete; 0 disables."},
    {"seed", "number|string", "42",
     "Traffic RNG seed; write seeds above 2^53 as a decimal string."},
    {"fast_forward", "bool", "true",
     "Idle-cycle fast-forward; bit-identical to dense stepping, just faster."},
    {"sched", "string|null", "null",
     "Scheduler: dense, fast_forward or event (all bit-identical); overrides the fast_forward bool, null keeps its meaning."},
    {"audit_horizons", "bool", "false",
     "Debug: dense-step under per-component state fingerprints; abort when one acts past its reported next_event horizon, or when a replayed router arbitration differs from a fresh one."},
    {"pct", "number", "4",
     "GSS priority control token threshold (2..6), paper Section IV-B."},
    {"num_gss_routers", "number|null", "null",
     "Fig. 8 sweep: routers (closest to memory first) running GSS; null = all."},
    {"engine", "string|null", "null",
     "Memory-controller arbiter engine: conv, streamlined (alias gss_sagm) or dpq (bounded-latency Dynamic Priority Queue); null keeps the design point's implied engine."},
    {"dpq_promote_after", "number", "0",
     "DPQ best-effort aging window in cycles before promotion to the priority level; 0 = derived default (n_requestors x worst-case service slot)."},
    {"engine_lookahead", "number|null", "null",
     "Controller ablation: banks prepared ahead of the oldest request (0 = none)."},
    {"engine_reorder_depth", "number|null", "null",
     "Controller ablation: cross-master CAS slip window (1 = strictly in-order)."},
    {"engine_window", "number|null", "null",
     "Controller ablation: scheduler candidate window."},
    {"map_chunk_bytes", "number", "0",
     "Address-map chunk size for bank interleave; 0 = default 256."},
    {"num_vcs", "number", "1",
     "Virtual channels per router input port (1 = wormhole, the paper setup)."},
    {"adaptive_routing", "bool", "false",
     "Minimal adaptive routing instead of the paper's deterministic XY."},
    {"observe", "string", "off",
     "Observability level: off, counters or full (never perturbs Metrics)."},
    {"perfetto_path", "string", "\"\"",
     "Write a Perfetto/Chrome trace-event timeline to this path."},
    {"trace_path", "string", "\"\"",
     "Write one CSV row per completed subpacket to this path."},
    {"record_trace", "string", "\"\"",
     "Record every generated request to this path as a replayable trace."},
    {"replay_trace", "string", "\"\"",
     "Replay this trace file instead of random traffic; resolved relative to the scenario file."},
    {"check", "bool", "true",
     "Attach the JEDEC timing oracle and conservation checker to the run."},
    {"refresh", "bool", "false",
     "Enable the SDRAM refresh engine (default off, matching the paper)."},
    {"split_beats", "number", "0",
     "SAGM split granularity in beats; 0 = per-generation default (4, 4, 8)."},
    {"num_controllers", "number", "1",
     "Memory controllers (channels, 1..64); addresses stripe across them in channel granules."},
    {"interleave_shift", "number|null", "null",
     "log2 of the channel-select granule in bytes (3..30); null matches the address-map chunk."},
    {"mesh_preset", "string", "\"\"",
     "Re-tile the application onto a \"WxH\" mesh (e.g. \"8x8\", max 64x64); empty keeps the native geometry."},
    {"watchdog_cycles", "number", "0",
     "Deadlock/livelock watchdog: abort with a census dump after this many cycles without forward progress; 0 disables. Pure observer — never perturbs a completing run."},
    {"fault.seed", "number|string", "0",
     "Random-fault RNG seed (independent of the traffic seed); write seeds above 2^53 as a decimal string."},
    {"fault.count", "number", "0",
     "Random faults drawn from the fabric; 0 = none. Random dead links always keep every node connected to a memory controller."},
    {"fault.kinds", "string", "all",
     "Comma-separated kinds eligible for random draws: dead_link, degraded_link, slow_router, refresh_storm, throttled_banks — or all."},
    {"fault.start", "number", "30000",
     "Cycle the first random fault activates."},
    {"fault.spacing", "number", "20000",
     "Cycles between consecutive random-fault activations."},
    {"fault.duration", "number", "40000",
     "Active window of each random fault in cycles; 0 = permanent."},
    {"faults", "array", "[]",
     "Explicit fault list (array of fault objects, see the fault keys); applied at fixed cycles in every sched mode."},
    {"topology", "object|string", "-",
     "Irregular fabric: inline topology object, or path to a topology JSON file (resolved against the scenario file). Requires cores with explicit nodes."},
    {"memory", "object", "-",
     "Controller placement and per-controller engine overrides (see the memory keys)."},
    {"mesh", "object", "-",
     "Mesh geometry for a custom core set; required with cores, rejected with app."},
    {"cores", "array", "-",
     "Custom core set (array of core objects); mutually exclusive with app."},
};

/// Keys of the `topology` object (inline, or the whole document of a
/// separate file named by a string-valued `topology` key). See
/// docs/TOPOLOGIES.md for the authoring guide.
inline constexpr KeyInfo kTopologyKeys[] = {
    {"nodes", "array", "-",
     "Node names: unique non-empty strings; array order defines the node ids."},
    {"links", "array", "-",
     "Undirected links: two-element [\"a\", \"b\"] pairs of node names or indices; at most 4 links per node, every node reachable from the first."},
    {"buffer_flits", "number", "16", "Input buffer depth per port, in flits."},
    {"pipeline_latency", "number", "1", "Router pipeline latency in cycles."},
};

/// Keys of the `memory` object.
inline constexpr KeyInfo kMemoryKeys[] = {
    {"nodes", "array", "auto",
     "One NoC node per controller (row-major id, or a node name in topology mode); num_controllers distinct entries. Omit to auto-place on the perimeter."},
    {"controllers", "array", "[]",
     "Per-controller engine overrides, indexed by channel (see the controller keys); at most num_controllers entries."},
};

/// Keys of one entry of `memory.controllers`; null (or an absent key)
/// falls back to the matching top-level engine knob.
inline constexpr KeyInfo kControllerKeys[] = {
    {"engine", "string|null", "null",
     "This controller's arbiter engine: conv, streamlined (alias gss_sagm) or dpq."},
    {"engine_lookahead", "number|null", "null",
     "This controller's bank-prepare lookahead."},
    {"engine_reorder_depth", "number|null", "null",
     "This controller's cross-master CAS slip window (1 = strictly in-order)."},
    {"engine_window", "number|null", "null",
     "This controller's scheduler candidate window."},
};

/// Keys of one entry of the `faults` array (see docs/RESILIENCE.md for
/// the authoring guide). Which target keys apply depends on `kind`:
/// link faults use a/b, slow_router uses router/period, SDRAM faults use
/// channel plus their timing knobs.
inline constexpr KeyInfo kFaultKeys[] = {
    {"kind", "string", "-",
     "Fault kind: dead_link, degraded_link, slow_router, refresh_storm or throttled_banks."},
    {"at", "number", "0", "Activation cycle."},
    {"until", "number", "0",
     "Deactivation cycle (exclusive); 0 = permanent for the rest of the run."},
    {"a", "number", "0",
     "Link faults: one endpoint router of the faulted link (row-major id)."},
    {"b", "number", "0", "Link faults: the other endpoint router."},
    {"penalty", "number", "8",
     "degraded_link: extra cycles added to every transfer crossing the link."},
    {"router", "number", "0", "slow_router: the throttled router."},
    {"period", "number", "4",
     "slow_router: the router arbitrates only every period-th cycle."},
    {"channel", "number", "0",
     "SDRAM faults: the affected controller channel."},
    {"trefi", "number", "0",
     "refresh_storm: the tightened tREFI in cycles (0 skips the fault); needs refresh=true."},
    {"banks", "number", "-1",
     "throttled_banks: bank bitmask (-1 = every bank)."},
    {"extra_trcd", "number", "0",
     "throttled_banks: cycles added to tRCD on the masked banks."},
    {"extra_trp", "number", "0",
     "throttled_banks: cycles added to tRP on the masked banks."},
};

/// Keys of the `mesh` object.
inline constexpr KeyInfo kMeshKeys[] = {
    {"width", "number", "-", "Mesh width in routers."},
    {"height", "number", "-", "Mesh height in routers."},
    {"mem_node", "number", "0",
     "Node whose memory port hosts the SDRAM subsystem (row-major id)."},
    {"buffer_flits", "number", "16", "Input buffer depth per port, in flits."},
    {"pipeline_latency", "number", "1", "Router pipeline latency in cycles."},
};

/// Keys of one entry of the `cores` array. `node` is all-or-none across
/// the array: explicit nodes place cores directly (partial meshes are
/// fine); omitting them auto-places with the A3MAP substitute, which
/// needs exactly width*height cores.
inline constexpr KeyInfo kCoreKeys[] = {
    {"name", "string", "-", "Core name (metrics are reported per name)."},
    {"node", "number|string", "auto",
     "Mesh node (row-major id), or a node name in topology mode; omit on every core to auto-place by weight (mesh only)."},
    {"bytes_per_cycle", "number", "1.0",
     "Offered useful payload rate, bytes per memory-clock cycle."},
    {"read_fraction", "number", "0.7", "Fraction of requests that are reads."},
    {"sequential_fraction", "number", "0.9",
     "Probability the next request continues the sequential stream."},
    {"sizes", "array", "[{\"bytes\": 32, \"weight\": 1.0}]",
     "Request-size mix: array of {bytes, weight} objects, weights > 0."},
    {"max_outstanding", "number", "8",
     "In-flight request cap; a closed-loop core stops accruing credit at the cap."},
    {"open_loop", "bool", "false",
     "Real-time source: credit accrues regardless of outstanding requests."},
    {"is_mpu", "bool", "false",
     "MPU-class core; its demand share turns priority under priority=true."},
    {"demand_fraction", "number", "0.0",
     "Fraction of requests that are demand-class (vs stream/prefetch)."},
    {"demand_bytes", "number", "32", "Demand request size (a cache line)."},
    {"region_base", "number", "auto",
     "Address-region base; omit to lay regions out back to back."},
    {"region_bytes", "number", "4194304", "Address-region size in bytes."},
    {"placement_weight", "number", "0.0",
     "Auto-placement priority; 0 = use bytes_per_cycle."},
    {"pattern", "string", "random",
     "Traffic pattern: random, hotspot, bursty or frame."},
    {"hotspot_fraction", "number", "0.8",
     "hotspot: probability a jump lands in the hot sub-region."},
    {"hotspot_bytes", "number", "65536",
     "hotspot: hot sub-region size in bytes (clamped to the region)."},
    {"burst_on_cycles", "number", "2000", "bursty: cycles of each on phase."},
    {"burst_off_cycles", "number", "2000",
     "bursty: cycles of each off phase (core is silent)."},
    {"frame_period", "number", "16000",
     "frame: frame period in cycles (clock_mhz * 1e6 / fps)."},
    {"frame_active_fraction", "number", "0.5",
     "frame: leading fraction of each period the core is active."},
};

inline constexpr std::size_t kNumScenarioKeys =
    sizeof(kScenarioKeys) / sizeof(kScenarioKeys[0]);
inline constexpr std::size_t kNumMeshKeys =
    sizeof(kMeshKeys) / sizeof(kMeshKeys[0]);
inline constexpr std::size_t kNumCoreKeys =
    sizeof(kCoreKeys) / sizeof(kCoreKeys[0]);
inline constexpr std::size_t kNumTopologyKeys =
    sizeof(kTopologyKeys) / sizeof(kTopologyKeys[0]);
inline constexpr std::size_t kNumMemoryKeys =
    sizeof(kMemoryKeys) / sizeof(kMemoryKeys[0]);
inline constexpr std::size_t kNumControllerKeys =
    sizeof(kControllerKeys) / sizeof(kControllerKeys[0]);
inline constexpr std::size_t kNumFaultKeys =
    sizeof(kFaultKeys) / sizeof(kFaultKeys[0]);

}  // namespace annoc::scenario
