/// \file schema.hpp
/// The scenario-file schema as data: one KeyInfo row per accepted JSON
/// key, `{"key", "type", "default", binding, "doc"}`. The binding ties
/// the key to the struct member it sets (its kind, range and whether a
/// sweep axis may set it), and the loader, dumper, sweep overrides and
/// tools/gen_config_reference.py all read these rows: the generator
/// takes the first three and the last string literal of each row into
/// docs/CONFIG_REFERENCE.md. A row without a binding (`hand()`) is
/// parsed and dumped by hand in scenario.cpp: workload structure, names
/// and placement.
///
/// A new scalar knob is two edits: add the struct member (with its
/// default), then add one row binding it here. Tests check that every
/// row's default text matches the member's default and that every bound
/// row survives parse -> dump -> parse.
#pragma once

#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/parse_u64.hpp"
#include "common/tokens.hpp"
#include "core/system_config.hpp"
#include "fault/spec.hpp"
#include "noc/network.hpp"
#include "scenario/json.hpp"
#include "traffic/core_spec.hpp"

namespace annoc::scenario {

/// What JSON a bound key accepts, and how it maps onto its member.
enum class Kind : std::uint8_t {
  kHand,     ///< not bound: parsed and dumped by hand in scenario.cpp
  kBool,     ///< true or false
  kInt,      ///< an integer in [min, max]
  kDouble,   ///< a number in [min, max]
  kString,   ///< any string
  kOptInt,   ///< an integer in [min, max], or null = unset
  kSeed,     ///< an integer up to 2^53, or a decimal or 0x-hex string
  kEnum,     ///< a token of the member's enum (a number when ranged)
  kOptEnum,  ///< a token, or null = unset (an unset one is not dumped)
  kChecked,  ///< a string the row's check accepts
};

struct Binding {
  Kind kind = Kind::kHand;
  bool sweep = false;     ///< top level: may a sweep axis set this key?
  std::uint64_t min = 0;  ///< range of integer and number kinds
  std::uint64_t max = 0;
  /// faults[]: dump the key only for these kinds (bit per FaultKind);
  /// 0 dumps it for every kind.
  std::uint32_t variants = 0;
  /// Store JSON `v` into the member of `target` (an object of the row's
  /// struct); returns the diagnostic, or "" when `v` loads.
  std::string (*read)(const Binding&, const JsonValue& v,
                      void* target) = nullptr;
  /// The member of `target` as JSON text; "" leaves the key out.
  std::string (*write)(const Binding&, const void* target) = nullptr;

  /// Not sweepable: output paths, which every job of a sweep would share.
  [[nodiscard]] constexpr Binding fixed() const {
    Binding b = *this;
    b.sweep = false;
    return b;
  }
  template <class... E>
  [[nodiscard]] constexpr Binding only(E... kinds) const {
    Binding b = *this;
    b.variants = ((1u << static_cast<unsigned>(kinds)) | ...);
    return b;
  }
};

struct KeyInfo {
  std::string_view key;
  const char* type;  ///< string | number | bool | number|null | array | ...
  const char* def;   ///< default, as scenario-file text ("-" = required)
  Binding bind;
  const char* doc;

  /// The bound member of `target` as JSON text (see Binding::write).
  [[nodiscard]] std::string dump(const void* target) const {
    return bind.write(bind, target);
  }
};

// --- value checks, shared with ObjectReader --------------------------------
// Each stores the value and returns "", or returns the diagnostic.

/// Largest integer a JSON double carries exactly.
inline constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53

[[nodiscard]] inline std::string type_msg(const JsonValue& v,
                                          const char* want) {
  return std::string("expected ") + want + ", got " + to_string(v.kind);
}

[[nodiscard]] inline std::string read_u64(const JsonValue& v,
                                          std::uint64_t min,
                                          std::uint64_t max,
                                          std::uint64_t& out) {
  if (!v.is(JsonKind::kNumber)) return type_msg(v, "an integer");
  if (v.number < 0.0 || v.number != std::floor(v.number) ||
      v.number > kMaxExactInt) {
    return "expected a non-negative integer, got " + json_number(v.number);
  }
  out = static_cast<std::uint64_t>(v.number);
  if (out < min || out > max) {
    return "value " + std::to_string(out) + " out of range [" +
           std::to_string(min) + ", " + std::to_string(max) + "]";
  }
  return {};
}

[[nodiscard]] inline std::string read_double(const JsonValue& v, double min,
                                             double max, double& out) {
  if (!v.is(JsonKind::kNumber)) return type_msg(v, "a number");
  if (v.number < min || v.number > max) {
    return "value " + json_number(v.number) + " out of range [" +
           json_number(min) + ", " + json_number(max) + "]";
  }
  out = v.number;
  return {};
}

/// Seeds use the full 64-bit range, but a JSON number carries only 53
/// bits exactly, so larger seeds are written as a string.
[[nodiscard]] inline std::string read_seed(const JsonValue& v,
                                           std::uint64_t& out) {
  if (!v.is(JsonKind::kString)) return read_u64(v, 0, 1ull << 53, out);
  const std::optional<std::uint64_t> u = parse_u64(v.string);
  if (!u) {
    return "malformed seed string '" + v.string +
           "' (decimal or 0x-hex integer)";
  }
  out = *u;
  return {};
}

template <class E>
[[nodiscard]] std::string read_token(const JsonValue& v,
                                     const TokenSet<E>& set, E& out) {
  if (!v.is(JsonKind::kString)) return "expected a string";
  const std::optional<E> e = set.parse(v.string);
  if (!e) return set.unknown(v.string);
  out = *e;
  return {};
}

// --- bindings --------------------------------------------------------------

namespace bind_detail {

template <class>
struct Member;
template <class C, class T>
struct Member<T C::*> {
  using Class = C;
  using Type = T;
};

template <class T>
inline constexpr bool kIsOptional = false;
template <class T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

template <auto M>
auto& member(void* target) {
  return static_cast<typename Member<decltype(M)>::Class*>(target)->*M;
}
template <auto M>
const auto& member(const void* target) {
  return static_cast<const typename Member<decltype(M)>::Class*>(target)->*M;
}

template <class T>
constexpr Kind kind_of() {
  if constexpr (kIsOptional<T>) {
    return std::is_enum_v<typename T::value_type> ? Kind::kOptEnum
                                                  : Kind::kOptInt;
  } else if constexpr (std::is_same_v<T, bool>) {
    return Kind::kBool;
  } else if constexpr (std::is_same_v<T, double>) {
    return Kind::kDouble;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return Kind::kString;
  } else if constexpr (std::is_enum_v<T>) {
    return Kind::kEnum;
  } else {
    static_assert(std::is_unsigned_v<T>, "no scenario kind for this type");
    return Kind::kInt;
  }
}

/// JSON `v` into one value of a bound member. `spell` is a pointer to
/// an enum's TokenSet, or a string's validity check, or nullptr. A
/// ranged enum (`ddr`) is written as a number in [min, max] whose
/// decimal text is its token.
template <auto spell, class T>
std::string read_value(const Binding& b, const JsonValue& v, T& f) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!v.is(JsonKind::kBool)) return type_msg(v, "true or false");
    f = v.boolean;
  } else if constexpr (std::is_same_v<T, double>) {
    return read_double(v, static_cast<double>(b.min),
                       static_cast<double>(b.max), f);
  } else if constexpr (std::is_same_v<T, std::string>) {
    if constexpr (!std::is_null_pointer_v<decltype(spell)>) {
      if (!v.is(JsonKind::kString)) return "expected a string";
      if (std::string err = spell(v.string); !err.empty()) return err;
    } else if (!v.is(JsonKind::kString)) {
      return type_msg(v, "a string");
    }
    f = v.string;
  } else if constexpr (std::is_enum_v<T>) {
    if (b.max == 0) return read_token(v, *spell, f);
    std::uint64_t n = 0;
    std::string err = read_u64(v, b.min, b.max, n);
    if (err.empty()) f = *spell->parse(std::to_string(n));
    return err;
  } else {
    std::uint64_t u = 0;
    std::string err = b.kind == Kind::kSeed ? read_seed(v, u)
                                            : read_u64(v, b.min, b.max, u);
    if (err.empty()) f = static_cast<T>(u);
    return err;
  }
  return {};
}

template <auto spell, class T>
std::string write_value(const Binding& b, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_same_v<T, double>) {
    return json_number(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return json_quote(v);
  } else if constexpr (std::is_enum_v<T>) {
    return b.max == 0 ? json_quote(spell->name(v)) : spell->name(v);
  } else {
    const bool quote = b.kind == Kind::kSeed && v > (1ull << 53);
    return quote ? json_quote(std::to_string(v)) : std::to_string(v);
  }
}

template <auto M, auto spell>
std::string read_field(const Binding& b, const JsonValue& v, void* target) {
  auto& f = member<M>(target);
  using T = std::remove_cvref_t<decltype(f)>;
  if constexpr (kIsOptional<T>) {
    if (v.is(JsonKind::kNull)) {
      f.reset();
      return {};
    }
    typename T::value_type x{};
    std::string err = read_value<spell>(b, v, x);
    if (err.empty()) f = x;
    return err;
  } else {
    return read_value<spell>(b, v, f);
  }
}

/// An unset optional integer is written `null`; an unset optional enum
/// is left out, as its key was when the dump was hand-written.
template <auto M, auto spell>
std::string write_field(const Binding& b, const void* target) {
  const auto& f = member<M>(target);
  using T = std::remove_cvref_t<decltype(f)>;
  if constexpr (kIsOptional<T>) {
    if (f) return write_value<spell>(b, *f);
    return std::is_enum_v<typename T::value_type> ? "" : "null";
  } else {
    return write_value<spell>(b, f);
  }
}

template <auto M, auto spell = nullptr>
constexpr Binding bind(Kind kind, std::uint64_t min, std::uint64_t max) {
  return {kind, true, min, max, 0, &read_field<M, spell>,
          &write_field<M, spell>};
}

template <auto M>
using MemberType = typename Member<decltype(M)>::Type;

}  // namespace bind_detail

/// Bool, integer, number, string and optional-integer members: the kind
/// follows the member's type, and [min, max] bounds the numeric ones.
template <auto M>
constexpr Binding field(std::uint64_t min = 0, std::uint64_t max = 0) {
  using T = bind_detail::MemberType<M>;
  return bind_detail::bind<M>(bind_detail::kind_of<T>(), min, max);
}

/// 64-bit seeds: a number up to 2^53, or a decimal or 0x-hex string.
template <auto M>
constexpr Binding seed() {
  return bind_detail::bind<M>(Kind::kSeed, 0, 0);
}

/// Enum and optional-enum members, spelled by a TokenSet.
template <auto M, const auto& set>
constexpr Binding choice(std::uint64_t min = 0, std::uint64_t max = 0) {
  using T = bind_detail::MemberType<M>;
  return bind_detail::bind<M, &set>(bind_detail::kind_of<T>(), min, max);
}

/// String members whose value `check` validates (diagnostic, or "").
template <auto M, auto check>
constexpr Binding checked() {
  return bind_detail::bind<M, check>(Kind::kChecked, 0, 0);
}

/// A key parsed and dumped by hand; `sweep` lets a sweep axis set it.
constexpr Binding hand(bool sweep = false) {
  Binding b;
  b.sweep = sweep;
  return b;
}
inline constexpr bool kSweepable = true;

inline std::string check_mesh_preset(const std::string& s) {
  std::uint32_t w = 0, h = 0;
  if (s.empty() || core::parse_mesh_preset(s, &w, &h)) return {};
  return "malformed mesh preset '" + s +
         "'; expected \"WxH\" with 1 <= W,H <= 64";
}

inline std::string check_fault_kinds(const std::string& s) {
  const fault::FaultKindList list = fault::parse_fault_kinds(s);
  if (list.unknown.empty()) return {};
  return fault::kFaultKindTokens.unknown(list.unknown, "all");
}

// --- the tables ------------------------------------------------------------

using core::ControllerOverrides;
using core::SystemConfig;
using fault::FaultKind;
using fault::FaultSpec;
using noc::NocConfig;
using traffic::CoreSpec;

/// Top-level scenario keys. `app` and `cores`/`mesh` are mutually
/// exclusive ways to pick the workload; everything else maps onto one
/// core::SystemConfig member.
inline constexpr KeyInfo kScenarioKeys[] = {
    {"name", "string", "\"\"", hand(),
     "Display name for reports; also the application name of a custom core set."},
    {"design", "string", "gss",
     choice<&SystemConfig::design, core::kDesignTokens>(),
     "Design point: conv, conv+pfs, ref4, ref4+pfs, gss, gss+sagm or gss+sagm+sti."},
    {"app", "string", "sdtv", hand(kSweepable),
     "Paper application model: bluray, sdtv or ddtv. Mutually exclusive with cores/mesh."},
    {"ddr", "number", "2",
     choice<&SystemConfig::generation, sdram::kDdrTokens>(1, 3),
     "SDRAM generation: 1, 2 or 3 (selects the JEDEC-style timing set)."},
    {"clock_mhz", "number", "333", field<&SystemConfig::clock_mhz>(1, 100000),
     "Memory clock in MHz; ns timings are re-derived into cycles at this clock."},
    {"priority", "bool", "false", field<&SystemConfig::priority_enabled>(),
     "Table II mode: MPU demand requests become priority packets."},
    {"model_response_path", "bool", "false",
     field<&SystemConfig::model_response_path>(),
     "Model the read-data return mesh; reads complete when data lands at the core."},
    {"measure_cycles", "number", "200000",
     field<&SystemConfig::sim_cycles>(1, 1ull << 40),
     "Length of the measurement window in memory-clock cycles."},
    {"warmup_cycles", "number", "20000",
     field<&SystemConfig::warmup_cycles>(0, 1ull << 40),
     "Cycles simulated before the window opens (queues fill, rows open)."},
    {"drain_cycle_limit", "number", "20000",
     field<&SystemConfig::drain_cycle_limit>(0, 1ull << 40),
     "Post-window cycles allowed for in-window requests to complete; 0 disables."},
    {"seed", "number|string", "42", seed<&SystemConfig::seed>(),
     "Traffic RNG seed; write seeds above 2^53 as a decimal string."},
    {"sched", "string", "event",
     choice<&SystemConfig::sched, core::kSchedTokens>(),
     "Scheduler: event (wake each component at its next_event horizon, jump idle gaps) or dense (tick everything every cycle, the reference); bit-identical."},
    {"audit_horizons", "bool", "false", field<&SystemConfig::audit_horizons>(),
     "Debug: dense-step under per-component state fingerprints; abort when one acts past its reported next_event horizon, or when a replayed router arbitration differs from a fresh one."},
    {"pct", "number", "4", field<&SystemConfig::pct>(2, 6),
     "GSS priority control token threshold (2..6), paper Section IV-B."},
    {"num_gss_routers", "number|null", "null",
     field<&SystemConfig::num_gss_routers>(0, 1u << 12),
     "Fig. 8 sweep: routers (closest to memory first) running GSS; null = all."},
    {"engine", "string|null", "null",
     choice<&SystemConfig::engine, core::kEngineTokens>(),
     "Memory-controller arbiter engine: conv, streamlined (alias gss_sagm) or dpq (bounded-latency Dynamic Priority Queue); null keeps the design point's implied engine."},
    {"dpq_promote_after", "number", "0",
     field<&SystemConfig::dpq_promote_after>(0, 1ull << 32),
     "DPQ best-effort aging window in cycles before promotion to the priority level; 0 = derived default (n_requestors x worst-case service slot)."},
    {"engine_lookahead", "number|null", "null",
     field<&SystemConfig::engine_lookahead>(0, 64),
     "Controller ablation: banks prepared ahead of the oldest request (0 = none)."},
    {"engine_reorder_depth", "number|null", "null",
     field<&SystemConfig::engine_reorder_depth>(1, 1024),
     "Controller ablation: cross-master CAS slip window (1 = strictly in-order)."},
    {"engine_window", "number|null", "null",
     field<&SystemConfig::engine_window>(1, 1024),
     "Controller ablation: scheduler candidate window."},
    {"map_chunk_bytes", "number", "0",
     field<&SystemConfig::map_chunk_bytes>(0, 1u << 20),
     "Address-map chunk size for bank interleave; 0 = default 256."},
    {"num_vcs", "number", "1", field<&SystemConfig::num_vcs>(1, 16),
     "Virtual channels per router input port (1 = wormhole, the paper setup)."},
    {"adaptive_routing", "bool", "false",
     field<&SystemConfig::adaptive_routing>(),
     "Minimal adaptive routing instead of the paper's deterministic XY."},
    {"observe", "string", "off",
     choice<&SystemConfig::observe, core::kObserveTokens>(),
     "Observability level: off, counters or full (never perturbs Metrics)."},
    {"perfetto_path", "string", "\"\"",
     field<&SystemConfig::perfetto_path>().fixed(),
     "Write a Perfetto/Chrome trace-event timeline to this path."},
    {"trace_path", "string", "\"\"", field<&SystemConfig::trace_path>().fixed(),
     "Write one CSV row per completed subpacket to this path."},
    {"record_trace", "string", "\"\"",
     field<&SystemConfig::record_trace_path>().fixed(),
     "Record every generated request to this path as a replayable trace."},
    {"replay_trace", "string", "\"\"",
     field<&SystemConfig::replay_trace_path>().fixed(),
     "Replay this trace file instead of random traffic; resolved relative to the scenario file."},
    {"check", "bool", "true", field<&SystemConfig::check>(),
     "Attach the JEDEC timing oracle and conservation checker to the run."},
    {"refresh", "bool", "false", field<&SystemConfig::refresh>(),
     "Enable the SDRAM refresh engine (default off, matching the paper)."},
    {"split_beats", "number", "0", field<&SystemConfig::split_beats>(0, 64),
     "SAGM split granularity in beats; 0 = per-generation default (4, 4, 8)."},
    {"num_controllers", "number", "1",
     field<&SystemConfig::num_controllers>(1, 64),
     "Memory controllers (channels, 1..64); addresses stripe across them in channel granules."},
    {"interleave_shift", "number|null", "null",
     field<&SystemConfig::interleave_shift>(3, 30),
     "log2 of the channel-select granule in bytes (3..30); null matches the address-map chunk."},
    {"mesh_preset", "string", "\"\"",
     checked<&SystemConfig::mesh_preset, check_mesh_preset>(),
     "Re-tile the application onto a \"WxH\" mesh (e.g. \"8x8\", max 64x64); empty keeps the native geometry."},
    {"watchdog_cycles", "number", "0",
     field<&SystemConfig::watchdog_cycles>(0, 1ull << 40),
     "Deadlock/livelock watchdog: abort with a census dump after this many cycles without forward progress; 0 disables. Pure observer — never perturbs a completing run."},
    {"fault.seed", "number|string", "0", seed<&SystemConfig::fault_seed>(),
     "Random-fault RNG seed (independent of the traffic seed); write seeds above 2^53 as a decimal string."},
    {"fault.count", "number", "0", field<&SystemConfig::fault_count>(0, 4096),
     "Random faults drawn from the fabric; 0 = none. Random dead links always keep every node connected to a memory controller."},
    {"fault.kinds", "string", "all",
     checked<&SystemConfig::fault_kinds, check_fault_kinds>(),
     "Comma-separated kinds eligible for random draws: dead_link, degraded_link, slow_router, refresh_storm, throttled_banks — or all."},
    {"fault.start", "number", "30000",
     field<&SystemConfig::fault_start>(0, 1ull << 40),
     "Cycle the first random fault activates."},
    {"fault.spacing", "number", "20000",
     field<&SystemConfig::fault_spacing>(0, 1ull << 40),
     "Cycles between consecutive random-fault activations."},
    {"fault.duration", "number", "40000",
     field<&SystemConfig::fault_duration>(0, 1ull << 40),
     "Active window of each random fault in cycles; 0 = permanent."},
    {"faults", "array", "[]", hand(),
     "Explicit fault list (array of fault objects, see the fault keys); applied at fixed cycles in every sched mode."},
    {"topology", "object|string", "-", hand(),
     "Irregular fabric: inline topology object, or path to a topology JSON file (resolved against the scenario file). Requires cores with explicit nodes."},
    {"memory", "object", "-", hand(),
     "Controller placement and per-controller engine overrides (see the memory keys)."},
    {"mesh", "object", "-", hand(),
     "Mesh geometry for a custom core set; required with cores, rejected with app."},
    {"cores", "array", "-", hand(),
     "Custom core set (array of core objects); mutually exclusive with app."},
};

/// Keys of the `topology` object (inline, or the whole document of a
/// separate file named by a string-valued `topology` key). See
/// docs/TOPOLOGIES.md for the authoring guide.
inline constexpr KeyInfo kTopologyKeys[] = {
    {"nodes", "array", "-", hand(),
     "Node names: unique non-empty strings; array order defines the node ids."},
    {"links", "array", "-", hand(),
     "Undirected links: two-element [\"a\", \"b\"] pairs of node names or indices; at most 4 links per node, every node reachable from the first."},
    {"buffer_flits", "number", "16", field<&NocConfig::buffer_flits>(1, 4096),
     "Input buffer depth per port, in flits."},
    {"pipeline_latency", "number", "1",
     field<&NocConfig::pipeline_latency>(1, 64),
     "Router pipeline latency in cycles."},
};

/// Keys of the `memory` object.
inline constexpr KeyInfo kMemoryKeys[] = {
    {"nodes", "array", "auto", hand(),
     "One NoC node per controller (row-major id, or a node name in topology mode); num_controllers distinct entries. Omit to auto-place on the perimeter."},
    {"controllers", "array", "[]", hand(),
     "Per-controller engine overrides, indexed by channel (see the controller keys); at most num_controllers entries."},
};

/// Keys of one entry of `memory.controllers`; null (or an absent key)
/// falls back to the matching top-level engine knob.
inline constexpr KeyInfo kControllerKeys[] = {
    {"engine", "string|null", "null",
     choice<&ControllerOverrides::engine, core::kEngineTokens>(),
     "This controller's arbiter engine: conv, streamlined (alias gss_sagm) or dpq."},
    {"engine_lookahead", "number|null", "null",
     field<&ControllerOverrides::engine_lookahead>(0, 64),
     "This controller's bank-prepare lookahead."},
    {"engine_reorder_depth", "number|null", "null",
     field<&ControllerOverrides::engine_reorder_depth>(1, 1024),
     "This controller's cross-master CAS slip window (1 = strictly in-order)."},
    {"engine_window", "number|null", "null",
     field<&ControllerOverrides::engine_window>(1, 1024),
     "This controller's scheduler candidate window."},
};

/// Keys of one entry of the `faults` array (see docs/RESILIENCE.md for
/// the authoring guide). Which target keys apply depends on `kind`:
/// link faults use a/b, slow_router uses router/period, SDRAM faults use
/// channel plus their timing knobs; a dump writes only those.
inline constexpr KeyInfo kFaultKeys[] = {
    {"kind", "string", "-", hand(),
     "Fault kind: dead_link, degraded_link, slow_router, refresh_storm or throttled_banks."},
    {"at", "number", "0", field<&FaultSpec::at>(0, 1ull << 40),
     "Activation cycle."},
    {"until", "number", "0", field<&FaultSpec::until>(0, 1ull << 40),
     "Deactivation cycle (exclusive); 0 = permanent for the rest of the run."},
    {"a", "number", "0",
     field<&FaultSpec::a>(0, 4095)
         .only(FaultKind::kDeadLink, FaultKind::kDegradedLink),
     "Link faults: one endpoint router of the faulted link (row-major id)."},
    {"b", "number", "0",
     field<&FaultSpec::b>(0, 4095)
         .only(FaultKind::kDeadLink, FaultKind::kDegradedLink),
     "Link faults: the other endpoint router."},
    {"penalty", "number", "8",
     field<&FaultSpec::penalty>(1, 1u << 16).only(FaultKind::kDegradedLink),
     "degraded_link: extra cycles added to every transfer crossing the link."},
    {"router", "number", "0",
     field<&FaultSpec::router>(0, 4095).only(FaultKind::kSlowRouter),
     "slow_router: the throttled router."},
    {"period", "number", "4",
     field<&FaultSpec::period>(2, 1u << 16).only(FaultKind::kSlowRouter),
     "slow_router: the router arbitrates only every period-th cycle."},
    {"channel", "number", "0",
     field<&FaultSpec::channel>(0, 63)
         .only(FaultKind::kRefreshStorm, FaultKind::kThrottledBanks),
     "SDRAM faults: the affected controller channel."},
    {"trefi", "number", "0",
     field<&FaultSpec::trefi>(0, 1ull << 32).only(FaultKind::kRefreshStorm),
     "refresh_storm: the tightened tREFI in cycles (0 skips the fault); needs refresh=true."},
    {"banks", "number", "-1", hand(),
     "throttled_banks: bank bitmask (-1 = every bank)."},
    {"extra_trcd", "number", "0",
     field<&FaultSpec::extra_trcd>(0, 1u << 16)
         .only(FaultKind::kThrottledBanks),
     "throttled_banks: cycles added to tRCD on the masked banks."},
    {"extra_trp", "number", "0",
     field<&FaultSpec::extra_trp>(0, 1u << 16).only(FaultKind::kThrottledBanks),
     "throttled_banks: cycles added to tRP on the masked banks."},
};

/// Keys of the `mesh` object. `mem_node` is also checked against the
/// mesh size where it is read.
inline constexpr KeyInfo kMeshKeys[] = {
    {"width", "number", "-", field<&NocConfig::width>(1, 64),
     "Mesh width in routers."},
    {"height", "number", "-", field<&NocConfig::height>(1, 64),
     "Mesh height in routers."},
    {"mem_node", "number", "0", field<&NocConfig::mem_node>(0, 4095),
     "Node whose memory port hosts the SDRAM subsystem (row-major id)."},
    {"buffer_flits", "number", "16", field<&NocConfig::buffer_flits>(1, 4096),
     "Input buffer depth per port, in flits."},
    {"pipeline_latency", "number", "1",
     field<&NocConfig::pipeline_latency>(1, 64),
     "Router pipeline latency in cycles."},
};

/// Keys of one entry of the `cores` array. `node` is all-or-none across
/// the array: explicit nodes place cores directly (partial meshes are
/// fine); omitting them auto-places with the A3MAP substitute, which
/// needs exactly width*height cores.
inline constexpr KeyInfo kCoreKeys[] = {
    {"name", "string", "-", hand(),
     "Core name (metrics are reported per name)."},
    {"node", "number|string", "auto", hand(),
     "Mesh node (row-major id), or a node name in topology mode; omit on every core to auto-place by weight (mesh only)."},
    {"bytes_per_cycle", "number", "1.0",
     field<&CoreSpec::bytes_per_cycle>(0, 1000000),
     "Offered useful payload rate, bytes per memory-clock cycle."},
    {"read_fraction", "number", "0.7", field<&CoreSpec::read_fraction>(0, 1),
     "Fraction of requests that are reads."},
    {"sequential_fraction", "number", "0.9",
     field<&CoreSpec::sequential_fraction>(0, 1),
     "Probability the next request continues the sequential stream."},
    {"sizes", "array", "[{\"bytes\": 32, \"weight\": 1.0}]", hand(),
     "Request-size mix: array of {bytes, weight} objects, weights > 0."},
    {"max_outstanding", "number", "8",
     field<&CoreSpec::max_outstanding>(1, 4096),
     "In-flight request cap; a closed-loop core stops accruing credit at the cap."},
    {"open_loop", "bool", "false", field<&CoreSpec::open_loop>(),
     "Real-time source: credit accrues regardless of outstanding requests."},
    {"is_mpu", "bool", "false", field<&CoreSpec::is_mpu>(),
     "MPU-class core; its demand share turns priority under priority=true."},
    {"demand_fraction", "number", "0.0",
     field<&CoreSpec::demand_fraction>(0, 1),
     "Fraction of requests that are demand-class (vs stream/prefetch)."},
    {"demand_bytes", "number", "32",
     field<&CoreSpec::demand_bytes>(1, 1u << 20),
     "Demand request size (a cache line)."},
    {"region_base", "number", "auto", hand(),
     "Address-region base; omit to lay regions out back to back."},
    {"region_bytes", "number", "4194304",
     field<&CoreSpec::region_bytes>(4096, 1ull << 40),
     "Address-region size in bytes."},
    {"placement_weight", "number", "0.0",
     field<&CoreSpec::placement_weight>(0, 1000000),
     "Auto-placement priority; 0 = use bytes_per_cycle."},
    {"pattern", "string", "random",
     choice<&CoreSpec::pattern, traffic::kPatternTokens>(),
     "Traffic pattern: random, hotspot, bursty or frame."},
    {"hotspot_fraction", "number", "0.8",
     field<&CoreSpec::hotspot_fraction>(0, 1),
     "hotspot: probability a jump lands in the hot sub-region."},
    {"hotspot_bytes", "number", "65536",
     field<&CoreSpec::hotspot_bytes>(1, 1ull << 40),
     "hotspot: hot sub-region size in bytes (clamped to the region)."},
    {"burst_on_cycles", "number", "2000",
     field<&CoreSpec::burst_on_cycles>(0, 1ull << 40),
     "bursty: cycles of each on phase."},
    {"burst_off_cycles", "number", "2000",
     field<&CoreSpec::burst_off_cycles>(0, 1ull << 40),
     "bursty: cycles of each off phase (core is silent)."},
    {"frame_period", "number", "16000",
     field<&CoreSpec::frame_period>(0, 1ull << 40),
     "frame: frame period in cycles (clock_mhz * 1e6 / fps)."},
    {"frame_active_fraction", "number", "0.5",
     field<&CoreSpec::frame_active_fraction>(0, 1),
     "frame: leading fraction of each period the core is active."},
};

}  // namespace annoc::scenario
