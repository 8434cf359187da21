#include "scenario/scenario.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "common/assert.hpp"
#include "fault/spec.hpp"
#include "noc/topology.hpp"
#include "scenario/json.hpp"
#include "scenario/schema.hpp"

namespace annoc::scenario {
namespace {

/// Largest integer a JSON double carries exactly.
constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53

/// Typed, schema-checked view of one JSON object. Construction rejects
/// unknown keys (pointing at the key's own line); getters reject wrong
/// types and out-of-range values the same way.
class ObjectReader {
 public:
  ObjectReader(const JsonValue& obj, const KeyInfo* schema,
               std::size_t schema_len, const std::string& origin,
               const char* what)
      : obj_(obj), origin_(origin) {
    for (const JsonMember& m : obj.object) {
      bool known = false;
      for (std::size_t i = 0; i < schema_len; ++i) {
        if (m.name == schema[i].key) {
          known = true;
          break;
        }
      }
      if (!known) {
        throw ParseError(origin_, m.line, m.column, m.name,
                         std::string("unknown ") + what +
                             " key (see docs/WORKLOADS.md for the schema)");
      }
    }
  }

  [[nodiscard]] const JsonMember* find(std::string_view key) const {
    return obj_.find(key);
  }

  [[noreturn]] void fail(const JsonMember& m, const std::string& msg) const {
    throw ParseError(origin_, m.line, m.column, m.name, msg);
  }

  /// Error anchored at the object itself (for missing required keys).
  [[noreturn]] void fail_missing(const std::string& key) const {
    throw ParseError(origin_, obj_.line, obj_.column, key,
                     "required key is missing");
  }

  [[nodiscard]] bool get_bool(std::string_view key, bool def) const {
    const JsonMember* m = find(key);
    if (m == nullptr) return def;
    if (!m->value().is(JsonKind::kBool)) {
      fail(*m, type_msg(*m, "true or false"));
    }
    return m->value().boolean;
  }

  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string def) const {
    const JsonMember* m = find(key);
    if (m == nullptr) return def;
    if (!m->value().is(JsonKind::kString)) {
      fail(*m, type_msg(*m, "a string"));
    }
    return m->value().string;
  }

  [[nodiscard]] double get_double(std::string_view key, double def,
                                  double min, double max) const {
    const JsonMember* m = find(key);
    if (m == nullptr) return def;
    return double_of(*m, min, max);
  }

  [[nodiscard]] std::uint64_t get_u64(std::string_view key,
                                      std::uint64_t def,
                                      std::uint64_t min = 0,
                                      std::uint64_t max = 1ull << 53) const {
    const JsonMember* m = find(key);
    if (m == nullptr) return def;
    return u64_of(*m, min, max);
  }

  [[nodiscard]] std::uint64_t require_u64(std::string_view key,
                                          std::uint64_t min,
                                          std::uint64_t max) const {
    const JsonMember* m = find(key);
    if (m == nullptr) fail_missing(std::string(key));
    return u64_of(*m, min, max);
  }

  /// "number|null" knobs (nullopt = design default).
  [[nodiscard]] std::optional<std::uint32_t> get_opt_u32(
      std::string_view key, std::uint64_t min, std::uint64_t max) const {
    const JsonMember* m = find(key);
    if (m == nullptr || m->value().is(JsonKind::kNull)) return std::nullopt;
    return static_cast<std::uint32_t>(u64_of(*m, min, max));
  }

  [[nodiscard]] double double_of(const JsonMember& m, double min,
                                 double max) const {
    if (!m.value().is(JsonKind::kNumber)) {
      fail(m, type_msg(m, "a number"));
    }
    const double v = m.value().number;
    if (v < min || v > max) {
      fail(m, "value " + json_number(v) + " out of range [" +
                  json_number(min) + ", " + json_number(max) + "]");
    }
    return v;
  }

  [[nodiscard]] std::uint64_t u64_of(const JsonMember& m, std::uint64_t min,
                                     std::uint64_t max) const {
    if (!m.value().is(JsonKind::kNumber)) {
      fail(m, type_msg(m, "an integer"));
    }
    const double v = m.value().number;
    if (v < 0.0 || v != std::floor(v) || v > kMaxExactInt) {
      fail(m, "expected a non-negative integer, got " + json_number(v));
    }
    const auto u = static_cast<std::uint64_t>(v);
    if (u < min || u > max) {
      fail(m, "value " + std::to_string(u) + " out of range [" +
                  std::to_string(min) + ", " + std::to_string(max) + "]");
    }
    return u;
  }

 private:
  [[nodiscard]] static std::string type_msg(const JsonMember& m,
                                            const char* want) {
    return std::string("expected ") + want + ", got " +
           to_string(m.value().kind);
  }

  const JsonValue& obj_;
  const std::string& origin_;
};

core::DesignPoint parse_design(const ObjectReader& r,
                               core::DesignPoint current) {
  const JsonMember* m = r.find("design");
  if (m == nullptr) return current;
  if (!m->value().is(JsonKind::kString)) {
    r.fail(*m, "expected a string");
  }
  const std::string& s = m->value().string;
  if (s == "conv") return core::DesignPoint::kConv;
  if (s == "conv+pfs") return core::DesignPoint::kConvPfs;
  if (s == "ref4") return core::DesignPoint::kRef4;
  if (s == "ref4+pfs") return core::DesignPoint::kRef4Pfs;
  if (s == "gss") return core::DesignPoint::kGss;
  if (s == "gss+sagm") return core::DesignPoint::kGssSagm;
  if (s == "gss+sagm+sti") return core::DesignPoint::kGssSagmSti;
  r.fail(*m, "unknown design '" + s +
                 "'; expected conv, conv+pfs, ref4, ref4+pfs, gss, "
                 "gss+sagm or gss+sagm+sti");
}

traffic::AppId parse_app(const ObjectReader& r, const JsonMember& m) {
  if (!m.value().is(JsonKind::kString)) {
    r.fail(m, "expected a string");
  }
  const std::string& s = m.value().string;
  if (s == "bluray") return traffic::AppId::kBluray;
  if (s == "sdtv") return traffic::AppId::kSingleDtv;
  if (s == "ddtv") return traffic::AppId::kDualDtv;
  r.fail(m, "unknown application '" + s +
                "'; expected bluray, sdtv or ddtv");
}

sdram::DdrGeneration parse_ddr(const ObjectReader& r,
                               sdram::DdrGeneration current) {
  if (r.find("ddr") == nullptr) return current;
  switch (r.get_u64("ddr", 2, 1, 3)) {
    case 1: return sdram::DdrGeneration::kDdr1;
    case 3: return sdram::DdrGeneration::kDdr3;
    default: return sdram::DdrGeneration::kDdr2;
  }
}

core::ObserveLevel parse_observe(const ObjectReader& r,
                                 core::ObserveLevel current) {
  const JsonMember* m = r.find("observe");
  if (m == nullptr) return current;
  if (!m->value().is(JsonKind::kString)) {
    r.fail(*m, "expected a string");
  }
  const std::string& s = m->value().string;
  if (s == "off") return core::ObserveLevel::kOff;
  if (s == "counters") return core::ObserveLevel::kCounters;
  if (s == "full") return core::ObserveLevel::kFull;
  r.fail(*m, "unknown observe level '" + s +
                 "'; expected off, counters or full");
}

std::optional<core::SchedMode> parse_sched(
    const ObjectReader& r, std::optional<core::SchedMode> current) {
  const JsonMember* m = r.find("sched");
  if (m == nullptr) return current;
  if (!m->value().is(JsonKind::kString)) {
    r.fail(*m, "expected a string");
  }
  const std::string& s = m->value().string;
  if (s == "dense") return core::SchedMode::kDense;
  if (s == "fast_forward") return core::SchedMode::kFastForward;
  if (s == "event") return core::SchedMode::kEvent;
  r.fail(*m, "unknown sched mode '" + s +
                 "'; expected dense, fast_forward or event");
}

std::optional<core::EngineKind> parse_engine(
    const ObjectReader& r, std::optional<core::EngineKind> current) {
  const JsonMember* m = r.find("engine");
  if (m == nullptr) return current;
  if (m->value().is(JsonKind::kNull)) return std::nullopt;
  if (!m->value().is(JsonKind::kString)) {
    r.fail(*m, "expected a string");
  }
  const std::string& s = m->value().string;
  if (s == "conv") return core::EngineKind::kConv;
  // "gss_sagm" is accepted as the historical name of the streamlined
  // subsystem (it serves every non-CONV design point, GSS+SAGM first).
  if (s == "streamlined" || s == "gss_sagm") {
    return core::EngineKind::kStreamlined;
  }
  if (s == "dpq") return core::EngineKind::kDpq;
  r.fail(*m, "unknown engine '" + s +
                 "'; expected conv, streamlined (alias gss_sagm) or dpq");
}

traffic::TrafficPattern parse_pattern(const ObjectReader& r) {
  const JsonMember* m = r.find("pattern");
  if (m == nullptr) return traffic::TrafficPattern::kRandom;
  if (!m->value().is(JsonKind::kString)) {
    r.fail(*m, "expected a string");
  }
  const std::string& s = m->value().string;
  if (s == "random") return traffic::TrafficPattern::kRandom;
  if (s == "hotspot") return traffic::TrafficPattern::kHotspot;
  if (s == "bursty") return traffic::TrafficPattern::kBursty;
  if (s == "frame") return traffic::TrafficPattern::kFramePeriodic;
  r.fail(*m, "unknown pattern '" + s +
                 "'; expected random, hotspot, bursty or frame");
}

std::vector<traffic::SizeMix> parse_sizes(const ObjectReader& core_r,
                                          const std::string& origin) {
  const JsonMember* m = core_r.find("sizes");
  if (m == nullptr) return {{32, 1.0}};
  if (!m->value().is(JsonKind::kArray) || m->value().array.empty()) {
    core_r.fail(*m, "expected a non-empty array of {bytes, weight} objects");
  }
  std::vector<traffic::SizeMix> mix;
  for (const JsonValue& e : m->value().array) {
    if (!e.is(JsonKind::kObject)) {
      throw ParseError(origin, e.line, e.column, "sizes",
                       "each size entry must be a {bytes, weight} object");
    }
    static constexpr KeyInfo kSizeKeys[] = {
        {"bytes", "number", "-", ""},
        {"weight", "number", "-", ""},
    };
    ObjectReader er(e, kSizeKeys, 2, origin, "size entry");
    traffic::SizeMix sm;
    sm.bytes = static_cast<std::uint32_t>(
        er.require_u64("bytes", 1, 1u << 20));
    const JsonMember* w = er.find("weight");
    if (w == nullptr) er.fail_missing("weight");
    sm.weight = er.double_of(*w, 0.0, 1.0e12);
    if (sm.weight <= 0.0) {
      er.fail(*w, "weight must be > 0");
    }
    mix.push_back(sm);
  }
  return mix;
}

/// Apply every *present* top-level scalar key onto `cfg`, leaving
/// absent keys at their current value. Shared between parse_scenario
/// (where cfg starts at the struct defaults, so "keep current" equals
/// the documented schema defaults) and apply_overrides (where cfg is an
/// already-loaded base config and a sweep point perturbs a few knobs).
void apply_scalar_keys(const ObjectReader& r, core::SystemConfig& cfg) {
  cfg.design = parse_design(r, cfg.design);
  cfg.generation = parse_ddr(r, cfg.generation);
  cfg.clock_mhz = r.get_double("clock_mhz", cfg.clock_mhz, 1.0, 100000.0);
  cfg.priority_enabled = r.get_bool("priority", cfg.priority_enabled);
  cfg.model_response_path =
      r.get_bool("model_response_path", cfg.model_response_path);
  cfg.sim_cycles = r.get_u64("measure_cycles", cfg.sim_cycles, 1, 1ull << 40);
  cfg.warmup_cycles =
      r.get_u64("warmup_cycles", cfg.warmup_cycles, 0, 1ull << 40);
  cfg.drain_cycle_limit =
      r.get_u64("drain_cycle_limit", cfg.drain_cycle_limit, 0, 1ull << 40);
  // Seeds use the full 64-bit range; a JSON number only carries 53 bits
  // exactly, so large seeds are written (and accepted) as a decimal
  // string instead of silently losing low bits.
  if (const JsonMember* m = r.find("seed")) {
    if (m->value().is(JsonKind::kString)) {
      const std::string& sv = m->value().string;
      char* end = nullptr;
      errno = 0;
      const std::uint64_t v = std::strtoull(sv.c_str(), &end, 0);
      if (sv.empty() || end != sv.c_str() + sv.size() || errno == ERANGE) {
        r.fail(*m, "malformed seed string '" + sv +
                       "' (decimal or 0x-hex integer)");
      }
      cfg.seed = v;
    } else {
      cfg.seed = r.u64_of(*m, 0, 1ull << 53);
    }
  }
  cfg.fast_forward = r.get_bool("fast_forward", cfg.fast_forward);
  cfg.sched = parse_sched(r, cfg.sched);
  cfg.audit_horizons = r.get_bool("audit_horizons", cfg.audit_horizons);
  cfg.pct = static_cast<std::uint32_t>(r.get_u64("pct", cfg.pct, 2, 6));
  if (r.find("num_gss_routers") != nullptr) {
    cfg.num_gss_routers = r.get_opt_u32("num_gss_routers", 0, 1u << 12);
  }
  cfg.engine = parse_engine(r, cfg.engine);
  cfg.dpq_promote_after =
      r.get_u64("dpq_promote_after", cfg.dpq_promote_after, 0, 1ull << 32);
  if (r.find("engine_lookahead") != nullptr) {
    cfg.engine_lookahead = r.get_opt_u32("engine_lookahead", 0, 64);
  }
  if (r.find("engine_reorder_depth") != nullptr) {
    cfg.engine_reorder_depth = r.get_opt_u32("engine_reorder_depth", 1, 1024);
  }
  if (r.find("engine_window") != nullptr) {
    cfg.engine_window = r.get_opt_u32("engine_window", 1, 1024);
  }
  cfg.map_chunk_bytes = static_cast<std::uint32_t>(
      r.get_u64("map_chunk_bytes", cfg.map_chunk_bytes, 0, 1u << 20));
  cfg.num_vcs =
      static_cast<std::uint32_t>(r.get_u64("num_vcs", cfg.num_vcs, 1, 16));
  cfg.adaptive_routing = r.get_bool("adaptive_routing", cfg.adaptive_routing);
  cfg.observe = parse_observe(r, cfg.observe);
  cfg.perfetto_path = r.get_string("perfetto_path", cfg.perfetto_path);
  cfg.trace_path = r.get_string("trace_path", cfg.trace_path);
  cfg.record_trace_path = r.get_string("record_trace", cfg.record_trace_path);
  cfg.replay_trace_path = r.get_string("replay_trace", cfg.replay_trace_path);
  cfg.check = r.get_bool("check", cfg.check);
  cfg.refresh = r.get_bool("refresh", cfg.refresh);
  cfg.split_beats = static_cast<std::uint32_t>(
      r.get_u64("split_beats", cfg.split_beats, 0, 64));
  cfg.num_controllers = static_cast<std::uint32_t>(
      r.get_u64("num_controllers", cfg.num_controllers, 1, 64));
  if (r.find("interleave_shift") != nullptr) {
    cfg.interleave_shift = r.get_opt_u32("interleave_shift", 3, 30);
  }
  if (const JsonMember* m = r.find("mesh_preset")) {
    if (!m->value().is(JsonKind::kString)) {
      r.fail(*m, "expected a string");
    }
    const std::string& s = m->value().string;
    std::uint32_t w = 0, h = 0;
    if (!s.empty() && !core::parse_mesh_preset(s, &w, &h)) {
      r.fail(*m, "malformed mesh preset '" + s +
                     "'; expected \"WxH\" with 1 <= W,H <= 64");
    }
    cfg.mesh_preset = s;
  }
  cfg.watchdog_cycles =
      r.get_u64("watchdog_cycles", cfg.watchdog_cycles, 0, 1ull << 40);
  // fault.seed follows the same string-or-number convention as seed.
  if (const JsonMember* m = r.find("fault.seed")) {
    if (m->value().is(JsonKind::kString)) {
      const std::string& sv = m->value().string;
      char* end = nullptr;
      errno = 0;
      const std::uint64_t v = std::strtoull(sv.c_str(), &end, 0);
      if (sv.empty() || end != sv.c_str() + sv.size() || errno == ERANGE) {
        r.fail(*m, "malformed seed string '" + sv +
                       "' (decimal or 0x-hex integer)");
      }
      cfg.fault_seed = v;
    } else {
      cfg.fault_seed = r.u64_of(*m, 0, 1ull << 53);
    }
  }
  cfg.fault_count = static_cast<std::uint32_t>(
      r.get_u64("fault.count", cfg.fault_count, 0, 4096));
  if (const JsonMember* m = r.find("fault.kinds")) {
    if (!m->value().is(JsonKind::kString)) {
      r.fail(*m, "expected a string");
    }
    const std::string& s = m->value().string;
    if (s != "all" && !s.empty()) {
      std::string_view rest = s;
      while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        std::string_view tok = rest.substr(0, comma);
        rest = comma == std::string_view::npos ? std::string_view{}
                                               : rest.substr(comma + 1);
        while (!tok.empty() && tok.front() == ' ') tok.remove_prefix(1);
        while (!tok.empty() && tok.back() == ' ') tok.remove_suffix(1);
        if (tok.empty()) continue;
        if (!fault::parse_fault_kind(tok)) {
          r.fail(*m, "unknown fault kind '" + std::string(tok) +
                         "'; expected dead_link, degraded_link, "
                         "slow_router, refresh_storm, throttled_banks "
                         "or all");
        }
      }
    }
    cfg.fault_kinds = s;
  }
  cfg.fault_start = r.get_u64("fault.start", cfg.fault_start, 0, 1ull << 40);
  cfg.fault_spacing =
      r.get_u64("fault.spacing", cfg.fault_spacing, 0, 1ull << 40);
  cfg.fault_duration =
      r.get_u64("fault.duration", cfg.fault_duration, 0, 1ull << 40);
  // Cross-field: a channel granule wider than the address-map chunk
  // would let one request straddle two controllers. Only diagnosable
  // here when one of the involved keys is present; the MemoryMap
  // asserts the same invariant at simulator construction.
  const std::uint32_t chunk =
      cfg.map_chunk_bytes != 0 ? cfg.map_chunk_bytes : 256u;
  if (cfg.num_controllers > 1 && cfg.interleave_shift &&
      (std::uint64_t{1} << *cfg.interleave_shift) > chunk) {
    const JsonMember* m = r.find("interleave_shift");
    if (m == nullptr) m = r.find("map_chunk_bytes");
    if (m == nullptr) m = r.find("num_controllers");
    if (m != nullptr) {
      r.fail(*m, "channel granule (1 << " +
                     std::to_string(*cfg.interleave_shift) + " = " +
                     std::to_string(std::uint64_t{1}
                                    << *cfg.interleave_shift) +
                     " bytes) exceeds the address-map chunk (" +
                     std::to_string(chunk) +
                     " bytes); a request could straddle two controllers");
    }
  }
}

/// One entry of the `cores` array -> CoreSpec (+ optional node/region).
struct ParsedCore {
  traffic::CoreSpec spec;
  std::optional<NodeId> node;
  bool explicit_region = false;
  const JsonValue* value = nullptr;
};

ParsedCore parse_core(const JsonValue& v, const std::string& origin,
                      std::uint64_t mesh_nodes,
                      const noc::TopologySpec* topo) {
  if (!v.is(JsonKind::kObject)) {
    throw ParseError(origin, v.line, v.column, "cores",
                     "each core must be an object");
  }
  ObjectReader r(v, kCoreKeys, kNumCoreKeys, origin, "core");
  ParsedCore pc;
  pc.value = &v;
  traffic::CoreSpec& s = pc.spec;
  {
    const JsonMember* m = r.find("name");
    if (m == nullptr) r.fail_missing("name");
    if (!m->value().is(JsonKind::kString) || m->value().string.empty()) {
      r.fail(*m, "expected a non-empty string");
    }
    s.name = m->value().string;
  }
  if (const JsonMember* m = r.find("node")) {
    if (m->value().is(JsonKind::kString)) {
      if (topo == nullptr) {
        r.fail(*m, "node names need a topology; meshes place cores by "
                   "row-major id");
      }
      const std::optional<NodeId> idx = topo->index_of(m->value().string);
      if (!idx) {
        r.fail(*m, "unknown node '" + m->value().string +
                       "' (not in topology.nodes)");
      }
      pc.node = *idx;
    } else {
      pc.node = static_cast<NodeId>(r.u64_of(*m, 0, mesh_nodes - 1));
    }
  }
  s.bytes_per_cycle = r.get_double("bytes_per_cycle", 1.0, 0.0, 1.0e6);
  s.read_fraction = r.get_double("read_fraction", 0.7, 0.0, 1.0);
  s.sequential_fraction = r.get_double("sequential_fraction", 0.9, 0.0, 1.0);
  s.sizes = parse_sizes(r, origin);
  s.max_outstanding =
      static_cast<std::uint32_t>(r.get_u64("max_outstanding", 8, 1, 4096));
  s.open_loop = r.get_bool("open_loop", false);
  s.is_mpu = r.get_bool("is_mpu", false);
  s.demand_fraction = r.get_double("demand_fraction", 0.0, 0.0, 1.0);
  s.demand_bytes =
      static_cast<std::uint32_t>(r.get_u64("demand_bytes", 32, 1, 1u << 20));
  if (const JsonMember* m = r.find("region_base")) {
    pc.explicit_region = true;
    s.region_base = r.u64_of(*m, 0, 1ull << 48);
  }
  s.region_bytes = r.get_u64("region_bytes", 4u << 20, 4096, 1ull << 40);
  s.placement_weight = r.get_double("placement_weight", 0.0, 0.0, 1.0e6);
  s.pattern = parse_pattern(r);
  s.hotspot_fraction = r.get_double("hotspot_fraction", 0.8, 0.0, 1.0);
  s.hotspot_bytes = r.get_u64("hotspot_bytes", 64u << 10, 1, 1ull << 40);
  s.burst_on_cycles = r.get_u64("burst_on_cycles", 2000, 0, 1ull << 40);
  s.burst_off_cycles = r.get_u64("burst_off_cycles", 2000, 0, 1ull << 40);
  s.frame_period = r.get_u64("frame_period", 16000, 0, 1ull << 40);
  s.frame_active_fraction =
      r.get_double("frame_active_fraction", 0.5, 0.0, 1.0);
  // The largest request must fit in the region (the generator wraps the
  // cursor, but a request bigger than the region cannot be addressed).
  std::uint64_t largest = s.demand_bytes;
  for (const traffic::SizeMix& sm : s.sizes) {
    largest = std::max<std::uint64_t>(largest, sm.bytes);
  }
  if (largest > s.region_bytes) {
    throw ParseError(origin, v.line, v.column, "region_bytes",
                     "region (" + std::to_string(s.region_bytes) +
                         " bytes) is smaller than the largest request (" +
                         std::to_string(largest) + " bytes)");
  }
  return pc;
}

/// A parsed `topology` key: the validated spec plus the router knobs
/// that live beside it (an irregular fabric has no `mesh` object to
/// carry them).
struct ParsedTopology {
  std::shared_ptr<noc::TopologySpec> spec;
  std::uint32_t buffer_flits = 16;
  std::uint32_t pipeline_latency = 1;
};

/// One endpoint of a link entry: a node name or a bare index.
NodeId parse_link_endpoint(const JsonValue& e, const noc::TopologySpec& spec,
                           const std::string& origin) {
  if (e.is(JsonKind::kString)) {
    const std::optional<NodeId> idx = spec.index_of(e.string);
    if (!idx) {
      throw ParseError(origin, e.line, e.column, "links",
                       "unknown node '" + e.string +
                           "' (not in topology.nodes)");
    }
    return *idx;
  }
  if (!e.is(JsonKind::kNumber)) {
    throw ParseError(origin, e.line, e.column, "links",
                     "link endpoints are node names or indices, got " +
                         std::string(to_string(e.kind)));
  }
  const double v = e.number;
  if (v < 0.0 || v != std::floor(v) ||
      v >= static_cast<double>(spec.num_nodes())) {
    throw ParseError(origin, e.line, e.column, "links",
                     "node index out of range [0, " +
                         std::to_string(spec.num_nodes() - 1) + "]");
  }
  return static_cast<NodeId>(v);
}

/// Parse and fully validate a topology object. Every structural issue
/// TopologyIssue can report is re-checked key-by-key here so the
/// diagnostic carries the offending member's file position; the final
/// validate_topology call catches what the per-key checks cannot see
/// ahead of time (connectivity) and guards against drift between the
/// two layers.
ParsedTopology parse_topology_object(const JsonValue& v,
                                     const std::string& origin) {
  if (!v.is(JsonKind::kObject)) {
    throw ParseError(origin, v.line, v.column, "topology",
                     "expected an object or a file path string");
  }
  ObjectReader r(v, kTopologyKeys, kNumTopologyKeys, origin, "topology");
  ParsedTopology out;
  out.spec = std::make_shared<noc::TopologySpec>();
  noc::TopologySpec& spec = *out.spec;

  const JsonMember* nodes_m = r.find("nodes");
  if (nodes_m == nullptr) r.fail_missing("nodes");
  if (!nodes_m->value().is(JsonKind::kArray) ||
      nodes_m->value().array.empty()) {
    r.fail(*nodes_m, "expected a non-empty array of node names");
  }
  if (nodes_m->value().array.size() > 4096) {
    r.fail(*nodes_m, "more than 4096 nodes");
  }
  for (const JsonValue& e : nodes_m->value().array) {
    if (!e.is(JsonKind::kString) || e.string.empty()) {
      throw ParseError(origin, e.line, e.column, "nodes",
                       "each node is a non-empty name string");
    }
    if (spec.index_of(e.string)) {
      throw ParseError(origin, e.line, e.column, "nodes",
                       "duplicate node name '" + e.string + "'");
    }
    spec.node_names.push_back(e.string);
  }

  const JsonMember* links_m = r.find("links");
  if (links_m == nullptr) r.fail_missing("links");
  if (!links_m->value().is(JsonKind::kArray)) {
    r.fail(*links_m, "expected an array of [\"a\", \"b\"] pairs");
  }
  std::vector<std::uint32_t> degree(spec.num_nodes(), 0);
  for (const JsonValue& e : links_m->value().array) {
    if (!e.is(JsonKind::kArray) || e.array.size() != 2) {
      throw ParseError(origin, e.line, e.column, "links",
                       "each link is a two-element [\"a\", \"b\"] pair");
    }
    const NodeId a = parse_link_endpoint(e.array[0], spec, origin);
    const NodeId b = parse_link_endpoint(e.array[1], spec, origin);
    if (a == b) {
      throw ParseError(origin, e.line, e.column, "links",
                       "node '" + spec.node_names[a] +
                           "' is linked to itself");
    }
    for (const noc::TopologySpec::Edge& prev : spec.links) {
      if ((prev.a == a && prev.b == b) || (prev.a == b && prev.b == a)) {
        throw ParseError(origin, e.line, e.column, "links",
                         "duplicate link between '" + spec.node_names[a] +
                             "' and '" + spec.node_names[b] + "'");
      }
    }
    for (const NodeId n : {a, b}) {
      if (degree[n] == 4) {
        throw ParseError(origin, e.line, e.column, "links",
                         "node '" + spec.node_names[n] +
                             "' needs a fifth link; a router has 4 "
                             "neighbour ports");
      }
      ++degree[n];
    }
    spec.links.push_back({a, b});
  }

  const noc::TopologyIssue issue = noc::validate_topology(spec);
  if (!issue.ok()) {
    // Connectivity (and any check the per-key loop above missed).
    throw ParseError(origin, v.line, v.column, "topology",
                     issue.message(spec));
  }

  out.buffer_flits =
      static_cast<std::uint32_t>(r.get_u64("buffer_flits", 16, 1, 4096));
  out.pipeline_latency =
      static_cast<std::uint32_t>(r.get_u64("pipeline_latency", 1, 1, 64));
  return out;
}

/// Resolve a string-valued `topology` key: read the named file
/// (relative paths resolve against the scenario's directory) and parse
/// the whole document as one topology object, so its diagnostics are
/// positioned inside the topology file.
ParsedTopology load_topology_file(const ObjectReader& r, const JsonMember& m,
                                  const std::string& base_dir) {
  std::string path = m.value().string;
  if (path.empty()) {
    r.fail(m, "topology file path is empty");
  }
  if (path.front() != '/' && !base_dir.empty()) {
    path = base_dir + "/" + path;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    r.fail(m, "cannot open topology file '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  return parse_topology_object(parse_json(text, path), path);
}

traffic::Application build_custom_app(const ObjectReader& top,
                                      const JsonMember* mesh_m,
                                      const JsonMember& cores_m,
                                      const ParsedTopology* topo,
                                      const std::string& name,
                                      const std::string& origin) {
  noc::NocConfig noc;
  std::uint64_t nodes = 0;
  if (topo != nullptr) {
    // Irregular fabric: node count and wiring come from the spec;
    // width/height only satisfy the mesh invariant width*height == n.
    noc.topology = topo->spec;
    nodes = topo->spec->num_nodes();
    noc.width = static_cast<std::uint32_t>(nodes);
    noc.height = 1;
    noc.mem_node = 0;
    noc.buffer_flits = topo->buffer_flits;
    noc.pipeline_latency = topo->pipeline_latency;
  } else {
    if (!mesh_m->value().is(JsonKind::kObject)) {
      top.fail(*mesh_m, "expected an object");
    }
    ObjectReader mr(mesh_m->value(), kMeshKeys, kNumMeshKeys, origin, "mesh");
    noc.width = static_cast<std::uint32_t>(mr.require_u64("width", 1, 64));
    noc.height = static_cast<std::uint32_t>(mr.require_u64("height", 1, 64));
    nodes = static_cast<std::uint64_t>(noc.width) * noc.height;
    noc.mem_node =
        static_cast<NodeId>(mr.get_u64("mem_node", 0, 0, nodes - 1));
    noc.buffer_flits =
        static_cast<std::uint32_t>(mr.get_u64("buffer_flits", 16, 1, 4096));
    noc.pipeline_latency =
        static_cast<std::uint32_t>(mr.get_u64("pipeline_latency", 1, 1, 64));
  }

  if (!cores_m.value().is(JsonKind::kArray) ||
      cores_m.value().array.empty()) {
    top.fail(cores_m, "expected a non-empty array of core objects");
  }
  std::vector<ParsedCore> cores;
  for (const JsonValue& v : cores_m.value().array) {
    cores.push_back(
        parse_core(v, origin, nodes, topo ? topo->spec.get() : nullptr));
  }

  // node and region_base are each all-or-none across the array: mixing
  // placed and auto-placed cores (or laid-out and auto-laid regions)
  // has no sensible meaning, so it is an error, not a guess.
  const std::size_t with_node = static_cast<std::size_t>(
      std::count_if(cores.begin(), cores.end(),
                    [](const ParsedCore& c) { return c.node.has_value(); }));
  const std::size_t with_region = static_cast<std::size_t>(std::count_if(
      cores.begin(), cores.end(),
      [](const ParsedCore& c) { return c.explicit_region; }));
  if (with_node != 0 && with_node != cores.size()) {
    const auto& c = *std::find_if(
        cores.begin(), cores.end(),
        [](const ParsedCore& pc) { return !pc.node.has_value(); });
    throw ParseError(origin, c.value->line, c.value->column, "node",
                     "either every core names a node or none does "
                     "(auto-placement)");
  }
  if (with_region != 0 && with_region != cores.size()) {
    const auto& c = *std::find_if(
        cores.begin(), cores.end(),
        [](const ParsedCore& pc) { return !pc.explicit_region; });
    throw ParseError(origin, c.value->line, c.value->column, "region_base",
                     "either every core names a region_base or none does "
                     "(back-to-back layout)");
  }
  if (topo != nullptr && with_node != cores.size()) {
    const auto& c = *std::find_if(
        cores.begin(), cores.end(),
        [](const ParsedCore& pc) { return !pc.node.has_value(); });
    throw ParseError(origin, c.value->line, c.value->column, "node",
                     "topology mode places cores explicitly: give every "
                     "core a node (auto-placement is a mesh concept)");
  }

  if (with_region == 0) {
    std::uint64_t cursor = 0;
    for (ParsedCore& c : cores) {
      c.spec.region_base = cursor;
      cursor += c.spec.region_bytes;
    }
  }

  if (with_node == cores.size()) {
    // Explicit placement: nodes must be distinct; partial meshes are
    // fine (routers without a core simply forward traffic).
    std::vector<bool> used(nodes, false);
    traffic::Application app;
    app.name = name;
    app.noc = noc;
    for (ParsedCore& c : cores) {
      const NodeId n = *c.node;
      if (used[n]) {
        throw ParseError(origin, c.value->line, c.value->column, "node",
                         "node " + std::to_string(n) +
                             " is assigned to two cores");
      }
      used[n] = true;
      app.cores.push_back({std::move(c.spec), n});
    }
    return app;
  }

  // Auto-placement (the A3MAP substitute) fills the whole mesh.
  if (cores.size() != nodes) {
    top.fail(cores_m,
             "auto-placement needs exactly width*height (" +
                 std::to_string(nodes) + ") cores, got " +
                 std::to_string(cores.size()) +
                 "; give every core an explicit node for a partial mesh");
  }
  std::vector<traffic::CoreSpec> specs;
  specs.reserve(cores.size());
  for (ParsedCore& c : cores) specs.push_back(std::move(c.spec));
  return traffic::place_application(name, noc, std::move(specs));
}

/// Parse the `memory` object into cfg.mem_nodes (controller placement)
/// and cfg.controller_overrides. `fabric_nodes` is the node count of
/// the final fabric (after any mesh_preset re-tiling).
void parse_memory(const ObjectReader& top, const JsonMember& m,
                  core::SystemConfig& cfg, const noc::TopologySpec* topo,
                  std::uint64_t fabric_nodes, const std::string& origin) {
  if (!m.value().is(JsonKind::kObject)) {
    top.fail(m, "expected an object");
  }
  ObjectReader r(m.value(), kMemoryKeys, kNumMemoryKeys, origin, "memory");
  if (const JsonMember* nm = r.find("nodes")) {
    if (!nm->value().is(JsonKind::kArray) || nm->value().array.empty()) {
      r.fail(*nm, "expected a non-empty array of controller nodes");
    }
    if (nm->value().array.size() != cfg.num_controllers) {
      r.fail(*nm, "expected one node per controller (num_controllers = " +
                      std::to_string(cfg.num_controllers) + "), got " +
                      std::to_string(nm->value().array.size()));
    }
    std::vector<NodeId> mems;
    for (const JsonValue& e : nm->value().array) {
      NodeId n = 0;
      if (e.is(JsonKind::kString)) {
        if (topo == nullptr) {
          throw ParseError(origin, e.line, e.column, "nodes",
                           "node names need a topology; meshes place "
                           "controllers by row-major id");
        }
        const std::optional<NodeId> idx = topo->index_of(e.string);
        if (!idx) {
          throw ParseError(origin, e.line, e.column, "nodes",
                           "unknown node '" + e.string +
                               "' (not in topology.nodes)");
        }
        n = *idx;
      } else if (e.is(JsonKind::kNumber)) {
        const double v = e.number;
        if (v < 0.0 || v != std::floor(v) ||
            v >= static_cast<double>(fabric_nodes)) {
          throw ParseError(origin, e.line, e.column, "nodes",
                           "node index out of range [0, " +
                               std::to_string(fabric_nodes - 1) + "]");
        }
        n = static_cast<NodeId>(v);
      } else {
        throw ParseError(origin, e.line, e.column, "nodes",
                         "controller nodes are names or indices, got " +
                             std::string(to_string(e.kind)));
      }
      if (std::find(mems.begin(), mems.end(), n) != mems.end()) {
        throw ParseError(origin, e.line, e.column, "nodes",
                         "node " + std::to_string(n) +
                             " hosts two controllers");
      }
      mems.push_back(n);
    }
    cfg.mem_nodes = std::move(mems);
  }
  if (const JsonMember* cm = r.find("controllers")) {
    if (!cm->value().is(JsonKind::kArray)) {
      r.fail(*cm, "expected an array of per-controller override objects");
    }
    if (cm->value().array.size() > cfg.num_controllers) {
      r.fail(*cm, "more override entries (" +
                      std::to_string(cm->value().array.size()) +
                      ") than controllers (" +
                      std::to_string(cfg.num_controllers) + ")");
    }
    std::vector<core::ControllerOverrides> ovs;
    for (const JsonValue& e : cm->value().array) {
      if (!e.is(JsonKind::kObject)) {
        throw ParseError(origin, e.line, e.column, "controllers",
                         "each entry is an object of engine overrides");
      }
      ObjectReader er(e, kControllerKeys, kNumControllerKeys, origin,
                      "controller");
      core::ControllerOverrides ov;
      ov.engine = parse_engine(er, std::nullopt);
      ov.engine_lookahead = er.get_opt_u32("engine_lookahead", 0, 64);
      ov.engine_reorder_depth = er.get_opt_u32("engine_reorder_depth", 1, 1024);
      ov.engine_window = er.get_opt_u32("engine_window", 1, 1024);
      ovs.push_back(ov);
    }
    cfg.controller_overrides = std::move(ovs);
  }
}

/// Parse the explicit `faults` array. Targets are range-checked against
/// what the parser can see (the schedule clamps fabric-dependent ones
/// again after mesh_preset re-tiling); kind-specific nonsense — a link
/// fault with one endpoint, a refresh storm without refresh — is
/// rejected here with a positioned message.
void parse_faults(const ObjectReader& top, const JsonMember& m,
                  core::SystemConfig& cfg, const std::string& origin) {
  if (!m.value().is(JsonKind::kArray)) {
    top.fail(m, "expected an array of fault objects");
  }
  std::vector<fault::FaultSpec> out;
  for (const JsonValue& e : m.value().array) {
    if (!e.is(JsonKind::kObject)) {
      throw ParseError(origin, e.line, e.column, "faults",
                       "each fault is an object (see docs/RESILIENCE.md)");
    }
    ObjectReader r(e, kFaultKeys, kNumFaultKeys, origin, "fault");
    fault::FaultSpec f;
    const JsonMember* km = r.find("kind");
    if (km == nullptr) r.fail_missing("kind");
    if (!km->value().is(JsonKind::kString)) {
      r.fail(*km, "expected a string");
    }
    const std::optional<fault::FaultKind> k =
        fault::parse_fault_kind(km->value().string);
    if (!k) {
      r.fail(*km, "unknown fault kind '" + km->value().string +
                      "'; expected dead_link, degraded_link, slow_router, "
                      "refresh_storm or throttled_banks");
    }
    f.kind = *k;
    f.at = r.get_u64("at", 0, 0, 1ull << 40);
    f.until = r.get_u64("until", 0, 0, 1ull << 40);
    if (f.until != 0 && f.until <= f.at) {
      r.fail(*r.find("until"),
             "until must be after at (or 0 for permanent)");
    }
    f.a = static_cast<NodeId>(r.get_u64("a", 0, 0, 4095));
    f.b = static_cast<NodeId>(r.get_u64("b", 0, 0, 4095));
    f.penalty =
        static_cast<std::uint32_t>(r.get_u64("penalty", 8, 1, 1u << 16));
    f.router = static_cast<NodeId>(r.get_u64("router", 0, 0, 4095));
    f.period =
        static_cast<std::uint32_t>(r.get_u64("period", 4, 2, 1u << 16));
    f.channel = static_cast<std::uint32_t>(r.get_u64("channel", 0, 0, 63));
    f.trefi = r.get_u64("trefi", 0, 0, 1ull << 32);
    if (const JsonMember* bm = r.find("banks")) {
      if (!bm->value().is(JsonKind::kNumber)) {
        r.fail(*bm, "expected a number (bank bitmask, or -1 for all)");
      }
      const double v = bm->value().number;
      if (v == -1.0) {
        f.bank_mask = ~0ull;
      } else if (v < 1.0 || v != std::floor(v) || v > kMaxExactInt) {
        r.fail(*bm, "expected a bank bitmask >= 1, or -1 for every bank");
      } else {
        f.bank_mask = static_cast<std::uint64_t>(v);
      }
    }
    f.extra_trcd =
        static_cast<std::uint32_t>(r.get_u64("extra_trcd", 0, 0, 1u << 16));
    f.extra_trp =
        static_cast<std::uint32_t>(r.get_u64("extra_trp", 0, 0, 1u << 16));
    const bool is_link = f.kind == fault::FaultKind::kDeadLink ||
                         f.kind == fault::FaultKind::kDegradedLink;
    if (is_link && f.a == f.b) {
      throw ParseError(origin, e.line, e.column, "a",
                       "a link fault needs two distinct endpoint routers "
                       "(keys a and b)");
    }
    if (f.kind == fault::FaultKind::kRefreshStorm) {
      if (f.trefi == 0) {
        throw ParseError(origin, e.line, e.column, "trefi",
                         "refresh_storm needs a nonzero trefi (the "
                         "tightened interval in cycles)");
      }
      if (!cfg.refresh) {
        throw ParseError(origin, e.line, e.column, "kind",
                         "refresh_storm needs refresh = true (there is no "
                         "refresh engine to storm)");
      }
    }
    if (f.kind == fault::FaultKind::kThrottledBanks && f.extra_trcd == 0 &&
        f.extra_trp == 0) {
      throw ParseError(origin, e.line, e.column, "extra_trcd",
                       "throttled_banks needs extra_trcd and/or extra_trp "
                       "> 0");
    }
    out.push_back(f);
  }
  cfg.faults = std::move(out);
}

// --- dump ---

const char* design_token(core::DesignPoint d) {
  switch (d) {
    case core::DesignPoint::kConv: return "conv";
    case core::DesignPoint::kConvPfs: return "conv+pfs";
    case core::DesignPoint::kRef4: return "ref4";
    case core::DesignPoint::kRef4Pfs: return "ref4+pfs";
    case core::DesignPoint::kGss: return "gss";
    case core::DesignPoint::kGssSagm: return "gss+sagm";
    case core::DesignPoint::kGssSagmSti: return "gss+sagm+sti";
  }
  return "gss";
}

const char* app_token(traffic::AppId a) {
  switch (a) {
    case traffic::AppId::kBluray: return "bluray";
    case traffic::AppId::kSingleDtv: return "sdtv";
    case traffic::AppId::kDualDtv: return "ddtv";
  }
  return "sdtv";
}

int ddr_token(sdram::DdrGeneration g) {
  switch (g) {
    case sdram::DdrGeneration::kDdr1: return 1;
    case sdram::DdrGeneration::kDdr2: return 2;
    case sdram::DdrGeneration::kDdr3: return 3;
  }
  return 2;
}

class Dumper {
 public:
  explicit Dumper(std::string indent) : indent_(std::move(indent)) {}

  void field(const char* key, std::string value) {
    entries_.push_back(indent_ + json_quote(key) + ": " + std::move(value));
  }
  void str(const char* key, std::string_view v) { field(key, json_quote(v)); }
  void num(const char* key, double v) { field(key, json_number(v)); }
  void num(const char* key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  void boolean(const char* key, bool v) { field(key, v ? "true" : "false"); }
  void opt(const char* key, const std::optional<std::uint32_t>& v) {
    field(key, v ? std::to_string(*v) : "null");
  }

  [[nodiscard]] std::string close(const std::string& outer) const {
    std::string out = "{\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out += entries_[i];
      if (i + 1 < entries_.size()) out += ',';
      out += '\n';
    }
    out += outer + "}";
    return out;
  }

 private:
  std::string indent_;
  std::vector<std::string> entries_;
};

std::string dump_core(const traffic::CorePlacement& cp) {
  const traffic::CoreSpec& s = cp.spec;
  Dumper d("      ");
  d.str("name", s.name);
  d.num("node", static_cast<std::uint64_t>(cp.node));
  d.num("bytes_per_cycle", s.bytes_per_cycle);
  d.num("read_fraction", s.read_fraction);
  d.num("sequential_fraction", s.sequential_fraction);
  {
    std::string sizes = "[";
    for (std::size_t i = 0; i < s.sizes.size(); ++i) {
      if (i != 0) sizes += ", ";
      sizes += "{\"bytes\": " + std::to_string(s.sizes[i].bytes) +
               ", \"weight\": " + json_number(s.sizes[i].weight) + "}";
    }
    sizes += "]";
    d.field("sizes", std::move(sizes));
  }
  d.num("max_outstanding", static_cast<std::uint64_t>(s.max_outstanding));
  d.boolean("open_loop", s.open_loop);
  d.boolean("is_mpu", s.is_mpu);
  d.num("demand_fraction", s.demand_fraction);
  d.num("demand_bytes", static_cast<std::uint64_t>(s.demand_bytes));
  d.num("region_base", s.region_base);
  d.num("region_bytes", s.region_bytes);
  d.num("placement_weight", s.placement_weight);
  d.str("pattern", to_string(s.pattern));
  d.num("hotspot_fraction", s.hotspot_fraction);
  d.num("hotspot_bytes", s.hotspot_bytes);
  d.num("burst_on_cycles", s.burst_on_cycles);
  d.num("burst_off_cycles", s.burst_off_cycles);
  d.num("frame_period", s.frame_period);
  d.num("frame_active_fraction", s.frame_active_fraction);
  return d.close("    ");
}

}  // namespace

Scenario parse_scenario(std::string_view text, const std::string& origin,
                        const std::string& base_dir) {
  const JsonValue root = parse_json(text, origin);
  if (!root.is(JsonKind::kObject)) {
    throw ParseError(origin, root.line, root.column, "",
                     "a scenario file must be a JSON object");
  }
  ObjectReader r(root, kScenarioKeys, kNumScenarioKeys, origin, "scenario");

  Scenario s;
  s.name = r.get_string("name", "");
  core::SystemConfig& cfg = s.config;
  apply_scalar_keys(r, cfg);

  const JsonMember* app_m = r.find("app");
  const JsonMember* mesh_m = r.find("mesh");
  const JsonMember* cores_m = r.find("cores");
  const JsonMember* topo_m = r.find("topology");
  const JsonMember* memory_m = r.find("memory");

  std::optional<ParsedTopology> topo;
  if (topo_m != nullptr) {
    if (cores_m == nullptr) {
      r.fail(*topo_m, "topology needs a custom core set (cores) placed on "
                      "its named nodes; the paper applications are "
                      "mesh-defined");
    }
    if (mesh_m != nullptr) {
      r.fail(*mesh_m, "mesh and topology are mutually exclusive "
                      "(the topology defines the fabric)");
    }
    if (!cfg.mesh_preset.empty()) {
      r.fail(*r.find("mesh_preset"),
             "mesh_preset re-tiles a mesh; it cannot reshape a topology");
    }
    if (cfg.adaptive_routing) {
      r.fail(*r.find("adaptive_routing"),
             "adaptive routing is a mesh-geometry concept; topology mode "
             "routes by BFS next-hop tables");
    }
    topo = topo_m->value().is(JsonKind::kString)
               ? load_topology_file(r, *topo_m, base_dir)
               : parse_topology_object(topo_m->value(), origin);
  }

  if (cores_m != nullptr) {
    if (app_m != nullptr) {
      r.fail(*app_m, "app and cores are mutually exclusive "
                     "(a scenario is a paper app or a custom core set)");
    }
    if (!topo && mesh_m == nullptr) r.fail_missing("mesh");
    cfg.custom_app = build_custom_app(r, mesh_m, *cores_m,
                                      topo ? &*topo : nullptr, s.name, origin);
  } else {
    if (mesh_m != nullptr) {
      r.fail(*mesh_m, "mesh is only meaningful together with cores");
    }
    cfg.app = app_m != nullptr ? parse_app(r, *app_m)
                               : traffic::AppId::kSingleDtv;
  }

  // Node count of the final fabric (after any mesh_preset re-tiling),
  // for controller-placement validation.
  std::uint64_t fabric_nodes = 0;
  if (topo) {
    fabric_nodes = topo->spec->num_nodes();
  } else if (!cfg.mesh_preset.empty()) {
    std::uint32_t w = 0, h = 0;
    const bool ok = core::parse_mesh_preset(cfg.mesh_preset, &w, &h);
    ANNOC_ASSERT_MSG(ok, "mesh_preset is validated where it is read");
    fabric_nodes = static_cast<std::uint64_t>(w) * h;
  } else if (cfg.custom_app) {
    fabric_nodes = static_cast<std::uint64_t>(cfg.custom_app->noc.width) *
                   cfg.custom_app->noc.height;
  } else {
    const noc::NocConfig app_noc = traffic::build_application(cfg.app).noc;
    fabric_nodes = static_cast<std::uint64_t>(app_noc.width) * app_noc.height;
  }

  if (memory_m != nullptr) {
    parse_memory(r, *memory_m, cfg, topo ? topo->spec.get() : nullptr,
                 fabric_nodes, origin);
  }
  if (cfg.num_controllers > fabric_nodes) {
    r.fail(*r.find("num_controllers"),
           "more controllers (" + std::to_string(cfg.num_controllers) +
               ") than fabric nodes (" + std::to_string(fabric_nodes) + ")");
  }
  if (const JsonMember* fm = r.find("faults")) {
    parse_faults(r, *fm, cfg, origin);
  }
  return s;
}

bool is_sweepable_key(std::string_view key) {
  // Workload structure is fixed per sweep (a sweep perturbs knobs, not
  // the core set), `name` labels the scenario itself, and the output
  // paths would make thousands of jobs overwrite one file. The explicit
  // faults array is structure too — sweeps perturb the fault.* knobs.
  static constexpr std::string_view kFixed[] = {
      "name",         "mesh",         "cores",         "topology",
      "memory",       "trace_path",   "record_trace",  "replay_trace",
      "perfetto_path", "faults"};
  for (const std::string_view f : kFixed) {
    if (key == f) return false;
  }
  for (std::size_t i = 0; i < kNumScenarioKeys; ++i) {
    if (key == kScenarioKeys[i].key) return true;
  }
  return false;
}

void apply_overrides(core::SystemConfig& cfg, const JsonValue& point,
                     const std::string& origin) {
  if (!point.is(JsonKind::kObject)) {
    throw ParseError(origin, point.line, point.column, "",
                     "a sweep point must be a JSON object");
  }
  // ObjectReader first, so a typo'd key gets the standard "unknown
  // scenario key" diagnostic before the sweepability check below.
  ObjectReader r(point, kScenarioKeys, kNumScenarioKeys, origin, "scenario");
  for (const JsonMember& m : point.object) {
    if (!is_sweepable_key(m.name)) {
      throw ParseError(origin, m.line, m.column, m.name,
                       "this key cannot be swept: workload structure "
                       "(name/mesh/cores) and output paths are fixed "
                       "for every job of a sweep");
    }
  }
  if (const JsonMember* m = r.find("app")) {
    if (cfg.custom_app) {
      r.fail(*m, "the base scenario defines a custom core set; "
                 "'app' cannot override it");
    }
    cfg.app = parse_app(r, *m);
  }
  apply_scalar_keys(r, cfg);

  // Cross-field guards a sweep point can violate against its base
  // scenario. Any offending combination here involves a key the point
  // itself set (the base already validated its own), so the diagnostic
  // can always be positioned at a member of the point.
  const bool on_topology =
      cfg.custom_app && cfg.custom_app->noc.topology != nullptr;
  if (on_topology && !cfg.mesh_preset.empty()) {
    r.fail(*r.find("mesh_preset"),
           "mesh_preset re-tiles a mesh; the base scenario defines a "
           "topology");
  }
  if (on_topology && cfg.adaptive_routing) {
    r.fail(*r.find("adaptive_routing"),
           "adaptive routing is a mesh-geometry concept; the base "
           "scenario defines a topology");
  }
  if (!cfg.mem_nodes.empty() &&
      cfg.mem_nodes.size() != cfg.num_controllers) {
    r.fail(*r.find("num_controllers"),
           "num_controllers (" + std::to_string(cfg.num_controllers) +
               ") disagrees with the base scenario's memory.nodes (" +
               std::to_string(cfg.mem_nodes.size()) + " entries)");
  }
  if (!cfg.mem_nodes.empty() && !cfg.mesh_preset.empty()) {
    if (const JsonMember* m = r.find("mesh_preset")) {
      std::uint32_t w = 0, h = 0;
      const bool ok = core::parse_mesh_preset(cfg.mesh_preset, &w, &h);
      ANNOC_ASSERT_MSG(ok, "mesh_preset is validated where it is read");
      for (const NodeId n : cfg.mem_nodes) {
        if (n >= static_cast<std::uint64_t>(w) * h) {
          r.fail(*m, "the base scenario places a controller on node " +
                         std::to_string(n) + ", outside the " +
                         cfg.mesh_preset + " mesh");
        }
      }
    }
  }
}

Scenario load_scenario(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ParseError(path, 0, 0, "", "cannot open scenario file");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  // Ship scenarios next to their referenced files: a relative topology
  // path (below) or replay path (here) is resolved against the
  // scenario file's own directory.
  const std::size_t dir_slash = path.find_last_of('/');
  const std::string base_dir =
      dir_slash == std::string::npos ? "" : path.substr(0, dir_slash);
  Scenario s = parse_scenario(buf.str(), path, base_dir);
  std::string& replay = s.config.replay_trace_path;
  if (!replay.empty() && replay.front() != '/') {
    const std::size_t slash = path.find_last_of('/');
    if (slash != std::string::npos) {
      replay = path.substr(0, slash + 1) + replay;
    }
  }
  return s;
}

std::string dump_scenario(const Scenario& s) {
  const core::SystemConfig& c = s.config;
  Dumper d("  ");
  d.str("name", s.name);
  d.str("design", design_token(c.design));
  if (!c.custom_app) d.str("app", app_token(c.app));
  d.num("ddr", static_cast<std::uint64_t>(ddr_token(c.generation)));
  d.num("clock_mhz", c.clock_mhz);
  d.boolean("priority", c.priority_enabled);
  d.boolean("model_response_path", c.model_response_path);
  d.num("measure_cycles", static_cast<std::uint64_t>(c.sim_cycles));
  d.num("warmup_cycles", static_cast<std::uint64_t>(c.warmup_cycles));
  d.num("drain_cycle_limit",
        static_cast<std::uint64_t>(c.drain_cycle_limit));
  if (c.seed <= (1ull << 53)) {
    d.num("seed", c.seed);
  } else {
    d.str("seed", std::to_string(c.seed));
  }
  d.boolean("fast_forward", c.fast_forward);
  if (c.sched) d.str("sched", to_string(*c.sched));
  d.boolean("audit_horizons", c.audit_horizons);
  d.num("pct", static_cast<std::uint64_t>(c.pct));
  d.opt("num_gss_routers",
        c.num_gss_routers
            ? std::optional<std::uint32_t>(
                  static_cast<std::uint32_t>(*c.num_gss_routers))
            : std::nullopt);
  if (c.engine) d.str("engine", to_string(*c.engine));
  d.num("dpq_promote_after",
        static_cast<std::uint64_t>(c.dpq_promote_after));
  d.opt("engine_lookahead", c.engine_lookahead);
  d.opt("engine_reorder_depth", c.engine_reorder_depth);
  d.opt("engine_window", c.engine_window);
  d.num("map_chunk_bytes", static_cast<std::uint64_t>(c.map_chunk_bytes));
  d.num("num_vcs", static_cast<std::uint64_t>(c.num_vcs));
  d.boolean("adaptive_routing", c.adaptive_routing);
  d.str("observe", to_string(c.observe));
  d.str("perfetto_path", c.perfetto_path);
  d.str("trace_path", c.trace_path);
  d.str("record_trace", c.record_trace_path);
  d.str("replay_trace", c.replay_trace_path);
  d.boolean("check", c.check);
  d.boolean("refresh", c.refresh);
  d.num("split_beats", static_cast<std::uint64_t>(c.split_beats));
  d.num("num_controllers", static_cast<std::uint64_t>(c.num_controllers));
  d.opt("interleave_shift", c.interleave_shift);
  d.str("mesh_preset", c.mesh_preset);
  d.num("watchdog_cycles", static_cast<std::uint64_t>(c.watchdog_cycles));
  if (c.fault_seed <= (1ull << 53)) {
    d.num("fault.seed", c.fault_seed);
  } else {
    d.str("fault.seed", std::to_string(c.fault_seed));
  }
  d.num("fault.count", static_cast<std::uint64_t>(c.fault_count));
  d.str("fault.kinds", c.fault_kinds);
  d.num("fault.start", static_cast<std::uint64_t>(c.fault_start));
  d.num("fault.spacing", static_cast<std::uint64_t>(c.fault_spacing));
  d.num("fault.duration", static_cast<std::uint64_t>(c.fault_duration));
  if (!c.faults.empty()) {
    std::string arr = "[\n";
    for (std::size_t i = 0; i < c.faults.size(); ++i) {
      const fault::FaultSpec& f = c.faults[i];
      Dumper fd("      ");
      fd.str("kind", fault::to_string(f.kind));
      fd.num("at", static_cast<std::uint64_t>(f.at));
      fd.num("until", static_cast<std::uint64_t>(f.until));
      switch (f.kind) {
        case fault::FaultKind::kDeadLink:
          fd.num("a", static_cast<std::uint64_t>(f.a));
          fd.num("b", static_cast<std::uint64_t>(f.b));
          break;
        case fault::FaultKind::kDegradedLink:
          fd.num("a", static_cast<std::uint64_t>(f.a));
          fd.num("b", static_cast<std::uint64_t>(f.b));
          fd.num("penalty", static_cast<std::uint64_t>(f.penalty));
          break;
        case fault::FaultKind::kSlowRouter:
          fd.num("router", static_cast<std::uint64_t>(f.router));
          fd.num("period", static_cast<std::uint64_t>(f.period));
          break;
        case fault::FaultKind::kRefreshStorm:
          fd.num("channel", static_cast<std::uint64_t>(f.channel));
          fd.num("trefi", f.trefi);
          break;
        case fault::FaultKind::kThrottledBanks:
          fd.num("channel", static_cast<std::uint64_t>(f.channel));
          fd.field("banks", f.bank_mask == ~0ull
                                ? std::string("-1")
                                : std::to_string(f.bank_mask));
          fd.num("extra_trcd", static_cast<std::uint64_t>(f.extra_trcd));
          fd.num("extra_trp", static_cast<std::uint64_t>(f.extra_trp));
          break;
      }
      arr += "    " + fd.close("    ");
      if (i + 1 < c.faults.size()) arr += ',';
      arr += '\n';
    }
    arr += "  ]";
    d.field("faults", std::move(arr));
  }
  if (c.custom_app && c.custom_app->noc.topology) {
    const noc::TopologySpec& t = *c.custom_app->noc.topology;
    Dumper td("    ");
    {
      std::string nodes = "[";
      for (std::size_t i = 0; i < t.node_names.size(); ++i) {
        if (i != 0) nodes += ", ";
        nodes += json_quote(t.node_names[i]);
      }
      nodes += "]";
      td.field("nodes", std::move(nodes));
    }
    {
      std::string links = "[";
      for (std::size_t i = 0; i < t.links.size(); ++i) {
        if (i != 0) links += ", ";
        links += "[" + json_quote(t.node_names[t.links[i].a]) + ", " +
                 json_quote(t.node_names[t.links[i].b]) + "]";
      }
      links += "]";
      td.field("links", std::move(links));
    }
    td.num("buffer_flits",
           static_cast<std::uint64_t>(c.custom_app->noc.buffer_flits));
    td.num("pipeline_latency",
           static_cast<std::uint64_t>(c.custom_app->noc.pipeline_latency));
    d.field("topology", td.close("  "));
  }
  if (!c.mem_nodes.empty() || !c.controller_overrides.empty()) {
    Dumper md("    ");
    if (!c.mem_nodes.empty()) {
      std::string nodes = "[";
      for (std::size_t i = 0; i < c.mem_nodes.size(); ++i) {
        if (i != 0) nodes += ", ";
        nodes += std::to_string(c.mem_nodes[i]);
      }
      nodes += "]";
      md.field("nodes", std::move(nodes));
    }
    if (!c.controller_overrides.empty()) {
      std::string arr = "[\n";
      for (std::size_t i = 0; i < c.controller_overrides.size(); ++i) {
        const core::ControllerOverrides& ov = c.controller_overrides[i];
        Dumper od("        ");
        if (ov.engine) od.str("engine", to_string(*ov.engine));
        od.opt("engine_lookahead", ov.engine_lookahead);
        od.opt("engine_reorder_depth", ov.engine_reorder_depth);
        od.opt("engine_window", ov.engine_window);
        arr += "      " + od.close("      ");
        if (i + 1 < c.controller_overrides.size()) arr += ',';
        arr += '\n';
      }
      arr += "    ]";
      md.field("controllers", std::move(arr));
    }
    d.field("memory", md.close("  "));
  }
  if (c.custom_app) {
    const traffic::Application& app = *c.custom_app;
    if (!app.noc.topology) {
      Dumper m("    ");
      m.num("width", static_cast<std::uint64_t>(app.noc.width));
      m.num("height", static_cast<std::uint64_t>(app.noc.height));
      m.num("mem_node", static_cast<std::uint64_t>(app.noc.mem_node));
      m.num("buffer_flits", static_cast<std::uint64_t>(app.noc.buffer_flits));
      m.num("pipeline_latency",
            static_cast<std::uint64_t>(app.noc.pipeline_latency));
      d.field("mesh", m.close("  "));
    }
    std::string cores = "[\n";
    for (std::size_t i = 0; i < app.cores.size(); ++i) {
      cores += "    " + dump_core(app.cores[i]);
      if (i + 1 < app.cores.size()) cores += ',';
      cores += '\n';
    }
    cores += "  ]";
    d.field("cores", std::move(cores));
  }
  return d.close("") + "\n";
}

}  // namespace annoc::scenario
