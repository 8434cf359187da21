/// Scenario subsystem: loader round-trips (load -> dump -> load is
/// identical, including randomized configs), the schema rows tied to
/// their structs (documented defaults, type text, every bound key
/// through parse -> dump -> parse and apply_overrides), scenario files
/// vs hard-coded configs, structured parse errors for malformed scenario
/// and trace inputs, and the trace record -> replay loop (CSV and
/// binary, dense and event) — all bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics_identical.hpp"
#include "runner/fuzz.hpp"
#include "scenario/scenario.hpp"
#include "scenario/schema.hpp"
#include "traffic/trace_replay.hpp"

#ifndef ANNOC_SCENARIO_DIR
#define ANNOC_SCENARIO_DIR "scenarios"
#endif

namespace annoc {
namespace {

using core::SystemConfig;
using scenario::Scenario;

std::string scenario_path(const std::string& file) {
  return std::string(ANNOC_SCENARIO_DIR) + "/" + file;
}

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// Every SystemConfig field the scenario schema maps (custom_app is
/// compared by the caller where it applies).
void expect_config_eq(const SystemConfig& a, const SystemConfig& b,
                      const std::string& tag) {
  EXPECT_EQ(a.design, b.design) << tag;
  EXPECT_EQ(a.app, b.app) << tag;
  EXPECT_EQ(a.generation, b.generation) << tag;
  EXPECT_EQ(a.clock_mhz, b.clock_mhz) << tag;
  EXPECT_EQ(a.priority_enabled, b.priority_enabled) << tag;
  EXPECT_EQ(a.model_response_path, b.model_response_path) << tag;
  EXPECT_EQ(a.sim_cycles, b.sim_cycles) << tag;
  EXPECT_EQ(a.warmup_cycles, b.warmup_cycles) << tag;
  EXPECT_EQ(a.drain_cycle_limit, b.drain_cycle_limit) << tag;
  EXPECT_EQ(a.seed, b.seed) << tag;
  EXPECT_EQ(a.sched, b.sched) << tag;
  EXPECT_EQ(a.audit_horizons, b.audit_horizons) << tag;
  EXPECT_EQ(a.pct, b.pct) << tag;
  EXPECT_EQ(a.num_gss_routers, b.num_gss_routers) << tag;
  EXPECT_EQ(a.engine, b.engine) << tag;
  EXPECT_EQ(a.dpq_promote_after, b.dpq_promote_after) << tag;
  EXPECT_EQ(a.engine_lookahead, b.engine_lookahead) << tag;
  EXPECT_EQ(a.engine_reorder_depth, b.engine_reorder_depth) << tag;
  EXPECT_EQ(a.engine_window, b.engine_window) << tag;
  EXPECT_EQ(a.map_chunk_bytes, b.map_chunk_bytes) << tag;
  EXPECT_EQ(a.num_vcs, b.num_vcs) << tag;
  EXPECT_EQ(a.adaptive_routing, b.adaptive_routing) << tag;
  EXPECT_EQ(a.trace_path, b.trace_path) << tag;
  EXPECT_EQ(a.record_trace_path, b.record_trace_path) << tag;
  EXPECT_EQ(a.replay_trace_path, b.replay_trace_path) << tag;
  EXPECT_EQ(a.observe, b.observe) << tag;
  EXPECT_EQ(a.perfetto_path, b.perfetto_path) << tag;
  EXPECT_EQ(a.check, b.check) << tag;
  EXPECT_EQ(a.refresh, b.refresh) << tag;
  EXPECT_EQ(a.split_beats, b.split_beats) << tag;
  EXPECT_EQ(a.num_controllers, b.num_controllers) << tag;
  EXPECT_EQ(a.interleave_shift, b.interleave_shift) << tag;
  EXPECT_EQ(a.mem_nodes, b.mem_nodes) << tag;
  EXPECT_EQ(a.mesh_preset, b.mesh_preset) << tag;
  EXPECT_EQ(a.watchdog_cycles, b.watchdog_cycles) << tag;
  EXPECT_EQ(a.fault_seed, b.fault_seed) << tag;
  EXPECT_EQ(a.fault_count, b.fault_count) << tag;
  EXPECT_EQ(a.fault_kinds, b.fault_kinds) << tag;
  EXPECT_EQ(a.fault_start, b.fault_start) << tag;
  EXPECT_EQ(a.fault_spacing, b.fault_spacing) << tag;
  EXPECT_EQ(a.fault_duration, b.fault_duration) << tag;
  ASSERT_EQ(a.faults.size(), b.faults.size()) << tag;
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].kind, b.faults[i].kind) << tag << " fault " << i;
    EXPECT_EQ(a.faults[i].at, b.faults[i].at) << tag << " fault " << i;
    EXPECT_EQ(a.faults[i].until, b.faults[i].until) << tag << " fault " << i;
    EXPECT_EQ(a.faults[i].a, b.faults[i].a) << tag << " fault " << i;
    EXPECT_EQ(a.faults[i].b, b.faults[i].b) << tag << " fault " << i;
    EXPECT_EQ(a.faults[i].penalty, b.faults[i].penalty)
        << tag << " fault " << i;
    EXPECT_EQ(a.faults[i].router, b.faults[i].router) << tag << " fault " << i;
    EXPECT_EQ(a.faults[i].period, b.faults[i].period) << tag << " fault " << i;
    EXPECT_EQ(a.faults[i].channel, b.faults[i].channel)
        << tag << " fault " << i;
    EXPECT_EQ(a.faults[i].trefi, b.faults[i].trefi) << tag << " fault " << i;
    EXPECT_EQ(a.faults[i].bank_mask, b.faults[i].bank_mask)
        << tag << " fault " << i;
    EXPECT_EQ(a.faults[i].extra_trcd, b.faults[i].extra_trcd)
        << tag << " fault " << i;
    EXPECT_EQ(a.faults[i].extra_trp, b.faults[i].extra_trp)
        << tag << " fault " << i;
  }
  ASSERT_EQ(a.controller_overrides.size(), b.controller_overrides.size())
      << tag;
  for (std::size_t i = 0; i < a.controller_overrides.size(); ++i) {
    EXPECT_EQ(a.controller_overrides[i].engine,
              b.controller_overrides[i].engine)
        << tag << " ctrl " << i;
    EXPECT_EQ(a.controller_overrides[i].engine_lookahead,
              b.controller_overrides[i].engine_lookahead)
        << tag << " ctrl " << i;
    EXPECT_EQ(a.controller_overrides[i].engine_reorder_depth,
              b.controller_overrides[i].engine_reorder_depth)
        << tag << " ctrl " << i;
    EXPECT_EQ(a.controller_overrides[i].engine_window,
              b.controller_overrides[i].engine_window)
        << tag << " ctrl " << i;
  }
  EXPECT_EQ(a.custom_app.has_value(), b.custom_app.has_value()) << tag;
}

ParseError capture(const std::string& text,
                   const std::string& origin = "<test>") {
  try {
    (void)scenario::parse_scenario(text, origin);
  } catch (const ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected a ParseError for: " << text;
  return ParseError("", 0, 0, "", "no error");
}

// --- loader round-trips -------------------------------------------------

TEST(ScenarioRoundTrip, CheckedInScenarioFiles) {
  std::vector<std::string> files;
  for (const auto& e :
       std::filesystem::directory_iterator(ANNOC_SCENARIO_DIR)) {
    if (e.is_regular_file() && e.path().extension() == ".json") {
      files.push_back(e.path().filename().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 9u);
  for (const std::string& f : files) {
    const Scenario s = scenario::load_scenario(scenario_path(f));
    const std::string dump1 = scenario::dump_scenario(s);
    const Scenario back = scenario::parse_scenario(dump1, "<dump>");
    EXPECT_EQ(scenario::dump_scenario(back), dump1) << f;
    EXPECT_EQ(back.name, s.name) << f;
    expect_config_eq(back.config, s.config, f);
  }
}

TEST(ScenarioRoundTrip, RandomConfigsFromFuzzSeeds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Scenario s;
    s.name = "fuzz-" + std::to_string(seed);
    s.config = runner::random_config(seed);
    const std::string dump1 = scenario::dump_scenario(s);
    const Scenario back = scenario::parse_scenario(dump1, "<dump>");
    expect_config_eq(back.config, s.config, s.name);
    EXPECT_EQ(scenario::dump_scenario(back), dump1) << s.name;
  }
}

TEST(ScenarioRoundTrip, CustomAppSurvivesDump) {
  const Scenario s =
      scenario::load_scenario(scenario_path("example_patterns.json"));
  ASSERT_TRUE(s.config.custom_app.has_value());
  const Scenario back =
      scenario::parse_scenario(scenario::dump_scenario(s), "<dump>");
  ASSERT_TRUE(back.config.custom_app.has_value());
  const traffic::Application& a = *s.config.custom_app;
  const traffic::Application& b = *back.config.custom_app;
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (std::size_t i = 0; i < a.cores.size(); ++i) {
    EXPECT_EQ(a.cores[i].node, b.cores[i].node) << i;
    EXPECT_EQ(a.cores[i].spec.name, b.cores[i].spec.name) << i;
    EXPECT_EQ(a.cores[i].spec.region_base, b.cores[i].spec.region_base) << i;
    EXPECT_EQ(a.cores[i].spec.pattern, b.cores[i].spec.pattern) << i;
    EXPECT_EQ(a.cores[i].spec.bytes_per_cycle, b.cores[i].spec.bytes_per_cycle)
        << i;
  }
}

TEST(ScenarioRoundTrip, ScenarioFileMatchesHardcodedConfig) {
  // The checked-in Table II point must be field-for-field the config
  // bench/table2_priority.cpp builds for single-DTV DDR2 @ 333 MHz
  // (the repro-label test then checks the Metrics bitwise).
  const Scenario s =
      scenario::load_scenario(scenario_path("table2_gss_sagm.json"));
  SystemConfig expect;
  expect.design = core::DesignPoint::kGssSagm;
  expect.app = traffic::AppId::kSingleDtv;
  expect.generation = sdram::DdrGeneration::kDdr2;
  expect.clock_mhz = 333.0;
  expect.priority_enabled = true;
  expect.sim_cycles = 80000;
  expect.warmup_cycles = 15000;
  expect_config_eq(s.config, expect, "table2_gss_sagm");
}

// --- schema rows tied to their structs ----------------------------------

using scenario::Binding;
using scenario::KeyInfo;
using scenario::Kind;

/// The `type` text a row of each binding kind documents.
std::string type_text(const Binding& b) {
  switch (b.kind) {
    case Kind::kHand: return "";
    case Kind::kBool: return "bool";
    case Kind::kInt:
    case Kind::kDouble: return "number";
    case Kind::kString:
    case Kind::kChecked: return "string";
    case Kind::kOptInt: return "number|null";
    case Kind::kSeed: return "number|string";
    case Kind::kEnum: return b.max != 0 ? "number" : "string";
    case Kind::kOptEnum: return "string|null";
  }
  return "?";
}

/// One scalar JSON text as a value; a bare word that is not JSON (a
/// documented default like `gss`) reads as that string.
scenario::JsonValue scalar(const std::string& text) {
  try {
    return scenario::parse_json(text, "<scalar>");
  } catch (const ParseError&) {
    scenario::JsonValue v;
    v.kind = scenario::JsonKind::kString;
    v.string = text;
    return v;
  }
}

bool same_scalar(const scenario::JsonValue& a, const scenario::JsonValue& b) {
  return a.kind == b.kind && a.boolean == b.boolean && a.number == b.number &&
         a.string == b.string;
}

/// A scenario table with the default-constructed struct its rows bind.
struct Table {
  const char* name;
  std::span<const KeyInfo> rows;
  const void* defaults;
};

const SystemConfig kDefaultConfig{};
const traffic::CoreSpec kDefaultCore{};
const fault::FaultSpec kDefaultFault{};
const core::ControllerOverrides kDefaultOverrides{};
const noc::NocConfig kDefaultNoc{};

const Table kTables[] = {
    {"top level", scenario::kScenarioKeys, &kDefaultConfig},
    {"mesh", scenario::kMeshKeys, &kDefaultNoc},
    {"cores[]", scenario::kCoreKeys, &kDefaultCore},
    {"faults[]", scenario::kFaultKeys, &kDefaultFault},
    {"topology", scenario::kTopologyKeys, &kDefaultNoc},
    {"memory", scenario::kMemoryKeys, nullptr},
    {"memory.controllers[]", scenario::kControllerKeys, &kDefaultOverrides},
};

TEST(ScenarioSchema, DocumentedDefaultIsTheStructDefault) {
  for (const Table& t : kTables) {
    for (const KeyInfo& k : t.rows) {
      const std::string def = k.def;
      if (k.bind.kind == Kind::kHand || def == "-" || def == "auto") continue;
      std::string dumped = k.dump(t.defaults);
      if (dumped.empty()) dumped = "null";  // an unset optional enum
      EXPECT_TRUE(same_scalar(scalar(def), scalar(dumped)))
          << t.name << " key '" << k.key << "': documented " << def
          << ", struct default " << dumped;
    }
  }
}

TEST(ScenarioSchema, TypeTextMatchesTheBinding) {
  for (const Table& t : kTables) {
    for (const KeyInfo& k : t.rows) {
      if (k.bind.kind == Kind::kHand) continue;
      EXPECT_EQ(k.type, type_text(k.bind)) << t.name << " key '" << k.key
                                           << "'";
    }
  }
}

TEST(ScenarioSchema, HandWrittenKeysAreTheStructuralOnes) {
  const std::map<std::string, std::vector<std::string>> hand = {
      {"top level",
       {"name", "app", "faults", "topology", "memory", "mesh", "cores"}},
      {"mesh", {}},
      {"cores[]", {"name", "node", "sizes", "region_base"}},
      {"faults[]", {"kind", "banks"}},
      {"topology", {"nodes", "links"}},
      {"memory", {"nodes", "controllers"}},
      {"memory.controllers[]", {}},
  };
  for (const Table& t : kTables) {
    std::vector<std::string> got;
    for (const KeyInfo& k : t.rows) {
      if (k.bind.kind == Kind::kHand) got.emplace_back(k.key);
    }
    std::vector<std::string> want = hand.at(t.name);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << t.name;
  }
}

/// In-range values for the bound kinds the generic picker below cannot
/// invent: enum tokens and checked strings.
const std::map<std::string, std::string, std::less<>> kSampleValues = {
    {"design", "\"conv\""},      {"ddr", "1"},
    {"sched", "\"dense\""},      {"engine", "\"dpq\""},
    {"observe", "\"full\""},     {"pattern", "\"hotspot\""},
    {"mesh_preset", "\"2x2\""},  {"fault.kinds", "\"slow_router\""},
};

/// A non-default, in-range value for a bound row, as JSON text.
std::string other_value(const KeyInfo& k, const void* defaults) {
  const std::string def = k.dump(defaults);
  switch (k.bind.kind) {
    case Kind::kBool: return def == "true" ? "false" : "true";
    case Kind::kInt:
    case Kind::kDouble:
    case Kind::kOptInt: {
      const std::uint64_t lo = k.bind.min;
      return std::to_string(std::to_string(lo) == def ? lo + 1 : lo);
    }
    case Kind::kSeed: return "\"18446744073709551615\"";
    case Kind::kString: return "\"x\"";
    default: break;
  }
  const auto it = kSampleValues.find(k.key);
  if (it == kSampleValues.end()) {
    ADD_FAILURE() << "add a sample value for key '" << k.key << "'";
    return "null";
  }
  return it->second;
}

/// `{"k": v, ...}` with `key` set to `value` (replacing a base member).
std::string object_with(std::vector<std::pair<std::string, std::string>> base,
                        std::string_view key, const std::string& value) {
  const auto it = std::find_if(base.begin(), base.end(),
                               [&](const auto& m) { return m.first == key; });
  if (it != base.end()) {
    it->second = value;
  } else {
    base.emplace_back(key, value);
  }
  std::string out = "{";
  for (const auto& [k, v] : base) {
    if (out.size() > 1) out += ", ";
    out += "\"" + k + "\": " + v;
  }
  return out + "}";
}

/// Where each table's row sits in a scenario, and how to find the
/// struct it binds in the loaded config.
struct Context {
  std::function<std::string(const KeyInfo&, const std::string&)> wrap;
  std::function<const void*(const SystemConfig&)> target;
};

const std::map<std::string, Context>& contexts() {
  static const std::map<std::string, Context> kContexts = {
      {"top level",
       {[](const KeyInfo& k, const std::string& v) {
          return object_with({}, k.key, v);
        },
        [](const SystemConfig& c) -> const void* { return &c; }}},
      {"cores[]",
       {[](const KeyInfo& k, const std::string& v) {
          return "{\"mesh\": {\"width\": 1, \"height\": 1}, \"cores\": [" +
                 object_with({{"name", "\"a\""}, {"node", "0"}}, k.key, v) +
                 "]}";
        },
        [](const SystemConfig& c) -> const void* {
          return &c.custom_app->cores[0].spec;
        }}},
      {"mesh",
       {[](const KeyInfo& k, const std::string& v) {
          return "{\"mesh\": " +
                 object_with({{"width", "2"}, {"height", "2"}}, k.key, v) +
                 ", \"cores\": [{\"name\": \"a\", \"node\": 0}]}";
        },
        [](const SystemConfig& c) -> const void* {
          return &c.custom_app->noc;
        }}},
      {"topology",
       {[](const KeyInfo& k, const std::string& v) {
          return "{\"topology\": " +
                 object_with({{"nodes", "[\"a\", \"b\"]"},
                              {"links", "[[\"a\", \"b\"]]"}},
                             k.key, v) +
                 ", \"cores\": [{\"name\": \"x\", \"node\": \"a\"}]}";
        },
        [](const SystemConfig& c) -> const void* {
          return &c.custom_app->noc;
        }}},
      {"memory.controllers[]",
       {[](const KeyInfo& k, const std::string& v) {
          return "{\"app\": \"ddtv\", \"num_controllers\": 2, "
                 "\"memory\": {\"controllers\": [" +
                 object_with({}, k.key, v) + "]}}";
        },
        [](const SystemConfig& c) -> const void* {
          return &c.controller_overrides[0];
        }}},
      {"faults[]",
       {[](const KeyInfo& k, const std::string& v) {
          // A kind the row applies to (kind-specific rows are only
          // dumped for their kinds).
          unsigned kind = 0;
          while (k.bind.variants != 0 && !(k.bind.variants & (1u << kind))) {
            ++kind;
          }
          const std::string token =
              to_string(static_cast<fault::FaultKind>(kind));
          // Link endpoints must be neighbours on the default 3x3 mesh:
          // 0-1, or 1-0 when the row under test moves `a` to 1.
          return "{\"refresh\": true, \"faults\": [" +
                 object_with({{"kind", "\"" + token + "\""},
                              {"a", "0"},
                              {"b", k.key == "a" ? "0" : "1"},
                              {"trefi", "100"},
                              {"extra_trcd", "1"}},
                             k.key, v) +
                 "]}";
        },
        [](const SystemConfig& c) -> const void* { return &c.faults[0]; }}},
  };
  return kContexts;
}

TEST(ScenarioSchema, EveryBoundKeySurvivesParseDumpParse) {
  // expect_config_eq compares named fields, and a dump-idempotence check
  // cannot see a key the dumper drops; this walks every bound row.
  for (const Table& t : kTables) {
    if (t.defaults == nullptr) continue;
    const Context& ctx = contexts().at(t.name);
    for (const KeyInfo& k : t.rows) {
      if (k.bind.kind == Kind::kHand) continue;
      const std::string value = other_value(k, t.defaults);
      const std::string text = ctx.wrap(k, value);
      SCOPED_TRACE(std::string(t.name) + " key '" + std::string(k.key) +
                   "': " + text);
      try {
        const Scenario s = scenario::parse_scenario(text, "<row>");
        EXPECT_EQ(k.dump(ctx.target(s.config)), value);
        const std::string dump1 = scenario::dump_scenario(s);
        const Scenario back = scenario::parse_scenario(dump1, "<dump>");
        EXPECT_EQ(k.dump(ctx.target(back.config)), value);
        EXPECT_EQ(scenario::dump_scenario(back), dump1);
      } catch (const ParseError& e) {
        ADD_FAILURE() << e.to_string();
      }
    }
  }
}

TEST(ScenarioSchema, FaultsDumpOnlyTheirKindsKeys) {
  const std::map<std::string, std::vector<std::string>> keys = {
      {"dead_link", {"kind", "at", "until", "a", "b"}},
      {"degraded_link", {"kind", "at", "until", "a", "b", "penalty"}},
      {"slow_router", {"kind", "at", "until", "router", "period"}},
      {"refresh_storm", {"kind", "at", "until", "channel", "trefi"}},
      {"throttled_banks",
       {"kind", "at", "until", "channel", "banks", "extra_trcd", "extra_trp"}},
  };
  for (const auto& [kind, want] : keys) {
    const Scenario s = scenario::parse_scenario(
        "{\"refresh\": true, \"faults\": [{\"kind\": \"" + kind +
            "\", \"a\": 0, \"b\": 1, \"trefi\": 100, \"extra_trcd\": 1}]}",
        "<fault>");
    const scenario::JsonValue dumped =
        scenario::parse_json(scenario::dump_scenario(s), "<dump>");
    std::vector<std::string> got;
    for (const scenario::JsonMember& m :
         dumped.find("faults")->value().array[0].object) {
      got.push_back(m.name);
    }
    EXPECT_EQ(got, want) << kind;
  }
}

TEST(ScenarioSchema, EverySweepableKeyApplies) {
  for (const KeyInfo& k : scenario::kScenarioKeys) {
    if (k.bind.kind == Kind::kHand) continue;
    const std::string value = other_value(k, &kDefaultConfig);
    const scenario::JsonValue point =
        scenario::parse_json(object_with({}, k.key, value), "<point>");
    SystemConfig cfg;
    SCOPED_TRACE("key '" + std::string(k.key) + "' = " + value);
    EXPECT_EQ(scenario::is_sweepable_key(k.key), k.bind.sweep);
    if (!k.bind.sweep) {
      EXPECT_THROW(scenario::apply_overrides(cfg, point, "<point>"),
                   ParseError);
      continue;
    }
    try {
      scenario::apply_overrides(cfg, point, "<point>");
      EXPECT_EQ(k.dump(&cfg), value);
    } catch (const ParseError& e) {
      ADD_FAILURE() << e.to_string();
    }
  }
}

// --- structured parse errors -------------------------------------------

TEST(ScenarioErrors, SyntaxErrorCarriesPosition) {
  const ParseError e = capture("{\n  \"design\": \"gss\",,\n}");
  EXPECT_EQ(e.file(), "<test>");
  EXPECT_EQ(e.line(), 2u);
  EXPECT_NE(std::string(e.what()).find("<test>:2:"), std::string::npos);
}

TEST(ScenarioErrors, UnknownKeyNamesTheKey) {
  const ParseError e = capture("{\n  \"desing\": \"gss\"\n}");
  EXPECT_EQ(e.key(), "desing");
  EXPECT_EQ(e.line(), 2u);
  EXPECT_NE(e.message().find("unknown scenario key"), std::string::npos);
}

TEST(ScenarioErrors, WrongTypeAndRange) {
  EXPECT_EQ(capture("{\"clock_mhz\": \"fast\"}").key(), "clock_mhz");
  EXPECT_EQ(capture("{\"pct\": 9}").key(), "pct");
  EXPECT_EQ(capture("{\"measure_cycles\": 1.5}").key(), "measure_cycles");
  EXPECT_EQ(capture("{\"design\": \"warp\"}").key(), "design");
  EXPECT_EQ(capture("{\"observe\": \"loud\"}").key(), "observe");
  EXPECT_EQ(capture("{\"ddr\": 4}").key(), "ddr");
  EXPECT_EQ(capture("{\"sched\": \"warp\"}").key(), "sched");
  EXPECT_EQ(capture("{\"sched\": true}").key(), "sched");
}

TEST(ScenarioSched, ParsesAndRoundTrips) {
  // An unset sched runs the event core; both spellings round-trip.
  const Scenario unset = scenario::parse_scenario("{}", "<test>");
  EXPECT_EQ(unset.config.sched, core::SchedMode::kEvent);
  for (const char* text : {"{}", "{\"sched\": \"dense\"}",
                           "{\"sched\": \"event\"}"}) {
    const Scenario s = scenario::parse_scenario(text, "<test>");
    const Scenario back =
        scenario::parse_scenario(scenario::dump_scenario(s), "<dump>");
    EXPECT_EQ(back.config.sched, s.config.sched) << text;
  }
  EXPECT_EQ(scenario::parse_scenario("{\"sched\": \"dense\"}", "<test>")
                .config.sched,
            core::SchedMode::kDense);

  // The fast-forward scheduler is gone: neither its old bool key nor
  // its token parses, and each error points at the key.
  for (const char* bad : {"{\n  \"fast_forward\": true\n}",
                          "{\n  \"sched\": \"fast_forward\"\n}",
                          "{\n  \"sched\": null\n}"}) {
    const ParseError e = capture(bad);
    EXPECT_EQ(e.line(), 2u) << bad;
    EXPECT_EQ(e.column(), 3u) << bad;
  }
  EXPECT_EQ(capture("{\"fast_forward\": false}").key(), "fast_forward");
  EXPECT_EQ(capture("{\"sched\": \"fast_forward\"}").key(), "sched");
}

TEST(ScenarioErrors, SeedStringsAreStrict) {
  EXPECT_EQ(scenario::parse_scenario("{\"seed\": \"017\"}", "<t>").config.seed,
            17u);  // decimal, never octal
  EXPECT_EQ(
      scenario::parse_scenario("{\"fault.seed\": \"0x10\"}", "<t>")
          .config.fault_seed,
      16u);
  for (const char* bad : {"-1", " 42", "+7", "", "99999999999999999999"}) {
    const ParseError e =
        capture("{\n  \"seed\": \"" + std::string(bad) + "\"\n}");
    EXPECT_EQ(e.key(), "seed") << bad;
    EXPECT_EQ(e.line(), 2u) << bad;
    EXPECT_EQ(e.column(), 3u) << bad;
  }
  EXPECT_EQ(capture("{\"fault.seed\": \"-3\"}").key(), "fault.seed");
}

TEST(ScenarioErrors, DuplicateKey) {
  const ParseError e = capture("{\"seed\": 1,\n \"seed\": 2}");
  EXPECT_EQ(e.key(), "seed");
  EXPECT_EQ(e.line(), 2u);
  EXPECT_NE(e.message().find("duplicate"), std::string::npos);
}

TEST(ScenarioErrors, AppAndCoresAreExclusive) {
  const std::string cores =
      "\"mesh\": {\"width\": 1, \"height\": 1}, "
      "\"cores\": [{\"name\": \"c\", \"node\": 0}]";
  EXPECT_EQ(capture("{\"app\": \"sdtv\", " + cores + "}").key(), "app");
  EXPECT_EQ(capture("{\"mesh\": {\"width\": 1, \"height\": 1}}").key(),
            "mesh");
  EXPECT_EQ(capture("{\"cores\": [{\"name\": \"c\"}]}").key(), "mesh");
}

TEST(ScenarioErrors, CorePlacementRules) {
  // Two cores on one node.
  ParseError e = capture(
      "{\"mesh\": {\"width\": 2, \"height\": 1},\n"
      " \"cores\": [{\"name\": \"a\", \"node\": 0},\n"
      "             {\"name\": \"b\", \"node\": 0}]}");
  EXPECT_EQ(e.key(), "node");
  EXPECT_EQ(e.line(), 3u);
  // Mixed explicit/auto placement.
  e = capture(
      "{\"mesh\": {\"width\": 2, \"height\": 1},\n"
      " \"cores\": [{\"name\": \"a\", \"node\": 0},\n"
      "             {\"name\": \"b\"}]}");
  EXPECT_EQ(e.key(), "node");
  // Auto-placement needs a full mesh.
  e = capture(
      "{\"mesh\": {\"width\": 2, \"height\": 2},\n"
      " \"cores\": [{\"name\": \"a\"}, {\"name\": \"b\"}]}");
  EXPECT_EQ(e.key(), "cores");
  EXPECT_NE(e.message().find("auto-placement"), std::string::npos);
  // Node out of range.
  e = capture(
      "{\"mesh\": {\"width\": 2, \"height\": 1},\n"
      " \"cores\": [{\"name\": \"a\", \"node\": 5}]}");
  EXPECT_EQ(e.key(), "node");
}

TEST(ScenarioErrors, RegionMustFitLargestRequest) {
  const ParseError e = capture(
      "{\"mesh\": {\"width\": 1, \"height\": 1},\n"
      " \"cores\": [{\"name\": \"a\", \"node\": 0,\n"
      "   \"region_bytes\": 4096,\n"
      "   \"sizes\": [{\"bytes\": 8192, \"weight\": 1.0}]}]}");
  EXPECT_EQ(e.key(), "region_bytes");
}

TEST(ScenarioErrors, UnreadableFile) {
  EXPECT_THROW((void)scenario::load_scenario("/nonexistent/nope.json"),
               ParseError);
}

// --- trace format errors -----------------------------------------------

traffic::TraceRecord rec(Cycle cycle, CoreId core, std::uint64_t addr,
                         RW rw, std::uint32_t bytes, bool prio) {
  traffic::TraceRecord r;
  r.cycle = cycle;
  r.core = core;
  r.addr = addr;
  r.rw = rw;
  r.bytes = bytes;
  r.priority = prio;
  return r;
}

ParseError capture_csv(const std::string& text) {
  try {
    (void)traffic::parse_trace_csv(text, "<trace>");
  } catch (const ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected a ParseError for trace: " << text;
  return ParseError("", 0, 0, "", "no error");
}

TEST(TraceErrors, CsvDiagnostics) {
  const std::string header = "cycle,core,addr,rw,bytes,priority\n";
  ParseError e = capture_csv("cycle,core\n");
  EXPECT_EQ(e.line(), 1u);
  e = capture_csv(header + "1,0,0x100,R,64\n");  // five fields
  EXPECT_EQ(e.line(), 2u);
  e = capture_csv(header + "1,0,0x100,X,64,0\n");
  EXPECT_EQ(e.key(), "rw");
  EXPECT_EQ(e.line(), 2u);
  e = capture_csv(header + "1,0,0x100,R,0,0\n");
  EXPECT_EQ(e.key(), "bytes");
  e = capture_csv(header + "1,0,0x100,R,64,7\n");
  EXPECT_EQ(e.key(), "priority");
  e = capture_csv(header + "9,0,0x100,R,64,0\n1,0,0x200,W,64,0\n");
  EXPECT_EQ(e.key(), "cycle");
  EXPECT_EQ(e.line(), 3u);
  e = capture_csv(header + "banana,0,0x100,R,64,0\n");
  EXPECT_EQ(e.key(), "cycle");
  // Signs, overflow and octal-looking text no longer wrap or saturate.
  e = capture_csv(header + "-5,0,0x100,R,64,0\n");
  EXPECT_EQ(e.key(), "cycle");
  EXPECT_EQ(e.line(), 2u);
  e = capture_csv(header + "1,0,99999999999999999999,R,64,0\n");
  EXPECT_EQ(e.key(), "addr");
  e = capture_csv(header + "1,0,0x100,R,+64,0\n");
  EXPECT_EQ(e.key(), "bytes");
}

TEST(TraceErrors, BinaryDiagnostics) {
  const std::string bad_magic = tmp_path("bad_magic.bin");
  std::FILE* f = std::fopen(bad_magic.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("NOTATRCE", 1, 8, f);
  std::fclose(f);
  try {
    (void)traffic::load_trace(bad_magic);
    ADD_FAILURE() << "expected ParseError for bad magic";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), bad_magic);
    EXPECT_NE(e.message().find("magic"), std::string::npos);
  }

  // Truncated record: magic plus half a record. The diagnostic names
  // the record index (column carries it when line is 0).
  const std::string truncated = tmp_path("truncated.bin");
  f = std::fopen(truncated.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("ANNOCTR1", 1, 8, f);
  const char half[16] = {0};
  std::fwrite(half, 1, sizeof half, f);
  std::fclose(f);
  try {
    (void)traffic::load_trace(truncated);
    ADD_FAILURE() << "expected ParseError for truncated record";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 0u);
    EXPECT_EQ(e.column(), 1u);
  }
}

TEST(TraceErrors, SliceRejectsOutOfRangeCore) {
  std::vector<traffic::TraceRecord> records{
      rec(1, 0, 0x100, RW::kRead, 64, false),
      rec(2, 7, 0x200, RW::kWrite, 64, false)};
  records[1].line = 3;
  try {
    (void)traffic::slice_trace_by_core(std::move(records), 4, "<trace>");
    ADD_FAILURE() << "expected ParseError for core out of range";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.key(), "core");
    EXPECT_EQ(e.line(), 3u);
  }
}

// --- trace round-trips --------------------------------------------------

TEST(TraceRoundTrip, CsvAndBinaryPreserveRecords) {
  const std::vector<traffic::TraceRecord> records{
      rec(0, 0, 0x0, RW::kRead, 4, false),
      rec(10, 1, 0xdeadbeef00ull, RW::kWrite, 256, false),
      rec(10, 2, 0x1000, RW::kRead, 32, true),
      rec(500000, 3, (1ull << 40) + 64, RW::kWrite, 8, false),
  };
  for (const char* name : {"roundtrip.csv", "roundtrip.bin"}) {
    const std::string path = tmp_path(name);
    ASSERT_TRUE(traffic::write_trace(path, records)) << name;
    const auto back = traffic::load_trace(path);
    ASSERT_EQ(back.size(), records.size()) << name;
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(back[i].cycle, records[i].cycle) << name << i;
      EXPECT_EQ(back[i].core, records[i].core) << name << i;
      EXPECT_EQ(back[i].addr, records[i].addr) << name << i;
      EXPECT_EQ(back[i].rw, records[i].rw) << name << i;
      EXPECT_EQ(back[i].bytes, records[i].bytes) << name << i;
      EXPECT_EQ(back[i].priority, records[i].priority) << name << i;
    }
  }
}

TEST(TraceRoundTrip, CsvAcceptsCommentsAndHex) {
  const auto records = traffic::parse_trace_csv(
      "cycle,core,addr,rw,bytes,priority\n"
      "# a comment line\n"
      "\n"
      "5, 1, 0x40, R, 64, 1\n"
      "6,2,128,W,32,0\n",
      "<trace>");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].addr, 0x40u);
  EXPECT_TRUE(records[0].priority);
  EXPECT_EQ(records[1].addr, 128u);
  EXPECT_EQ(records[1].rw, RW::kWrite);
}

// --- record -> replay ---------------------------------------------------

/// A short custom scenario (every synthetic pattern represented) used
/// for the record/replay loop; windows kept small for test budget.
Scenario short_patterns_scenario() {
  Scenario s =
      scenario::load_scenario(scenario_path("example_patterns.json"));
  s.config.sim_cycles = 6000;
  s.config.warmup_cycles = 1000;
  s.config.drain_cycle_limit = 4000;
  return s;
}

TEST(RecordReplay, ReplayIsAFixedPoint) {
  const std::string first = tmp_path("first.csv");
  const std::string second = tmp_path("second.csv");

  Scenario s = short_patterns_scenario();
  s.config.record_trace_path = first;
  const core::Metrics recorded = core::run_simulation(s.config);

  // Replay the recorded trace, recording again: the metrics and the
  // re-recorded trace must both reproduce exactly (replay emits the
  // same requests at the same cycles, and recording is a pure
  // observer).
  Scenario r = short_patterns_scenario();
  r.config.replay_trace_path = first;
  r.config.record_trace_path = second;
  const core::Metrics replayed = core::run_simulation(r.config);
  expect_metrics_identical(recorded, replayed, "record-vs-replay");

  std::ifstream a(first), b(second);
  const std::string ta((std::istreambuf_iterator<char>(a)),
                       std::istreambuf_iterator<char>());
  const std::string tb((std::istreambuf_iterator<char>(b)),
                       std::istreambuf_iterator<char>());
  ASSERT_FALSE(ta.empty());
  EXPECT_EQ(ta, tb);
}

TEST(RecordReplay, DenseAndEventBitIdentical) {
  const std::string trace = tmp_path("sched.csv");
  Scenario s = short_patterns_scenario();
  s.config.record_trace_path = trace;
  (void)core::run_simulation(s.config);

  Scenario dense = short_patterns_scenario();
  dense.config.replay_trace_path = trace;
  dense.config.sched = core::SchedMode::kDense;
  Scenario event = short_patterns_scenario();
  event.config.replay_trace_path = trace;
  event.config.sched = core::SchedMode::kEvent;
  expect_metrics_identical(core::run_simulation(dense.config),
                           core::run_simulation(event.config),
                           "replay-dense-vs-event");
}

TEST(RecordReplay, CsvAndBinaryReplayIdentically) {
  const std::string csv = tmp_path("fmt.csv");
  const std::string bin = tmp_path("fmt.bin");
  Scenario s = short_patterns_scenario();
  s.config.record_trace_path = csv;
  (void)core::run_simulation(s.config);
  // Convert via the public API, then replay both encodings.
  ASSERT_TRUE(traffic::write_trace(bin, traffic::load_trace(csv)));

  Scenario a = short_patterns_scenario();
  a.config.replay_trace_path = csv;
  Scenario b = short_patterns_scenario();
  b.config.replay_trace_path = bin;
  expect_metrics_identical(core::run_simulation(a.config),
                           core::run_simulation(b.config),
                           "replay-csv-vs-binary");
}

}  // namespace
}  // namespace annoc
