/// \file topology_test.cpp
/// File-defined topologies and the multi-controller fabric: positioned
/// parse diagnostics for malformed topology/memory objects, the channel
/// interleave math, scenario round-trips, sweep-override guards, and
/// scheduler bit-identity (dense == event) on irregular and re-tiled
/// multi-controller fabrics with the checkers on.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/simulator.hpp"
#include "metrics_identical.hpp"
#include "noc/network.hpp"
#include "noc/topology.hpp"
#include "scenario/scenario.hpp"
#include "sdram/config.hpp"
#include "sdram/interleave.hpp"

#ifndef ANNOC_SCENARIO_DIR
#define ANNOC_SCENARIO_DIR "scenarios"
#endif

namespace annoc {
namespace {

using core::SchedMode;
using core::SystemConfig;
using scenario::Scenario;

std::string scenario_path(const std::string& file) {
  return std::string(ANNOC_SCENARIO_DIR) + "/" + file;
}

ParseError capture(const std::string& text) {
  try {
    (void)scenario::parse_scenario(text, "<test>");
  } catch (const ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected a ParseError for: " << text;
  return ParseError("", 0, 0, "", "no error");
}

/// A minimal valid core array for one-node topologies.
const char* kOneCore = "[{\"name\": \"a\", \"node\": \"x\"}]";

// --- topology parse diagnostics ----------------------------------------

TEST(TopologyErrors, DuplicateNodeName) {
  const ParseError e = capture(
      "{\"topology\": {\n"
      "   \"nodes\": [\"x\",\n"
      "             \"x\"],\n"
      "   \"links\": []},\n"
      " \"cores\": " + std::string(kOneCore) + "}");
  EXPECT_EQ(e.key(), "nodes");
  EXPECT_EQ(e.line(), 3u);
  EXPECT_NE(e.message().find("duplicate node name 'x'"), std::string::npos);
}

TEST(TopologyErrors, UnknownLinkEndpoint) {
  const ParseError e = capture(
      "{\"topology\": {\n"
      "   \"nodes\": [\"x\"],\n"
      "   \"links\": [[\"x\", \"y\"]]},\n"
      " \"cores\": " + std::string(kOneCore) + "}");
  EXPECT_EQ(e.key(), "links");
  EXPECT_EQ(e.line(), 3u);
  EXPECT_NE(e.message().find("unknown node 'y'"), std::string::npos);
}

TEST(TopologyErrors, SelfLink) {
  const ParseError e = capture(
      "{\"topology\": {\n"
      "   \"nodes\": [\"x\", \"y\"],\n"
      "   \"links\": [[\"x\", \"x\"]]},\n"
      " \"cores\": " + std::string(kOneCore) + "}");
  EXPECT_EQ(e.key(), "links");
  EXPECT_EQ(e.line(), 3u);
  EXPECT_NE(e.message().find("linked to itself"), std::string::npos);
}

TEST(TopologyErrors, DuplicateLink) {
  const ParseError e = capture(
      "{\"topology\": {\n"
      "   \"nodes\": [\"x\", \"y\"],\n"
      "   \"links\": [[\"x\", \"y\"],\n"
      "             [\"y\", \"x\"]]},\n"
      " \"cores\": " + std::string(kOneCore) + "}");
  EXPECT_EQ(e.key(), "links");
  EXPECT_EQ(e.line(), 4u);
  EXPECT_NE(e.message().find("duplicate link"), std::string::npos);
}

TEST(TopologyErrors, DegreeOverflow) {
  const ParseError e = capture(
      "{\"topology\": {\n"
      "   \"nodes\": [\"c\", \"a\", \"b\", \"d\", \"e\", \"f\"],\n"
      "   \"links\": [[\"c\", \"a\"], [\"c\", \"b\"], [\"c\", \"d\"],\n"
      "             [\"c\", \"e\"],\n"
      "             [\"c\", \"f\"]]},\n"
      " \"cores\": " + std::string(kOneCore) + "}");
  EXPECT_EQ(e.key(), "links");
  EXPECT_EQ(e.line(), 5u);
  EXPECT_NE(e.message().find("fifth link"), std::string::npos);
}

TEST(TopologyErrors, UnreachableNode) {
  const ParseError e = capture(
      "{\"topology\": {\"nodes\": [\"x\", \"y\"], \"links\": []},\n"
      " \"cores\": " + std::string(kOneCore) + "}");
  EXPECT_EQ(e.key(), "topology");
  EXPECT_NE(e.message().find("unreachable"), std::string::npos);
}

TEST(TopologyErrors, ExclusivityRules) {
  const std::string topo =
      "\"topology\": {\"nodes\": [\"x\"], \"links\": []}";
  // Topology without a custom core set.
  EXPECT_EQ(capture("{" + topo + "}").key(), "topology");
  // mesh and topology both present.
  EXPECT_EQ(capture("{" + topo +
                    ", \"mesh\": {\"width\": 1, \"height\": 1},"
                    " \"cores\": " + std::string(kOneCore) + "}")
                .key(),
            "mesh");
  // mesh_preset cannot reshape a topology.
  EXPECT_EQ(capture("{" + topo + ", \"mesh_preset\": \"4x4\"," +
                    " \"cores\": " + std::string(kOneCore) + "}")
                .key(),
            "mesh_preset");
  // Adaptive routing is a mesh concept.
  EXPECT_EQ(capture("{" + topo + ", \"adaptive_routing\": true," +
                    " \"cores\": " + std::string(kOneCore) + "}")
                .key(),
            "adaptive_routing");
}

TEST(TopologyErrors, CorePlacement) {
  const std::string topo =
      "\"topology\": {\"nodes\": [\"x\", \"y\"],"
      " \"links\": [[\"x\", \"y\"]]}";
  // Every core must name a node in topology mode.
  ParseError e = capture("{" + topo + ",\n \"cores\": [{\"name\": \"a\"}]}");
  EXPECT_EQ(e.key(), "node");
  EXPECT_EQ(e.line(), 2u);
  EXPECT_NE(e.message().find("topology mode places cores explicitly"),
            std::string::npos);
  // Unknown node name.
  e = capture("{" + topo +
              ", \"cores\": [{\"name\": \"a\", \"node\": \"z\"}]}");
  EXPECT_EQ(e.key(), "node");
  EXPECT_NE(e.message().find("unknown node 'z'"), std::string::npos);
  // Node names are meaningless on a mesh.
  e = capture(
      "{\"mesh\": {\"width\": 1, \"height\": 1},"
      " \"cores\": [{\"name\": \"a\", \"node\": \"x\"}]}");
  EXPECT_EQ(e.key(), "node");
  EXPECT_NE(e.message().find("node names need a topology"),
            std::string::npos);
}

// --- memory / controller / scaling-knob diagnostics --------------------

TEST(MemoryErrors, PlacementRules) {
  // One node per controller.
  ParseError e = capture(
      "{\"num_controllers\": 2,\n"
      " \"memory\": {\"nodes\": [0]}}");
  EXPECT_EQ(e.key(), "nodes");
  EXPECT_EQ(e.line(), 2u);
  EXPECT_NE(e.message().find("one node per controller"), std::string::npos);
  // Two controllers on one node.
  e = capture("{\"num_controllers\": 2, \"memory\": {\"nodes\": [3, 3]}}");
  EXPECT_EQ(e.key(), "nodes");
  EXPECT_NE(e.message().find("hosts two controllers"), std::string::npos);
  // Node names need a topology.
  e = capture("{\"num_controllers\": 2,"
              " \"memory\": {\"nodes\": [\"x\", \"y\"]}}");
  EXPECT_EQ(e.key(), "nodes");
  // Out of range for the sdtv 3x3 fabric.
  e = capture("{\"num_controllers\": 2, \"memory\": {\"nodes\": [0, 9]}}");
  EXPECT_EQ(e.key(), "nodes");
  EXPECT_NE(e.message().find("out of range"), std::string::npos);
  // More override entries than controllers.
  e = capture("{\"memory\": {\"controllers\": [{}, {}]}}");
  EXPECT_EQ(e.key(), "controllers");
}

TEST(ScalingErrors, KnobRules) {
  // More controllers than fabric nodes (sdtv is 3x3).
  ParseError e = capture("{\"num_controllers\": 16}");
  EXPECT_EQ(e.key(), "num_controllers");
  EXPECT_NE(e.message().find("more controllers"), std::string::npos);
  // A channel granule wider than the address-map chunk.
  e = capture("{\"num_controllers\": 2, \"interleave_shift\": 10}");
  EXPECT_EQ(e.key(), "interleave_shift");
  EXPECT_NE(e.message().find("exceeds the address-map chunk"),
            std::string::npos);
  // Malformed mesh presets.
  EXPECT_EQ(capture("{\"mesh_preset\": \"4by4\"}").key(), "mesh_preset");
  EXPECT_EQ(capture("{\"mesh_preset\": \"0x4\"}").key(), "mesh_preset");
  EXPECT_EQ(capture("{\"mesh_preset\": \"65x2\"}").key(), "mesh_preset");
}

TEST(Sweepable, NewKeys) {
  EXPECT_TRUE(scenario::is_sweepable_key("num_controllers"));
  EXPECT_TRUE(scenario::is_sweepable_key("interleave_shift"));
  EXPECT_TRUE(scenario::is_sweepable_key("mesh_preset"));
  EXPECT_FALSE(scenario::is_sweepable_key("topology"));
  EXPECT_FALSE(scenario::is_sweepable_key("memory"));
}

TEST(SweepGuards, OverridesRespectTheBaseFabric) {
  Scenario s = scenario::load_scenario(scenario_path("ring8_dual_ctrl.json"));
  // mesh_preset cannot reshape a topology base.
  {
    SystemConfig cfg = s.config;
    const scenario::JsonValue pt =
        scenario::parse_json("{\"mesh_preset\": \"4x4\"}", "<pt>");
    EXPECT_THROW(scenario::apply_overrides(cfg, pt, "<pt>"), ParseError);
  }
  // num_controllers must keep matching the placed memory.nodes.
  {
    SystemConfig cfg = s.config;
    const scenario::JsonValue pt =
        scenario::parse_json("{\"num_controllers\": 3}", "<pt>");
    EXPECT_THROW(scenario::apply_overrides(cfg, pt, "<pt>"), ParseError);
  }
  // A consistent override passes.
  {
    SystemConfig cfg = s.config;
    const scenario::JsonValue pt =
        scenario::parse_json("{\"num_controllers\": 2, \"pct\": 3}", "<pt>");
    scenario::apply_overrides(cfg, pt, "<pt>");
    EXPECT_EQ(cfg.pct, 3u);
  }
}

// --- interleave math ---------------------------------------------------

TEST(Interleave, DefaultShiftIsFloorLog2) {
  EXPECT_EQ(sdram::default_interleave_shift(256), 8u);
  EXPECT_EQ(sdram::default_interleave_shift(257), 8u);
  EXPECT_EQ(sdram::default_interleave_shift(128), 7u);
  EXPECT_EQ(sdram::default_interleave_shift(1), 0u);
}

TEST(Interleave, ChannelMath) {
  const sdram::AddressMapper mapper(
      sdram::default_geometry(sdram::DdrGeneration::kDdr2),
      sdram::MapPolicy::kChunkedBankInterleave, 256);
  sdram::ChannelConfig ch;
  ch.channels = 2;
  ch.shift = 8;
  ch.mem_nodes = {0, 5};
  const sdram::MemoryMap map(mapper, ch);

  EXPECT_EQ(map.granule(), 256u);
  EXPECT_EQ(map.channel_of(0), 0u);
  EXPECT_EQ(map.channel_of(255), 0u);
  EXPECT_EQ(map.channel_of(256), 1u);
  EXPECT_EQ(map.channel_of(512), 0u);
  EXPECT_EQ(map.node_of(256), 5u);
  // Channel bits squeeze out: each controller sees a dense space.
  EXPECT_EQ(map.local_of(0), 0u);
  EXPECT_EQ(map.local_of(256), 0u);
  EXPECT_EQ(map.local_of(512), 256u);
  EXPECT_EQ(map.local_of(300), 44u);
  // The channel granule bounds a request.
  EXPECT_EQ(map.bytes_to_boundary(300), 212u);
  EXPECT_EQ(map.boundary_unit(), 256u);
  EXPECT_EQ(map.capacity_bytes(), mapper.capacity_bytes() * 2);
}

TEST(Interleave, SingleChannelIsPassThrough) {
  const sdram::AddressMapper mapper(
      sdram::default_geometry(sdram::DdrGeneration::kDdr2),
      sdram::MapPolicy::kChunkedBankInterleave, 256);
  const sdram::MemoryMap map(mapper, sdram::ChannelConfig{});
  const std::uint64_t addrs[] = {0, 17, 255, 256, 4096, 1u << 20};
  for (const std::uint64_t a : addrs) {
    EXPECT_EQ(map.channel_of(a), 0u);
    EXPECT_EQ(map.local_of(a), a);
    EXPECT_EQ(map.bytes_to_boundary(a), mapper.bytes_to_boundary(a));
  }
  EXPECT_EQ(map.boundary_unit(), mapper.boundary_unit());
  EXPECT_EQ(map.capacity_bytes(), mapper.capacity_bytes());
}

// --- TopologySpec primitives -------------------------------------------

TEST(TopologySpec, ValidateAndRoute) {
  auto spec = std::make_shared<noc::TopologySpec>();
  spec->node_names = {"a", "b", "c", "d"};
  spec->links = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};  // a 4-ring
  EXPECT_TRUE(noc::validate_topology(*spec).ok());
  EXPECT_EQ(spec->index_of("c"), std::optional<NodeId>(2u));
  EXPECT_FALSE(spec->index_of("z").has_value());

  noc::NocConfig cfg;
  cfg.topology = spec;
  noc::Network net(cfg, {noc::FlowControlKind::kRoundRobin}, {});
  EXPECT_EQ(net.hops(0, 0), 0u);
  EXPECT_EQ(net.hops(0, 1), 1u);
  EXPECT_EQ(net.hops(0, 2), 2u);  // two hops either way around
  EXPECT_EQ(net.hops(0, 3), 1u);

  // a's links take slots N (to b) and E (to d) in declaration order.
  // Both lead one hop closer to c; the lower slot wins, and the hop
  // strictly decreases the distance.
  EXPECT_EQ(net.route(0, 2), noc::kPortNorth);
  EXPECT_EQ(net.hops(1, 2), 1u);
  EXPECT_EQ(net.route(0, 0), noc::kPortMem);
}

TEST(TopologySpec, MixedKindsOnTheRingOrderByNearestController) {
  // ring8 with controllers on n0 and n4: n1/n3/n5/n7 sit one hop from a
  // controller and n2/n6 two; ties break toward the lower node id.
  const Scenario s =
      scenario::load_scenario(scenario_path("ring8_dual_ctrl.json"));
  noc::NocConfig cfg = s.config.custom_app->noc;
  cfg.mem_nodes = s.config.mem_nodes;
  const auto gss = [&](std::size_t num_gss) {
    const std::vector<noc::FlowControlKind> kinds = noc::Network::mixed_kinds(
        cfg, num_gss, noc::FlowControlKind::kGss,
        noc::FlowControlKind::kPriorityFirst);
    std::vector<NodeId> ids;
    for (NodeId n = 0; n < kinds.size(); ++n) {
      if (kinds[n] == noc::FlowControlKind::kGss) ids.push_back(n);
    }
    return ids;
  };
  EXPECT_EQ(gss(2), (std::vector<NodeId>{0, 4}));
  EXPECT_EQ(gss(4), (std::vector<NodeId>{0, 1, 3, 4}));
  EXPECT_EQ(gss(6), (std::vector<NodeId>{0, 1, 3, 4, 5, 7}));
  EXPECT_EQ(gss(8).size(), 8u);
}

// --- scenario round-trips ----------------------------------------------

TEST(TopologyRoundTrip, DumpParseDump) {
  const Scenario s =
      scenario::load_scenario(scenario_path("ring8_dual_ctrl.json"));
  ASSERT_TRUE(s.config.custom_app.has_value());
  ASSERT_TRUE(s.config.custom_app->noc.topology != nullptr);
  EXPECT_EQ(s.config.num_controllers, 2u);
  EXPECT_EQ(s.config.mem_nodes, (std::vector<NodeId>{0, 4}));
  ASSERT_EQ(s.config.controller_overrides.size(), 2u);
  EXPECT_EQ(s.config.controller_overrides[1].engine_reorder_depth,
            std::optional<std::uint32_t>(8u));

  // The dump inlines the file-referenced topology; re-parsing it must
  // reproduce both the scenario and the dump, bit for bit.
  const std::string dump1 = scenario::dump_scenario(s);
  const Scenario back = scenario::parse_scenario(dump1, "<dump>");
  EXPECT_EQ(scenario::dump_scenario(back), dump1);
  ASSERT_TRUE(back.config.custom_app.has_value());
  ASSERT_TRUE(back.config.custom_app->noc.topology != nullptr);
  EXPECT_EQ(back.config.custom_app->noc.topology->node_names,
            s.config.custom_app->noc.topology->node_names);
  EXPECT_EQ(back.config.mem_nodes, s.config.mem_nodes);
  EXPECT_EQ(back.config.num_controllers, s.config.num_controllers);
  EXPECT_EQ(back.config.interleave_shift, s.config.interleave_shift);
}

TEST(MeshPresetRoundTrip, QuadControllerScenario) {
  const Scenario s =
      scenario::load_scenario(scenario_path("ddtv_8x8_quad_ctrl.json"));
  EXPECT_EQ(s.config.mesh_preset, "8x8");
  EXPECT_EQ(s.config.num_controllers, 4u);
  const std::string dump1 = scenario::dump_scenario(s);
  const Scenario back = scenario::parse_scenario(dump1, "<dump>");
  EXPECT_EQ(scenario::dump_scenario(back), dump1);
  EXPECT_EQ(back.config.mesh_preset, "8x8");
}

// --- tiling ------------------------------------------------------------

TEST(MeshPreset, TileApplicationReplicatesAndRelays) {
  const traffic::Application base =
      traffic::build_application(traffic::AppId::kSingleDtv);
  const traffic::Application tiled = traffic::tile_application(base, 8, 8);
  EXPECT_EQ(tiled.cores.size(), 64u);
  EXPECT_EQ(tiled.noc.width, 8u);
  EXPECT_EQ(tiled.noc.height, 8u);
  std::set<std::string> names;
  std::set<NodeId> nodes;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> regions;
  for (const traffic::CorePlacement& c : tiled.cores) {
    names.insert(c.spec.name);
    nodes.insert(c.node);
    regions.emplace_back(c.spec.region_base, c.spec.region_bytes);
  }
  EXPECT_EQ(names.size(), 64u) << "replica names must stay unique";
  EXPECT_EQ(nodes.size(), 64u) << "every node hosts exactly one core";
  // Re-laid address regions must stay pairwise disjoint.
  std::sort(regions.begin(), regions.end());
  for (std::size_t i = 1; i < regions.size(); ++i) {
    EXPECT_GE(regions[i].first, regions[i - 1].first + regions[i - 1].second)
        << "regions " << i - 1 << " and " << i << " overlap";
  }
}

// --- dense == event scheduler identity on the new fabrics --------------

core::Metrics run_mode(SystemConfig cfg, SchedMode m) {
  cfg.sched = m;
  return core::run_simulation(cfg);
}

void expect_sched_identity(const SystemConfig& cfg, const std::string& tag) {
  const core::Metrics dense = run_mode(cfg, SchedMode::kDense);
  const core::Metrics event = run_mode(cfg, SchedMode::kEvent);
  core::expect_metrics_identical(event, dense, tag + "/event");
  EXPECT_GT(dense.completed_requests, 0u) << tag;
}

TEST(MultiController, RingTopologySchedIdentity) {
  const Scenario s =
      scenario::load_scenario(scenario_path("ring8_dual_ctrl.json"));
  ASSERT_TRUE(s.config.check) << "checkers must be on for this scenario";
  expect_sched_identity(s.config, "ring8_dual_ctrl");
}

TEST(MultiController, Tiled8x8QuadControllerSchedIdentity) {
  Scenario s =
      scenario::load_scenario(scenario_path("ddtv_8x8_quad_ctrl.json"));
  s.config.sim_cycles = 6000;
  s.config.warmup_cycles = 1000;
  s.config.drain_cycle_limit = 6000;
  ASSERT_TRUE(s.config.check);
  expect_sched_identity(s.config, "ddtv_8x8_quad");
}

TEST(MultiController, ExplicitPlacementAndResponsePath) {
  SystemConfig cfg;
  cfg.app = traffic::AppId::kDualDtv;  // 4x4, non-4x4 comes from preset
  cfg.mesh_preset = "4x8";
  cfg.num_controllers = 2;
  cfg.mem_nodes = {0, 31};
  cfg.interleave_shift = 7;
  cfg.model_response_path = true;
  cfg.sim_cycles = 5000;
  cfg.warmup_cycles = 500;
  cfg.drain_cycle_limit = 5000;
  expect_sched_identity(cfg, "4x8_response_path");
}

}  // namespace
}  // namespace annoc
