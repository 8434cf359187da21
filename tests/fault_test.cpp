/// Fault-injection subsystem (src/fault/): dense == event scheduler identity
/// under every fault kind (explicit and random schedules), the
/// deadlock/livelock watchdog (fires on a partitioned fabric, stays
/// silent on every live one, and is a pure observer — bit-identical
/// metrics armed or not), faulted-timing verification through the
/// self-checkers, FaultMetrics accounting, scenario round-trips and
/// positioned validation errors for the `faults` schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "fault/schedule.hpp"
#include "fault/spec.hpp"
#include "metrics_identical.hpp"
#include "scenario/scenario.hpp"

#ifndef ANNOC_SCENARIO_DIR
#define ANNOC_SCENARIO_DIR "scenarios"
#endif

namespace annoc {
namespace {

using core::Metrics;
using core::SystemConfig;

std::string scenario_path(const std::string& file) {
  return std::string(ANNOC_SCENARIO_DIR) + "/" + file;
}

/// Run `cfg` dense and event-driven; demand bit-identical Metrics (the
/// tentpole contract: fault edges are event horizons, not dense-only
/// side effects) and return the dense result.
Metrics run_both_scheds(SystemConfig cfg, const std::string& tag) {
  cfg.sched = core::SchedMode::kDense;
  const Metrics dense = core::run_simulation(cfg);
  SystemConfig event = cfg;
  event.sched = core::SchedMode::kEvent;
  core::expect_metrics_identical(core::run_simulation(event), dense,
                                 tag + "/event_vs_dense");
  return dense;
}

/// A small, fully-checked operating point: single-DTV re-tiled on a
/// 4x4 mesh (so link/router fault targets are known: node n links to
/// n+1 in-row and n+4 down-column), priority on, checkers on.
SystemConfig base_config() {
  SystemConfig cfg;
  cfg.design = core::DesignPoint::kGssSagm;
  cfg.app = traffic::AppId::kSingleDtv;
  cfg.generation = sdram::DdrGeneration::kDdr2;
  cfg.clock_mhz = 333.0;
  cfg.mesh_preset = "4x4";
  cfg.priority_enabled = true;
  cfg.sim_cycles = 6000;
  cfg.warmup_cycles = 1000;
  cfg.check = true;
  return cfg;
}

fault::FaultSpec make_fault(fault::FaultKind kind, Cycle at, Cycle until) {
  fault::FaultSpec f;
  f.kind = kind;
  f.at = at;
  f.until = until;
  return f;
}

// --- dense == event identity per fault kind ----------------------------

TEST(FaultIdentity, DeadLink) {
  SystemConfig cfg = base_config();
  fault::FaultSpec f = make_fault(fault::FaultKind::kDeadLink, 2000, 4500);
  f.a = 5;
  f.b = 6;
  cfg.faults.push_back(f);
  const Metrics m = run_both_scheds(cfg, "dead_link");
  EXPECT_EQ(m.fault.dead_link_activations, 1u);
  EXPECT_EQ(m.fault.deactivations, 1u);
  EXPECT_EQ(m.fault.first_activation, 2000u);
  EXPECT_GT(m.completed_requests, 0u);
}

TEST(FaultIdentity, DegradedLink) {
  SystemConfig cfg = base_config();
  fault::FaultSpec f = make_fault(fault::FaultKind::kDegradedLink, 2000, 4500);
  f.a = 5;
  f.b = 6;
  f.penalty = 10;
  cfg.faults.push_back(f);
  const Metrics m = run_both_scheds(cfg, "degraded_link");
  EXPECT_EQ(m.fault.degraded_link_activations, 1u);
  EXPECT_EQ(m.fault.deactivations, 1u);
}

TEST(FaultIdentity, SlowRouter) {
  SystemConfig cfg = base_config();
  fault::FaultSpec f = make_fault(fault::FaultKind::kSlowRouter, 2000, 5000);
  f.router = 5;
  f.period = 4;
  cfg.faults.push_back(f);
  const Metrics m = run_both_scheds(cfg, "slow_router");
  EXPECT_EQ(m.fault.slow_router_activations, 1u);
}

TEST(FaultIdentity, RefreshStorm) {
  SystemConfig cfg = base_config();
  cfg.refresh = true;
  const Metrics nominal = run_both_scheds(cfg, "refresh_nominal");
  fault::FaultSpec f = make_fault(fault::FaultKind::kRefreshStorm, 2000, 5000);
  f.channel = 0;
  f.trefi = 300;
  cfg.faults.push_back(f);
  const Metrics m = run_both_scheds(cfg, "refresh_storm");
  EXPECT_EQ(m.fault.refresh_storm_activations, 1u);
  // The storm must actually tighten tREFI inside the window — and with
  // check on, the TimingOracle verified every one of those extra REFs
  // against the *faulted* constraints (a nominal-timing oracle would
  // have flagged them).
  EXPECT_GT(m.device.refreshes, nominal.device.refreshes);
}

TEST(FaultIdentity, ThrottledBanks) {
  SystemConfig cfg = base_config();
  fault::FaultSpec f =
      make_fault(fault::FaultKind::kThrottledBanks, 2000, 5000);
  f.channel = 0;
  f.bank_mask = 0x3;
  f.extra_trcd = 8;
  f.extra_trp = 8;
  cfg.faults.push_back(f);
  // check is on: the oracle folds the same bank-extra timeline into its
  // expected tRCD/tRP, so a clean run certifies device and oracle agree
  // on the throttled constraints.
  const Metrics m = run_both_scheds(cfg, "throttled_banks");
  EXPECT_EQ(m.fault.throttled_bank_activations, 1u);
}

TEST(FaultIdentity, RandomScheduleAllKinds) {
  SystemConfig cfg = base_config();
  cfg.refresh = true;  // make refresh storms drawable
  cfg.fault_seed = 20260809;
  cfg.fault_count = 5;
  cfg.fault_start = 1500;
  cfg.fault_spacing = 700;
  cfg.fault_duration = 1000;
  const Metrics m = run_both_scheds(cfg, "random_schedule");
  const std::uint64_t activations =
      m.fault.dead_link_activations + m.fault.degraded_link_activations +
      m.fault.slow_router_activations + m.fault.refresh_storm_activations +
      m.fault.throttled_bank_activations;
  EXPECT_EQ(activations, 5u);
  // Pure function of the knobs: a second dense run reproduces bitwise.
  SystemConfig again = cfg;
  again.sched = core::SchedMode::kDense;
  core::expect_metrics_identical(core::run_simulation(again),
                                 core::run_simulation(again),
                                 "random_schedule/replay");
}

TEST(FaultIdentity, MultiControllerChannelFaults) {
  // SDRAM faults are per-channel: storm channel 1, throttle channel 0
  // on a dual-controller fabric — each oracle folds only its own
  // channel's timeline.
  SystemConfig cfg = base_config();
  cfg.refresh = true;
  cfg.num_controllers = 2;
  fault::FaultSpec storm =
      make_fault(fault::FaultKind::kRefreshStorm, 2000, 5000);
  storm.channel = 1;
  storm.trefi = 300;
  cfg.faults.push_back(storm);
  fault::FaultSpec throttle =
      make_fault(fault::FaultKind::kThrottledBanks, 2500, 5500);
  throttle.channel = 0;
  throttle.bank_mask = 0x1;
  throttle.extra_trcd = 6;
  throttle.extra_trp = 6;
  cfg.faults.push_back(throttle);
  const Metrics m = run_both_scheds(cfg, "multi_ctrl_faults");
  EXPECT_EQ(m.fault.refresh_storm_activations, 1u);
  EXPECT_EQ(m.fault.throttled_bank_activations, 1u);
}

// --- FaultMetrics accounting -------------------------------------------

TEST(FaultMetrics, PrePostSplitAccountsEveryRequest) {
  SystemConfig cfg = base_config();
  fault::FaultSpec f = make_fault(fault::FaultKind::kDegradedLink, 3000, 0);
  f.a = 5;
  f.b = 6;
  f.penalty = 12;
  cfg.faults.push_back(f);
  cfg.sched = core::SchedMode::kDense;
  const Metrics m = core::run_simulation(cfg);
  EXPECT_EQ(m.fault.first_activation, 3000u);
  EXPECT_EQ(m.fault.pre_fault_packets + m.fault.post_fault_packets,
            m.completed_requests);
  EXPECT_GT(m.fault.pre_fault_packets, 0u);
  EXPECT_GT(m.fault.post_fault_packets, 0u);
  EXPECT_GT(m.fault.pre_fault_avg_latency, 0.0);
  EXPECT_GT(m.fault.post_fault_avg_latency, 0.0);
  EXPECT_GT(m.fault.pre_fault_utilization, 0.0);
  EXPECT_GT(m.fault.post_fault_utilization, 0.0);
}

TEST(FaultMetrics, FaultFreeRunsStayAllZero) {
  SystemConfig cfg = base_config();
  cfg.sched = core::SchedMode::kDense;
  const Metrics m = core::run_simulation(cfg);
  EXPECT_EQ(m.fault.first_activation, kNeverCycle);
  EXPECT_EQ(m.fault.pre_fault_packets, 0u);
  EXPECT_EQ(m.fault.post_fault_packets, 0u);
  EXPECT_EQ(m.fault.pre_fault_utilization, 0.0);
  EXPECT_EQ(m.fault.post_fault_utilization, 0.0);
}

// --- watchdog ----------------------------------------------------------

TEST(Watchdog, PureObserverOnLiveFabric) {
  // Armed vs disarmed must be bit-identical when nothing deadlocks —
  // including under a fault that slows (but never stops) progress.
  SystemConfig cfg = base_config();
  fault::FaultSpec f = make_fault(fault::FaultKind::kDegradedLink, 2000, 4500);
  f.a = 5;
  f.b = 6;
  f.penalty = 10;
  cfg.faults.push_back(f);
  cfg.watchdog_cycles = 0;
  const Metrics off = run_both_scheds(cfg, "watchdog_off");
  cfg.watchdog_cycles = 2500;
  const Metrics on = run_both_scheds(cfg, "watchdog_on");
  core::expect_metrics_identical(on, off, "watchdog_on_vs_off");
}

TEST(WatchdogDeathTest, FiresOnPartitionedFabric) {
  // deadlock_demo.json kills the only link between the cores and the
  // memory node; every sched mode must detect the stall and abort with
  // the structured census.
  const scenario::Scenario s =
      scenario::load_scenario(scenario_path("faults/deadlock_demo.json"));
  SystemConfig dense = s.config;
  dense.sched = core::SchedMode::kDense;
  EXPECT_DEATH({ (void)core::run_simulation(dense); }, "watchdog");
  SystemConfig event = s.config;
  event.sched = core::SchedMode::kEvent;
  EXPECT_DEATH({ (void)core::run_simulation(event); }, "watchdog");
}

TEST(Watchdog, SilentOnEveryCheckedInFaultScenario) {
  // Every scenario under scenarios/faults/ except the deadlock demo
  // must run to completion with its watchdog armed. New fault
  // scenarios get this coverage for free.
  std::size_t ran = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           scenario_path("faults"))) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() != ".json") continue;
    if (name.find("deadlock") != std::string::npos) continue;
    const scenario::Scenario s = scenario::load_scenario(entry.path().string());
    SystemConfig cfg = s.config;
    cfg.sched = core::SchedMode::kDense;
    // Keep the sweep fast; the full windows run in scenario-level CI.
    cfg.sim_cycles = std::min<Cycle>(cfg.sim_cycles, 12000);
    if (cfg.watchdog_cycles == 0) cfg.watchdog_cycles = 30000;
    const Metrics m = core::run_simulation(cfg);
    EXPECT_GT(m.completed_requests, 0u) << name;
    ++ran;
  }
  EXPECT_GE(ran, 4u);  // the four live fault scenarios are covered
}

// --- random-schedule construction --------------------------------------

TEST(FaultSchedule, RandomSdramFaultsSkipDpqChannels) {
  fault::FabricInfo fabric;
  fabric.num_nodes = 4;
  fabric.links = {{0, 1}, {1, 2}, {2, 3}};
  fabric.mem_nodes = {0, 3};
  fabric.num_channels = 2;
  fabric.refresh_enabled = true;
  fabric.nominal_trefi = 2600;
  fabric.trfc = 43;
  fabric.sdram_fault_ok = {1, 0};  // channel 1 runs DPQ
  fault::RandomFaultParams rnd;
  rnd.seed = 7;
  rnd.count = 8;
  rnd.kinds = "refresh_storm,throttled_banks";
  const fault::FaultSchedule s =
      fault::FaultSchedule::build({}, rnd, fabric);
  ASSERT_EQ(s.faults().size(), 8u);
  for (const fault::FaultSpec& f : s.faults()) {
    EXPECT_EQ(f.channel, 0u) << "random SDRAM fault landed on DPQ channel";
  }
  // Every eligible channel masked off: the SDRAM kinds drop out
  // entirely rather than violating a DPQ latency bound.
  fabric.sdram_fault_ok = {0, 0};
  const fault::FaultSchedule none =
      fault::FaultSchedule::build({}, rnd, fabric);
  EXPECT_TRUE(none.empty());
}

TEST(FaultSchedule, RandomDeadLinksKeepMemoryReachable) {
  // On a line topology with memory only at node 0, EVERY link is a cut
  // edge: no dead-link placement can keep memory reachable, so the
  // builder must degrade every draw to a degraded_link instead of
  // partitioning the fabric.
  fault::FabricInfo fabric;
  fabric.num_nodes = 4;
  fabric.links = {{0, 1}, {1, 2}, {2, 3}};
  fabric.mem_nodes = {0};
  fabric.num_channels = 1;
  fault::RandomFaultParams rnd;
  rnd.seed = 3;
  rnd.count = 6;
  rnd.kinds = "dead_link";
  rnd.duration = 0;  // permanent, so a placed dead link would stay dead
  const fault::FaultSchedule s =
      fault::FaultSchedule::build({}, rnd, fabric);
  ASSERT_EQ(s.faults().size(), 6u);
  for (const fault::FaultSpec& f : s.faults()) {
    EXPECT_EQ(f.kind, fault::FaultKind::kDegradedLink)
        << "a random dead link partitioned the fabric";
    EXPECT_GE(f.penalty, 2u);
  }
}

// --- scenario schema ---------------------------------------------------

TEST(FaultScenario, RoundTripAllKinds) {
  const std::string text = R"({
    "name": "rt",
    "design": "gss+sagm",
    "app": "sdtv",
    "ddr": 2,
    "clock_mhz": 333,
    "refresh": true,
    "measure_cycles": 6000,
    "warmup_cycles": 1000,
    "watchdog_cycles": 9000,
    "fault.seed": "0xbeef",
    "fault.count": 3,
    "fault.kinds": "dead_link,slow_router",
    "fault.start": 1500,
    "fault.spacing": 800,
    "fault.duration": 1200,
    "faults": [
      {"kind": "dead_link", "at": 2000, "until": 4000, "a": 1, "b": 2},
      {"kind": "degraded_link", "at": 2100, "a": 2, "b": 5, "penalty": 9},
      {"kind": "slow_router", "at": 2200, "router": 4, "period": 5},
      {"kind": "refresh_storm", "at": 2300, "channel": 0, "trefi": 350},
      {"kind": "throttled_banks", "at": 2400, "channel": 0, "banks": 5,
       "extra_trcd": 4, "extra_trp": 2}
    ]
  })";
  const scenario::Scenario s = scenario::parse_scenario(text, "<rt>");
  EXPECT_EQ(s.config.watchdog_cycles, 9000u);
  EXPECT_EQ(s.config.fault_seed, 0xbeefu);
  EXPECT_EQ(s.config.fault_count, 3u);
  EXPECT_EQ(s.config.fault_kinds, "dead_link,slow_router");
  EXPECT_EQ(s.config.fault_start, 1500u);
  EXPECT_EQ(s.config.fault_spacing, 800u);
  EXPECT_EQ(s.config.fault_duration, 1200u);
  ASSERT_EQ(s.config.faults.size(), 5u);
  EXPECT_EQ(s.config.faults[0].kind, fault::FaultKind::kDeadLink);
  EXPECT_EQ(s.config.faults[0].until, 4000u);
  EXPECT_EQ(s.config.faults[1].penalty, 9u);
  EXPECT_EQ(s.config.faults[2].period, 5u);
  EXPECT_EQ(s.config.faults[3].trefi, 350u);
  EXPECT_EQ(s.config.faults[4].bank_mask, 5u);
  EXPECT_EQ(s.config.faults[4].extra_trcd, 4u);
  EXPECT_EQ(s.config.faults[4].extra_trp, 2u);
  const std::string dump1 = scenario::dump_scenario(s);
  const scenario::Scenario s2 = scenario::parse_scenario(dump1, "<rt2>");
  EXPECT_EQ(scenario::dump_scenario(s2), dump1);
}

TEST(FaultScenario, CheckedInFilesRoundTrip) {
  const char* files[] = {
      "faults/dead_link_reroute.json", "faults/refresh_storm.json",
      "faults/gss_escalation.json", "faults/dpq_escalation.json",
      "faults/deadlock_demo.json",
  };
  for (const char* f : files) {
    const scenario::Scenario s = scenario::load_scenario(scenario_path(f));
    const std::string dump1 = scenario::dump_scenario(s);
    const scenario::Scenario s2 = scenario::parse_scenario(dump1, f);
    EXPECT_EQ(scenario::dump_scenario(s2), dump1) << f;
  }
}

TEST(FaultScenario, ValidationErrors) {
  const auto expect_throws = [](const std::string& faults_snippet,
                                const char* tag,
                                const std::string& extra = "") {
    const std::string text = "{\"name\": \"v\", \"design\": \"gss\"" + extra +
                             ", \"faults\": [" + faults_snippet + "]}";
    EXPECT_THROW((void)scenario::parse_scenario(text, "<v>"), ParseError)
        << tag;
  };
  expect_throws(R"({"kind": "meteor_strike", "at": 1})", "unknown kind");
  expect_throws(R"({"kind": "dead_link", "at": 100, "until": 50,
                    "a": 0, "b": 1})",
                "until before at");
  expect_throws(R"({"kind": "dead_link", "at": 1, "a": 2, "b": 2})",
                "self-loop link");
  expect_throws(R"({"kind": "refresh_storm", "at": 1, "trefi": 300})",
                "storm without refresh enabled");
  expect_throws(R"({"kind": "refresh_storm", "at": 1, "trefi": 0})",
                "storm with zero trefi", ", \"refresh\": true");
  expect_throws(R"({"kind": "throttled_banks", "at": 1, "banks": 1})",
                "throttle without extras");
  expect_throws(R"({"kind": "throttled_banks", "at": 1, "banks": 0,
                    "extra_trcd": 2})",
                "banks zero");
  // fault.kinds tokens are validated up front.
  EXPECT_THROW((void)scenario::parse_scenario(
                   R"({"name": "v", "design": "gss",
                       "fault.kinds": "dead_link,gremlins"})",
                   "<v>"),
               ParseError);
}

TEST(FaultScenario, LinkFaultsNeedNeighbouringRouters) {
  const auto capture = [](const std::string& text) {
    try {
      (void)scenario::parse_scenario(text, "<link>");
    } catch (const ParseError& e) {
      return e;
    }
    ADD_FAILURE() << "expected a ParseError for: " << text;
    return ParseError("", 0, 0, "", "no error");
  };
  // On a 4x4 mesh routers 0 and 5 are diagonal: no link joins them, so
  // the fault is rejected at load instead of aborting at its cycle.
  for (const char* kind : {"dead_link", "degraded_link"}) {
    const ParseError e = capture(
        std::string("{\"app\": \"ddtv\", \"mesh_preset\": \"4x4\",\n"
                    " \"faults\": [\n"
                    "   {\"kind\": \"") +
        kind + "\", \"at\": 900, \"a\": 0, \"b\": 5}]}");
    EXPECT_EQ(e.key(), "a") << kind;
    EXPECT_EQ(e.line(), 3u) << kind;
    EXPECT_NE(e.message().find("share no link on the 16-node fabric"),
              std::string::npos)
        << e.message();
  }
  // Endpoints wrap into the fabric like the schedule wraps them: 16 and
  // 17 are routers 0 and 1, neighbours; 16 and 20 are 0 and 4, too; 0
  // and 16 are the same router.
  EXPECT_NO_THROW((void)scenario::parse_scenario(
      R"({"mesh_preset": "4x4", "faults": [
            {"kind": "dead_link", "a": 16, "b": 17},
            {"kind": "dead_link", "a": 16, "b": 20}]})",
      "<wrap>"));
  EXPECT_NE(capture(R"({"mesh_preset": "4x4", "faults": [
                         {"kind": "dead_link", "a": 0, "b": 16}]})")
                .message()
                .find("(0 and 0 modulo 16)"),
            std::string::npos);
  // A file topology checks its own links: n0-n2 skips n1 on the ring.
  const std::string ring =
      scenario::dump_scenario(scenario::load_scenario(
          scenario_path("ring8_dual_ctrl.json")));
  const std::string ring_fault =
      ring.substr(0, ring.rfind('}')) +
      ", \"faults\": [{\"kind\": \"dead_link\", \"a\": 0, \"b\": 2}]}";
  EXPECT_NE(capture(ring_fault).message().find("8-node fabric"),
            std::string::npos);

  // A sweep point that re-tiles the base scenario re-checks its link
  // faults against the new mesh (5-6 and 1-2 are neighbours on 8x8, but
  // 5 and 6 sit on different rows of 3x3).
  const scenario::Scenario base = scenario::load_scenario(
      scenario_path("faults/dead_link_reroute.json"));
  SystemConfig cfg = base.config;
  scenario::apply_overrides(
      cfg, scenario::parse_json(R"({"mesh_preset": "8x8"})", "<pt>"), "<pt>");
  cfg = base.config;
  try {
    scenario::apply_overrides(
        cfg, scenario::parse_json("{\n  \"mesh_preset\": \"3x3\"}", "<pt>"),
        "<pt>");
    ADD_FAILURE() << "3x3 re-tiling kept a link fault across no link";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.key(), "mesh_preset");
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(e.message().find("routers 5 and 6 share no link on the 9-node "
                               "fabric"),
              std::string::npos)
        << e.message();
  }
  // Swapping the paper app re-tiles too: 2-3 is a 4x4 (ddtv) link, not
  // a 3x3 (bluray) one.
  const scenario::Scenario ddtv = scenario::parse_scenario(
      R"({"app": "ddtv", "faults": [{"kind": "dead_link", "a": 2, "b": 3}]})",
      "<ddtv>");
  cfg = ddtv.config;
  EXPECT_THROW(scenario::apply_overrides(
                   cfg, scenario::parse_json(R"({"app": "bluray"})", "<pt>"),
                   "<pt>"),
               ParseError);
}

TEST(FaultScenario, FaultKnobsAreSweepableButFaultsArrayIsNot) {
  EXPECT_TRUE(scenario::is_sweepable_key("fault.count"));
  EXPECT_TRUE(scenario::is_sweepable_key("fault.seed"));
  EXPECT_TRUE(scenario::is_sweepable_key("fault.kinds"));
  EXPECT_TRUE(scenario::is_sweepable_key("watchdog_cycles"));
  EXPECT_FALSE(scenario::is_sweepable_key("faults"));
}

}  // namespace
}  // namespace annoc
