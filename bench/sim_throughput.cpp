/// \file sim_throughput.cpp
/// End-to-end simulator throughput (simulated cycles per wall second)
/// per design point, in both scheduler modes (dense stepping, and the
/// event-driven core). This is the guard bench for the scheduler work:
/// on idle-heavy traffic the event core must win big; on saturated
/// traffic its dense fallback must keep it level with dense stepping.
///
/// Default mode is a google-benchmark driver (cycles/sec appears as
/// items_per_second). `--json [path]` instead times each point once and
/// writes a machine-readable summary (default BENCH_throughput.json) —
/// the checked-in copy records the speedups on the reference machine.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "scenario/scenario.hpp"

using namespace annoc;

namespace {

/// A near-idle SoC: one trickle core on a 2x2 mesh. Roughly one request
/// every ~3200 cycles, so almost the entire timeline is skippable.
traffic::Application idle_app() {
  traffic::Application app;
  app.name = "idle-trickle";
  app.noc.width = 2;
  app.noc.height = 2;
  app.noc.mem_node = 0;
  traffic::CoreSpec spec;
  spec.name = "trickle";
  spec.bytes_per_cycle = 0.01;
  spec.sizes = {{32, 1.0}};
  spec.region_bytes = 1 << 20;
  app.cores.push_back({spec, static_cast<NodeId>(3)});
  return app;
}

struct Point {
  std::string name;
  core::SystemConfig cfg;
  /// When set, the config is re-loaded from this scenario file for
  /// every timed run, so the point's throughput includes the scenario
  /// loader — the annoc_run smoke point uses it to keep loader
  /// regressions visible in BENCH_throughput.json.
  std::string scenario{};
};

std::vector<Point> points() {
  std::vector<Point> pts;
  const auto base = [] {
    core::SystemConfig cfg;
    cfg.app = traffic::AppId::kSingleDtv;
    cfg.generation = sdram::DdrGeneration::kDdr2;
    cfg.clock_mhz = 333.0;
    cfg.sim_cycles = 60000;
    cfg.warmup_cycles = 10000;
    // Measurement configuration: the self-checkers are for tests, not
    // for timing runs (the *_check point below carries them).
    cfg.check = false;
    return cfg;
  };

  {
    Point p{"idle_heavy/gss", base()};
    p.cfg.custom_app = idle_app();
    pts.push_back(std::move(p));
  }
  {
    Point p{"saturated/conv", base()};
    p.cfg.design = core::DesignPoint::kConv;
    pts.push_back(std::move(p));
  }
  {
    Point p{"saturated/gss", base()};
    p.cfg.design = core::DesignPoint::kGss;
    pts.push_back(std::move(p));
  }
  {
    Point p{"saturated/gss_sagm", base()};
    p.cfg.design = core::DesignPoint::kGssSagm;
    p.cfg.priority_enabled = true;
    pts.push_back(std::move(p));
  }
  {
    // The DPQ bounded-latency arbiter on the same saturated traffic:
    // fully serialized service plus the always-on latency-bound oracle
    // (part of the engine's contract, so it is timed here, not hidden
    // behind a _check variant). Compare against saturated/gss for the
    // cost of bounded-latency arbitration.
    Point p{"saturated/dpq", base()};
    p.cfg.design = core::DesignPoint::kGss;
    p.cfg.engine = core::EngineKind::kDpq;
    p.cfg.priority_enabled = true;
    pts.push_back(std::move(p));
  }
  {
    // Same point with the observability counters attached: the delta
    // against saturated/gss_sagm is the cost of event emission (the
    // observe-off points above carry only the null-check branch).
    Point p{"saturated/gss_sagm_observe", base()};
    p.cfg.design = core::DesignPoint::kGssSagm;
    p.cfg.priority_enabled = true;
    p.cfg.observe = core::ObserveLevel::kCounters;
    pts.push_back(std::move(p));
  }
  {
    // annoc_run smoke: the checked-in Table II scenario, loaded fresh
    // inside the timing loop. Compare against saturated/gss_sagm for
    // the loader + longer-window cost.
    Point p{"scenario/table2_gss_sagm", base()};
    p.scenario = std::string(ANNOC_SCENARIO_DIR) + "/table2_gss_sagm.json";
    pts.push_back(std::move(p));
  }
  {
    // Same point with the self-checking layer (timing oracle +
    // conservation) attached: the delta against saturated/gss_sagm is
    // the price every test run pays for checks-on-by-default. Budget:
    // <= 10% on saturated traffic.
    Point p{"saturated/gss_sagm_check", base()};
    p.cfg.design = core::DesignPoint::kGssSagm;
    p.cfg.priority_enabled = true;
    p.cfg.check = true;
    pts.push_back(std::move(p));
  }

  // Fabric scaling (the Fig. 8 flavor): the dual-DTV core mix re-tiled
  // onto growing meshes, the controller count scaling alongside so
  // per-controller load stays comparable. These points track how the
  // per-cycle cost grows with fabric size and how much the event core
  // recovers once a big fabric is only partly busy. Shorter windows
  // than the saturated points: a 16x16 dense run ticks 256 routers per
  // cycle and the ratios converge well before 20k measured cycles.
  const auto scale = [&base](const char* name, const char* preset,
                             std::uint32_t ctrls) {
    Point p{name, base()};
    p.cfg.design = core::DesignPoint::kGssSagm;
    p.cfg.priority_enabled = true;
    p.cfg.app = traffic::AppId::kDualDtv;
    p.cfg.mesh_preset = preset;
    p.cfg.num_controllers = ctrls;
    p.cfg.sim_cycles = 20000;
    p.cfg.warmup_cycles = 4000;
    return p;
  };
  pts.push_back(scale("scale/4x4_1ctrl", "4x4", 1));
  pts.push_back(scale("scale/8x8_2ctrl", "8x8", 2));
  pts.push_back(scale("scale/12x12_4ctrl", "12x12", 4));
  pts.push_back(scale("scale/16x16_8ctrl", "16x16", 8));
  return pts;
}

/// Simulated cycles of one run (what the wall time buys).
std::uint64_t run_cycles(const core::SystemConfig& cfg) {
  core::Simulator sim(cfg);
  const core::Metrics m = sim.run();
  benchmark::DoNotOptimize(m.completed_requests);
  return cfg.warmup_cycles + cfg.sim_cycles + m.drained_cycles;
}

/// Resolve a point to its config for one run: scenario points re-load
/// the file each time (loader overhead is part of what this bench
/// tracks); checks stay off, matching the other measurement points.
std::uint64_t run_point(const Point& p, core::SchedMode mode) {
  core::SystemConfig cfg = p.cfg;
  if (!p.scenario.empty()) {
    cfg = scenario::load_scenario(p.scenario).config;
    cfg.check = false;
  }
  cfg.sched = mode;
  return run_cycles(cfg);
}

void BM_Throughput(benchmark::State& state, Point point,
                   core::SchedMode mode) {
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    cycles += run_point(point, mode);
  }
  // items/sec == simulated cycles per wall second.
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}

struct PointRates {
  double dense = 0.0;
  double event = 0.0;
};

/// Time one point in both scheduler modes with the mode reps
/// interleaved (dense, event, dense, event, ...): on a shared
/// machine noise is time-correlated, and interleaving spreads every
/// mode across the same measurement window so the recorded *ratios*
/// stay honest even when absolute throughput wobbles. One warmup run
/// per mode (page faults, allocator growth), then best of seven timed
/// samples of two back-to-back runs each — the fastest sample is the
/// least noisy throughput estimator.
PointRates measure_point(const Point& p) {
  using clock = std::chrono::steady_clock;
  constexpr core::SchedMode kModes[] = {core::SchedMode::kDense,
                                        core::SchedMode::kEvent};
  for (const auto mode : kModes) run_point(p, mode);
  double best[2] = {0.0, 0.0};
  for (int rep = 0; rep < 7; ++rep) {
    for (int m = 0; m < 2; ++m) {
      const auto t0 = clock::now();
      std::uint64_t cycles = 0;
      for (int r = 0; r < 2; ++r) cycles += run_point(p, kModes[m]);
      const double secs =
          std::chrono::duration<double>(clock::now() - t0).count();
      if (secs > 0.0) {
        best[m] = std::max(best[m], static_cast<double>(cycles) / secs);
      }
    }
  }
  return {best[0], best[1]};
}

int write_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"sim_throughput\",\n");
  std::fprintf(f, "  \"unit\": \"simulated cycles per wall second\",\n");
  std::fprintf(f,
               "  \"note\": \"mode reps interleaved, best of 7 samples; "
               "compare the modes within one recording: absolute rates "
               "move with host load between recordings\",\n");
  std::fprintf(f, "  \"points\": [\n");
  const std::vector<Point> pts = points();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const PointRates rates = measure_point(pts[i]);
    const double dense = rates.dense;
    const double event = rates.event;
    const double speedup = dense > 0.0 ? event / dense : 0.0;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"dense\": %.0f, "
                 "\"event\": %.0f, \"speedup\": %.3f}%s\n",
                 pts[i].name.c_str(), dense, event, speedup,
                 i + 1 < pts.size() ? "," : "");
    std::fprintf(stderr, "%-26s dense %11.0f c/s   event %11.0f c/s (%.2fx)\n",
                 pts[i].name.c_str(), dense, event, speedup);
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return write_json(i + 1 < argc ? argv[i + 1]
                                     : "BENCH_throughput.json");
    }
  }
  for (const Point& p : points()) {
    benchmark::RegisterBenchmark((p.name + "/dense").c_str(), BM_Throughput,
                                 p, core::SchedMode::kDense)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark((p.name + "/event").c_str(), BM_Throughput,
                                 p, core::SchedMode::kEvent)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
