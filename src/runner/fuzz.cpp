#include "runner/fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/rng.hpp"
#include "runner/experiment_runner.hpp"
#include "traffic/application.hpp"

namespace annoc::runner {
namespace {

/// Visitor for core::for_each_comparable_field, recording the first
/// mismatching field. Doubles are compared bitwise — the determinism
/// contracts (event scheduler, parallel runner) promise identical
/// arithmetic, not merely close results. The field list lives with
/// Metrics itself (a static_assert there fails the build when Metrics
/// grows a field this comparison would silently skip).
class MetricsDiff {
 public:
  explicit MetricsDiff(const char* what) : what_(what) {}

  void u64(const std::string& field, std::uint64_t a, std::uint64_t b) {
    if (!diff_.empty() || a == b) return;
    char buf[192];
    std::snprintf(buf, sizeof buf, "%s: %s %llu != %llu", what_,
                  field.c_str(), static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(b));
    diff_ = buf;
  }

  void f64(const std::string& field, double a, double b) {
    if (!diff_.empty()) return;
    if (std::memcmp(&a, &b, sizeof a) == 0) return;
    char buf[192];
    std::snprintf(buf, sizeof buf, "%s: %s %.17g != %.17g (bitwise)", what_,
                  field.c_str(), a, b);
    diff_ = buf;
  }

  void stat(const std::string& field, const LatencyStat& a,
            const LatencyStat& b) {
    u64(field + ".count", a.count(), b.count());
    f64(field + ".mean", a.mean(), b.mean());
    f64(field + ".min", a.min(), b.min());
    f64(field + ".max", a.max(), b.max());
    u64(field + ".p50", a.p50(), b.p50());
    u64(field + ".p95", a.p95(), b.p95());
    u64(field + ".p99", a.p99(), b.p99());
  }

  [[nodiscard]] const std::string& diff() const { return diff_; }

 private:
  const char* what_;
  std::string diff_;
};

std::string compare_metrics(const char* what, const core::Metrics& a,
                            const core::Metrics& b) {
  MetricsDiff d(what);
  core::for_each_comparable_field(a, b, d);
  return d.diff();
}

std::string sanity_check(const core::SystemConfig& cfg,
                         const core::Metrics& m) {
  const auto fail = [](const char* what, double a, double b) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "sanity: %s (%.17g vs %.17g)", what, a, b);
    return std::string(buf);
  };
  constexpr double kEps = 1e-9;
  if (m.utilization < 0.0 || m.utilization > 1.0 + kEps) {
    return fail("utilization outside [0,1]", m.utilization, 1.0);
  }
  if (m.raw_utilization < 0.0 || m.raw_utilization > 1.0 + kEps) {
    return fail("raw_utilization outside [0,1]", m.raw_utilization, 1.0);
  }
  if (m.utilization > m.raw_utilization + kEps) {
    return fail("useful utilization exceeds raw bus occupancy",
                m.utilization, m.raw_utilization);
  }
  if (m.completed_subpackets < m.completed_requests) {
    return fail("fewer subpackets than completed requests",
                static_cast<double>(m.completed_subpackets),
                static_cast<double>(m.completed_requests));
  }
  if (m.measured_cycles != cfg.sim_cycles) {
    return fail("measurement window length != sim_cycles",
                static_cast<double>(m.measured_cycles),
                static_cast<double>(cfg.sim_cycles));
  }
  if (m.all_packets.count() != m.completed_requests) {
    return fail("latency sample count != completed requests",
                static_cast<double>(m.all_packets.count()),
                static_cast<double>(m.completed_requests));
  }
  if (m.outstanding_requests > 0 &&
      m.drained_cycles != cfg.drain_cycle_limit) {
    return fail("run left requests outstanding without exhausting drain",
                static_cast<double>(m.outstanding_requests),
                static_cast<double>(m.drained_cycles));
  }
  const double fairness = m.fairness_index(
      cfg.custom_app ? *cfg.custom_app : traffic::build_application(cfg.app));
  if (fairness < 0.0 || fairness > 1.0 + 1e-4) {
    return fail("Jain fairness index outside [0,1]", fairness, 1.0);
  }
  return "";
}

/// A DDR generation and one of its clocks.
void draw_ddr(Rng& rng, core::SystemConfig& cfg) {
  switch (rng.next_below(3)) {
    case 0: {
      cfg.generation = sdram::DdrGeneration::kDdr1;
      const double clocks[] = {100.0, 133.0, 200.0};
      cfg.clock_mhz = clocks[rng.next_below(3)];
      break;
    }
    case 1: {
      cfg.generation = sdram::DdrGeneration::kDdr2;
      const double clocks[] = {266.0, 333.0, 400.0};
      cfg.clock_mhz = clocks[rng.next_below(3)];
      break;
    }
    default: {
      cfg.generation = sdram::DdrGeneration::kDdr3;
      const double clocks[] = {533.0, 667.0, 800.0};
      cfg.clock_mhz = clocks[rng.next_below(3)];
      break;
    }
  }
}

}  // namespace

core::SystemConfig random_config(std::uint64_t seed) {
  // Decorrelate from the traffic RNG streams (which splitmix the
  // per-run seed directly).
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x243f6a8885a308d3ULL);
  core::SystemConfig cfg;

  const traffic::AppId apps[] = {traffic::AppId::kBluray,
                                 traffic::AppId::kSingleDtv,
                                 traffic::AppId::kDualDtv};
  cfg.app = apps[rng.next_below(3)];

  draw_ddr(rng, cfg);

  // Short windows: the differential runs every config six times.
  cfg.sim_cycles = 3000 + rng.next_below(5001);
  cfg.warmup_cycles = 500 + rng.next_below(1001);
  cfg.drain_cycle_limit = 3000 + rng.next_below(3001);
  cfg.seed = rng.next_u64();

  cfg.priority_enabled = rng.chance(0.5);
  cfg.model_response_path = rng.chance(0.25);
  cfg.refresh = rng.chance(1.0 / 3.0);
  cfg.adaptive_routing = rng.chance(0.25);
  if (rng.chance(0.25)) cfg.num_vcs = 2;
  cfg.pct = 2 + static_cast<std::uint32_t>(rng.next_below(4));

  const std::uint32_t chunks[] = {0, 0, 128, 256};
  cfg.map_chunk_bytes = chunks[rng.next_below(4)];
  const std::uint32_t splits[] = {0, 0, 4, 8};
  cfg.split_beats = splits[rng.next_below(4)];

  // Multi-controller fabrics: a quarter of the configs stripe the
  // address space over 2 or 3 controllers (auto-placed on the mesh
  // perimeter), sometimes with an explicit channel granule and a
  // per-controller engine override — the dense == event identity
  // and the per-controller checkers must hold there too.
  if (rng.chance(0.25)) {
    cfg.num_controllers = 2 + static_cast<std::uint32_t>(rng.next_below(2));
    if (rng.chance(0.5)) {
      // Keep the channel granule within the address-map chunk
      // (map_chunk_bytes 0 means the 256-byte default).
      const std::uint32_t max_shift = cfg.map_chunk_bytes == 128 ? 7u : 8u;
      cfg.interleave_shift =
          6 + static_cast<std::uint32_t>(rng.next_below(max_shift - 5));
    }
    if (rng.chance(0.5)) {
      core::ControllerOverrides ov;
      ov.engine_reorder_depth =
          1 + static_cast<std::uint32_t>(rng.next_below(4));
      // Mixed-engine fabrics: sometimes pin channel 0 to the DPQ
      // arbiter while the other channels keep the design-implied
      // engine — the per-channel latency-bound oracle must hold there.
      if (rng.chance(1.0 / 3.0)) ov.engine = core::EngineKind::kDpq;
      cfg.controller_overrides.push_back(ov);  // channel 0 only
    }
  }

  if (rng.chance(0.25)) {
    cfg.engine_lookahead = static_cast<std::uint32_t>(rng.next_below(5));
  }
  if (rng.chance(0.25)) {
    cfg.engine_reorder_depth =
        1 + static_cast<std::uint32_t>(rng.next_below(4));
  }
  if (rng.chance(0.25)) {
    cfg.num_gss_routers = static_cast<std::size_t>(rng.next_below(10));
  }

  cfg.check = true;  // the whole point
  return cfg;
}

std::array<core::DesignPoint, 4> fuzz_design_points(std::uint64_t seed) {
  return {core::DesignPoint::kConv, core::DesignPoint::kRef4,
          core::DesignPoint::kGss,
          (seed & 1) != 0 ? core::DesignPoint::kGssSagmSti
                          : core::DesignPoint::kGssSagm};
}

std::string run_differential(const core::SystemConfig& cfg) {
  // Scheduler identity: dense stepping is the reference, and the
  // event-driven core must match it bitwise.
  core::SystemConfig dense = cfg;
  dense.sched = core::SchedMode::kDense;
  core::SystemConfig event = cfg;
  event.sched = core::SchedMode::kEvent;

  const core::Metrics serial_dense = core::run_simulation(dense);
  const core::Metrics serial_event = core::run_simulation(event);

  std::string err =
      compare_metrics("event vs dense", serial_event, serial_dense);
  if (!err.empty()) return err;

  ExperimentRunner pool(2u);
  const auto parallel = pool.run_metrics({dense, event});
  err = compare_metrics("runner[dense] vs serial", parallel[0], serial_dense);
  if (!err.empty()) return err;
  err = compare_metrics("runner[event] vs serial", parallel[1], serial_event);
  if (!err.empty()) return err;

  // Streaming-submission identity under oversubscription: more workers
  // than jobs AND than cores, pulling from a source and delivering in
  // whatever completion order the scheduler produces. The sink keys
  // results by index, so the stream must still match serial bitwise.
  const core::SystemConfig stream_cfgs[] = {dense, event};
  core::Metrics streamed[2];
  std::size_t next = 0;
  const JobSource source = [&]() -> std::optional<StreamJob> {
    if (next >= 2) return std::nullopt;
    const std::size_t i = next++;
    return StreamJob{i, stream_cfgs[i]};
  };
  const StreamSink sink = [&](RunResult&& r) {
    streamed[r.index] = std::move(r.metrics);
  };
  ExperimentRunner oversub(2 * std::thread::hardware_concurrency());
  oversub.run_stream(source, sink);
  err = compare_metrics("stream[dense] vs serial", streamed[0], serial_dense);
  if (!err.empty()) return err;
  err = compare_metrics("stream[event] vs serial", streamed[1], serial_event);
  if (!err.empty()) return err;

  return sanity_check(cfg, serial_dense);
}

std::string fuzz_seed(std::uint64_t seed) {
  const core::SystemConfig base = random_config(seed);
  for (const core::DesignPoint d : fuzz_design_points(seed)) {
    core::SystemConfig cfg = base;
    cfg.design = d;
    const std::string err = run_differential(cfg);
    if (!err.empty()) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "seed %llu, design %s: ",
                    static_cast<unsigned long long>(seed),
                    core::to_string(d));
      return buf + err;
    }
  }
  // Explicit-engine legs: the `engine` knob decouples the arbiter from
  // the design point. The first always runs the DPQ bounded-latency
  // arbiter (its latency-bound oracle is attached in every run); the
  // second crosses conv/streamlined onto the other family's design.
  struct EngineLeg {
    core::DesignPoint design;
    core::EngineKind engine;
  };
  const EngineLeg legs[] = {
      {(seed & 1) != 0 ? core::DesignPoint::kGss
                       : core::DesignPoint::kGssSagm,
       core::EngineKind::kDpq},
      {(seed & 2) != 0 ? core::DesignPoint::kGssSagm
                       : core::DesignPoint::kConv,
       (seed & 2) != 0 ? core::EngineKind::kConv
                       : core::EngineKind::kStreamlined},
  };
  for (const EngineLeg& leg : legs) {
    core::SystemConfig cfg = base;
    cfg.design = leg.design;
    cfg.engine = leg.engine;
    const std::string err = run_differential(cfg);
    if (!err.empty()) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "seed %llu, design %s, engine %s: ",
                    static_cast<unsigned long long>(seed),
                    core::to_string(leg.design), core::to_string(leg.engine));
      return buf + err;
    }
  }
  return "";
}

std::string fuzz_fault_seed(std::uint64_t seed) {
  // Reuse the seed's config so fault coverage rides the same knob
  // distribution as the fault-free legs, then squeeze the random fault
  // window into the (short) fuzz run: first activation half-way through
  // warmup, one fault per quarter of the measurement window. Seed bit 0
  // alternates permanent faults with transient ones (whose deactivation
  // edges exercise the restore paths), so consecutive seeds cover both.
  // The watchdog is armed well above any legitimate stall: random
  // dead-link draws keep memory reachable, so a fire here is a real
  // deadlock, not an expected partition.
  core::SystemConfig cfg = random_config(seed);
  cfg.design = (seed & 2) != 0 ? core::DesignPoint::kGssSagm
                               : core::DesignPoint::kGss;
  cfg.fault_seed = seed ^ 0x5eedfa0177ULL;
  cfg.fault_count = 4;
  cfg.fault_start = cfg.warmup_cycles / 2;
  cfg.fault_spacing = std::max<Cycle>(cfg.sim_cycles / 4, 1);
  cfg.fault_duration = (seed & 1) != 0 ? 0 : cfg.sim_cycles / 3;
  cfg.watchdog_cycles = 200000;
  const std::string err = run_differential(cfg);
  if (err.empty()) return "";
  char buf[64];
  std::snprintf(buf, sizeof buf, "fault leg, seed %llu: ",
                static_cast<unsigned long long>(seed));
  return buf + err;
}

core::SystemConfig random_idle_config(std::uint64_t seed) {
  Rng rng(seed * 0xd1b54a32d192ed03ULL + 0x8cb92ba72f3d8dd7ULL);
  core::SystemConfig cfg;
  const core::DesignPoint designs[] = {
      core::DesignPoint::kConv, core::DesignPoint::kRef4,
      core::DesignPoint::kGss, core::DesignPoint::kGssSagm,
      core::DesignPoint::kGssSagmSti};
  cfg.design = designs[rng.next_below(5)];
  draw_ddr(rng, cfg);
  cfg.priority_enabled = rng.chance(0.5);
  cfg.refresh = rng.chance(1.0 / 3.0);
  cfg.sim_cycles = 20000 + rng.next_below(40001);
  cfg.warmup_cycles = 500 + rng.next_below(4501);
  cfg.drain_cycle_limit = 3000 + rng.next_below(3001);
  cfg.seed = rng.next_u64();

  traffic::Application app;
  app.name = "idle-fuzz";
  app.noc.width = app.noc.height = rng.chance(0.5) ? 2 : 3;
  const std::uint64_t nodes = std::uint64_t{app.noc.width} * app.noc.height;
  app.noc.mem_node = static_cast<NodeId>(rng.next_below(nodes));
  const std::uint64_t num_cores = 2 + rng.next_below(nodes - 1);
  const std::uint32_t sizes[] = {32, 64, 128, 256};
  for (std::uint64_t i = 0; i < num_cores; ++i) {
    traffic::CoreSpec s;
    s.name = "c" + std::to_string(i);
    s.is_mpu = rng.chance(0.25);
    if (s.is_mpu) s.demand_fraction = 0.5 + 0.5 * rng.next_double();
    s.read_fraction = rng.next_double();
    // Log-uniform over [0.001, 0.5] B/cycle.
    s.bytes_per_cycle = 0.001 * std::pow(500.0, rng.next_double());
    s.sizes = {{sizes[rng.next_below(4)], 1.0}};
    if (rng.chance(0.5)) s.sizes.push_back({sizes[rng.next_below(4)], 1.0});
    s.max_outstanding = 1 + static_cast<std::uint32_t>(rng.next_below(8));
    s.open_loop = rng.chance(0.5);
    s.sequential_fraction = 0.5 + 0.5 * rng.next_double();
    s.region_base = i << 20;
    s.region_bytes = 1u << 20;
    switch (rng.next_below(3)) {
      case 0:
        s.pattern = traffic::TrafficPattern::kRandom;
        break;
      case 1:
        s.pattern = traffic::TrafficPattern::kBursty;
        s.burst_on_cycles = 50 + rng.next_below(1951);
        s.burst_off_cycles = 200 + rng.next_below(19801);
        break;
      default:
        s.pattern = traffic::TrafficPattern::kFramePeriodic;
        s.frame_period = 1000 + rng.next_below(29001);
        s.frame_active_fraction = 0.02 + 0.48 * rng.next_double();
        break;
    }
    app.cores.push_back({std::move(s), static_cast<NodeId>(i)});
  }
  cfg.custom_app = std::move(app);
  cfg.check = true;
  return cfg;
}

std::string fuzz_idle_seed(std::uint64_t seed) {
  const std::string err = run_differential(random_idle_config(seed));
  if (err.empty()) return "";
  char buf[64];
  std::snprintf(buf, sizeof buf, "idle leg, seed %llu: ",
                static_cast<unsigned long long>(seed));
  return buf + err;
}

}  // namespace annoc::runner
