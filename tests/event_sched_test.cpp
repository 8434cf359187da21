/// \file event_sched_test.cpp
/// The event-driven scheduler core (SystemConfig::sched = event):
///   - EventQueue structural invariants under randomized
///     schedule/cancel/reschedule/dirty/pop against a reference model,
///   - deterministic (deadline, id) tie-breaking,
///   - bit-identity of event-mode Metrics against dense stepping across
///     design points, generations, seeds, applications and feature
///     combinations,
///   - scheduler-counter sanity (executed + skipped cycles account for
///     the whole timeline; wakeups and heap depth bounded),
///   - the saturation fallback ending at the first idle gap, so a
///     frame-driven SoC skips the idle part of every frame,
///   - warmup / measurement / drain boundary clamping under sched=event,
///   - the audit_horizons debug mode (dense stepping under per-component
///     state fingerprints, re-derived router arbitrations) staying
///     silent on every design point.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/event_queue.hpp"
#include "core/simulator.hpp"
#include "metrics_identical.hpp"
#include "scenario/scenario.hpp"

#ifndef ANNOC_SCENARIO_DIR
#define ANNOC_SCENARIO_DIR "scenarios"
#endif

namespace annoc::core {
namespace {

// ---------------------------------------------------------------------
// EventQueue unit tests.
// ---------------------------------------------------------------------

TEST(EventQueue, ScheduleCancelDirtyBasics) {
  EventQueue q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_deadline(), kNeverCycle);

  q.schedule(2, 10);
  q.schedule(0, 5);
  EXPECT_EQ(q.next_deadline(), 5u);
  EXPECT_EQ(q.deadline_of(2), 10u);

  // schedule() replaces; kNeverCycle cancels.
  q.schedule(2, 3);
  EXPECT_EQ(q.next_deadline(), 3u);
  q.schedule(2, kNeverCycle);
  EXPECT_EQ(q.deadline_of(2), kNeverCycle);
  EXPECT_EQ(q.next_deadline(), 5u);

  // dirty() only pulls forward, and re-arms an absent component.
  q.dirty(0, 9);
  EXPECT_EQ(q.deadline_of(0), 5u);
  q.dirty(0, 2);
  EXPECT_EQ(q.deadline_of(0), 2u);
  q.dirty(3, 7);
  EXPECT_EQ(q.deadline_of(3), 7u);

  EXPECT_TRUE(q.check_invariants());
}

TEST(EventQueue, PopsInDeadlineThenIdOrder) {
  // Insert the same deadline for several ids in a scrambled order; pops
  // must come out by ascending id regardless of insertion history —
  // the determinism keystone for dense-identical execution.
  for (int perm = 0; perm < 8; ++perm) {
    EventQueue q(8);
    std::vector<EventQueue::ComponentId> ids = {0, 1, 2, 3, 4, 5, 6, 7};
    std::mt19937 rng(perm);
    std::shuffle(ids.begin(), ids.end(), rng);
    for (const auto id : ids) {
      q.schedule(id, id < 4 ? 100 : 50);
    }
    ASSERT_TRUE(q.check_invariants());
    // pop_due asserts the clock never skips a pending deadline, so
    // drain each deadline wave at its own cycle (as the event loop
    // does): the 50-wave first, then the 100-wave.
    std::vector<EventQueue::ComponentId> popped;
    while (q.has_due(50)) popped.push_back(q.pop_due(50));
    while (q.has_due(100)) popped.push_back(q.pop_due(100));
    const std::vector<EventQueue::ComponentId> want = {4, 5, 6, 7,
                                                       0, 1, 2, 3};
    EXPECT_EQ(popped, want) << "permutation " << perm;
  }
}

TEST(EventQueue, RandomizedAgainstReferenceModel) {
  // Fuzz the heap against a std::map<id, deadline> reference: after
  // every operation the structural invariants must hold and the popped
  // (deadline, id) sequence must match the model's minimum.
  constexpr std::size_t kComponents = 13;
  EventQueue q(kComponents);
  std::map<EventQueue::ComponentId, Cycle> model;
  std::mt19937_64 rng(20260809);
  Cycle now = 0;

  for (int op = 0; op < 20000; ++op) {
    const auto id =
        static_cast<EventQueue::ComponentId>(rng() % kComponents);
    switch (rng() % 5) {
      case 0: {  // schedule at a fresh deadline
        const Cycle at = now + rng() % 64;
        q.schedule(id, at);
        model[id] = at;
        break;
      }
      case 1: {  // cancel
        q.schedule(id, kNeverCycle);
        model.erase(id);
        break;
      }
      case 2: {  // dirty (min with pending, re-arm when absent)
        const Cycle at = now + rng() % 64;
        q.dirty(id, at);
        const auto it = model.find(id);
        model[id] = it == model.end() ? at : std::min(it->second, at);
        break;
      }
      case 3: {  // pop everything due at `now`, in order
        while (q.has_due(now)) {
          const auto got = q.pop_due(now);
          // Reference minimum by (deadline, id).
          EventQueue::ComponentId best = 0;
          Cycle best_dl = kNeverCycle;
          for (const auto& [mid, dl] : model) {
            if (dl < best_dl || (dl == best_dl && mid < best)) {
              best = mid;
              best_dl = dl;
            }
          }
          ASSERT_LE(best_dl, now);
          EXPECT_EQ(got, best) << "op " << op;
          model.erase(best);
        }
        break;
      }
      default: {  // advance the clock to the next pending deadline
        Cycle next = kNeverCycle;
        for (const auto& [mid, dl] : model) next = std::min(next, dl);
        EXPECT_EQ(q.next_deadline(), next) << "op " << op;
        if (next != kNeverCycle) now = std::max(now, next);
        break;
      }
    }
    ASSERT_EQ(q.size(), model.size()) << "op " << op;
    ASSERT_TRUE(q.check_invariants()) << "op " << op;
    for (const auto& [mid, dl] : model) {
      ASSERT_EQ(q.deadline_of(mid), dl) << "op " << op;
    }
  }
}

TEST(EventQueue, ResetClearsDeadlinesButKeepsCounters) {
  EventQueue q(3);
  q.schedule(0, 4);
  q.dirty(1, 2);
  const std::uint64_t schedules = q.counters().schedules;
  q.reset(5);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.num_components(), 5u);
  EXPECT_EQ(q.deadline_of(0), kNeverCycle);
  // Counters describe the run, not one priming epoch: the simulator
  // re-primes after every dense fallback and the totals must accumulate.
  EXPECT_EQ(q.counters().schedules, schedules);
  EXPECT_TRUE(q.check_invariants());
}

// ---------------------------------------------------------------------
// Whole-simulation identity: sched=event vs dense.
// ---------------------------------------------------------------------

SystemConfig base_config() {
  SystemConfig cfg;
  cfg.app = traffic::AppId::kSingleDtv;
  cfg.generation = sdram::DdrGeneration::kDdr2;
  cfg.clock_mhz = 333.0;
  cfg.sim_cycles = 6000;
  cfg.warmup_cycles = 1200;
  return cfg;
}

void expect_event_identical(SystemConfig cfg, const std::string& tag) {
  cfg.sched = SchedMode::kDense;
  const Metrics dense = run_simulation(cfg);
  cfg.sched = SchedMode::kEvent;
  const Metrics event = run_simulation(cfg);
  expect_metrics_identical(dense, event, tag);
}

TEST(EventSched, BitIdenticalAcrossDesignPoints) {
  for (const DesignPoint d :
       {DesignPoint::kConv, DesignPoint::kConvPfs, DesignPoint::kRef4,
        DesignPoint::kRef4Pfs, DesignPoint::kGss, DesignPoint::kGssSagm,
        DesignPoint::kGssSagmSti}) {
    SystemConfig cfg = base_config();
    cfg.design = d;
    cfg.priority_enabled = true;
    expect_event_identical(cfg, to_string(d));
  }
}

TEST(EventSched, BitIdenticalAcrossGenerations) {
  for (const auto gen :
       {sdram::DdrGeneration::kDdr1, sdram::DdrGeneration::kDdr2,
        sdram::DdrGeneration::kDdr3}) {
    SystemConfig cfg = base_config();
    cfg.design = DesignPoint::kGssSagm;
    cfg.generation = gen;
    expect_event_identical(
        cfg, std::string("gen") + std::to_string(static_cast<int>(gen)));
  }
}

TEST(EventSched, BitIdenticalAcrossSeedsAndApps) {
  for (const std::uint64_t seed : {7ull, 1234ull}) {
    for (const auto app :
         {traffic::AppId::kSingleDtv, traffic::AppId::kDualDtv}) {
      SystemConfig cfg = base_config();
      cfg.design = DesignPoint::kGss;
      cfg.app = app;
      cfg.seed = seed;
      expect_event_identical(cfg, "seed" + std::to_string(seed) + "/app" +
                                      std::to_string(static_cast<int>(app)));
    }
  }
}

TEST(EventSched, BitIdenticalWithMixedGssRouters) {
  // Fig. 8 configuration: GSS only on the routers nearest the memory.
  SystemConfig cfg = base_config();
  cfg.design = DesignPoint::kGss;
  cfg.priority_enabled = true;
  cfg.num_gss_routers = 2;
  expect_event_identical(cfg, "mixed_fig8");
}

TEST(EventSched, BitIdenticalWithResponsePath) {
  // The response path owns a reserved component id between the routers
  // and the generators; its queue_response dirty edge fires at now_.
  SystemConfig cfg = base_config();
  cfg.design = DesignPoint::kGssSagm;
  cfg.model_response_path = true;
  expect_event_identical(cfg, "response_path");
}

TEST(EventSched, BitIdenticalWithRefreshVcsAdaptive) {
  SystemConfig cfg = base_config();
  cfg.design = DesignPoint::kGss;
  cfg.refresh = true;
  cfg.num_vcs = 2;
  cfg.adaptive_routing = true;
  expect_event_identical(cfg, "refresh_vc2_adaptive");
}

TEST(EventSched, BitIdenticalOnIdleHeavyTraffic) {
  // One near-idle core: almost the whole timeline is skippable and the
  // warmup / measurement-end boundaries fall inside idle gaps — the
  // advance_event clamp must land the snapshots on the dense cycles.
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

  SystemConfig cfg = base_config();
  cfg.custom_app = app;
  cfg.sim_cycles = 20000;
  cfg.warmup_cycles = 3300;  // deliberately not aligned to any burst
  expect_event_identical(cfg, "idle_trickle");
}

TEST(EventSched, BitIdenticalWithTightDrainLimit) {
  // The event-mode drain loop must stop at the limit exactly as dense
  // stepping does, with requests still outstanding.
  SystemConfig cfg = base_config();
  cfg.design = DesignPoint::kConv;
  cfg.drain_cycle_limit = 40;
  expect_event_identical(cfg, "tight_drain");
}

TEST(EventSched, DefaultSchedIsEventAndMatchesDense) {
  // A config that never names a scheduler runs the event core, and
  // gives dense stepping's Metrics on one SAGM config.
  SystemConfig cfg = base_config();
  cfg.design = DesignPoint::kGssSagm;
  cfg.priority_enabled = true;
  Simulator by_default(cfg);
  EXPECT_EQ(by_default.sched(), SchedMode::kEvent);
  const Metrics event = by_default.run();
  EXPECT_GT(by_default.sched_counters().executed_cycles, 0u);
  cfg.sched = SchedMode::kDense;
  expect_metrics_identical(run_simulation(cfg), event, "default_vs_dense");
}

TEST(EventSched, TinyRateCoresBitIdenticalInBothModes) {
  // The schema admits any rate in [0, 1e6]. At 1e-20 B/cycle the
  // emission estimate is ~3e21 cycles away, past every representable
  // cycle; at the smallest subnormal it is infinite, and the credit
  // stays subnormal. next_event must clamp both (the unclamped cast is
  // undefined behaviour) and both modes must still agree.
  traffic::Application app;
  app.name = "tiny-rates";
  app.noc.width = 2;
  app.noc.height = 2;
  app.noc.mem_node = 0;
  const double rates[] = {1e-20, std::bit_cast<double>(std::uint64_t{1}),
                          0.02};
  for (std::size_t i = 0; i < std::size(rates); ++i) {
    traffic::CoreSpec spec;
    spec.name = "core" + std::to_string(i);
    spec.bytes_per_cycle = rates[i];
    spec.sizes = {{32, 1.0}};
    spec.region_base = i << 20;
    spec.region_bytes = 1 << 20;
    app.cores.push_back({spec, static_cast<NodeId>(i + 1)});
  }
  SystemConfig cfg = base_config();
  cfg.custom_app = app;
  cfg.sim_cycles = 20000;
  cfg.sched = SchedMode::kDense;
  const Metrics dense = run_simulation(cfg);
  cfg.sched = SchedMode::kEvent;
  const Metrics event = run_simulation(cfg);
  expect_metrics_identical(dense, event, "event_vs_dense");
  EXPECT_GT(dense.completed_requests, 0u);
}

// ---------------------------------------------------------------------
// Scheduler counters.
// ---------------------------------------------------------------------

TEST(EventSched, CountersAccountForTheWholeTimeline) {
  SystemConfig cfg = base_config();
  cfg.design = DesignPoint::kGssSagm;
  cfg.sched = SchedMode::kEvent;
  Simulator sim(cfg);
  const Metrics m = sim.run();

  const obs::SchedCounters& c = sim.sched_counters();
  // Every cycle between 0 and the final clock was either executed by
  // step_event (dense fallback included) or jumped by advance_event.
  EXPECT_EQ(c.executed_cycles + c.skipped_cycles, sim.now());
  EXPECT_EQ(sim.now(),
            cfg.warmup_cycles + cfg.sim_cycles + m.drained_cycles);
  // Saturated traffic: the overwhelming majority of cycles execute.
  EXPECT_GT(c.executed_cycles, c.skipped_cycles);
  // The heap never holds more than one entry per component.
  EXPECT_GT(c.max_heap_depth, 0u);
  EXPECT_LE(c.max_heap_depth,
            2 + sim.network().num_routers() +
                sim.application().cores.size());
  // Packet handoffs dirtied downstream components.
  EXPECT_GT(c.wakeups, 0u);
  EXPECT_GT(c.schedules, 0u);
}

TEST(EventSched, CountersStayZeroOutsideEventMode) {
  SystemConfig cfg = base_config();
  cfg.design = DesignPoint::kGss;
  cfg.sched = SchedMode::kDense;
  Simulator sim(cfg);
  (void)sim.run();
  EXPECT_EQ(sim.sched_counters().executed_cycles, 0u);
  EXPECT_EQ(sim.sched_counters().wakeups, 0u);
  EXPECT_EQ(sim.sched(), SchedMode::kDense);
}

TEST(EventSched, IdleTrafficSkipsMostCycles) {
  traffic::Application app;
  app.name = "idle";
  app.noc.width = 2;
  app.noc.height = 2;
  app.noc.mem_node = 0;
  traffic::CoreSpec spec;
  spec.name = "trickle";
  spec.bytes_per_cycle = 0.005;
  spec.sizes = {{32, 1.0}};
  spec.region_bytes = 1 << 20;
  app.cores.push_back({spec, static_cast<NodeId>(3)});

  SystemConfig cfg = base_config();
  cfg.custom_app = app;
  cfg.sim_cycles = 30000;
  cfg.sched = SchedMode::kEvent;
  Simulator sim(cfg);
  (void)sim.run();
  const obs::SchedCounters& c = sim.sched_counters();
  EXPECT_EQ(c.executed_cycles + c.skipped_cycles, sim.now());
  // The point of the event core: on near-idle traffic the clock jumps.
  EXPECT_GT(c.skipped_cycles, c.executed_cycles);
}

// ---------------------------------------------------------------------
// Saturation fallback: entered after kBurstStreak busy cycles, left at
// the first idle gap.
// ---------------------------------------------------------------------

/// A frame-driven video SoC on a 2x2 mesh: camera writes and display
/// reads saturate the memory for the first 10-12% of every 66k-cycle
/// frame, a DMA core bursts for 400 of every 12.4k cycles, and an MPU
/// trickles demand misses. A run alternates saturated windows with
/// long idle gaps.
traffic::Application frame_idle_app() {
  traffic::CoreSpec mpu;
  mpu.name = "mpu";
  mpu.is_mpu = true;
  mpu.demand_fraction = 0.8;
  mpu.demand_bytes = 32;
  mpu.sizes = {{64, 1.0}};
  mpu.bytes_per_cycle = 0.01;
  mpu.max_outstanding = 2;
  mpu.sequential_fraction = 0.3;

  const auto frame_core = [](const char* name, double reads, double active) {
    traffic::CoreSpec c;
    c.name = name;
    c.sizes = {{256, 1.0}};
    c.bytes_per_cycle = 1.0;
    c.read_fraction = reads;
    c.sequential_fraction = 0.98;
    c.open_loop = true;
    c.pattern = traffic::TrafficPattern::kFramePeriodic;
    c.frame_period = 66000;
    c.frame_active_fraction = active;
    return c;
  };

  traffic::CoreSpec dma;
  dma.name = "dma";
  dma.sizes = {{64, 0.5}, {128, 0.5}};
  dma.bytes_per_cycle = 1.0;
  dma.read_fraction = 0.5;
  dma.sequential_fraction = 0.7;
  dma.pattern = traffic::TrafficPattern::kBursty;
  dma.burst_on_cycles = 400;
  dma.burst_off_cycles = 12000;

  std::vector<traffic::CoreSpec> specs = {
      mpu, frame_core("camera", 0.0, 0.10), frame_core("display", 1.0, 0.12),
      dma};
  std::uint64_t base = 0;
  for (traffic::CoreSpec& c : specs) {
    c.region_base = base;
    base += c.region_bytes;
  }
  noc::NocConfig noc;
  noc.width = 2;
  noc.height = 2;
  noc.mem_node = 0;
  return traffic::place_application("frame_idle", noc, std::move(specs));
}

TEST(EventSched, FallbackEndsAtTheFirstIdleGap) {
  // Saturated windows send the event loop into its dense fallback. The
  // fallback must end once a window drains, so the idle rest of each
  // frame or burst period is jumped. Each bound sits between the gap
  // exit (~0.92 of cycles jumped on the frame SoC, ~0.36 on the
  // checked-in pattern showcase) and a fallback that runs fixed-length
  // bursts past the idle edges (~0.49 and ~0.01).
  SystemConfig frame;
  frame.design = DesignPoint::kGssSagm;
  frame.generation = sdram::DdrGeneration::kDdr3;
  frame.clock_mhz = 667.0;
  frame.priority_enabled = true;
  frame.custom_app = frame_idle_app();
  frame.warmup_cycles = 20000;
  SystemConfig patterns =
      scenario::load_scenario(std::string(ANNOC_SCENARIO_DIR) +
                              "/example_patterns.json")
          .config;
  struct Leg {
    const char* tag;
    SystemConfig cfg;
    double min_skipped;
  };
  for (Leg leg : {Leg{"frame_idle", frame, 0.85},
                  Leg{"example_patterns", patterns, 0.3}}) {
    leg.cfg.sim_cycles = 300000;
    leg.cfg.sched = SchedMode::kEvent;
    Simulator sim(leg.cfg);
    (void)sim.run();
    EXPECT_GE(static_cast<double>(sim.sched_counters().skipped_cycles) /
                  static_cast<double>(sim.now()),
              leg.min_skipped)
        << leg.tag;
    expect_event_identical(leg.cfg, leg.tag);
  }
}

// ---------------------------------------------------------------------
// Horizon audit (SystemConfig::audit_horizons).
// ---------------------------------------------------------------------

TEST(EventSched, HorizonAuditStaysSilentAcrossDesignPoints) {
  // audit_horizons dense-steps with per-component state fingerprints
  // and aborts if any component acts past its reported horizon — the
  // over-estimate detector behind the event scheduler. Silence here
  // plus the identity tests above bracket next_event from both sides.
  // The same mode re-derives every replayed router arbitration and
  // every skipped downstream probe, so the legs cover each flow
  // controller's stable_until horizon: round-robin (also with two VCs),
  // [4]'s starvation cap, GSS and GSS+STI's bank turnaround.
  struct Leg {
    DesignPoint design;
    std::uint32_t vcs;
  };
  for (const Leg leg : {Leg{DesignPoint::kConv, 1}, Leg{DesignPoint::kGss, 1},
                        Leg{DesignPoint::kGssSagm, 1},
                        Leg{DesignPoint::kConv, 2}, Leg{DesignPoint::kRef4, 1},
                        Leg{DesignPoint::kGssSagmSti, 1}}) {
    SystemConfig cfg = base_config();
    cfg.design = leg.design;
    cfg.num_vcs = leg.vcs;
    cfg.priority_enabled = true;
    cfg.model_response_path = leg.design == DesignPoint::kGssSagm;
    cfg.audit_horizons = true;
    // The audit must see every cycle, so an audited run steps densely
    // even though the config asks for the default event scheduler.
    Simulator audited_sim(cfg);
    EXPECT_EQ(audited_sim.sched(), SchedMode::kDense);
    const Metrics audited = audited_sim.run();
    cfg.audit_horizons = false;
    const Metrics plain = run_simulation(cfg);
    expect_metrics_identical(plain, audited,
                             std::string("audit/") + to_string(leg.design) +
                                 "/" + std::to_string(leg.vcs) + "vc");
  }
}

}  // namespace
}  // namespace annoc::core
