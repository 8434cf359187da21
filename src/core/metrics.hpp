/// \file metrics.hpp
/// Results of one simulation run — exactly the quantities the paper's
/// tables report, plus supporting activity counters for the power model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "obs/counters.hpp"
#include "traffic/application.hpp"
#include "memctrl/command_engine.hpp"
#include "sdram/device.hpp"

namespace annoc::core {

struct CoreMetrics {
  std::string name;
  std::uint64_t requests = 0;
  double avg_latency = 0.0;
  double achieved_bytes_per_cycle = 0.0;
};

/// Fault-injection activity and impact (src/fault/). All zero on a
/// fault-free run. Like every other Metrics field, bit-identical
/// across both scheduler modes.
struct FaultMetrics {
  std::uint64_t dead_link_activations = 0;
  std::uint64_t degraded_link_activations = 0;
  std::uint64_t slow_router_activations = 0;
  std::uint64_t refresh_storm_activations = 0;
  std::uint64_t throttled_bank_activations = 0;
  std::uint64_t deactivations = 0;
  /// Cycle of the first activation edge (kNeverCycle when none fired).
  Cycle first_activation = kNeverCycle;
  /// Parent requests completed before/after the first activation
  /// (completion cycle < first_activation goes to `pre`), with the
  /// corresponding mean latencies — the post-fault latency delta the
  /// resilience experiments report.
  std::uint64_t pre_fault_packets = 0;
  std::uint64_t post_fault_packets = 0;
  double pre_fault_avg_latency = 0.0;
  double post_fault_avg_latency = 0.0;
  /// Useful-beat utilization split at the first activation (both over
  /// the measurement window; equal to `utilization` split in two).
  double pre_fault_utilization = 0.0;
  double post_fault_utilization = 0.0;
};

struct Metrics {
  /// Paper's memory utilization: useful data-bus cycles / total cycles.
  double utilization = 0.0;
  /// Raw bus occupancy including padding beats (diagnostic).
  double raw_utilization = 0.0;

  LatencyStat all_packets;     ///< every completed parent request
  LatencyStat demand_packets;  ///< demand-class requests (MPU)
  LatencyStat priority_packets;  ///< priority-tagged requests

  // Stage breakdown, per subpacket (diagnostic):
  LatencyStat source_queue;  ///< created -> injected
  LatencyStat network;       ///< injected -> mem_arrival
  LatencyStat memory;        ///< mem_arrival -> service_done
  LatencyStat source_queue_prio, network_prio, memory_prio;  ///< priority only
  /// Read-data return stage (service_done -> delivery at the core);
  /// only populated when SystemConfig::model_response_path is set.
  LatencyStat response_path;

  std::uint64_t completed_requests = 0;
  std::uint64_t completed_subpackets = 0;
  /// Parent requests still in flight when the run (including its drain
  /// phase) ended. Non-zero means the latency stats miss that many
  /// in-window requests — raise drain_cycle_limit if it matters.
  std::uint64_t outstanding_requests = 0;
  Cycle measured_cycles = 0;
  /// Cycles spent in the post-window drain phase (tail completion only;
  /// not part of measured_cycles, so utilization is unaffected).
  Cycle drained_cycles = 0;

  sdram::DeviceStats device;       ///< over the measurement window
  memctrl::EngineStats engine;     ///< over the measurement window
  std::uint64_t noc_flits_forwarded = 0;
  std::uint64_t noc_packets_forwarded = 0;

  std::map<std::string, CoreMetrics> per_core;

  /// Fault-injection activity (zero on fault-free runs).
  FaultMetrics fault;

  /// Observability digest (SystemConfig::observe != kOff): per-router
  /// stall-cause histograms, per-bank open-cycle/row-hit/PRE-elision
  /// tallies, GSS ladder-level occupancy. Accumulated over the whole run
  /// (warmup + window + drain) — a forensic event-log digest, not a
  /// window metric. Every other field above is bit-identical whether or
  /// not this one is populated.
  bool obs_valid = false;
  obs::ObsCounters obs;
  /// Subpacket trace rows that could not be written (trace file failed
  /// to open or the disk filled); 0 when tracing is off or healthy.
  std::uint64_t trace_dropped_rows = 0;

  /// Jain fairness index over per-core achieved/offered bandwidth
  /// ratios: 1.0 = perfectly proportional service, 1/n = one core owns
  /// the memory. Uses only cores with a positive offered rate.
  [[nodiscard]] double fairness_index(
      const traffic::Application& app) const {
    double sum = 0.0, sum_sq = 0.0;
    std::size_t n = 0;
    for (const auto& core : app.cores) {
      if (core.spec.bytes_per_cycle <= 0.0) continue;
      const auto it = per_core.find(core.spec.name);
      const double achieved =
          it == per_core.end() ? 0.0 : it->second.achieved_bytes_per_cycle;
      const double ratio = achieved / core.spec.bytes_per_cycle;
      sum += ratio;
      sum_sq += ratio * ratio;
      ++n;
    }
    if (n == 0 || sum_sq <= 0.0) return 0.0;
    return (sum * sum) / (static_cast<double>(n) * sum_sq);
  }

  /// Ratio of the busiest bank's CAS count to the mean (1.0 = perfectly
  /// interleaved; large = bank camping).
  [[nodiscard]] double bank_imbalance(std::uint32_t num_banks) const {
    if (num_banks == 0) return 0.0;
    std::uint64_t total = 0, peak = 0;
    for (std::uint32_t b = 0; b < num_banks && b < device.cas_per_bank.size();
         ++b) {
      total += device.cas_per_bank[b];
      peak = std::max(peak, device.cas_per_bank[b]);
    }
    if (total == 0) return 0.0;
    return static_cast<double>(peak) * num_banks / static_cast<double>(total);
  }

  [[nodiscard]] double avg_latency_all() const { return all_packets.mean(); }
  [[nodiscard]] double avg_latency_demand() const {
    return demand_packets.mean();
  }
  [[nodiscard]] double avg_latency_priority() const {
    return priority_packets.count() > 0 ? priority_packets.mean()
                                        : demand_packets.mean();
  }
  /// Useful payload throughput: 2 beats/cycle x 4 B/beat at full
  /// utilization.
  [[nodiscard]] double achieved_bytes_per_cycle() const {
    return utilization * 8.0;
  }
};

namespace detail {

/// Aggregate field-count probe: AnyField converts to anything, so
/// `T{AnyField, ..., AnyField}` (N arguments) is well-formed exactly
/// when the aggregate T has at least N members.
struct AnyField {
  template <typename T>
  operator T() const;  // never defined — unevaluated probes only
};

template <typename T, std::size_t... I>
constexpr bool brace_constructible(std::index_sequence<I...>) {
  return requires { T{((void)I, AnyField{})...}; };
}

template <typename T, std::size_t N>
constexpr bool has_exactly_n_fields() {
  return brace_constructible<T>(std::make_index_sequence<N>{}) &&
         !brace_constructible<T>(std::make_index_sequence<N + 1>{});
}

}  // namespace detail

// Growth guards for the canonical field walk below. When one of these
// fires you added (or removed) a member: extend
// for_each_comparable_field accordingly — every comparator in the tree
// (tests/metrics_identical.hpp, the fuzzer's MetricsDiff) is built on
// that walk, so a new field can never again be silently skipped — then
// update the count here.
static_assert(detail::has_exactly_n_fields<Metrics, 26>(),
              "Metrics changed: update for_each_comparable_field and this "
              "count");
static_assert(detail::has_exactly_n_fields<FaultMetrics, 13>(),
              "FaultMetrics changed: update for_each_comparable_field and "
              "this count");
static_assert(detail::has_exactly_n_fields<sdram::DeviceStats, 11>(),
              "DeviceStats changed: update for_each_comparable_field and "
              "this count");
static_assert(detail::has_exactly_n_fields<memctrl::EngineStats, 9>(),
              "EngineStats changed: update for_each_comparable_field and "
              "this count");
static_assert(detail::has_exactly_n_fields<CoreMetrics, 4>(),
              "CoreMetrics changed: update for_each_comparable_field and "
              "this count");

/// Canonical walk over every cross-config-comparable field of two
/// Metrics, in declaration order. The visitor sees each field once:
///   v.u64(name, a_value, b_value)   — integer counters
///   v.f64(name, a_value, b_value)   — doubles (compare bitwise!)
///   v.stat(name, a_stat, b_stat)    — LatencyStat
/// Excluded by design: `obs_valid`/`obs` (a forensic whole-run event
/// digest that legitimately varies with observability settings) and
/// `trace_dropped_rows` (I/O health, not simulation output). Everything
/// else must be bit-identical across scheduler modes and runners, and
/// the static_asserts above make it a compile error to grow Metrics
/// without revisiting this list.
template <typename V>
void for_each_comparable_field(const Metrics& a, const Metrics& b, V&& v) {
  v.f64("utilization", a.utilization, b.utilization);
  v.f64("raw_utilization", a.raw_utilization, b.raw_utilization);
  v.stat("all_packets", a.all_packets, b.all_packets);
  v.stat("demand_packets", a.demand_packets, b.demand_packets);
  v.stat("priority_packets", a.priority_packets, b.priority_packets);
  v.stat("source_queue", a.source_queue, b.source_queue);
  v.stat("network", a.network, b.network);
  v.stat("memory", a.memory, b.memory);
  v.stat("source_queue_prio", a.source_queue_prio, b.source_queue_prio);
  v.stat("network_prio", a.network_prio, b.network_prio);
  v.stat("memory_prio", a.memory_prio, b.memory_prio);
  v.stat("response_path", a.response_path, b.response_path);
  v.u64("completed_requests", a.completed_requests, b.completed_requests);
  v.u64("completed_subpackets", a.completed_subpackets,
        b.completed_subpackets);
  v.u64("outstanding_requests", a.outstanding_requests,
        b.outstanding_requests);
  v.u64("measured_cycles", a.measured_cycles, b.measured_cycles);
  v.u64("drained_cycles", a.drained_cycles, b.drained_cycles);

  v.u64("device.activates", a.device.activates, b.device.activates);
  v.u64("device.precharges", a.device.precharges, b.device.precharges);
  v.u64("device.auto_precharges", a.device.auto_precharges,
        b.device.auto_precharges);
  v.u64("device.reads", a.device.reads, b.device.reads);
  v.u64("device.writes", a.device.writes, b.device.writes);
  v.u64("device.refreshes", a.device.refreshes, b.device.refreshes);
  v.u64("device.cas_row_hits", a.device.cas_row_hits, b.device.cas_row_hits);
  v.u64("device.total_beats", a.device.total_beats, b.device.total_beats);
  v.u64("device.useful_beats", a.device.useful_beats, b.device.useful_beats);
  v.u64("device.bus_direction_turnarounds",
        a.device.bus_direction_turnarounds,
        b.device.bus_direction_turnarounds);
  for (std::size_t i = 0; i < a.device.cas_per_bank.size(); ++i) {
    v.u64("device.cas_per_bank[" + std::to_string(i) + "]",
          a.device.cas_per_bank[i], b.device.cas_per_bank[i]);
  }

  v.u64("engine.requests_completed", a.engine.requests_completed,
        b.engine.requests_completed);
  v.u64("engine.cas_issued", a.engine.cas_issued, b.engine.cas_issued);
  v.u64("engine.act_issued", a.engine.act_issued, b.engine.act_issued);
  v.u64("engine.pre_issued", a.engine.pre_issued, b.engine.pre_issued);
  v.u64("engine.prep_acts", a.engine.prep_acts, b.engine.prep_acts);
  v.u64("engine.stall_cycles", a.engine.stall_cycles, b.engine.stall_cycles);
  v.u64("engine.stall_need_act", a.engine.stall_need_act,
        b.engine.stall_need_act);
  v.u64("engine.stall_need_pre", a.engine.stall_need_pre,
        b.engine.stall_need_pre);
  v.u64("engine.stall_cas_timing", a.engine.stall_cas_timing,
        b.engine.stall_cas_timing);

  v.u64("noc_flits_forwarded", a.noc_flits_forwarded, b.noc_flits_forwarded);
  v.u64("noc_packets_forwarded", a.noc_packets_forwarded,
        b.noc_packets_forwarded);

  v.u64("fault.dead_link_activations", a.fault.dead_link_activations,
        b.fault.dead_link_activations);
  v.u64("fault.degraded_link_activations", a.fault.degraded_link_activations,
        b.fault.degraded_link_activations);
  v.u64("fault.slow_router_activations", a.fault.slow_router_activations,
        b.fault.slow_router_activations);
  v.u64("fault.refresh_storm_activations", a.fault.refresh_storm_activations,
        b.fault.refresh_storm_activations);
  v.u64("fault.throttled_bank_activations",
        a.fault.throttled_bank_activations,
        b.fault.throttled_bank_activations);
  v.u64("fault.deactivations", a.fault.deactivations, b.fault.deactivations);
  v.u64("fault.first_activation", a.fault.first_activation,
        b.fault.first_activation);
  v.u64("fault.pre_fault_packets", a.fault.pre_fault_packets,
        b.fault.pre_fault_packets);
  v.u64("fault.post_fault_packets", a.fault.post_fault_packets,
        b.fault.post_fault_packets);
  v.f64("fault.pre_fault_avg_latency", a.fault.pre_fault_avg_latency,
        b.fault.pre_fault_avg_latency);
  v.f64("fault.post_fault_avg_latency", a.fault.post_fault_avg_latency,
        b.fault.post_fault_avg_latency);
  v.f64("fault.pre_fault_utilization", a.fault.pre_fault_utilization,
        b.fault.pre_fault_utilization);
  v.f64("fault.post_fault_utilization", a.fault.post_fault_utilization,
        b.fault.post_fault_utilization);

  v.u64("per_core.size", a.per_core.size(), b.per_core.size());
  for (const auto& [name, ca] : a.per_core) {
    const auto it = b.per_core.find(name);
    if (it == b.per_core.end()) {
      // Surfaces as 1 != 0 in whatever form the visitor reports.
      v.u64("per_core[" + name + "].present", 1, 0);
      continue;
    }
    v.u64("per_core[" + name + "].requests", ca.requests,
          it->second.requests);
    v.f64("per_core[" + name + "].avg_latency", ca.avg_latency,
          it->second.avg_latency);
    v.f64("per_core[" + name + "].achieved_bytes_per_cycle",
          ca.achieved_bytes_per_cycle,
          it->second.achieved_bytes_per_cycle);
  }
}

}  // namespace annoc::core
