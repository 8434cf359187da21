/// \file inspect_run.cpp
/// Deep-dive example: run one configuration and dump every statistic the
/// library collects — latency stage breakdown, device activity, command
/// engine behaviour and per-core achieved bandwidth. Useful both as API
/// documentation and for diagnosing a workload.
///
/// Usage: inspect_run [design] [app] [ddr] [mhz] [flags]
///   design: conv | conv+pfs | ref4 | ref4+pfs | gss | gss+sagm | gss+sagm+sti
///   app:    bluray | sdtv | ddtv
///   ddr:    1 | 2 | 3
/// Flags:
///   --observe[=counters|full]   enable the observability layer and print
///                               its digest (stall histograms, per-bank
///                               tallies, GSS ladder occupancy)
///   --trace=PATH                write the per-subpacket CSV trace
///   --trace-perfetto[=PATH]     write a Perfetto/chrome://tracing JSON
///                               timeline (default trace.perfetto.json);
///                               open it at https://ui.perfetto.dev
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "core/simulator.hpp"
#include "memctrl/streamlined.hpp"
#include "noc/router.hpp"

namespace {

/// A positional token of `set`, or the CLI's "unknown <what>" exit.
template <class E>
E parse_arg(const annoc::TokenSet<E>& set, const char* what, const char* s) {
  const std::optional<E> v = set.parse(s);
  if (!v) {
    std::fprintf(stderr, "unknown %s '%s'\n", what, s);
    std::exit(2);
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace annoc;
  core::SystemConfig cfg;
  // Positional args first, then --flags in any position after them.
  int npos = 0;
  const char* pos[4] = {nullptr, nullptr, nullptr, nullptr};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) continue;
    if (npos < 4) pos[npos++] = argv[i];
  }
  cfg.design = pos[0] ? parse_arg(core::kDesignTokens, "design", pos[0])
                      : core::DesignPoint::kGss;
  cfg.app = pos[1] ? parse_arg(traffic::kAppTokens, "app", pos[1])
                   : traffic::AppId::kSingleDtv;
  const int ddr = pos[2] ? std::atoi(pos[2]) : 2;
  cfg.generation = ddr == 1   ? sdram::DdrGeneration::kDdr1
                   : ddr == 3 ? sdram::DdrGeneration::kDdr3
                              : sdram::DdrGeneration::kDdr2;
  cfg.clock_mhz = pos[3] ? std::atof(pos[3]) : 333.0;
  cfg.priority_enabled = std::getenv("ANNOC_NO_PRIORITY") == nullptr;
  cfg.sim_cycles = 100000;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--observe") || !std::strcmp(a, "--observe=counters")) {
      cfg.observe = core::ObserveLevel::kCounters;
    } else if (!std::strcmp(a, "--observe=full")) {
      cfg.observe = core::ObserveLevel::kFull;
    } else if (!std::strncmp(a, "--trace=", 8)) {
      cfg.trace_path = a + 8;
    } else if (!std::strcmp(a, "--trace-perfetto")) {
      cfg.perfetto_path = "trace.perfetto.json";
    } else if (!std::strncmp(a, "--trace-perfetto=", 17)) {
      cfg.perfetto_path = a + 17;
    } else if (!std::strncmp(a, "--", 2)) {
      std::fprintf(stderr, "unknown flag '%s'\n", a);
      return 2;
    }
  }

  core::Simulator sim(cfg);
  sim.run();
  const core::Metrics m = sim.metrics();

  std::printf("== %s | %s | %s @ %.0f MHz ==\n", to_string(cfg.design),
              to_string(cfg.app), to_string(cfg.generation), cfg.clock_mhz);
  std::printf("utilization (useful)  %.3f\n", m.utilization);
  std::printf("utilization (raw bus) %.3f\n", m.raw_utilization);
  std::printf("requests completed    %llu (%llu subpackets)\n",
              static_cast<unsigned long long>(m.completed_requests),
              static_cast<unsigned long long>(m.completed_subpackets));
  std::printf("latency all/demand/priority  %.1f / %.1f / %.1f cycles\n",
              m.avg_latency_all(), m.avg_latency_demand(),
              m.avg_latency_priority());
  std::printf("stage breakdown (per subpacket): source %.1f | network %.1f "
              "| memory %.1f\n",
              m.source_queue.mean(), m.network.mean(), m.memory.mean());
  std::printf("priority stages:                 source %.1f | network %.1f "
              "| memory %.1f\n",
              m.source_queue_prio.mean(), m.network_prio.mean(),
              m.memory_prio.mean());

  std::printf("\n-- SDRAM device --\n");
  std::printf("ACT %llu  PRE %llu  AP %llu  RD %llu  WR %llu  rowhit-CAS %llu\n",
              static_cast<unsigned long long>(m.device.activates),
              static_cast<unsigned long long>(m.device.precharges),
              static_cast<unsigned long long>(m.device.auto_precharges),
              static_cast<unsigned long long>(m.device.reads),
              static_cast<unsigned long long>(m.device.writes),
              static_cast<unsigned long long>(m.device.cas_row_hits));
  std::printf("beats total %llu useful %llu wasted %llu; bus turnarounds %llu\n",
              static_cast<unsigned long long>(m.device.total_beats),
              static_cast<unsigned long long>(m.device.useful_beats),
              static_cast<unsigned long long>(m.device.wasted_beats()),
              static_cast<unsigned long long>(
                  m.device.bus_direction_turnarounds));

  std::printf("\n-- command engine --\n");
  std::printf("cas %llu act %llu pre %llu prep-act %llu stall cycles %llu\n",
              static_cast<unsigned long long>(m.engine.cas_issued),
              static_cast<unsigned long long>(m.engine.act_issued),
              static_cast<unsigned long long>(m.engine.pre_issued),
              static_cast<unsigned long long>(m.engine.prep_acts),
              static_cast<unsigned long long>(m.engine.stall_cycles));
  std::printf("stall causes: need-act %llu need-pre %llu cas-timing %llu\n",
              static_cast<unsigned long long>(m.engine.stall_need_act),
              static_cast<unsigned long long>(m.engine.stall_need_pre),
              static_cast<unsigned long long>(m.engine.stall_cas_timing));

  if (const auto* str = dynamic_cast<const memctrl::StreamlinedSubsystem*>(
          &sim.subsystem())) {
    std::printf("subsystem starved (engine+input empty): %llu cycles\n",
                static_cast<unsigned long long>(str->starved_cycles()));
  }
  std::printf("\n-- NoC --\n");
  std::printf("packets forwarded %llu, flits forwarded %llu\n",
              static_cast<unsigned long long>(m.noc_packets_forwarded),
              static_cast<unsigned long long>(m.noc_flits_forwarded));

  std::printf("\n-- router output-channel occupancy (fraction of cycles) --\n");
  const auto total_cy = static_cast<double>(sim.now());
  for (std::size_t r = 0; r < sim.network().num_routers(); ++r) {
    const auto& st = sim.network().router(static_cast<annoc::NodeId>(r)).stats();
    std::printf("router %zu:", r);
    for (int p = 0; p < noc::kNumPorts; ++p) {
      if (st.output_busy[p] == 0) continue;
      std::printf("  %s %.2f", to_string(static_cast<noc::Port>(p)),
                  static_cast<double>(st.output_busy[p]) / total_cy);
    }
    std::printf("\n");
  }

  std::printf("\n-- per core --\n");
  std::printf("%-14s %10s %12s %10s\n", "core", "requests", "avg-lat",
              "B/cycle");
  for (const auto& [name, cm] : m.per_core) {
    std::printf("%-14s %10llu %9.1f cy %10.3f\n", name.c_str(),
                static_cast<unsigned long long>(cm.requests), cm.avg_latency,
                cm.achieved_bytes_per_cycle);
  }

  if (m.obs_valid) {
    const auto u = [](std::uint64_t v) {
      return static_cast<unsigned long long>(v);
    };
    std::printf("\n-- observability digest (whole run) --\n");
    std::printf("row-hit CAS %llu | conflict PRE %llu | AP-elided PRE %llu | "
                "refreshes %llu\n",
                u(m.obs.row_hits_total()), u(m.obs.conflict_pre_total()),
                u(m.obs.ap_elided_total()), u(m.obs.refreshes));
    std::printf("worst wait: any %llu cy, priority %llu cy\n",
                u(m.obs.worst_wait), u(m.obs.worst_priority_wait));

    std::printf("\nper-router stall causes (grants | gss-excl / "
                "downstream-full / sink-busy):\n");
    for (std::size_t r = 0; r < m.obs.routers.size(); ++r) {
      const auto& rt = m.obs.routers[r];
      if (rt.grants == 0 && rt.total_stalls() == 0) continue;
      std::printf("  router %zu: %llu | %llu / %llu / %llu\n", r, u(rt.grants),
                  u(rt.stalls[static_cast<std::size_t>(
                      obs::StallCause::kGssExclusion)]),
                  u(rt.stalls[static_cast<std::size_t>(
                      obs::StallCause::kDownstreamFull)]),
                  u(rt.stalls[static_cast<std::size_t>(
                      obs::StallCause::kSinkBusy)]));
    }

    std::printf("\nper-bank (ACT | row-hit CAS | conflict-PRE | AP-elided | "
                "open cycles):\n");
    for (std::size_t b = 0; b < m.obs.banks.size(); ++b) {
      const auto& bk = m.obs.banks[b];
      if (bk.activates == 0) continue;
      std::printf("  bank %zu: %llu | %llu | %llu | %llu | %llu\n", b,
                  u(bk.activates), u(bk.row_hit_cas), u(bk.conflict_pre),
                  u(bk.ap_elided_pre), u(bk.open_cycles));
    }

    if (m.obs.gss.total_admits() > 0) {
      std::printf("\nGSS filter-ladder occupancy (admits per level):\n ");
      for (std::size_t l = 0; l < m.obs.gss.admits_by_level.size(); ++l) {
        if (m.obs.gss.admits_by_level[l] == 0) continue;
        std::printf(" L%zu=%llu", l, u(m.obs.gss.admits_by_level[l]));
      }
      std::printf("\n  row-hit admits %llu | priority admits %llu | "
                  "retry rounds %llu | STI hits %llu\n",
                  u(m.obs.gss.rowhit_admits), u(m.obs.gss.priority_admits),
                  u(m.obs.gss.retry_rounds), u(m.obs.gss.sti_hits));
    }
  }
  if (!cfg.perfetto_path.empty()) {
    std::printf("\nPerfetto timeline written to %s — open it at "
                "https://ui.perfetto.dev\n",
                cfg.perfetto_path.c_str());
  }
  if (m.trace_dropped_rows > 0) {
    std::fprintf(stderr, "warning: %llu trace rows dropped (unwritable %s)\n",
                 static_cast<unsigned long long>(m.trace_dropped_rows),
                 cfg.trace_path.c_str());
  }
  return 0;
}
