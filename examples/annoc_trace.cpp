/// \file annoc_trace.cpp
/// Forensic trace CLI: runs one configuration with the observability layer
/// enabled and prints a ranked digest of where cycles go — top stall causes
/// across the mesh, the worst-case wait a priority packet suffered, and the
/// banks losing the most time to row conflicts.
///
/// Usage: annoc_trace [design] [app] [ddr] [mhz]
///   design: conv | conv+pfs | ref4 | ref4+pfs | gss | gss+sagm | gss+sagm+sti
///           (default: conv — the interesting forensic case)
///   app:    bluray | sdtv | ddtv
///   ddr:    1 | 2 | 3
///
/// For a full timeline instead of a digest, use
///   inspect_run <design> <app> --trace-perfetto
/// and open the JSON at https://ui.perfetto.dev.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <vector>

#include "core/simulator.hpp"

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

unsigned long long ull(std::uint64_t v) {
  return static_cast<unsigned long long>(v);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace annoc;
  core::SystemConfig cfg;
  cfg.design = argc > 1 ? parse_arg(core::kDesignTokens, "design", argv[1])
                         : core::DesignPoint::kConv;
  cfg.app = argc > 2 ? parse_arg(traffic::kAppTokens, "app", argv[2])
                     : traffic::AppId::kBluray;
  const int ddr = argc > 3 ? std::atoi(argv[3]) : 2;
  cfg.generation = ddr == 1   ? sdram::DdrGeneration::kDdr1
                   : ddr == 3 ? sdram::DdrGeneration::kDdr3
                              : sdram::DdrGeneration::kDdr2;
  cfg.clock_mhz = argc > 4 ? std::atof(argv[4]) : 266.0;
  cfg.sim_cycles = 100000;
  cfg.priority_enabled = true;  // the worst-priority-wait headline needs them
  cfg.observe = core::ObserveLevel::kCounters;

  core::Simulator sim(cfg);
  sim.run();
  const core::Metrics m = sim.metrics();
  if (!m.obs_valid) {
    std::fprintf(stderr, "observability counters unavailable "
                         "(built with ANNOC_DISABLE_OBSERVABILITY?)\n");
    return 1;
  }

  std::printf("== forensics: %s | %s | %s @ %.0f MHz ==\n",
              to_string(cfg.design), to_string(cfg.app),
              to_string(cfg.generation), cfg.clock_mhz);
  std::printf("utilization %.3f, avg latency %.1f cy (priority %.1f cy)\n",
              m.utilization, m.avg_latency_all(), m.avg_latency_priority());

  // --- 1. Top stall causes, ranked across the whole mesh. ---------------
  std::uint64_t by_cause[obs::kNumStallCauses] = {};
  for (const auto& rt : m.obs.routers) {
    for (std::size_t c = 0; c < obs::kNumStallCauses; ++c) {
      by_cause[c] += rt.stalls[c];
    }
  }
  struct CauseRow { obs::StallCause cause; std::uint64_t count; };
  std::vector<CauseRow> causes;
  for (std::size_t c = 0; c < obs::kNumStallCauses; ++c) {
    causes.push_back({static_cast<obs::StallCause>(c), by_cause[c]});
  }
  std::sort(causes.begin(), causes.end(),
            [](const CauseRow& a, const CauseRow& b) {
              return a.count > b.count;
            });
  const std::uint64_t total_stalls = m.obs.router_stalls_total();
  std::printf("\n-- top stall causes (%llu stalled grant slots total) --\n",
              ull(total_stalls));
  for (const auto& cr : causes) {
    if (cr.count == 0) continue;
    std::printf("  %-16s %10llu  (%.1f%%)\n", to_string(cr.cause),
                ull(cr.count),
                total_stalls ? 100.0 * static_cast<double>(cr.count) /
                                   static_cast<double>(total_stalls)
                             : 0.0);
    // Which routers contribute most to this cause?
    struct RouterRow { std::size_t router; std::uint64_t count; };
    std::vector<RouterRow> rr;
    for (std::size_t r = 0; r < m.obs.routers.size(); ++r) {
      const auto n = m.obs.routers[r].stalls[static_cast<std::size_t>(cr.cause)];
      if (n > 0) rr.push_back({r, n});
    }
    std::sort(rr.begin(), rr.end(), [](const RouterRow& a, const RouterRow& b) {
      return a.count > b.count;
    });
    for (std::size_t i = 0; i < rr.size() && i < 3; ++i) {
      std::printf("      router %-2zu %10llu\n", rr[i].router, ull(rr[i].count));
    }
  }
  if (total_stalls == 0) std::printf("  (no router ever stalled)\n");

  // --- 2. Worst-case waits. ---------------------------------------------
  std::printf("\n-- worst-case waits (created -> done) --\n");
  std::printf("  any subpacket       %10llu cycles\n", ull(m.obs.worst_wait));
  std::printf("  priority subpacket  %10llu cycles\n",
              ull(m.obs.worst_priority_wait));

  // --- 3. Bank-conflict offenders. --------------------------------------
  struct BankRow { std::size_t bank; const obs::BankCounters* c; };
  std::vector<BankRow> banks;
  for (std::size_t b = 0; b < m.obs.banks.size(); ++b) {
    if (m.obs.banks[b].activates > 0) banks.push_back({b, &m.obs.banks[b]});
  }
  std::sort(banks.begin(), banks.end(), [](const BankRow& a, const BankRow& b) {
    return a.c->conflict_pre > b.c->conflict_pre;
  });
  std::printf("\n-- bank-conflict offenders (conflict PRE, worst first) --\n");
  std::printf("  %-6s %12s %10s %12s %12s\n", "bank", "conflict-PRE",
              "ACT", "row-hit-CAS", "AP-elided");
  for (const auto& br : banks) {
    std::printf("  %-6zu %12llu %10llu %12llu %12llu\n", br.bank,
                ull(br.c->conflict_pre), ull(br.c->activates),
                ull(br.c->row_hit_cas), ull(br.c->ap_elided_pre));
  }
  std::printf("\ntotals: conflict PRE %llu, row-hit CAS %llu, AP-elided PRE "
              "%llu, STI hits %llu\n",
              ull(m.obs.conflict_pre_total()), ull(m.obs.row_hits_total()),
              ull(m.obs.ap_elided_total()), ull(m.obs.gss.sti_hits));
  return 0;
}
