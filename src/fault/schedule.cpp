#include "fault/schedule.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace annoc::fault {
namespace {

/// Channels eligible for random SDRAM faults (FabricInfo doc: the
/// simulator masks out DPQ channels, whose latency-bound oracle assumes
/// nominal timing). Empty mask = every channel.
std::vector<std::uint32_t> sdram_channels(const FabricInfo& fabric) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t c = 0; c < fabric.num_channels; ++c) {
    if (fabric.sdram_fault_ok.empty() ||
        (c < fabric.sdram_fault_ok.size() && fabric.sdram_fault_ok[c] != 0)) {
      out.push_back(c);
    }
  }
  return out;
}

/// Parse the `fault.kinds` token list, dropping kinds the fabric cannot
/// express (refresh storms on a refresh-less device, link faults on a
/// linkless single-router fabric, SDRAM faults when every channel is
/// masked off). Order follows the token list, so the draw sequence is a
/// pure function of the knob string.
std::vector<FaultKind> usable_kinds(const std::string& kinds,
                                    const FabricInfo& fabric) {
  const FaultKindList list = parse_fault_kinds(kinds);
  // Unknown tokens were rejected by the scenario parser; a direct caller
  // handing a bad list gets the assert.
  ANNOC_ASSERT(list.unknown.empty());
  const bool any_sdram = !sdram_channels(fabric).empty();
  std::vector<FaultKind> out;
  for (const FaultKind k : list.kinds) {
    const bool is_link =
        k == FaultKind::kDeadLink || k == FaultKind::kDegradedLink;
    const bool is_sdram =
        k == FaultKind::kRefreshStorm || k == FaultKind::kThrottledBanks;
    if (is_link && fabric.links.empty()) continue;
    if (k == FaultKind::kRefreshStorm && !fabric.refresh_enabled) continue;
    if (is_sdram && !any_sdram) continue;
    if (std::find(out.begin(), out.end(), k) == out.end()) out.push_back(k);
  }
  return out;
}

/// Is every node still able to reach some mem node over the links that
/// survive `dead` (a bitmask over fabric.links)? BFS from the mem-node
/// set over live links.
bool memory_reachable(const FabricInfo& fabric,
                      const std::vector<bool>& dead) {
  if (fabric.num_nodes == 0) return true;
  std::vector<std::vector<NodeId>> adj(fabric.num_nodes);
  for (std::size_t i = 0; i < fabric.links.size(); ++i) {
    if (dead[i]) continue;
    adj[fabric.links[i].first].push_back(fabric.links[i].second);
    adj[fabric.links[i].second].push_back(fabric.links[i].first);
  }
  std::vector<bool> seen(fabric.num_nodes, false);
  std::vector<NodeId> queue;
  for (const NodeId m : fabric.mem_nodes) {
    if (m < fabric.num_nodes && !seen[m]) {
      seen[m] = true;
      queue.push_back(m);
    }
  }
  if (queue.empty()) return true;  // no memory to reach
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const NodeId nb : adj[queue[head]]) {
      if (!seen[nb]) {
        seen[nb] = true;
        queue.push_back(nb);
      }
    }
  }
  return std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
}

}  // namespace

FaultSchedule FaultSchedule::build(
    const std::vector<FaultSpec>& explicit_faults,
    const RandomFaultParams& rnd, const FabricInfo& fabric) {
  FaultSchedule s;
  s.faults_ = explicit_faults;
  // Clamp fabric-dependent targets into range (mesh_preset re-tiling
  // can shrink/grow the fabric after the parser validated the file).
  for (FaultSpec& f : s.faults_) {
    if (fabric.num_nodes != 0) {
      f.a = static_cast<NodeId>(f.a % fabric.num_nodes);
      f.b = static_cast<NodeId>(f.b % fabric.num_nodes);
      f.router = static_cast<NodeId>(f.router % fabric.num_nodes);
    }
    if (fabric.num_channels != 0) f.channel %= fabric.num_channels;
  }

  // Random faults: one xoshiro stream keyed off fault.seed only, so the
  // draw sequence never depends on the traffic seed or anything the
  // sweep engine perturbs alongside it.
  if (rnd.count > 0) {
    const std::vector<FaultKind> kinds = usable_kinds(rnd.kinds, fabric);
    const std::vector<std::uint32_t> sdram_ok = sdram_channels(fabric);
    std::vector<bool> dead(fabric.links.size(), false);
    Rng rng(rnd.seed ^ 0xf4517ca11ed5eedULL);
    for (std::uint32_t i = 0; i < rnd.count && !kinds.empty(); ++i) {
      FaultSpec f;
      f.at = rnd.start + static_cast<Cycle>(i) * rnd.spacing;
      f.until = rnd.duration == 0 ? 0 : f.at + rnd.duration;
      f.kind = kinds[rng.next_below(kinds.size())];
      switch (f.kind) {
        case FaultKind::kDeadLink: {
          // A random dead link must keep memory reachable, or the run
          // would park packets forever (that is an authored-scenario
          // move, not a random one). Eight draws, then degrade the
          // fault to a degraded link instead.
          bool placed = false;
          for (int attempt = 0; attempt < 8 && !placed; ++attempt) {
            const std::size_t li = rng.next_below(fabric.links.size());
            if (dead[li]) continue;
            dead[li] = true;
            if (memory_reachable(fabric, dead)) {
              f.a = fabric.links[li].first;
              f.b = fabric.links[li].second;
              placed = true;
              // Permanent faults keep the link out of later draws;
              // temporary ones free it again (overlap windows are
              // approximated conservatively: treated dead for all
              // later draws only if permanent).
              if (f.until != 0) dead[li] = false;
            } else {
              dead[li] = false;
            }
          }
          if (!placed) {
            f.kind = FaultKind::kDegradedLink;
            const std::size_t li = rng.next_below(fabric.links.size());
            f.a = fabric.links[li].first;
            f.b = fabric.links[li].second;
            f.penalty = 2 + static_cast<std::uint32_t>(rng.next_below(15));
          }
          break;
        }
        case FaultKind::kDegradedLink: {
          const std::size_t li = rng.next_below(fabric.links.size());
          f.a = fabric.links[li].first;
          f.b = fabric.links[li].second;
          f.penalty = 2 + static_cast<std::uint32_t>(rng.next_below(15));
          break;
        }
        case FaultKind::kSlowRouter: {
          f.router = static_cast<NodeId>(rng.next_below(fabric.num_nodes));
          f.period = 2 + static_cast<std::uint32_t>(rng.next_below(7));
          break;
        }
        case FaultKind::kRefreshStorm: {
          f.channel = sdram_ok[rng.next_below(sdram_ok.size())];
          const std::uint64_t div = 2 + rng.next_below(7);
          f.trefi = std::max<std::uint64_t>(fabric.nominal_trefi / div,
                                            4 * fabric.trfc);
          if (f.trefi == 0) f.trefi = fabric.nominal_trefi;
          break;
        }
        case FaultKind::kThrottledBanks: {
          f.channel = sdram_ok[rng.next_below(sdram_ok.size())];
          const std::uint64_t all =
              fabric.num_banks >= 64 ? ~0ull
                                     : ((1ull << fabric.num_banks) - 1);
          f.bank_mask = rng.next_u64() & all;
          if (f.bank_mask == 0) f.bank_mask = 1;
          f.extra_trcd = 1 + static_cast<std::uint32_t>(rng.next_below(8));
          f.extra_trp = 1 + static_cast<std::uint32_t>(rng.next_below(8));
          break;
        }
      }
      s.faults_.push_back(f);
    }
  }

  // Flatten to edges. Deactivations sort before activations at the same
  // cycle so a back-to-back fault pair on one resource hands over
  // cleanly; ties then break on fault index.
  for (std::size_t i = 0; i < s.faults_.size(); ++i) {
    const FaultSpec& f = s.faults_[i];
    s.edges_.push_back({f.at, true, static_cast<std::uint32_t>(i)});
    if (f.until > f.at) {
      s.edges_.push_back({f.until, false, static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(s.edges_.begin(), s.edges_.end(),
            [](const FaultEdge& x, const FaultEdge& y) {
              if (x.at != y.at) return x.at < y.at;
              if (x.activate != y.activate) return !x.activate;
              return x.fault < y.fault;
            });

  // Per-channel SDRAM timelines, mirroring what the simulator will
  // apply to each Device so the oracle checks the same constraints.
  s.timelines_.resize(std::max<std::uint32_t>(fabric.num_channels, 1));
  for (const FaultEdge& e : s.edges_) {
    const FaultSpec& f = s.faults_[e.fault];
    if (f.kind == FaultKind::kRefreshStorm && f.trefi != 0) {
      SdramFaultEdge se;
      se.at = e.at;
      se.kind = SdramFaultEdge::Kind::kTrefi;
      se.trefi = e.activate ? f.trefi : fabric.nominal_trefi;
      s.timelines_[f.channel].edges.push_back(se);
    } else if (f.kind == FaultKind::kThrottledBanks) {
      SdramFaultEdge se;
      se.at = e.at;
      se.kind = SdramFaultEdge::Kind::kBankExtra;
      se.bank_mask = f.bank_mask;
      se.extra_trcd = e.activate ? f.extra_trcd : 0;
      se.extra_trp = e.activate ? f.extra_trp : 0;
      s.timelines_[f.channel].edges.push_back(se);
    }
  }
  return s;
}

const SdramFaultTimeline& FaultSchedule::timeline(
    std::uint32_t channel) const {
  static const SdramFaultTimeline kEmpty;
  if (channel >= timelines_.size()) return kEmpty;
  return timelines_[channel];
}

}  // namespace annoc::fault
