#include "layers.hpp"

#include <algorithm>
#include <memory>

#include "check/conservation.hpp"
#include "check/timing_oracle.hpp"
#include "harness.hpp"
#include "noc/network.hpp"
#include "obs/counters.hpp"
#include "sdram/device.hpp"

namespace annoc::benchmark {

std::string_view to_string(EventKind k) {
  switch (k) {
    case EventKind::kCommand: return "command";
    case EventKind::kArbitration: return "arbitration";
    case EventKind::kStall: return "stall";
    case EventKind::kGssAdmit: return "gss_admit";
    case EventKind::kGssAging: return "gss_aging";
    case EventKind::kGssStiHit: return "gss_sti_hit";
    case EventKind::kRequest: return "request";
    case EventKind::kFork: return "fork";
    case EventKind::kJoin: return "join";
    case EventKind::kSubpacket: return "subpacket";
    case EventKind::kDpqGrant: return "dpq_grant";
    case EventKind::kDpqRetire: return "dpq_retire";
    case EventKind::kFault: return "fault";
    case EventKind::kWatchdog: return "watchdog";
  }
  return "?";
}

template <typename E>
void EventLog::keep(EventKind k, std::vector<E>& store, const E& e,
                    Cycle at) {
  ++counts_[static_cast<std::size_t>(k)];
  if (at >= cap_) return;
  store.push_back(e);
  order_.push_back(k);
}

void EventLog::on_command(const obs::SdramCommandEvent& e) {
  keep(EventKind::kCommand, commands_, e, e.at);
}
void EventLog::on_arbitration(const obs::ArbitrationEvent& e) {
  keep(EventKind::kArbitration, arbitrations_, e, e.at);
}
void EventLog::on_stall(const obs::StallEvent& e) {
  keep(EventKind::kStall, stalls_, e, e.at);
}
void EventLog::on_gss_admit(const obs::GssAdmitEvent& e) {
  keep(EventKind::kGssAdmit, gss_admits_, e, e.at);
}
void EventLog::on_gss_aging(const obs::GssAgingEvent& e) {
  keep(EventKind::kGssAging, gss_agings_, e, e.at);
}
void EventLog::on_gss_sti_hit(const obs::GssStiHitEvent& e) {
  keep(EventKind::kGssStiHit, gss_sti_hits_, e, e.at);
}
void EventLog::on_request(const obs::RequestEvent& e) {
  keep(EventKind::kRequest, requests_, e, e.at);
}
void EventLog::on_fork(const obs::ForkEvent& e) {
  keep(EventKind::kFork, forks_, e, e.at);
}
void EventLog::on_join(const obs::JoinEvent& e) {
  keep(EventKind::kJoin, joins_, e, e.at);
}
void EventLog::on_subpacket(const obs::SubpacketRecord& e) {
  keep(EventKind::kSubpacket, subpackets_, e, e.done);
}
void EventLog::on_dpq_grant(const obs::DpqGrantEvent& e) {
  keep(EventKind::kDpqGrant, dpq_grants_, e, e.at);
}
void EventLog::on_dpq_retire(const obs::DpqRetireEvent& e) {
  keep(EventKind::kDpqRetire, dpq_retires_, e, e.at);
}
void EventLog::on_fault(const obs::FaultEvent& e) {
  keep(EventKind::kFault, faults_, e, e.at);
}
void EventLog::on_watchdog(const obs::WatchdogEvent& e) {
  keep(EventKind::kWatchdog, watchdogs_, e, e.at);
}

std::uint64_t EventLog::replay(obs::EventSink& sink,
                               std::uint32_t kinds) const {
  std::array<std::size_t, kNumEventKinds> next{};
  std::uint64_t delivered = 0;
  for (const EventKind k : order_) {
    const std::size_t i = next[static_cast<std::size_t>(k)]++;
    if ((kinds & kind_bit(k)) == 0) continue;
    ++delivered;
    switch (k) {
      case EventKind::kCommand: sink.on_command(commands_[i]); break;
      case EventKind::kArbitration: sink.on_arbitration(arbitrations_[i]); break;
      case EventKind::kStall: sink.on_stall(stalls_[i]); break;
      case EventKind::kGssAdmit: sink.on_gss_admit(gss_admits_[i]); break;
      case EventKind::kGssAging: sink.on_gss_aging(gss_agings_[i]); break;
      case EventKind::kGssStiHit: sink.on_gss_sti_hit(gss_sti_hits_[i]); break;
      case EventKind::kRequest: sink.on_request(requests_[i]); break;
      case EventKind::kFork: sink.on_fork(forks_[i]); break;
      case EventKind::kJoin: sink.on_join(joins_[i]); break;
      case EventKind::kSubpacket: sink.on_subpacket(subpackets_[i]); break;
      case EventKind::kDpqGrant: sink.on_dpq_grant(dpq_grants_[i]); break;
      case EventKind::kDpqRetire: sink.on_dpq_retire(dpq_retires_[i]); break;
      case EventKind::kFault: sink.on_fault(faults_[i]); break;
      case EventKind::kWatchdog: sink.on_watchdog(watchdogs_[i]); break;
    }
  }
  return delivered;
}

namespace {

/// The command a recorded command-bus event stands for; false for the
/// device's own transitions (auto-precharge, refresh), which a fresh
/// device generates itself.
bool to_command(const obs::SdramCommandEvent& e, sdram::Command* cmd) {
  switch (e.kind) {
    case obs::CommandKind::kActivate:
      cmd->type = sdram::CommandType::kActivate;
      break;
    case obs::CommandKind::kPrecharge:
      if (e.refresh_forced) return false;
      cmd->type = sdram::CommandType::kPrecharge;
      break;
    case obs::CommandKind::kRead:
      cmd->type = sdram::CommandType::kRead;
      break;
    case obs::CommandKind::kWrite:
      cmd->type = sdram::CommandType::kWrite;
      break;
    case obs::CommandKind::kRefresh:
    case obs::CommandKind::kAutoPrecharge:
      return false;
  }
  cmd->bank = e.bank;
  cmd->row = e.row;
  cmd->col = e.col;
  cmd->burst_beats = e.burst_beats;
  cmd->useful_beats = e.burst_beats;
  cmd->auto_precharge = e.auto_precharge;
  return true;
}

/// Accepts a packet only once its tail, streamed from now, cannot land
/// before the cycle the live run recorded — which the replay stashes in
/// the packet's mem_arrival until the network stamps the real one.
class PacedSink final : public noc::PacketSink {
 public:
  [[nodiscard]] bool can_accept(const noc::Packet& pkt) const override {
    return now + pkt.flits >= pkt.mem_arrival;
  }
  void deliver(noc::Packet&&, Cycle) override { ++delivered; }

  Cycle now = 0;
  std::uint64_t delivered = 0;
};

}  // namespace

ReplayResult replay_sdram(const EventLog& log, core::Simulator& sim) {
  std::vector<std::unique_ptr<sdram::Device>> devices;
  for (std::size_t c = 0; c < sim.num_controllers(); ++c) {
    devices.push_back(
        std::make_unique<sdram::Device>(sim.subsystem(c).device().config()));
  }
  ReplayResult r;
  const Clock::time_point t0 = Clock::now();
  for (const obs::SdramCommandEvent& e : log.commands()) {
    sdram::Command cmd;
    if (!to_command(e, &cmd)) continue;
    sdram::Device& dev = *devices[e.channel];
    dev.tick(e.at);
    ++r.items;
    if (dev.can_issue(cmd, e.at)) {
      (void)dev.issue(cmd, e.at);
    } else {
      ++r.rejected;
    }
  }
  r.seconds = seconds_since(t0);
  return r;
}

ReplayResult replay_noc(const EventLog& log, core::Simulator& sim) {
  const noc::Network& live = sim.network();
  std::vector<noc::FlowControlKind> kinds;
  for (std::size_t i = 0; i < live.num_routers(); ++i) {
    kinds.push_back(live.router(static_cast<NodeId>(i)).fc_kind());
  }
  const sdram::DeviceConfig& dev = sim.subsystem(0).device().config();
  noc::GssParams gss;
  gss.pct = sim.config().pct;
  gss.timing = sdram::make_timing(dev.generation, dev.clock_mhz);
  noc::Network net(live.config(), std::move(kinds), gss);
  PacedSink sink;
  net.attach_sink(&sink);

  // Per-core FIFOs in recorded injection order.
  std::vector<std::vector<noc::Packet>> fifo;
  for (const obs::SubpacketRecord& s : log.subpackets()) {
    noc::Packet p;
    p.id = s.id;
    p.parent_id = s.parent_id;
    p.src_core = s.core;
    p.src_node = s.src_node;
    p.dst_node = live.mem_nodes()[s.channel];
    p.rw = s.rw;
    p.svc = s.svc;
    p.kind = s.kind;
    p.useful_bytes = s.bytes;
    p.useful_beats = s.beats;
    p.loc = sdram::Location{s.bank, s.row, s.col};
    p.ap_tag = s.ap_tag;
    p.is_split = s.split;
    p.flits = s.flits;
    p.created = s.created;
    p.injected = s.injected;
    p.mem_arrival = s.mem_arrival;
    if (fifo.size() <= s.core) fifo.resize(s.core + 1);
    fifo[s.core].push_back(p);
  }
  std::uint64_t total = 0;
  for (auto& q : fifo) {
    std::stable_sort(q.begin(), q.end(),
                     [](const noc::Packet& a, const noc::Packet& b) {
                       return a.injected < b.injected;
                     });
    total += q.size();
  }
  std::vector<std::size_t> head(fifo.size(), 0);

  ReplayResult r;
  const Cycle limit = log.cap() + 1000000;
  std::uint64_t injected = 0;
  std::uint64_t cycles = 0;
  Cycle now = 0;
  const Clock::time_point t0 = Clock::now();
  while (sink.delivered < total && now < limit) {
    if (injected == sink.delivered) {
      // Nothing in flight: jump to the next recorded injection.
      Cycle next = kNeverCycle;
      for (std::size_t c = 0; c < fifo.size(); ++c) {
        if (head[c] < fifo[c].size()) {
          next = std::min(next, fifo[c][head[c]].injected);
        }
      }
      now = std::max(now, next);
    }
    sink.now = now;
    for (std::size_t c = 0; c < fifo.size(); ++c) {
      while (head[c] < fifo[c].size() && fifo[c][head[c]].injected <= now) {
        noc::Packet p = fifo[c][head[c]];
        if (!net.try_inject(std::move(p), now)) break;
        ++head[c];
        ++injected;
      }
    }
    net.tick(now);
    ++cycles;
    ++now;
  }
  r.seconds = seconds_since(t0);
  r.items = cycles * net.num_routers();
  r.rejected = total - sink.delivered;
  return r;
}

ReplayResult replay_oracles(const EventLog& log, core::Simulator& sim) {
  std::vector<std::unique_ptr<check::TimingOracle>> oracles;
  for (std::size_t c = 0; c < sim.num_controllers(); ++c) {
    oracles.push_back(std::make_unique<check::TimingOracle>(
        sim.subsystem(c).device().config()));
    oracles.back()->set_fault_timeline(sim.fault_schedule().timeline(c));
  }
  ReplayResult r;
  const Clock::time_point t0 = Clock::now();
  for (const obs::SdramCommandEvent& e : log.commands()) {
    for (auto& o : oracles) o->on_command(e);
  }
  r.seconds = seconds_since(t0);
  r.items = log.commands().size();
  for (const auto& o : oracles) r.rejected += o->log().total();
  return r;
}

ReplayResult replay_conservation(const EventLog& log) {
  check::ConservationChecker checker;
  ReplayResult r;
  const Clock::time_point t0 = Clock::now();
  r.items = log.replay(checker, kind_bit(EventKind::kFork) |
                                    kind_bit(EventKind::kJoin) |
                                    kind_bit(EventKind::kSubpacket) |
                                    kind_bit(EventKind::kArbitration));
  r.seconds = seconds_since(t0);
  r.rejected = checker.log().total();
  return r;
}

ReplayResult replay_counter_sink(const EventLog& log, core::Simulator& sim) {
  obs::CounterSink counters(sim.network().num_routers(),
                            sim.num_controllers());
  ReplayResult r;
  const Clock::time_point t0 = Clock::now();
  r.items = log.replay(counters, ~0u);
  counters.finish(std::min(log.end(), log.cap()));
  r.seconds = seconds_since(t0);
  return r;
}

}  // namespace annoc::benchmark
