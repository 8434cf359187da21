#include "noc/network.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <span>

#include "common/assert.hpp"

namespace annoc::noc {

Network::Network(const NocConfig& cfg, std::vector<FlowControlKind> fc_kinds,
                 const GssParams& gss)
    : cfg_(cfg) {
  ANNOC_ASSERT_MSG(cfg_.topology == nullptr ||
                       cfg_.routing == RoutingPolicy::kXY,
                   "adaptive routing needs mesh geometry");
  const TopologyPorts ports = fabric_ports(cfg_);
  const std::size_t n = ports.slots.size();
  ANNOC_ASSERT(n > 0);
  ANNOC_ASSERT_MSG(fc_kinds.size() == 1 || fc_kinds.size() == n,
                   "fc_kinds must have 1 or num-node entries");

  // Resolve the controller set: explicit list, or the classic single
  // corner node.
  mem_nodes_ = cfg_.mem_nodes.empty() ? std::vector<NodeId>{cfg_.mem_node}
                                      : cfg_.mem_nodes;
  is_mem_.assign(n, 0);
  sinks_.assign(n, nullptr);
  for (const NodeId m : mem_nodes_) {
    ANNOC_ASSERT(m < n);
    ANNOC_ASSERT_MSG(!is_mem_[m], "duplicate memory node");
    is_mem_[m] = 1;
  }

  routers_.reserve(n);
  for (NodeId id = 0; id < n; ++id) {
    const FlowControlKind kind =
        fc_kinds.size() == 1 ? fc_kinds[0] : fc_kinds[id];
    routers_.push_back(std::make_unique<Router>(
        id, cfg.buffer_flits, cfg.pipeline_latency, kind, gss,
        std::max(1u, cfg.num_vcs)));
  }
  links_.resize(n);
  for (NodeId id = 0; id < n; ++id) {
    for (std::uint8_t s = 0; s < 4; ++s) {
      const TopologyPorts::Slot& slot = ports.slots[id][s];
      if (slot.nb == kInvalidNode) continue;
      links_[id][kPortNorth + s] =
          Link{slot.nb, static_cast<Port>(kPortNorth + slot.nb_slot)};
    }
  }
  rows_.resize(n);
  link_dead_.assign(n, {});
  link_penalty_.assign(n, {});
  slow_period_.assign(n, 0);
  slow_anchor_.assign(n, 0);
}

std::uint32_t Network::downstream_free(NodeId at, Port out) const {
  const Link& l = links_[at][out];
  if (l.nb == kInvalidNode) return 0;
  return routers_[l.nb]->free_flits(l.nb_in);
}

/// Tie-break orders among a node's productive ports (those whose
/// neighbour is one hop closer to the destination). On a healthy mesh
/// the first productive port in kXyOrder is the XY move and in
/// kNegativeFirstOrder the negative-first one; kSlotOrder is the
/// lowest link slot.
static constexpr Port kXyOrder[] = {kPortEast, kPortWest, kPortSouth,
                                    kPortNorth};
static constexpr Port kNegativeFirstOrder[] = {kPortWest, kPortNorth,
                                               kPortEast, kPortSouth};
static constexpr Port kSlotOrder[] = {kPortNorth, kPortEast, kPortSouth,
                                      kPortWest};

static constexpr std::uint32_t kFar = ~0u;  ///< unreachable

/// Hop distances from the nearest node of `queue` over the links
/// `nb(node, slot)` names (kInvalidNode: none); kFar where unreachable.
template <class Neighbour>
static std::vector<std::uint32_t> bfs(std::size_t n, std::vector<NodeId> queue,
                                      Neighbour nb) {
  std::vector<std::uint32_t> dist(n, kFar);
  for (const NodeId s : queue) dist[s] = 0;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const NodeId u = queue[qi];
    for (std::uint8_t s = 0; s < 4; ++s) {
      const NodeId v = nb(u, s);
      if (v == kInvalidNode || dist[v] != kFar) continue;
      dist[v] = dist[u] + 1;
      queue.push_back(v);
    }
  }
  return dist;
}

void Network::build_row(NodeId dst) {
  const std::size_t n = routers_.size();
  const std::vector<std::uint32_t> dist =
      bfs(n, {dst}, [&](NodeId u, std::uint8_t s) {
        const int p = kPortNorth + s;
        return link_dead_[u][p] ? kInvalidNode : links_[u][p].nb;
      });

  // XY and negative-first assume an intact mesh; a file topology, or
  // any fabric with a dead link, takes the lowest slot.
  const bool mesh = cfg_.topology == nullptr && num_dead_links_ == 0;
  const bool adaptive =
      mesh && cfg_.routing == RoutingPolicy::kAdaptiveMinimal;
  const std::span<const Port> order =
      !mesh ? kSlotOrder : adaptive ? kNegativeFirstOrder : kXyOrder;
  std::vector<Hop>& row = rows_[dst];
  row.assign(n, Hop{});
  for (NodeId at = 0; at < n; ++at) {
    if (at == dst || dist[at] == kFar) continue;  // unreachable: parked
    const auto productive = [&](Port p) {
      const Link& l = links_[at][p];
      return l.nb != kInvalidNode && !link_dead_[at][p] &&
             dist[l.nb] + 1 == dist[at];
    };
    Hop& h = row[at];
    h.port = *std::find_if(order.begin(), order.end(), productive);
    // Negative-first: with both west and north productive, north is
    // the run-time alternate.
    if (adaptive && h.port == kPortWest && productive(kPortNorth)) {
      h.alt = kPortNorth;
    }
  }
}

Network::Hop Network::next_hop(NodeId at, NodeId dst) {
  if (rows_[dst].empty()) build_row(dst);
  return rows_[dst][at];
}

Port Network::route(NodeId at, NodeId dst, bool to_memory) {
  ANNOC_ASSERT(at < routers_.size() && dst < routers_.size());
  if (at == dst) {
    // Arrived: memory-bound packets eject into the subsystem,
    // core-bound packets (read responses) into the local core.
    return to_memory ? kPortMem : kPortLocal;
  }
  const Hop h = next_hop(at, dst);
  if (h.alt != kPortParked &&
      downstream_free(at, h.alt) > downstream_free(at, h.port)) {
    return h.alt;
  }
  return h.port;
}

std::uint32_t Network::hops(NodeId a, NodeId b) {
  ANNOC_ASSERT(a < routers_.size() && b < routers_.size());
  std::uint32_t count = 0;
  for (NodeId at = a; at != b; ++count) {
    const Port p = next_hop(at, b).port;
    ANNOC_ASSERT_MSG(p != kPortParked, "hops() toward an unreachable node");
    at = links_[at][p].nb;
  }
  return count;
}

std::size_t Network::in_flight_packets() const {
  std::size_t total = 0;
  for (const auto& r : routers_) total += r->buffered_packets();
  return total;
}

Cycle Network::next_event(Cycle now) const {
  Cycle h = kNeverCycle;
  for (const auto& r : routers_) {
    Cycle rh = r->next_event(now);
    const std::uint32_t period = slow_period_[r->id()];
    if (period > 1 && rh != kNeverCycle) {
      // Slow router: its state only changes at anchor-aligned
      // arbitration cycles (channel frees between them are
      // unobservable), so the horizon rounds up to alignment.
      const Cycle anchor = slow_anchor_[r->id()];
      const Cycle since = rh > anchor ? rh - anchor : 0;
      rh = anchor + (since + period - 1) / period * period;
    }
    h = std::min(h, rh);
    if (h <= now) return now;
  }
  return h;
}

bool Network::try_inject(Packet&& pkt, Cycle now) {
  ANNOC_ASSERT(pkt.src_node < routers_.size());
  const NodeId src = pkt.src_node;
  Router& r = *routers_[src];
  const auto vc = r.find_vc(kPortLocal, pkt);
  if (!vc) return false;
  // `injected` documents when the packet left its source queue on the
  // REQUEST path (packet.hpp lifecycle contract: injected <= mem_arrival
  // <= service_done). A response re-entering a mesh keeps that stamp —
  // its own transit is tracked by head/tail_arrival and the delivery
  // cycle.
  if (pkt.to_memory) pkt.injected = now;
  pkt.head_arrival = now + 1;
  pkt.tail_arrival = now + pkt.flits;
  stats_.injected_packets += 1;
  stats_.injected_flits += pkt.flits;
  const Port out = route(src, pkt.dst_node, pkt.to_memory);
  r.on_arrival(std::move(pkt), kPortLocal, *vc, out, now);
  // The injecting router has a new head landing at now + 1.
  if (waker_ != nullptr) waker_->wake_router(src, now + 1);
  return true;
}

void Network::deliver(Packet&& pkt, NodeId to, Port in_port,
                      std::uint32_t vc, Cycle now) {
  Router& r = *routers_[to];
  const Port out = route(to, pkt.dst_node, pkt.to_memory);
  r.on_arrival(std::move(pkt), in_port, vc, out, now);
  if (waker_ != nullptr) waker_->wake_router(to, now + 1);
}

Packet Network::grant(Router& r, const VcId& win, Port out, Cycle now) {
  // A degraded link (fault) holds the channel extra cycles per grant;
  // ports off the mesh never carry a penalty.
  Packet pkt = r.grant(win, out, now, link_penalty_[r.id()][out]);
  // Input win.port popped: a winner upstream of it that was blocked on
  // the full buffer may fit now.
  const Link& up = links_[r.id()][win.port];
  if (up.nb != kInvalidNode) routers_[up.nb]->downstream_popped(up.nb_in);
  return pkt;
}

/// Output service order within a router: the memory port first (it
/// gates everything downstream of it), then the mesh directions, local
/// injections last.
static constexpr Port kOrder[kNumPorts] = {kPortMem,  kPortNorth, kPortEast,
                                           kPortSouth, kPortWest,  kPortLocal};

void Network::tick_router(NodeId id, Cycle now) {
  Router& r = *routers_[id];
  // Phase 1: free this router's channels whose transfer has completed.
  for (int p = 0; p < kNumPorts; ++p) {
    Transfer& t = r.output(static_cast<Port>(p));
    if (t.active && now >= t.end) t.active = false;
  }

  // Slow-router fault: arbitration only on anchor-aligned cycles. The
  // gate lives here (not in the caller) so dense and event scheduling
  // skip the same cycles.
  const std::uint32_t period = slow_period_[id];
  if (period > 1 && (now - slow_anchor_[id]) % period != 0) return;

  // Phase 2: arbitrate every free output.
  for (const Port out : kOrder) {
    Transfer& tr = r.output(out);
    if (tr.active) continue;
    if (r.output_pool_empty(out)) continue;  // guaranteed no-op
    const std::optional<VcId> win = r.arbitrate(out, now);
    if (!win) continue;

    if (out == kPortMem) {
      ANNOC_ASSERT_MSG(is_mem_[r.id()],
                       "memory port used away from a memory node");
      PacketSink* const sink = sinks_[r.id()];
      ANNOC_ASSERT(sink != nullptr);
      if (!sink->can_accept(r.head(*win))) {
        r.note_blocked(out, obs::StallCause::kSinkBusy, now);
        continue;
      }
      Packet pkt = grant(r, *win, out, now);
      pkt.mem_arrival = pkt.tail_arrival;  // tail lands when channel frees
      stats_.ejected_packets += 1;
      stats_.ejected_flits += pkt.flits;
      const Cycle lands = pkt.mem_arrival;
      sink->deliver(std::move(pkt), now);
      if (waker_ != nullptr) waker_->wake_memory(r.id(), lands);
      continue;
    }

    if (out == kPortLocal) {
      // Core-bound ejection (read responses): cores always sink. The
      // packet counts as delivered when its tail lands.
      ANNOC_ASSERT_MSG(local_sink_ != nullptr,
                       "core-bound packet without a local sink");
      Packet pkt = grant(r, *win, out, now);
      const Cycle done = pkt.tail_arrival;
      stats_.ejected_packets += 1;
      stats_.ejected_flits += pkt.flits;
      local_sink_(std::move(pkt), done);
      continue;
    }

    // Mesh link: the neighbour and its facing input port come from
    // the table precomputed in the constructor.
    const Link& l = links_[r.id()][out];
    ANNOC_ASSERT_MSG(l.nb != kInvalidNode,
                     "granted output leaves the mesh");

    Router& down = *routers_[l.nb];
    // The same winner already missed this buffer and it has not popped
    // since: the probe would miss again.
    const bool known_full = r.downstream_full(out);
    if (known_full && r.audit() && down.find_vc(l.nb_in, r.head(*win))) {
      r.audit_failed(out, now, "skipped the downstream probe of a winner "
                               "that fits");
    }
    const auto vc =
        known_full ? std::nullopt : down.find_vc(l.nb_in, r.head(*win));
    if (!vc) {
      r.note_blocked(out, obs::StallCause::kDownstreamFull, now);
      continue;
    }
    deliver(grant(r, *win, out, now), l.nb, l.nb_in, *vc, now);
  }
}

void Network::tick(Cycle now) {
  // Per-router ticking in id order is equivalent to the historical
  // free-all-channels-then-arbitrate-all order: arbitration at router i
  // never reads another router's Transfer state (see tick_router's doc
  // comment), so whether router j > i frees its channels before or
  // after router i arbitrates is unobservable to i.
  for (NodeId id = 0; id < routers_.size(); ++id) tick_router(id, now);
}

std::vector<std::pair<NodeId, NodeId>> Network::link_list() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId id = 0; id < links_.size(); ++id) {
    for (int p = kPortNorth; p <= kPortWest; ++p) {
      const Link& l = links_[id][p];
      if (l.nb != kInvalidNode && id < l.nb) out.emplace_back(id, l.nb);
    }
  }
  return out;
}

Port Network::port_toward(NodeId a, NodeId b) const {
  ANNOC_ASSERT(a < links_.size() && b < links_.size());
  for (int p = kPortNorth; p <= kPortWest; ++p) {
    if (links_[a][p].nb == b) return static_cast<Port>(p);
  }
  ANNOC_ASSERT_MSG(false, "no link between the given nodes");
  return kPortLocal;
}

void Network::reroute_all() {
  for (auto& r : routers_) {
    const NodeId id = r->id();
    r->reroute([this, id](const Packet& p) {
      return route(id, p.dst_node, p.to_memory);
    });
  }
}

void Network::set_link_dead(NodeId a, NodeId b, bool dead) {
  const Port ab = port_toward(a, b);
  const Port ba = port_toward(b, a);
  const std::uint8_t v = dead ? 1 : 0;
  if (link_dead_[a][ab] == v) return;  // idempotent
  link_dead_[a][ab] = v;
  link_dead_[b][ba] = v;
  num_dead_links_ += dead ? 1u : -1u;
  for (std::vector<Hop>& row : rows_) row.clear();
  reroute_all();
}

void Network::set_link_penalty(NodeId a, NodeId b, std::uint32_t penalty) {
  link_penalty_[a][port_toward(a, b)] = penalty;
  link_penalty_[b][port_toward(b, a)] = penalty;
}

void Network::set_router_slow(NodeId router, std::uint32_t period,
                              Cycle anchor) {
  ANNOC_ASSERT(router < routers_.size());
  slow_period_[router] = period;
  slow_anchor_[router] = anchor;
}

std::uint64_t Network::progress_token() const {
  std::uint64_t t = stats_.injected_packets + stats_.ejected_packets;
  for (const auto& r : routers_) t += r->stats().packets_forwarded;
  return t;
}

void Network::dump_diagnostics(std::ostream& os, Cycle now) const {
  os << "network: " << in_flight_packets() << " packet(s) in flight across "
     << routers_.size() << " router(s)\n";
  bool any_fault = false;
  for (NodeId id = 0; id < links_.size(); ++id) {
    for (int p = kPortNorth; p <= kPortWest; ++p) {
      const Link& l = links_[id][p];
      if (l.nb == kInvalidNode || id > l.nb) continue;
      if (link_dead_[id][p]) {
        os << "  dead link: " << id << " <-> " << l.nb << "\n";
        any_fault = true;
      } else if (link_penalty_[id][p] != 0) {
        os << "  degraded link: " << id << " <-> " << l.nb << " (+"
           << link_penalty_[id][p] << " cycles/grant)\n";
        any_fault = true;
      }
    }
    if (slow_period_[id] > 1) {
      os << "  slow router: " << id << " (arbitrates every "
         << slow_period_[id] << " cycles)\n";
      any_fault = true;
    }
  }
  if (!any_fault) os << "  no NoC faults active\n";
  for (const auto& r : routers_) r->dump(os, now);
}

std::vector<FlowControlKind> Network::mixed_kinds(const NocConfig& cfg,
                                                  std::size_t num_gss,
                                                  FlowControlKind gss_kind,
                                                  FlowControlKind base_kind) {
  const TopologyPorts ports = fabric_ports(cfg);
  const std::size_t n = ports.slots.size();
  // Sort nodes by hop distance to the NEAREST memory node (closest
  // first): the GSS investment goes where controller-bound traffic
  // converges, whichever controller that is.
  const std::vector<std::uint32_t> dist =
      bfs(n,
          cfg.mem_nodes.empty() ? std::vector<NodeId>{cfg.mem_node}
                                : cfg.mem_nodes,
          [&](NodeId u, std::uint8_t s) { return ports.slots[u][s].nb; });
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](NodeId a, NodeId b) { return dist[a] < dist[b]; });
  std::vector<FlowControlKind> kinds(n, base_kind);
  for (std::size_t i = 0; i < std::min(num_gss, n); ++i) {
    kinds[order[i]] = gss_kind;
  }
  return kinds;
}

}  // namespace annoc::noc
