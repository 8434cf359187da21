#include "noc/network.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>

#include "common/assert.hpp"

namespace annoc::noc {

Network::Network(const NocConfig& cfg, std::vector<FlowControlKind> fc_kinds,
                 const GssParams& gss)
    : cfg_(cfg) {
  const bool topo = cfg_.topology != nullptr;
  const std::size_t n =
      topo ? cfg_.topology->num_nodes()
           : static_cast<std::size_t>(cfg.width) *
                 static_cast<std::size_t>(cfg.height);
  ANNOC_ASSERT(n > 0);
  if (topo) {
    ANNOC_ASSERT_MSG(validate_topology(*cfg_.topology).ok(),
                     "Network given an invalid topology");
    ANNOC_ASSERT_MSG(cfg_.routing == RoutingPolicy::kXY,
                     "adaptive routing needs mesh geometry");
  }
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
    // Irregular topologies have no grid coordinates; the router's x/y
    // are only consulted by mesh XY routing, which topology mode never
    // runs.
    const std::uint32_t x = topo ? id : x_of(id);
    const std::uint32_t y = topo ? 0 : y_of(id);
    routers_.push_back(std::make_unique<Router>(
        id, x, y, cfg.buffer_flits, cfg.pipeline_latency, kind, gss,
        std::max(1u, cfg.num_vcs)));
  }
  links_.resize(n);
  link_dead_.assign(n, {});
  link_penalty_.assign(n, {});
  slow_period_.assign(n, 0);
  slow_anchor_.assign(n, 0);
  if (topo) {
    const TopologyPorts ports = assign_ports(*cfg_.topology);
    for (NodeId id = 0; id < n; ++id) {
      for (std::uint8_t s = 0; s < 4; ++s) {
        const TopologyPorts::Slot& slot = ports.slots[id][s];
        if (slot.nb == kInvalidNode) continue;
        links_[id][kPortNorth + s] =
            Link{slot.nb, static_cast<Port>(kPortNorth + slot.nb_slot)};
      }
    }
    topo_dist_ = bfs_distances(*cfg_.topology);
    topo_next_ = bfs_next_hops(*cfg_.topology, ports, topo_dist_);
  } else {
    for (NodeId id = 0; id < n; ++id) {
      const std::uint32_t x = x_of(id), y = y_of(id);
      if (y > 0) links_[id][kPortNorth] = Link{node_at(x, y - 1), kPortSouth};
      if (y + 1 < cfg_.height) {
        links_[id][kPortSouth] = Link{node_at(x, y + 1), kPortNorth};
      }
      if (x + 1 < cfg_.width) {
        links_[id][kPortEast] = Link{node_at(x + 1, y), kPortWest};
      }
      if (x > 0) links_[id][kPortWest] = Link{node_at(x - 1, y), kPortEast};
    }
  }
}

std::uint32_t Network::downstream_free(NodeId at, Port out) const {
  const Link& l = links_[at][out];
  if (l.nb == kInvalidNode) return 0;
  return routers_[l.nb]->free_flits(l.nb_in);
}

Port Network::route(NodeId at, NodeId dst, bool to_memory) const {
  ANNOC_ASSERT(at < routers_.size() && dst < routers_.size());
  if (at == dst) {
    // Arrived: memory-bound packets eject into the subsystem,
    // core-bound packets (read responses) into the local core.
    return to_memory ? kPortMem : kPortLocal;
  }

  if (!fault_next_.empty()) {
    // Dead links present: BFS next hop over the live links (or parked
    // when the destination is unreachable). Overrides every normal
    // policy — XY/adaptive minimality assumes an intact fabric.
    const std::size_t n = routers_.size();
    return static_cast<Port>(
        fault_next_[static_cast<std::size_t>(dst) * n + at]);
  }

  if (!topo_next_.empty()) {
    // Irregular topology: precomputed BFS next-hop slot toward dst.
    const std::size_t n = routers_.size();
    return static_cast<Port>(kPortNorth +
                             topo_next_[static_cast<std::size_t>(dst) * n + at]);
  }

  const std::uint32_t ax = x_of(at), ay = y_of(at);
  const std::uint32_t dx = x_of(dst), dy = y_of(dst);

  if (cfg_.routing == RoutingPolicy::kAdaptiveMinimal) {
    // Negative-first: take all west/north moves before any east/south
    // move (deadlock-free turn model); when both are productive, pick
    // the downstream buffer with more free space.
    const bool need_west = ax > dx;
    const bool need_north = ay > dy;
    if (need_west && need_north) {
      return downstream_free(at, kPortNorth) > downstream_free(at, kPortWest)
                 ? kPortNorth
                 : kPortWest;
    }
    if (need_west) return kPortWest;
    if (need_north) return kPortNorth;
    // Only positive moves remain: deterministic XY order.
    if (ax < dx) return kPortEast;
    return kPortSouth;
  }

  // Deterministic XY.
  if (ax < dx) return kPortEast;
  if (ax > dx) return kPortWest;
  if (ay < dy) return kPortSouth;  // y grows southward (row-major)
  return kPortNorth;
}

std::uint32_t Network::hops(NodeId a, NodeId b) const {
  if (!topo_dist_.empty()) {
    return topo_dist_[static_cast<std::size_t>(a) * routers_.size() + b];
  }
  const auto dx = static_cast<std::int64_t>(x_of(a)) - x_of(b);
  const auto dy = static_cast<std::int64_t>(y_of(a)) - y_of(b);
  return static_cast<std::uint32_t>((dx < 0 ? -dx : dx) +
                                    (dy < 0 ? -dy : dy));
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

void Network::rebuild_fault_tables() {
  const std::size_t n = routers_.size();
  if (num_dead_links_ == 0) {
    fault_dist_.clear();
    fault_next_.clear();
    return;
  }
  fault_dist_.assign(n * n, 0xffff);
  fault_next_.assign(n * n, static_cast<std::uint8_t>(kNumPorts));
  std::vector<NodeId> queue;
  queue.reserve(n);
  for (NodeId dst = 0; dst < n; ++dst) {
    std::uint16_t* const dist = &fault_dist_[static_cast<std::size_t>(dst) * n];
    queue.clear();
    dist[dst] = 0;
    queue.push_back(dst);
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const NodeId u = queue[qi];
      for (int p = kPortNorth; p <= kPortWest; ++p) {
        const Link& l = links_[u][p];
        if (l.nb == kInvalidNode || link_dead_[u][p]) continue;
        if (dist[l.nb] != 0xffff) continue;
        dist[l.nb] = static_cast<std::uint16_t>(dist[u] + 1);
        queue.push_back(l.nb);
      }
    }
    // Next hop at each node: the first live out-port (N, E, S, W order
    // — the deterministic tie-break) whose neighbour is one hop closer.
    for (NodeId at = 0; at < n; ++at) {
      if (at == dst || dist[at] == 0xffff) continue;
      for (int p = kPortNorth; p <= kPortWest; ++p) {
        const Link& l = links_[at][p];
        if (l.nb == kInvalidNode || link_dead_[at][p]) continue;
        if (dist[l.nb] + 1 == dist[at]) {
          fault_next_[static_cast<std::size_t>(dst) * n + at] =
              static_cast<std::uint8_t>(p);
          break;
        }
      }
    }
  }
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
  rebuild_fault_tables();
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
  const bool topo = cfg.topology != nullptr;
  const std::size_t n = topo ? cfg.topology->num_nodes()
                             : static_cast<std::size_t>(cfg.width) *
                                   static_cast<std::size_t>(cfg.height);
  const std::vector<NodeId> mems =
      cfg.mem_nodes.empty() ? std::vector<NodeId>{cfg.mem_node}
                            : cfg.mem_nodes;
  const std::vector<std::uint16_t> bfs =
      topo ? bfs_distances(*cfg.topology) : std::vector<std::uint16_t>{};
  // Sort nodes by hop distance to the NEAREST memory node (closest
  // first): the GSS investment goes where controller-bound traffic
  // converges, whichever controller that is.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  const auto dist = [&](NodeId id) {
    std::uint32_t best = ~0u;
    for (const NodeId m : mems) {
      std::uint32_t d;
      if (topo) {
        d = bfs[static_cast<std::size_t>(id) * n + m];
      } else {
        const auto x = id % cfg.width, y = id / cfg.width;
        const auto mx = m % cfg.width, my = m / cfg.width;
        d = (x > mx ? x - mx : mx - x) + (y > my ? y - my : my - y);
      }
      best = std::min(best, d);
    }
    return best;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](NodeId a, NodeId b) { return dist(a) < dist(b); });
  std::vector<FlowControlKind> kinds(n, base_kind);
  for (std::size_t i = 0; i < std::min(num_gss, n); ++i) {
    kinds[order[i]] = gss_kind;
  }
  return kinds;
}

}  // namespace annoc::noc
