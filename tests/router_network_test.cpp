/// Tests for the router (buffers, arbitration, wormhole timing, the
/// arbitration memo) and the network (the next-hop table against XY,
/// negative-first and BFS references, dead-link detours, injection,
/// ejection, backpressure).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "noc/router.hpp"

namespace annoc::noc {
namespace {

Packet mk(NodeId src, NodeId dst, std::uint32_t flits, PacketId id = 1) {
  Packet p;
  p.id = id;
  p.parent_id = id;
  p.src_node = src;
  p.dst_node = dst;
  p.flits = flits;
  p.useful_beats = flits * 2;
  p.useful_bytes = p.useful_beats * 4;
  return p;
}

TEST(InputBuffer, AcceptsUpToCapacity) {
  InputBuffer buf(8);
  EXPECT_TRUE(buf.can_accept(8));
  Packet p = mk(0, 0, 8);
  buf.push(std::move(p));
  EXPECT_EQ(buf.used_flits(), 8u);
  EXPECT_FALSE(buf.can_accept(1));
}

TEST(InputBuffer, OversizedPacketUsesHalfBufferRule) {
  InputBuffer buf(16);
  // A 32-flit packet needs only capacity/2 = 8 free slots (wormhole
  // streaming with bounded overcommit), and is charged the full 16.
  Packet small = mk(0, 0, 6);
  buf.push(std::move(small));
  EXPECT_TRUE(buf.can_accept(32)) << "6 used, 10 free >= 8 needed";
  Packet big = mk(0, 0, 32);
  buf.push(std::move(big));
  EXPECT_EQ(buf.used_flits(), 22u);
  EXPECT_FALSE(buf.can_accept(32)) << "no room for a second giant";
  EXPECT_FALSE(buf.can_accept(1));
}

TEST(InputBuffer, PopRestoresSpace) {
  InputBuffer buf(8);
  buf.push(mk(0, 0, 5));
  buf.push(mk(0, 0, 3));
  EXPECT_EQ(buf.used_flits(), 8u);
  (void)buf.pop();
  EXPECT_EQ(buf.used_flits(), 3u);
  EXPECT_TRUE(buf.can_accept(5));
}

TEST(Router, GrantOccupiesChannelForPacketLength) {
  Router r(0, 16, 1, FlowControlKind::kRoundRobin, {});
  Packet p = mk(0, 99, 6);
  p.head_arrival = 10;
  p.tail_arrival = 15;
  r.on_arrival(std::move(p), kPortEast, 0, kPortWest, 10);

  auto win = r.arbitrate(kPortWest, 10);
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(win->port, kPortEast);
  EXPECT_EQ(win->vc, 0u);
  Packet granted = r.grant(*win, kPortWest, 10);
  const Transfer& tr = r.output(kPortWest);
  EXPECT_TRUE(tr.active);
  EXPECT_EQ(tr.start, 10u);
  EXPECT_EQ(tr.end, 16u);  // max(10+6, 15+1)
  EXPECT_EQ(granted.head_arrival, 11u);
  EXPECT_EQ(granted.tail_arrival, 16u);
}

TEST(Router, TailArrivalExtendsHold) {
  Router r(0, 16, 1, FlowControlKind::kRoundRobin, {});
  Packet p = mk(0, 99, 4);
  p.head_arrival = 10;
  p.tail_arrival = 30;  // still streaming in from upstream
  r.on_arrival(std::move(p), kPortEast, 0, kPortWest, 10);
  auto win = r.arbitrate(kPortWest, 12);
  ASSERT_TRUE(win.has_value());
  (void)r.grant(*win, kPortWest, 12);
  EXPECT_EQ(r.output(kPortWest).end, 31u);  // max(12+4, 30+1)
}

TEST(Router, PipelineDelaysEligibility) {
  Router r(0, 16, /*pipeline=*/3, FlowControlKind::kRoundRobin, {});
  Packet p = mk(0, 99, 2);
  p.head_arrival = 10;
  p.tail_arrival = 11;
  r.on_arrival(std::move(p), kPortEast, 0, kPortWest, 10);
  EXPECT_FALSE(r.arbitrate(kPortWest, 10).has_value());
  EXPECT_FALSE(r.arbitrate(kPortWest, 11).has_value());
  EXPECT_TRUE(r.arbitrate(kPortWest, 12).has_value());
}

TEST(Router, HeadOfLineBlocksOtherOutputs) {
  Router r(0, 16, 1, FlowControlKind::kRoundRobin, {});
  Packet a = mk(0, 99, 2, 1);  // head, routed to West
  a.head_arrival = 5;
  a.tail_arrival = 6;
  Packet b = mk(0, 98, 2, 2);  // behind it, routed to North
  b.head_arrival = 6;
  b.tail_arrival = 7;
  r.on_arrival(std::move(a), kPortEast, 0, kPortWest, 5);
  r.on_arrival(std::move(b), kPortEast, 0, kPortNorth, 6);
  // The second packet cannot arbitrate for North while the head wants
  // West (in-order buffers).
  EXPECT_FALSE(r.arbitrate(kPortNorth, 10).has_value());
  EXPECT_TRUE(r.arbitrate(kPortWest, 10).has_value());
}

class MemSink final : public PacketSink {
 public:
  bool can_accept(const Packet&) const override { return accept_; }
  void deliver(Packet&& p, Cycle now) override {
    delivered.push_back(std::move(p));
    last_cycle = now;
  }
  bool accept_ = true;
  std::vector<Packet> delivered;
  Cycle last_cycle = 0;
};

NocConfig cfg3x3() {
  NocConfig c;
  c.width = 3;
  c.height = 3;
  c.mem_node = 0;
  c.buffer_flits = 16;
  c.pipeline_latency = 1;
  return c;
}

TEST(Network, XyRoutingReachesMemoryPort) {
  Network net(cfg3x3(), {FlowControlKind::kRoundRobin}, {});
  // From node 8 (x=2,y=2) to node 0: west first (X), then north (Y).
  EXPECT_EQ(net.route(8, 0), kPortWest);
  EXPECT_EQ(net.route(6, 0), kPortNorth);  // x already 0
  EXPECT_EQ(net.route(2, 0), kPortWest);
  EXPECT_EQ(net.route(0, 0), kPortMem);
}

TEST(Network, HopsAreManhattan) {
  Network net(cfg3x3(), {FlowControlKind::kRoundRobin}, {});
  EXPECT_EQ(net.hops(0, 0), 0u);
  EXPECT_EQ(net.hops(8, 0), 4u);
  EXPECT_EQ(net.hops(5, 0), 3u);
  EXPECT_EQ(net.hops(1, 3), 2u);
}

TEST(Network, InjectDeliverEndToEnd) {
  Network net(cfg3x3(), {FlowControlKind::kRoundRobin}, {});
  MemSink sink;
  net.attach_sink(&sink);

  Packet p = mk(8, 0, 4, 42);
  p.created = 0;
  ASSERT_TRUE(net.try_inject(std::move(p), 0));
  EXPECT_EQ(net.in_flight_packets(), 1u);

  for (Cycle t = 0; t < 100 && sink.delivered.empty(); ++t) net.tick(t);
  ASSERT_EQ(sink.delivered.size(), 1u);
  const Packet& d = sink.delivered[0];
  EXPECT_EQ(d.id, 42u);
  // 4 hops, 4 flits: arrival no earlier than hops + flits.
  EXPECT_GE(d.mem_arrival, 8u);
  EXPECT_LE(d.mem_arrival, 30u);
  EXPECT_EQ(net.in_flight_packets(), 0u);
  EXPECT_EQ(net.stats().injected_packets, 1u);
  EXPECT_EQ(net.stats().ejected_packets, 1u);
}

TEST(Network, LocalInjectionAtMemNodeIsOneGrantAway) {
  Network net(cfg3x3(), {FlowControlKind::kRoundRobin}, {});
  MemSink sink;
  net.attach_sink(&sink);
  ASSERT_TRUE(net.try_inject(mk(0, 0, 2, 7), 0));
  for (Cycle t = 0; t < 20 && sink.delivered.empty(); ++t) net.tick(t);
  ASSERT_EQ(sink.delivered.size(), 1u);
  EXPECT_LE(sink.delivered[0].mem_arrival, 6u);
}

TEST(Network, SinkBackpressureHoldsPackets) {
  Network net(cfg3x3(), {FlowControlKind::kRoundRobin}, {});
  MemSink sink;
  sink.accept_ = false;
  net.attach_sink(&sink);
  ASSERT_TRUE(net.try_inject(mk(1, 0, 2, 1), 0));
  for (Cycle t = 0; t < 50; ++t) net.tick(t);
  EXPECT_TRUE(sink.delivered.empty());
  EXPECT_EQ(net.in_flight_packets(), 1u);
  sink.accept_ = true;
  for (Cycle t = 50; t < 80 && sink.delivered.empty(); ++t) net.tick(t);
  EXPECT_EQ(sink.delivered.size(), 1u);
}

TEST(Network, InjectFailsWhenBufferFull) {
  NocConfig c = cfg3x3();
  c.buffer_flits = 4;
  Network net(c, {FlowControlKind::kRoundRobin}, {});
  MemSink sink;
  sink.accept_ = false;  // nothing drains
  net.attach_sink(&sink);
  EXPECT_TRUE(net.try_inject(mk(0, 0, 4, 1), 0));
  // The local buffer (4 flits) is now full; packets must be refused.
  EXPECT_FALSE(net.try_inject(mk(0, 0, 4, 2), 1));
}

TEST(Network, ManyPacketsAllArrive) {
  Network net(cfg3x3(), {FlowControlKind::kSdramAware}, {});
  MemSink sink;
  net.attach_sink(&sink);
  PacketId id = 1;
  std::size_t injected = 0;
  Cycle t = 0;
  while (injected < 50 && t < 2000) {
    for (NodeId n = 0; n < 9; ++n) {
      Packet p = mk(n, 0, 2, id);
      p.loc.bank = static_cast<BankId>(n % 4);
      if (injected < 50 && net.try_inject(std::move(p), t)) {
        ++id;
        ++injected;
      }
    }
    net.tick(t);
    ++t;
  }
  for (; t < 5000 && sink.delivered.size() < injected; ++t) net.tick(t);
  EXPECT_EQ(sink.delivered.size(), injected);
  // No duplicates.
  std::map<PacketId, int> ids;
  for (const auto& p : sink.delivered) ++ids[p.id];
  for (const auto& [pid, count] : ids) {
    EXPECT_EQ(count, 1) << "packet " << pid << " duplicated";
  }
}

TEST(Network, MixedKindsOrdersByDistance) {
  NocConfig c = cfg3x3();
  auto kinds = Network::mixed_kinds(c, 3, FlowControlKind::kGss,
                                    FlowControlKind::kPriorityFirst);
  ASSERT_EQ(kinds.size(), 9u);
  // Closest three to node 0: nodes 0 (d0), 1 and 3 (d1).
  EXPECT_EQ(kinds[0], FlowControlKind::kGss);
  EXPECT_EQ(kinds[1], FlowControlKind::kGss);
  EXPECT_EQ(kinds[3], FlowControlKind::kGss);
  EXPECT_EQ(kinds[2], FlowControlKind::kPriorityFirst);
  EXPECT_EQ(kinds[4], FlowControlKind::kPriorityFirst);
}

TEST(Network, MixedKindsZeroAndAll) {
  NocConfig c = cfg3x3();
  auto none = Network::mixed_kinds(c, 0, FlowControlKind::kGss,
                                   FlowControlKind::kRoundRobin);
  for (auto k : none) EXPECT_EQ(k, FlowControlKind::kRoundRobin);
  auto all = Network::mixed_kinds(c, 9, FlowControlKind::kGss,
                                  FlowControlKind::kRoundRobin);
  for (auto k : all) EXPECT_EQ(k, FlowControlKind::kGss);
  auto over = Network::mixed_kinds(c, 99, FlowControlKind::kGss,
                                   FlowControlKind::kRoundRobin);
  for (auto k : over) EXPECT_EQ(k, FlowControlKind::kGss);
}

// ---------------------------------------------------------------------
// The next-hop table: one BFS per destination plus a policy step must
// reproduce the closed-form mesh rules, detour around dead links in
// N/E/S/W order, and take the lowest productive slot on any topology.
// ---------------------------------------------------------------------

/// XY on a row-major mesh of width `w` (y grows southward).
Port xy_rule(std::uint32_t w, NodeId at, NodeId dst) {
  if (at % w < dst % w) return kPortEast;
  if (at % w > dst % w) return kPortWest;
  return at / w < dst / w ? kPortSouth : kPortNorth;
}

/// Negative-first: every west/north move before any east/south move;
/// with both west and north productive, the downstream with strictly
/// more free flits wins, west on a tie.
Port negative_first_rule(const Network& net, std::uint32_t w, NodeId at,
                         NodeId dst) {
  const bool west = at % w > dst % w;
  const bool north = at / w > dst / w;
  if (west && north) {
    return net.downstream_free(at, kPortNorth) >
                   net.downstream_free(at, kPortWest)
               ? kPortNorth
               : kPortWest;
  }
  if (west) return kPortWest;
  if (north) return kPortNorth;
  return at % w < dst % w ? kPortEast : kPortSouth;
}

TEST(RouteTable, MeshesMatchTheCoordinateRules) {
  std::size_t alternates = 0;
  for (std::uint32_t w = 1; w <= 9; ++w) {
    for (std::uint32_t h = 1; h <= 9; ++h) {
      SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
      NocConfig c;
      c.width = w;
      c.height = h;
      c.buffer_flits = 8;
      Network xy(c, {FlowControlKind::kRoundRobin}, {});
      c.routing = RoutingPolicy::kAdaptiveMinimal;
      Network nf(c, {FlowControlKind::kRoundRobin}, {});
      // Fill the east input of every third router, so a west move into
      // it sees no free flit and negative-first takes north instead.
      for (NodeId id = 0; id < w * h; id += 3) {
        nf.router(id).on_arrival(mk(id, 0, 8), kPortEast, 0, kPortWest, 0);
      }
      for (NodeId dst = 0; dst < w * h; ++dst) {
        EXPECT_EQ(xy.route(dst, dst), kPortMem);
        EXPECT_EQ(nf.route(dst, dst, /*to_memory=*/false), kPortLocal);
        for (NodeId at = 0; at < w * h; ++at) {
          if (at == dst) continue;
          ASSERT_EQ(xy.route(at, dst), xy_rule(w, at, dst))
              << at << " -> " << dst;
          const Port want = negative_first_rule(nf, w, at, dst);
          ASSERT_EQ(nf.route(at, dst), want) << at << " -> " << dst;
          if (want == kPortNorth && at % w > dst % w) ++alternates;
          const std::uint32_t manhattan =
              (at % w > dst % w ? at % w - dst % w : dst % w - at % w) +
              (at / w > dst / w ? at / w - dst / w : dst / w - at / w);
          ASSERT_EQ(xy.hops(at, dst), manhattan) << at << " -> " << dst;
        }
      }
    }
  }
  EXPECT_GT(alternates, 0u) << "no case took the negative-first alternate";
}

TEST(RouteTable, DeadLinkDetoursInNesWOrderAndHeals) {
  // 0 1 2
  // 3 4 5
  // 6 7 8
  for (const RoutingPolicy policy :
       {RoutingPolicy::kXY, RoutingPolicy::kAdaptiveMinimal}) {
    NocConfig c = cfg3x3();
    c.routing = policy;
    Network net(c, {FlowControlKind::kRoundRobin}, {});
    MemSink sink;
    net.attach_sink(&sink);
    EXPECT_EQ(net.route(2, 0), kPortWest);
    EXPECT_EQ(net.route(8, 0), kPortWest);
    // A packet buffered at node 1, routed west, when the link dies.
    ASSERT_TRUE(net.try_inject(mk(1, 0, 2, 1), 0));

    net.set_link_dead(0, 1, true);
    // Live-link distances to 0: 3 is 1 hop, 4 and 6 are 2, 1/5/7 are 3.
    // Node 2 has S (5) and W (1) one hop closer and takes S; node 8 has
    // N (5) and W (7) and takes N; node 1 can only go S.
    EXPECT_EQ(net.route(1, 0), kPortSouth);
    EXPECT_EQ(net.route(2, 0), kPortSouth);
    EXPECT_EQ(net.route(8, 0), kPortNorth);
    EXPECT_EQ(net.route(4, 0), kPortWest);
    EXPECT_EQ(net.hops(1, 0), 3u);
    for (Cycle t = 0; t < 100 && sink.delivered.empty(); ++t) net.tick(t);
    ASSERT_EQ(sink.delivered.size(), 1u) << "the buffered packet rerouted";

    net.set_link_dead(0, 1, false);
    EXPECT_EQ(net.route(1, 0), kPortWest);
    EXPECT_EQ(net.route(2, 0), kPortWest);
    EXPECT_EQ(net.route(8, 0), kPortWest);
    EXPECT_EQ(net.hops(1, 0), 1u);
  }
}

TEST(RouteTable, PartitionParksUntilHealed) {
  Network net(cfg3x3(), {FlowControlKind::kRoundRobin}, {});
  MemSink sink;
  net.attach_sink(&sink);
  net.set_link_dead(0, 1, true);
  net.set_link_dead(0, 3, true);
  EXPECT_EQ(net.route(4, 0), kPortParked);
  EXPECT_EQ(net.route(1, 0), kPortParked);
  EXPECT_EQ(net.route(0, 0), kPortMem);
  EXPECT_EQ(net.route(0, 8), kPortParked);
  EXPECT_EQ(net.route(8, 4), kPortNorth);  // the rest still routes
  ASSERT_TRUE(net.try_inject(mk(4, 0, 2, 1), 0));
  for (Cycle t = 0; t < 50; ++t) net.tick(t);
  EXPECT_TRUE(sink.delivered.empty());
  EXPECT_EQ(net.in_flight_packets(), 1u);

  net.set_link_dead(0, 3, false);
  EXPECT_EQ(net.route(4, 0), kPortWest);
  EXPECT_EQ(net.route(1, 0), kPortSouth);
  for (Cycle t = 50; t < 150 && sink.delivered.empty(); ++t) net.tick(t);
  EXPECT_EQ(sink.delivered.size(), 1u);
}

/// A connected random graph of `n` nodes with degree <= 4: a random
/// spanning tree, then random extra links.
std::shared_ptr<TopologySpec> random_topology(Rng& rng, std::size_t n) {
  auto spec = std::make_shared<TopologySpec>();
  std::vector<std::uint32_t> degree(n, 0);
  const auto linked = [&](NodeId a, NodeId b) {
    for (const TopologySpec::Edge& e : spec->links) {
      if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) return true;
    }
    return false;
  };
  for (NodeId i = 0; i < n; ++i) {
    spec->node_names.push_back("n" + std::to_string(i));
    if (i == 0) continue;
    NodeId j = 0;
    do {
      j = static_cast<NodeId>(rng.next_below(i));
    } while (degree[j] == 4);
    spec->links.push_back({j, i});
    ++degree[j];
    ++degree[i];
  }
  for (std::size_t tries = rng.next_below(2 * n); tries > 0; --tries) {
    const auto a = static_cast<NodeId>(rng.next_below(n));
    const auto b = static_cast<NodeId>(rng.next_below(n));
    if (a == b || degree[a] == 4 || degree[b] == 4 || linked(a, b)) continue;
    spec->links.push_back({a, b});
    ++degree[a];
    ++degree[b];
  }
  return spec;
}

TEST(RouteTable, TopologiesTakeTheLowestProductiveSlot) {
  Rng rng(0x7ab1e);
  for (int round = 0; round < 100; ++round) {
    const std::size_t n = 2 + rng.next_below(30);
    NocConfig c;
    c.topology = random_topology(rng, n);
    ASSERT_TRUE(validate_topology(*c.topology).ok());
    Network net(c, {FlowControlKind::kRoundRobin}, {});
    const TopologyPorts ports = assign_ports(*c.topology);
    for (NodeId dst = 0; dst < n; ++dst) {
      // Reference distances to dst: a plain BFS over the spec's links.
      std::vector<std::uint32_t> dist(n, ~0u);
      std::vector<NodeId> queue{dst};
      dist[dst] = 0;
      for (std::size_t qi = 0; qi < queue.size(); ++qi) {
        for (const TopologySpec::Edge& e : c.topology->links) {
          const NodeId u = queue[qi];
          const NodeId v = e.a == u ? e.b : e.b == u ? e.a : kInvalidNode;
          if (v != kInvalidNode && dist[v] == ~0u) {
            dist[v] = dist[u] + 1;
            queue.push_back(v);
          }
        }
      }
      for (NodeId at = 0; at < n; ++at) {
        if (at == dst) continue;
        std::uint8_t want = 0;
        while (ports.slots[at][want].nb == kInvalidNode ||
               dist[ports.slots[at][want].nb] + 1 != dist[at]) {
          ++want;
        }
        ASSERT_EQ(net.route(at, dst), kPortNorth + want)
            << "round " << round << ": " << at << " -> " << dst;
        ASSERT_EQ(net.hops(at, dst), dist[at]);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Arbitration memo: a blocked output replays its last decision until an
// input of that decision changes (DESIGN.md "Arbitration memo"). Each
// case holds one output blocked — arbitrating every cycle without
// granting — and pins the winner on every cycle.
// ---------------------------------------------------------------------

/// Land `p` in input (`in`, VC 0) at cycle `at`, routed to `out`; like a
/// network delivery, its head is there from the next cycle.
void land(Router& r, Packet p, Port in, Port out, Cycle at) {
  p.head_arrival = at + 1;
  p.tail_arrival = at + p.flits;
  r.on_arrival(std::move(p), in, 0, out, at);
}

/// Arbitrate and grant `out` at `now`, then free the channel at once.
void grant_and_free(Router& r, Port out, Cycle now) {
  const auto win = r.arbitrate(out, now);
  ASSERT_TRUE(win.has_value());
  (void)r.grant(*win, out, now);
  r.output(out).active = false;
}

/// Hold `out` blocked over cycles [from, to): arbitrate once per cycle
/// without granting, after `before(cycle)`. Returns the winning input
/// port of every cycle, and checks each round is counted.
std::vector<Port> hold_blocked(
    Router& r, Port out, Cycle from, Cycle to,
    const std::function<void(Cycle)>& before = [](Cycle) {}) {
  std::vector<Port> winners;
  for (Cycle c = from; c < to; ++c) {
    before(c);
    const std::uint64_t rounds = r.stats().arbitration_rounds;
    const auto win = r.arbitrate(out, c);
    EXPECT_EQ(r.stats().arbitration_rounds, rounds + 1) << "cycle " << c;
    winners.push_back(win ? win->port : kPortParked);
  }
  return winners;
}

/// `n1` cycles won by `a`, then `n2` by `b`.
std::vector<Port> runs(Port a, std::size_t n1, Port b, std::size_t n2) {
  std::vector<Port> v(n1, a);
  v.insert(v.end(), n2, b);
  return v;
}

Packet at_bank(PacketId id, BankId bank, RowId row, RW rw = RW::kRead) {
  Packet p = mk(0, 99, 2, id);
  p.loc.bank = bank;
  p.loc.row = row;
  p.rw = rw;
  return p;
}

TEST(ArbitrationMemo, GssPriorityArrivalToTheSameBank) {
  Router r(0, 16, 1, FlowControlKind::kGss,
           GssParams{4, sdram::make_timing(sdram::DdrGeneration::kDdr2,
                                           400.0)});
  land(r, at_bank(1, 1, 10), kPortEast, kPortWest, 0);
  land(r, at_bank(2, 2, 10), kPortNorth, kPortWest, 1);
  Packet prio = at_bank(3, 1, 20);
  prio.svc = ServiceClass::kPriority;
  // East holds the older (more tokens) packet. The priority packet to
  // its bank lands at cycle 20, is eligible from 21 and wins there; the
  // bank exclusion also takes East out of the running.
  const auto winners = hold_blocked(r, kPortWest, 2, 30, [&](Cycle c) {
    if (c == 20) land(r, prio, kPortSouth, kPortWest, c);
  });
  EXPECT_EQ(winners, runs(kPortEast, 19, kPortSouth, 9));
}

TEST(ArbitrationMemo, Ref4StarvationCapFlipsAtHeadArrivalPlus513) {
  Router r(0, 16, 1, FlowControlKind::kSdramAware, {});
  // h(n) = bank 1 row 10.
  land(r, at_bank(1, 1, 10), kPortEast, kPortWest, 0);
  grant_and_free(r, kPortWest, 1);
  // A bank conflict (head at cycle 3) loses to a row hit (head at 101)
  // until it has waited more than the 512-cycle cap.
  land(r, at_bank(2, 1, 20), kPortEast, kPortWest, 2);
  land(r, at_bank(3, 1, 10), kPortNorth, kPortWest, 100);
  const auto winners = hold_blocked(r, kPortWest, 101, 530);
  EXPECT_EQ(winners, runs(kPortNorth, 516 - 101, kPortEast, 530 - 516));
}

TEST(ArbitrationMemo, GssStiBankTurnaroundEnds) {
  const sdram::Timing t =
      sdram::make_timing(sdram::DdrGeneration::kDdr2, 400.0);
  Router r(0, 16, 1, FlowControlKind::kGssSti, GssParams{4, t});
  // A write to bank 2 granted at cycle 1 (8 data beats: 4 bus cycles)
  // keeps bank 2 turning around until 1 + 4 + tWR + tRP; then a read to
  // bank 1 becomes h(n).
  Packet w = at_bank(1, 2, 5, RW::kWrite);
  w.useful_beats = 8;
  land(r, w, kPortEast, kPortWest, 0);
  grant_and_free(r, kPortWest, 1);
  land(r, at_bank(2, 1, 10), kPortEast, kPortWest, 1);
  grant_and_free(r, kPortWest, 2);
  // East (bank 2, two tokens) fails the STI filter while its bank turns
  // around; North (bank 3, one token) passes. Afterwards both pass and
  // East's extra token wins.
  land(r, at_bank(3, 2, 7), kPortEast, kPortWest, 2);
  land(r, at_bank(4, 3, 7), kPortNorth, kPortWest, 3);
  const Cycle ready = 1 + 4 + t.twr + t.trp;
  ASSERT_GT(ready, 5u);
  const auto winners = hold_blocked(r, kPortWest, 4, ready + 10);
  EXPECT_EQ(winners, runs(kPortNorth, ready - 4, kPortEast, 10));
}

TEST(ArbitrationMemo, RoundRobinAlternatesEveryCycle) {
  Router r(0, 16, 1, FlowControlKind::kRoundRobin, {});
  land(r, mk(0, 99, 2, 1), kPortEast, kPortWest, 0);
  land(r, mk(0, 99, 2, 2), kPortNorth, kPortWest, 0);
  const auto winners = hold_blocked(r, kPortWest, 1, 9);
  EXPECT_EQ(winners, (std::vector<Port>{kPortNorth, kPortEast, kPortNorth,
                                        kPortEast, kPortNorth, kPortEast,
                                        kPortNorth, kPortEast}));
}

TEST(ArbitrationMemo, HeadLeavesAThreeStagePipeline) {
  Router r(0, 16, /*pipeline=*/3, FlowControlKind::kPriorityFirst, {});
  land(r, mk(0, 99, 2, 1), kPortEast, kPortWest, 0);  // eligible from 3
  Packet prio = mk(0, 99, 2, 2);
  prio.svc = ServiceClass::kPriority;
  // Lands at 10 (head at 11): eligible from 11 + 3 - 1 = 13.
  const auto winners = hold_blocked(r, kPortWest, 3, 20, [&](Cycle c) {
    if (c == 10) land(r, prio, kPortNorth, kPortWest, c);
  });
  EXPECT_EQ(winners, runs(kPortEast, 10, kPortNorth, 7));
}

TEST(ArbitrationMemo, GrantElsewhereExposesAHeadForTheBlockedOutput) {
  Router r(0, 16, 1, FlowControlKind::kPriorityFirst, {});
  land(r, mk(0, 98, 2, 1), kPortEast, kPortNorth, 0);
  Packet prio = mk(0, 99, 2, 2);
  prio.svc = ServiceClass::kPriority;
  land(r, prio, kPortEast, kPortWest, 1);  // behind the North-bound head
  land(r, mk(0, 99, 2, 3), kPortSouth, kPortWest, 1);
  // Granting North at cycle 10 makes the priority packet East's head.
  const auto winners = hold_blocked(r, kPortWest, 3, 16, [&](Cycle c) {
    if (c == 10) grant_and_free(r, kPortNorth, c);
  });
  EXPECT_EQ(winners, runs(kPortSouth, 7, kPortEast, 6));
}

TEST(ArbitrationMemo, BlockedUpstreamWinnerMovesAfterItsDownstreamPops) {
  // A 1x3 mesh streams 4-flit packets (one fills a 4-flit buffer) from
  // one end to the memory port at the other. The memory sink refuses
  // everything until cycle 40, so every buffer on the way fills and
  // each router's winner blocks on its full downstream input. Pinned:
  // the cycle each router forwards again, with the memory at either
  // end (routers tick in id order, so a pop reaches the upstream router
  // the same cycle or the next).
  const std::pair<NodeId, std::vector<Cycle>> cases[] = {
      {0, {40, 40, 40}},  // memory at node 0: traffic flows 2 -> 0
      {2, {42, 41, 40}},  // memory at node 2: traffic flows 0 -> 2
  };
  for (const auto& [mem, want] : cases) {
    NocConfig c;
    c.width = 3;
    c.height = 1;
    c.mem_node = mem;
    c.buffer_flits = 4;
    Network net(c, {FlowControlKind::kRoundRobin}, {});
    MemSink sink;
    sink.accept_ = false;
    net.attach_sink(&sink);
    const NodeId src = 2 - mem;
    PacketId id = 1;
    std::vector<Cycle> first_move(3, 0);
    for (Cycle t = 0; t < 60; ++t) {
      if (t == 40) sink.accept_ = true;
      if (net.try_inject(mk(src, mem, 4, id), t)) ++id;
      std::uint64_t before[3];
      for (NodeId n = 0; n < 3; ++n) {
        before[n] = net.router(n).stats().packets_forwarded;
      }
      net.tick(t);
      for (NodeId n = 0; n < 3; ++n) {
        if (t >= 40 && first_move[n] == 0 &&
            net.router(n).stats().packets_forwarded > before[n]) {
          first_move[n] = t;
        }
      }
    }
    EXPECT_EQ(first_move, want) << "memory at node " << mem;
    EXPECT_GT(sink.delivered.size(), 3u);
  }
}

TEST(Network, PerRouterKindsApplied) {
  NocConfig c = cfg3x3();
  auto kinds = Network::mixed_kinds(c, 3, FlowControlKind::kGssSti,
                                    FlowControlKind::kPriorityFirst);
  Network net(c, kinds, {});
  EXPECT_EQ(net.router(0).fc_kind(), FlowControlKind::kGssSti);
  EXPECT_EQ(net.router(8).fc_kind(), FlowControlKind::kPriorityFirst);
}

}  // namespace
}  // namespace annoc::noc
