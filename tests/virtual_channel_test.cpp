/// Tests for virtual-channel flow control (num_vcs > 1).
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "core/simulator.hpp"
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
  return p;
}

TEST(VirtualChannels, RouterAllocatesPerVcBuffers) {
  Router r(0, 8, 1, FlowControlKind::kRoundRobin, {}, /*num_vcs=*/4);
  EXPECT_EQ(r.num_vcs(), 4u);
  EXPECT_EQ(r.free_flits(kPortEast), 32u);
  Packet p = mk(0, 99, 8);
  r.on_arrival(std::move(p), kPortEast, 2, kPortWest, 0);
  EXPECT_EQ(r.input(kPortEast, 2).size(), 1u);
  EXPECT_EQ(r.input(kPortEast, 0).size(), 0u);
  EXPECT_EQ(r.free_flits(kPortEast), 24u);
}

TEST(VirtualChannels, FindVcKeyedByFlow) {
  Router r(0, 8, 1, FlowControlKind::kRoundRobin, {}, 3);
  Packet a = mk(0, 99, 4, 1);
  a.src_core = 4;  // 4 % 3 == 1
  const auto vc = r.find_vc(kPortEast, a);
  ASSERT_TRUE(vc.has_value());
  EXPECT_EQ(*vc, 1u);
  Packet b = mk(0, 99, 4, 2);
  b.src_core = 6;  // 6 % 3 == 0
  const auto vc_b = r.find_vc(kPortEast, b);
  ASSERT_TRUE(vc_b.has_value());
  EXPECT_EQ(*vc_b, 0u);
}

TEST(VirtualChannels, FindVcFailsWhenFlowVcFull) {
  Router r(0, 4, 1, FlowControlKind::kRoundRobin, {}, 2);
  Packet filler = mk(0, 99, 4, 1);
  filler.src_core = 0;  // VC 0
  r.on_arrival(std::move(filler), kPortEast, 0, kPortWest, 0);
  Packet same_flow = mk(0, 99, 4, 2);
  same_flow.src_core = 2;  // also VC 0
  EXPECT_FALSE(r.find_vc(kPortEast, same_flow).has_value())
      << "a full flow VC blocks (order preservation), even if VC 1 is free";
  Packet other_flow = mk(0, 99, 4, 3);
  other_flow.src_core = 1;  // VC 1
  EXPECT_TRUE(r.find_vc(kPortEast, other_flow).has_value());
}

TEST(VirtualChannels, RelieveHeadOfLineBlocking) {
  // With one VC, a head packet routed to a blocked output stops a
  // packet behind it that wants a free output; with two VCs in separate
  // buffers, the second proceeds.
  for (const std::uint32_t vcs : {1u, 2u}) {
    Router r(0, 8, 1, FlowControlKind::kRoundRobin, {}, vcs);
    Packet a = mk(0, 99, 2, 1);
    a.head_arrival = 1;
    a.tail_arrival = 2;
    Packet b = mk(0, 98, 2, 2);
    b.src_core = 1;  // different flow -> different VC when vcs > 1
    b.head_arrival = 2;
    b.tail_arrival = 3;
    r.on_arrival(std::move(a), kPortEast, 0, kPortWest, 1);
    r.on_arrival(std::move(b), kPortEast, vcs > 1 ? 1 : 0, kPortNorth, 2);
    const auto north = r.arbitrate(kPortNorth, 10);
    if (vcs == 1) {
      EXPECT_FALSE(north.has_value()) << "wormhole: HOL blocks North";
    } else {
      ASSERT_TRUE(north.has_value()) << "VC: North proceeds";
      EXPECT_EQ(north->vc, 1u);
    }
  }
}

TEST(VirtualChannels, RoundRobinSharesFairlyAtEveryVcCount) {
  // Round-robin rotates over candidate slots in_port x num_vcs + vc. A
  // rotation narrower than the slot count aliases slots: at 16 VCs the
  // west port's VC 1 (slot 65) collided with the local port's (slot 1)
  // in a 64-slot rotation and lost every tie.
  for (const std::uint32_t vcs : {1u, 2u, 10u, 11u, 13u, 16u}) {
    const std::uint32_t vc = 1 % vcs;
    Router r(0, 16, 1, FlowControlKind::kRoundRobin, {}, vcs);
    for (PacketId i = 0; i < 8; ++i) {
      for (const Port in : {kPortLocal, kPortWest}) {
        Packet p = mk(0, 0, 1, 2 * i + (in == kPortWest ? 1 : 0));
        p.head_arrival = 1;
        p.tail_arrival = 1;
        r.on_arrival(std::move(p), in, vc, kPortMem, 0);
      }
    }
    std::map<Port, int> grants;
    for (Cycle t = 1; t <= 8; ++t) {
      const auto win = r.arbitrate(kPortMem, t);
      ASSERT_TRUE(win.has_value());
      EXPECT_EQ(win->vc, vc);
      ++grants[win->port];
      (void)r.grant(*win, kPortMem, t);
      r.output(kPortMem).active = false;
    }
    EXPECT_EQ(grants[kPortLocal], 4) << vcs << " VCs";
    EXPECT_EQ(grants[kPortWest], 4) << vcs << " VCs";
  }
}

TEST(VirtualChannels, NetworkConservationWithVcs) {
  NocConfig c;
  c.width = 3;
  c.height = 3;
  c.mem_node = 0;
  c.buffer_flits = 8;
  c.num_vcs = 3;
  Network net(c, {FlowControlKind::kGss},
              GssParams{4, sdram::make_timing(sdram::DdrGeneration::kDdr2,
                                              400.0)});
  class Sink final : public PacketSink {
   public:
    bool can_accept(const Packet&) const override { return true; }
    void deliver(Packet&& p, Cycle) override { ++seen[p.id]; }
    std::map<PacketId, int> seen;
  } sink;
  net.attach_sink(&sink);
  Rng rng(11);
  PacketId id = 1;
  std::size_t injected = 0;
  for (Cycle t = 0; t < 4000; ++t) {
    if (rng.chance(0.6)) {
      Packet p = mk(static_cast<NodeId>(rng.next_below(9)), 0,
                    static_cast<std::uint32_t>(1 + rng.next_below(12)), id);
      p.loc.bank = static_cast<BankId>(rng.next_below(8));
      if (net.try_inject(std::move(p), t)) {
        ++id;
        ++injected;
      }
    }
    net.tick(t);
  }
  for (Cycle t = 4000; t < 20000 && net.in_flight_packets() > 0; ++t) {
    net.tick(t);
  }
  EXPECT_EQ(net.in_flight_packets(), 0u);
  EXPECT_EQ(sink.seen.size(), injected);
  for (const auto& [pid, n] : sink.seen) EXPECT_EQ(n, 1) << pid;
}

TEST(VirtualChannels, FullSimulationRunsAndHelpsOrMatches) {
  core::SystemConfig cfg;
  cfg.design = core::DesignPoint::kGss;
  cfg.app = traffic::AppId::kSingleDtv;
  cfg.generation = sdram::DdrGeneration::kDdr2;
  cfg.clock_mhz = 333.0;
  cfg.priority_enabled = true;
  cfg.sim_cycles = 12000;
  cfg.warmup_cycles = 3000;
  const core::Metrics wormhole = core::run_simulation(cfg);
  cfg.num_vcs = 2;
  const core::Metrics vc = core::run_simulation(cfg);
  EXPECT_GT(vc.completed_requests, 100u);
  // VCs add buffering and remove HOL blocking; utilization must not
  // regress meaningfully.
  EXPECT_GE(vc.utilization, wormhole.utilization - 0.03);
}

}  // namespace
}  // namespace annoc::noc
