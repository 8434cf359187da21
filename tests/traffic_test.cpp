/// Tests for the traffic layer: SAGM splitter, core generators, the
/// closed-form credit catch-up and the three application models.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <set>

#include "common/repeated_add.hpp"
#include "common/rng.hpp"
#include "noc/network.hpp"
#include "traffic/application.hpp"
#include "traffic/generator.hpp"
#include "traffic/splitter.hpp"

namespace annoc::traffic {
namespace {

sdram::Geometry geom() { return sdram::default_geometry(sdram::DdrGeneration::kDdr2); }

noc::Packet base_request(std::uint32_t bytes, std::uint64_t addr,
                         const sdram::AddressMapper& m) {
  noc::Packet p;
  p.id = 1000;
  p.parent_id = 1000;
  p.useful_bytes = bytes;
  p.useful_beats = (bytes + 3) / 4;
  p.flits = noc::Packet::flits_for_beats(p.useful_beats);
  p.byte_addr = addr;
  p.loc = m.map(addr);
  return p;
}

TEST(Splitter, ExactMultipleSplitsEvenly) {
  sdram::AddressMapper m(geom());
  PacketId next = 1;
  const auto subs = split_packet(base_request(64, 0, m), 4, 4, m, next);
  ASSERT_EQ(subs.size(), 4u);  // 64 B = 16 beats = 4 x 4-beat subpackets
  for (const auto& s : subs) {
    EXPECT_EQ(s.useful_beats, 4u);
    EXPECT_EQ(s.parent_id, 1000u);
    EXPECT_TRUE(s.is_split);
  }
}

TEST(Splitter, RemainderGoesToLastSubpacket) {
  sdram::AddressMapper m(geom());
  PacketId next = 1;
  // 9 beats = 36 bytes: 4+4+1 beats (the paper's "BL 9 -> 2,2,2,2,1"
  // example at DDR I/II cycle granularity).
  const auto subs = split_packet(base_request(36, 0, m), 4, 4, m, next);
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_EQ(subs[0].useful_beats, 4u);
  EXPECT_EQ(subs[1].useful_beats, 4u);
  EXPECT_EQ(subs[2].useful_beats, 1u);
}

TEST(Splitter, OnlyLastOfSplitCarriesApTag) {
  sdram::AddressMapper m(geom());
  PacketId next = 1;
  const auto subs = split_packet(base_request(48, 0, m), 4, 4, m, next);
  ASSERT_EQ(subs.size(), 3u);
  EXPECT_FALSE(subs[0].ap_tag);
  EXPECT_FALSE(subs[1].ap_tag);
  EXPECT_TRUE(subs[2].ap_tag);
}

TEST(Splitter, UnsplitRequestStillCarriesApTag) {
  sdram::AddressMapper m(geom());
  PacketId next = 1;
  const auto subs = split_packet(base_request(16, 0, m), 4, 4, m, next);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_TRUE(subs[0].ap_tag)
      << "a request that fits one subpacket is its own last subpacket";
}

TEST(Splitter, ExactMultipleHasNoEmptyTrailingSubpacket) {
  sdram::AddressMapper m(geom());
  PacketId next = 1;
  // 32 B = 8 beats = exactly 2 x 4-beat subpackets; a buggy splitter
  // would emit a third zero-byte subpacket (or tag the wrong one).
  const auto subs = split_packet(base_request(32, 0, m), 4, 4, m, next);
  ASSERT_EQ(subs.size(), 2u);
  for (const auto& s : subs) {
    EXPECT_EQ(s.useful_beats, 4u);
    EXPECT_GT(s.useful_bytes, 0u);
  }
  EXPECT_FALSE(subs[0].ap_tag);
  EXPECT_TRUE(subs[1].ap_tag);
}

TEST(Splitter, GranularityLargerThanRequest) {
  sdram::AddressMapper m(geom());
  PacketId next = 1;
  // 8 B = 2 beats, granularity 8 beats: one subpacket carrying the whole
  // request, AP-tagged, with flits sized from its actual beats.
  const auto subs = split_packet(base_request(8, 0, m), 8, 4, m, next);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0].useful_bytes, 8u);
  EXPECT_EQ(subs[0].useful_beats, 2u);
  EXPECT_EQ(subs[0].flits, 1u);
  EXPECT_TRUE(subs[0].is_split);
  EXPECT_TRUE(subs[0].ap_tag);
}

TEST(Splitter, AddressesAdvanceContiguously) {
  sdram::AddressMapper m(geom());
  PacketId next = 1;
  const auto subs = split_packet(base_request(64, 256, m), 4, 4, m, next);
  std::uint64_t addr = 256;
  for (const auto& s : subs) {
    EXPECT_EQ(s.byte_addr, addr);
    addr += s.useful_bytes;
  }
}

TEST(Splitter, SubpacketsShareBankAndRow) {
  sdram::AddressMapper m(geom());
  PacketId next = 1;
  const auto subs = split_packet(base_request(128, 512, m), 4, 4, m, next);
  for (const auto& s : subs) {
    EXPECT_EQ(s.loc.bank, subs[0].loc.bank);
    EXPECT_EQ(s.loc.row, subs[0].loc.row);
  }
}

TEST(Splitter, FreshIdsForEverySubpacket) {
  sdram::AddressMapper m(geom());
  PacketId next = 50;
  const auto subs = split_packet(base_request(64, 0, m), 4, 4, m, next);
  std::set<PacketId> ids;
  for (const auto& s : subs) ids.insert(s.id);
  EXPECT_EQ(ids.size(), subs.size());
  EXPECT_EQ(next, 50 + subs.size());
}

TEST(Splitter, FlitsMatchBeats) {
  sdram::AddressMapper m(geom());
  PacketId next = 1;
  const auto subs = split_packet(base_request(36, 0, m), 4, 4, m, next);
  EXPECT_EQ(subs[0].flits, 2u);  // 4 beats -> 2 flits
  EXPECT_EQ(subs[2].flits, 1u);  // 1 beat -> 1 flit
}

TEST(Splitter, Ddr3GranularityEight) {
  sdram::AddressMapper m(geom());
  PacketId next = 1;
  const auto subs = split_packet(base_request(64, 0, m), 8, 4, m, next);
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].useful_beats, 8u);
}

// ---------------------------------------------------------------------

class GeneratorTest : public ::testing::Test {
 protected:
  GeneratorConfig make_cfg() {
    GeneratorConfig gc;
    gc.spec.name = "test";
    gc.spec.bytes_per_cycle = 1.0;
    gc.spec.sizes = {{32, 1.0}};
    gc.spec.max_outstanding = 4;
    gc.spec.region_base = 0;
    gc.spec.region_bytes = 1u << 20;
    gc.core_id = 0;
    gc.node = 1;
    gc.mem_node = 0;
    gc.bus_bytes = 4;
    gc.seed = 7;
    return gc;
  }

  noc::NocConfig noc_cfg() {
    noc::NocConfig c;
    c.width = 2;
    c.height = 2;
    c.mem_node = 0;
    return c;
  }
};

class CountingSink final : public noc::PacketSink {
 public:
  bool can_accept(const noc::Packet&) const override { return true; }
  void deliver(noc::Packet&& p, Cycle) override {
    packets.push_back(std::move(p));
  }
  std::vector<noc::Packet> packets;
};

TEST_F(GeneratorTest, DeterministicForSameSeed) {
  sdram::AddressMapper m(geom());
  for (int run = 0; run < 2; ++run) {
    PacketId id = 1;
    std::vector<noc::Packet> emitted;
    GeneratorConfig gc = make_cfg();
    gc.on_request = [&](const noc::Packet& p, std::uint32_t) {
      emitted.push_back(p);
    };
    noc::Network net(noc_cfg(), {noc::FlowControlKind::kRoundRobin}, {});
    CountingSink sink;
    net.attach_sink(&sink);
    CoreGenerator gen(gc, m, id);
    for (Cycle t = 0; t < 500; ++t) {
      gen.tick(t, net);
      net.tick(t);
    }
    static std::vector<noc::Packet> first;
    if (run == 0) {
      first = emitted;
    } else {
      ASSERT_EQ(first.size(), emitted.size());
      for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].byte_addr, emitted[i].byte_addr);
        EXPECT_EQ(first[i].rw, emitted[i].rw);
        EXPECT_EQ(first[i].useful_bytes, emitted[i].useful_bytes);
      }
    }
  }
}

TEST_F(GeneratorTest, ClosedLoopStopsAtWindow) {
  sdram::AddressMapper m(geom());
  PacketId id = 1;
  GeneratorConfig gc = make_cfg();
  gc.spec.max_outstanding = 3;
  noc::Network net(noc_cfg(), {noc::FlowControlKind::kRoundRobin}, {});
  CountingSink sink;
  net.attach_sink(&sink);
  CoreGenerator gen(gc, m, id);
  for (Cycle t = 0; t < 1000; ++t) {
    gen.tick(t, net);
    net.tick(t);
  }
  // Nothing ever completes, so at most max_outstanding requests emit.
  EXPECT_EQ(gen.outstanding(), 3u);
  EXPECT_EQ(gen.stats().requests_generated, 3u);
  gen.on_parent_completed();
  for (Cycle t = 1000; t < 2000; ++t) {
    gen.tick(t, net);
    net.tick(t);
  }
  EXPECT_EQ(gen.stats().requests_generated, 4u);
}

TEST_F(GeneratorTest, OpenLoopKeepsEmitting) {
  sdram::AddressMapper m(geom());
  PacketId id = 1;
  GeneratorConfig gc = make_cfg();
  gc.spec.open_loop = true;
  gc.spec.max_outstanding = 1;
  noc::Network net(noc_cfg(), {noc::FlowControlKind::kRoundRobin}, {});
  CountingSink sink;
  net.attach_sink(&sink);
  CoreGenerator gen(gc, m, id);
  for (Cycle t = 0; t < 640; ++t) {
    gen.tick(t, net);
    net.tick(t);
  }
  // 1 B/cycle over 640 cycles at 32 B per request = ~20 requests.
  EXPECT_NEAR(static_cast<double>(gen.stats().requests_generated), 20.0, 2.0);
}

TEST_F(GeneratorTest, AchievedRateTracksOffered) {
  sdram::AddressMapper m(geom());
  PacketId id = 1;
  GeneratorConfig gc = make_cfg();
  gc.spec.bytes_per_cycle = 0.5;
  noc::Network net(noc_cfg(), {noc::FlowControlKind::kRoundRobin}, {});
  CountingSink sink;
  net.attach_sink(&sink);
  CoreGenerator gen(gc, m, id);
  // Immediately complete everything the sink sees: unconstrained flow.
  Cycle t = 0;
  std::size_t completed = 0;
  for (; t < 4000; ++t) {
    gen.tick(t, net);
    net.tick(t);
    for (auto& p : sink.packets) {
      (void)p;
      gen.on_parent_completed();
      ++completed;
    }
    sink.packets.clear();
  }
  const double achieved =
      static_cast<double>(gen.stats().bytes_requested) / static_cast<double>(t);
  EXPECT_NEAR(achieved, 0.5, 0.05);
}

TEST_F(GeneratorTest, RequestsNeverStraddleChunk) {
  sdram::AddressMapper m(geom());
  PacketId id = 1;
  GeneratorConfig gc = make_cfg();
  gc.spec.sizes = {{256, 1.0}};
  gc.spec.sequential_fraction = 0.5;
  std::vector<noc::Packet> emitted;
  gc.on_request = [&](const noc::Packet& p, std::uint32_t) {
    emitted.push_back(p);
  };
  noc::Network net(noc_cfg(), {noc::FlowControlKind::kRoundRobin}, {});
  CountingSink sink;
  net.attach_sink(&sink);
  CoreGenerator gen(gc, m, id);
  for (Cycle t = 0; t < 3000; ++t) {
    gen.tick(t, net);
    net.tick(t);
    for (auto& p : sink.packets) {
      (void)p;
      gen.on_parent_completed();
    }
    sink.packets.clear();
  }
  ASSERT_GT(emitted.size(), 3u);
  for (const auto& p : emitted) {
    const auto first = m.map(p.byte_addr);
    const auto last = m.map(p.byte_addr + p.useful_bytes - 1);
    EXPECT_EQ(first.bank, last.bank);
    EXPECT_EQ(first.row, last.row);
  }
}

TEST_F(GeneratorTest, MpuEmitsDemandAndPrefetch) {
  sdram::AddressMapper m(geom());
  PacketId id = 1;
  GeneratorConfig gc = make_cfg();
  gc.spec.is_mpu = true;
  gc.spec.demand_fraction = 0.5;
  gc.spec.demand_bytes = 32;
  gc.spec.sizes = {{64, 1.0}};
  gc.spec.max_outstanding = 100;
  gc.priority_demand = true;
  int demand = 0, prefetch = 0, priority = 0;
  gc.on_request = [&](const noc::Packet& p, std::uint32_t) {
    if (p.kind == RequestKind::kDemand) ++demand;
    if (p.kind == RequestKind::kPrefetch) ++prefetch;
    if (p.is_priority()) ++priority;
  };
  noc::Network net(noc_cfg(), {noc::FlowControlKind::kRoundRobin}, {});
  CountingSink sink;
  net.attach_sink(&sink);
  CoreGenerator gen(gc, m, id);
  for (Cycle t = 0; t < 4000; ++t) {
    gen.tick(t, net);
    net.tick(t);
    for (auto& p : sink.packets) {
      (void)p;
      gen.on_parent_completed();
    }
    sink.packets.clear();
  }
  EXPECT_GT(demand, 10);
  EXPECT_GT(prefetch, 10);
  EXPECT_EQ(priority, demand) << "all and only demand requests are priority";
}

TEST_F(GeneratorTest, SplitModeEmitsTaggedTrains) {
  sdram::AddressMapper m(geom());
  PacketId id = 1;
  GeneratorConfig gc = make_cfg();
  gc.spec.sizes = {{64, 1.0}};
  gc.split_beats = 4;
  std::uint32_t last_subs = 0;
  gc.on_request = [&](const noc::Packet&, std::uint32_t subs) {
    last_subs = subs;
  };
  noc::Network net(noc_cfg(), {noc::FlowControlKind::kRoundRobin}, {});
  CountingSink sink;
  net.attach_sink(&sink);
  CoreGenerator gen(gc, m, id);
  for (Cycle t = 0; t < 300; ++t) {
    gen.tick(t, net);
    net.tick(t);
  }
  EXPECT_EQ(last_subs, 4u);  // 64 B = 16 beats = 4 subpackets
  ASSERT_GE(sink.packets.size(), 4u);
  EXPECT_FALSE(sink.packets[0].ap_tag);
  EXPECT_TRUE(sink.packets[3].ap_tag);
}

// ---------------------------------------------------------------------
// Closed-form credit catch-up. The per-cycle loops the generator used
// to run over a skipped gap are the references.
// ---------------------------------------------------------------------

double add_loop(double x, double b, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) x += b;
  return x;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// 1.m · 2^exp with a random 52-bit fraction whose lowest `clear` bits
/// are zero. A fraction ending in a 1 followed by t zeros makes b/ulp
/// end in exactly .5 in the binade t + 1 above b's: a tie.
double random_mantissa(Rng& rng, int exp, int clear) {
  const std::uint64_t frac = (rng.next_u64() >> 12) >> clear << clear;
  return std::ldexp(1.0 + static_cast<double>(frac) * 0x1p-52, exp);
}

void expect_matches_loop(double x, double b, std::uint64_t n) {
  const double want = add_loop(x, b, n);
  const double got = repeated_add(x, b, n);
  EXPECT_TRUE(same_bits(got, want))
      << std::hexfloat << "x=" << x << " b=" << b << " n=" << n
      << ": got " << got << ", loop " << want;
}

TEST(RepeatedAdd, MatchesLoopBitwiseOnRandomDraws) {
  Rng rng(0xc0ffee);
  for (int i = 0; i < 100000; ++i) {
    double x = 0.0;
    switch (rng.next_below(5)) {
      case 0:
        break;  // x = 0
      case 1:   // just below a power of two: the first step crosses
        x = std::nextafter(
            std::ldexp(1.0, static_cast<int>(rng.next_below(41)) - 20), 0.0);
        break;
      case 2:  // generator-like credit
        x = 512.0 * rng.next_double();
        break;
      case 3:
        x = random_mantissa(rng, static_cast<int>(rng.next_below(101)) - 60,
                            static_cast<int>(rng.next_below(53)));
        break;
      default:  // subnormal
        x = std::bit_cast<double>(rng.next_u64() >> 12);
        break;
    }
    double b = 0.0;
    switch (rng.next_below(7)) {
      case 0:
        b = 0.01;
        break;
      case 1:
        b = 1.0;
        break;
      case 2:
        b = 1.0 / 3.0;
        break;
      case 3:  // full random mantissa: ties just above b's binade
        b = random_mantissa(rng, static_cast<int>(rng.next_below(45)) - 40, 0);
        break;
      case 4:  // short mantissa: ties further up
        b = random_mantissa(rng, static_cast<int>(rng.next_below(45)) - 40,
                            static_cast<int>(rng.next_below(53)));
        break;
      case 5:  // subnormal rate
        b = std::bit_cast<double>(1 + (rng.next_u64() >> 12));
        break;
      default:
        break;  // b = 0
    }
    // Mostly short gaps, one in a thousand up to 10^6 cycles.
    const std::uint64_t n =
        rng.next_below(1000) == 0
            ? rng.next_below(1000001)
            : rng.next_below(std::uint64_t{1} << rng.next_below(12));
    expect_matches_loop(x, b, n);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(RepeatedAdd, MatchesLoopOnLongGapsAndTies) {
  const double subnormal_min = std::bit_cast<double>(std::uint64_t{1});
  for (const double b : {0.01, 1.0, 1.0 / 3.0, subnormal_min, 1e-20}) {
    expect_matches_loop(0.0, b, 1000000);
    expect_matches_loop(std::nextafter(64.0, 0.0), b, 1000000);
  }
  // In [1, 2) the ulp u is 2^-52. b = 2.5u and 3.5u tie on every step,
  // from an even X (x = 1) and an odd one (x = 1 + u); b = 0.5u rounds
  // to even, so x = 1 stays put and x = 1 + u moves once.
  const double u = 0x1p-52;
  for (const double b : {2.5 * u, 3.5 * u, 0.5 * u}) {
    for (const double x : {1.0, 1.0 + u}) expect_matches_loop(x, b, 100000);
  }
}

TEST(OpenCyclesBefore, MatchesBruteForceGateCount) {
  std::vector<CoreSpec> specs(2);
  specs[1].pattern = TrafficPattern::kHotspot;
  const std::pair<Cycle, Cycle> bursts[] = {{0, 0}, {0, 5},   {5, 0},
                                            {3, 7}, {1, 1},   {400, 1200}};
  for (const auto& [on, off] : bursts) {
    CoreSpec& s = specs.emplace_back();
    s.pattern = TrafficPattern::kBursty;
    s.burst_on_cycles = on;
    s.burst_off_cycles = off;
  }
  // Fractions 0 and 1, active windows of 2.1 and 123.4 cycles, and a
  // fraction above 1 (no scenario loads it; the struct allows it).
  const std::pair<Cycle, double> frames[] = {
      {0, 0.5}, {10, 0.0}, {10, 1.0}, {7, 0.3}, {1000, 0.1234}, {10, 1.5}};
  for (const auto& [period, fraction] : frames) {
    CoreSpec& s = specs.emplace_back();
    s.pattern = TrafficPattern::kFramePeriodic;
    s.frame_period = period;
    s.frame_active_fraction = fraction;
  }
  for (const CoreSpec& s : specs) {
    // From cycle 0, and from far out where the periods no longer align.
    for (const Cycle base : {Cycle{0}, (Cycle{1} << 40) + 12345}) {
      const Cycle at_base = open_cycles_before(s, base);
      Cycle open = 0;
      for (Cycle c = base; c <= base + 5000; ++c) {
        ASSERT_EQ(open_cycles_before(s, c) - at_base, open)
            << to_string(s.pattern) << " on=" << s.burst_on_cycles
            << " off=" << s.burst_off_cycles << " period=" << s.frame_period
            << " fraction=" << s.frame_active_fraction << " c=" << c;
        open += pattern_gate_open(s, c) ? 1 : 0;
      }
    }
  }
}

// ---------------------------------------------------------------------

class ApplicationModels : public ::testing::TestWithParam<AppId> {};

TEST_P(ApplicationModels, WellFormed) {
  const Application app = build_application(GetParam());
  const std::size_t n =
      static_cast<std::size_t>(app.noc.width) * app.noc.height;
  EXPECT_EQ(app.cores.size(), n);

  // Every node hosts exactly one core.
  std::set<NodeId> nodes;
  for (const auto& c : app.cores) nodes.insert(c.node);
  EXPECT_EQ(nodes.size(), n);

  // Regions are disjoint.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> regions;
  for (const auto& c : app.cores) {
    regions.emplace_back(c.spec.region_base,
                         c.spec.region_base + c.spec.region_bytes);
  }
  for (std::size_t i = 0; i < regions.size(); ++i) {
    for (std::size_t j = i + 1; j < regions.size(); ++j) {
      const bool overlap = regions[i].first < regions[j].second &&
                           regions[j].first < regions[i].second;
      EXPECT_FALSE(overlap) << "regions " << i << " and " << j;
    }
  }

  // Offered load is positive and saturating-ish (the paper's systems
  // run near the memory bound).
  EXPECT_GT(app.offered_bytes_per_cycle(), 3.0);
  EXPECT_LT(app.offered_bytes_per_cycle(), 16.0);

  // Exactly one MPU.
  int mpus = 0;
  for (const auto& c : app.cores) mpus += c.spec.is_mpu ? 1 : 0;
  EXPECT_EQ(mpus, 1);
}

TEST_P(ApplicationModels, HeavyCoresPlacedNearMemory) {
  const Application app = build_application(GetParam());
  const auto dist = [&](NodeId id) {
    const auto x = id % app.noc.width, y = id / app.noc.width;
    return x + y;  // memory at (0,0)
  };
  // The single heaviest stream core sits within 2 hops of the corner.
  double max_rate = 0;
  NodeId heavy_node = 0;
  for (const auto& c : app.cores) {
    if (c.spec.bytes_per_cycle > max_rate) {
      max_rate = c.spec.bytes_per_cycle;
      heavy_node = c.node;
    }
  }
  EXPECT_LE(dist(heavy_node), 2u);
}

INSTANTIATE_TEST_SUITE_P(AllApps, ApplicationModels,
                         ::testing::Values(AppId::kBluray, AppId::kSingleDtv,
                                           AppId::kDualDtv));

TEST(ApplicationModels, MeshSizesMatchPaper) {
  EXPECT_EQ(build_application(AppId::kBluray).noc.width, 3u);
  EXPECT_EQ(build_application(AppId::kSingleDtv).noc.width, 3u);
  EXPECT_EQ(build_application(AppId::kDualDtv).noc.width, 4u);
  EXPECT_EQ(build_application(AppId::kDualDtv).cores.size(), 16u);
}

}  // namespace
}  // namespace annoc::traffic
