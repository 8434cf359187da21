#include "traffic/generator.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "common/repeated_add.hpp"
#include "traffic/splitter.hpp"

namespace annoc::traffic {

CoreGenerator::CoreGenerator(const GeneratorConfig& cfg,
                             const sdram::AddressMapper& mapper,
                             PacketId& id_source)
    : CoreGenerator(cfg,
                    sdram::MemoryMap(
                        mapper, sdram::ChannelConfig{
                                    1,
                                    sdram::default_interleave_shift(
                                        mapper.boundary_unit()),
                                    {cfg.mem_node}}),
                    id_source) {}

CoreGenerator::CoreGenerator(const GeneratorConfig& cfg,
                             const sdram::MemoryMap& map,
                             PacketId& id_source)
    : cfg_(cfg),
      map_(map),
      id_source_(id_source),
      rng_(cfg.seed ^ (0xa5a5a5a5ULL + cfg.core_id * 0x9e3779b9ULL)) {
  ANNOC_ASSERT(!cfg_.spec.sizes.empty());
  ANNOC_ASSERT(cfg_.spec.region_bytes > 0);
  cursor_ = cfg_.spec.region_base;
  size_weights_.reserve(cfg_.spec.sizes.size());
  for (const SizeMix& m : cfg_.spec.sizes) size_weights_.push_back(m.weight);
  next_size_ = pick_size();
}

std::uint32_t CoreGenerator::pick_size() {
  const CoreSpec& s = cfg_.spec;
  next_is_demand_ = s.demand_fraction > 0.0 && rng_.chance(s.demand_fraction);
  if (next_is_demand_) return s.demand_bytes;
  return s.sizes[rng_.pick_weighted(size_weights_.data(),
                                    size_weights_.size())]
      .bytes;
}

std::uint64_t CoreGenerator::pick_address(std::uint32_t bytes) {
  const CoreSpec& s = cfg_.spec;
  const std::uint64_t align = std::max<std::uint64_t>(cfg_.bus_bytes, 4);

  if (!rng_.chance(s.sequential_fraction)) {
    // Jump somewhere else in the region (aligned). The hotspot pattern
    // concentrates a configurable fraction of jumps on the hot
    // sub-region at the start of the region (row-buffer-friendly
    // contention, the classic NoC hotspot workload).
    std::uint64_t span_bytes = s.region_bytes;
    if (s.pattern == TrafficPattern::kHotspot &&
        rng_.chance(s.hotspot_fraction)) {
      span_bytes = std::min<std::uint64_t>(s.hotspot_bytes, s.region_bytes);
    }
    const std::uint64_t span = std::max<std::uint64_t>(span_bytes / align, 1);
    cursor_ = s.region_base + rng_.next_below(span) * align;
  }
  // Keep the request inside one mapping unit (chunk/row, and channel
  // granule when interleaved): SDRAM bursts never cross rows, a request
  // crossing a chunk would change bank mid-request, and one crossing a
  // granule would need two controllers; real masters split at these
  // boundaries anyway.
  if (map_.bytes_to_boundary(cursor_) < bytes) {
    cursor_ += map_.bytes_to_boundary(cursor_);
  }
  // Wrap at the region end.
  if (cursor_ + bytes > s.region_base + s.region_bytes) {
    cursor_ = s.region_base;
  }
  const std::uint64_t addr = cursor_;
  cursor_ += bytes;
  return addr;
}

void CoreGenerator::emit_request(Cycle now) {
  const CoreSpec& s = cfg_.spec;
  // Masters split their bursts at the interconnect's interleave
  // boundary; a request can never span two banks.
  next_size_ = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      next_size_, map_.boundary_unit()));
  noc::Packet pkt;
  pkt.id = id_source_++;
  pkt.parent_id = pkt.id;
  pkt.src_core = cfg_.core_id;
  pkt.src_node = cfg_.node;
  pkt.rw = rng_.chance(s.read_fraction) ? RW::kRead : RW::kWrite;
  pkt.kind = next_is_demand_
                 ? RequestKind::kDemand
                 : (s.is_mpu ? RequestKind::kPrefetch : RequestKind::kStream);
  pkt.svc = (next_is_demand_ && cfg_.priority_demand)
                ? ServiceClass::kPriority
                : ServiceClass::kBestEffort;
  pkt.useful_bytes = next_size_;
  pkt.byte_addr = pick_address(next_size_);
  // The interleave picks the serving controller per address.
  pkt.dst_node = map_.node_of(pkt.byte_addr);
  pkt.useful_beats =
      (pkt.useful_bytes + cfg_.bus_bytes - 1) / cfg_.bus_bytes;
  pkt.flits = noc::Packet::flits_for_beats(pkt.useful_beats);
  pkt.loc = map_.map(pkt.byte_addr);
  pkt.created = now;

  ++stats_.requests_generated;
  stats_.bytes_requested += pkt.useful_bytes;
  ++outstanding_;

  if (cfg_.split_beats > 0) {
    std::vector<noc::Packet> subs = split_packet(
        pkt, cfg_.split_beats, cfg_.bus_bytes, map_, id_source_);
    if (cfg_.on_request) {
      cfg_.on_request(pkt, static_cast<std::uint32_t>(subs.size()));
    }
    for (noc::Packet& sub : subs) backlog_.push_back(std::move(sub));
  } else {
    if (cfg_.on_request) cfg_.on_request(pkt, 1);
    backlog_.push_back(std::move(pkt));
  }
  next_size_ = pick_size();
}

void CoreGenerator::tick(Cycle now, noc::Network& net) {
  const CoreSpec& s = cfg_.spec;
  // Catch up the cycles a skipping scheduler jumped since the last
  // executed tick. During a gap the emission state cannot change (no
  // completions, no emissions — the next_event horizon never jumps past
  // the credit-crossing cycle), so every skipped cycle with the pattern
  // gate open accrued credit exactly as a dense tick would, and
  // repeated_add gives the result of those additions bit for bit. The
  // closed-loop cap is a provable no-op mid-accrual (credit < next_size
  // <= 2*next_size).
  if (accruing_ && last_tick_ != kNeverCycle && now - last_tick_ > 1) {
    credit_ = repeated_add(credit_, s.bytes_per_cycle,
                           open_cycles_before(s, now) -
                               open_cycles_before(s, last_tick_ + 1));
  }
  last_tick_ = now;
  // Open-loop cores accrue credit unconditionally (their rate is a
  // real-time requirement); closed-loop cores stop while their
  // outstanding window is full. Bursty/frame patterns additionally
  // gate on their cycle-periodic window.
  const bool may_emit = emitting_ &&
                        (s.open_loop || outstanding_ < s.max_outstanding) &&
                        pattern_gate_open(s, now);
  if (may_emit) {
    credit_ += s.bytes_per_cycle;
    while (credit_ >= static_cast<double>(next_size_) &&
           (s.open_loop || outstanding_ < s.max_outstanding)) {
      credit_ -= static_cast<double>(next_size_);
      emit_request(now);
    }
    if (!s.open_loop) {
      // Credit never banks more than one maximal request ahead, so an
      // idle period does not produce a thundering burst later.
      credit_ = std::min(credit_, 2.0 * static_cast<double>(next_size_));
    }
  }
  accruing_ = emitting_ && (s.open_loop || outstanding_ < s.max_outstanding);

  // Injection: one packet at a time over the core link. try_inject
  // consumes the packet only on success.
  if (backlog_.empty() || now < link_free_at_) return;
  const std::uint32_t flits = backlog_.front().flits;
  if (net.try_inject(std::move(backlog_.front()), now)) {
    backlog_.pop_front();
    link_free_at_ = now + flits;
    ++stats_.packets_injected;
  } else {
    ++stats_.inject_stalls;
  }
}

Cycle CoreGenerator::next_event(Cycle now) const {
  Cycle h = kNeverCycle;
  if (!backlog_.empty()) h = std::min(h, std::max(link_free_at_, now));
  const CoreSpec& s = cfg_.spec;
  if (accruing_ && emitting_ && s.bytes_per_cycle > 0.0) {
    if (!pattern_gate_open(s, now)) {
      // Gated off: nothing accrues or emits before the gate reopens.
      h = std::min(h, pattern_next_open(s, now));
      return h;
    }
    // Lower bound on the cycle the accrued credit reaches next_size_.
    // The margin absorbs the rounding drift of the per-cycle additions
    // the catch-up reproduces; under-estimating only costs a few dense
    // steps near the crossing, over-estimating would skip an emission.
    // For gated patterns the estimate assumes the gate stays open — a
    // further under-estimate, still safe.
    const double steps =
        (static_cast<double>(next_size_) - credit_) / s.bytes_per_cycle;
    // A tiny rate can put the estimate past every representable cycle,
    // so it is clamped before the cast (converting it would be
    // undefined) and added without wrapping; both clamps keep it a
    // lower bound.
    constexpr Cycle kFar = Cycle{1} << 62;
    Cycle k = 1;
    if (steps > 2.0) {
      const double est = steps * (1.0 - 1e-6);
      k = est < static_cast<double>(kFar) ? static_cast<Cycle>(est) - 1
                                          : kFar;
    }
    const Cycle from = last_tick_ == kNeverCycle ? now : last_tick_;
    const Cycle at = k < kNeverCycle - from ? from + k : kNeverCycle;
    h = std::min(h, std::max(at, now));
  }
  return h;
}

}  // namespace annoc::traffic
