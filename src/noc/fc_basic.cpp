/// \file fc_basic.cpp
/// The three baseline flow controllers: round-robin (CONV),
/// priority-first (PFS add-on), and the SDRAM-aware controller of [4]
/// (Jang & Pan, DAC'09).
#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/assert.hpp"
#include "noc/fc_gss.hpp"
#include "noc/flow_controller.hpp"

namespace annoc::noc {
namespace {

/// Conventional router arbitration: rotate over input slots (port ×
/// virtual channel). The pointer advances on every select, so all
/// inputs share the channel fairly regardless of packet contents.
class RoundRobinFc final : public FlowController {
 public:
  explicit RoundRobinFc(std::uint32_t num_slots)
      : slots_(num_slots), last_port_(num_slots - 1) {
    ANNOC_ASSERT(num_slots > 0);
  }

  std::optional<std::size_t> select(const std::vector<Candidate>& candidates,
                                    const std::vector<Packet*>& waiting,
                                    Cycle now) override {
    (void)waiting;
    (void)now;
    ANNOC_ASSERT(!candidates.empty());
    // Pick the candidate whose slot is the first one strictly after the
    // last winner's slot in cyclic order.
    std::size_t best = 0;
    std::uint32_t best_dist = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const std::uint32_t p = candidates[i].port;
      ANNOC_ASSERT_MSG(p < slots_, "candidate slot outside the rotation");
      const std::uint32_t dist = (p + slots_ - 1 - last_port_) % slots_;
      if (dist < best_dist) {
        best_dist = dist;
        best = i;
      }
    }
    last_port_ = candidates[best].port;
    return best;
  }

  /// The pointer moves on every select, so only a lone candidate is
  /// chosen again.
  Cycle stable_until(const std::vector<Candidate>& candidates,
                     Cycle now) const override {
    return candidates.size() == 1 ? kNeverCycle : now + 1;
  }

  FlowControlKind kind() const override { return FlowControlKind::kRoundRobin; }

 private:
  std::uint32_t slots_;
  std::uint32_t last_port_;
};

/// Priority-first: any priority candidate beats every best-effort one;
/// ties broken oldest-first (then round-robin-ish by port).
class PriorityFirstFc final : public FlowController {
 public:
  std::optional<std::size_t> select(const std::vector<Candidate>& candidates,
                                    const std::vector<Packet*>& waiting,
                                    Cycle now) override {
    (void)waiting;
    (void)now;
    ANNOC_ASSERT(!candidates.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      if (beats(*candidates[i].pkt, *candidates[best].pkt)) best = i;
    }
    return best;
  }

  /// A pure function of the candidates.
  Cycle stable_until(const std::vector<Candidate>& candidates,
                     Cycle now) const override {
    (void)candidates;
    (void)now;
    return kNeverCycle;
  }

  FlowControlKind kind() const override {
    return FlowControlKind::kPriorityFirst;
  }

 private:
  [[nodiscard]] static bool beats(const Packet& a, const Packet& b) {
    if (a.is_priority() != b.is_priority()) return a.is_priority();
    return a.head_arrival < b.head_arrival;  // oldest first
  }
};

/// [4]: schedule for SDRAM friendliness relative to the last scheduled
/// packet h(n): row-hit first, then bank-interleave without data
/// contention, then bank-interleave with contention, finally bank
/// conflict; age breaks ties and a starvation cap promotes very old
/// packets. The base variant has no notion of priority (pure
/// best-effort), which is exactly the weakness the GSS router
/// addresses; the +PFS variant bolts a priority-first stage on top —
/// priority packets always win, with SDRAM friendliness deciding only
/// among them and among the remaining best-effort packets.
class SdramAwareFc : public FlowController {
 public:
  std::optional<std::size_t> select(const std::vector<Candidate>& candidates,
                                    const std::vector<Packet*>& waiting,
                                    Cycle now) override {
    (void)waiting;
    ANNOC_ASSERT(!candidates.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      if (score(*candidates[i].pkt, now) < score(*candidates[best].pkt, now)) {
        best = i;
      }
    }
    return best;
  }

  /// Scores read the clock only through the starvation cap, so the
  /// decision holds until the next candidate starts starving.
  Cycle stable_until(const std::vector<Candidate>& candidates,
                     Cycle now) const override {
    Cycle until = kNeverCycle;
    for (const Candidate& c : candidates) {
      const Cycle starves_at = c.pkt->head_arrival + kStarvationCap + 1;
      if (starves_at > now) until = std::min(until, starves_at);
    }
    return until;
  }

  void on_scheduled(const Packet& pkt, Cycle now) override {
    (void)now;
    last_ = pkt;
    has_last_ = true;
  }

  FlowControlKind kind() const override { return FlowControlKind::kSdramAware; }

 protected:
  /// Lower is better. Rank 0..3 by SDRAM relation; starved packets
  /// (waiting beyond kStarvationCap) jump to rank 0 regardless.
  [[nodiscard]] virtual std::uint64_t score(const Packet& p, Cycle now) const {
    std::uint64_t rank = 0;
    if (has_last_) {
      if (SdramRelation::row_hit(last_, p)) {
        rank = 0;
      } else if (SdramRelation::bank_interleave(last_, p)) {
        rank = SdramRelation::data_contention(last_, p) ? 2 : 1;
      } else {
        rank = 3;  // bank conflict
      }
    }
    const Cycle waited = now >= p.head_arrival ? now - p.head_arrival : 0;
    if (waited > kStarvationCap) rank = 0;
    // Combine rank with age so equal ranks serve oldest-first.
    return (rank << 48) | (p.head_arrival & 0xffffffffffffULL);
  }

  static constexpr Cycle kStarvationCap = 512;
  Packet last_{};
  bool has_last_ = false;
};

/// [4]+PFS.
class SdramAwarePfsFc final : public SdramAwareFc {
 public:
  FlowControlKind kind() const override {
    return FlowControlKind::kSdramAwarePfs;
  }

 protected:
  std::uint64_t score(const Packet& p, Cycle now) const override {
    const std::uint64_t base = SdramAwareFc::score(p, now);
    // Priority packets sort strictly before every best-effort packet.
    return p.is_priority() ? base : base | (1ULL << 52);
  }
};

}  // namespace

std::unique_ptr<FlowController> make_flow_controller(FlowControlKind kind,
                                                     const GssParams& gss,
                                                     std::uint32_t num_slots) {
  switch (kind) {
    case FlowControlKind::kRoundRobin:
      return std::make_unique<RoundRobinFc>(num_slots);
    case FlowControlKind::kPriorityFirst:
      return std::make_unique<PriorityFirstFc>();
    case FlowControlKind::kSdramAware:
      return std::make_unique<SdramAwareFc>();
    case FlowControlKind::kSdramAwarePfs:
      return std::make_unique<SdramAwarePfsFc>();
    case FlowControlKind::kGss:
      return std::make_unique<GssFlowController>(gss, /*sti=*/false);
    case FlowControlKind::kGssSti:
      return std::make_unique<GssFlowController>(gss, /*sti=*/true);
  }
  ANNOC_ASSERT_MSG(false, "unknown flow controller kind");
  return nullptr;
}

}  // namespace annoc::noc
