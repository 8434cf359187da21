/// \file fc_gss.hpp
/// The Guaranteed SDRAM Service flow controller — Algorithm 1 of the
/// paper, with the Fig. 4(a) filter network and the Fig. 4(b) variant
/// that additionally avoids short turn-around bank interleaving via
/// per-bank counters.
///
/// Mechanism summary (Section IV-B):
///  * Every waiting packet holds a token count t_i. When a new packet
///    arrives, all older waiting packets gain one token (anti-starvation
///    aging); the newcomer starts with 1 token if best-effort or with
///    PCT (2..max) tokens if priority — PCT interpolates between
///    priority-equal (PCT=1) and priority-first (PCT=max) scheduling.
///  * When a priority packet arrives, waiting best-effort packets that
///    address the *same bank* are excluded from scheduling until that
///    priority packet has been scheduled (they would otherwise drag the
///    bank to a different row right before the priority access).
///  * At each arbitration, packets enter a filter ladder indexed by
///    their token count. Filters at low token levels admit only packets
///    that are SDRAM-friendly w.r.t. the last scheduled packet h(n)
///    (no bank conflict, no data contention, and — in the STI variant —
///    no short-turnaround violation); higher levels relax those
///    constraints one at a time and the top level admits anything, so
///    the Algorithm-1 retry loop (grant every packet one more token and
///    refilter) always terminates.
///  * Selection order (the paper's SP = A?B?C): a priority packet
///    passing its filter with the most tokens; else a row-hit packet
///    (T(0) output — keeps SAGM subpacket trains together); else a
///    best-effort packet passing its filter with the most tokens.
///  * STI counters: after h(n) is scheduled to bank b, the controller
///    sets a countdown modelling when b can be re-activated — writes:
///    last data beat + tWR + tRP, reads: last data beat + tRP
///    (Section IV-B; e.g. 23 cycles at DDR3-800 after a write).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "noc/flow_controller.hpp"

namespace annoc::noc {

class GssFlowController final : public FlowController {
 public:
  GssFlowController(const GssParams& params, bool sti);

  void on_packet_arrival(Packet& pkt, const std::vector<Packet*>& waiting,
                         Cycle now) override;

  [[nodiscard]] std::optional<std::size_t> select(
      const std::vector<Candidate>& candidates,
      const std::vector<Packet*>& waiting, Cycle now) override;

  /// Plain GSS reads no clock: kNeverCycle. GSS+STI reads it through
  /// the bank turnaround counters, and reports an STI hit on every
  /// select while a candidate's bank turns around, so it is stable only
  /// once none does.
  [[nodiscard]] Cycle stable_until(const std::vector<Candidate>& candidates,
                                   Cycle now) const override;

  void on_scheduled(const Packet& pkt, Cycle now) override;

  [[nodiscard]] FlowControlKind kind() const override {
    return sti_ ? FlowControlKind::kGssSti : FlowControlKind::kGss;
  }

  /// Maximum token level: 5 for Fig. 4(a), 6 for Fig. 4(b).
  [[nodiscard]] std::uint32_t max_token_level() const {
    return sti_ ? 6u : 5u;
  }

  /// Filter predicate at a given token level (exposed for unit tests):
  /// does a packet with `tokens` tokens pass, given the current h(n)?
  [[nodiscard]] bool passes_filter(const Packet& p, std::uint32_t tokens,
                                   Cycle now) const;

  /// True while the bank addressed by `p` has not finished its
  /// deactivate/reactivate turnaround (STI condition; always false in
  /// the non-STI variant).
  [[nodiscard]] bool sti_violation(const Packet& p, Cycle now) const;

  [[nodiscard]] bool has_last() const { return has_last_; }
  [[nodiscard]] const Packet& last() const { return last_; }

 private:
  static constexpr std::size_t kMaxBanks = 16;

  GssParams params_;
  bool sti_;
  Packet last_{};
  bool has_last_ = false;
  /// Whether the most recent select() winner came via the T(0) row-hit
  /// output (consumed by the admit event in on_scheduled()).
  bool pending_via_rowhit_ = false;
  /// Scratch for select(): indices surviving the priority-bank
  /// exclusion, reused so steady-state arbitration never allocates.
  std::vector<std::size_t> eligible_scratch_;
  /// STI: cycle until which each bank is considered "turning around".
  std::array<Cycle, kMaxBanks> bank_ready_at_{};
};

}  // namespace annoc::noc
