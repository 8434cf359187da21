/// \file conservation.hpp
/// End-to-end conservation invariants, checked from the observability
/// event stream plus an end-of-run state snapshot:
///  * fork/join pairing — every forked request joins exactly once, after
///    all of its subpackets completed;
///  * subpacket lifecycle monotonicity and id uniqueness;
///  * no flit/packet creation or loss — network inject/eject/in-flight
///    accounting balances, and every router input buffer's flit
///    occupancy equals the sum of its buffered packets' charges;
///  * token counts never go negative (checked as no unsigned wrap);
///  * a drained simulation ends with zero outstanding state everywhere.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/violation.hpp"
#include "noc/network.hpp"
#include "obs/sink.hpp"

namespace annoc::check {

class ConservationChecker final : public obs::EventSink {
 public:
  ConservationChecker();

  void on_fork(const obs::ForkEvent& e) override;
  void on_join(const obs::JoinEvent& e) override;
  void on_subpacket(const obs::SubpacketRecord& r) override;
  void on_arbitration(const obs::ArbitrationEvent& e) override;
  [[nodiscard]] std::uint32_t interests() const override {
    return obs::bit(obs::EventKind::kFork) | obs::bit(obs::EventKind::kJoin) |
           obs::bit(obs::EventKind::kSubpacket) |
           obs::bit(obs::EventKind::kArbitration);
  }

  /// In-flight totals found by audit_network.
  struct Audit {
    std::uint64_t packets = 0;
    std::uint64_t flits = 0;
  };

  /// Walk every input buffer of `net` and check that its flit occupancy
  /// equals the recomputed sum of its packets' charges
  /// (min(pkt.flits, capacity) — the bounded-overcommit accounting).
  /// Returns the mesh-wide in-flight totals.
  Audit audit_network(const noc::Network& net, Cycle now);

  /// End-of-run snapshot assembled by the simulator after drain().
  struct EndState {
    Cycle at = 0;
    bool fully_drained = false;      ///< no parent requests outstanding
    std::uint64_t outstanding_parents = 0;
    noc::NetworkStats request_net{};
    Audit request_in_flight{};
    std::uint64_t subsystem_pending = 0;
    /// Pending count per controller (sums to subsystem_pending); lets
    /// the undrained-end diagnostic name the offending controller in a
    /// multi-controller fabric. May be empty (treated as one
    /// controller holding the whole sum).
    std::vector<std::uint64_t> per_controller_pending{};
    std::uint64_t generator_backlog = 0;  ///< queued, not yet injected
    /// Response path (zeros when not modelled).
    std::uint64_t response_backlog = 0;
    std::uint64_t response_in_flight = 0;
  };

  /// Check the conservation equations on the final state.
  void on_run_end(const EndState& s);

  [[nodiscard]] bool ok() const { return log_.ok(); }
  [[nodiscard]] const ViolationLog& log() const { return log_; }
  [[nodiscard]] std::uint64_t forks_seen() const { return forks_; }
  [[nodiscard]] std::uint64_t joins_seen() const { return joins_; }
  [[nodiscard]] std::uint64_t subpackets_seen() const { return subs_; }

 private:
  struct ForkState {
    std::uint32_t expected = 0;  ///< subpackets the fork announced
    std::uint32_t seen = 0;      ///< completed subpackets so far
  };

  std::unordered_map<PacketId, ForkState> outstanding_forks_;
  std::unordered_set<PacketId> subpacket_ids_;
  std::uint64_t forks_ = 0;
  std::uint64_t joins_ = 0;
  std::uint64_t subs_ = 0;
  ViolationLog log_;
};

}  // namespace annoc::check
