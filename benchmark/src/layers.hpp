/// \file layers.hpp
/// Per-layer measurement from outside the simulator: an EventSink that
/// records a run's event stream (attached through
/// Simulator::attach_sink), and replays that feed the recorded stream to
/// a fresh instance of one layer — the SDRAM device, the request
/// network, the timing oracles, the conservation checker, the counter
/// sink — timing only that layer's public API. Replay measures a
/// layer's cost in isolation: no other layer shares the caches with it,
/// and the network replay's sink is paced by the recorded arrival times
/// rather than by a live memory controller.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/simulator.hpp"
#include "obs/sink.hpp"

namespace annoc::benchmark {

/// Event kinds in obs::EventSink declaration order.
enum class EventKind : std::uint8_t {
  kCommand,
  kArbitration,
  kStall,
  kGssAdmit,
  kGssAging,
  kGssStiHit,
  kRequest,
  kFork,
  kJoin,
  kSubpacket,
  kDpqGrant,
  kDpqRetire,
  kFault,
  kWatchdog,
};
inline constexpr std::size_t kNumEventKinds = 14;

[[nodiscard]] std::string_view to_string(EventKind k);

/// Records the event stream of one run. Every event is counted; events
/// at or after `cap` cycles are counted but not stored, which bounds
/// memory and replay time on long runs. Stored events keep their
/// arrival order, so replays see the live interleaving.
class EventLog final : public obs::EventSink {
 public:
  explicit EventLog(Cycle cap) : cap_(cap) {}

  void on_command(const obs::SdramCommandEvent& e) override;
  void on_arbitration(const obs::ArbitrationEvent& e) override;
  void on_stall(const obs::StallEvent& e) override;
  void on_gss_admit(const obs::GssAdmitEvent& e) override;
  void on_gss_aging(const obs::GssAgingEvent& e) override;
  void on_gss_sti_hit(const obs::GssStiHitEvent& e) override;
  void on_request(const obs::RequestEvent& e) override;
  void on_fork(const obs::ForkEvent& e) override;
  void on_join(const obs::JoinEvent& e) override;
  void on_subpacket(const obs::SubpacketRecord& e) override;
  void on_dpq_grant(const obs::DpqGrantEvent& e) override;
  void on_dpq_retire(const obs::DpqRetireEvent& e) override;
  void on_fault(const obs::FaultEvent& e) override;
  void on_watchdog(const obs::WatchdogEvent& e) override;
  void finish(Cycle end) override { end_ = end; }

  /// Events seen per kind, stored or not.
  [[nodiscard]] const std::array<std::uint64_t, kNumEventKinds>& counts()
      const {
    return counts_;
  }
  [[nodiscard]] Cycle cap() const { return cap_; }
  [[nodiscard]] Cycle end() const { return end_; }

  /// Feed the stored events, in arrival order, to `sink`; `kinds` masks
  /// which kinds are delivered (bit i = EventKind i). Returns the number
  /// of events delivered.
  std::uint64_t replay(obs::EventSink& sink, std::uint32_t kinds) const;

  /// The stored command-bus events and completed subpackets, in order.
  [[nodiscard]] const std::vector<obs::SdramCommandEvent>& commands() const {
    return commands_;
  }
  [[nodiscard]] const std::vector<obs::SubpacketRecord>& subpackets() const {
    return subpackets_;
  }

 private:
  template <typename E>
  void keep(EventKind k, std::vector<E>& store, const E& e, Cycle at);

  Cycle cap_;
  Cycle end_ = 0;
  std::array<std::uint64_t, kNumEventKinds> counts_{};
  std::vector<EventKind> order_;
  std::vector<obs::SdramCommandEvent> commands_;
  std::vector<obs::SubpacketRecord> subpackets_;
  std::vector<obs::ArbitrationEvent> arbitrations_;
  std::vector<obs::StallEvent> stalls_;
  std::vector<obs::GssAdmitEvent> gss_admits_;
  std::vector<obs::GssAgingEvent> gss_agings_;
  std::vector<obs::GssStiHitEvent> gss_sti_hits_;
  std::vector<obs::RequestEvent> requests_;
  std::vector<obs::ForkEvent> forks_;
  std::vector<obs::JoinEvent> joins_;
  std::vector<obs::DpqGrantEvent> dpq_grants_;
  std::vector<obs::DpqRetireEvent> dpq_retires_;
  std::vector<obs::FaultEvent> faults_;
  std::vector<obs::WatchdogEvent> watchdogs_;
};

[[nodiscard]] constexpr std::uint32_t kind_bit(EventKind k) {
  return 1u << static_cast<unsigned>(k);
}

/// Outcome of one replay: host seconds inside the layer's API, the work
/// items it processed, and the items it refused or failed.
struct ReplayResult {
  double seconds = 0.0;
  std::uint64_t items = 0;
  std::uint64_t rejected = 0;
};

/// Re-issue every recorded command-bus command (ACT/PRE/RD/WR) to a
/// fresh sdram::Device per channel. `rejected` counts commands the
/// fresh device's can_issue refused — a faithful model accepts all.
[[nodiscard]] ReplayResult replay_sdram(const EventLog& log,
                                        core::Simulator& sim);

/// Re-inject the recorded subpackets into a fresh noc::Network built
/// from the live one's config and per-router flow-control kinds, each
/// at its recorded injection cycle from a per-core FIFO. The memory
/// sink accepts a packet only once its tail could land at its recorded
/// arrival cycle, so the fabric carries the live run's backpressure.
/// Cycles with nothing in flight and nothing due are skipped. `items`
/// is router-cycles ticked; `rejected` counts packets still undelivered
/// when the replay gave up.
[[nodiscard]] ReplayResult replay_noc(const EventLog& log,
                                      core::Simulator& sim);

/// Feed the recorded command stream to fresh TimingOracles (one per
/// channel, like the live simulator). `rejected` counts violations.
[[nodiscard]] ReplayResult replay_oracles(const EventLog& log,
                                          core::Simulator& sim);

/// Feed fork/join/subpacket/arbitration events to a fresh
/// ConservationChecker. `rejected` counts violations.
[[nodiscard]] ReplayResult replay_conservation(const EventLog& log);

/// Feed every stored event to a fresh CounterSink.
[[nodiscard]] ReplayResult replay_counter_sink(const EventLog& log,
                                               core::Simulator& sim);

}  // namespace annoc::benchmark
