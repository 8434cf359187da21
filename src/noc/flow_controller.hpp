/// \file flow_controller.hpp
/// Flow-controller (channel arbitration) interface and the registry of
/// the four policies the paper compares.
///
/// A flow controller owns the scheduling decision for one router output
/// channel: among the head packets of the input buffers requesting that
/// channel, which is allocated next (winner-take-all: the channel is
/// held until the packet's tail passes). The GSS controller additionally
/// maintains per-packet tokens and per-bank turnaround counters.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "noc/packet.hpp"
#include "obs/sink.hpp"
#include "sdram/config.hpp"

namespace annoc::noc {

enum class FlowControlKind : std::uint8_t {
  kRoundRobin,      ///< conventional best-effort (CONV)
  kPriorityFirst,   ///< PFS: priority packets first, else round-robin
  kSdramAware,      ///< [4] (DAC'09): SDRAM-friendly ordering, no priority
  kSdramAwarePfs,   ///< [4]+PFS: priority first, SDRAM-aware among the rest
  kGss,             ///< this paper, Fig. 4(a) filters
  kGssSti,          ///< this paper, Fig. 4(b): adds short-turnaround filter
};

[[nodiscard]] inline const char* to_string(FlowControlKind k) {
  switch (k) {
    case FlowControlKind::kRoundRobin: return "round-robin";
    case FlowControlKind::kPriorityFirst: return "priority-first";
    case FlowControlKind::kSdramAware: return "sdram-aware[4]";
    case FlowControlKind::kSdramAwarePfs: return "sdram-aware[4]+PFS";
    case FlowControlKind::kGss: return "GSS";
    case FlowControlKind::kGssSti: return "GSS+STI";
  }
  return "?";
}

/// One arbitration candidate: the head packet of input slot `port`
/// (in-port × num_vcs + vc at a router).
struct Candidate {
  Packet* pkt = nullptr;
  std::uint32_t port = 0;
};

/// Tunables for the GSS controller (Algorithm 1).
struct GssParams {
  std::uint32_t pct = 4;  ///< initial tokens for a priority packet (2..max)
  sdram::Timing timing{}; ///< for the STI bank counters (tWR, tRP)
};

class FlowController {
 public:
  virtual ~FlowController() = default;

  /// A new packet entered this controller's candidate pool (it arrived
  /// at an input buffer routed to this output). `waiting` is every
  /// packet currently pooled here, excluding `pkt` itself.
  virtual void on_packet_arrival(Packet& pkt,
                                 const std::vector<Packet*>& waiting,
                                 Cycle now) {
    (void)pkt;
    (void)waiting;
    (void)now;
  }

  /// Choose the next packet to allocate the channel to, or nullopt to
  /// leave the channel idle this round (e.g. all candidates excluded).
  /// `waiting` is the full pool (candidates are its subset that are
  /// buffer heads). Must not mutate packets other than token fields.
  [[nodiscard]] virtual std::optional<std::size_t> select(
      const std::vector<Candidate>& candidates,
      const std::vector<Packet*>& waiting, Cycle now) = 0;

  /// How long the select() just made at `now` stays valid: the first
  /// cycle at which select() over the same candidates and pool could
  /// choose differently or emit different events. Up to that cycle a
  /// repeated select() must also leave this controller and every
  /// pooled packet unchanged, because the router replays the decision
  /// instead of calling it (DESIGN.md "Arbitration memo"). Arrivals,
  /// grants and reroutes end a replay on their own; this horizon covers
  /// what the controller reads from the clock or from its own state.
  /// The default never lets a decision be replayed.
  [[nodiscard]] virtual Cycle stable_until(
      const std::vector<Candidate>& candidates, Cycle now) const {
    (void)candidates;
    return now + 1;
  }

  /// The selected packet's transfer begins: it becomes h(n).
  virtual void on_scheduled(const Packet& pkt, Cycle now) {
    (void)pkt;
    (void)now;
  }

  [[nodiscard]] virtual FlowControlKind kind() const = 0;

  /// Attach the observability sink; `router`/`port` identify this
  /// controller's output channel in the emitted events. nullptr (the
  /// default) keeps the zero-overhead off state.
  void attach_observer(obs::EventSink* sink, std::uint32_t router,
                       std::uint8_t port) {
    obs_ = sink;
    obs_router_ = router;
    obs_port_ = port;
  }

 protected:
  obs::EventSink* obs_ = nullptr;
  std::uint32_t obs_router_ = 0;
  std::uint8_t obs_port_ = 0;
};

/// Factory. `gss` is consulted only for the GSS kinds; `num_slots`
/// bounds the candidate slots (Candidate::port) and sizes the
/// round-robin rotation — a router passes kNumPorts × num_vcs.
[[nodiscard]] std::unique_ptr<FlowController> make_flow_controller(
    FlowControlKind kind, const GssParams& gss = {},
    std::uint32_t num_slots = 64);

}  // namespace annoc::noc
