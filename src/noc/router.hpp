/// \file router.hpp
/// GSS-capable router (Fig. 3) modelled at packet granularity, with
/// wormhole (1 virtual channel) or virtual-channel flow control
/// (Section IV-A offers both; the paper's experiments use wormhole,
/// which stays the default).
///
/// Modelling notes (see DESIGN.md): flits stream at one per cycle and
/// the winner-take-all allocator holds an output channel from the grant
/// until the packet tail has passed, so a transfer of an L-flit packet
/// occupies the channel for L cycles (and cannot finish before the tail
/// has even arrived at this router — virtual cut-through pipelining).
/// The packet object moves to the downstream buffer at grant time with
/// head/tail arrival stamps; the Transfer record models only the channel
/// occupancy. Buffers are accounted in flits; a packet longer than the
/// buffer may still enter a half-empty buffer, emulating wormhole
/// streaming through. With V > 1 virtual channels, each input port has
/// V buffers and the heads of *all* VCs compete for outputs — a packet
/// blocked toward one output no longer blocks packets behind it in
/// other VCs.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "noc/flow_controller.hpp"
#include "noc/packet.hpp"
#include "obs/sink.hpp"

namespace annoc::noc {

/// Router ports. kMem exists only on the router adjacent to the memory
/// subsystem (the paper places the subsystem off a mesh corner, Fig. 7).
enum Port : std::uint8_t {
  kPortLocal = 0,
  kPortNorth = 1,
  kPortEast = 2,
  kPortSouth = 3,
  kPortWest = 4,
  kPortMem = 5,
  kNumPorts = 6,
};

/// Sentinel "output port" for a buffered packet whose destination is
/// currently unreachable (dead links partitioned the fabric — see
/// src/fault/). A parked packet stays in its input buffer, is never
/// pooled or arbitrated (so it exerts ordinary buffer backpressure),
/// and gets a real output again at the next Network reroute.
inline constexpr Port kPortParked = kNumPorts;

[[nodiscard]] inline const char* to_string(Port p) {
  switch (p) {
    case kPortLocal: return "local";
    case kPortNorth: return "north";
    case kPortEast: return "east";
    case kPortSouth: return "south";
    case kPortWest: return "west";
    case kPortMem: return "mem";
    default: return "?";
  }
}

/// Flit-accounted input FIFO (one per port per virtual channel).
///
/// Wormhole streaming of packets longer than the buffer is approximated
/// with bounded overcommit: a packet may enter once at least
/// min(flits, capacity/2) slots are free — its head and early flits fit
/// while the tail still occupies upstream links (which the
/// packet-granular model has already released). Occupancy is charged at
/// min(flits, capacity), so a long packet blocks further admissions
/// until it drains, exactly the head-of-line pressure the paper's SAGM
/// splitting relieves. Without this relaxation, a long packet would
/// need a *completely empty* buffer and large-burst cores starve
/// outright under continuous small-packet traffic.
/// Storage is a fixed ring of `capacity_flits` slots: every admitted
/// packet charges at least one flit, so the packet count can never
/// exceed the flit capacity. The ring never reallocates, which keeps
/// pointers to buffered packets stable for the lifetime of the packet —
/// the routers' incremental per-output pools rely on this. Each slot
/// also holds the output port its packet is routed to (kPortParked for
/// a packet pushed without a route).
class InputBuffer {
 public:
  explicit InputBuffer(std::uint32_t capacity_flits)
      : capacity_(capacity_flits), slots_(capacity_flits) {
    ANNOC_ASSERT(capacity_flits > 0);
  }

  [[nodiscard]] bool can_accept(std::uint32_t flits) const {
    const std::uint32_t need =
        std::min(flits, std::max(1u, capacity_ / 2));
    return used_ + need <= capacity_;
  }

  void push(Packet&& p, Port out = kPortParked) {
    ANNOC_ASSERT(can_accept(p.flits));
    ANNOC_ASSERT(size_ < slots_.size());
    used_ += std::min(p.flits, capacity_);
    Slot& s = slots_[wrap(head_ + size_)];
    s.pkt = std::move(p);
    s.out = out;
    ++size_;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] Packet& front() { return at(0); }
  [[nodiscard]] const Packet& front() const { return at(0); }
  /// Output port the head packet is routed to.
  [[nodiscard]] Port front_out() const { return slot(0).out; }
  [[nodiscard]] Packet& at(std::size_t i) { return slot(i).pkt; }
  [[nodiscard]] const Packet& at(std::size_t i) const { return slot(i).pkt; }
  void set_out(std::size_t i, Port out) { slot(i).out = out; }
  [[nodiscard]] Packet& back() { return at(size_ - 1); }
  [[nodiscard]] std::uint32_t used_flits() const { return used_; }
  [[nodiscard]] std::uint32_t capacity_flits() const { return capacity_; }

  Packet pop() {
    ANNOC_ASSERT(size_ > 0);
    Packet p = std::move(slots_[head_].pkt);
    head_ = wrap(head_ + 1);
    --size_;
    used_ -= std::min(p.flits, capacity_);
    return p;
  }

 private:
  struct Slot {
    Packet pkt;
    Port out = kPortParked;
  };

  /// Ring index for `i` < 2 * capacity: one compare instead of a `%`.
  [[nodiscard]] std::size_t wrap(std::size_t i) const {
    return i >= slots_.size() ? i - slots_.size() : i;
  }
  [[nodiscard]] Slot& slot(std::size_t i) {
    ANNOC_ASSERT(i < size_);
    return slots_[wrap(head_ + i)];
  }
  [[nodiscard]] const Slot& slot(std::size_t i) const {
    ANNOC_ASSERT(i < size_);
    return slots_[wrap(head_ + i)];
  }

  std::uint32_t capacity_;
  std::uint32_t used_ = 0;
  std::vector<Slot> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Output-channel occupancy (winner-take-all hold).
struct Transfer {
  bool active = false;
  Cycle start = 0;
  Cycle end = 0;  ///< channel free again at this cycle
};

struct RouterStats {
  std::uint64_t packets_forwarded = 0;
  std::uint64_t flits_forwarded = 0;
  std::uint64_t arbitration_rounds = 0;
  std::uint64_t idle_grants = 0;  ///< select() declined (GSS exclusion)
  std::uint64_t blocked_on_downstream = 0;
  /// Cycles each output channel was held by a transfer.
  std::array<std::uint64_t, kNumPorts> output_busy{};
};

/// Identifies one input buffer: (port, virtual channel).
struct VcId {
  Port port = kPortLocal;
  std::uint32_t vc = 0;
  friend bool operator==(const VcId&, const VcId&) = default;
};

class Router {
 public:
  Router(NodeId id, std::uint32_t buffer_flits, std::uint32_t pipeline_latency,
         FlowControlKind fc_kind, const GssParams& gss,
         std::uint32_t num_vcs = 1);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] FlowControlKind fc_kind() const { return fc_kind_; }
  [[nodiscard]] std::uint32_t num_vcs() const { return num_vcs_; }

  [[nodiscard]] InputBuffer& input(Port p, std::uint32_t vc = 0) {
    return inputs_[p * num_vcs_ + vc];
  }
  [[nodiscard]] const InputBuffer& input(Port p, std::uint32_t vc = 0) const {
    return inputs_[p * num_vcs_ + vc];
  }
  [[nodiscard]] Transfer& output(Port p) { return outputs_[p]; }
  [[nodiscard]] const Transfer& output(Port p) const { return outputs_[p]; }

  /// Virtual channel of input `p` for packet `pkt`, if it has room.
  /// VCs are keyed by source core (flow), which preserves per-master
  /// packet order end to end — interleaving one stream across VCs would
  /// shuffle its subpackets and break the row-hit trains the GSS
  /// scheduling relies on.
  [[nodiscard]] std::optional<std::uint32_t> find_vc(Port p,
                                                     const Packet& pkt) const;

  /// Total free flits across the VCs of input `p` (adaptive-routing
  /// congestion signal).
  [[nodiscard]] std::uint32_t free_flits(Port p) const;

  /// A packet lands in input buffer (`in`, `vc`); `out` is the output
  /// port it will take (precomputed by the network's routing). Runs the
  /// flow controller's arrival hook (token assignment/aging for GSS).
  void on_arrival(Packet&& pkt, Port in, std::uint32_t vc, Port out,
                  Cycle now);

  /// Arbitrate output `out` at cycle `now` (channel must be free) over
  /// the head packets of every (port, vc) wanting `out`. Returns the
  /// winning buffer, or nullopt. The decision is memoized per output
  /// and replayed — counted and observed exactly like a fresh round —
  /// until one of its inputs changes (DESIGN.md "Arbitration memo").
  [[nodiscard]] std::optional<VcId> arbitrate(Port out, Cycle now);

  /// Peek the head packet of input (`in`, `vc`) (must be non-empty).
  [[nodiscard]] const Packet& head(Port in, std::uint32_t vc = 0) const {
    return input(in, vc).front();
  }
  [[nodiscard]] const Packet& head(const VcId& id) const {
    return head(id.port, id.vc);
  }

  /// Pop the winner, mark it h(n) in `out`'s flow controller, occupy
  /// the channel, and return the packet (stamped with downstream
  /// head/tail arrival cycles). `extra_channel_cycles` lengthens the
  /// channel hold past the normal tail time — the degraded-link fault
  /// stall (src/fault/); zero for healthy links.
  [[nodiscard]] Packet grant(const VcId& in, Port out, Cycle now,
                             Cycle extra_channel_cycles = 0);

  /// Recompute the output port of every buffered packet (fault edges:
  /// dead links appearing or healing). Rewrites each buffer slot's
  /// routed port and rebuilds the per-output pools in canonical
  /// (in-port, vc, buffer-index) order — the order is part of the
  /// deterministic contract, since pool order is visible to the flow
  /// controllers. `fn` may return
  /// kPortParked for unreachable destinations. Flow-controller arrival
  /// hooks are deliberately NOT re-run: a reroute is a path change, not
  /// a new arrival, so GSS token state is preserved.
  void reroute(const std::function<Port(const Packet&)>& fn);

  /// Mark a stall on output `out`: a winner was selected but could not
  /// move (`cause` distinguishes full downstream buffers from a busy
  /// memory sink). A full downstream buffer is remembered with the
  /// memoized winner: downstream_full() holds until downstream_popped()
  /// or a new decision.
  void note_blocked(Port out, obs::StallCause cause, Cycle now) {
    if (cause == obs::StallCause::kDownstreamFull) {
      memo_[out].downstream_full = true;
    }
    ++stats_.blocked_on_downstream;
    ANNOC_OBS_EMIT(obs_, on_stall(obs::StallEvent{.at = now,
                                                  .router = id_,
                                                  .out_port = out,
                                                  .cause = cause}));
  }

  /// The winner arbitrate() returned for `out` is the one that last
  /// failed to fit its downstream input buffer, and that buffer has not
  /// popped since: probing it again is a guaranteed miss. Only a pop
  /// can make room, because a mesh input has exactly one feeder (this
  /// output) and this router's own grant starts a new decision.
  [[nodiscard]] bool downstream_full(Port out) const {
    return memo_[out].downstream_full;
  }
  /// The input buffer fed by output `out` popped a packet.
  void downstream_popped(Port out) { memo_[out].downstream_full = false; }

  /// Horizon-audit mode (SystemConfig::audit_horizons): every replayed
  /// arbitration also re-runs the candidate scan and select(), and
  /// aborts if the decision or any pooled packet's tokens differ.
  void set_audit(bool on) { audit_ = on; }
  [[nodiscard]] bool audit() const { return audit_; }
  /// An audit found a replayed decision or a skipped probe wrong:
  /// report router, output and cycle, then abort.
  [[noreturn]] void audit_failed(Port out, Cycle now, const char* what) const;

  /// Attach an observer receiving per-channel arbitration/stall events
  /// (and, through the flow controllers, the GSS ladder events).
  void set_observer(obs::EventSink* sink);

  [[nodiscard]] const RouterStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t pipeline_latency() const { return pipeline_; }
  [[nodiscard]] FlowController& controller(Port p) { return *fc_[p]; }

  /// Total packets currently buffered in this router.
  [[nodiscard]] std::size_t buffered_packets() const;

  /// No buffered packet is routed to `out`: arbitration there is a
  /// guaranteed no-op this cycle (hot-path gate for Network::tick).
  [[nodiscard]] bool output_pool_empty(Port out) const {
    return pools_[out].empty();
  }

  /// Earliest future cycle (>= now) at which this router's state can
  /// change on its own: an active transfer completing, or a buffered
  /// head becoming pipeline-eligible toward a free output. Returns
  /// `now` itself when an eligible head already waits on a free output
  /// (arbitration must run densely), kNeverCycle when fully drained.
  /// See DESIGN.md "The next_event contract".
  [[nodiscard]] Cycle next_event(Cycle now) const;

  /// Human-readable occupancy dump (watchdog diagnostics): busy
  /// outputs, per-buffer fill, each head packet with its routed output
  /// and what blocks it. Quiet (no output) when the router is idle.
  void dump(std::ostream& os, Cycle now) const;

 private:
  /// Output `out`'s last arbitration decision (DESIGN.md "Arbitration
  /// memo"). arbitrate() replays it while `now < until`; every event
  /// that can change one of its inputs resets it (until = 0).
  struct Memo {
    enum class Kind : std::uint8_t {
      kNone,      ///< no eligible candidate (no round is counted)
      kDeclined,  ///< select() declined: GSS exclusion
      kWinner,    ///< select() chose `winner`
    };
    Kind kind = Kind::kNone;
    /// See downstream_full().
    bool downstream_full = false;
    VcId winner{};
    /// First cycle the decision may differ: a head becoming eligible,
    /// or the flow controller's stable_until() horizon.
    Cycle until = 0;
  };

  /// Scan the heads routed to `out`, run select() over the eligible
  /// ones and return the decision. Counts nothing.
  [[nodiscard]] Memo decide(Port out, Cycle now);
  /// Horizon audit of a replayed round: re-decide and compare.
  void audit_replay(Port out, Cycle now);
  void invalidate(Port out) { memo_[out] = Memo{}; }

  NodeId id_;
  std::uint32_t pipeline_;
  FlowControlKind fc_kind_;
  std::uint32_t num_vcs_;
  /// inputs_[port * num_vcs_ + vc]; each buffer slot also holds the
  /// output port its packet is routed to.
  std::vector<InputBuffer> inputs_;
  std::array<Transfer, kNumPorts> outputs_{};
  std::array<std::unique_ptr<FlowController>, kNumPorts> fc_;
  std::array<Memo, kNumPorts> memo_{};
  /// pools_[out]: every waiting packet in this router routed to output
  /// `out`, maintained incrementally on arrival/grant (pointers are
  /// stable: InputBuffer storage never reallocates). Replaces the
  /// per-arrival vector rebuild the old pool_for() did.
  std::array<std::vector<Packet*>, kNumPorts> pools_;
  /// Scratch buffers reused across arbitrate() calls (no steady-state
  /// allocation on the hot path).
  std::vector<Candidate> cand_scratch_;
  std::vector<VcId> source_scratch_;
  std::vector<std::uint32_t> token_scratch_;  ///< audit_replay only
  RouterStats stats_;
  obs::EventSink* obs_ = nullptr;
  bool audit_ = false;
};

}  // namespace annoc::noc
