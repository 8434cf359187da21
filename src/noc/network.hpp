/// \file network.hpp
/// The request fabric: a 2-D mesh (Fig. 7) or a file-defined irregular
/// topology (topology.hpp), with one or more memory subsystems hanging
/// off dedicated router ports.
///
/// Every fabric routes by one next-hop table. A destination's row is a
/// breadth-first search from it over the live links; a policy then
/// picks, at each node, one of the ports whose neighbour is one hop
/// closer: XY order on a healthy mesh (deterministic and minimal, hence
/// deadlock- and livelock-free, Section IV-A), negative-first with a
/// run-time alternate under adaptive routing, and N/E/S/W order on a
/// file topology or while a link is dead. Every hop strictly decreases
/// the distance, so routes stay live. All request traffic is
/// memory-bound — toward whichever controller the address interleave
/// selects. Read responses return on a dedicated response network
/// modelled as contention-free (fixed per-hop latency), which matches
/// the paper's focus: all scheduling effects are on the request path.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "noc/router.hpp"
#include "noc/topology.hpp"

namespace annoc::noc {

/// Receives packets ejected at the memory port.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  /// May the network start delivering this packet now?
  [[nodiscard]] virtual bool can_accept(const Packet& pkt) const = 0;
  /// Delivery begins; pkt.mem_arrival is the cycle its tail lands.
  virtual void deliver(Packet&& pkt, Cycle now) = 0;
};

/// Receives wake notifications when a packet handoff makes a sleeping
/// component runnable — the event-driven scheduler's dirty-marking
/// hook (SystemConfig::sched = event). The network reports the cycle
/// at which the receiver can first observe the handoff: the cycle the
/// head lands for router-to-router moves and injections, the tail
/// arrival for memory-sink deliveries. Unset (the default) in dense
/// runs — the null check is the only cost there.
class NetworkWaker {
 public:
  virtual ~NetworkWaker() = default;
  /// A packet was delivered into `router`'s input buffers; its head is
  /// visible there from cycle `at`.
  virtual void wake_router(NodeId router, Cycle at) = 0;
  /// A packet was handed to the memory sink at node `mem_node`; its
  /// tail lands at `at`. The node identifies the controller in a
  /// multi-controller fabric.
  virtual void wake_memory(NodeId mem_node, Cycle at) = 0;
};

/// Packet routing policy (Section IV-A: the GSS router works with
/// deterministic or adaptive routing; the paper's experiments use XY).
enum class RoutingPolicy : std::uint8_t {
  kXY,               ///< deterministic dimension-ordered (default)
  kAdaptiveMinimal,  ///< negative-first minimal adaptive: when both a
                     ///< west and a north move are productive, take the
                     ///< one whose downstream buffer has more free
                     ///< space. Deadlock-free (negative-first turn
                     ///< model) and minimal, per the paper's
                     ///< requirement of deadlock/livelock freedom.
};

struct NocConfig {
  std::uint32_t width = 3;
  std::uint32_t height = 3;
  /// Mesh node whose kPortMem connects to the memory subsystem (the
  /// single-controller default; superseded by `mem_nodes` when set).
  NodeId mem_node = 0;
  std::uint32_t buffer_flits = 16;
  std::uint32_t pipeline_latency = 1;
  RoutingPolicy routing = RoutingPolicy::kXY;
  /// Virtual channels per input port (1 = wormhole, the paper's
  /// experimental configuration; >1 enables VC flow control).
  std::uint32_t num_vcs = 1;
  /// Multi-controller fabrics: every node whose kPortMem hosts a
  /// memory controller, index == channel. Empty means {mem_node}.
  std::vector<NodeId> mem_nodes{};
  /// Irregular topology (file/scenario-defined). When set, width/height
  /// are ignored: the node count is topology->num_nodes() and routes
  /// take the lowest productive link slot (see Network). Must already
  /// validate (validate_topology().ok()); the scenario loader guarantees
  /// this with positioned diagnostics. Requires RoutingPolicy::kXY (the
  /// adaptive policy is a mesh-geometry concept).
  std::shared_ptr<const TopologySpec> topology{};
};

struct NetworkStats {
  std::uint64_t injected_packets = 0;
  std::uint64_t injected_flits = 0;
  std::uint64_t ejected_packets = 0;
  std::uint64_t ejected_flits = 0;
};

class Network {
 public:
  /// `fc_kinds` holds one flow-control kind per router (row-major); a
  /// single-element vector applies to all routers.
  Network(const NocConfig& cfg, std::vector<FlowControlKind> fc_kinds,
          const GssParams& gss);

  /// Attach one sink to EVERY memory node (the single-subsystem
  /// shape, and the natural one for tests with one sink object).
  void attach_sink(PacketSink* sink) {
    for (const NodeId n : mem_nodes_) sinks_[n] = sink;
  }

  /// Attach the sink serving one specific memory node (one controller
  /// of a multi-controller fabric). `mem_node` must be in mem_nodes().
  void attach_sink(NodeId mem_node, PacketSink* sink) {
    ANNOC_ASSERT(mem_node < sinks_.size() && is_mem_[mem_node]);
    sinks_[mem_node] = sink;
  }

  /// Memory-controller nodes, index == channel.
  [[nodiscard]] const std::vector<NodeId>& mem_nodes() const {
    return mem_nodes_;
  }
  [[nodiscard]] bool is_mem_node(NodeId n) const {
    return n < is_mem_.size() && is_mem_[n] != 0;
  }

  /// Attach the event-driven scheduler's dirty-marking hook (nullptr
  /// detaches; dense runs leave it unset).
  void set_waker(NetworkWaker* waker) { waker_ = waker; }

  /// Horizon-audit mode for every router's arbitration memo and
  /// pop-gated downstream probe (Router::set_audit); the simulator
  /// turns it on with SystemConfig::audit_horizons.
  void set_audit(bool on) {
    for (auto& r : routers_) r->set_audit(on);
  }

  /// Attach an observer to every router (arbitration, stall and GSS
  /// ladder events). nullptr detaches.
  void set_observer(obs::EventSink* sink) {
    for (auto& r : routers_) r->set_observer(sink);
  }

  /// Receiver for packets ejected at a node's local port (core-bound
  /// responses). Local ejection is never backpressured: cores always
  /// sink their read data.
  using LocalSink = std::function<void(Packet&&, Cycle)>;
  void attach_local_sink(LocalSink sink) { local_sink_ = std::move(sink); }

  /// Try to place `pkt` into its source node's local input buffer.
  /// Returns false when the buffer cannot take it this cycle.
  [[nodiscard]] bool try_inject(Packet&& pkt, Cycle now);

  /// Advance one cycle: free completed channels, then arbitrate and
  /// grant on every free output.
  void tick(Cycle now);

  /// Advance ONE router one cycle: free its completed transfers, then
  /// arbitrate its free outputs. tick() is exactly tick_router over all
  /// routers in id order; the event-driven scheduler calls it for just
  /// the routers whose deadline arrived. Per-router ticking is
  /// dense-equivalent because a router's arbitration phase reads only
  /// its own transfers, its own and downstream input buffers, and the
  /// sink — never another router's Transfer state — so freeing each
  /// router's channels immediately before its own arbitration observes
  /// the same world as the global free-all-then-arbitrate-all order.
  void tick_router(NodeId id, Cycle now);

  /// Earliest future cycle (>= now) any router's state can change (min
  /// over all routers' horizons); kNeverCycle when the mesh is empty
  /// and all channels are free. See DESIGN.md "The next_event contract".
  [[nodiscard]] Cycle next_event(Cycle now) const;

  [[nodiscard]] Router& router(NodeId id) {
    ANNOC_ASSERT(id < routers_.size());
    return *routers_[id];
  }
  [[nodiscard]] const Router& router(NodeId id) const {
    ANNOC_ASSERT(id < routers_.size());
    return *routers_[id];
  }
  [[nodiscard]] std::size_t num_routers() const { return routers_.size(); }
  [[nodiscard]] const NocConfig& config() const { return cfg_; }
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }

  /// Route decision at `at` toward `dst`: the next-hop table entry
  /// (built for `dst` on its first use), or its alternate when that
  /// one's downstream has strictly more free flits — the adaptive
  /// policy's only time-dependent choice. kPortParked when `dst` is cut
  /// off. At the destination, memory-bound packets take kPortMem and
  /// core-bound packets take kPortLocal.
  [[nodiscard]] Port route(NodeId at, NodeId dst, bool to_memory = true);

  /// Downstream free space (flits) seen from `at` through output `out`.
  [[nodiscard]] std::uint32_t downstream_free(NodeId at, Port out) const;

  /// Hop distance from `a` to `b` over the live links, walked along the
  /// next-hop table (Manhattan on a healthy mesh). `b` must be reachable.
  [[nodiscard]] std::uint32_t hops(NodeId a, NodeId b);

  /// Number of packets currently buffered anywhere in the mesh.
  [[nodiscard]] std::size_t in_flight_packets() const;

  // --- fault-injection hooks (src/fault/; the simulator applies
  // schedule edges through these, identically in every sched mode).

  /// Canonical undirected router-router link list, (a, b) with a < b,
  /// in fixed (node-id, port) iteration order. The fault schedule
  /// indexes links by position in this list, so the order is part of
  /// the deterministic contract.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> link_list() const;

  /// Kill or revive the (a, b) link (both directions — links are
  /// undirected; they must be neighbours). Every table row is dropped
  /// and every buffered packet rerouted, which rebuilds the rows in use
  /// over the LIVE links. While any link is dead every fabric takes the
  /// N/E/S/W tie-break (XY and negative-first assume an intact mesh —
  /// docs/RESILIENCE.md); a packet whose destination became
  /// unreachable parks in place (kPortParked) until a later edge heals
  /// the partition. In-flight transfers are not cancelled: the packet
  /// object moved downstream at grant time, so the dying link only stops
  /// future grants.
  void set_link_dead(NodeId a, NodeId b, bool dead);

  /// Degraded link: every grant across (a, b) — either direction —
  /// holds the channel `penalty` extra cycles (0 restores full speed).
  /// Router-router links only.
  void set_link_penalty(NodeId a, NodeId b, std::uint32_t penalty);

  /// Slow router: arbitration (tick_router phase 2) runs only on
  /// cycles where (now - anchor) % period == 0; period <= 1 restores
  /// full speed. Channel frees (phase 1) still settle every tick —
  /// unobservable between arbitrations, so next_event() quantizes this
  /// router's horizon up to its next aligned cycle.
  void set_router_slow(NodeId router, std::uint32_t period, Cycle anchor);

  /// Monotone forward-progress token for the deadlock watchdog: grows
  /// whenever any packet is injected, forwarded one hop, or ejected.
  [[nodiscard]] std::uint64_t progress_token() const;

  /// Structured occupancy dump for watchdog diagnostics: per-router
  /// buffer census (head packets, routed outputs, what blocks them),
  /// busy channels, dead links and slow routers currently in effect.
  void dump_diagnostics(std::ostream& os, Cycle now) const;

  /// Helper for the Fig. 8 sweep: per-router flow-control kinds where
  /// the `num_gss` routers closest to a memory node (min over all
  /// controllers; ties broken by node id) use `gss_kind` and the rest
  /// use `base_kind`. Distance is BFS hops over the fabric's links
  /// (Manhattan on a mesh).
  [[nodiscard]] static std::vector<FlowControlKind> mixed_kinds(
      const NocConfig& cfg, std::size_t num_gss, FlowControlKind gss_kind,
      FlowControlKind base_kind);

 private:
  void deliver(Packet&& pkt, NodeId to, Port in_port, std::uint32_t vc,
               Cycle now);
  /// Router::grant plus the bookkeeping of the pop: tells the router
  /// feeding input `win.port` (Router::downstream_popped).
  [[nodiscard]] Packet grant(Router& r, const VcId& win, Port out, Cycle now);

  /// The output port of `a` facing `b` (asserts the link exists).
  [[nodiscard]] Port port_toward(NodeId a, NodeId b) const;
  /// Re-run route() for every buffered packet in every router.
  void reroute_all();

  /// One next-hop table entry: the port toward the row's destination
  /// (kPortParked when it is unreachable) and the adaptive policy's
  /// alternate (kPortParked when there is none).
  struct Hop {
    Port port = kPortParked;
    Port alt = kPortParked;
  };
  /// The table entry at `at` toward `dst`, building the row on first use.
  [[nodiscard]] Hop next_hop(NodeId at, NodeId dst);
  /// Fill rows_[dst]: BFS from dst over the live links, then at each node
  /// the first productive port (neighbour one hop closer) in the
  /// policy's order.
  void build_row(NodeId dst);

  /// One mesh link as seen from a router output: the neighbour node and
  /// the input port facing back. `nb == kInvalidNode` for ports that
  /// leave the mesh (local, mem, or off-grid edges).
  struct Link {
    NodeId nb = kInvalidNode;
    Port nb_in = kPortLocal;
  };

  NocConfig cfg_;
  std::vector<std::unique_ptr<Router>> routers_;
  /// links_[node][out], filled in the constructor from fabric_ports.
  std::vector<std::array<Link, kNumPorts>> links_;
  /// The next-hop table, rows_[dst][at]; a row is empty until a packet
  /// is first routed toward dst, and every row is dropped when a link
  /// dies or heals.
  std::vector<std::vector<Hop>> rows_;
  /// Memory-controller nodes (resolved from cfg) and the sink serving
  /// each; sinks_ is indexed by node id, nullptr off the mem nodes.
  std::vector<NodeId> mem_nodes_;
  std::vector<std::uint8_t> is_mem_;
  std::vector<PacketSink*> sinks_;
  NetworkWaker* waker_ = nullptr;
  LocalSink local_sink_;
  NetworkStats stats_;

  // Fault-injection state (src/fault/). All zero on a healthy fabric;
  // the per-port arrays are tiny (n * kNumPorts) and always allocated.
  std::vector<std::array<std::uint8_t, kNumPorts>> link_dead_;
  std::vector<std::array<std::uint32_t, kNumPorts>> link_penalty_;
  std::vector<std::uint32_t> slow_period_;
  std::vector<Cycle> slow_anchor_;
  std::uint32_t num_dead_links_ = 0;  ///< undirected count
};

}  // namespace annoc::noc
