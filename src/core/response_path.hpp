/// \file response_path.hpp
/// Optional read-response network.
///
/// The paper's evaluation measures the request path (where all the
/// scheduling happens) and treats read-data return as out of scope; by
/// default this library does the same. With
/// `SystemConfig::model_response_path` set, read data physically
/// returns: the memory subsystem serializes response packets out of its
/// output buffer onto a dedicated response mesh (same topology,
/// round-robin routers — responses carry no SDRAM-ordering value), and
/// a read request only completes at its core once the data lands. SoCs
/// commonly run separate request/response networks precisely so that
/// responses never interfere with request scheduling, which is why the
/// default-off simplification is faithful.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "noc/network.hpp"

namespace annoc::core {

class ResponsePath {
 public:
  /// `cfg` — topology shared with the request network. Every memory
  /// node (one per controller) gets its own response-injection link and
  /// backlog: controllers return read data independently, serialized
  /// only over their own port.
  explicit ResponsePath(const noc::NocConfig& cfg);

  /// Called with each delivered response and the delivery cycle.
  void set_on_delivered(std::function<void(noc::Packet&&, Cycle)> cb) {
    on_delivered_ = std::move(cb);
  }

  /// Queue the response for a serviced read subpacket. The response
  /// carries the read data (same flit count) from the serving memory
  /// node (served.dst_node) back to the requesting core.
  void queue_response(const noc::Packet& served, Cycle now);

  /// Inject backlog (one packet at a time over each controller's
  /// response port) and advance the response mesh by one cycle.
  void tick(Cycle now);

  /// Earliest future cycle (>= now) the response path can act: inject
  /// any controller's backlog or move a packet inside the response
  /// mesh. kNeverCycle when fully drained.
  [[nodiscard]] Cycle next_event(Cycle now) const;

  [[nodiscard]] const noc::Network& network() const { return net_; }
  [[nodiscard]] noc::Network& network() { return net_; }
  /// Responses queued across all controllers.
  [[nodiscard]] std::size_t backlog() const {
    std::size_t n = 0;
    for (const auto& b : backlogs_) n += b.size();
    return n;
  }

 private:
  noc::NocConfig cfg_;
  noc::Network net_;
  /// One backlog and one injection link per controller (index ==
  /// channel, matching net_.mem_nodes()).
  std::vector<std::deque<noc::Packet>> backlogs_;
  std::vector<Cycle> link_free_at_;
  std::function<void(noc::Packet&&, Cycle)> on_delivered_;
};

}  // namespace annoc::core
