#include "noc/topology.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/assert.hpp"
#include "noc/network.hpp"

namespace annoc::noc {

std::optional<NodeId> TopologySpec::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < node_names.size(); ++i) {
    if (node_names[i] == name) return static_cast<NodeId>(i);
  }
  return std::nullopt;
}

std::string TopologyIssue::message(const TopologySpec& spec) const {
  const auto name = [&](std::size_t i) {
    return i < spec.node_names.size() ? spec.node_names[i]
                                      : "#" + std::to_string(i);
  };
  switch (kind) {
    case Kind::kNone:
      return "ok";
    case Kind::kNoNodes:
      return "topology has no nodes";
    case Kind::kDuplicateName:
      return "duplicate node name '" + name(node) + "'";
    case Kind::kDanglingLink:
      return "link " + std::to_string(link) +
             " references node index " + std::to_string(node) +
             " but only " + std::to_string(spec.num_nodes()) +
             " nodes are declared";
    case Kind::kSelfLink:
      return "link " + std::to_string(link) + " connects '" + name(node) +
             "' to itself";
    case Kind::kDuplicateLink:
      return "link " + std::to_string(link) + " duplicates an earlier link";
    case Kind::kDegreeOverflow:
      return "node '" + name(node) +
             "' needs more than 4 links (router ports are N/E/S/W)";
    case Kind::kUnreachable:
      return "node '" + name(node) + "' is unreachable from '" + name(0) +
             "' — the topology must be connected";
  }
  return "?";
}

TopologyIssue validate_topology(const TopologySpec& spec) {
  using Kind = TopologyIssue::Kind;
  const std::size_t n = spec.num_nodes();
  if (n == 0) return {Kind::kNoNodes};

  {
    std::set<std::string_view> seen;
    for (std::size_t i = 0; i < n; ++i) {
      if (!seen.insert(spec.node_names[i]).second) {
        return {Kind::kDuplicateName, i};
      }
    }
  }

  std::vector<std::uint8_t> degree(n, 0);
  std::set<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t li = 0; li < spec.links.size(); ++li) {
    const TopologySpec::Edge& e = spec.links[li];
    if (e.a >= n) return {Kind::kDanglingLink, e.a, li};
    if (e.b >= n) return {Kind::kDanglingLink, e.b, li};
    if (e.a == e.b) return {Kind::kSelfLink, e.a, li};
    const auto key = std::minmax(e.a, e.b);
    if (!pairs.insert({key.first, key.second}).second) {
      return {Kind::kDuplicateLink, e.a, li};
    }
    for (const NodeId end : {e.a, e.b}) {
      if (degree[end] == 4) return {Kind::kDegreeOverflow, end, li};
      ++degree[end];
    }
  }

  // Connectivity from node 0 (any component not containing 0 would be
  // a partition that can never reach the rest of the fabric).
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<NodeId> frontier{0};
  seen[0] = 1;
  while (!frontier.empty()) {
    const NodeId at = frontier.back();
    frontier.pop_back();
    for (const TopologySpec::Edge& e : spec.links) {
      const NodeId other =
          e.a == at ? e.b : (e.b == at ? e.a : kInvalidNode);
      if (other != kInvalidNode && !seen[other]) {
        seen[other] = 1;
        frontier.push_back(other);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!seen[i]) return {Kind::kUnreachable, i};
  }
  return {};
}

TopologyPorts assign_ports(const TopologySpec& spec) {
  ANNOC_ASSERT_MSG(validate_topology(spec).ok(),
                   "assign_ports needs a validated topology");
  TopologyPorts ports;
  ports.slots.resize(spec.num_nodes());
  const auto lowest_free = [&](NodeId node) -> std::uint8_t {
    for (std::uint8_t s = 0; s < 4; ++s) {
      if (ports.slots[node][s].nb == kInvalidNode) return s;
    }
    ANNOC_ASSERT_MSG(false, "degree overflow past validation");
    return 0;
  };
  for (const TopologySpec::Edge& e : spec.links) {
    const std::uint8_t sa = lowest_free(e.a);
    const std::uint8_t sb = lowest_free(e.b);
    ports.slots[e.a][sa] = {e.b, sb};
    ports.slots[e.b][sb] = {e.a, sa};
  }
  return ports;
}

TopologyPorts fabric_ports(const NocConfig& cfg) {
  if (cfg.topology != nullptr) return assign_ports(*cfg.topology);
  const std::uint32_t w = cfg.width, h = cfg.height;
  TopologyPorts ports;
  ports.slots.resize(static_cast<std::size_t>(w) * h);
  // Slot s is port kPortNorth + s; a grid link faces back through the
  // opposite direction.
  for (NodeId id = 0; id < ports.slots.size(); ++id) {
    const std::uint32_t x = id % w, y = id / w;
    std::array<TopologyPorts::Slot, 4>& s = ports.slots[id];
    if (y > 0) s[0] = {id - w, 2};
    if (x + 1 < w) s[1] = {id + 1, 3};
    if (y + 1 < h) s[2] = {id + w, 0};
    if (x > 0) s[3] = {id - 1, 1};
  }
  return ports;
}

}  // namespace annoc::noc
