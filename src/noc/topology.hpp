/// \file topology.hpp
/// File-defined network topologies: named nodes, explicit bidirectional
/// links (the garnet Topology/FileTopology pattern), and the port
/// layout every fabric shares.
///
/// A TopologySpec is pure data — the scenario loader builds one from a
/// `topology` object (inline or a separate file) with positioned
/// diagnostics. `fabric_ports` lays any fabric out as N/E/S/W link
/// slots: a mesh gets its geometric grid ports, a file topology gives
/// each link the lowest free slot on both endpoints in declaration order
/// (so a node's degree is bounded by 4, matching the router's physical
/// ports). `Network` builds its links and its next-hop table from that
/// one layout. See docs/TOPOLOGIES.md.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace annoc::noc {

struct NocConfig;  // noc/network.hpp

/// An irregular topology: nodes identified by index (names are labels
/// for scenario files and diagnostics), links undirected.
struct TopologySpec {
  struct Edge {
    NodeId a = 0;
    NodeId b = 0;
  };

  std::vector<std::string> node_names;  ///< index == NodeId
  std::vector<Edge> links;

  [[nodiscard]] std::size_t num_nodes() const { return node_names.size(); }

  /// Index of a named node; nullopt when absent.
  [[nodiscard]] std::optional<NodeId> index_of(std::string_view name) const;
};

/// Per-node link slots after assignment: slot s (0..3) maps onto router
/// port kPortNorth + s. `nb == kInvalidNode` marks a free slot.
struct TopologyPorts {
  struct Slot {
    NodeId nb = kInvalidNode;
    std::uint8_t nb_slot = 0;  ///< slot index on the neighbour side
  };
  std::vector<std::array<Slot, 4>> slots;  ///< indexed by node
};

/// Structural problems a spec can have, reported value-level (the
/// scenario loader re-checks key-by-key so its errors carry file
/// positions; this is the shared ground truth and the API for
/// programmatic construction).
struct TopologyIssue {
  enum class Kind : std::uint8_t {
    kNone,
    kNoNodes,
    kDuplicateName,   ///< `node` = the second occurrence's index
    kDanglingLink,    ///< `link` endpoint >= num_nodes
    kSelfLink,        ///< `link` with a == b
    kDuplicateLink,   ///< same unordered pair twice
    kDegreeOverflow,  ///< `node` needs a fifth link slot
    kUnreachable,     ///< `node` not connected to node 0
  };
  Kind kind = Kind::kNone;
  std::size_t node = 0;  ///< offending node index (kind-dependent)
  std::size_t link = 0;  ///< offending link index (kind-dependent)

  [[nodiscard]] bool ok() const { return kind == Kind::kNone; }
  [[nodiscard]] std::string message(const TopologySpec& spec) const;
};

/// First structural issue found, in a deterministic order (names, then
/// links in declaration order, then connectivity). ok() when sound.
[[nodiscard]] TopologyIssue validate_topology(const TopologySpec& spec);

/// Assign each link the lowest free direction slot on both endpoints,
/// in declaration order. Asserts the spec validates.
[[nodiscard]] TopologyPorts assign_ports(const TopologySpec& spec);

/// The link slots of the fabric `cfg` describes: geometric N/E/S/W
/// grid ports on a mesh (row-major ids, y growing southward),
/// assign_ports on a file topology.
[[nodiscard]] TopologyPorts fabric_ports(const NocConfig& cfg);

}  // namespace annoc::noc
