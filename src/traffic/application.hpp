/// \file application.hpp
/// The paper's three industrial multimedia applications (Section V):
/// a Blu-ray player model (9 cores), a single-DTV model (9 cores) and a
/// dual-DTV model (16 cores), mapped onto 3x3 / 3x3 / 4x4 meshes with
/// the memory subsystem off a corner (Fig. 7).
///
/// The paper maps cores with A3MAP [28]; we reproduce its effect —
/// bandwidth-hungry cores land close to the memory corner — with a
/// greedy bandwidth-ordered placement (documented substitution, see
/// DESIGN.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "noc/network.hpp"
#include "traffic/core_spec.hpp"

namespace annoc::traffic {

enum class AppId : std::uint8_t { kBluray, kSingleDtv, kDualDtv };

[[nodiscard]] inline const char* to_string(AppId a) {
  switch (a) {
    case AppId::kBluray: return "Blu-ray";
    case AppId::kSingleDtv: return "Single DTV";
    case AppId::kDualDtv: return "Dual DTV";
  }
  return "?";
}

/// Scenario-file tokens of the applications (`app`, and the application
/// argument of the example CLIs).
inline constexpr Token<AppId> kAppTokenList[] = {
    {"bluray", AppId::kBluray},
    {"sdtv", AppId::kSingleDtv},
    {"ddtv", AppId::kDualDtv},
};
inline constexpr TokenSet<AppId> kAppTokens{"application", kAppTokenList};

struct CorePlacement {
  CoreSpec spec;
  NodeId node = kInvalidNode;
};

struct Application {
  std::string name;
  noc::NocConfig noc;
  std::vector<CorePlacement> cores;

  /// Sum of offered useful payload over all cores (bytes/cycle).
  [[nodiscard]] double offered_bytes_per_cycle() const {
    double total = 0;
    for (const CorePlacement& c : cores) total += c.spec.bytes_per_cycle;
    return total;
  }
};

/// Build an application model. Regions are laid out disjointly;
/// placement puts high-bandwidth cores nearest the memory corner.
[[nodiscard]] Application build_application(AppId id);

/// Place `specs` on the mesh with the greedy bandwidth-ordered
/// substitution for A3MAP (heaviest placement weight closest to the
/// memory corner; see DESIGN.md). Core address regions are used as
/// given — callers lay them out. Requires specs.size() == width *
/// height. Exposed for the scenario loader, which auto-places custom
/// SoCs whose cores carry no explicit node.
[[nodiscard]] Application place_application(std::string name,
                                            const noc::NocConfig& noc,
                                            std::vector<CoreSpec> specs);

/// Re-tile `base` onto a `width` x `height` mesh (the scaling knob
/// behind SystemConfig::mesh_preset): its core specs repeat round-robin
/// until every node hosts one core (replica k of core "x" is named
/// "x#k"), address regions are re-laid out back-to-back so replicas
/// stay disjoint, and the bandwidth-ordered placement reruns on the new
/// geometry with the memory corner reset to node 0. Any custom
/// mem_nodes/topology on the base config are dropped — callers set
/// those after tiling.
[[nodiscard]] Application tile_application(const Application& base,
                                           std::uint32_t width,
                                           std::uint32_t height);

}  // namespace annoc::traffic
