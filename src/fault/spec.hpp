/// \file spec.hpp
/// Fault kinds and the per-fault parameter record. A FaultSpec is pure
/// data: the scenario loader builds them from the `faults` array (and
/// FaultSchedule::build derives more from the `fault.*` random knobs);
/// the simulator applies them at their activation/deactivation cycles
/// through narrow primitive hooks on Network and Device, so the noc and
/// sdram layers never depend on this library. See docs/RESILIENCE.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/tokens.hpp"
#include "common/types.hpp"

namespace annoc::fault {

/// What breaks. The set follows garnet's FaultModel categories, mapped
/// onto this simulator's abstractions.
enum class FaultKind : std::uint8_t {
  kDeadLink,        ///< a router-router link disappears (both directions)
  kDegradedLink,    ///< each packet crossing the link pays extra cycles
  kSlowRouter,      ///< a router arbitrates only every k-th cycle
  kRefreshStorm,    ///< one channel's tREFI temporarily tightens
  kThrottledBanks,  ///< selected banks pay inflated tRCD/tRP
};

inline constexpr Token<FaultKind> kFaultKindTokenList[] = {
    {"dead_link", FaultKind::kDeadLink},
    {"degraded_link", FaultKind::kDegradedLink},
    {"slow_router", FaultKind::kSlowRouter},
    {"refresh_storm", FaultKind::kRefreshStorm},
    {"throttled_banks", FaultKind::kThrottledBanks},
};
inline constexpr TokenSet<FaultKind> kFaultKindTokens{"fault kind",
                                                      kFaultKindTokenList};

[[nodiscard]] inline const char* to_string(FaultKind k) {
  return kFaultKindTokens.name(k);
}

/// A parsed `fault.kinds` list: "all" or "" name every kind, otherwise
/// comma-separated kind tokens (blanks around a token are ignored), kept
/// in list order.
struct FaultKindList {
  std::vector<FaultKind> kinds;
  std::string unknown;  ///< the first token that names no kind, if any
};

[[nodiscard]] inline FaultKindList parse_fault_kinds(std::string_view list) {
  FaultKindList out;
  if (list == "all" || list.empty()) {
    for (const Token<FaultKind>& t : kFaultKindTokens.tokens) {
      out.kinds.push_back(t.value);
    }
    return out;
  }
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    std::string_view tok = list.substr(0, comma);
    list = comma == std::string_view::npos ? std::string_view{}
                                           : list.substr(comma + 1);
    while (!tok.empty() && tok.front() == ' ') tok.remove_prefix(1);
    while (!tok.empty() && tok.back() == ' ') tok.remove_suffix(1);
    if (tok.empty()) continue;
    const std::optional<FaultKind> k = kFaultKindTokens.parse(tok);
    if (!k) {
      out.unknown = tok;
      return out;
    }
    out.kinds.push_back(*k);
  }
  return out;
}

/// One fault: what, when, and the kind-specific parameters. Fields not
/// used by `kind` are ignored.
struct FaultSpec {
  FaultKind kind = FaultKind::kDeadLink;
  Cycle at = 0;     ///< activation cycle
  Cycle until = 0;  ///< deactivation cycle; 0 = permanent

  // kDeadLink / kDegradedLink: the undirected link (a, b).
  NodeId a = 0;
  NodeId b = 0;
  /// kDegradedLink: extra cycles every packet crossing the link pays.
  std::uint32_t penalty = 8;

  // kSlowRouter.
  NodeId router = 0;
  std::uint32_t period = 4;  ///< arbitrate every `period`-th cycle

  // kRefreshStorm / kThrottledBanks.
  std::uint32_t channel = 0;
  std::uint64_t trefi = 0;  ///< kRefreshStorm: tightened tREFI in cycles
  std::uint64_t bank_mask = ~0ull;  ///< kThrottledBanks: affected banks
  std::uint32_t extra_trcd = 0;     ///< kThrottledBanks: added to tRCD
  std::uint32_t extra_trp = 0;      ///< kThrottledBanks: added to tRP
};

}  // namespace annoc::fault
