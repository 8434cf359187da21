/// \file latency_bound.hpp
/// Independent checker of the DPQ arbiter's worst-case latency claim.
///
/// The oracle is an obs::EventSink that measures every completed
/// request's arrival-to-completion latency (tail arrival at the
/// controller -> last useful data beat) from nothing but the
/// SubpacketRecord stream and flags any request that exceeds the
/// analytical bound dpq_wcet_bound() derives from the JEDEC timing
/// numbers and the requestor count. It shares no state with
/// DpqSubsystem — only the bound formula — so it validates the arbiter
/// against the theory, not against itself. Attached by the simulator
/// for every controller that resolves to EngineKind::kDpq — on by
/// default, independent of SystemConfig::check, because the bound is
/// the engine's contract; like every checker it only
/// records violations — Simulator::run() prints and aborts at end of
/// run. Compiled out with the rest of the layer under
/// -DANNOC_DISABLE_CHECKS.
///
/// A second constructor takes an explicit Timing, the test hook that
/// lets tests tighten the bound and prove the oracle fires (the +1
/// sensitivity test in tests/dpq_property_test.cpp).
#pragma once

#include "check/violation.hpp"
#include "memctrl/dpq_bound.hpp"
#include "obs/sink.hpp"
#include "sdram/config.hpp"

namespace annoc::check {

class LatencyBoundOracle final : public obs::EventSink {
 public:
  /// Oracle for one DPQ controller: derives Timing the same way the
  /// device does and the bound the same way the arbiter does. Ignores
  /// records whose `channel` is not cfg.channel, so mixed-engine
  /// multi-controller fabrics check only their DPQ channels.
  LatencyBoundOracle(const sdram::DeviceConfig& cfg,
                     std::uint32_t n_requestors, std::uint32_t max_beats,
                     Cycle promote_after = 0);
  /// Test hook: bound computed from an explicit (possibly tightened)
  /// Timing instead of the config-derived one.
  LatencyBoundOracle(const sdram::DeviceConfig& cfg,
                     const sdram::Timing& timing,
                     std::uint32_t n_requestors, std::uint32_t max_beats,
                     Cycle promote_after = 0);

  void on_subpacket(const obs::SubpacketRecord& rec) override;
  [[nodiscard]] std::uint32_t interests() const override {
    return obs::bit(obs::EventKind::kSubpacket);
  }

  [[nodiscard]] bool ok() const { return log_.ok(); }
  [[nodiscard]] const ViolationLog& log() const { return log_; }
  [[nodiscard]] Cycle bound() const { return bound_; }
  [[nodiscard]] std::uint64_t requests_seen() const { return requests_; }
  [[nodiscard]] Cycle worst_latency() const { return worst_; }

 private:
  sdram::DeviceConfig cfg_;
  Cycle bound_ = 0;
  std::uint64_t requests_ = 0;
  Cycle worst_ = 0;
  ViolationLog log_;
};

}  // namespace annoc::check
