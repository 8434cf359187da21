/// \file timing_oracle.hpp
/// Independent JEDEC timing checker for the SDRAM command stream.
///
/// The oracle is an obs::EventSink that re-derives per-bank and
/// device-global state from nothing but the SdramCommandEvent stream and
/// asserts every constraint the DDR I/II/III configs declare: tRCD, tRP,
/// tRAS, tRC, tRRD, tFAW (rolling 4-ACT window), tWTR, tWR, tCCD,
/// tRFC/tREFI, read/write data-bus collision and turnaround,
/// CAS-to-open-row, and the AP-implied self-timed precharge point.
/// It shares no state with sdram::Device — only the `Timing` numbers —
/// so it validates the model against the spec, not against itself.
///
/// A second constructor takes an explicit Timing, the test hook that
/// lets tests/check_test.cpp seed a deliberate off-by-one into any
/// single parameter and prove the oracle flags it.
#pragma once

#include <vector>

#include "check/violation.hpp"
#include "fault/schedule.hpp"
#include "obs/sink.hpp"
#include "sdram/config.hpp"

namespace annoc::check {

class TimingOracle final : public obs::EventSink {
 public:
  /// Oracle for a device configuration; derives Timing the same way the
  /// device does (sdram::make_timing). In a multi-controller fabric the
  /// simulator instantiates one oracle per controller on the shared
  /// event hub; each ignores commands whose `channel` is not its own
  /// (cfg.channel), since every constraint here is per-controller.
  explicit TimingOracle(const sdram::DeviceConfig& cfg);
  /// Test hook: validate the stream against an explicit (possibly
  /// perturbed) Timing instead of the config-derived one.
  TimingOracle(const sdram::DeviceConfig& cfg, const sdram::Timing& timing);

  void on_command(const obs::SdramCommandEvent& e) override;
  [[nodiscard]] std::uint32_t interests() const override {
    return obs::bit(obs::EventKind::kCommand);
  }

  /// Attach this channel's SDRAM fault timeline (refresh storms, bank
  /// throttles). The oracle folds each edge into its constraint set at
  /// the edge's cycle — the same arithmetic the simulator applies to
  /// the Device — so it re-verifies the *faulted* timing, not the
  /// nominal one, and a device that ignored a fault gets flagged. Call
  /// before the first event.
  void set_fault_timeline(const fault::SdramFaultTimeline& timeline);

  [[nodiscard]] bool ok() const { return log_.ok(); }
  [[nodiscard]] const ViolationLog& log() const { return log_; }
  [[nodiscard]] std::uint64_t commands_seen() const { return commands_; }
  [[nodiscard]] std::uint64_t refreshes_seen() const { return refreshes_; }
  [[nodiscard]] const sdram::Timing& timing() const { return t_; }

 private:
  /// Everything the oracle knows about one bank, rebuilt from events.
  struct BankView {
    bool open = false;
    bool seen_act = false;   ///< any ACT observed (guards tRC on the first)
    std::uint32_t row = 0;
    Cycle act_at = 0;        ///< cycle of the activation that opened `row`
    /// Fault extra in effect when `row` was opened: the device folds it
    /// into tRCD at the ACT, so a throttle toggled between ACT and CAS
    /// must not change the expectation retroactively.
    std::uint32_t act_extra_trcd = 0;
    Cycle ready_for_act = 0; ///< earliest legal next ACT (tRP / tRFC)
    const char* ready_rule = "tRP";  ///< which rule `ready_for_act` enforces
    Cycle last_read_cas = 0;
    Cycle write_data_end = 0;
    bool has_read = false;
    bool has_write = false;
    bool ap_armed = false;
    Cycle ap_expected = 0;   ///< oracle-recomputed self-timed PRE start
  };

  void check_activate(const obs::SdramCommandEvent& e);
  void check_cas(const obs::SdramCommandEvent& e);
  void check_precharge(const obs::SdramCommandEvent& e);
  void check_auto_precharge(const obs::SdramCommandEvent& e);
  void check_refresh(const obs::SdramCommandEvent& e);
  void close_bank(BankView& bk, Cycle at, std::uint32_t bank);
  /// Apply every fault-timeline edge with cycle <= `at` (edges are
  /// applied by the simulator at the top of their cycle, before any
  /// device activity of that cycle).
  void fold_fault_edges(Cycle at);
  /// Worst-case cycles the refresh drain may legally take past its arm
  /// point (forced precharges waiting on tRAS/tWR/tRTP, then tRP, then
  /// the data bus going idle).
  [[nodiscard]] Cycle refresh_drain_slack() const;

  sdram::DeviceConfig cfg_;
  sdram::Timing t_;
  std::vector<BankView> banks_;

  Cycle last_event_at_ = 0;             ///< event-stream monotonicity
  Cycle last_bus_at_ = kNeverCycle;     ///< one command per cycle
  const char* last_bus_what_ = "";
  Cycle last_cas_ = kNeverCycle;        ///< tCCD
  Cycle last_act_ = kNeverCycle;        ///< tRRD
  Cycle act_ring_[4] = {kNeverCycle, kNeverCycle, kNeverCycle, kNeverCycle};
  std::size_t act_ring_pos_ = 0;        ///< tFAW rolling window
  Cycle data_busy_until_ = 0;
  bool have_data_dir_ = false;
  bool data_dir_is_read_ = true;
  Cycle last_write_data_end_ = 0;       ///< tWTR (global, like the device)

  std::uint64_t refreshes_ = 0;
  Cycle last_ref_at_ = 0;
  /// Incremental refresh arm point, mirroring the device's
  /// `next_refresh_` arithmetic (init tREFI; += the tREFI in effect at
  /// each REF; min-pulled at every tREFI fault edge). The closed form
  /// (k+1)*tREFI cannot express a mid-run tREFI change.
  Cycle next_arm_ = 0;
  std::uint64_t commands_ = 0;

  // Fault timeline for this channel (empty when fault-free).
  fault::SdramFaultTimeline fault_timeline_;
  std::size_t fault_cursor_ = 0;
  std::vector<std::uint32_t> fault_extra_trcd_;
  std::vector<std::uint32_t> fault_extra_trp_;

  ViolationLog log_;
};

}  // namespace annoc::check
