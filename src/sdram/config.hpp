/// \file config.hpp
/// DDR generation parameter sets and cycle-domain timing derivation.
///
/// Analog timings are stored in nanoseconds (they are properties of the
/// DRAM core and do not scale with the interface clock) and converted to
/// clock cycles for a given operating frequency; tCCD and write latency
/// behave per-generation as in JEDEC (tCCD is a fixed cycle count).
/// This is how the paper's observation arises that "short turn-around
/// bank interleaving" only matters at high clocks: tWR + tRP is a fixed
/// number of nanoseconds, hence many more cycles at 800 MHz than at
/// 200 MHz.
#pragma once

#include <cstdint>

#include "common/tokens.hpp"
#include "common/types.hpp"

namespace annoc::sdram {

enum class DdrGeneration : std::uint8_t { kDdr1, kDdr2, kDdr3 };

[[nodiscard]] inline const char* to_string(DdrGeneration g) {
  switch (g) {
    case DdrGeneration::kDdr1: return "DDR I";
    case DdrGeneration::kDdr2: return "DDR II";
    case DdrGeneration::kDdr3: return "DDR III";
  }
  return "?";
}

/// Scenario-file tokens of the generations: `ddr` is written as the
/// number 1, 2 or 3.
inline constexpr Token<DdrGeneration> kDdrTokenList[] = {
    {"1", DdrGeneration::kDdr1},
    {"2", DdrGeneration::kDdr2},
    {"3", DdrGeneration::kDdr3},
};
inline constexpr TokenSet<DdrGeneration> kDdrTokens{"ddr generation",
                                                    kDdrTokenList};

/// Burst-length operating mode programmed via MRS (plus DDR III's
/// on-the-fly selection).
enum class BurstMode : std::uint8_t {
  kBl4,     ///< every CAS moves 4 beats
  kBl8,     ///< every CAS moves 8 beats
  kBl4Otf,  ///< DDR III on-the-fly: each CAS chooses 4 or 8 beats
};

/// Device geometry (per paper: one shared 32-bit DDR device/channel).
struct Geometry {
  std::uint32_t num_banks = 4;
  std::uint32_t rows_per_bank = 8192;
  std::uint32_t cols_per_row = 1024;  ///< in device words
  std::uint32_t bus_bytes = 4;        ///< data bus width (32 bits)
};

/// Analog timing specification in nanoseconds plus cycle-fixed fields.
struct TimingSpecNs {
  double cl_ns;    ///< CAS (read) latency
  double cwl_ns;   ///< CAS write latency (DDR2/3); DDR1 uses 1 cycle
  double trcd_ns;  ///< ACT -> CAS
  double trp_ns;   ///< PRE -> ACT
  double tras_ns;  ///< ACT -> PRE (min)
  double twr_ns;   ///< end of write data -> PRE
  double twtr_ns;  ///< end of write data -> read CAS
  double trtp_ns;  ///< read CAS -> PRE
  double trrd_ns;  ///< ACT -> ACT, different banks
  double tfaw_ns;  ///< four-activate window
  double trfc_ns;  ///< refresh cycle time
  double trefi_ns; ///< average refresh interval
  std::uint32_t tccd_cycles;  ///< CAS -> CAS, fixed in cycles per JEDEC
  bool wl_is_one_cycle;       ///< DDR1: write latency is 1 tCK
};

/// All timings in clock cycles at a specific operating frequency.
struct Timing {
  std::uint32_t cl = 0;
  std::uint32_t cwl = 0;
  std::uint32_t trcd = 0;
  std::uint32_t trp = 0;
  std::uint32_t tras = 0;
  std::uint32_t twr = 0;
  std::uint32_t twtr = 0;
  std::uint32_t trtp = 0;
  std::uint32_t trrd = 0;
  std::uint32_t tfaw = 0;
  std::uint32_t trfc = 0;
  std::uint64_t trefi = 0;
  std::uint32_t tccd = 1;
  std::uint32_t bus_turnaround = 1;  ///< idle cycles when data bus reverses
};

/// Reference JEDEC-style spec for a generation.
[[nodiscard]] TimingSpecNs reference_spec(DdrGeneration gen);

/// Derive cycle-domain timings: ceil(ns * MHz / 1000), minimum 1 cycle
/// except where zero is meaningful.
[[nodiscard]] Timing make_timing(DdrGeneration gen, double clock_mhz);

/// Default geometry per generation (DDR I devices commonly had 4 banks;
/// DDR II/III have 8).
[[nodiscard]] Geometry default_geometry(DdrGeneration gen);

/// Beats moved by one CAS in a mode (the fixed access granularity).
[[nodiscard]] inline std::uint32_t beats_per_cas(BurstMode m) {
  return m == BurstMode::kBl8 ? 8u : 4u;  // OTF treated as BL4-capable
}

/// Full device configuration.
struct DeviceConfig {
  DdrGeneration generation = DdrGeneration::kDdr2;
  double clock_mhz = 400.0;
  BurstMode burst_mode = BurstMode::kBl8;
  Geometry geometry{};
  bool refresh_enabled = false;  ///< uniform across design points; see DESIGN.md
  /// Which controller this device belongs to in a multi-controller
  /// fabric; stamped into every emitted SdramCommandEvent so the
  /// per-channel checkers/counters can demultiplex one shared hub.
  std::uint32_t channel = 0;
};

}  // namespace annoc::sdram
