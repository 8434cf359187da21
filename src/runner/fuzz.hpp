/// \file fuzz.hpp
/// Randomized differential testing: generate random-but-valid
/// SystemConfigs and run each one under both schedulers (dense and
/// event), serially and through ExperimentRunner workers, with the
/// self-checking layer (src/check/) attached. Every execution must
/// produce bit-identical Metrics and pass the checkers; any divergence
/// is a determinism bug, any checker abort a protocol bug.
/// Consumed by tests/fuzz_sim_test.cpp (fixed default seed in CI) and
/// bench/fuzz_sweep.cpp (--seed/--runs sweep driver).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/simulator.hpp"

namespace annoc::runner {

/// Derive a random valid SystemConfig from a fuzz seed. Every knob the
/// paper sweeps is sampled from its legal range: application, DDR
/// generation + a matching clock, priority mode, response-path
/// modelling, refresh, adaptive routing, virtual channels, PCT,
/// address-map chunking, SAGM granularity, engine ablation knobs and
/// the Fig. 8 GSS-router count. The design point is left at its
/// default — callers pair the config with each entry of
/// fuzz_design_points(). Runs are kept short (a few thousand cycles)
/// so a 25-seed sweep stays in CI budget. check is always on.
[[nodiscard]] core::SystemConfig random_config(std::uint64_t seed);

/// The four design points a fuzz seed exercises: the conventional
/// baseline, the [4] reference, GSS, and (alternating by seed parity)
/// GSS+SAGM or GSS+SAGM+STI.
[[nodiscard]] std::array<core::DesignPoint, 4> fuzz_design_points(
    std::uint64_t seed);

/// Run `cfg` under both schedulers and cross-check:
///   1. run_simulation(cfg) with sched = dense and with sched = event
///      must agree on every Metrics field, bitwise;
///   2. a 2-worker ExperimentRunner over both variants, and an
///      oversubscribed streaming runner, must reproduce the serial
///      results exactly;
///   3. every result must satisfy the metrics sanity bounds
///      (utilization in [0,1] and <= raw, subpackets >= requests,
///      measured window == sim_cycles, accounting identities).
/// The self-checkers abort the process on a protocol violation, so a
/// clean return also certifies JEDEC-timing and conservation cleanness.
/// Returns "" on success, else a description of the first mismatch.
[[nodiscard]] std::string run_differential(const core::SystemConfig& cfg);

/// Convenience: run_differential() across the seed's four design
/// points, then across two explicit-engine legs (the `engine` knob
/// decouples the arbiter from the design point): one always runs the
/// DPQ bounded-latency arbiter — whose latency-bound oracle rides
/// along in every differential run — and one crosses conv/streamlined
/// onto the other family's design point. Returns "" on success, else
/// the failure tagged with the offending design point (and engine).
[[nodiscard]] std::string fuzz_seed(std::uint64_t seed);

/// Random-fault leg: layer a deterministic random fault schedule
/// (src/fault/) on top of the seed's derived config and re-run the
/// full differential. The fault window is squeezed into the short
/// fuzz run (activations land mid-measurement, alternating
/// permanent and transient by seed), the deadlock watchdog is armed,
/// and check stays on — so a clean return certifies that faulted runs
/// are bit-identical across sched modes, that the TimingOracle
/// verifies the *faulted* SDRAM constraints, and that the watchdog
/// never fires on a live fabric. Returns "" on success.
[[nodiscard]] std::string fuzz_fault_seed(std::uint64_t seed);

/// Derive an idle-heavy config from a fuzz seed, on its own random
/// stream (random_config's draws, and so its pinned seeds, stay put).
/// A custom 2x2 or 3x3 application whose cores use the random, bursty
/// or frame pattern at 0.001-0.5 B/cycle, open- or closed-loop, so the
/// event scheduler jumps long gated and idle gaps and catches the
/// generators' credit up in closed form. Runs are tens of thousands of
/// cycles to cover several bursts and frames. check is always on.
[[nodiscard]] core::SystemConfig random_idle_config(std::uint64_t seed);

/// Idle leg: run_differential() on random_idle_config(seed). Returns
/// "" on success, else the failure tagged with the seed.
[[nodiscard]] std::string fuzz_idle_seed(std::uint64_t seed);

}  // namespace annoc::runner
