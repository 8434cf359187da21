/// \file scenario.hpp
/// Declarative workloads: load a complete experiment point — design
/// point, SDRAM generation and clock, windows, and either one of the
/// paper's applications or a fully custom core set — from a JSON file,
/// no code required. The schema lives in schema.hpp as one row per key,
/// `{"key", "type", "default", "doc", binding}`: parse, dump, sweep
/// overrides and docs/CONFIG_REFERENCE.md all read the binding (the
/// struct member, its kind and range, whether a sweep may set it). A
/// new scalar knob is a struct member plus one row; only the
/// structural keys (workload, fabric, placement, faults) are parsed by
/// hand. docs/WORKLOADS.md is the narrative guide; checked-in examples
/// are under scenarios/. All validation errors throw annoc::ParseError
/// carrying file, line and the offending key.
#pragma once

#include <string>
#include <string_view>

#include "core/system_config.hpp"
#include "scenario/json.hpp"

namespace annoc::scenario {

/// A loaded scenario: the display name plus the fully-resolved config
/// (config.custom_app is populated for custom core sets, empty for the
/// paper's three applications).
struct Scenario {
  std::string name;
  core::SystemConfig config;
};

/// Parse a scenario document. `origin` labels errors (file path or a
/// pseudo-name like "<string>"). `base_dir` resolves a relative
/// file-path-valued `topology` key (empty = current directory);
/// replay_trace is taken verbatim either way.
[[nodiscard]] Scenario parse_scenario(std::string_view text,
                                      const std::string& origin,
                                      const std::string& base_dir = "");

/// Read and parse a scenario file. A relative replay_trace is resolved
/// against the scenario file's directory, so scenarios ship alongside
/// their traces. Throws annoc::ParseError (also for an unreadable
/// file).
[[nodiscard]] Scenario load_scenario(const std::string& path);

/// True when `key` is a top-level scenario key a sweep axis may
/// override, as its schema row says: every scalar SystemConfig knob
/// (design, ddr, clock_mhz, seed, pct, ...) plus `app`. Workload
/// structure (name, mesh, cores, topology, memory, faults) and output
/// paths (trace_path, record_trace, replay_trace, perfetto_path) are
/// not sweepable — thousands of jobs would fight over one file.
/// Unknown keys return false.
[[nodiscard]] bool is_sweepable_key(std::string_view key);

/// Apply the members of an already-parsed JSON object (one sweep
/// point) onto an existing config, reusing the scenario loader's
/// validation: unknown keys, wrong types, out-of-range values and
/// non-sweepable keys all throw annoc::ParseError positioned at the
/// offending member. Absent keys keep their current value, so a point
/// perturbs exactly the knobs it names. `app` is accepted unless the
/// base config carries a custom core set.
void apply_overrides(core::SystemConfig& cfg, const JsonValue& point,
                     const std::string& origin);

/// Serialize a scenario to canonical JSON: every key explicit, schema
/// order, integers undecorated and doubles via %.17g, custom cores with
/// resolved nodes and regions. parse_scenario(dump_scenario(s)) yields
/// an identical scenario AND an identical dump — the loader round-trip
/// contract tests/scenario_test.cpp enforces.
[[nodiscard]] std::string dump_scenario(const Scenario& s);

}  // namespace annoc::scenario
