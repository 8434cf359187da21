/// \file sweep_schema.hpp
/// The sweep-spec schema as data, in scenario/schema.hpp's row shape:
/// one `{"key", "type", "default", hand(), "doc"}` KeyInfo row per
/// accepted JSON key. Every key is `hand()`: sweep_spec.cpp reads each
/// by hand through the scenario loader's ObjectReader, which validates
/// against these rows, and tools/gen_config_reference.py renders them
/// as the "Sweep spec schema" tables of docs/CONFIG_REFERENCE.md.
/// docs/EXPERIMENTS.md is the narrative companion ("Sweeping the design
/// space").
#pragma once

#include "scenario/schema.hpp"

namespace annoc::explore {

using scenario::hand;
using scenario::KeyInfo;

/// Top-level sweep-spec keys. A spec names a base scenario and a list
/// of axes; the engine expands them into a deterministic, ordered job
/// list (grid cross product or seeded random samples).
inline constexpr KeyInfo kSweepKeys[] = {
    {"name", "string", "\"\"", hand(),
     "Display name; labels every exported row and the output summary."},
    {"scenario", "string", "\"\"", hand(),
     "Base scenario file, resolved relative to the spec; empty sweeps the library defaults."},
    {"mode", "string", "grid", hand(),
     "Expansion mode: grid (cross product, last axis fastest) or random (seeded samples)."},
    {"samples", "number", "-", hand(),
     "random mode: number of jobs to draw; required there, rejected for grid."},
    {"sweep_seed", "number|string", "1", hand(),
     "random mode: sampling seed (independent of the traffic seed); write seeds above 2^53 as a decimal string."},
    {"axes", "array", "-", hand(),
     "Axes to explore (array of axis objects, at least one)."},
};

/// Keys of one entry of the `axes` array. Exactly one of `values` and
/// `range` picks the candidate list.
inline constexpr KeyInfo kAxisKeys[] = {
    {"key", "string", "-", hand(),
     "Scenario key this axis overrides; must be sweepable (see WORKLOADS.md)."},
    {"values", "array", "-", hand(),
     "Explicit candidate values (scalars, at least one); mutually exclusive with range."},
    {"range", "object", "-", hand(),
     "Evenly spaced numeric candidates; mutually exclusive with values."},
};

/// Keys of an axis `range` object.
inline constexpr KeyInfo kRangeKeys[] = {
    {"from", "number", "-", hand(),
     "First candidate value (inclusive)."},
    {"to", "number", "-", hand(),
     "Last candidate value (inclusive)."},
    {"steps", "number", "-", hand(),
     "Number of evenly spaced candidates including both endpoints (>= 1; 1 means just `from`)."},
};

}  // namespace annoc::explore
