/// \file workloads.hpp
/// The benchmark's four workloads and how their inputs are loaded from
/// the files under benchmark/workloads/.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/system_config.hpp"
#include "explore/sweep_spec.hpp"

namespace annoc::benchmark {

struct WorkloadDef {
  std::string name;
  std::string file;  ///< under the inputs directory
  bool is_sweep = false;
  /// The traced pass records every `trace_stride`-th job (plus the
  /// representative one's scheduler legs): enough to attribute time per
  /// layer without replaying a whole pass.
  std::size_t trace_stride = 1;
};

[[nodiscard]] const std::vector<WorkloadDef>& workloads();
[[nodiscard]] const WorkloadDef* find_workload(const std::string& name);

/// A workload's inputs, turned into runnable configs. Simulation
/// workloads fill `configs`; sweep_dse fills `sweep` (its jobs expand
/// through explore::SweepSpec::job_config).
struct Inputs {
  std::vector<core::SystemConfig> configs;
  std::optional<explore::SweepSpec> sweep;
  /// Job re-run under each scheduler and with checks off in the traced
  /// pass.
  std::size_t representative = 0;

  [[nodiscard]] std::size_t job_count() const {
    return sweep ? static_cast<std::size_t>(sweep->job_count())
                 : configs.size();
  }
  [[nodiscard]] core::SystemConfig job_config(std::size_t i) const {
    return sweep ? sweep->job_config(i) : configs[i];
  }
};

/// Load and expand a workload's inputs. `seed` becomes every job's
/// traffic seed; `smoke` cuts every run to about 1/50 of its length.
/// Throws annoc::ParseError on a malformed input file.
[[nodiscard]] Inputs load_inputs(const WorkloadDef& w,
                                 const std::string& inputs_dir,
                                 std::uint64_t seed, bool smoke);

}  // namespace annoc::benchmark
