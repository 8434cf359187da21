#include "workloads.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/parse_error.hpp"
#include "scenario/scenario.hpp"

namespace annoc::benchmark {

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> kAll = {
      {"paper_tables", "paper_tables.json", false, 7},
      {"fabric_16x16", "fabric_16x16.json", false, 1},
      {"frame_idle", "frame_idle.json", false, 1},
      {"sweep_dse", "sweep_dse.json", true, 12},
  };
  return kAll;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

void shorten(core::SystemConfig& cfg) {
  cfg.sim_cycles = std::max<Cycle>(cfg.sim_cycles / 50, 1000);
  cfg.warmup_cycles /= 50;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError(path, 0, 0, "", "cannot read file");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// paper_tables.json: {"base": {overrides}, "representative": i,
/// "jobs": [{"table": ..., "point": {overrides}}, ...]}, every override
/// object applied through the scenario loader's own validation.
Inputs load_job_list(const std::string& path) {
  const scenario::JsonValue doc =
      scenario::parse_json(read_file(path), path);
  const scenario::JsonMember* base = doc.find("base");
  const scenario::JsonMember* jobs = doc.find("jobs");
  const scenario::JsonMember* rep = doc.find("representative");
  if (base == nullptr || jobs == nullptr || rep == nullptr ||
      !jobs->value().is(scenario::JsonKind::kArray) ||
      !rep->value().is(scenario::JsonKind::kNumber)) {
    throw ParseError(path, doc.line, doc.column, "",
                     "expected \"base\", \"representative\" and a \"jobs\" "
                     "array");
  }
  core::SystemConfig base_cfg;
  scenario::apply_overrides(base_cfg, base->value(), path);
  Inputs in;
  for (const scenario::JsonValue& job : jobs->value().array) {
    const scenario::JsonMember* point = job.find("point");
    if (point == nullptr) {
      throw ParseError(path, job.line, job.column, "point", "missing");
    }
    core::SystemConfig cfg = base_cfg;
    scenario::apply_overrides(cfg, point->value(), path);
    in.configs.push_back(std::move(cfg));
  }
  const double r = rep->value().number;
  if (!(r >= 0.0 && r < static_cast<double>(in.configs.size()))) {
    throw ParseError(path, rep->line, rep->column, "representative",
                     "not a job index");
  }
  in.representative = static_cast<std::size_t>(r);
  return in;
}

}  // namespace

Inputs load_inputs(const WorkloadDef& w, const std::string& inputs_dir,
                   std::uint64_t seed, bool smoke) {
  const std::string path = inputs_dir + "/" + w.file;
  Inputs in;
  if (w.is_sweep) {
    in.sweep = explore::load_sweep_spec(path);
    in.sweep->base.seed = seed;
    if (smoke) shorten(in.sweep->base);
    in.representative = in.job_count() / 2;
    return in;
  }
  if (w.name == "paper_tables") {
    in = load_job_list(path);
  } else {
    in.configs.push_back(scenario::load_scenario(path).config);
  }
  for (core::SystemConfig& cfg : in.configs) {
    cfg.seed = seed;
    if (smoke) shorten(cfg);
  }
  return in;
}

}  // namespace annoc::benchmark
