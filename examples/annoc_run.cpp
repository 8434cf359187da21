/// \file annoc_run.cpp
/// Run a declarative workload: `annoc_run scenario.json` loads a
/// scenario file (docs/WORKLOADS.md, scenarios/*.json), simulates it
/// and prints the paper's headline metrics. Several scenarios run as
/// one ExperimentRunner batch, so `--jobs N` parallelizes them with
/// bit-identical results.
///
///   annoc_run [options] scenario.json [more.json ...]
///     --jobs N, -j N      worker threads (also ANNOC_JOBS; 0 = cores)
///     --validate-only     load + validate, run nothing (CI uses this)
///     --print             dump the canonical form of each scenario
///     --observe[=LEVEL]   override observe: counters (default) or full
///     --seed=N            override the scenario seed (decimal or 0x-hex)
///     --record-trace=P    record the run's requests as a replayable
///                         trace (one scenario only; see WORKLOADS.md)
///     --json-out[=PATH]   metrics as JSON (default stdout; "-" stdout)
///     --csv-out=PATH      metrics as CSV
///
/// Scenario parse errors print a compiler-style `file:line:col: key
/// 'x': message` diagnostic and exit 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/parse_u64.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/metrics_export.hpp"
#include "scenario/scenario.hpp"

using namespace annoc;

namespace {

struct Options {
  std::vector<std::string> files;
  bool validate_only = false;
  bool print = false;
  bool have_observe = false;
  core::ObserveLevel observe = core::ObserveLevel::kCounters;
  bool have_seed = false;
  std::uint64_t seed = 0;
  std::string record_trace;
  std::string json_out;  ///< "-" = stdout
  std::string csv_out;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--jobs N] [--validate-only] [--print] "
               "[--observe[=counters|full]] [--seed=N] [--record-trace=P] "
               "[--json-out[=PATH]] [--csv-out=PATH] scenario.json ...\n",
               argv0);
  return 2;
}

bool parse_opt(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  if (arg[n] == '\0') {
    *out = "-";
    return true;
  }
  if (arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

/// The label set metrics_export wants, derived from a loaded scenario.
runner::LabeledRun label_run(const scenario::Scenario& s,
                             const std::string& file) {
  runner::LabeledRun run;
  run.table = s.name.empty() ? file : s.name;
  run.application = s.config.custom_app ? s.config.custom_app->name
                                        : to_string(s.config.app);
  run.ddr = to_string(s.config.generation);
  run.clock_mhz = s.config.clock_mhz;
  run.design = to_string(s.config.design);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const unsigned jobs = runner::parse_jobs(argc, argv);
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::string v;
    if (std::strcmp(a, "--validate-only") == 0) {
      opt.validate_only = true;
    } else if (std::strcmp(a, "--print") == 0) {
      opt.print = true;
    } else if (parse_opt(a, "--observe", &v)) {
      opt.have_observe = true;
      if (v == "-" || v == "counters") {
        opt.observe = core::ObserveLevel::kCounters;
      } else if (v == "full") {
        opt.observe = core::ObserveLevel::kFull;
      } else {
        std::fprintf(stderr, "annoc_run: unknown observe level '%s'\n",
                     v.c_str());
        return usage(argv[0]);
      }
    } else if (parse_opt(a, "--seed", &v)) {
      const std::optional<std::uint64_t> seed = parse_u64(v);
      if (!seed) {
        std::fprintf(stderr, "annoc_run: malformed --seed value\n");
        return usage(argv[0]);
      }
      opt.seed = *seed;
      opt.have_seed = true;
    } else if (parse_opt(a, "--record-trace", &v)) {
      opt.record_trace = v;
    } else if (parse_opt(a, "--json-out", &v)) {
      opt.json_out = v;
    } else if (parse_opt(a, "--csv-out", &v)) {
      opt.csv_out = v;
    } else if (std::strcmp(a, "--jobs") == 0 || std::strcmp(a, "-j") == 0) {
      ++i;  // value consumed by runner::parse_jobs
    } else if (std::strncmp(a, "--jobs=", 7) == 0 ||
               std::strncmp(a, "-j", 2) == 0) {
      // consumed by runner::parse_jobs
    } else if (a[0] == '-') {
      std::fprintf(stderr, "annoc_run: unknown option '%s'\n", a);
      return usage(argv[0]);
    } else {
      opt.files.push_back(a);
    }
  }
  if (opt.files.empty()) return usage(argv[0]);
  if (!opt.record_trace.empty() && opt.files.size() != 1) {
    std::fprintf(stderr,
                 "annoc_run: --record-trace wants exactly one scenario\n");
    return 2;
  }

  std::vector<scenario::Scenario> scenarios;
  std::map<std::string, scenario::Scenario> parsed;  // parse each file once
  try {
    for (const std::string& f : opt.files) {
      auto it = parsed.find(f);
      if (it == parsed.end()) {
        it = parsed.emplace(f, scenario::load_scenario(f)).first;
      }
      scenario::Scenario s = it->second;
      if (opt.have_observe) s.config.observe = opt.observe;
      if (opt.have_seed) s.config.seed = opt.seed;
      if (!opt.record_trace.empty()) {
        s.config.record_trace_path = opt.record_trace;
      }
      scenarios.push_back(std::move(s));
    }
  } catch (const ParseError& e) {
    std::fprintf(stderr, "%s\n", e.to_string());
    return 1;
  }

  if (opt.print) {
    for (const scenario::Scenario& s : scenarios) {
      std::fputs(scenario::dump_scenario(s).c_str(), stdout);
    }
    return 0;
  }
  if (opt.validate_only) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      std::fprintf(stderr, "%s: OK (%s)\n", opt.files[i].c_str(),
                   scenarios[i].name.empty() ? "unnamed"
                                             : scenarios[i].name.c_str());
    }
    return 0;
  }

  std::vector<core::SystemConfig> cfgs;
  cfgs.reserve(scenarios.size());
  for (const scenario::Scenario& s : scenarios) cfgs.push_back(s.config);

  runner::ExperimentRunner pool(jobs);
  std::vector<runner::RunResult> results;
  try {
    results = pool.run(cfgs);
  } catch (const ParseError& e) {  // replay_trace loads inside the run
    std::fprintf(stderr, "%s\n", e.to_string());
    return 1;
  }

  std::printf("%-24s %-12s %12s %16s %18s\n", "scenario", "design",
              "utilization", "latency(all)", "latency(priority)");
  std::vector<runner::LabeledRun> labeled;
  for (std::size_t i = 0; i < results.size(); ++i) {
    runner::LabeledRun run = label_run(scenarios[i], opt.files[i]);
    run.metrics = results[i].metrics;
    run.wall_seconds = results[i].wall_seconds;
    const core::Metrics& m = run.metrics;
    std::printf("%-24s %-12s %12.3f %13.1f cy %15.1f cy\n",
                run.table.c_str(), run.design.c_str(), m.utilization,
                m.avg_latency_all(), m.avg_latency_priority());
    labeled.push_back(std::move(run));
  }

  const auto write_to = [&](const std::string& path, auto writer,
                            const char* what) {
    if (path.empty()) return true;
    std::FILE* out = path == "-" ? stdout : std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "annoc_run: cannot write %s '%s'\n", what,
                   path.c_str());
      return false;
    }
    writer(out, labeled);
    if (out != stdout) std::fclose(out);
    return true;
  };
  bool ok = write_to(opt.json_out, runner::write_json, "JSON");
  ok = write_to(opt.csv_out, runner::write_csv, "CSV") && ok;
  return ok ? 0 : 1;
}
