/// \file annoc_sweep.cpp
/// Design-space exploration driver: `annoc_sweep --out DIR sweep.json`
/// expands a sweep spec (docs/EXPERIMENTS.md, scenarios/sweeps/*.json)
/// into its job list and runs it to completion — streaming, checkpointed
/// and shardable. Kill it at any point and rerun the same command: it
/// resumes from the rows already on disk and the merged outputs come
/// out bitwise identical. Point a second process (a different
/// --worker id) at the same directory and the two shard the grid.
///
///   annoc_sweep [options] sweep.json
///     --out=DIR           output directory (required to run)
///     --jobs N, -j N      worker threads (also ANNOC_JOBS; 0 = cores)
///     --worker=ID         shard identity (default w0); reuse to
///                         resume, vary to shard
///     --chunk=N           jobs per work claim (default 16)
///     --max-jobs=N        pause after completing N jobs (resume later)
///     --csv=PATH          also stream rows to a CSV file
///     --list              print "index  point" for every job, run
///                         nothing
///     --validate-only     parse + expand, run nothing (CI uses this)
///     --quiet             suppress per-job progress lines
///
/// Spec errors print a compiler-style `file:line:col: key 'x': message`
/// diagnostic and exit 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/parse_u64.hpp"
#include "explore/executor.hpp"
#include "explore/sweep_spec.hpp"
#include "runner/experiment_runner.hpp"

using namespace annoc;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--out=DIR] [--jobs N] [--worker=ID] [--chunk=N] "
               "[--max-jobs=N] [--csv=PATH] [--list] [--validate-only] "
               "[--quiet] sweep.json\n",
               argv0);
  return 2;
}

bool parse_opt(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  if (arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

std::uint64_t u64_opt(const std::string& v, const char* flag) {
  const std::optional<std::uint64_t> u = parse_u64(v);
  if (!u) {
    std::fprintf(stderr, "annoc_sweep: malformed %s value '%s'\n", flag,
                 v.c_str());
    std::exit(2);
  }
  return *u;
}

const char* mode_name(explore::SweepMode m) {
  return m == explore::SweepMode::kGrid ? "grid" : "random";
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  explore::ExecutorOptions opts;
  opts.jobs = runner::parse_jobs(argc, argv);
  bool list = false;
  bool validate_only = false;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::string v;
    if (parse_opt(a, "--out", &v)) {
      opts.out_dir = v;
    } else if (parse_opt(a, "--worker", &v)) {
      opts.worker_id = v;
    } else if (parse_opt(a, "--chunk", &v)) {
      opts.chunk = u64_opt(v, "--chunk");
    } else if (parse_opt(a, "--max-jobs", &v)) {
      opts.max_jobs = u64_opt(v, "--max-jobs");
    } else if (parse_opt(a, "--csv", &v)) {
      opts.csv_path = v;
    } else if (std::strcmp(a, "--list") == 0) {
      list = true;
    } else if (std::strcmp(a, "--validate-only") == 0) {
      validate_only = true;
    } else if (std::strcmp(a, "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(a, "--jobs") == 0 || std::strcmp(a, "-j") == 0) {
      ++i;  // value consumed by runner::parse_jobs
    } else if (std::strncmp(a, "--jobs=", 7) == 0 ||
               std::strncmp(a, "-j", 2) == 0) {
      // consumed by runner::parse_jobs
    } else if (a[0] == '-') {
      std::fprintf(stderr, "annoc_sweep: unknown option '%s'\n", a);
      return usage(argv[0]);
    } else if (spec_path.empty()) {
      spec_path = a;
    } else {
      std::fprintf(stderr, "annoc_sweep: one sweep spec at a time\n");
      return usage(argv[0]);
    }
  }
  if (spec_path.empty()) return usage(argv[0]);

  explore::SweepSpec spec;
  try {
    spec = explore::load_sweep_spec(spec_path);
  } catch (const ParseError& e) {
    std::fprintf(stderr, "%s\n", e.to_string());
    return 1;
  }

  if (validate_only) {
    std::fprintf(stderr, "%s: OK (%s, %s, %llu jobs over %zu axes)\n",
                 spec_path.c_str(),
                 spec.name.empty() ? "unnamed" : spec.name.c_str(),
                 mode_name(spec.mode),
                 static_cast<unsigned long long>(spec.job_count()),
                 spec.axes.size());
    return 0;
  }
  if (list) {
    const std::uint64_t n = spec.job_count();
    for (std::uint64_t j = 0; j < n; ++j) {
      std::printf("%llu\t%s\n", static_cast<unsigned long long>(j),
                  spec.job_point(j).c_str());
    }
    return 0;
  }

  if (opts.out_dir.empty()) {
    std::fprintf(stderr, "annoc_sweep: running a sweep needs --out=DIR\n");
    return usage(argv[0]);
  }
  if (!quiet) {
    opts.on_progress = [](const explore::SweepProgress& p) {
      std::fprintf(stderr, "[%llu/%llu] job %llu (%.2fs)\n",
                   static_cast<unsigned long long>(p.completed_now),
                   static_cast<unsigned long long>(p.total_jobs),
                   static_cast<unsigned long long>(p.job), p.wall_seconds);
    };
  }

  explore::SweepOutcome out;
  try {
    out = explore::run_sweep(spec, opts);
  } catch (const ParseError& e) {
    std::fprintf(stderr, "%s\n", e.to_string());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "annoc_sweep: %s\n", e.what());
    return 1;
  }

  if (out.finished) {
    std::fprintf(stderr,
                 "%s: complete — %llu jobs; wrote merged.jsonl, "
                 "pareto.json, summary.json under %s\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(out.total_jobs),
                 opts.out_dir.c_str());
  } else {
    std::fprintf(stderr,
                 "%s: paused — %llu/%llu jobs done (%llu this run); rerun "
                 "with the same --out and --worker to continue\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(out.rows_present),
                 static_cast<unsigned long long>(out.total_jobs),
                 static_cast<unsigned long long>(out.completed_now));
  }
  return 0;
}
