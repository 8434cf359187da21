#include "runner/experiment_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

#include "common/env.hpp"
#include "common/parse_u64.hpp"

namespace annoc::runner {
namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] RunResult run_one(const core::SystemConfig& cfg,
                                std::size_t index) {
  const Clock::time_point start = Clock::now();
  core::Simulator sim(cfg);
  RunResult r;
  r.index = index;
  r.metrics = sim.run();
  r.wall_seconds = seconds_since(start);
  const auto simulated = static_cast<double>(sim.now());
  r.cycles_per_second =
      r.wall_seconds > 0.0 ? simulated / r.wall_seconds : 0.0;
  return r;
}

}  // namespace

unsigned resolve_jobs(unsigned requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned parse_jobs(int argc, char** argv) {
  const auto parse_value = [&](const char* text,
                               const char* flag) -> unsigned {
    const std::optional<std::uint64_t> v = parse_u64(text);
    if (!v || *v > std::numeric_limits<unsigned>::max()) {
      std::fprintf(stderr, "%s: %s expects a non-negative integer, got '%s'\n",
                   argv[0], flag, text);
      std::exit(2);
    }
    return static_cast<unsigned>(*v);
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--jobs") == 0 || std::strcmp(a, "-j") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s expects a value\n", argv[0], a);
        std::exit(2);
      }
      return parse_value(argv[i + 1], a);
    }
    if (std::strncmp(a, "--jobs=", 7) == 0) return parse_value(a + 7, "--jobs");
    if (std::strncmp(a, "-j", 2) == 0 && a[2] != '\0') {
      return parse_value(a + 2, "-j");
    }
  }
  return static_cast<unsigned>(env_u64("ANNOC_JOBS", 0));
}

ExperimentRunner::ExperimentRunner(RunnerOptions opts)
    : opts_(std::move(opts)) {}

std::vector<RunResult> ExperimentRunner::run(
    const std::vector<core::SystemConfig>& configs) {
  // The batch API is the streaming API over a vector source: results
  // land in their submission slot, so completion order never shows.
  std::vector<RunResult> results(configs.size());
  const unsigned jobs = resolve_jobs(opts_.jobs);
  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(jobs, std::max<std::size_t>(configs.size(), 1)));

  std::size_t next = 0;  // guarded by the runner's source lock
  const JobSource source = [&]() -> std::optional<StreamJob> {
    if (next >= configs.size()) return std::nullopt;
    const std::size_t i = next++;
    return StreamJob{i, configs[i]};
  };
  std::size_t completed = 0;  // guarded by the runner's sink lock
  const StreamSink sink = [&](RunResult&& r) {
    const std::size_t i = r.index;
    results[i] = std::move(r);
    ++completed;
    if (opts_.on_progress) {
      opts_.on_progress(ProgressEvent{completed, configs.size(), i,
                                      results[i].wall_seconds});
    }
  };
  run_stream_with(source, sink, workers);
  return results;
}

void ExperimentRunner::run_stream(const JobSource& source,
                                  const StreamSink& sink) {
  run_stream_with(source, sink, resolve_jobs(opts_.jobs));
}

void ExperimentRunner::run_stream_with(const JobSource& source,
                                       const StreamSink& sink,
                                       unsigned workers) {
  if (workers <= 1) {
    // Inline: no pool, no synchronization, exceptions propagate.
    for (;;) {
      std::optional<StreamJob> job = source();
      if (!job) return;
      sink(run_one(job->config, job->index));
    }
  }

  // Pull-based backpressure: a worker asks for the next job only when
  // its previous run is finished and delivered, so in-flight state is
  // bounded by the worker count. Each worker owns a whole Simulator —
  // no shared mutable state, determinism is structural. Source and
  // sink get separate locks: handing out job N+1 proceeds while the
  // sink is still appending job N's row.
  std::mutex source_mutex;
  std::mutex sink_mutex;
  auto worker = [&] {
    for (;;) {
      std::optional<StreamJob> job;
      {
        const std::lock_guard<std::mutex> lock(source_mutex);
        job = source();
      }
      if (!job) return;
      RunResult r = run_one(job->config, job->index);
      {
        const std::lock_guard<std::mutex> lock(sink_mutex);
        sink(std::move(r));
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
}

std::vector<core::Metrics> ExperimentRunner::run_metrics(
    const std::vector<core::SystemConfig>& configs) {
  std::vector<RunResult> results = run(configs);
  std::vector<core::Metrics> out;
  out.reserve(results.size());
  for (RunResult& r : results) out.push_back(std::move(r.metrics));
  return out;
}

}  // namespace annoc::runner
