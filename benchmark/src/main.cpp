/// \file main.cpp
/// annoc_benchmark: runs one workload of the benchmark and prints one
/// JSON object (a single line) with its metrics, digests and gate
/// results. benchmark/run.py builds this binary, runs each workload in
/// its own process, checks the digests against benchmark/expected/ and
/// prints the report; see benchmark/README.md.
///
///   annoc_benchmark --workload NAME [--seed N] [--seconds S] [--trace]
///                   [--smoke] [--inputs DIR] [--out DIR] [--inject-abort]
///
/// The first line of output is {"jobs_per_pass": N}, printed before any
/// simulation runs, so that a process that aborts still says how many
/// runs it took down with it. A checker violation aborts the process
/// (Simulator::run ends in enforce_checks); --inject-abort aborts the
/// same way right after that line, to test the caller's handling of it.
///
/// Untraced (default): run one unprobed warm-up pass, then whole passes
/// over the workload's jobs until about S seconds have gone (at least
/// one), then set the workload up repeatedly. Every timed job and every
/// set-up sample runs between two runs of the host-speed probe
/// (HostSpeed in harness.hpp); each is reported with its host time and
/// its factor to the reference host's speed.
/// --trace: run a subset of the jobs untraced and traced, replay each
/// layer, re-run the representative job under every scheduler and with
/// checks off, and report the per-layer metrics; spans go to
/// OUT/trace/NAME.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/simulator.hpp"
#include "explore/executor.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "scenario/json.hpp"
#include "workloads.hpp"

namespace annoc::benchmark {
namespace {

/// Replays stop recording after this many cycles per run.
constexpr Cycle kReplayCap = 2000000;
/// Set-up samples after the measured passes. They run last so that
/// every repetition meets the same allocator state: the first set-ups of
/// a process also pay for growing the heap, and take up to three times
/// as long.
constexpr int kSetupSamples = 15;
/// A set-up sample is the mean of enough set-ups to span this long, so
/// that timer jitter cannot dominate a set-up of a few microseconds.
constexpr double kSetupSampleSeconds = 0.02;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool inject_abort = false;
  std::string inputs = "benchmark/workloads";
  std::string out = "build/benchmark";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "annoc_benchmark: %s\nusage: annoc_benchmark --workload NAME "
               "[--seed N] [--seconds S] [--trace] [--smoke] [--inputs DIR] "
               "[--out DIR] [--inject-abort]\n",
               why);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = true;
      } else if (a == "--smoke") {
        o.smoke = true;
      } else if (a == "--inject-abort") {
        o.inject_abort = true;
      } else if (a == "--inputs") {
        o.inputs = value();
      } else if (a == "--out") {
        o.out = value();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("malformed value for " + a).c_str());
    }
  }
  if (find_workload(o.workload) == nullptr) usage("unknown --workload");
  if (!(o.seconds >= 0.0)) usage("--seconds must be >= 0");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// This process's peak resident set. VmHWM, not getrusage: ru_maxrss
/// also counts the parent's resident set at fork, which exec keeps.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

struct JobRun {
  core::Metrics metrics;
  double ctor_s = 0.0;
  double run_s = 0.0;
  Cycle cycles = 0;
};

/// Construct and run one simulation, timing both. `sink` is attached
/// before the run; `inspect` sees the finished simulator.
JobRun run_job(const core::SystemConfig& cfg, SpanLog& spans,
               const char* run_span, obs::EventSink* sink = nullptr,
               const std::function<void(core::Simulator&)>& inspect = {}) {
  JobRun r;
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<core::Simulator> sim;
  {
    SpanLog::Scope s(spans, "ctor");
    sim = std::make_unique<core::Simulator>(cfg);
  }
  r.ctor_s = seconds_since(t0);
  if (sink != nullptr) sim->attach_sink(sink);
  t0 = Clock::now();
  {
    SpanLog::Scope s(spans, run_span);
    r.metrics = sim->run();
  }
  r.run_s = seconds_since(t0);
  r.cycles = sim->now();
  if (inspect) inspect(*sim);
  return r;
}

/// The modelled results of one job, as reported.
struct JobSummary {
  std::string digest;
  double utilization = 0.0;
  double latency_all = 0.0;
  double latency_demand = 0.0;
  double latency_priority = 0.0;
  double latency_priority_p99 = 0.0;
  bool has_priority = false;
};

JobSummary summarize(const core::Metrics& m) {
  JobSummary s;
  s.digest = metrics_digest(m);
  s.utilization = m.utilization;
  s.latency_all = m.avg_latency_all();
  s.latency_demand = m.avg_latency_demand();
  s.latency_priority = m.avg_latency_priority();
  s.has_priority = m.priority_packets.count() > 0;
  s.latency_priority_p99 = static_cast<double>(m.priority_packets.p99());
  return s;
}

/// A timed piece of a pass, with a probe run before and after it: one job
/// (the first one also loads the inputs), or on sweep_dse also the merge
/// after the last job.
struct Segment {
  /// Host seconds of the segment, and of the simulation in it
  /// (Simulator::run; on sweep_dse the runner's per-job wall time, which
  /// includes construction).
  double wall = 0.0, in_run = 0.0;
  /// The segment's number from HostSpeed::lap (when the pass is probed).
  std::size_t lap = 0;
};

/// One pass over a workload's jobs.
struct Pass {
  std::vector<Segment> segments;
  /// Per job, in job order: host seconds of the whole job (construct +
  /// run; on sweep_dse the runner's per-job wall time) and simulated
  /// cycles.
  std::vector<double> job_s, cycles;
  std::uint64_t failed = 0;
  std::vector<JobSummary> jobs;
  /// Combined digest: over the job digests, or over the sweep outputs.
  std::string digest;
  double sweep_s = 0.0;  ///< sweep_dse: run_sweep alone
};

// ---------------------------------------------------------------------
// Untraced passes
// ---------------------------------------------------------------------

/// Load the inputs and construct every simulator, timing only that.
double sim_setup(const WorkloadDef& w, const Options& o) {
  const Clock::time_point t0 = Clock::now();
  const Inputs in = load_inputs(w, o.inputs, o.seed, o.smoke);
  double s = seconds_since(t0);
  for (const core::SystemConfig& cfg : in.configs) {
    const Clock::time_point c0 = Clock::now();
    const core::Simulator sim(cfg);
    s += seconds_since(c0);
  }
  return s;
}

/// One pass over a simulation workload's jobs, each job a segment with a
/// probe run of `speed` after it (none when `speed` is null).
Pass sim_pass(const WorkloadDef& w, const Options& o, SpanLog& spans,
              HostSpeed* speed) {
  Pass p;
  Clock::time_point t0 = Clock::now();
  const Inputs in = load_inputs(w, o.inputs, o.seed, o.smoke);
  Fnv all;
  for (std::size_t i = 0; i < in.configs.size(); ++i) {
    JobSummary js;
    JobRun r;
    try {
      r = run_job(in.configs[i], spans, "run");
      js = summarize(r.metrics);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "job %zu failed: %s\n", i, e.what());
      ++p.failed;
      js.digest = "failed";
    }
    p.job_s.push_back(r.ctor_s + r.run_s);
    p.cycles.push_back(static_cast<double>(r.cycles));
    all.str(js.digest);
    p.jobs.push_back(js);
    Segment s{seconds_since(t0), r.run_s};
    if (speed != nullptr) s.lap = speed->lap();
    p.segments.push_back(s);
    t0 = Clock::now();
  }
  p.digest = all.hex();
  return p;
}

/// Load the sweep spec and expand every job's config (the set-up a
/// sweep pays before its first simulation).
double sweep_setup(const WorkloadDef& w, const Options& o) {
  const Clock::time_point t0 = Clock::now();
  const Inputs in = load_inputs(w, o.inputs, o.seed, o.smoke);
  for (std::size_t i = 0; i < in.job_count(); ++i) {
    (void)in.job_config(i);
  }
  return seconds_since(t0);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// merged.jsonl with every `"wall_seconds": <number>` member removed —
/// the one host-dependent field a row may carry.
std::string strip_wall_seconds(const std::string& text) {
  static const std::string kKey = "\"wall_seconds\": ";
  std::string out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t k = text.find(kKey, pos);
    if (k == std::string::npos) break;
    out.append(text, pos, k - pos);
    pos = text.find_first_of(",}", k + kKey.size());
    if (pos == std::string::npos) pos = text.size();
  }
  out.append(text, pos, std::string::npos);
  return out;
}

double member_number(const scenario::JsonValue& row, const char* key) {
  const scenario::JsonMember* m = row.find(key);
  return m != nullptr && m->value().is(scenario::JsonKind::kNumber)
             ? m->value().number
             : 0.0;
}

/// One run_sweep over the sweep's jobs. With one worker the runner calls
/// on_progress between jobs, on this thread, so each job is a segment
/// with a probe run of `speed` after it (none when `speed` is null); the
/// last segment is the merge that follows the last job.
Pass sweep_pass(const WorkloadDef& w, const Options& o, SpanLog& spans,
                HostSpeed* speed) {
  const std::string dir = o.out + "/sweep_dse";
  std::filesystem::remove_all(dir);
  Pass p;
  Clock::time_point t0 = Clock::now();
  const auto end_segment = [&](double in_run) {
    Segment s{seconds_since(t0), in_run};
    if (speed != nullptr) s.lap = speed->lap();
    p.segments.push_back(s);
    t0 = Clock::now();
  };
  Inputs in;
  {
    SpanLog::Scope s(spans, "load");
    in = load_inputs(w, o.inputs, o.seed, o.smoke);
  }
  p.job_s.assign(in.job_count(), 0.0);
  p.cycles.assign(in.job_count(), 0.0);
  explore::ExecutorOptions eo;
  eo.out_dir = dir;
  eo.jobs = 1;
  eo.on_progress = [&](const explore::SweepProgress& sp) {
    p.job_s.at(sp.job) = sp.wall_seconds;
    end_segment(sp.wall_seconds);
  };
  const Clock::time_point t1 = Clock::now();
  explore::SweepOutcome outcome;
  {
    SpanLog::Scope s(spans, "run_sweep");
    outcome = explore::run_sweep(*in.sweep, eo);
  }
  p.sweep_s = seconds_since(t1);
  end_segment(0.0);

  if (!outcome.finished) {
    p.failed = in.job_count();
    p.digest = "unfinished";
    return p;
  }
  const std::string merged = read_text(dir + "/merged.jsonl");
  Fnv all;
  all.str(strip_wall_seconds(merged));
  all.str(read_text(dir + "/pareto.json"));
  p.digest = all.hex();
  std::istringstream lines(merged);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const scenario::JsonValue row = scenario::parse_json(line, dir);
    const auto job = static_cast<std::size_t>(member_number(row, "job"));
    p.cycles.at(job) = static_cast<double>(in.job_config(job).warmup_cycles) +
                       member_number(row, "measured_cycles") +
                       member_number(row, "drained_cycles");
    JobSummary js;
    js.utilization = member_number(row, "utilization");
    js.latency_all = member_number(row, "latency_all");
    js.latency_demand = member_number(row, "latency_demand");
    js.latency_priority = member_number(row, "latency_priority");
    p.jobs.push_back(js);
  }
  if (p.jobs.size() != in.job_count()) p.failed = in.job_count();
  return p;
}

std::string timed_mode(const WorkloadDef& w, const Options& o) {
  const Clock::time_point start = Clock::now();
  SpanLog off(false);
  const auto pass = [&](HostSpeed* speed) {
    return w.is_sweep ? sweep_pass(w, o, off, speed)
                      : sim_pass(w, o, off, speed);
  };
  const auto setup = [&] {
    return w.is_sweep ? sweep_setup(w, o) : sim_setup(w, o);
  };
  // The warm-up pass fills the caches and grows the heap, and is not
  // timed. The peak resident set is read right after it, before the
  // probe's own memory can count.
  std::vector<Pass> passes{pass(nullptr)};
  const double peak_rss = peak_rss_mb();
  HostSpeed speed;

  // The set-up samples come out of the same budget.
  const double once = setup();
  const int reps = o.smoke ? 1 : kSetupSamples;
  const int batch = static_cast<int>(std::clamp(
      std::ceil(kSetupSampleSeconds / std::max(once, 1e-9)), 1.0, 1e5));
  const double setup_budget = reps * (batch * once + speed.probes().back());
  // Start another pass only when it should end within the budget.
  const Clock::time_point m0 = Clock::now();
  std::size_t timed = 0;
  do {
    passes.push_back(pass(&speed));
    ++timed;
  } while (seconds_since(start) +
               seconds_since(m0) / static_cast<double>(timed) <=
           o.seconds - setup_budget);
  std::vector<double> setups;
  std::vector<std::size_t> setup_laps;
  for (int i = 0; i < reps; ++i) {
    double sum = 0.0;
    for (int b = 0; b < batch; ++b) sum += setup();
    setups.push_back(sum / batch);
    setup_laps.push_back(speed.lap());
  }
  std::vector<double> setup_scales;
  for (const std::size_t n : setup_laps) {
    setup_scales.push_back(speed.scale(n));
  }

  const auto numbers = [](const std::vector<double>& v) {
    return json_array(v, [](double x) { return scenario::json_number(x); });
  };
  // Every segment of every timed pass is a sample; run.py pools them.
  const auto segments = [&](const Pass& p) {
    std::vector<double> wall, in_run, scale;
    for (const Segment& s : p.segments) {
      wall.push_back(s.wall);
      in_run.push_back(s.in_run);
      scale.push_back(speed.scale(s.lap));
    }
    return JsonObject()
        .raw("wall_s", numbers(wall))
        .raw("run_s", numbers(in_run))
        .raw("scale", numbers(scale))
        .str();
  };
  const std::vector<Pass> timed_passes(passes.begin() + 1, passes.end());
  const Pass& first = passes.front();
  std::uint64_t failed = 0, runs = 0;
  bool identical = true;
  for (const Pass& p : passes) {
    failed += p.failed;
    runs += p.jobs.size();
    identical = identical && p.digest == first.digest;
  }
  double cycles = 0.0;
  for (const double c : first.cycles) cycles += c;
  double util = 0.0, lat = 0.0, prio = 0.0, p99 = 0.0, with_prio = 0.0;
  for (const JobSummary& j : first.jobs) {
    util += j.utilization;
    lat += j.latency_all;
    prio += j.latency_priority;
    if (j.has_priority) {
      p99 += j.latency_priority_p99;
      with_prio += 1.0;
    }
  }
  const double n =
      static_cast<double>(std::max<std::size_t>(1, first.jobs.size()));

  JsonObject exact;
  exact.metric("runs", static_cast<double>(runs), "count")
      .metric("failed_runs", static_cast<double>(failed), "count")
      .metric("utilization", util / n, "ratio")
      .metric("latency_all_cycles", lat / n, "cycles")
      .metric("latency_priority_cycles", prio / n, "cycles");
  if (with_prio > 0.0) {  // sweep rows carry no p99
    exact.metric("latency_priority_p99_cycles", p99 / with_prio, "cycles");
  }
  const std::vector<JobSummary> no_jobs;
  const std::string job_digests =
      json_array(w.is_sweep ? no_jobs : first.jobs,
                 [](const JobSummary& j) {
                   return scenario::json_quote(j.digest);
                 });
  const std::string job_metrics =
      json_array(first.jobs, [](const JobSummary& j) {
        return JsonObject()
            .number("utilization", j.utilization)
            .number("latency_all", j.latency_all)
            .number("latency_demand", j.latency_demand)
            .number("latency_priority", j.latency_priority)
            .str();
      });

  return JsonObject()
      .string("workload", w.name)
      .count("seed", o.seed)
      .boolean("trace", false)
      .boolean("smoke", o.smoke)
      .count("jobs_per_pass", first.job_s.size())
      .number("cycles_per_pass", cycles)
      .number("reference_probe_s", kReferenceProbeSeconds)
      .raw("passes", json_array(timed_passes, segments))
      .raw("setups", JsonObject()
                         .raw("setup_s", numbers(setups))
                         .raw("scale", numbers(setup_scales))
                         .str())
      .raw("probe_s", numbers(speed.probes()))
      .number("peak_rss_mb", peak_rss)
      .raw("exact", exact.str())
      .raw("digests", JsonObject()
                          .string("all", first.digest)
                          .raw("jobs", job_digests)
                          .str())
      .raw("job_metrics", job_metrics)
      .raw("gates", JsonObject().boolean("pass_identity", identical).str())
      .count("attempted", runs)
      .count("failed", failed + (identical ? 0 : 1))
      .str();
}

// ---------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------

struct LayerTotals {
  double ctor_s = 0.0;
  double run_s = 0.0;
  double traced_run_s = 0.0;
  double cycles = 0.0;
  double controller_cycles = 0.0;
  noc::RouterStats routers{};
  memctrl::EngineStats engine{};
  sdram::DeviceStats device{};
  std::uint64_t completed_requests = 0;
  std::uint64_t completed_subpackets = 0;
  double source_queue_sum = 0.0;
  std::uint64_t source_queue_count = 0;
  std::uint64_t commands_verified = 0;
  std::array<std::uint64_t, kNumEventKinds> events{};
  ReplayResult sdram, noc, oracle, conservation, counters;
};

void add(ReplayResult& to, const ReplayResult& r) {
  to.seconds += r.seconds;
  to.items += r.items;
  to.rejected += r.rejected;
}

/// Sum the live simulator's whole-run layer counters into `t`.
void collect_counters(core::Simulator& sim, LayerTotals& t) {
  for (std::size_t i = 0; i < sim.network().num_routers(); ++i) {
    const noc::RouterStats& s =
        sim.network().router(static_cast<NodeId>(i)).stats();
    t.routers.packets_forwarded += s.packets_forwarded;
    t.routers.flits_forwarded += s.flits_forwarded;
    t.routers.arbitration_rounds += s.arbitration_rounds;
    t.routers.idle_grants += s.idle_grants;
    t.routers.blocked_on_downstream += s.blocked_on_downstream;
  }
  for (std::size_t c = 0; c < sim.num_controllers(); ++c) {
    const memctrl::EngineStats& e = sim.subsystem(c).engine_stats();
    t.engine.requests_completed += e.requests_completed;
    t.engine.cas_issued += e.cas_issued;
    t.engine.stall_cycles += e.stall_cycles;
    t.engine.stall_need_act += e.stall_need_act;
    t.engine.stall_need_pre += e.stall_need_pre;
    t.engine.stall_cas_timing += e.stall_cas_timing;
    const sdram::DeviceStats& d = sim.subsystem(c).device().stats();
    t.device.activates += d.activates;
    t.device.precharges += d.precharges;
    t.device.reads += d.reads;
    t.device.writes += d.writes;
    t.device.refreshes += d.refreshes;
    t.device.cas_row_hits += d.cas_row_hits;
    t.device.total_beats += d.total_beats;
    t.device.useful_beats += d.useful_beats;
    t.device.bus_direction_turnarounds += d.bus_direction_turnarounds;
    if (const check::TimingOracle* o = sim.timing_oracle(c)) {
      t.commands_verified += o->commands_seen();
    }
  }
  t.controller_cycles +=
      static_cast<double>(sim.now()) * static_cast<double>(sim.num_controllers());
}

struct TraceGates {
  bool traced_identity = true;
  bool sched_identity = true;
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;

  void note(const char* what, const std::string& diff) {
    if (diff.empty()) return;
    std::fprintf(stderr, "%s differs at %s\n", what, diff.c_str());
    ++failed;
  }
};

/// The representative job under the default scheduler, dense, event,
/// and with checks off. The four legs run interleaved, repeated until
/// each has run about half a second (at most 9 times), and are timed as
/// medians; every leg must reproduce the first default run bitwise.
struct SchedLegs {
  double default_s = 0.0, dense_s = 0.0, event_s = 0.0, nocheck_s = 0.0;
  double cycles = 0.0;
  obs::SchedCounters event_counters{};
};

SchedLegs sched_legs(const core::SystemConfig& base, SpanLog& spans,
                     TraceGates& gates) {
  SpanLog::Scope scope(spans, "representative");
  core::SystemConfig dense = base, event = base, nocheck = base;
  dense.sched = core::SchedMode::kDense;
  event.sched = core::SchedMode::kEvent;
  nocheck.check = false;
  std::vector<double> d_def, d_dense, d_event, d_nocheck;
  SchedLegs legs;
  core::Metrics ref;
  int reps = 1;
  for (int r = 0; r < reps; ++r) {
    const JobRun a = run_job(base, spans, "run.default");
    const JobRun b = run_job(dense, spans, "run.dense");
    const JobRun c = run_job(event, spans, "run.event", nullptr,
                             [&legs](core::Simulator& sim) {
                               legs.event_counters = sim.sched_counters();
                             });
    const JobRun d = run_job(nocheck, spans, "run.nocheck");
    if (r == 0) {
      ref = a.metrics;
      legs.cycles = static_cast<double>(a.cycles);
      reps = static_cast<int>(
          std::clamp(std::ceil(0.5 / std::max(a.run_s, 1e-6)), 1.0, 9.0));
    }
    gates.attempted += 4;
    d_def.push_back(a.run_s);
    d_dense.push_back(b.run_s);
    d_event.push_back(c.run_s);
    d_nocheck.push_back(d.run_s);
    for (const JobRun* leg : {&a, &b, &c, &d}) {
      const std::string diff = first_difference(ref, leg->metrics);
      if (!diff.empty()) gates.sched_identity = false;
      gates.note("scheduler/check leg", diff);
    }
  }
  legs.default_s = median(d_def);
  legs.dense_s = median(d_dense);
  legs.event_s = median(d_event);
  legs.nocheck_s = median(d_nocheck);
  return legs;
}

std::string trace_mode(const WorkloadDef& w, const Options& o) {
  SpanLog spans(true);
  LayerTotals t;
  TraceGates gates;
  JsonObject digests_by_job;
  JsonObject extra;
  double load_s = 0.0;
  SchedLegs legs;
  std::string sweep_digest;
  {
    SpanLog::Scope workload(spans, "workload");
    Inputs in;
    {
      SpanLog::Scope s(spans, "load");
      const Clock::time_point t0 = Clock::now();
      in = load_inputs(w, o.inputs, o.seed, o.smoke);
      load_s = seconds_since(t0);
    }
    if (in.sweep) {
      SpanLog::Scope s(spans, "expand");
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < in.job_count(); ++i) {
        (void)in.job_config(i);
      }
      extra.metric("explore.expand_us_per_job",
                   1e6 * ratio(seconds_since(t0),
                               static_cast<double>(in.job_count())),
                   "us");
    }

    for (std::size_t i = 0; i < in.job_count(); i += w.trace_stride) {
      SpanLog::Scope job(spans, "job");
      const core::SystemConfig cfg = in.job_config(i);
      const JobRun u = run_job(cfg, spans, "run");
      t.ctor_s += u.ctor_s;
      t.run_s += u.run_s;
      t.cycles += static_cast<double>(u.cycles);
      if (!in.sweep) {
        digests_by_job.string(std::to_string(i), metrics_digest(u.metrics));
      }

      EventLog log(kReplayCap);
      const JobRun traced = run_job(
          cfg, spans, "run.traced", &log, [&](core::Simulator& sim) {
            collect_counters(sim, t);
            {
              SpanLog::Scope s(spans, "replay.sdram");
              add(t.sdram, replay_sdram(log, sim));
            }
            {
              SpanLog::Scope s(spans, "replay.noc");
              add(t.noc, replay_noc(log, sim));
            }
            {
              SpanLog::Scope s(spans, "replay.oracle");
              add(t.oracle, replay_oracles(log, sim));
            }
            {
              SpanLog::Scope s(spans, "replay.conservation");
              add(t.conservation, replay_conservation(log));
            }
            {
              SpanLog::Scope s(spans, "replay.counter_sink");
              add(t.counters, replay_counter_sink(log, sim));
            }
          });
      gates.attempted += 2;
      t.traced_run_s += traced.run_s;
      for (std::size_t k = 0; k < kNumEventKinds; ++k) {
        t.events[k] += log.counts()[k];
      }
      const core::Metrics& m = u.metrics;
      t.completed_requests += m.completed_requests;
      t.completed_subpackets += m.completed_subpackets;
      t.source_queue_sum +=
          m.source_queue.mean() * static_cast<double>(m.source_queue.count());
      t.source_queue_count += m.source_queue.count();
      const std::string diff = first_difference(u.metrics, traced.metrics);
      if (!diff.empty()) gates.traced_identity = false;
      gates.note("traced run", diff);
    }

    legs = sched_legs(in.job_config(in.representative), spans, gates);

    if (in.sweep) {
      SpanLog::Scope s(spans, "sweep");
      const Pass p = sweep_pass(w, o, spans, nullptr);
      gates.attempted += p.jobs.size();
      gates.failed += p.failed;
      sweep_digest = p.digest;
      double jobs_s = 0.0;
      for (const double job : p.job_s) jobs_s += job;
      extra.metric("explore.overhead_frac",
                   ratio(p.sweep_s - jobs_s, p.sweep_s), "ratio");
    }
  }

  std::filesystem::create_directories(o.out + "/trace");
  const std::string trace_path = o.out + "/trace/" + w.name + ".json";
  if (!spans.write_chrome_trace(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
  }

  const double cycles = t.cycles;
  const double rounds = static_cast<double>(t.routers.arbitration_rounds);
  const double cas = static_cast<double>(t.device.reads + t.device.writes);
  const auto ns_per = [](const ReplayResult& r) {
    return 1e9 * ratio(r.seconds, static_cast<double>(r.items));
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  JsonObject layers;
  layers.metric("core.ctor_s", t.ctor_s, "s")
      .metric("core.run_s", t.run_s, "s")
      .metric("core.ns_per_sim_cycle", 1e9 * ratio(t.run_s, cycles), "ns")
      .metric("core.dense_cycles_per_s", ratio(legs.cycles, legs.dense_s),
              "1/s")
      .metric("core.event_cycles_per_s", ratio(legs.cycles, legs.event_s),
              "1/s")
      .metric("core.skip_speedup", ratio(legs.dense_s, legs.default_s), "x")
      .metric("core.event_skipped_frac",
              ratio(count(legs.event_counters.skipped_cycles),
                    count(legs.event_counters.skipped_cycles +
                          legs.event_counters.executed_cycles)),
              "ratio")
      .metric("core.event_wakeups_per_cycle",
              ratio(count(legs.event_counters.wakeups), legs.cycles), "ratio")
      .metric("noc.flits_per_cycle",
              ratio(count(t.routers.flits_forwarded), cycles), "ratio")
      .metric("noc.arbitration_rounds_per_cycle", ratio(rounds, cycles),
              "ratio")
      .metric("noc.grant_yield",
              ratio(count(t.routers.packets_forwarded), rounds), "ratio")
      .metric("noc.gss_exclusion_frac",
              ratio(count(t.routers.idle_grants), rounds), "ratio")
      .metric("noc.blocked_frac",
              ratio(count(t.routers.blocked_on_downstream), rounds), "ratio")
      .metric("noc.replay_ns_per_router_cycle", ns_per(t.noc), "ns")
      .metric("memctrl.requests_completed",
              count(t.engine.requests_completed), "count")
      .metric("memctrl.cas_issued", count(t.engine.cas_issued), "count")
      .metric("memctrl.stall_frac",
              ratio(count(t.engine.stall_cycles), t.controller_cycles),
              "ratio")
      .metric("memctrl.stall_need_act", count(t.engine.stall_need_act),
              "count")
      .metric("memctrl.stall_need_pre", count(t.engine.stall_need_pre),
              "count")
      .metric("memctrl.stall_cas_timing", count(t.engine.stall_cas_timing),
              "count")
      .metric("sdram.commands",
              count(t.device.activates + t.device.precharges +
                    t.device.reads + t.device.writes + t.device.refreshes),
              "count")
      .metric("sdram.row_hit_frac", ratio(count(t.device.cas_row_hits), cas),
              "ratio")
      .metric("sdram.useful_beat_frac",
              ratio(count(t.device.useful_beats), count(t.device.total_beats)),
              "ratio")
      .metric("sdram.turnarounds", count(t.device.bus_direction_turnarounds),
              "count")
      .metric("sdram.replay_ns_per_command", ns_per(t.sdram), "ns")
      .metric("sdram.replay_rejected", count(t.sdram.rejected), "count")
      .metric("traffic.requests",
              count(t.events[static_cast<std::size_t>(EventKind::kRequest)]),
              "count")
      .metric("traffic.subpackets_per_request",
              ratio(count(t.completed_subpackets), count(t.completed_requests)),
              "ratio")
      .metric("traffic.source_queue_mean_cycles",
              ratio(t.source_queue_sum, count(t.source_queue_count)),
              "cycles")
      .metric("check.commands_verified", count(t.commands_verified), "count")
      .metric("check.oracle_replay_ns_per_command", ns_per(t.oracle), "ns")
      .metric("check.conservation_replay_ns_per_event",
              ns_per(t.conservation), "ns")
      .metric("check.overhead_frac",
              ratio(legs.default_s, legs.nocheck_s) - 1.0, "ratio");
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    layers.metric(
        "obs.events." + std::string(to_string(static_cast<EventKind>(k))),
        count(t.events[k]), "count");
  }
  layers
      .metric("obs.counter_sink_replay_ns_per_event", ns_per(t.counters),
              "ns")
      .metric("obs.trace_overhead_frac", ratio(t.traced_run_s, t.run_s) - 1.0,
              "ratio")
      .metric("scenario.load_s", load_s, "s");

  JsonObject self;
  for (const auto& [name, s] : spans.self_seconds()) self.number(name, s);

  const std::uint64_t replay_failures = t.sdram.rejected + t.noc.rejected +
                                        t.oracle.rejected +
                                        t.conservation.rejected;
  return JsonObject()
      .string("workload", w.name)
      .count("seed", o.seed)
      .boolean("trace", true)
      .boolean("smoke", o.smoke)
      .raw("metrics", layers.str())
      .raw("extra", extra.str())
      .raw("self_seconds", self.str())
      .raw("digests", JsonObject()
                          .string("all", sweep_digest)
                          .raw("jobs", digests_by_job.str())
                          .str())
      .raw("gates",
           JsonObject()
               .boolean("traced_identity", gates.traced_identity)
               .boolean("sched_identity", gates.sched_identity)
               .boolean("replay", replay_failures == 0)
               .str())
      .string("trace_file", trace_path)
      .count("attempted", gates.attempted)
      .count("failed", gates.failed + (replay_failures == 0 ? 0 : 1))
      .str();
}

}  // namespace
}  // namespace annoc::benchmark

int main(int argc, char** argv) {
  using namespace annoc::benchmark;
  const Options o = parse_options(argc, argv);
  const WorkloadDef& w = *find_workload(o.workload);
  try {
    std::printf("{\"jobs_per_pass\": %zu}\n",
                load_inputs(w, o.inputs, o.seed, o.smoke).job_count());
    std::fflush(stdout);
    ANNOC_ASSERT_MSG(!o.inject_abort, "--inject-abort");
    const std::string result = o.trace ? trace_mode(w, o) : timed_mode(w, o);
    std::printf("%s\n", result.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "annoc_benchmark: %s: %s\n", w.name.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
