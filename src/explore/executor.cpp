#include "explore/executor.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <fstream>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/area_model.hpp"
#include "explore/pareto.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/metrics_export.hpp"
#include "scenario/scenario.hpp"
#include "traffic/application.hpp"

namespace annoc::explore {
namespace {

using scenario::JsonKind;
using scenario::JsonMember;
using scenario::JsonValue;

void mkdir_p(const std::string& path) {
  std::string prefix;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i != path.size() && path[i] != '/') continue;
    prefix.assign(path, 0, i);
    if (prefix.empty() || prefix == ".") continue;
    if (::mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST) {
      throw std::runtime_error("cannot create directory '" + prefix +
                               "': " + std::strerror(errno));
    }
  }
  if (!path.empty() && path.back() != '/') {
    if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST) {
      throw std::runtime_error("cannot create directory '" + path +
                               "': " + std::strerror(errno));
    }
  }
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("cannot write '" + path + "'");
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

/// Replace `path` with `text` atomically: readers see the old or the
/// new content, never a torn file. Concurrent finishers write
/// identical bytes, so last-rename-wins is harmless.
void replace_file(const std::string& path, const std::string& text,
                  const std::string& worker_id) {
  const std::string tmp = path + ".tmp." + worker_id;
  write_file(tmp, text);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename '" + tmp + "'");
  }
}

/// Publish `text` at `path` only if nothing is there yet (link(2) is
/// atomic even over NFS). Returns false when another process won.
[[nodiscard]] bool publish_first(const std::string& path,
                                 const std::string& text,
                                 const std::string& worker_id) {
  const std::string tmp = path + ".tmp." + worker_id;
  write_file(tmp, text);
  const bool won = ::link(tmp.c_str(), path.c_str()) == 0;
  if (!won && errno != EEXIST) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("cannot publish '" + path + "'");
  }
  ::unlink(tmp.c_str());
  return won;
}

[[nodiscard]] std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

[[nodiscard]] std::string chunk_claim_path(const std::string& out_dir,
                                           std::uint64_t chunk_id) {
  char name[48];  // "chunk_" + up to 20 digits + ".claim" + NUL
  std::snprintf(name, sizeof(name), "chunk_%06llu.claim",
                static_cast<unsigned long long>(chunk_id));
  return out_dir + "/claims/" + name;
}

/// Claim a chunk for `worker_id`. O_EXCL creation is the arbitration:
/// exactly one process ever succeeds, everyone else reads the owner.
/// A resuming process adopts its own previous claims (same id); a
/// foreign claim is permanently someone else's work.
[[nodiscard]] bool claim_chunk(const std::string& path,
                               const std::string& worker_id) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd >= 0) {
    const std::string content = worker_id + "\n";
    const ssize_t n = ::write(fd, content.data(), content.size());
    ::close(fd);
    if (n != static_cast<ssize_t>(content.size())) {
      throw std::runtime_error("cannot write claim '" + path + "'");
    }
    return true;
  }
  if (errno != EEXIST) {
    throw std::runtime_error("cannot create claim '" + path +
                             "': " + std::strerror(errno));
  }
  std::ifstream in(path);
  std::string owner;
  std::getline(in, owner);
  return owner == worker_id;
}

/// Where one completed job's row lives on disk — the checkpoint index
/// keeps offsets, not row contents, so resume memory is O(jobs done)
/// small structs regardless of how big each row is.
/// The gate-count objective: priced exactly as the simulator builds
/// the mesh. Without `num_gss_routers` that is Table IV's noc_3x3
/// (3 design-kind routers + 6 conventional); with it, the Fig. 8
/// mixed mesh — n design-kind routers nearest memory, priority-first
/// elsewhere — so sweeps over the router count see the area cost of
/// each upgrade, not just its performance.
[[nodiscard]] double mesh_gates(const analysis::AreaModel& area,
                                const core::SystemConfig& cfg) {
  if (!cfg.num_gss_routers) return area.design_area(cfg.design).noc_3x3;
  const traffic::Application app =
      cfg.custom_app ? *cfg.custom_app : traffic::build_application(cfg.app);
  const std::uint64_t routers =
      static_cast<std::uint64_t>(app.noc.width) * app.noc.height;
  const std::uint64_t n =
      std::min<std::uint64_t>(*cfg.num_gss_routers, routers);
  const std::uint32_t flits = app.noc.buffer_flits;
  return static_cast<double>(n) *
             area.router_gates(core::router_kind(cfg.design), flits) +
         static_cast<double>(routers - n) *
             area.router_gates(noc::FlowControlKind::kPriorityFirst, flits) +
         area.memory_subsystem_gates(cfg.design);
}

struct RowRef {
  std::uint64_t job = 0;
  std::size_t file = 0;      ///< index into the scanned file list
  std::uint64_t offset = 0;  ///< byte offset of the line
  std::uint64_t length = 0;  ///< line length, excluding '\n'
};

struct RowIndex {
  std::vector<std::string> files;  ///< absolute row-file paths
  std::vector<RowRef> rows;        ///< deduplicated, unsorted
  std::unordered_set<std::uint64_t> done;
};

/// Parse one checkpoint line just far enough to recover its job index.
[[nodiscard]] std::optional<std::uint64_t> job_of_line(
    const std::string& line) {
  try {
    const JsonValue v = scenario::parse_json(line, "<row>");
    const JsonMember* m = v.find("job");
    if (m == nullptr || !m->value().is(JsonKind::kNumber)) {
      return std::nullopt;
    }
    return static_cast<std::uint64_t>(m->value().number);
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

/// Scan one shard's row file. Returns the byte length of the valid
/// prefix: everything after the last complete, parseable line is a
/// torn write from a killed process and is ignored (and truncated away
/// when the file is ours — we are about to append to it).
std::uint64_t scan_row_file(const std::string& path, std::size_t file_idx,
                            RowIndex& index) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  std::uint64_t offset = 0;
  std::uint64_t valid_end = 0;
  while (std::getline(in, line)) {
    if (in.eof()) break;  // no trailing '\n': torn final line
    const std::optional<std::uint64_t> job = job_of_line(line);
    if (!job) break;  // torn mid-line write that still got a '\n'
    if (index.done.insert(*job).second) {
      index.rows.push_back(RowRef{*job, file_idx, offset, line.size()});
    }
    offset += line.size() + 1;
    valid_end = offset;
  }
  return valid_end;
}

[[nodiscard]] RowIndex scan_rows(const std::string& rows_dir,
                                 const std::string& own_file) {
  RowIndex index;
  std::vector<std::string> names;
  if (DIR* d = ::opendir(rows_dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name.size() > 6 &&
          name.compare(name.size() - 6, 6, ".jsonl") == 0) {
        names.push_back(name);
      }
    }
    ::closedir(d);
  }
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const std::string path = rows_dir + "/" + name;
    const std::size_t file_idx = index.files.size();
    index.files.push_back(path);
    const std::uint64_t valid_end = scan_row_file(path, file_idx, index);
    if (name == own_file) {
      // Repair before appending: everything past the valid prefix is
      // a torn row from our previous life, and appending after it
      // would corrupt the line framing for every future scan.
      if (::truncate(path.c_str(), static_cast<off_t>(valid_end)) != 0) {
        throw std::runtime_error("cannot truncate '" + path + "'");
      }
    }
  }
  return index;
}

/// Read one referenced line back (the merge never holds more than one
/// row in memory).
[[nodiscard]] std::string read_row(const std::string& path,
                                   const RowRef& ref) {
  std::ifstream in(path, std::ios::binary);
  in.seekg(static_cast<std::streamoff>(ref.offset));
  std::string line(ref.length, '\0');
  in.read(line.data(), static_cast<std::streamsize>(ref.length));
  if (!in) {
    throw std::runtime_error("cannot re-read row from '" + path + "'");
  }
  return line;
}

[[nodiscard]] double number_member(const JsonValue& row, const char* key) {
  const JsonMember* m = row.find(key);
  if (m == nullptr || !m->value().is(JsonKind::kNumber)) return 0.0;
  return m->value().number;
}

[[nodiscard]] std::string manifest_text(const SweepSpec& spec,
                                        std::uint64_t chunk) {
  std::string out = "{\"name\": " + scenario::json_quote(spec.name) +
                    ", \"application\": " +
                    scenario::json_quote(spec.application) +
                    ", \"total_jobs\": " + std::to_string(spec.job_count()) +
                    ", \"chunk\": " + std::to_string(chunk) + "}\n";
  return out;
}

/// First run pins the sweep shape; every later run (resume or shard)
/// must agree, or it is pointed at the wrong directory — job indices
/// would mean different configs and the merged output would be salad.
void pin_manifest(const SweepSpec& spec, const ExecutorOptions& opts) {
  const std::string path = opts.out_dir + "/manifest.json";
  const std::string want = manifest_text(spec, opts.chunk);
  if (publish_first(path, want, opts.worker_id)) return;
  const JsonValue have = scenario::parse_json(slurp(path), path);
  const auto total = static_cast<std::uint64_t>(number_member(have, "total_jobs"));
  const auto chunk = static_cast<std::uint64_t>(number_member(have, "chunk"));
  if (total != spec.job_count() || chunk != opts.chunk) {
    throw ParseError(path, 1, 1, "manifest",
                     "output directory belongs to a different sweep: it "
                     "pins " + std::to_string(total) + " jobs in chunks of " +
                     std::to_string(chunk) + ", this run expands to " +
                     std::to_string(spec.job_count()) + " in chunks of " +
                     std::to_string(opts.chunk));
  }
}

void write_final_outputs(const SweepSpec& spec, const ExecutorOptions& opts,
                         RowIndex& index) {
  std::sort(index.rows.begin(), index.rows.end(),
            [](const RowRef& a, const RowRef& b) { return a.job < b.job; });

  // merged.jsonl: every row, job order, one row in memory at a time.
  const std::string merged_tmp =
      opts.out_dir + "/merged.jsonl.tmp." + opts.worker_id;
  std::FILE* merged = std::fopen(merged_tmp.c_str(), "wb");
  if (merged == nullptr) {
    throw std::runtime_error("cannot write '" + merged_tmp + "'");
  }
  std::vector<ParetoPoint> points;
  points.reserve(index.rows.size());
  for (const RowRef& ref : index.rows) {
    const std::string line = read_row(index.files[ref.file], ref);
    std::fwrite(line.data(), 1, line.size(), merged);
    std::fputc('\n', merged);
    const JsonValue row = scenario::parse_json(line, "<row>");
    ParetoPoint p;
    p.job = ref.job;
    p.point = spec.job_point(ref.job);
    p.latency_all = number_member(row, "latency_all");
    p.utilization = number_member(row, "utilization");
    p.gates = number_member(row, "gates");
    points.push_back(std::move(p));
  }
  std::fclose(merged);
  const std::string merged_path = opts.out_dir + "/merged.jsonl";
  if (std::rename(merged_tmp.c_str(), merged_path.c_str()) != 0) {
    throw std::runtime_error("cannot rename '" + merged_tmp + "'");
  }

  const std::vector<ParetoPoint> frontier = pareto_frontier(points);
  std::string pj = "{\n  \"name\": " + scenario::json_quote(spec.name) +
                   ",\n  \"objectives\": {\"latency_all\": \"min\", "
                   "\"utilization\": \"max\", \"gates\": \"min\"},\n"
                   "  \"frontier\": [\n";
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const ParetoPoint& p = frontier[i];
    pj += "    {\"job\": " + std::to_string(p.job) +
          ", \"point\": " + p.point +
          ", \"latency_all\": " + scenario::json_number(p.latency_all) +
          ", \"utilization\": " + scenario::json_number(p.utilization) +
          ", \"gates\": " + scenario::json_number(p.gates) + "}";
    pj += i + 1 < frontier.size() ? ",\n" : "\n";
  }
  pj += "  ]\n}\n";
  replace_file(opts.out_dir + "/pareto.json", pj, opts.worker_id);

  const std::string summary =
      "{\"name\": " + scenario::json_quote(spec.name) +
      ", \"application\": " + scenario::json_quote(spec.application) +
      ", \"total_jobs\": " + std::to_string(spec.job_count()) +
      ", \"rows\": " + std::to_string(index.rows.size()) +
      ", \"pareto_points\": " + std::to_string(frontier.size()) + "}\n";
  replace_file(opts.out_dir + "/summary.json", summary, opts.worker_id);
}

}  // namespace

SweepOutcome run_sweep(const SweepSpec& spec, const ExecutorOptions& opts) {
  const std::uint64_t total = spec.job_count();
  const std::uint64_t chunk = std::max<std::uint64_t>(opts.chunk, 1);
  const std::uint64_t num_chunks = (total + chunk - 1) / chunk;

  mkdir_p(opts.out_dir);
  mkdir_p(opts.out_dir + "/claims");
  mkdir_p(opts.out_dir + "/rows");
  pin_manifest(spec, opts);

  const std::string own_file = opts.worker_id + ".jsonl";
  const std::string rows_dir = opts.out_dir + "/rows";
  RowIndex before = scan_rows(rows_dir, own_file);

  runner::StreamExporter rows_out(rows_dir + "/" + own_file,
                                  runner::StreamFormat::kJsonLines);
  if (!rows_out.ok()) {
    throw std::runtime_error("cannot append to row file in '" + rows_dir +
                             "'");
  }
  std::optional<runner::StreamExporter> csv_out;
  if (!opts.csv_path.empty()) {
    csv_out.emplace(opts.csv_path, runner::StreamFormat::kCsv, "job,gates");
  }

  // Job handout: lazily claim chunks, then feed their not-yet-done
  // jobs one at a time. Runs under the runner's source lock, so the
  // cursor state needs no synchronization of its own.
  std::uint64_t handed = 0;
  std::uint64_t next_chunk = 0;
  std::deque<std::uint64_t> pending;
  const runner::JobSource source =
      [&]() -> std::optional<runner::StreamJob> {
    if (opts.max_jobs != 0 && handed >= opts.max_jobs) return std::nullopt;
    while (pending.empty() && next_chunk < num_chunks) {
      const std::uint64_t c = next_chunk++;
      if (!claim_chunk(chunk_claim_path(opts.out_dir, c), opts.worker_id)) {
        continue;
      }
      const std::uint64_t lo = c * chunk;
      const std::uint64_t hi = std::min(total, lo + chunk);
      for (std::uint64_t j = lo; j < hi; ++j) {
        if (before.done.find(j) == before.done.end()) pending.push_back(j);
      }
    }
    if (pending.empty()) return std::nullopt;
    const std::uint64_t j = pending.front();
    pending.pop_front();
    ++handed;
    return runner::StreamJob{static_cast<std::size_t>(j),
                             spec.job_config(j)};
  };

  // Checkpoint sink: one row per finished job, flushed before the next
  // row of this worker can land. wall_seconds is zeroed in persisted
  // rows — it is the one nondeterministic field, and resume promises
  // bitwise-identical outputs.
  const analysis::AreaModel area;
  std::uint64_t completed_now = 0;
  const runner::StreamSink sink = [&](runner::RunResult&& r) {
    const auto j = static_cast<std::uint64_t>(r.index);
    const core::SystemConfig cfg = spec.job_config(j);
    runner::LabeledRun run;
    run.table = spec.name;
    run.application = spec.application;
    run.ddr = to_string(cfg.generation);
    run.clock_mhz = cfg.clock_mhz;
    run.design = to_string(cfg.design);
    run.metrics = std::move(r.metrics);
    run.wall_seconds = 0.0;
    const double gates = mesh_gates(area, cfg);
    rows_out.append(run, "\"job\": " + std::to_string(j) +
                             ", \"point\": " + spec.job_point(j) +
                             ", \"gates\": " + scenario::json_number(gates));
    if (csv_out) {
      csv_out->append(run, std::to_string(j) + "," +
                               scenario::json_number(gates));
    }
    ++completed_now;
    if (opts.on_progress) {
      opts.on_progress(SweepProgress{completed_now, total, j,
                                     r.wall_seconds});
    }
  };

  runner::ExperimentRunner pool(runner::RunnerOptions{opts.jobs, {}});
  pool.run_stream(source, sink);

  SweepOutcome outcome;
  outcome.total_jobs = total;
  outcome.completed_now = completed_now;
  // Rescan: our rows plus whatever concurrent shards finished. Only a
  // fully-covered sweep earns the merged outputs.
  RowIndex after = scan_rows(rows_dir, "");
  outcome.rows_present = after.done.size();
  if (outcome.rows_present == total) {
    write_final_outputs(spec, opts, after);
    outcome.finished = true;
  }
  return outcome;
}

}  // namespace annoc::explore
