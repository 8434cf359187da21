#include "explore/sweep_spec.hpp"

#include <fstream>
#include <sstream>

#include "common/rng.hpp"
#include "explore/sweep_schema.hpp"
#include "scenario/object_reader.hpp"
#include "scenario/scenario.hpp"

namespace annoc::explore {
namespace {

using scenario::JsonKind;
using scenario::JsonMember;
using scenario::JsonValue;
using scenario::ObjectReader;

/// Grid sizes above this are almost certainly a typo'd axis, and the
/// mixed-radix decode below must not overflow.
constexpr std::uint64_t kMaxJobs = 1ull << 32;

/// A candidate value must be a scalar: it becomes one member of a
/// sweep-point object, and arrays/objects have no sweepable target.
void check_scalar(const JsonValue& v, const std::string& key,
                  const std::string& origin) {
  if (v.is(JsonKind::kArray) || v.is(JsonKind::kObject)) {
    throw ParseError(origin, v.line, v.column, key,
                     std::string("axis values must be scalars, got ") +
                         to_string(v.kind));
  }
}

[[nodiscard]] SweepAxis parse_axis(const JsonValue& axis,
                                   const std::string& origin) {
  if (!axis.is(JsonKind::kObject)) {
    throw ParseError(origin, axis.line, axis.column, "axes",
                     std::string("expected an axis object, got ") +
                         to_string(axis.kind));
  }
  const ObjectReader r(axis, kAxisKeys, origin, "axis");
  SweepAxis out;
  const JsonMember& key = r.require("key");
  if (!key.value().is(JsonKind::kString)) {
    r.fail(key, "expected a string (a scenario key)");
  }
  out.key = key.value().string;
  if (!scenario::is_sweepable_key(out.key)) {
    r.fail(key, "'" + out.key +
                    "' is not a sweepable scenario key (workload structure "
                    "and output paths are fixed; see "
                    "docs/CONFIG_REFERENCE.md)");
  }

  const JsonMember* values = r.find("values");
  const JsonMember* range = r.find("range");
  if ((values != nullptr) == (range != nullptr)) {
    throw ParseError(origin, axis.line, axis.column, out.key,
                     "an axis wants exactly one of 'values' and 'range'");
  }
  if (values != nullptr) {
    if (!values->value().is(JsonKind::kArray)) {
      r.fail(*values, "expected an array of scalar values");
    }
    if (values->value().array.empty()) {
      r.fail(*values, "an axis needs at least one value");
    }
    for (const JsonValue& v : values->value().array) {
      check_scalar(v, out.key, origin);
      out.values.push_back(v);
    }
    return out;
  }

  if (!range->value().is(JsonKind::kObject)) {
    r.fail(*range, "expected an object {from, to, steps}");
  }
  const ObjectReader rr(range->value(), kRangeKeys, origin, "range");
  const JsonMember& from_m = rr.require("from");
  const JsonMember& to_m = rr.require("to");
  for (const JsonMember* m : {&from_m, &to_m}) {
    if (!m->value().is(JsonKind::kNumber)) rr.fail(*m, "expected a number");
  }
  const double from = from_m.value().number;
  const double to = to_m.value().number;
  const std::uint64_t steps = rr.u64_of(rr.require("steps"), 1, kMaxJobs);
  for (std::uint64_t k = 0; k < steps; ++k) {
    JsonValue v;
    v.kind = JsonKind::kNumber;
    // Endpoint-exact interpolation: step 0 is `from` and step steps-1
    // is `to` bitwise, so integer ranges stay integers.
    v.number = steps == 1 ? from
                          : from + (to - from) * static_cast<double>(k) /
                                       static_cast<double>(steps - 1);
    v.line = range->line;
    v.column = range->column;
    out.values.push_back(v);
  }
  return out;
}

/// Canonical scalar serialization for job_point(): the subset of JSON
/// an axis candidate can hold.
void dump_scalar(std::string& out, const JsonValue& v) {
  switch (v.kind) {
    case JsonKind::kNull: out += "null"; break;
    case JsonKind::kBool: out += v.boolean ? "true" : "false"; break;
    case JsonKind::kNumber: out += scenario::json_number(v.number); break;
    case JsonKind::kString: out += scenario::json_quote(v.string); break;
    case JsonKind::kArray:
    case JsonKind::kObject: out += "?"; break;  // excluded at parse time
  }
}

/// One decorrelated RNG seed per (sweep_seed, job) pair — splitmix64
/// over the combination, so random-mode draws are a pure function of
/// the job index and shards never share a stream position.
[[nodiscard]] std::uint64_t job_seed(std::uint64_t sweep_seed,
                                     std::uint64_t index) {
  std::uint64_t z = sweep_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Build the sweep-point object for a choice vector. Member positions
/// come from the candidate values, so a failed apply points at the
/// spec line that wrote the offending value.
[[nodiscard]] JsonValue point_of(const SweepSpec& spec,
                                 const std::vector<std::size_t>& choice) {
  JsonValue point;
  point.kind = JsonKind::kObject;
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    JsonMember m;
    m.name = spec.axes[a].key;
    const JsonValue& v = spec.axes[a].values[choice[a]];
    m.line = v.line;
    m.column = v.column;
    m.value_storage.push_back(v);
    point.object.push_back(std::move(m));
  }
  return point;
}

}  // namespace

std::uint64_t SweepSpec::job_count() const {
  if (mode == SweepMode::kRandom) return samples;
  std::uint64_t n = 1;
  for (const SweepAxis& a : axes) n *= a.values.size();  // parse-capped
  return n;
}

std::vector<std::size_t> SweepSpec::job_choice(std::uint64_t index) const {
  std::vector<std::size_t> choice(axes.size(), 0);
  if (mode == SweepMode::kGrid) {
    // Mixed-radix decode, last axis fastest: the job list reads like
    // nested for-loops over the axes in spec order.
    for (std::size_t a = axes.size(); a-- > 0;) {
      const std::uint64_t radix = axes[a].values.size();
      choice[a] = static_cast<std::size_t>(index % radix);
      index /= radix;
    }
    return choice;
  }
  Rng rng(job_seed(sweep_seed, index));
  for (std::size_t a = 0; a < axes.size(); ++a) {
    choice[a] = static_cast<std::size_t>(rng.next_below(axes[a].values.size()));
  }
  return choice;
}

core::SystemConfig SweepSpec::job_config(std::uint64_t index) const {
  core::SystemConfig cfg = base;
  scenario::apply_overrides(cfg, point_of(*this, job_choice(index)), origin);
  return cfg;
}

std::string SweepSpec::job_point(std::uint64_t index) const {
  const std::vector<std::size_t> choice = job_choice(index);
  std::string out = "{";
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (a != 0) out += ", ";
    out += scenario::json_quote(axes[a].key);
    out += ": ";
    dump_scalar(out, axes[a].values[choice[a]]);
  }
  out += "}";
  return out;
}

SweepSpec parse_sweep_spec(std::string_view text, const std::string& origin,
                           const std::string& base_dir) {
  const JsonValue root = scenario::parse_json(text, origin);
  if (!root.is(JsonKind::kObject)) {
    throw ParseError(origin, root.line, root.column, "",
                     "a sweep spec must be a JSON object");
  }
  const ObjectReader r(root, kSweepKeys, origin, "sweep");

  SweepSpec spec;
  spec.origin = origin;
  if (const JsonMember* m = r.find("name")) spec.name = r.string_of(*m);

  if (const JsonMember* m = r.find("scenario")) {
    if (!m->value().is(JsonKind::kString)) {
      r.fail(*m, "expected a string (a scenario file path)");
    }
    spec.scenario_path = m->value().string;
  }
  if (!spec.scenario_path.empty()) {
    if (spec.scenario_path.front() != '/' && !base_dir.empty()) {
      spec.scenario_path = base_dir + "/" + spec.scenario_path;
    }
    scenario::Scenario s = scenario::load_scenario(spec.scenario_path);
    spec.base = std::move(s.config);
    spec.application = spec.base.custom_app ? spec.base.custom_app->name
                                            : to_string(spec.base.app);
    if (spec.name.empty()) spec.name = std::move(s.name);
  } else {
    spec.application = "default";
  }

  if (const JsonMember* m = r.find("mode")) {
    const std::string s = r.string_of(*m);
    if (s == "grid") {
      spec.mode = SweepMode::kGrid;
    } else if (s == "random") {
      spec.mode = SweepMode::kRandom;
    } else {
      r.fail(*m, "unknown mode '" + s + "'; expected grid or random");
    }
  }

  const JsonMember* samples = r.find("samples");
  if (spec.mode == SweepMode::kRandom) {
    if (samples == nullptr) {
      throw ParseError(origin, root.line, root.column, "samples",
                       "random mode needs a sample count");
    }
    spec.samples = r.u64_of(*samples, 1, kMaxJobs);
  } else if (samples != nullptr) {
    r.fail(*samples,
           "'samples' only applies to random mode; a grid's size is the "
           "product of its axes");
  }
  if (const JsonMember* m = r.find("sweep_seed")) {
    spec.sweep_seed = r.seed_of(*m);
  }

  const JsonMember& axes = r.require("axes");
  if (!axes.value().is(JsonKind::kArray) || axes.value().array.empty()) {
    r.fail(axes, "expected a non-empty array of axis objects");
  }
  std::uint64_t grid = 1;
  for (const JsonValue& av : axes.value().array) {
    SweepAxis axis = parse_axis(av, origin);
    for (const SweepAxis& prev : spec.axes) {
      if (prev.key == axis.key) {
        throw ParseError(origin, av.line, av.column, axis.key,
                         "duplicate axis: this key is already swept");
      }
    }
    if (grid > kMaxJobs / axis.values.size()) {
      throw ParseError(origin, av.line, av.column, axis.key,
                       "grid too large (more than 2^32 jobs)");
    }
    grid *= axis.values.size();
    spec.axes.push_back(std::move(axis));
  }

  // Fail-fast validation: test-apply every candidate on its own, so a
  // bad value is reported at spec-parse time with its spec position —
  // not from job 73412 of a running sweep. Cost is the sum of axis
  // sizes, not the product.
  for (const SweepAxis& axis : spec.axes) {
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      JsonValue point;
      point.kind = JsonKind::kObject;
      JsonMember m;
      m.name = axis.key;
      m.line = axis.values[i].line;
      m.column = axis.values[i].column;
      m.value_storage.push_back(axis.values[i]);
      point.object.push_back(std::move(m));
      core::SystemConfig probe = spec.base;
      scenario::apply_overrides(probe, point, origin);
    }
  }
  return spec;
}

SweepSpec load_sweep_spec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ParseError(path, 0, 0, "", "cannot open sweep spec file");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "" : path.substr(0, slash);
  return parse_sweep_spec(buf.str(), path, dir);
}

}  // namespace annoc::explore
