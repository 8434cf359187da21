#include "harness.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <unordered_map>

#include "scenario/json.hpp"

namespace annoc::benchmark {

namespace {

volatile std::uint64_t probe_sink;

/// The probe kernel: 40,000 updates and as many lookups, at keys drawn
/// from a fixed generator over 131,072 values, in a fresh
/// std::unordered_map. Node allocation, rehashing and dependent loads
/// over about 2 MB are the mix of the simulator's own inner loops, so
/// contention for the core, its caches and the allocator slows the probe
/// about as much as it slows a simulation. It must never change: its
/// time is the unit the scaled metrics are measured in.
double probe_seconds() {
  const Clock::time_point t0 = Clock::now();
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::uint64_t x = 1, found = 0;
  for (std::uint64_t i = 0; i < 40000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    table[(x >> 33) % 131072] += i;
    found += table.count((x >> 13) % 131072);
  }
  probe_sink = found + table.size();
  return seconds_since(t0);
}

}  // namespace

HostSpeed::HostSpeed() {
  (void)probe_seconds();  // warm-up: the first run also grows the heap
  probes_.push_back(probe_seconds());
}

std::size_t HostSpeed::lap() {
  probes_.push_back(probe_seconds());
  return probes_.size() - 2;
}

double HostSpeed::smoothed(std::size_t i) const {
  const std::size_t last = probes_.size() - 1;
  double three[] = {probes_[i == 0 ? 0 : i - 1], probes_[i],
                    probes_[std::min(i + 1, last)]};
  std::sort(std::begin(three), std::end(three));
  return three[1];
}

double HostSpeed::scale(std::size_t n) const {
  return kReferenceProbeSeconds / (0.5 * (smoothed(n) + smoothed(n + 1)));
}

std::string Fnv::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

namespace {

struct DigestVisitor {
  Fnv& f;
  void u64(const std::string& name, std::uint64_t a, std::uint64_t) {
    f.str(name);
    f.value(a);
  }
  void f64(const std::string& name, double a, double) {
    f.str(name);
    f.value(a);
  }
  void stat(const std::string& name, const LatencyStat& a,
            const LatencyStat&) {
    f.str(name);
    f.value(a.count());
    f.value(a.mean());
    f.value(a.min());
    f.value(a.max());
    f.value(a.p50());
    f.value(a.p95());
    f.value(a.p99());
  }
};

struct DiffVisitor {
  std::string first;
  void note(const std::string& name, bool same) {
    if (!same && first.empty()) first = name;
  }
  static bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  }
  void u64(const std::string& name, std::uint64_t a, std::uint64_t b) {
    note(name, a == b);
  }
  void f64(const std::string& name, double a, double b) {
    note(name, same_bits(a, b));
  }
  void stat(const std::string& name, const LatencyStat& a,
            const LatencyStat& b) {
    note(name, a.count() == b.count() && same_bits(a.mean(), b.mean()) &&
                   same_bits(a.min(), b.min()) &&
                   same_bits(a.max(), b.max()) && a.p50() == b.p50() &&
                   a.p95() == b.p95() && a.p99() == b.p99());
  }
};

}  // namespace

std::string metrics_digest(const core::Metrics& m) {
  Fnv f;
  core::for_each_comparable_field(m, m, DigestVisitor{f});
  return f.hex();
}

std::string first_difference(const core::Metrics& a, const core::Metrics& b) {
  DiffVisitor v;
  core::for_each_comparable_field(a, b, v);
  return v.first;
}

void JsonObject::key(std::string_view k) {
  if (body_.size() > 1) body_ += ", ";
  body_ += scenario::json_quote(k);
  body_ += ": ";
}

JsonObject& JsonObject::number(std::string_view k, double v) {
  key(k);
  body_ += scenario::json_number(v);
  return *this;
}

JsonObject& JsonObject::count(std::string_view k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::string(std::string_view k, std::string_view v) {
  key(k);
  body_ += scenario::json_quote(v);
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

JsonObject& JsonObject::metric(std::string_view k, double v,
                               std::string_view unit) {
  return raw(k, JsonObject().number("value", v).string("unit", unit).str());
}

SpanLog::Scope::Scope(SpanLog& log, std::string name)
    : log_(log), id_(log.enabled_ ? log.open(std::move(name)) : -1) {}

SpanLog::Scope::~Scope() {
  if (id_ >= 0) log_.close(id_);
}

int SpanLog::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start = seconds_since(origin_);
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = seconds_since(origin_);
  stack_.pop_back();
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string parent =
        s.parent < 0 ? std::string("null") : std::to_string(s.parent);
    out << "  {\"name\": " << scenario::json_quote(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << scenario::json_number(s.start * 1e6)
        << ", \"dur\": " << scenario::json_number((s.end - s.start) * 1e6)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << parent << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += self[i];
  }
  return out;
}

}  // namespace annoc::benchmark
