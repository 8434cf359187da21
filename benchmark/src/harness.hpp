/// \file harness.hpp
/// Small pieces shared by annoc_benchmark: wall-clock timing and its
/// scaling to a reference host's speed, the
/// Metrics digest behind the pinned correctness gate, bitwise Metrics
/// comparison, a one-line JSON writer, and the span log the traced pass
/// writes as a Chrome trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.hpp"

namespace annoc::benchmark {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// a / b, or 0 when b is 0 (rates over an empty set of events).
[[nodiscard]] inline double ratio(double a, double b) {
  return b != 0.0 ? a / b : 0.0;
}

/// The probe's time on the reference host (a 4-vCPU Xeon VM at 2.1 GHz,
/// gcc 12.2) when nothing else contends for its core.
inline constexpr double kReferenceProbeSeconds = 3.5e-3;

/// Scales host time to the reference host's speed.
///
/// On a shared machine the host's speed changes from one second to the
/// next, as other tenants contend for the core, its caches and memory,
/// and a simulation slows with it by up to 2x. So the benchmark times its
/// work in short segments with a run of a fixed probe kernel between each
/// two, and scales a segment's host time by kReferenceProbeSeconds over
/// the mean of the probe times on either side of it. A change to the
/// simulator moves the scaled time as it moves the host time; a change in
/// the host's speed moves the probe too, and cancels out.
class HostSpeed {
 public:
  /// Runs the probe, so that the first segment has a probe before it.
  HostSpeed();
  /// Ends a segment: runs the probe. Returns the segment's number.
  std::size_t lap();
  /// The factor from segment `n`'s host time to the reference host's.
  /// Each probe time is first replaced by the median of itself and its
  /// two neighbours, so that one probe run stretched by an interrupt
  /// cannot move a segment.
  [[nodiscard]] double scale(std::size_t n) const;
  /// Every probe time measured, warm-up excluded.
  [[nodiscard]] const std::vector<double>& probes() const { return probes_; }

 private:
  [[nodiscard]] double smoothed(std::size_t i) const;
  std::vector<double> probes_;
};

/// 64-bit FNV-1a.
class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void str(std::string_view s) { bytes(s.data(), s.size()); }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  [[nodiscard]] std::uint64_t get() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Digest of every comparable Metrics field (core::for_each_comparable_
/// field), names included, doubles by bit pattern: equal digests mean
/// bitwise-equal results.
[[nodiscard]] std::string metrics_digest(const core::Metrics& m);

/// Name of the first field where `a` and `b` differ bitwise; empty when
/// they are identical.
[[nodiscard]] std::string first_difference(const core::Metrics& a,
                                           const core::Metrics& b);

/// "[f(items[0]), f(items[1]), ...]"; `f` returns JSON text.
template <typename T, typename F>
[[nodiscard]] std::string json_array(const std::vector<T>& items, F f) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += f(items[i]);
  }
  return out + "]";
}

/// Builds one JSON object on a single line.
class JsonObject {
 public:
  JsonObject& number(std::string_view key, double v);
  JsonObject& count(std::string_view key, std::uint64_t v);
  JsonObject& boolean(std::string_view key, bool v);
  JsonObject& string(std::string_view key, std::string_view v);
  /// `json` must already be valid JSON text.
  JsonObject& raw(std::string_view key, std::string_view json);
  /// {"value": v, "unit": unit}
  JsonObject& metric(std::string_view key, double v, std::string_view unit);
  [[nodiscard]] std::string str() const { return body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_ = "{";
};

/// Nested wall-clock spans (name, start, end, parent), kept in memory
/// and written as Chrome trace_event JSON at the end of the traced pass.
/// A disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// RAII span: opens in the constructor, closes in the destructor.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    SpanLog& log_;
    int id_;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Write the spans as {"traceEvents": [...]} (complete "X" events, in
  /// microseconds). Returns false when the file cannot be written.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;
  /// Self time per span name: each span's duration minus the part its
  /// direct children cover, summed over spans of that name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };
  int open(std::string name);
  void close(int id);

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace annoc::benchmark
