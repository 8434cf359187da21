/// Sweep-engine unit tests: spec expansion (grid order, random
/// determinism, positioned diagnostics), scenario::apply_overrides,
/// Pareto-frontier extraction, the streaming metrics exporter, and
/// run_stream bit-identity under an oversubscribed pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "explore/pareto.hpp"
#include "explore/sweep_spec.hpp"
#include "metrics_identical.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/metrics_export.hpp"
#include "scenario/scenario.hpp"

using namespace annoc;

namespace {

/// A grid spec over library defaults with windows small enough to
/// expand-and-apply in a unit test.
constexpr const char* kGridSpec = R"({
  "name": "test/grid",
  "axes": [
    {"key": "design", "values": ["gss", "ref4"]},
    {"key": "pct", "range": {"from": 3, "to": 5, "steps": 3}},
    {"key": "measure_cycles", "values": [2000]}
  ]
})";

TEST(SweepSpec, GridExpansionLastAxisFastest) {
  const explore::SweepSpec spec =
      explore::parse_sweep_spec(kGridSpec, "<test>");
  EXPECT_EQ(spec.name, "test/grid");
  EXPECT_EQ(spec.mode, explore::SweepMode::kGrid);
  ASSERT_EQ(spec.axes.size(), 3u);
  EXPECT_EQ(spec.job_count(), 6u);

  // Nested-loop order: design outermost, pct inner, measure pinned.
  EXPECT_EQ(spec.job_point(0),
            R"({"design": "gss", "pct": 3, "measure_cycles": 2000})");
  EXPECT_EQ(spec.job_point(1),
            R"({"design": "gss", "pct": 4, "measure_cycles": 2000})");
  EXPECT_EQ(spec.job_point(3),
            R"({"design": "ref4", "pct": 3, "measure_cycles": 2000})");
  EXPECT_EQ(spec.job_point(5),
            R"({"design": "ref4", "pct": 5, "measure_cycles": 2000})");

  const core::SystemConfig cfg4 = spec.job_config(4);
  EXPECT_EQ(cfg4.design, core::DesignPoint::kRef4);
  EXPECT_EQ(cfg4.pct, 4u);
  EXPECT_EQ(cfg4.sim_cycles, 2000u);
  // Un-swept knobs keep the base value.
  EXPECT_EQ(cfg4.clock_mhz, core::SystemConfig{}.clock_mhz);
}

TEST(SweepSpec, RangeHitsEndpointsExactly) {
  const explore::SweepSpec spec = explore::parse_sweep_spec(
      R"({"axes": [{"key": "clock_mhz",
                    "range": {"from": 200, "to": 400, "steps": 5}}]})",
      "<test>");
  ASSERT_EQ(spec.axes[0].values.size(), 5u);
  EXPECT_EQ(spec.axes[0].values.front().number, 200.0);
  EXPECT_EQ(spec.axes[0].values[2].number, 300.0);
  EXPECT_EQ(spec.axes[0].values.back().number, 400.0);
  // steps == 1 degenerates to just `from`.
  const explore::SweepSpec one = explore::parse_sweep_spec(
      R"({"axes": [{"key": "clock_mhz",
                    "range": {"from": 333, "to": 400, "steps": 1}}]})",
      "<test>");
  EXPECT_EQ(one.job_count(), 1u);
  EXPECT_EQ(one.axes[0].values[0].number, 333.0);
}

TEST(SweepSpec, RandomModeIsAPureFunctionOfIndex) {
  const char* text = R"({
    "mode": "random", "samples": 40, "sweep_seed": 7,
    "axes": [
      {"key": "pct", "values": [2, 3, 4, 5, 6]},
      {"key": "design", "values": ["gss", "gss+sagm"]}
    ]
  })";
  const explore::SweepSpec a = explore::parse_sweep_spec(text, "<a>");
  const explore::SweepSpec b = explore::parse_sweep_spec(text, "<b>");
  EXPECT_EQ(a.job_count(), 40u);
  for (std::uint64_t j = a.job_count(); j-- > 0;) {
    // Re-parsed spec, queried in reverse order: same draws — job k's
    // sample never depends on jobs 0..k-1 having been expanded.
    EXPECT_EQ(a.job_point(j), b.job_point(j));
    const std::vector<std::size_t> choice = a.job_choice(j);
    EXPECT_LT(choice[0], 5u);
    EXPECT_LT(choice[1], 2u);
  }
  // A different seed reshuffles at least one draw.
  const explore::SweepSpec c = explore::parse_sweep_spec(
      R"({"mode": "random", "samples": 40, "sweep_seed": 8,
          "axes": [{"key": "pct", "values": [2, 3, 4, 5, 6]},
                   {"key": "design", "values": ["gss", "gss+sagm"]}]})",
      "<c>");
  bool any_differs = false;
  for (std::uint64_t j = 0; j < 40 && !any_differs; ++j) {
    any_differs = a.job_point(j) != c.job_point(j);
  }
  EXPECT_TRUE(any_differs);
}

TEST(SweepSpec, DiagnosticsArePositioned) {
  // Unknown sweep key.
  EXPECT_THROW(explore::parse_sweep_spec(
                   R"({"axes": [], "tpyo": 1})", "<t>"),
               ParseError);
  // Missing / empty axes.
  EXPECT_THROW(explore::parse_sweep_spec(R"({"name": "x"})", "<t>"),
               ParseError);
  EXPECT_THROW(explore::parse_sweep_spec(R"({"axes": []})", "<t>"),
               ParseError);
  // Non-sweepable axis key.
  EXPECT_THROW(explore::parse_sweep_spec(
                   R"({"axes": [{"key": "trace_path", "values": ["x"]}]})",
                   "<t>"),
               ParseError);
  // values and range are mutually exclusive; one is required.
  EXPECT_THROW(
      explore::parse_sweep_spec(
          R"({"axes": [{"key": "pct", "values": [3],
                        "range": {"from": 2, "to": 6, "steps": 5}}]})",
          "<t>"),
      ParseError);
  EXPECT_THROW(explore::parse_sweep_spec(R"({"axes": [{"key": "pct"}]})",
                                         "<t>"),
               ParseError);
  // Duplicate axis.
  EXPECT_THROW(explore::parse_sweep_spec(
                   R"({"axes": [{"key": "pct", "values": [3]},
                                {"key": "pct", "values": [4]}]})",
                   "<t>"),
               ParseError);
  // samples belongs to random mode only (and is required there).
  EXPECT_THROW(explore::parse_sweep_spec(
                   R"({"samples": 5,
                       "axes": [{"key": "pct", "values": [3]}]})",
                   "<t>"),
               ParseError);
  EXPECT_THROW(explore::parse_sweep_spec(
                   R"({"mode": "random",
                       "axes": [{"key": "pct", "values": [3]}]})",
                   "<t>"),
               ParseError);
  // A candidate that fails scenario validation is caught at parse
  // time with its spec position, not at job-expansion time.
  try {
    (void)explore::parse_sweep_spec(
        "{\"axes\": [\n  {\"key\": \"pct\", \"values\": [3, 99]}]}", "<t>");
    FAIL() << "out-of-range candidate accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.key(), "pct");
  }
}

TEST(SweepSpec, SweepSeedIsAStrictSeed) {
  // sweep_seed reads like the scenario seed: a number, or a decimal or
  // 0x-hex string for the full 64 bits.
  const char* kAxes = R"(, "mode": "random", "samples": 2,
      "axes": [{"key": "pct", "values": [3, 4]}]})";
  const auto spec = [&](const std::string& seed) {
    return explore::parse_sweep_spec("{\"sweep_seed\": " + seed + kAxes,
                                     "<t>");
  };
  EXPECT_EQ(spec("\"0x10\"").sweep_seed, 16u);
  EXPECT_EQ(spec("\"18446744073709551615\"").sweep_seed, ~0ull);
  for (const char* bad :
       {"\"99999999999999999999\"", "\"-1\"", "\" 42\"", "\"\""}) {
    try {
      (void)spec(bad);
      ADD_FAILURE() << bad << " accepted";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.key(), "sweep_seed") << bad;
      EXPECT_EQ(e.line(), 1u) << bad;
      EXPECT_EQ(e.column(), 2u) << bad;
      EXPECT_NE(e.message().find("malformed seed string"), std::string::npos)
          << bad;
    }
  }
}

TEST(SweepSpec, OptionalEnumAxisTakesNull) {
  const explore::SweepSpec spec = explore::parse_sweep_spec(
      R"({"axes": [{"key": "engine", "values": [null, "dpq"]}]})", "<t>");
  ASSERT_EQ(spec.job_count(), 2u);
  EXPECT_FALSE(spec.job_config(0).engine.has_value());
  EXPECT_EQ(spec.job_config(1).engine, core::EngineKind::kDpq);
}

TEST(Scenario, SweepableKeyClassification) {
  EXPECT_TRUE(scenario::is_sweepable_key("pct"));
  EXPECT_TRUE(scenario::is_sweepable_key("design"));
  EXPECT_TRUE(scenario::is_sweepable_key("seed"));
  EXPECT_TRUE(scenario::is_sweepable_key("app"));
  EXPECT_FALSE(scenario::is_sweepable_key("name"));
  EXPECT_FALSE(scenario::is_sweepable_key("mesh"));
  EXPECT_FALSE(scenario::is_sweepable_key("cores"));
  EXPECT_FALSE(scenario::is_sweepable_key("trace_path"));
  EXPECT_FALSE(scenario::is_sweepable_key("perfetto_path"));
  EXPECT_FALSE(scenario::is_sweepable_key("no_such_key"));
}

TEST(Scenario, ApplyOverridesKeepsAbsentKnobs) {
  core::SystemConfig cfg;
  cfg.pct = 5;
  cfg.clock_mhz = 266.0;
  const scenario::JsonValue point = scenario::parse_json(
      R"({"design": "gss+sagm", "seed": 99})", "<p>");
  scenario::apply_overrides(cfg, point, "<p>");
  EXPECT_EQ(cfg.design, core::DesignPoint::kGssSagm);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.pct, 5u);          // untouched
  EXPECT_EQ(cfg.clock_mhz, 266.0); // untouched

  // Unknown and non-sweepable keys are rejected with positions.
  core::SystemConfig fresh;
  EXPECT_THROW(scenario::apply_overrides(
                   fresh, scenario::parse_json(R"({"nope": 1})", "<p>"),
                   "<p>"),
               ParseError);
  EXPECT_THROW(scenario::apply_overrides(
                   fresh,
                   scenario::parse_json(R"({"record_trace": "x"})", "<p>"),
                   "<p>"),
               ParseError);
}

TEST(Pareto, FrontierIsOrderIndependent) {
  using explore::ParetoPoint;
  std::vector<ParetoPoint> pts = {
      {0, "", 100.0, 0.70, 5000.0},  // frontier
      {1, "", 120.0, 0.70, 5000.0},  // dominated by 0 (worse latency)
      {2, "", 100.0, 0.80, 6000.0},  // frontier (best utilization)
      {3, "", 90.0, 0.60, 7000.0},   // frontier (best latency)
      {4, "", 100.0, 0.70, 5000.0},  // duplicate of 0 → dropped (job 0 wins)
      {5, "", 95.0, 0.65, 4500.0},   // frontier (trades utilization away)
  };
  EXPECT_TRUE(explore::dominates(pts[0], pts[1]));
  EXPECT_FALSE(explore::dominates(pts[1], pts[0]));
  EXPECT_FALSE(explore::dominates(pts[0], pts[2]));

  const std::vector<ParetoPoint> sorted_in = pts;
  const std::vector<ParetoPoint> f1 = explore::pareto_frontier(sorted_in);
  std::vector<std::uint64_t> jobs;
  for (const ParetoPoint& p : f1) jobs.push_back(p.job);
  EXPECT_EQ(jobs, (std::vector<std::uint64_t>{0, 2, 3, 5}));

  // Any permutation of the input yields the same frontier.
  std::mt19937 gen(123);
  for (int trial = 0; trial < 10; ++trial) {
    std::shuffle(pts.begin(), pts.end(), gen);
    const std::vector<ParetoPoint> f2 = explore::pareto_frontier(pts);
    ASSERT_EQ(f2.size(), f1.size());
    for (std::size_t i = 0; i < f1.size(); ++i) {
      EXPECT_EQ(f2[i].job, f1[i].job);
    }
  }
}

[[nodiscard]] std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

TEST(StreamExporter, CsvHeaderOnceAndAppendAcrossReopen) {
  const std::string path =
      ::testing::TempDir() + "explore_stream_test.csv";
  std::remove(path.c_str());
  runner::LabeledRun run;
  run.table = "t";
  run.design = "GSS";
  {
    runner::StreamExporter out(path, runner::StreamFormat::kCsv, "job");
    ASSERT_TRUE(out.ok());
    out.append(run, "0");
    out.append(run, "1");
  }
  {
    // Reopening appends — no second header.
    runner::StreamExporter out(path, runner::StreamFormat::kCsv, "job");
    out.append(run, "2");
    EXPECT_EQ(out.dropped_rows(), 0u);
  }
  const std::string text = slurp(path);
  EXPECT_EQ(text.rfind(std::string("job,") + runner::csv_header(), 0), 0u);
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 4u);  // header + 3 rows
  EXPECT_EQ(text.find("job,", 1), std::string::npos);  // header not repeated
  std::remove(path.c_str());
}

TEST(StreamExporter, JsonLinesRowsParseWithSplicedMembers) {
  const std::string path =
      ::testing::TempDir() + "explore_stream_test.jsonl";
  std::remove(path.c_str());
  runner::LabeledRun run;
  run.table = "t";
  {
    runner::StreamExporter out(path, runner::StreamFormat::kJsonLines);
    out.append(run, R"("job": 7, "point": {"pct": 3})");
    out.append(run);
  }
  const std::string text = slurp(path);
  const std::size_t nl = text.find('\n');
  ASSERT_NE(nl, std::string::npos);
  const scenario::JsonValue row =
      scenario::parse_json(text.substr(0, nl), "<row>");
  ASSERT_NE(row.find("job"), nullptr);
  EXPECT_EQ(row.find("job")->value().number, 7.0);
  ASSERT_NE(row.find("point"), nullptr);
  ASSERT_NE(row.find("table"), nullptr);
  EXPECT_EQ(row.find("table")->value().string, "t");
  // Second row has no spliced members but still parses.
  const scenario::JsonValue row2 = scenario::parse_json(
      text.substr(nl + 1, text.size() - nl - 2), "<row2>");
  EXPECT_EQ(row2.find("job"), nullptr);
  std::remove(path.c_str());
}

TEST(RunStream, OversubscribedPoolIsBitIdenticalToSerial) {
  const explore::SweepSpec spec = explore::parse_sweep_spec(
      R"({"axes": [
            {"key": "design", "values": ["gss", "gss+sagm"]},
            {"key": "seed", "values": [11, 22, 33]},
            {"key": "measure_cycles", "values": [1500]},
            {"key": "warmup_cycles", "values": [300]},
            {"key": "drain_cycle_limit", "values": [1500]}
         ]})",
      "<stream>");
  const std::uint64_t n = spec.job_count();
  ASSERT_EQ(n, 6u);

  std::vector<core::Metrics> serial(n);
  for (std::uint64_t j = 0; j < n; ++j) {
    serial[j] = core::run_simulation(spec.job_config(j));
  }

  // Far more workers than jobs or cores: handout and completion order
  // are scheduler noise, results must not be.
  std::vector<core::Metrics> streamed(n);
  std::size_t next = 0;
  runner::ExperimentRunner pool(8u);
  pool.run_stream(
      [&]() -> std::optional<runner::StreamJob> {
        if (next >= n) return std::nullopt;
        const std::size_t i = next++;
        return runner::StreamJob{i, spec.job_config(i)};
      },
      [&](runner::RunResult&& r) {
        streamed[r.index] = std::move(r.metrics);
      });
  for (std::uint64_t j = 0; j < n; ++j) {
    core::expect_metrics_identical(serial[j], streamed[j],
                                   "stream job " + std::to_string(j));
  }
}

}  // namespace
