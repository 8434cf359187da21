/// \file metrics_identical.hpp
/// Shared bit-identity assertion on two Metrics: every field compared
/// with EXPECT_EQ, doubles included — the contract across execution
/// modes (dense vs event, serial vs parallel, hard-coded vs
/// scenario-loaded) is bitwise equality, not tolerance. The field list
/// is not maintained here: the assertion walks
/// core::for_each_comparable_field, whose static_asserts fail the
/// build when Metrics grows a field this comparison would silently
/// skip. The older per-test copy in observability_test predates this
/// header; new tests include it instead of duplicating the list.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/metrics.hpp"

namespace annoc::core {

inline void expect_stat_identical(const LatencyStat& a, const LatencyStat& b,
                                  const std::string& what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
  EXPECT_EQ(a.p50(), b.p50()) << what;
  EXPECT_EQ(a.p95(), b.p95()) << what;
  EXPECT_EQ(a.p99(), b.p99()) << what;
}

namespace detail_identical {

/// Visitor for for_each_comparable_field: every field becomes an
/// EXPECT_EQ tagged with its canonical name.
struct GtestComparer {
  const std::string& tag;

  void u64(const std::string& field, std::uint64_t a,
           std::uint64_t b) const {
    EXPECT_EQ(a, b) << tag << "/" << field;
  }
  void f64(const std::string& field, double a, double b) const {
    EXPECT_EQ(a, b) << tag << "/" << field;
  }
  void stat(const std::string& field, const LatencyStat& a,
            const LatencyStat& b) const {
    expect_stat_identical(a, b, tag + "/" + field);
  }
};

}  // namespace detail_identical

inline void expect_metrics_identical(const Metrics& lhs, const Metrics& rhs,
                                     const std::string& tag) {
  for_each_comparable_field(lhs, rhs, detail_identical::GtestComparer{tag});
}

}  // namespace annoc::core
