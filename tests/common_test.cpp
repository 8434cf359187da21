/// Unit tests for the foundation utilities: bounded queue, RNG,
/// statistics, the strict integer parser and enum token sets.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/bounded_queue.hpp"
#include "common/flat_map.hpp"
#include "common/env.hpp"
#include "common/parse_u64.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/tokens.hpp"

namespace annoc {
namespace {

TEST(BoundedQueue, StartsEmpty) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.full());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 4u);
  EXPECT_EQ(q.free_slots(), 4u);
}

TEST(BoundedQueue, PushPopFifoOrder) {
  BoundedQueue<int> q(3);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, RejectsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueue, WrapsAroundRingBuffer) {
  BoundedQueue<int> q(3);
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(q.push(round));
    EXPECT_EQ(q.pop(), round);
  }
  EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, RandomAccessFromFront) {
  BoundedQueue<int> q(4);
  q.push(10);
  q.push(20);
  q.push(30);
  EXPECT_EQ(q.at(0), 10);
  EXPECT_EQ(q.at(1), 20);
  EXPECT_EQ(q.at(2), 30);
  EXPECT_EQ(q.front(), 10);
}

TEST(BoundedQueue, EraseAtPreservesOrder) {
  BoundedQueue<int> q(5);
  for (int i = 1; i <= 5; ++i) q.push(i);
  EXPECT_EQ(q.erase_at(2), 3);  // remove the middle
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 4);
  EXPECT_EQ(q.pop(), 5);
}

TEST(BoundedQueue, EraseAtFrontEqualsPop) {
  BoundedQueue<int> q(3);
  q.push(7);
  q.push(8);
  EXPECT_EQ(q.erase_at(0), 7);
  EXPECT_EQ(q.front(), 8);
}

TEST(BoundedQueue, EraseAtWorksAcrossWrap) {
  BoundedQueue<int> q(3);
  q.push(1);
  q.push(2);
  q.pop();
  q.push(3);
  q.push(4);  // ring wrapped
  EXPECT_EQ(q.erase_at(1), 3);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 4);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(42);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(r.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng r(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceZeroAndOne) {
  Rng r(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng r(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, WeightedPickRespectsWeights) {
  Rng r(13);
  const double w[3] = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[r.pick_weighted(w, 3)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(SampleStat, BasicMoments) {
  SampleStat s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(SampleStat, EmptyIsZero) {
  SampleStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleStat, MergeMatchesCombined) {
  SampleStat a, b, all;
  for (double v : {1.0, 5.0, 2.0}) {
    a.add(v);
    all.add(v);
  }
  for (double v : {10.0, 0.5}) {
    b.add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Histogram, CountsAndPercentiles) {
  Histogram h(10, 10);  // buckets of 10 up to 100
  for (std::uint64_t v = 0; v < 100; ++v) h.add(v);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_LE(h.percentile(50), 60u);
  EXPECT_GE(h.percentile(50), 40u);
  EXPECT_GE(h.percentile(99), 90u);
}

TEST(Histogram, OverflowBucketCatchesLargeValues) {
  Histogram h(4, 4);
  h.add(1000000);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.bucket_count(h.num_buckets() - 1), 1u);
}

TEST(LatencyStat, TracksMeanAndTail) {
  LatencyStat s;
  for (Cycle c = 1; c <= 100; ++c) s.add(c);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_GE(s.p99(), 95u);
  EXPECT_LE(s.p50(), 64u);
}

TEST(Env, FallbackWhenUnset) {
  ::unsetenv("ANNOC_TEST_KNOB");
  EXPECT_EQ(env_u64("ANNOC_TEST_KNOB", 77), 77u);
  EXPECT_TRUE(env_flag("ANNOC_TEST_KNOB", true));
  EXPECT_FALSE(env_flag("ANNOC_TEST_KNOB", false));
}

TEST(Env, ParsesValues) {
  ::setenv("ANNOC_TEST_KNOB", "123", 1);
  EXPECT_EQ(env_u64("ANNOC_TEST_KNOB", 0), 123u);
  ::setenv("ANNOC_TEST_KNOB", "on", 1);
  EXPECT_TRUE(env_flag("ANNOC_TEST_KNOB", false));
  ::setenv("ANNOC_TEST_KNOB", "0", 1);
  EXPECT_FALSE(env_flag("ANNOC_TEST_KNOB", true));
  ::unsetenv("ANNOC_TEST_KNOB");
}

TEST(ParseU64, AcceptsDecimalAndHex) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("017"), 17u);  // decimal: strtoull read 15 (octal)
  EXPECT_EQ(parse_u64("08"), 8u);    // strtoull's octal rejected this
  EXPECT_EQ(parse_u64("0x10"), 16u);
  EXPECT_EQ(parse_u64("0X1f"), 31u);
  EXPECT_EQ(parse_u64("18446744073709551615"), ~0ull);
  EXPECT_EQ(parse_u64("0xffffffffffffffff"), ~0ull);
}

TEST(ParseU64, RejectsWhatStrtoullBends) {
  // Signs wrapped, blanks and '+' were skipped, overflow saturated.
  for (const char* bad :
       {"", "-1", "-3", "-5", "+7", " 42", "42 ", "4 2", "0x", "0x-1", "0x+1",
        "x10", "1e3", "12abc", "99999999999999999999",
        "18446744073709551616", "99999999999999999999999",
        "0x10000000000000000"}) {
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Env, StaysLenient) {
  // Env knobs fall back instead of failing (flags are the strict path).
  ::setenv("ANNOC_TEST_KNOB", "garbage", 1);
  EXPECT_EQ(env_u64("ANNOC_TEST_KNOB", 5), 5u);
  ::setenv("ANNOC_TEST_KNOB", "12abc", 1);
  EXPECT_EQ(env_u64("ANNOC_TEST_KNOB", 5), 12u);
  ::unsetenv("ANNOC_TEST_KNOB");
}

enum class Shade : std::uint8_t { kLight, kDark, kGrey };
constexpr Token<Shade> kShadeList[] = {
    {"light", Shade::kLight},
    {"dark", Shade::kDark},
    {"black", Shade::kDark},
    {"grey", Shade::kGrey},
};
constexpr TokenSet<Shade> kShades{"shade", kShadeList};

TEST(TokenSet, ParsesNamesAndDiagnoses) {
  EXPECT_EQ(kShades.parse("black"), Shade::kDark);
  EXPECT_FALSE(kShades.parse("Dark").has_value());
  EXPECT_STREQ(kShades.name(Shade::kDark), "dark");  // the first spelling
  EXPECT_EQ(kShades.expected(), "light, dark (alias black) or grey");
  EXPECT_EQ(kShades.unknown("pink", "none"),
            "unknown shade 'pink'; expected light, dark (alias black), grey "
            "or none");
}

TEST(FlatMap, InsertFindErase) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  m[42] = 7;
  m[43] = 8;
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(42), nullptr);
  EXPECT_EQ(*m.find(42), 7);
  EXPECT_EQ(m.find(99), nullptr);
  EXPECT_TRUE(m.erase(42));
  EXPECT_FALSE(m.erase(42));
  EXPECT_EQ(m.find(42), nullptr);
  ASSERT_NE(m.find(43), nullptr);
  EXPECT_EQ(*m.find(43), 8);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, OperatorBracketUpdatesInPlace) {
  FlatMap<std::uint64_t, int> m;
  m[5] = 1;
  m[5] = 2;
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(*m.find(5), 2);
}

TEST(FlatMap, SurvivesGrowthAndChurn) {
  // Mirror the simulator's usage: a sliding window of live ids drawn
  // from a monotonically increasing sequence, forcing several growths
  // and long probe chains with backward-shift deletion.
  FlatMap<std::uint64_t, std::uint64_t> m;
  std::uint64_t next = 1;
  std::vector<std::uint64_t> live;
  Rng rng(123);
  for (int iter = 0; iter < 20000; ++iter) {
    if (live.size() < 64 || rng.chance(0.5)) {
      m[next] = next * 3;
      live.push_back(next);
      ++next;
    } else {
      const std::size_t i =
          static_cast<std::size_t>(rng.next_below(live.size()));
      EXPECT_TRUE(m.erase(live[i]));
      live[i] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(m.size(), live.size());
  for (const std::uint64_t id : live) {
    ASSERT_NE(m.find(id), nullptr) << id;
    EXPECT_EQ(*m.find(id), id * 3);
  }
  for (const std::uint64_t id : live) EXPECT_TRUE(m.erase(id));
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(next - 1), nullptr);
}

}  // namespace
}  // namespace annoc
