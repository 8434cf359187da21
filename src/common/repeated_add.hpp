/// \file repeated_add.hpp
/// Closed form of a floating-point accumulator: the value of `x` after
/// `n` sequential `x += b`, bit for bit, in a few steps per binade
/// instead of one addition per step. Skipping schedulers use it to
/// catch up per-cycle credit over a jumped gap (DESIGN.md, "Per-cycle
/// accumulators catch up in closed form").
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/assert.hpp"

namespace annoc {

namespace detail {

/// A finite non-negative double as `m · 2^q`: `m < 2^53` is the
/// significand as an integer and `q = max(biased exponent, 1) − 1075`
/// the exponent of its last bit, i.e. its ulp. Subnormals get the ulp
/// of the lowest normal binade, which they share. The sign bit is
/// dropped, so a −0.0 rate reads as +0.0 (adding either to x ≥ +0.0
/// gives the same bits).
struct Scaled {
  std::uint64_t m = 0;
  int q = 0;
};

[[nodiscard]] inline Scaled scaled(double v) {
  constexpr std::uint64_t kImplicit = std::uint64_t{1} << 52;
  const std::uint64_t bits =
      std::bit_cast<std::uint64_t>(v) & ~(std::uint64_t{1} << 63);
  const auto biased = static_cast<int>(bits >> 52);
  const std::uint64_t frac = bits & (kImplicit - 1);
  if (biased == 0) return {frac, -1074};
  return {frac | kImplicit, biased - 1075};
}

}  // namespace detail

/// `x` after `n` sequential `x += b` under round-to-nearest-even,
/// bitwise equal to the loop. Requires `x` and `b` non-negative; a sum
/// that overflows stays +inf.
///
/// Inside one binade x = X·u, with u its ulp and X an integer below
/// 2^53. While a sum stays below the binade's top 2^53·u, the rounded
/// sum is X + round(b/u) ulps: every step adds the same k whole ulps,
/// so all steps that stay below the top apply at once in integer
/// arithmetic. One real addition is taken instead for a step that
/// reaches the next binade, and for a tie (b/u ends in exactly .5) from
/// an odd X. A tie rounds to the even neighbour, so after that step X
/// is even and every further tied step adds the even one of k, k + 1.
[[nodiscard]] inline double repeated_add(double x, double b,
                                         std::uint64_t n) {
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
  ANNOC_ASSERT((std::bit_cast<std::uint64_t>(x) >> 63) == 0 && b >= 0.0);
  const detail::Scaled sb = detail::scaled(b);
  while (n > 0) {
    const detail::Scaled sx = detail::scaled(x);
    if (sx.q > 971) return x;  // +inf: no further sum changes it
    // b in ulps of x: k whole ulps, rounded to nearest, or a tie.
    std::uint64_t k = kTop;  // b at or above the top: the step crosses
    bool tie = false;
    if (sb.q <= sx.q) {
      const int shift = sx.q - sb.q;
      if (shift >= 64) return x;  // b < u/2: x + b rounds back to x
      k = sb.m >> shift;
      if (shift > 0) {
        const std::uint64_t rem = sb.m & ((std::uint64_t{1} << shift) - 1);
        const std::uint64_t half = std::uint64_t{1} << (shift - 1);
        k += rem > half ? 1 : 0;
        tie = rem == half;
      }
    }
    if (tie) {
      if ((sx.m & 1) != 0) {
        x += b;
        --n;
        continue;
      }
      k += k & 1;
    }
    if (k == 0) return x;  // x + b rounds back to x
    const std::uint64_t room = (kTop - 1 - sx.m) / k;
    if (room == 0) {
      x += b;  // reaches the next binade
      --n;
      continue;
    }
    const std::uint64_t steps = std::min(n, room);
    // Back to a double: m stays below 2^53, and its carry into bit 52
    // (from a subnormal) lands in the exponent field.
    x = std::bit_cast<double>((static_cast<std::uint64_t>(sx.q + 1074) << 52) +
                              sx.m + steps * k);
    n -= steps;
  }
  return x;
}

}  // namespace annoc
