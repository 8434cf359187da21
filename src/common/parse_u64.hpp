/// \file parse_u64.hpp
/// The one strict unsigned-integer parser for text inputs: scenario and
/// sweep seed strings, CSV trace fields and command-line flags. Each
/// caller keeps its own diagnostic; this only decides what loads.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace annoc {

/// The whole of `s` as a 64-bit unsigned integer: decimal digits, or
/// `0x`/`0X` followed by hex digits. Empty input, signs, whitespace,
/// trailing bytes and values above 2^64 - 1 are rejected (strtoull
/// accepts, wraps or saturates each of them, and reads a leading 0 as
/// octal).
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(
    std::string_view s) {
  int base = 10;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    s.remove_prefix(2);
    base = 16;
  }
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v, base);
  if (s.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

}  // namespace annoc
