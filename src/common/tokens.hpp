/// \file tokens.hpp
/// The scenario-file spellings of an enum, listed once next to the enum
/// as pairs of token and value. The scenario parser and dumper, their
/// "expected a, b or c" diagnostics and the example CLIs all read that
/// one list.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace annoc {

template <class E>
struct Token {
  const char* name;
  E value;
};

template <class E>
struct TokenSet {
  const char* noun;  ///< what a token names, for diagnostics ("design")
  /// The first token of a value is its canonical spelling; a later token
  /// of the same value is an accepted alias.
  std::span<const Token<E>> tokens;

  [[nodiscard]] constexpr std::optional<E> parse(std::string_view s) const {
    for (const Token<E>& t : tokens) {
      if (s == t.name) return t.value;
    }
    return std::nullopt;
  }

  [[nodiscard]] constexpr const char* name(E v) const {
    for (const Token<E>& t : tokens) {
      if (t.value == v) return t.name;
    }
    return "?";
  }

  /// "a, b (alias c) or d"; a non-empty `extra` joins as the last
  /// alternative.
  [[nodiscard]] std::string expected(std::string_view extra = {}) const {
    std::vector<std::string> items;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (i != 0 && tokens[i].value == tokens[i - 1].value) {
        items.back() += std::string(" (alias ") + tokens[i].name + ")";
      } else {
        items.emplace_back(tokens[i].name);
      }
    }
    if (!extra.empty()) items.emplace_back(extra);
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) out += i + 1 == items.size() ? " or " : ", ";
      out += items[i];
    }
    return out;
  }

  /// The diagnostic for a token this set does not hold.
  [[nodiscard]] std::string unknown(std::string_view s,
                                    std::string_view extra = {}) const {
    return std::string("unknown ") + noun + " '" + std::string(s) +
           "'; expected " + expected(extra);
  }
};

}  // namespace annoc
