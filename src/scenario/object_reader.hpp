/// \file object_reader.hpp
/// Private to the scenario and sweep-spec loaders: a typed,
/// schema-checked view of one JSON object. Construction rejects unknown
/// keys (pointing at the key's own line); getters reject wrong types and
/// out-of-range values the same way, and read_bound() applies every
/// present bound key of the object's KeyInfo table.
#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <string_view>

#include "scenario/schema.hpp"

namespace annoc::scenario {

class ObjectReader {
 public:
  ObjectReader(const JsonValue& obj, std::span<const KeyInfo> schema,
               const std::string& origin, const char* what)
      : obj_(obj), schema_(schema), origin_(origin) {
    for (const JsonMember& m : obj.object) {
      if (std::none_of(schema.begin(), schema.end(),
                       [&](const KeyInfo& k) { return m.name == k.key; })) {
        fail(m, std::string("unknown ") + what +
                    " key (see docs/CONFIG_REFERENCE.md for the schema)");
      }
    }
  }

  [[nodiscard]] const JsonMember* find(std::string_view key) const {
    return obj_.find(key);
  }

  [[noreturn]] void fail(const JsonMember& m, const std::string& msg) const {
    throw ParseError(origin_, m.line, m.column, m.name, msg);
  }

  /// Error anchored at the object itself (for missing required keys).
  [[noreturn]] void fail_missing(const std::string& key) const {
    throw ParseError(origin_, obj_.line, obj_.column, key,
                     "required key is missing");
  }

  [[nodiscard]] const JsonMember& require(std::string_view key) const {
    const JsonMember* m = find(key);
    if (m == nullptr) fail_missing(std::string(key));
    return *m;
  }

  /// Fail at `m` when a value check returned a diagnostic.
  void check(const JsonMember& m, const std::string& err) const {
    if (!err.empty()) fail(m, err);
  }

  [[nodiscard]] std::string string_of(const JsonMember& m) const {
    if (!m.value().is(JsonKind::kString)) {
      fail(m, type_msg(m.value(), "a string"));
    }
    return m.value().string;
  }

  [[nodiscard]] double double_of(const JsonMember& m, double min,
                                 double max) const {
    double v = 0.0;
    check(m, read_double(m.value(), min, max, v));
    return v;
  }

  [[nodiscard]] std::uint64_t u64_of(const JsonMember& m, std::uint64_t min,
                                     std::uint64_t max) const {
    std::uint64_t v = 0;
    check(m, read_u64(m.value(), min, max, v));
    return v;
  }

  [[nodiscard]] std::uint64_t seed_of(const JsonMember& m) const {
    std::uint64_t v = 0;
    check(m, read_seed(m.value(), v));
    return v;
  }

  template <class E>
  [[nodiscard]] E token_of(const JsonMember& m, const TokenSet<E>& set) const {
    E v{};
    check(m, read_token(m.value(), set, v));
    return v;
  }

  /// Apply every present bound key of the schema onto `target`, an
  /// object of the struct the schema's rows bind; absent keys keep their
  /// value, and a missing required one fails.
  template <class T>
  void read_bound(T& target) const {
    for (const KeyInfo& k : schema_) {
      if (k.bind.kind == Kind::kHand) continue;
      if (const JsonMember* m = find(k.key)) {
        check(*m, k.bind.read(k.bind, m->value(), &target));
      } else if (std::string_view(k.def) == "-") {
        fail_missing(std::string(k.key));
      }
    }
  }

 private:
  const JsonValue& obj_;
  std::span<const KeyInfo> schema_;
  const std::string& origin_;
};

}  // namespace annoc::scenario
