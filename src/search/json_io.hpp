#pragma once
// Minimal JSON reader for recorded DesignPoints.
//
// The emit side of the DesignPoint round-trip reuses the streaming
// bench/json_writer.hpp (ValueExact keeps doubles bit-exact); this is the
// parse side: a dependency-free recursive-descent parser covering exactly
// the JSON that writer produces -- objects, arrays, strings with the
// writer's escapes, numbers, booleans and null.  Parse errors throw
// std::invalid_argument with a byte offset, because a recorded design
// that does not reproduce exactly is a corrupt baseline, not a soft
// failure.

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace latte::search {

/// One parsed JSON value (a small tagged union; object member order is
/// preserved so re-emission is deterministic).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// The member named `key`, or nullptr when absent (or not an object).
  const JsonValue* Find(std::string_view key) const;

  /// Typed accessors: throw std::invalid_argument naming `what` when the
  /// value has the wrong kind (the DesignPoint parser's error currency).
  double AsNumber(std::string_view what) const;
  /// A non-negative integer no larger than 2^53 (the largest range in
  /// which a double holds every integer); fractions are rejected.
  std::size_t AsSize(std::string_view what) const;
  bool AsBool(std::string_view what) const;
  const std::string& AsString(std::string_view what) const;

  /// The member named `key` with the requested kind; throws when missing.
  const JsonValue& Get(std::string_view key) const;
};

/// Deepest array/object nesting ParseJson accepts.  The deepest document
/// the JSON writer emits (BENCH_search.json, which embeds DesignPoints)
/// nests 8 levels; the bound keeps a hostile input from overflowing the
/// recursive parser's stack.
inline constexpr std::size_t kMaxJsonDepth = 256;

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage rejected).  Throws std::invalid_argument on malformed input,
/// including nesting deeper than kMaxJsonDepth.
JsonValue ParseJson(std::string_view text);

}  // namespace latte::search
