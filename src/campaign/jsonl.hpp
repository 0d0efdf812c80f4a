// Minimal JSON support for the campaign telemetry stream.
//
// Campaign observers emit one JSON object per line (JSON Lines); this header
// provides exactly what that needs and nothing more: string escaping, a
// single-line object writer, and a small recursive-descent parser used by
// the replay path and the validation tests. Numbers keep their raw source
// text so 64-bit seeds and tick counts round-trip exactly (a double-only
// parser silently loses precision above 2^53).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace gemfi::campaign::jsonl {

/// Escape for inclusion inside a JSON string literal (no surrounding quotes).
std::string escape(std::string_view s);

/// Builds one flat JSON object on a single line, in field insertion order.
class ObjectWriter {
 public:
  ObjectWriter& field(std::string_view key, std::string_view value);
  ObjectWriter& field(std::string_view key, const char* value);
  ObjectWriter& field(std::string_view key, std::uint64_t value);
  ObjectWriter& field(std::string_view key, double value);
  ObjectWriter& field(std::string_view key, bool value);

  /// The finished `{...}` object (no trailing newline).
  [[nodiscard]] std::string str() const;

 private:
  ObjectWriter& raw(std::string_view key, std::string_view rendered);
  std::string body_;
};

/// Parsed JSON value. Object keys are unique (last wins, as in JSON).
struct Value {
  enum class Kind : std::uint8_t { Null, Bool, Number, String, Object, Array };

  Kind kind = Kind::Null;
  bool boolean = false;
  std::string text;  // String: decoded contents; Number: raw source token
  std::map<std::string, Value> object;
  std::vector<Value> array;

  [[nodiscard]] bool is_object() const noexcept { return kind == Kind::Object; }
  /// Member access; throws std::out_of_range if absent or not an object.
  [[nodiscard]] const Value& at(const std::string& key) const;
  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed reads; each throws std::invalid_argument on a kind mismatch.
  /// as_u64 also throws unless the number is a plain decimal that fits a
  /// uint64 (no sign, fraction, exponent or overflow).
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] bool as_bool() const;

  /// Structural equality; numbers compare by their raw source text.
  bool operator==(const Value&) const = default;
};

/// Parse one complete JSON document (e.g. one JSONL line). Throws
/// std::invalid_argument with position information on malformed input or
/// on objects/arrays nested more than 64 deep; trailing non-whitespace is an
/// error.
Value parse(std::string_view text);

}  // namespace gemfi::campaign::jsonl
