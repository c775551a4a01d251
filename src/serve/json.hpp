// Minimal JSON support for the newline-delimited-JSON serving protocol.
//
// The serving layer needs exact byte round-trips for report text (the
// determinism contract compares reports byte-for-byte), so the escaper
// and the parser are inverses over arbitrary byte strings: every control
// character is escaped on the way out and every standard escape —
// including \uXXXX with surrogate pairs — is decoded on the way in.
//
// Deliberately small: objects, arrays, strings, numbers, booleans, null.
// No external dependency, no DOM mutation API — parse, inspect, discard.
// Protocol messages are written with json::Writer and read back with
// json::Reader, one explicit function per message in each direction.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace perspector::serve::json {

/// One parsed JSON value (tree-owning).
class Value {
 public:
  enum class Type { Null, Bool, Number, String, Object, Array };

  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<std::pair<std::string, Value>> members;  // objects, in order
  std::vector<Value> elements;                         // arrays

  bool is_object() const noexcept { return type == Type::Object; }
  bool is_string() const noexcept { return type == Type::String; }
  bool is_number() const noexcept { return type == Type::Number; }

  /// Member lookup (first match); nullptr when absent or not an object.
  const Value* find(std::string_view key) const noexcept;
};

/// Parses one complete JSON document. Throws std::runtime_error with a
/// byte-offset message on malformed input or trailing garbage.
Value parse(std::string_view text);

/// Appends `text` to `out` as a quoted JSON string, escaping quotes,
/// backslashes, and all control characters.
void append_quoted(std::string& out, std::string_view text);

/// Convenience: the quoted form alone.
std::string quoted(std::string_view text);

/// Exactly 16 hex digits (either case) -> u64. False on anything else.
bool parse_hex64(std::string_view text, std::uint64_t& out);

/// Appends one JSON object to a string field by field: it quotes keys,
/// places commas and writes doubles as %.17g, so they parse back bit for
/// bit. Nothing is allocated per field. finish() closes the object and
/// the line:
///
///   json::Writer w(out);                                // {
///   w.str("op", "score").u64("instructions", 20000);
///   w.list("indices", indices);                         // "indices":[1,4]
///   w.finish();                                         // }\n
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) { out_ += '{'; }

  Writer& str(std::string_view k, std::string_view v) { return put(k, v); }
  Writer& u64(std::string_view k, std::uint64_t v) { return put(k, v); }
  Writer& i64(std::string_view k, std::int64_t v) { return put(k, v); }
  Writer& f64(std::string_view k, double v) { return put(k, v); }
  Writer& boolean(std::string_view k, bool v) {
    key(k);
    out_ += v ? "true" : "false";
    return *this;
  }
  /// A trace id: a string of 16 lowercase hex digits.
  Writer& hex64(std::string_view k, std::uint64_t v);

  /// Opens a nested object member, or an object element of an open array.
  Writer& object(std::string_view k) { return open(k, '{'); }
  Writer& object() {
    separate();
    out_ += '{';
    return *this;
  }
  Writer& array(std::string_view k) { return open(k, '['); }
  Writer& end_object() { return close('}'); }
  Writer& end_array() { return close(']'); }

  /// An array member of strings, u64 or doubles.
  template <typename T>
  Writer& list(std::string_view k, const std::vector<T>& values) {
    array(k);
    for (const T& value : values) {
      separate();
      scalar(value);
    }
    return end_array();
  }

  /// Closes the top-level object: "}\n".
  void finish() { out_ += "}\n"; }

 private:
  // A comma goes before every member or element except the first of its
  // container, which directly follows the opening bracket.
  void separate() {
    if (out_.back() != '{' && out_.back() != '[') out_ += ',';
  }
  void key(std::string_view k) {
    separate();
    append_quoted(out_, k);
    out_ += ':';
  }
  template <typename T>
  Writer& put(std::string_view k, T v) {
    key(k);
    scalar(v);
    return *this;
  }
  Writer& open(std::string_view k, char bracket) {
    key(k);
    out_ += bracket;
    return *this;
  }
  Writer& close(char bracket) {
    out_ += bracket;
    return *this;
  }
  void scalar(std::string_view v) { append_quoted(out_, v); }
  void scalar(std::uint64_t v);
  void scalar(std::int64_t v);
  void scalar(double v);

  std::string& out_;
};

/// Converts one parsed value to a field. An integer must be integral,
/// non-negative and inside the target type's range: a JSON number is a
/// double, and casting an out-of-range double to an integer is undefined.
bool get(const Value& value, std::string& out);
bool get(const Value& value, double& out);
bool get(const Value& value, bool& out);
template <typename Int>
bool get(const Value& value, Int& out) {
  static_assert(std::is_integral_v<Int>);
  // 2^digits, the first value past the type's range, exact as a double.
  constexpr double kLimit =
      static_cast<double>(std::numeric_limits<Int>::max() / 2 + 1) * 2.0;
  if (!value.is_number() || !(value.number >= 0.0 && value.number < kLimit) ||
      value.number != std::floor(value.number)) {
    return false;
  }
  out = static_cast<Int>(value.number);
  return true;
}

/// Typed, checked reads of one parsed object's members. The first failed
/// read records its message, the bad_request text a request decoder
/// replies with, and turns every later read into a no-op returning false.
/// So a decoder reads its fields top to bottom and tests ok() once, and
/// the first problem in reading order is the one reported. A non-object
/// reads as an object without members.
class Reader {
 public:
  explicit Reader(const Value& object) : object_(object) {}

  bool ok() const noexcept { return problem_.empty(); }
  const std::string& problem() const noexcept { return problem_; }
  /// Records `message` unless a problem is already recorded; false.
  bool fail(std::string message) {
    if (ok()) problem_ = std::move(message);
    return false;
  }
  const Value* find(std::string_view key) const noexcept {
    return object_.find(key);
  }

  /// Optional member: an absent key leaves `out` untouched. A value that
  /// does not convert records "'<key>' must be <what>" (default: "a
  /// string", "a number", "a boolean"); for an integer it records
  /// "field '<key>' must be a non-negative integer".
  template <typename T>
  bool get(std::string_view key, T& out, std::string_view what = {}) {
    if (!ok()) return false;
    const Value* value = find(key);
    if (!value || json::get(*value, out)) return true;
    if constexpr (std::is_same_v<T, std::string>) {
      return mismatch(key, what.empty() ? "a string" : what);
    } else if constexpr (std::is_same_v<T, double>) {
      return mismatch(key, "a number");
    } else if constexpr (std::is_same_v<T, bool>) {
      return mismatch(key, "a boolean");
    } else {
      return fail(std::string("field '").append(key).append(
          "' must be a non-negative integer"));
    }
  }
  /// Required member: as get(), and an absent key fails too.
  template <typename T>
  bool need(std::string_view key, T& out) {
    if (ok() && !find(key)) return mismatch(key, "present");
    return get(key, out);
  }
  /// Optional trace id: "'<key>' must be 16 hex digits".
  bool hex64(std::string_view key, std::uint64_t& out);
  /// Array member; nullptr when absent (a failure if `required`) or on
  /// failure.
  const std::vector<Value>* array(std::string_view key, bool required);
  /// Required array whose every element converts to T.
  template <typename T>
  bool list(std::string_view key, std::vector<T>& out) {
    const std::vector<Value>* values = array(key, true);
    if (!values) return false;
    for (const Value& value : *values) {
      if (!json::get(value, out.emplace_back())) return mismatch(key, "a list");
    }
    return true;
  }
  /// True, with `out` set, when `key` holds a non-empty string. Records
  /// nothing: the caller words the problem.
  bool nonempty(std::string_view key, std::string& out) const {
    const Value* value = find(key);
    if (!value || !value->is_string() || value->string.empty()) return false;
    out = value->string;
    return true;
  }

 private:
  bool mismatch(std::string_view key, std::string_view what) {
    return fail(std::string("'").append(key).append("' must be ").append(what));
  }

  const Value& object_;
  std::string problem_;
};

}  // namespace perspector::serve::json
