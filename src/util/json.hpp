// Minimal JSON value type for benchmark artifacts.
//
// The bench harness emits machine-readable BENCH_<name>.json files and the
// regression comparator (scripts/check_bench_regression.py) and the schema
// tests read them back. This module provides exactly what that round trip
// needs — null/bool/number/string/array/object, an order-preserving object
// representation (so emitted files diff cleanly), a strict recursive-descent
// parser, and a dumper whose output the parser accepts verbatim. It is not a
// general-purpose JSON library: no comments, no NaN/Inf, objects reject
// duplicate keys on parse.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace sharedres::util {

/// Thrown by Json::parse on malformed input (message includes the offset)
/// and by type-mismatched accessors. A util::Error with code kParse, so the
/// CLI's input-error exit path and catch(std::runtime_error) both see it.
class JsonError : public Error {
 public:
  explicit JsonError(const std::string& what) : Error(ErrorCode::kParse, what) {}
};

/// Append `s` as a quoted JSON string ('"', '\\' and control bytes escaped,
/// UTF-8 passed through): Json::dump's escaper, shared with direct writers.
void append_json_string(std::string& out, std::string_view s);

/// Append the exact decimal text of an integer, as Json::dump prints one.
template <std::integral Int>
void append_json_int(std::string& out, Int value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  /// Insertion-ordered: emitted files keep the schema's key order.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}  // NOLINT(google-explicit-*)
  Json(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  Json(double d) : type_(Type::kNumber), num_(d) {}  // NOLINT
  Json(std::int64_t i)  // NOLINT
      : type_(Type::kNumber), rep_(Rep::kInt), int_(i) {}
  Json(std::uint64_t u)  // NOLINT
      : type_(Type::kNumber), rep_(Rep::kUint), uint_(u) {}
  Json(int i) : Json(std::int64_t{i}) {}  // NOLINT
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Json(const char* s) : type_(Type::kString), str_(s) {}             // NOLINT
  Json(Array a) : type_(Type::kArray), arr_(std::move(a)) {}         // NOLINT
  Json(Object o) : type_(Type::kObject), obj_(std::move(o)) {}       // NOLINT

  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Array/object element count (0 for scalars).
  [[nodiscard]] std::size_t size() const;

  /// Object lookup; `at` throws JsonError when the key is absent.
  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] const Json& at(const std::string& key) const;
  /// Array element; throws JsonError when out of range.
  [[nodiscard]] const Json& at(std::size_t index) const;

  /// Append to an array value (must be an array).
  void push_back(Json value);
  /// Append a key to an object value (must be an object; key not checked).
  void emplace(std::string key, Json value);

  /// Structural equality (object key ORDER matters, matching the dumper);
  /// C++20 derives operator!= from it.
  [[nodiscard]] bool operator==(const Json& other) const;

  /// Serialize. indent < 0: compact single line; indent >= 0: pretty-printed
  /// with that many spaces per level. Integers print exactly; doubles with
  /// enough digits to round-trip (integral ones below 2^53 as integers).
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Strict parse of a complete JSON document (trailing garbage is an error).
  static Json parse(const std::string& text);

 private:
  /// A kNumber's member of the numeric slot: integers stay exact there.
  enum class Rep : std::uint8_t { kDouble, kInt, kUint };

  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  Rep rep_ = Rep::kDouble;  // in type_'s padding: sizeof(Json) is unchanged
  union {
    bool bool_;
    double num_ = 0.0;
    std::int64_t int_;
    std::uint64_t uint_;
  };
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace sharedres::util
