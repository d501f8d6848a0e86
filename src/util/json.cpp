#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sharedres::util {

namespace {

[[noreturn]] void fail(const std::string& what) { throw JsonError(what); }

const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "bool";
    case Json::Type::kNumber: return "number";
    case Json::Type::kString: return "string";
    case Json::Type::kArray: return "array";
    case Json::Type::kObject: return "object";
  }
  return "?";
}

void expect_type(Json::Type have, Json::Type want) {
  if (have != want) {
    fail(std::string("Json: expected ") + type_name(want) + ", have " +
         type_name(have));
  }
}

void dump_number(double v, std::string& out) {
  if (!std::isfinite(v)) fail("Json: cannot serialize NaN/Inf");
  // Integral values within the exact-double range print without a fraction
  // so counters (threads, reps, makespans) stay integers on disk.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    append_json_int(out, static_cast<std::int64_t>(v));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest representation that still round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    if (std::strtod(probe, nullptr) == v) {
      out += probe;
      return;
    }
  }
  out += buf;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json run() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) err("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void err(const std::string& what) const {
    fail("Json parse error at offset " + std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) err("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) err(std::string("expected '") + c + "'");
  }

  bool consume_word(const char* w) {
    std::size_t i = 0;
    while (w[i] != '\0') {
      if (pos_ + i >= text_.size() || text_[pos_ + i] != w[i]) return false;
      ++i;
    }
    pos_ += i;
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_word("true")) return Json(true);
        err("invalid literal");
      case 'f':
        if (consume_word("false")) return Json(false);
        err("invalid literal");
      case 'n':
        if (consume_word("null")) return Json(nullptr);
        err("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (consume('}')) return Json(std::move(obj));
    for (;;) {
      skip_ws();
      if (peek() != '"') err("expected object key");
      std::string key = parse_string();
      for (const auto& [existing, unused] : obj) {
        if (existing == key) err("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return Json(std::move(obj));
    }
  }

  Json parse_array() {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (consume(']')) return Json(std::move(arr));
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return Json(std::move(arr));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) err("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) err("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) err("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              err("invalid \\u escape");
          }
          // Encode the code point as UTF-8 (BMP only — the harness never
          // emits surrogate pairs).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: err("invalid escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) err("expected value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) err("invalid number");
    return Json(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void newline_indent(int indent, int depth, std::string& out) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

void append_json_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t run = 0;  // first byte not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;  // UTF-8 passes through
    out.append(s, run, i - run) += '\\';
    run = i + 1;
    switch (c) {
      case '\n': out += 'n'; break;
      case '\r': out += 'r'; break;
      case '\t': out += 't'; break;
      case '"': case '\\': out += static_cast<char>(c); break;
      default:
        out.append("u00").append(1, kHex[c >> 4]).append(1, kHex[c & 0xF]);
    }
  }
  out.append(s, run) += '"';
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += bool_ ? "true" : "false"; return;
    case Type::kNumber:
      if (rep_ == Rep::kInt) return append_json_int(out, int_);
      if (rep_ == Rep::kUint) return append_json_int(out, uint_);
      return dump_number(num_, out);
    case Type::kString: append_json_string(out, str_); return;
    case Type::kArray: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i != 0) out += ',';
        newline_indent(indent, depth + 1, out);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      newline_indent(indent, depth, out);
      out += ']';
      return;
    }
    case Type::kObject: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i != 0) out += ',';
        newline_indent(indent, depth + 1, out);
        append_json_string(out, obj_[i].first);
        out += indent < 0 ? ":" : ": ";
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_indent(indent, depth, out);
      out += '}';
      return;
    }
  }
}

bool Json::as_bool() const {
  expect_type(type_, Type::kBool);
  return bool_;
}

double Json::as_double() const {
  expect_type(type_, Type::kNumber);
  if (rep_ == Rep::kInt) return static_cast<double>(int_);
  return rep_ == Rep::kUint ? static_cast<double>(uint_) : num_;
}

const std::string& Json::as_string() const {
  expect_type(type_, Type::kString);
  return str_;
}

const Json::Array& Json::as_array() const {
  expect_type(type_, Type::kArray);
  return arr_;
}

const Json::Object& Json::as_object() const {
  expect_type(type_, Type::kObject);
  return obj_;
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return arr_.size();
  if (type_ == Type::kObject) return obj_.size();
  return 0;
}

bool Json::contains(const std::string& key) const {
  if (type_ != Type::kObject) return false;
  for (const auto& [k, unused] : obj_) {
    if (k == key) return true;
  }
  return false;
}

const Json& Json::at(const std::string& key) const {
  expect_type(type_, Type::kObject);
  for (const auto& [k, v] : obj_) {
    if (k == key) return v;
  }
  fail("Json: missing key \"" + key + "\"");
}

const Json& Json::at(std::size_t index) const {
  expect_type(type_, Type::kArray);
  if (index >= arr_.size()) fail("Json: array index out of range");
  return arr_[index];
}

void Json::push_back(Json value) {
  expect_type(type_, Type::kArray);
  arr_.push_back(std::move(value));
}

void Json::emplace(std::string key, Json value) {
  expect_type(type_, Type::kObject);
  obj_.emplace_back(std::move(key), std::move(value));
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber:  // a built 3 equals a parsed 3.0
      if (rep_ != Rep::kDouble && rep_ == other.rep_) {
        return rep_ == Rep::kInt ? int_ == other.int_ : uint_ == other.uint_;
      }
      return as_double() == other.as_double();
    case Type::kString: return str_ == other.str_;
    case Type::kArray: return arr_ == other.arr_;
    case Type::kObject: return obj_ == other.obj_;
  }
  return false;
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(const std::string& text) { return Parser(text).run(); }

}  // namespace sharedres::util
