#include "campaign/jsonl.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace gemfi::campaign::jsonl {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

ObjectWriter& ObjectWriter::raw(std::string_view key, std::string_view rendered) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += escape(key);
  body_ += "\":";
  body_ += rendered;
  return *this;
}

ObjectWriter& ObjectWriter::field(std::string_view key, std::string_view value) {
  return raw(key, '"' + escape(value) + '"');
}

ObjectWriter& ObjectWriter::field(std::string_view key, const char* value) {
  return field(key, std::string_view(value));
}

ObjectWriter& ObjectWriter::field(std::string_view key, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(value));
  return raw(key, buf);
}

ObjectWriter& ObjectWriter::field(std::string_view key, double value) {
  // JSON has no nan/inf literals; "%.17g" would emit them verbatim and
  // corrupt the whole record. Non-finite telemetry values become null.
  if (!std::isfinite(value)) return raw(key, "null");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return raw(key, buf);
}

ObjectWriter& ObjectWriter::field(std::string_view key, bool value) {
  return raw(key, value ? "true" : "false");
}

std::string ObjectWriter::str() const { return '{' + body_ + '}'; }

const Value& Value::at(const std::string& key) const {
  if (kind != Kind::Object) throw std::out_of_range("JSON value is not an object");
  const auto it = object.find(key);
  if (it == object.end()) throw std::out_of_range("missing JSON key: " + key);
  return it->second;
}

bool Value::has(const std::string& key) const {
  return kind == Kind::Object && object.count(key) != 0;
}

const std::string& Value::as_string() const {
  if (kind != Kind::String) throw std::invalid_argument("JSON value is not a string");
  return text;
}

std::uint64_t Value::as_u64() const {
  if (kind != Kind::Number) throw std::invalid_argument("JSON value is not a number");
  // Only a plain decimal token: strtoull would wrap "-1" to 2^64-1, stop at
  // the '.' of "1.5" or the 'e' of "1e3", and saturate on overflow.
  std::uint64_t v = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end)
    throw std::invalid_argument("JSON number is not a uint64: " + text);
  return v;
}

double Value::as_double() const {
  if (kind != Kind::Number) throw std::invalid_argument("JSON value is not a number");
  return std::strtod(text.c_str(), nullptr);
}

bool Value::as_bool() const {
  if (kind != Kind::Bool) throw std::invalid_argument("JSON value is not a bool");
  return boolean;
}

namespace {

/// Deepest object/array nesting parse() accepts. Records nest a few levels;
/// the bound keeps hostile input from exhausting the stack.
constexpr unsigned kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value document() {
    Value v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("JSON parse error at offset " + std::to_string(pos_) +
                                ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth)
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        ++depth_;
        Value v = peek() == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"': return string_value();
      case 't':
      case 'f': return bool_value();
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value{};
      default: return number();
    }
  }

  Value object() {
    Value v;
    v.kind = Value::Kind::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      Value key = string_value();
      skip_ws();
      expect(':');
      v.object[key.text] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value array() {
    Value v;
    v.kind = Value::Kind::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Value string_value() {
    Value v;
    v.kind = Value::Kind::String;
    expect('"');
    for (;;) {
      const char c = peek();
      ++pos_;
      if (c == '"') return v;
      if (c != '\\') {
        v.text += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': v.text += '"'; break;
        case '\\': v.text += '\\'; break;
        case '/': v.text += '/'; break;
        case 'b': v.text += '\b'; break;
        case 'f': v.text += '\f'; break;
        case 'n': v.text += '\n'; break;
        case 'r': v.text += '\r'; break;
        case 't': v.text += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= unsigned(h - '0');
            else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // Telemetry records only ever escape control characters; encode the
          // code point as UTF-8 without surrogate-pair handling.
          if (code < 0x80) {
            v.text += char(code);
          } else if (code < 0x800) {
            v.text += char(0xc0 | (code >> 6));
            v.text += char(0x80 | (code & 0x3f));
          } else {
            v.text += char(0xe0 | (code >> 12));
            v.text += char(0x80 | ((code >> 6) & 0x3f));
            v.text += char(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  Value bool_value() {
    Value v;
    v.kind = Value::Kind::Bool;
    if (consume_literal("true")) {
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.boolean = false;
      return v;
    }
    fail("bad literal");
  }

  Value number() {
    Value v;
    v.kind = Value::Kind::Number;
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    const auto digits = [&] {
      const std::size_t d0 = pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
      if (pos_ == d0) fail("expected digits");
    };
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      digits();
    }
    v.text = std::string(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  unsigned depth_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).document(); }

}  // namespace gemfi::campaign::jsonl
