#include "serve/json.hpp"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace perspector::serve::json {

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json: " + what + " at byte " +
                             std::to_string(pos));
  }

  bool eof() const noexcept { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!eof()) {
      const char ch = text[pos];
      if (ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r') {
        ++pos;
      } else {
        break;
      }
    }
  }

  void expect(char ch) {
    if (eof() || text[pos] != ch) {
      fail(std::string("expected '") + ch + "'");
    }
    ++pos;
  }

  bool consume_literal(std::string_view literal) {
    if (text.substr(pos, literal.size()) != literal) return false;
    pos += literal.size();
    return true;
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::uint32_t parse_hex4() {
    if (pos + 4 > text.size()) fail("truncated \\u escape");
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char ch = text[pos++];
      value <<= 4;
      if (ch >= '0' && ch <= '9') {
        value |= static_cast<std::uint32_t>(ch - '0');
      } else if (ch >= 'a' && ch <= 'f') {
        value |= static_cast<std::uint32_t>(ch - 'a' + 10);
      } else if (ch >= 'A' && ch <= 'F') {
        value |= static_cast<std::uint32_t>(ch - 'A' + 10);
      } else {
        fail("bad hex digit in \\u escape");
      }
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const char ch = text[pos++];
      if (ch == '"') return out;
      if (ch == '\\') {
        if (eof()) fail("truncated escape");
        const char esc = text[pos++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            std::uint32_t cp = parse_hex4();
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: must be followed by \uDC00..\uDFFF.
              if (!consume_literal("\\u")) fail("unpaired surrogate");
              const std::uint32_t low = parse_hex4();
              if (low < 0xDC00 || low > 0xDFFF) fail("bad low surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              fail("unpaired low surrogate");
            }
            append_utf8(out, cp);
            break;
          }
          default:
            fail("unknown escape");
        }
      } else {
        out += ch;
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos;
    if (!eof() && (peek() == '-' || peek() == '+')) ++pos;
    while (!eof() && ((peek() >= '0' && peek() <= '9') || peek() == '.' ||
                      peek() == 'e' || peek() == 'E' || peek() == '-' ||
                      peek() == '+')) {
      ++pos;
    }
    const char* first = text.data() + start;
    const char* last = text.data() + pos;
    // from_chars is laxer than JSON: disallow leading zeros ("01") here.
    const char* digits =
        first != last && (*first == '-' || *first == '+') ? first + 1 : first;
    if (last - digits >= 2 && digits[0] == '0' && digits[1] >= '0' &&
        digits[1] <= '9') {
      pos = start;
      fail("bad number");
    }
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last) {
      pos = start;
      fail("bad number");
    }
    return value;
  }

  Value parse_value(int depth) {
    if (depth > 64) fail("nesting too deep");
    skip_ws();
    if (eof()) fail("unexpected end of input");
    Value value;
    const char ch = peek();
    if (ch == '{') {
      ++pos;
      value.type = Value::Type::Object;
      skip_ws();
      if (!eof() && peek() == '}') {
        ++pos;
        return value;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        value.members.emplace_back(std::move(key), parse_value(depth + 1));
        skip_ws();
        if (eof()) fail("unterminated object");
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect('}');
        return value;
      }
    }
    if (ch == '[') {
      ++pos;
      value.type = Value::Type::Array;
      skip_ws();
      if (!eof() && peek() == ']') {
        ++pos;
        return value;
      }
      while (true) {
        value.elements.push_back(parse_value(depth + 1));
        skip_ws();
        if (eof()) fail("unterminated array");
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect(']');
        return value;
      }
    }
    if (ch == '"') {
      value.type = Value::Type::String;
      value.string = parse_string();
      return value;
    }
    if (consume_literal("true")) {
      value.type = Value::Type::Bool;
      value.boolean = true;
      return value;
    }
    if (consume_literal("false")) {
      value.type = Value::Type::Bool;
      value.boolean = false;
      return value;
    }
    if (consume_literal("null")) {
      value.type = Value::Type::Null;
      return value;
    }
    value.type = Value::Type::Number;
    value.number = parse_number();
    return value;
  }
};

}  // namespace

const Value* Value::find(std::string_view key) const noexcept {
  if (type != Type::Object) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value parse(std::string_view text) {
  Parser parser{text};
  Value value = parser.parse_value(0);
  parser.skip_ws();
  if (!parser.eof()) parser.fail("trailing garbage");
  return value;
}

void append_quoted(std::string& out, std::string_view text) {
  out += '"';
  for (const char ch : text) {
    const auto byte = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (byte < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", byte);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

std::string quoted(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  append_quoted(out, text);
  return out;
}

bool parse_hex64(std::string_view text, std::uint64_t& out) {
  if (text.size() != 16) return false;
  std::uint64_t value = 0;
  for (char ch : text) {
    value <<= 4;
    if (ch >= '0' && ch <= '9') {
      value |= static_cast<std::uint64_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      value |= static_cast<std::uint64_t>(ch - 'a' + 10);
    } else if (ch >= 'A' && ch <= 'F') {
      value |= static_cast<std::uint64_t>(ch - 'A' + 10);
    } else {
      return false;
    }
  }
  out = value;
  return true;
}

// ---- Writer and Reader -----------------------------------------------------

void Writer::scalar(std::uint64_t v) {
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void Writer::scalar(std::int64_t v) {
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void Writer::scalar(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
}

Writer& Writer::hex64(std::string_view k, std::uint64_t v) {
  key(k);
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016" PRIx64 "\"", v);
  out_ += buf;
  return *this;
}

bool get(const Value& value, std::string& out) {
  if (!value.is_string()) return false;
  out = value.string;
  return true;
}

bool get(const Value& value, double& out) {
  if (!value.is_number()) return false;
  out = value.number;
  return true;
}

bool get(const Value& value, bool& out) {
  if (value.type != Value::Type::Bool) return false;
  out = value.boolean;
  return true;
}

bool Reader::hex64(std::string_view key, std::uint64_t& out) {
  if (!ok()) return false;
  const Value* value = find(key);
  if (!value || (value->is_string() && parse_hex64(value->string, out))) {
    return true;
  }
  return mismatch(key, "16 hex digits");
}

const std::vector<Value>* Reader::array(std::string_view key, bool required) {
  if (!ok()) return nullptr;
  const Value* value = find(key);
  if (!value && !required) return nullptr;
  if (!value || value->type != Value::Type::Array) {
    mismatch(key, "a list");
    return nullptr;
  }
  return &value->elements;
}

}  // namespace perspector::serve::json
