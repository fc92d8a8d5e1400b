#include "serve/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sct::serve {

JsonValue JsonValue::makeBool(bool b) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::makeNumber(double d, std::string text) {
  JsonValue v;
  v.kind_ = Kind::Number;
  v.number_ = d;
  v.string_ = std::move(text);
  return v;
}

JsonValue JsonValue::makeString(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::makeArray() {
  JsonValue v;
  v.kind_ = Kind::Array;
  return v;
}

JsonValue JsonValue::makeObject() {
  JsonValue v;
  v.kind_ = Kind::Object;
  return v;
}

bool JsonValue::asBool() const {
  if (kind_ != Kind::Bool) throw JsonError("JSON value is not a bool");
  return bool_;
}

double JsonValue::asNumber() const {
  if (kind_ != Kind::Number) throw JsonError("JSON value is not a number");
  return number_;
}

std::uint64_t JsonValue::asUint(std::uint64_t max) const {
  std::uint64_t u = 0;
  const char* end = string_.data() + string_.size();
  const auto [ptr, ec] = std::from_chars(string_.data(), end, u);
  if (kind_ != Kind::Number || string_.empty() || ec != std::errc{} ||
      ptr != end || u > max) {
    throw JsonError("JSON value is not an integer in [0, " +
                    std::to_string(max) + "]");
  }
  return u;
}

const std::string& JsonValue::asString() const {
  if (kind_ != Kind::String) throw JsonError("JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::asArray() const {
  if (kind_ != Kind::Array) throw JsonError("JSON value is not an array");
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::asObject() const {
  if (kind_ != Kind::Object) throw JsonError("JSON value is not an object");
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

std::vector<JsonValue>& JsonValue::mutableArray() {
  if (kind_ != Kind::Array) throw JsonError("JSON value is not an array");
  return array_;
}

std::map<std::string, JsonValue>& JsonValue::mutableObject() {
  if (kind_ != Kind::Object) throw JsonError("JSON value is not an object");
  return object_;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parseDocument() {
    skipWs();
    JsonValue v = parseValue();
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters after value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + what);
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) {
      throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                      ": unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consumeKeyword(std::string_view kw) {
    if (text_.substr(pos_, kw.size()) != kw) return false;
    pos_ += kw.size();
    return true;
  }

  JsonValue parseValue() {
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxJsonDepth) {
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
        }
        JsonValue v = peek() == '{' ? parseObject() : parseArray();
        --depth_;
        return v;
      }
      case '"': return JsonValue::makeString(parseString());
      case 't':
        if (!consumeKeyword("true")) fail("bad keyword");
        return JsonValue::makeBool(true);
      case 'f':
        if (!consumeKeyword("false")) fail("bad keyword");
        return JsonValue::makeBool(false);
      case 'n':
        if (!consumeKeyword("null")) fail("bad keyword");
        return JsonValue{};
      default: return parseNumber();
    }
  }

  JsonValue parseObject() {
    expect('{');
    JsonValue v = JsonValue::makeObject();
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skipWs();
      std::string key = parseString();
      skipWs();
      expect(':');
      skipWs();
      v.mutableObject()[std::move(key)] = parseValue();
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parseArray() {
    expect('[');
    JsonValue v = JsonValue::makeArray();
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      skipWs();
      v.mutableArray().push_back(parseValue());
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': appendCodepoint(out, parseHex4()); break;
        default: fail("bad escape");
      }
    }
  }

  unsigned parseHex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape");
    }
    return value;
  }

  static void appendCodepoint(std::string& out, unsigned cp) {
    // BMP only (no surrogate pairing) — the protocol never emits
    // non-BMP text; a lone surrogate encodes as-is (WTF-8 style)
    // rather than corrupting the rest of the line.
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      const bool numeric = (c >= '0' && c <= '9') || c == '.' || c == 'e' ||
                           c == 'E' || c == '+' || c == '-';
      if (!numeric) break;
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("malformed number");
    }
    return JsonValue::makeNumber(d, token);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< Containers open around pos_.
};

} // namespace

JsonValue parseJson(std::string_view text) {
  return Parser(text).parseDocument();
}

void appendJsonString(std::string& out, std::string_view text) {
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void appendJsonNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

} // namespace sct::serve
