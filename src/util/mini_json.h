#pragma once

/// Minimal recursive-descent JSON parser: enough to read the committed
/// bench baselines (sim/calibration.cc loads per-segment cost from
/// BENCH_rmcrt_kernel.json) and to let tests validate emitter output by
/// parsing it. Throws std::runtime_error on any syntax error (so
/// EXPECT_NO_THROW(parse(...)) is the well-formedness check), and on
/// arrays/objects nested deeper than Parser::kMaxDepth, so a hostile file
/// cannot overflow the stack of this recursive parser.

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace minijson {

struct Value {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool has(const std::string& key) const {
    return type == Type::Object && object.count(key) > 0;
  }
  const Value& at(const std::string& key) const {
    if (!has(key)) throw std::runtime_error("missing key: " + key);
    return object.at(key);
  }
};

class Parser {
 public:
  /// Far above any committed file (BENCH_scaling.json nests 8 levels).
  static constexpr int kMaxDepth = 256;

  explicit Parser(const std::string& text) : m_s(text) {}

  Value parse() {
    Value v = parseValue();
    skipWs();
    if (m_i != m_s.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON error at offset " +
                             std::to_string(m_i) + ": " + why);
  }

  void skipWs() {
    while (m_i < m_s.size() &&
           std::isspace(static_cast<unsigned char>(m_s[m_i])))
      ++m_i;
  }

  char peek() {
    skipWs();
    if (m_i >= m_s.size()) fail("unexpected end of input");
    return m_s[m_i];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++m_i;
  }

  bool consumeLiteral(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (m_s.compare(m_i, n, lit) != 0) return false;
    m_i += n;
    return true;
  }

  Value parseValue() {
    const char c = peek();
    Value v;
    switch (c) {
      case '{':
      case '[': {
        if (++m_depth > kMaxDepth) fail("nested too deeply");
        v = c == '{' ? parseObject() : parseArray();
        --m_depth;
        return v;
      }
      case '"':
        v.type = Value::Type::String;
        v.str = parseString();
        return v;
      case 't':
        if (!consumeLiteral("true")) fail("bad literal");
        v.type = Value::Type::Bool;
        v.boolean = true;
        return v;
      case 'f':
        if (!consumeLiteral("false")) fail("bad literal");
        v.type = Value::Type::Bool;
        return v;
      case 'n':
        if (!consumeLiteral("null")) fail("bad literal");
        return v;
      default:
        return parseNumber();
    }
  }

  Value parseObject() {
    expect('{');
    Value v;
    v.type = Value::Type::Object;
    if (peek() == '}') {
      ++m_i;
      return v;
    }
    for (;;) {
      if (peek() != '"') fail("expected object key");
      std::string key = parseString();
      expect(':');
      v.object[key] = parseValue();
      const char c = peek();
      ++m_i;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Value parseArray() {
    expect('[');
    Value v;
    v.type = Value::Type::Array;
    if (peek() == ']') {
      ++m_i;
      return v;
    }
    for (;;) {
      v.array.push_back(parseValue());
      const char c = peek();
      ++m_i;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (m_i < m_s.size()) {
      const char c = m_s[m_i++];
      if (c == '"') return out;
      if (c == '\\') {
        if (m_i >= m_s.size()) fail("bad escape");
        const char e = m_s[m_i++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (m_i + 4 > m_s.size()) fail("bad \\u escape");
            out += '?';  // tests never emit non-ASCII; placeholder is fine
            m_i += 4;
            break;
          default:
            fail("bad escape character");
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
  }

  Value parseNumber() {
    const std::size_t start = m_i;
    if (m_i < m_s.size() && m_s[m_i] == '-') ++m_i;
    auto digits = [&] {
      std::size_t n = 0;
      while (m_i < m_s.size() &&
             std::isdigit(static_cast<unsigned char>(m_s[m_i]))) {
        ++m_i;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail("expected digits");
    if (m_i < m_s.size() && m_s[m_i] == '.') {
      ++m_i;
      if (digits() == 0) fail("expected fraction digits");
    }
    if (m_i < m_s.size() && (m_s[m_i] == 'e' || m_s[m_i] == 'E')) {
      ++m_i;
      if (m_i < m_s.size() && (m_s[m_i] == '+' || m_s[m_i] == '-')) ++m_i;
      if (digits() == 0) fail("expected exponent digits");
    }
    Value v;
    v.type = Value::Type::Number;
    v.number = std::strtod(m_s.c_str() + start, nullptr);
    return v;
  }

  const std::string& m_s;
  std::size_t m_i = 0;
  int m_depth = 0;
};

inline Value parse(const std::string& text) { return Parser(text).parse(); }

}  // namespace minijson
