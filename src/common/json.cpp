#include "common/json.hpp"

#include <charconv>
#include <cmath>

namespace repro::json {

namespace {

// Recursion guard for parsing adversarial inputs (the service reads
// requests from untrusted clients).
constexpr int kMaxDepth = 64;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;
  bool failed = false;

  bool fail(const std::string& msg) {
    if (!failed) {
      failed = true;
      error = msg + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) == word) {
      pos += word.size();
      return true;
    }
    return fail("invalid literal");
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        ++pos;
        continue;
      }
      ++pos;
      if (pos >= text.size()) return fail("truncated escape");
      const char esc = text[pos++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("invalid \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // recombined; each half encodes independently, which is
          // lossy but never crashes — requests are ASCII in practice).
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
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    bool integral = true;
    if (pos < text.size() && text[pos] == '.') {
      integral = false;
      ++pos;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      integral = false;
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    const std::string_view tok = text.substr(start, pos - start);
    if (tok.empty() || tok == "-") return fail("invalid number");
    if (integral) {
      std::int64_t i = 0;
      const auto [p, ec] = std::from_chars(tok.begin(), tok.end(), i);
      if (ec == std::errc() && p == tok.end()) {
        out = Value(i);
        return true;
      }
      // Integer overflow: fall through to double.
    }
    double d = 0.0;
    const auto [p, ec] = std::from_chars(tok.begin(), tok.end(), d);
    if (ec != std::errc() || p != tok.end()) return fail("invalid number");
    out = Value(d);
    return true;
  }

  bool parse_value(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    switch (text[pos]) {
      case '{': {
        ++pos;
        out = Value::object();
        skip_ws();
        if (pos < text.size() && text[pos] == '}') {
          ++pos;
          return true;
        }
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (!consume(':')) return false;
          Value v;
          if (!parse_value(v, depth + 1)) return false;
          out.set(std::move(key), std::move(v));
          skip_ws();
          if (pos < text.size() && text[pos] == ',') {
            ++pos;
            continue;
          }
          return consume('}');
        }
      }
      case '[': {
        ++pos;
        out = Value::array();
        skip_ws();
        if (pos < text.size() && text[pos] == ']') {
          ++pos;
          return true;
        }
        while (true) {
          Value v;
          if (!parse_value(v, depth + 1)) return false;
          out.push_back(std::move(v));
          skip_ws();
          if (pos < text.size() && text[pos] == ',') {
            ++pos;
            continue;
          }
          return consume(']');
        }
      }
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Value(std::move(s));
        return true;
      }
      case 't':
        if (!literal("true")) return false;
        out = Value(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        out = Value(false);
        return true;
      case 'n':
        if (!literal("null")) return false;
        out = Value();
        return true;
      default:
        return parse_number(out);
    }
  }
};

}  // namespace

void Value::set(std::string key, Value v) {
  for (Member& m : obj_) {
    if (m.first == key) {
      m.second = std::move(v);
      return;
    }
  }
  obj_.emplace_back(std::move(key), std::move(v));
}

const Value* Value::find(std::string_view key) const noexcept {
  for (const Member& m : obj_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

void escape_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  // Each run of bytes that need no escape is appended whole.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        out += "\\u00";
        out.push_back(kHex[c >> 4]);
        out.push_back(kHex[c & 0xf]);
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

std::string format_double(double d) { return Writer().value(d).take(); }

Writer& Writer::key(std::string_view k) {
  if (comma_) out_.push_back(',');
  escape_string(out_, k);
  out_.push_back(':');
  comma_ = false;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  if (comma_) out_.push_back(',');
  escape_string(out_, s);
  comma_ = true;
  return *this;
}

// 32 bytes hold any double's shortest form, 24 any int64.
Writer& Writer::value(double d) {
  if (!std::isfinite(d)) return null();
  char buf[32];
  const char* end = std::to_chars(buf, buf + sizeof(buf), d).ptr;
  return raw(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

Writer& Writer::int_value(std::int64_t i) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof(buf), i).ptr;
  return raw(std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

Writer& Writer::raw(std::string_view json) {
  if (comma_) out_.push_back(',');
  out_ += json;
  comma_ = true;
  return *this;
}

void Value::write(Writer& w) const {
  switch (type_) {
    case Type::kNull:
      w.null();
      return;
    case Type::kBool:
      w.value(bool_);
      return;
    case Type::kInt:
      w.value(int_);
      return;
    case Type::kDouble:
      w.value(double_);
      return;
    case Type::kString:
      w.value(std::string_view(str_));
      return;
    case Type::kArray:
      w.begin_array();
      for (const Value& v : arr_) v.write(w);
      w.end_array();
      return;
    case Type::kObject:
      w.begin_object();
      for (const auto& [key, v] : obj_) {
        w.key(key);
        v.write(w);
      }
      w.end_object();
      return;
  }
}

std::string Value::dump() const {
  Writer w;
  write(w);
  return w.take();
}

std::optional<Value> parse(std::string_view text, std::string* error) {
  Parser p{text, 0, {}};
  Value v;
  if (!p.parse_value(v, 0)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.pos != p.text.size()) {
    if (error != nullptr) {
      *error = "trailing garbage at offset " + std::to_string(p.pos);
    }
    return std::nullopt;
  }
  return v;
}

}  // namespace repro::json
